"""JSON file formats for presentations and constructed structures.

Two layers of validation on load:
  * shape errors (missing keys, wrong types, unparseable scalars or keys)
    raise FileSyntaxError;
  * well-typed files whose contents break a structural invariant (witness
    equations, boundary coefficients of g, non-monomial antipode rows, ...)
    raise FileSemanticError.

A structure file stores the presentation, pi, c, g and the antipode table s.
The comultiplication is fixed by pi and g (builder.comultiplication), so
format 2, the one written, leaves it out and the loader rebuilds it.  A
format-1 file also carries a delta block; it still loads, and each of its
rows must equal the rebuilt one.  Loading never re-derives g or s from the
witness, so a file whose g and s entries were perturbed consistently is
accepted here and left for the verifier to reject.

A structure file repeats a few literals and the dim basis keys many times
over.  One load therefore parses each distinct literal once, and a file in
the layout save_structure writes is read positionally: its g and s tables
are compared with the canonical keys as whole lists (_positional_tables).
Any other file resolves each key through a dict of the canonical basis keys
(_basis_table).  The memos live only for the call that builds them.  Saving
likewise spells each basis key and formats each distinct scalar once, and
writes the compact text of one json.dumps call.
"""

from __future__ import annotations

import json

from .algebra import Presentation, basis_keys, parse_vector_key, vector_key
from .builder import (
    BfaStructure,
    Witness,
    check_witness,
    comultiplication,
    image_indices,
)
from .errors import (
    FileSemanticError,
    FileSyntaxError,
    FileWriteError,
    QciError,
    WitnessInvalidError,
)
from .permutations import Permutation
from .scalars import Field, Scalar, make_field

FORMAT_VERSION = 2
SECTIONS = {
    1: ("presentation", "pi", "c", "g", "delta", "s"),
    2: ("presentation", "pi", "c", "g", "s"),
}


def _int(value, where: str) -> int:
    """value when it is a JSON integer; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise FileSyntaxError(f"bad {where}: expected a JSON integer, got {value!r}")
    return value


def _scalar(field: Field, text, where: str, literals: dict):
    """The scalar a literal string names.

    literals maps every text that parsed cleanly in this file to its scalar;
    sharing one Scalar between entries is safe since scalars are immutable.
    """
    if not isinstance(text, str):
        raise FileSyntaxError(f"bad {where}: expected a scalar string, got {text!r}")
    s = literals.get(text)
    if s is None:
        try:
            s = literals[text] = field.parse(text)
        except QciError as exc:
            raise FileSyntaxError(f"bad {where}: {exc}") from None
    return s


def field_to_json(field: Field) -> dict:
    kind = field.kind
    out = {"kind": kind}
    if kind == "prime":
        out["p"] = field.p
    elif kind == "cyclotomic":
        out["m"] = field.m
    return out


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FileSyntaxError("field block must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "rational":
            return make_field("rational")
        if kind == "prime":
            return make_field("prime", _int(obj["p"], "p"))
        if kind == "cyclotomic":
            return make_field("cyclotomic", _int(obj["m"], "m"))
    except FileSyntaxError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileSyntaxError(f"bad field parameters: {exc}") from None
    except QciError as exc:
        raise FileSemanticError(str(exc)) from None
    raise FileSyntaxError(f"unknown field kind {kind!r}")


def presentation_to_json(P: Presentation) -> dict:
    return {
        "field": field_to_json(P.field),
        "n": P.n,
        "a": list(P.a),
        "q": [[str(P.q[i][j]) for j in range(P.n)] for i in range(P.n)],
    }


def presentation_from_json(obj, literals: dict | None = None) -> Presentation:
    """literals: the memo of parsed literals when obj is part of a larger file."""
    if literals is None:
        literals = {}
    if not isinstance(obj, dict):
        raise FileSyntaxError("presentation must be an object")
    for key in ("field", "n", "a", "q"):
        if key not in obj:
            raise FileSyntaxError(f"presentation is missing {key!r}")
    field = field_from_json(obj["field"])
    try:
        n = _int(obj["n"], "n")
        a = [_int(x, "a entry") for x in obj["a"]]
        rows = obj["q"]
        if not isinstance(rows, list) or len(rows) != n:
            raise FileSyntaxError("q must be an n-by-n array of scalar strings")
        if len(a) != n:
            raise FileSyntaxError("a must have n entries")
        q = []
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise FileSyntaxError("q must be an n-by-n array of scalar strings")
            q.append(
                [_scalar(field, e, "scalar in presentation", literals) for e in row]
            )
    except (TypeError, ValueError) as exc:
        raise FileSyntaxError(f"bad presentation data: {exc}") from None
    try:
        return Presentation(field, a, q)
    except QciError as exc:
        raise FileSemanticError(str(exc)) from None


def open_output(path: str, newline: str | None = None):
    """path opened for writing UTF-8 text; failing to open is FileWriteError."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise FileWriteError(f"cannot write {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


def save_presentation(P: Presentation, path: str) -> None:
    _write_text(path, json.dumps(presentation_to_json(P), indent=2) + "\n")


def load_presentation(path: str) -> Presentation:
    return presentation_from_json(_read_json(path))


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileSyntaxError(f"not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileSyntaxError(f"not valid UTF-8: {exc}") from None
    except OSError as exc:
        raise FileSyntaxError(f"cannot read {path}: {exc}") from None


def structure_to_json(B: BfaStructure) -> dict:
    P = B.presentation
    keys = basis_keys(P.a)
    c = [ci.value for ci in B.witness.c]
    # payload -> text, each distinct payload formatted once; all scalars of B
    # share one field
    text = {x: str(Scalar(P.field, x)) for x in {*c, *B.g, *B.s_coef}}
    return {
        "format": FORMAT_VERSION,
        "presentation": presentation_to_json(P),
        "pi": list(B.witness.pi.images),
        "c": [text[x] for x in c],
        "g": dict(zip(keys, map(text.__getitem__, B.g))),
        "s": {key: [keys[w], text[x]] for key, w, x in zip(keys, B.s_img, B.s_coef)},
    }


def save_structure(B: BfaStructure, path: str) -> None:
    _write_text(path, json.dumps(structure_to_json(B)) + "\n")


def _parse_key(text, n: int) -> tuple:
    try:
        return parse_vector_key(str(text), n)
    except ValueError as exc:
        raise FileSyntaxError(str(exc)) from None


def _vector(P: Presentation, vectors: dict, text):
    """The basis vector text names, or None for a well-formed key off the basis.

    vectors maps each canonical key to its basis vector; only other spellings
    (" 0,1", "00,1") are parsed and range-checked.
    """
    v = vectors.get(text) if isinstance(text, str) else None
    if v is None:
        v = _parse_key(text, P.n)
        if not P.in_basis(v):
            return None
    return v


def _basis_table(obj, name: str, P: Presentation, vectors: dict, entry) -> dict:
    """A table keyed by every basis vector; entry(key, value) reads one value."""
    if not isinstance(obj, dict):
        raise FileSyntaxError(f"{name} must be an object keyed by exponent vectors")
    table = {}
    for key, value in obj.items():
        v = _vector(P, vectors, key)
        if v is None:
            raise FileSemanticError(f"{name} key {key!r} is outside the basis")
        if v in table:
            raise FileSemanticError(f"{name} names {vector_key(v)} twice")
        table[v] = entry(key, value)
    for v in P.basis():
        if v not in table:
            raise FileSemanticError(f"{name} is missing {vector_key(v)}")
    return table


def _check_delta_block(block, B: BfaStructure, vectors: dict, literals: dict):
    """Check the delta block of a format-1 file against the rows of the
    rebuilt structure B."""
    P, index = B.presentation, B.presentation.positions()

    def delta_row(key, rows):
        if not isinstance(rows, list):
            raise FileSyntaxError(f"delta[{key}] must be a list of terms")
        terms = []
        where = f"coefficient in delta[{key}]"
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise FileSyntaxError(f"delta[{key}] terms must be [u, w, coeff]")
            u = _vector(P, vectors, row[0])
            w = _vector(P, vectors, row[1])
            if u is None or w is None:
                raise FileSemanticError(f"delta[{key}] has a term outside the basis")
            coeff = _scalar(P.field, row[2], where, literals)
            if coeff.is_zero():
                raise FileSemanticError(f"delta[{key}] has a zero coefficient")
            terms.append((index[u], index[w], coeff.value))
        return terms

    given = _basis_table(block, "delta", P, vectors, delta_row)
    wrong_row = {
        0: "delta at the zero vector must be 1 (x) 1",
        P.dim - 1: "delta at the top vector disagrees with g",
    }
    # in basis order: the zero row first, the top row last
    for i, v in enumerate(P.basis()):
        row = {}
        for u, w, coeff in given[v]:
            if (u, w) in row:
                raise FileSemanticError(f"delta[{vector_key(v)}] repeats a tensor term")
            row[(u, w)] = coeff
        if row != {(u, w): coeff for u, w, coeff in B.row(i)}:
            raise FileSemanticError(
                wrong_row.get(i)
                or f"delta[{vector_key(v)}] must be primitive below the top vector"
            )


def _positional_tables(obj, P: Presentation, keys: list, images: list, literals: dict):
    """The payloads (g, s_coef) of a format-2 file laid out as save_structure
    writes it, or None when any part of this premise fails:

      (1) g and s are objects whose keys are exactly keys = basis_keys(P.a),
          in that order (one list comparison each);
      (2) every s entry is a 2-element list, every g value and every s
          coefficient is a string;
      (3) the image texts are [keys[k] for k in images], images being
          image_indices(P, pi);
      (4) each distinct literal of g parses, through the shared memo
          literals, to a nonzero scalar, and g is 1 at the first and the
          last key;
      (5) likewise for the distinct coefficients of s, and the last is 1.

    Certificate that the per-key reader (_basis_table and the checks after
    it in structure_from_json) would accept the file and build the same
    structure: by (1) every key is canonical, so _vector finds it in the
    dict of canonical keys, no basis vector is named twice (the keys of the
    basis are distinct) and none is missing; by (2) every row has the shape
    that reader asks for; by (3) the image at key i is the canonical key of
    basis[images[i]], so it lies in the basis, its index is images[i] as the
    pi-image check requires, and at the top it is the top vector, since a
    compatible pi preserves the exponents; (4) and (5) decide the checks on
    literals (every entry parses and is nonzero), g's boundary and S's top
    coefficient.  That reader would then hold g_v and the coefficient of
    S(x_v) at v = basis[i] as the payloads read here at i.

    (1)-(3) raise nothing, and a literal that fails to parse returns None,
    so the per-key reader names it.
    """
    g, s = obj["g"], obj["s"]
    if not (isinstance(g, dict) and isinstance(s, dict) and list(g) == keys == list(s)):
        return None
    g_texts, entries = list(g.values()), list(s.values())
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    image_texts, coef_texts = zip(*entries)
    if set(map(type, g_texts)) != {str} or set(map(type, coef_texts)) != {str}:
        return None
    if list(image_texts) != list(map(keys.__getitem__, images)):
        return None
    field, one = P.field, P.field.one.value
    payloads = {}

    def read(texts):
        """The payloads of texts, or None unless each parses to a nonzero scalar."""
        for text in dict.fromkeys(texts):
            if text not in payloads:
                try:
                    x = _scalar(field, text, "literal", literals).value
                except FileSyntaxError:
                    return None
                if field._is_zero(x):
                    return None
                payloads[text] = x
        return list(map(payloads.__getitem__, texts))

    g_values = read(g_texts)
    if g_values is None or g_values[0] != one or g_values[-1] != one:
        return None
    s_coef = read(coef_texts)
    if s_coef is None or s_coef[-1] != one:
        return None
    return g_values, s_coef


def structure_from_json(obj) -> BfaStructure:
    """The structure a file's JSON object describes.

    A format-2 file in the layout save_structure writes is read positionally
    (_positional_tables); any other file, and any format-1 file, goes
    through the per-key reader below, which raises every loader message.
    """
    if not isinstance(obj, dict):
        raise FileSyntaxError("structure must be an object")
    if "format" not in obj:
        raise FileSyntaxError("structure is missing 'format'")
    version = _int(obj["format"], "format")
    if version not in SECTIONS:
        raise FileSyntaxError(
            f"unknown structure format {version}: qci reads formats 1 and 2"
        )
    for key in SECTIONS[version]:
        if key not in obj:
            raise FileSyntaxError(f"structure is missing {key!r}")
    if version == 2 and "delta" in obj:
        raise FileSyntaxError(
            "a format-2 structure has no 'delta': it follows from pi and g"
        )
    literals = {}
    P = presentation_from_json(obj["presentation"], literals)
    field = P.field
    n = P.n
    one = field.one

    try:
        pi = Permutation(tuple(_int(x, "pi entry") for x in obj["pi"]))
    except (TypeError, ValueError) as exc:
        raise FileSyntaxError(f"bad pi: {exc}") from None
    if pi.n != n:
        raise FileSemanticError("pi must permute exactly the generators")

    if not isinstance(obj["c"], list):
        raise FileSyntaxError("c must be a list of scalar strings")
    c = tuple(_scalar(field, entry, "c entry", literals) for entry in obj["c"])
    if len(c) != n:
        raise FileSemanticError("c must have one entry per generator")

    witness = Witness(pi, c)
    try:
        check_witness(P, witness)
    except WitnessInvalidError as exc:
        raise FileSemanticError(str(exc)) from None

    keys = basis_keys(P.a)
    images = image_indices(P, pi)
    tables = _positional_tables(obj, P, keys, images, literals) if version == 2 else None
    if tables is not None:
        g, s_coef = tables
        return BfaStructure(P, witness, g, comultiplication(P, images, g), images, s_coef)

    vectors = dict(zip(keys, P.basis()))
    g_entries = _basis_table(
        obj["g"],
        "g",
        P,
        vectors,
        lambda key, text: _scalar(field, text, f"g[{key}]", literals),
    )
    for v in P.basis():
        if g_entries[v].is_zero():
            raise FileSemanticError(f"g[{vector_key(v)}] must be nonzero")
    if g_entries[P.zero_vec] != one or g_entries[P.top] != one:
        raise FileSemanticError("g must be 1 at the zero and top vectors")

    g = [g_entries[v].value for v in P.basis()]
    B = BfaStructure(P, witness, g, comultiplication(P, images, g), images, s_coef=[])
    if version == 1:
        _check_delta_block(obj["delta"], B, vectors, literals)

    def s_row(key, row):
        if not isinstance(row, list) or len(row) != 2:
            raise FileSyntaxError(f"s[{key}] must be [image, coeff]")
        img = _vector(P, vectors, row[0])
        if img is None:
            raise FileSemanticError(f"s[{key}] image is outside the basis")
        return img, _scalar(field, row[1], f"coefficient in s[{key}]", literals)

    s_entries = _basis_table(obj["s"], "s", P, vectors, s_row)
    index = P.positions()
    for v, image in zip(P.basis(), images):
        img, coeff = s_entries[v]
        if coeff.is_zero():
            raise FileSemanticError(f"s[{vector_key(v)}] has a zero coefficient")
        if index[img] != image:
            raise FileSemanticError(f"s[{vector_key(v)}] must land on the pi-image")
        B.s_coef.append(coeff.value)
    if s_entries[P.top] != (P.top, one):
        raise FileSemanticError("s must fix the top monomial with coefficient 1")

    return B


def load_structure(path: str) -> BfaStructure:
    return structure_from_json(_read_json(path))
