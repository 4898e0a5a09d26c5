"""JSON file formats for presentations and constructed structures.

Two layers of validation on load:
  * shape errors (missing keys, wrong types, unparseable scalars or keys)
    raise FileSyntaxError;
  * well-typed files whose contents break a structural invariant (witness
    equations, boundary coefficients of g, non-monomial antipode rows, ...)
    raise FileSemanticError.

A structure file stores the presentation, pi, c, g and the antipode table s.
A structure holds only g and the coefficients of s (BfaStructure): the
comultiplication is fixed by pi and g, so format 2, the one written, leaves
it out, and every image of s must be the pi-image.  A format-1 file also
carries a delta block; it still loads, and each of its rows must equal the
one BfaStructure.row reads.  So a delta row or an S image other than the
construction's is a loader error.  Loading never re-derives g or s
from the witness, so a file whose g and s entries were perturbed
consistently is accepted here and left for the verifier to reject.  A key
that does not parse names its place: a g or s key, an s image or a term
of a delta row.

A structure file repeats a few literals and the dim basis keys many times
over.  One reader serves every file: it puts each of g, s and the format-1
delta block in basis order once (_Keys.table), by position when its keys
are the canonical ones in the order save_structure writes, else by
resolving each key, and then runs every check once on whole lists: one type
set, one parse per distinct literal, one zero test per distinct payload,
one comparison of the image texts, one comparison of each delta row with
its canonical spelling.  Only a check that fails walks the entries, to
name the first bad one.  The memos live only for the call that
builds them.  Saving likewise spells each basis key and formats each
distinct scalar once, and writes the compact text of one json.dumps call.
"""

from __future__ import annotations

import json
from functools import cached_property

from .algebra import Presentation, basis_keys, parse_vector_key, vector_key
from .builder import BfaStructure, Witness, check_witness, image_indices
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
    except RecursionError:
        raise FileSyntaxError("not valid JSON: nested too deeply to read") from None
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


class _Keys:
    """The canonical keys of a presentation's basis, in basis order, and the
    one resolver of the keys a file spells."""

    def __init__(self, P: Presentation):
        self.keys = basis_keys(P.a)
        self.n = P.n

    @cached_property
    def _lookup(self) -> dict:
        # built by the first key resolved, so a file whose tables are all in
        # canonical order never builds it
        return dict(zip(self.keys, range(len(self.keys))))

    def index(self, text, where: str):
        """The basis index of the vector text names, or None for a
        well-formed key off the basis; only spellings other than the
        canonical one (" 0,1", "00,1") are parsed and range-checked.  A
        malformed key raises 'bad {where}: ...'."""
        i = self._lookup.get(text) if isinstance(text, str) else None
        if i is None:
            try:
                v = parse_vector_key(str(text), self.n)
            except ValueError as exc:
                raise FileSyntaxError(f"bad {where}: {exc}") from None
            i = self._lookup.get(vector_key(v))
        return i

    def table(self, obj, name: str) -> tuple[list, list]:
        """The keys as the file spells them and the values of a table keyed
        by every basis vector, both in basis order.  A table in canonical
        order is read by position; any other resolves each key."""
        if not isinstance(obj, dict):
            raise FileSyntaxError(f"{name} must be an object keyed by exponent vectors")
        keys = self.keys
        if list(obj) == keys:
            return keys, list(obj.values())
        spelled, values = [None] * len(keys), [None] * len(keys)
        for key, value in obj.items():
            i = self.index(key, f"{name} key {key!r}")
            if i is None:
                raise FileSemanticError(f"{name} key {key!r} is outside the basis")
            if spelled[i] is not None:
                raise FileSemanticError(f"{name} names {keys[i]} twice")
            spelled[i], values[i] = key, value
        if None in spelled:
            raise FileSemanticError(f"{name} is missing {keys[spelled.index(None)]}")
        return spelled, values


def _nonzero_scalars(field: Field, texts: list, literals: dict, where, zero) -> list:
    """The payloads of texts, each of which must name a nonzero scalar.

    The common case takes whole-list steps: one type set, each distinct text
    parsed once through literals, one zero test per distinct payload.  Only
    when one of them fails are the entries walked, and the first bad entry i
    raises 'bad {where(i)}: ...', or zero(i) when every entry parses.
    """
    if set(map(type, texts)) == {str}:
        distinct = set(texts)
        try:
            for text in distinct.difference(literals):
                literals[text] = field.parse(text)
        except QciError:
            pass
        else:
            payload = {text: literals[text].value for text in distinct}
            if not any(map(field._is_zero, payload.values())):
                return list(map(payload.__getitem__, texts))
    values = [
        _scalar(field, text, where(i), literals).value for i, text in enumerate(texts)
    ]
    for i, x in enumerate(values):
        if field._is_zero(x):
            raise FileSemanticError(zero(i))
    return values


def _check_delta_block(block, B: BfaStructure, basis: _Keys, literals: dict):
    """Check the delta block of a format-1 file against the rows B.row reads,
    which follow from g and the images of pi.

    Each row is first compared, as a whole list, with the row of B spelled
    as save_structure spells keys and scalars.  A row equal to it passes
    every check below: its keys are canonical and name its own indices, its
    coefficient texts parse back to the payloads of B.row, which are nonzero
    (g is), and its terms are those of B.row, each once.  So only the rows
    that differ are walked, term by term, in basis order: first their shape,
    keys and coefficients, then their terms against B.row, and the first
    fault named is the one a walk over every row would name.
    """
    P = B.presentation
    keys = basis.keys
    one = P.field.one.value
    text = {x: str(Scalar(P.field, x)) for x in {one, *B.g}}
    spelled, entries = basis.table(block, "delta")
    differ = [
        i
        for i, rows in enumerate(entries)
        if rows != [[keys[u], keys[w], text[x]] for u, w, x in B.row(i)]
    ]
    given = []
    for i in differ:
        key, rows = spelled[i], entries[i]
        if not isinstance(rows, list):
            raise FileSyntaxError(f"delta[{key}] must be a list of terms")
        terms = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise FileSyntaxError(f"delta[{key}] terms must be [u, w, coeff]")
            u, w = (basis.index(x, f"delta[{key}] term") for x in row[:2])
            if u is None or w is None:
                raise FileSemanticError(f"delta[{key}] has a term outside the basis")
            coeff = _scalar(P.field, row[2], f"coefficient in delta[{key}]", literals)
            if coeff.is_zero():
                raise FileSemanticError(f"delta[{key}] has a zero coefficient")
            terms.append((u, w, coeff.value))
        given.append((i, terms))
    wrong_row = {
        0: "delta at the zero vector must be 1 (x) 1",
        P.dim - 1: "delta at the top vector disagrees with g",
    }
    # in basis order: the zero row first, the top row last
    for i, terms in given:
        row = {}
        for u, w, coeff in terms:
            if (u, w) in row:
                raise FileSemanticError(f"delta[{keys[i]}] repeats a tensor term")
            row[(u, w)] = coeff
        if row != {(u, w): coeff for u, w, coeff in B.row(i)}:
            raise FileSemanticError(
                wrong_row.get(i)
                or f"delta[{keys[i]}] must be primitive below the top vector"
            )


def structure_from_json(obj) -> BfaStructure:
    """The structure a file's JSON object describes.

    Each table is put in basis order once (_Keys.table); every check then
    runs once on the whole lists, and walks the entries only to name the
    first one that fails it.
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
    one = field.one.value

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

    basis = _Keys(P)
    keys = basis.keys
    images = image_indices(P, pi)

    g_keys, g_texts = basis.table(obj["g"], "g")
    g = _nonzero_scalars(
        field,
        g_texts,
        literals,
        lambda i: f"g[{g_keys[i]}]",
        lambda i: f"g[{keys[i]}] must be nonzero",
    )
    if g[0] != one or g[-1] != one:
        raise FileSemanticError("g must be 1 at the zero and top vectors")
    B = BfaStructure(P, witness, g, s_coef=[])
    B.s_img = images  # the pi-images, already read for the s check below
    if version == 1:
        _check_delta_block(obj["delta"], B, basis, literals)

    s_keys, entries = basis.table(obj["s"], "s")
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        for key, entry in zip(s_keys, entries):
            if not isinstance(entry, list) or len(entry) != 2:
                raise FileSyntaxError(f"s[{key}] must be [image, coeff]")
    image_texts, coef_texts = zip(*entries)
    if list(image_texts) != list(map(keys.__getitem__, images)):
        for key, canonical, text, image in zip(s_keys, keys, image_texts, images):
            i = basis.index(text, f"s[{key}] image")
            if i is None:
                raise FileSemanticError(f"s[{key}] image is outside the basis")
            if i != image:
                raise FileSemanticError(f"s[{canonical}] must land on the pi-image")
    B.s_coef = _nonzero_scalars(
        field,
        coef_texts,
        literals,
        lambda i: f"coefficient in s[{s_keys[i]}]",
        lambda i: f"s[{keys[i]}] has a zero coefficient",
    )
    if B.s_coef[-1] != one:
        raise FileSemanticError("s must fix the top monomial with coefficient 1")
    return B


def load_structure(path: str) -> BfaStructure:
    return structure_from_json(_read_json(path))
