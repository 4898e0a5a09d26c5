"""Save/load round trips and the two-layer file validation."""

import contextlib
import copy
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qci.algebra
import qci.scalars
import qci.structio
from helpers import failing, format1_blob, g_dict, rand_compatible_involutive_h
from qci.algebra import Presentation, basis_keys, vector_key
from qci.builder import build_structure, decide
from qci.cli import run
from qci.demos import example_presentation, example_structure
from qci.errors import FileSemanticError, FileSyntaxError, FileWriteError, QciError
from qci.scalars import make_field
from qci.structio import (
    field_from_json,
    load_presentation,
    load_structure,
    presentation_from_json,
    presentation_to_json,
    save_presentation,
    save_structure,
    structure_from_json,
    structure_to_json,
)
from qci.verify import verify_axioms

GOLDEN_STRUCTURE = (
    Path(__file__).resolve().parent / "data" / "golden" / "d64-gf7.structure.json"
)
C8 = make_field("cyclotomic", 8)
Q = make_field("rational")
F7 = make_field("prime", 7)


def gf7_structure(a, upper):
    """The decided structure on GF(7) with q_ij = upper[(i, j)] for i < j."""
    q = [[F7.one for _ in a] for _ in a]
    for (i, j), k in upper.items():
        q[i - 1][j - 1] = F7.from_int(k)
        q[j - 1][i - 1] = F7.from_int(k).inverse()
    P = Presentation(F7, a, q)
    return build_structure(P, decide(P).witness)


def file_literals(obj) -> set:
    """Every scalar literal of a structure blob: q, c, g, delta (format 1) and s."""
    return (
        {e for row in obj["presentation"]["q"] for e in row}
        | set(obj["c"])
        | set(obj["g"].values())
        | {term[2] for rows in obj.get("delta", {}).values() for term in rows}
        | {coeff for _, coeff in obj["s"].values()}
    )


@pytest.fixture
def structure():
    return example_structure("6.9", C8)


@pytest.fixture
def blob(structure):
    return structure_to_json(structure)


@pytest.fixture
def blob1(structure):
    """The same structure as a format-1 file, with its delta block."""
    return format1_blob(structure)


@pytest.fixture
def blobs(blob, blob1):
    return {1: blob1, 2: blob}


class TestFieldBlock:
    def test_round_trip(self):
        for field in (make_field("rational"), make_field("prime", 13), C8):
            from qci.structio import field_to_json

            assert field_from_json(field_to_json(field)) == field

    def test_unknown_kind(self):
        with pytest.raises(FileSyntaxError):
            field_from_json({"kind": "galois", "p": 5})
        with pytest.raises(FileSyntaxError):
            field_from_json(["rational"])

    def test_bad_parameters(self):
        with pytest.raises(FileSyntaxError):
            field_from_json({"kind": "prime"})
        with pytest.raises(FileSemanticError):
            field_from_json({"kind": "prime", "p": 6})


class TestPresentationFiles:
    def test_round_trip(self, tmp_path):
        for field in (make_field("rational"), make_field("prime", 7), C8):
            P = example_presentation("6.10", field, b="2")
            path = tmp_path / "p.json"
            save_presentation(P, str(path))
            assert load_presentation(str(path)) == P

    def test_missing_key(self):
        P = example_presentation("6.9", C8)
        obj = presentation_to_json(P)
        del obj["q"]
        with pytest.raises(FileSyntaxError):
            presentation_from_json(obj)

    def test_bad_scalar(self):
        obj = presentation_to_json(example_presentation("6.9", C8))
        obj["q"][0][1] = "z+"
        with pytest.raises(FileSyntaxError):
            presentation_from_json(obj)

    def test_invariant_violation_is_semantic(self):
        obj = presentation_to_json(example_presentation("6.9", C8))
        obj["q"][0][1] = "2"  # breaks q12 * q21 = 1
        with pytest.raises(FileSemanticError):
            presentation_from_json(obj)
        obj = presentation_to_json(example_presentation("6.9", C8))
        obj["a"] = [1, 2, 2]
        with pytest.raises(FileSemanticError):
            presentation_from_json(obj)

    def test_unreadable_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(FileSyntaxError):
            load_presentation(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FileSyntaxError):
            load_presentation(str(bad))


class TestStructureRoundTrip:
    def test_bit_exact(self, tmp_path, structure):
        path = tmp_path / "s.json"
        save_structure(structure, str(path))
        loaded = load_structure(str(path))
        assert structure_to_json(loaded) == structure_to_json(structure)
        assert loaded.g == structure.g
        assert loaded.s_map == structure.s_map
        assert loaded.witness.pi == structure.witness.pi
        assert loaded.witness.c == structure.witness.c
        for v in structure.presentation.basis():
            assert sorted(loaded.delta[v], key=str) == sorted(
                structure.delta[v], key=str
            )
        assert verify_axioms(loaded).all_passed

    def test_cyclotomic_resave_is_byte_identical(self, tmp_path):
        # b = z/2 - 3 is no root of unity, so q, g and the antipode carry
        # fractional coefficients and inverses through the literal grammar
        B = example_structure("6.10", C8, b="1/2*z - 3")
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_structure(B, str(first))
        save_structure(load_structure(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()
        assert "/" in first.read_text()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gf7_structure((4, 4, 4), {(1, 2): 5, (1, 3): 3, (2, 3): 2}),
            lambda: example_structure("6.9", C8),
        ],
        ids=["gf7", "cyclotomic-8"],
    )
    def test_resave_is_byte_identical(self, tmp_path, build):
        # format 2 is the one-line text of json.dumps with its default
        # separators, without delta, and a newline; the save side memoizes
        # key spellings and scalar texts, so the bytes must equal a plain
        # spelling of every entry
        B = build()
        basis = B.presentation.basis()
        g = g_dict(B.presentation, B.g)

        def spell(v):
            return ",".join(str(x) for x in v)

        plain = {
            "format": 2,
            "presentation": presentation_to_json(B.presentation),
            "pi": list(B.witness.pi.images),
            "c": [str(c) for c in B.witness.c],
            "g": {spell(v): str(g[v]) for v in basis},
            "s": {spell(v): [spell(B.s_map[v][0]), str(B.s_map[v][1])] for v in basis},
        }
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_structure(B, str(first))
        save_structure(load_structure(str(first)), str(second))
        text = first.read_text()
        assert text == json.dumps(plain) + "\n"
        assert text.startswith('{"format": 2, "presentation": {"field": {"kind": ')
        assert text.count("\n") == 1
        assert second.read_bytes() == first.read_bytes()

    def test_truncated_file(self, tmp_path, structure):
        path = tmp_path / "s.json"
        save_structure(structure, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FileSyntaxError):
            load_structure(str(path))

    def test_missing_section(self, blob, blob1):
        obj = copy.deepcopy(blob1)
        del obj["delta"]
        with pytest.raises(FileSyntaxError):
            structure_from_json(obj)
        obj = copy.deepcopy(blob)
        del obj["g"]
        with pytest.raises(FileSyntaxError):
            structure_from_json(obj)


class TestFormat2Files:
    def test_d4096_file_is_small(self, tmp_path):
        # GF(7), a = (8,8,8,8): the longest keys at dim 4096; a format-1
        # file of this structure took 1.2 MB
        B = gf7_structure(
            (8, 8, 8, 8),
            {(1, 2): 4, (1, 3): 5, (1, 4): 6, (2, 3): 3, (2, 4): 6, (3, 4): 1},
        )
        assert B.presentation.dim == 4096
        path = tmp_path / "d4096.json"
        save_structure(B, str(path))
        assert "delta" not in json.loads(path.read_text())
        assert path.stat().st_size < 250_000

    def test_golden_is_format1_blob(self):
        # format1_blob writes the layout every format-1 file has
        obj = json.loads(GOLDEN_STRUCTURE.read_text())
        assert obj["format"] == 1
        assert format1_blob(load_structure(str(GOLDEN_STRUCTURE))) == obj

    def test_save_into_a_missing_directory(self, tmp_path, structure):
        path = tmp_path / "missing" / "s.json"
        with pytest.raises(FileWriteError, match=re.escape(f"cannot write {path}: ")):
            save_structure(structure, str(path))
        with pytest.raises(FileWriteError, match=re.escape(f"cannot write {path}: ")):
            save_presentation(structure.presentation, str(path))

    @pytest.mark.parametrize("load", [load_structure, load_presentation])
    def test_file_that_is_not_utf8(self, tmp_path, load):
        path = tmp_path / "s.json"
        path.write_bytes(b'\xff\xfe{"format": 2}')
        with pytest.raises(FileSyntaxError, match="not valid UTF-8"):
            load(str(path))


class TestStructureSemantics:
    def test_boundary_g_must_be_one(self, blob):
        obj = copy.deepcopy(blob)
        obj["g"]["0,0,0"] = "2"
        with pytest.raises(FileSemanticError, match="zero and top"):
            structure_from_json(obj)
        obj = copy.deepcopy(blob)
        obj["g"]["1,1,1"] = "-1"
        with pytest.raises(FileSemanticError, match="zero and top"):
            structure_from_json(obj)

    def test_zero_g_entry(self, blob):
        obj = copy.deepcopy(blob)
        obj["g"]["0,1,0"] = "0"
        with pytest.raises(FileSemanticError, match="nonzero"):
            structure_from_json(obj)

    def test_missing_g_entry(self, blob):
        obj = copy.deepcopy(blob)
        del obj["g"]["0,1,0"]
        with pytest.raises(FileSemanticError, match="missing"):
            structure_from_json(obj)

    def test_g_key_outside_basis(self, blob):
        obj = copy.deepcopy(blob)
        obj["g"]["0,2,0"] = "1"
        with pytest.raises(FileSemanticError, match="outside"):
            structure_from_json(obj)

    def test_invalid_witness(self, blob):
        obj = copy.deepcopy(blob)
        obj["c"] = ["-1", "1", "1"]
        with pytest.raises(FileSemanticError):
            structure_from_json(obj)

    def test_pi_size_mismatch(self, blob):
        obj = copy.deepcopy(blob)
        obj["pi"] = [1, 2]
        with pytest.raises(FileSemanticError):
            structure_from_json(obj)

    def test_top_row_must_match_g(self, blob1):
        obj = copy.deepcopy(blob1)
        rows = obj["delta"]["1,1,1"]
        u, w, coeff = rows[1]
        rows[1] = [u, w, C8.format(-C8.parse(coeff))]
        with pytest.raises(FileSemanticError, match="disagrees"):
            structure_from_json(obj)

    def test_lower_rows_must_be_primitive(self, blob1):
        obj = copy.deepcopy(blob1)
        obj["delta"]["0,1,0"] = [["0,0,0", "0,1,0", "1"]]
        with pytest.raises(FileSemanticError, match="primitive"):
            structure_from_json(obj)

    def test_antipode_image_must_follow_pi(self, blob):
        obj = copy.deepcopy(blob)
        obj["s"]["0,1,0"] = ["0,1,0", "1"]
        with pytest.raises(FileSemanticError, match="pi-image"):
            structure_from_json(obj)

    def test_antipode_top_normalization(self, blob):
        obj = copy.deepcopy(blob)
        obj["s"]["1,1,1"] = ["1,1,1", "-1"]
        with pytest.raises(FileSemanticError, match="top"):
            structure_from_json(obj)

    @pytest.mark.parametrize("version", [1, 2])
    def test_consistent_perturbation_loads_then_fails_verification(
        self, blobs, version
    ):
        # negate g at an interior vector (and, in format 1, the matching top
        # tensor term): the file is self-consistent, so loading succeeds; the
        # antipode definition check must then fail.
        obj = copy.deepcopy(blobs[version])
        target = "0,1,0"
        obj["g"][target] = C8.format(-C8.parse(obj["g"][target]))
        for idx, (u, w, coeff) in enumerate(obj.get("delta", {}).get("1,1,1", [])):
            comp = [1 - int(x) for x in u.split(",")]
            if ",".join(str(x) for x in comp) == target:
                obj["delta"]["1,1,1"][idx] = [u, w, C8.format(-C8.parse(coeff))]
        loaded = structure_from_json(obj)
        rep = verify_axioms(loaded)
        assert not rep.all_passed
        assert any(c.name == "antipode-definition" for c in failing(rep))


# -- every message of structure_from_json ------------------------------------


def _put(*path_and_value):
    """A tampering that sets obj[path[0]]...[path[-1]] = value."""
    *path, value = path_and_value

    def tamper(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return obj

    return tamper


def _drop(*path):
    """A tampering that deletes obj[path[0]]...[path[-1]]."""

    def tamper(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return obj

    return tamper


def _repeat_first_top_term(obj):
    top = obj["delta"]["1,1,1"]
    top.append(list(top[0]))
    return obj


S, M = FileSyntaxError, FileSemanticError
BOTH, V1, V2 = (1, 2), (1,), (2,)

# each case reaches exactly one raise; the rows follow the order of the
# checks.  The second entry names the file formats the case is run on.
LOADER_MESSAGES = [
    ("not-object", BOTH, lambda obj: [obj], S, "structure must be an object"),
    ("missing-format", BOTH, _drop("format"), S, "structure is missing 'format'"),
    (
        "format-not-integer",
        BOTH,
        _put("format", "2"),
        S,
        "bad format: expected a JSON integer, got '2'",
    ),
    (
        "format-unknown",
        BOTH,
        _put("format", 3),
        S,
        "unknown structure format 3: qci reads formats 1 and 2",
    ),
    ("missing-section", BOTH, _drop("s"), S, "structure is missing 's'"),
    ("v1-without-delta", V1, _drop("delta"), S, "structure is missing 'delta'"),
    (
        "v2-with-delta",
        V2,
        _put("delta", {}),
        S,
        "a format-2 structure has no 'delta': it follows from pi and g",
    ),
    ("pi-entry", BOTH, _put("pi", [1, "x", 2]), S, "bad pi"),
    (
        "pi-not-permutation",
        BOTH,
        _put("pi", [1, 1, 3]),
        S,
        "is not a permutation of 1..3",
    ),
    ("pi-size", BOTH, _put("pi", [1, 2]), M, "pi must permute exactly the generators"),
    ("c-scalar", BOTH, _put("c", 0, "z+"), S, "bad c entry"),
    ("c-length", BOTH, _put("c", ["1", "1"]), M, "c must have one entry per generator"),
    (
        "witness",
        BOTH,
        _put("c", ["-1", "1", "1"]),
        M,
        "q_pi * prod c_i^(a_i - 1) != 1",
    ),
    (
        "g-object",
        BOTH,
        _put("g", []),
        S,
        "g must be an object keyed by exponent vectors",
    ),
    (
        "g-key-syntax",
        BOTH,
        _put("g", "0,1", "1"),
        S,
        "expected 3 comma-separated entries",
    ),
    (
        "g-key-entry",
        BOTH,
        _put("g", "0,x,1", "1"),
        S,
        "bad g key '0,x,1': invalid literal for int() with base 10: 'x'",
    ),
    (
        "g-key-outside",
        BOTH,
        _put("g", "0,2,0", "1"),
        M,
        "g key '0,2,0' is outside the basis",
    ),
    ("g-key-twice", BOTH, _put("g", "00,1,0", "1"), M, "g names 0,1,0 twice"),
    ("g-missing", BOTH, _drop("g", "0,1,0"), M, "g is missing 0,1,0"),
    ("g-scalar", BOTH, _put("g", "0,1,0", "z+"), S, "bad g[0,1,0]"),
    ("g-zero", BOTH, _put("g", "0,1,0", "0"), M, "g[0,1,0] must be nonzero"),
    (
        "g-boundary",
        BOTH,
        _put("g", "1,1,1", "2"),
        M,
        "g must be 1 at the zero and top vectors",
    ),
    (
        "delta-object",
        V1,
        _put("delta", "x"),
        S,
        "delta must be an object keyed by exponent vectors",
    ),
    (
        "delta-key-outside",
        V1,
        _put("delta", "0,2,0", []),
        M,
        "delta key '0,2,0' is outside the basis",
    ),
    ("delta-missing", V1, _drop("delta", "0,1,0"), M, "delta is missing 0,1,0"),
    (
        "delta-row",
        V1,
        _put("delta", "0,1,0", "x"),
        S,
        "delta[0,1,0] must be a list of terms",
    ),
    (
        "delta-term",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,1,0"]]),
        S,
        "delta[0,1,0] terms must be [u, w, coeff]",
    ),
    (
        "delta-term-key",
        V1,
        _put("delta", "0,1,0", [["0,0", "0,1,0", "1"]]),
        S,
        "expected 3 comma-separated entries",
    ),
    (
        "delta-term-key-named",
        V1,
        _put("delta", "0,1,0", [["0,0", "0,1,0", "1"]]),
        S,
        "bad delta[0,1,0] term: expected 3 comma-separated entries in '0,0'",
    ),
    (
        "delta-term-right-key",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,x,0", "1"]]),
        S,
        "bad delta[0,1,0] term: invalid literal for int() with base 10: 'x'",
    ),
    (
        "delta-term-outside",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,2,0", "1"]]),
        M,
        "delta[0,1,0] has a term outside the basis",
    ),
    (
        "delta-scalar",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,1,0", "z+"]]),
        S,
        "bad coefficient in delta[0,1,0]",
    ),
    (
        "delta-zero",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,1,0", "0"]]),
        M,
        "delta[0,1,0] has a zero coefficient",
    ),
    (
        "delta-zero-row",
        V1,
        _put("delta", "0,0,0", [["0,0,0", "0,0,0", "2"]]),
        M,
        "delta at the zero vector must be 1 (x) 1",
    ),
    (
        "delta-primitive",
        V1,
        _put("delta", "0,1,0", [["0,0,0", "0,1,0", "1"]]),
        M,
        "delta[0,1,0] must be primitive below the top vector",
    ),
    ("delta-top-repeat", V1, _repeat_first_top_term, M, "repeats a tensor term"),
    (
        "delta-top",
        V1,
        _put("delta", "1,1,1", 0, 2, "2"),
        M,
        "delta at the top vector disagrees with g",
    ),
    (
        "s-object",
        BOTH,
        _put("s", None),
        S,
        "s must be an object keyed by exponent vectors",
    ),
    (
        "s-key-outside",
        BOTH,
        _put("s", "0,2,0", ["0,2,0", "1"]),
        M,
        "s key '0,2,0' is outside the basis",
    ),
    ("s-missing", BOTH, _drop("s", "0,1,0"), M, "s is missing 0,1,0"),
    (
        "s-row",
        BOTH,
        _put("s", "0,1,0", ["0,0,1"]),
        S,
        "s[0,1,0] must be [image, coeff]",
    ),
    (
        "s-image-key",
        BOTH,
        _put("s", "0,1,0", ["0,0", "1"]),
        S,
        "expected 3 comma-separated entries",
    ),
    (
        "s-image-entry",
        BOTH,
        _put("s", "0,1,0", ["0,x,1", "1"]),
        S,
        "bad s[0,1,0] image: invalid literal for int() with base 10: 'x'",
    ),
    (
        "s-image-not-string",
        BOTH,
        _put("s", "0,1,0", [5, "1"]),
        S,
        "bad s[0,1,0] image: expected 3 comma-separated entries in '5'",
    ),
    (
        "s-image-outside",
        BOTH,
        _put("s", "0,1,0", ["0,2,0", "1"]),
        M,
        "s[0,1,0] image is outside the basis",
    ),
    (
        "s-pi-image",
        BOTH,
        _put("s", "0,1,0", ["0,1,0", "1"]),
        M,
        "s[0,1,0] must land on the pi-image",
    ),
    (
        "s-scalar",
        BOTH,
        _put("s", "0,1,0", ["0,0,1", "z+"]),
        S,
        "bad coefficient in s[0,1,0]",
    ),
    (
        "s-zero",
        BOTH,
        _put("s", "0,1,0", ["0,0,1", "0"]),
        M,
        "s[0,1,0] has a zero coefficient",
    ),
    (
        "s-top",
        BOTH,
        _put("s", "1,1,1", ["1,1,1", "-1"]),
        M,
        "s must fix the top monomial with coefficient 1",
    ),
]


def _by_format(cases):
    """pytest params of (version, *rest) per (id, versions, *rest) case.

    A case run on format 1 keeps its bare id; a format-2 run of a case that
    also runs on format 1 gets the suffix -v2.
    """
    return [
        pytest.param(
            version,
            *rest,
            id=name if version == 1 or versions == V2 else f"{name}-v2",
        )
        for name, versions, *rest in cases
        for version in versions
    ]


@pytest.mark.parametrize("version, tamper, exc, fragment", _by_format(LOADER_MESSAGES))
def test_loader_message(blobs, version, tamper, exc, fragment):
    obj = tamper(copy.deepcopy(blobs[version]))
    with pytest.raises(exc, match=re.escape(fragment)):
        structure_from_json(obj)


# -- the delta rows and S images a file can spell --------------------------------
#
# A structure holds only g and s_coef: delta and the support of S follow from
# pi and g.  So every change of a delta row or of an S image that a file can
# spell is a loader error, and its LOADER_MESSAGES row names it.  Those rows
# name the vector 0,1,0; a case here that fails first at another vector has
# its message with that vector instead.

MESSAGES = {name: (exc, fragment) for name, _, _, exc, fragment in LOADER_MESSAGES}


def _edit(section, key, edit):
    """A tampering that replaces obj[section][key] with edit(obj[section][key])."""

    def tamper(obj):
        obj[section][key] = edit(obj[section][key])
        return obj

    return tamper


def _images(**images):
    """A tampering that sets the S image of each key to the given one, its
    coefficient kept; keys are spelled with "_" for ","."""

    def tamper(obj):
        for key, image in images.items():
            key = key.replace("_", ",")
            obj["s"][key] = [image, obj["s"][key][1]]
        return obj

    return tamper


def _group_like_x1(obj):
    """m made 1 + x1, x1 group-like: delta(t) gains x1 (x) t, delta(x1) x1 (x) x1."""
    obj["delta"]["1,1,1"].append(["1,0,0", "1,1,1", "1"])
    obj["delta"]["1,0,0"].append(["1,0,0", "1,0,0", "1"])
    return obj


# (label, formats, tampering, LOADER_MESSAGES row, vector named or None) on
# example 6.9 over Q(zeta_8), where S swaps x2 and x3, and x1 x3 and x1 x2
SPELLED_TAMPERINGS = [
    ("delta(1) doubled", V1, _put("delta", "0,0,0", [["0,0,0", "0,0,0", "2"]]),
     "delta-zero-row", None),
    ("delta(1) emptied", V1, _put("delta", "0,0,0", []), "delta-zero-row", None),
    ("delta(x2) gains x2(x)x3", V1,
     _edit("delta", "0,1,0", lambda r: r + [["0,1,0", "0,0,1", "1"]]),
     "delta-primitive", "0,1,0"),
    ("delta(x2) 1(x)x2 doubled", V1, _put("delta", "0,1,0", 0, 2, "2"), "delta-primitive", "0,1,0"),
    ("delta(x2) term zeroed", V1, _put("delta", "0,1,0", 0, 2, "0"), "delta-zero", "0,1,0"),
    ("delta(x2) term dropped", V1, _edit("delta", "0,1,0", lambda r: r[1:]),
     "delta-primitive", "0,1,0"),
    ("delta(x2) made the row of x3", V1,
     _put("delta", "0,1,0", [["0,0,0", "0,0,1", "1"], ["0,0,1", "0,0,0", "1"]]),
     "delta-primitive", "0,1,0"),
    ("delta(x2) term repeated", V1, _edit("delta", "0,1,0", lambda r: r + [r[0]]),
     "delta-top-repeat", None),
    ("delta(x2) gains a factor off the basis", V1,
     _edit("delta", "0,1,0", lambda r: r + [["2,1,0", "0,0,0", "1"]]),
     "delta-term-outside", "0,1,0"),
    ("m made 1 + x1, group-like", V1, _group_like_x1, "delta-primitive", "1,0,0"),
    ("delta(t) term x1x2 dropped", V1, _edit("delta", "1,1,1", lambda r: r[:1] + r[2:]),
     "delta-top", None),
    ("delta(t) gains x1(x)t", V1, _edit("delta", "1,1,1", lambda r: r + [["1,0,0", "1,1,1", "1"]]),
     "delta-top", None),
    ("delta(t) term 1(x)t doubled", V1, _put("delta", "1,1,1", 7, 2, "2"), "delta-top", None),
    ("delta(t) gains a term at a repeated left factor", V1,
     _edit("delta", "1,1,1", lambda r: r + [["1,1,0", "0,0,1", "1"]]), "delta-top", None),
    ("delta(t) term split in three", V1,
     _edit("delta", "1,1,1", lambda r: r + [r[1][:2] + ["1"], r[1][:2] + ["-1"]]),
     "delta-top-repeat", None),
    ("delta(t) term zeroed", V1, _put("delta", "1,1,1", 1, 2, "0"), "delta-zero", "1,1,1"),
    ("delta(t) factor moved off the basis", V1, _put("delta", "1,1,1", 1, 0, "11,11,10"),
     "delta-term-outside", "1,1,1"),
    ("S(x1) made x1x2", BOTH, _images(**{"1_0_0": "1,1,0"}), "s-pi-image", "1,0,0"),
    ("S(x1) made S(x2)", BOTH, _images(**{"1_0_0": "0,0,1"}), "s-pi-image", "1,0,0"),
    ("S cycles x1, x2, x3", BOTH,
     _images(**{"1_0_0": "0,1,0", "0_1_0": "0,0,1", "0_0_1": "1,0,0"}), "s-pi-image", "0,0,1"),
    ("S swaps 1 and t", BOTH, _images(**{"0_0_0": "1,1,1", "1_1_1": "0,0,0"}),
     "s-pi-image", "0,0,0"),
    ("two S images swapped", BOTH, _images(**{"0_1_1": "1,1,0", "1_0_1": "0,1,1"}),
     "s-pi-image", "0,1,1"),
    ("generator images swapped with non-generators", BOTH,
     _images(**{"0_0_1": "1,0,1", "1_1_0": "0,1,0"}), "s-pi-image", "0,0,1"),
    ("S image moved up off the basis", BOTH, _images(**{"0_1_0": "2,0,1"}),
     "s-image-outside", "0,1,0"),
    ("S image moved down off the basis", BOTH, _images(**{"0_1_0": "-2,0,1"}),
     "s-image-outside", "0,1,0"),
]


def _rejected(obj, name, key):
    """obj fails to load with the message of LOADER_MESSAGES row name, with
    the vector key in place of 0,1,0."""
    exc, fragment = MESSAGES[name]
    if key is not None:
        fragment = fragment.replace("0,1,0", key)
    with pytest.raises(exc, match=re.escape(fragment)):
        structure_from_json(obj)


@pytest.mark.parametrize("version, tamper, name, key", _by_format(SPELLED_TAMPERINGS))
def test_delta_and_image_tamperings_are_loader_errors(blobs, version, tamper, name, key):
    _rejected(tamper(copy.deepcopy(blobs[version])), name, key)


@pytest.mark.parametrize(
    "row, place, key",
    [("3,3,3", 0, "3,3,0"), ("0,0,1", 1, "0,0,1")],
    ids=["delta(t) left factor", "delta(x3) right factor"],
)
def test_golden_factor_moved_off_the_basis(row, place, key):
    """A factor of a row of the golden d64 file moved by 10 in every
    coordinate, off the basis, is named by its row."""
    obj = json.loads(GOLDEN_STRUCTURE.read_text())
    term = next(t for t in obj["delta"][row] if t[place] == key)
    term[place] = ",".join(str(int(x) + 10) for x in key.split(","))
    _rejected(obj, "delta-term-outside", row)


def test_golden_image_moved_off_the_basis():
    """An S image of the golden d64 file moved by 10 in every coordinate,
    off the basis, is named by its key."""
    obj = json.loads(GOLDEN_STRUCTURE.read_text())
    image = obj["s"]["1,2,3"][0]
    obj["s"]["1,2,3"][0] = ",".join(str(int(x) + 10) for x in image.split(","))
    _rejected(obj, "s-image-outside", "1,2,3")


@pytest.mark.parametrize("key", ["0,1,0", "1,1,0", "1,1,1"])
def test_delta_terms_in_another_order_load_the_same_structure(blob, blob1, key):
    """A row of delta is a sum: its terms may come in any order."""
    obj = copy.deepcopy(blob1)
    obj["delta"][key].reverse()
    assert structure_to_json(structure_from_json(obj)) == blob


@pytest.mark.parametrize("key", ["0,1,0", "0,0,0"])
def test_repeated_delta_term(blob1, key):
    obj = copy.deepcopy(blob1)
    obj["delta"][key] = [["0,0,0", key, "1"], ["0,0,0", key, "2"]]
    with pytest.raises(FileSemanticError, match=re.escape(f"delta[{key}] repeats")):
        structure_from_json(obj)


def test_c_must_be_a_list(blob):
    obj = copy.deepcopy(blob)
    obj["c"] = 1
    with pytest.raises(FileSyntaxError, match="c must be a list"):
        structure_from_json(obj)


# (table, formats): delta is a table of format-1 files only
TABLES = [("g", BOTH), ("delta", V1), ("s", BOTH)]


def _tables():
    return _by_format((name, versions, name) for name, versions in TABLES)


@pytest.mark.parametrize("version, name", _tables())
@pytest.mark.parametrize("alias", ["00,1,0", "0_0,1,0", " 0,1,0", "0, 1,0"])
@pytest.mark.parametrize("alias_first", [False, True], ids=["last", "first"])
def test_vector_named_twice(blobs, version, name, alias, alias_first):
    obj = copy.deepcopy(blobs[version])
    table = obj[name]
    entry = table["0,1,0"]
    obj[name] = {alias: entry, **table} if alias_first else {**table, alias: entry}
    with pytest.raises(FileSemanticError, match=re.escape(f"{name} names 0,1,0 twice")):
        structure_from_json(obj)


@pytest.mark.parametrize("version, name", _tables())
def test_two_aliases_without_the_canonical_key(blobs, version, name):
    obj = copy.deepcopy(blobs[version])
    entry = obj[name].pop("0,1,0")
    obj[name]["00,1,0"] = entry
    obj[name]["0,01,0"] = entry
    with pytest.raises(FileSemanticError, match=re.escape(f"{name} names 0,1,0 twice")):
        structure_from_json(obj)


def test_one_alias_per_vector_loads(blob):
    obj = copy.deepcopy(blob)
    obj["g"]["00,1,0"] = obj["g"].pop("0,1,0")
    obj["s"]["0,1, 0"] = obj["s"].pop("0,1,0")
    assert structure_to_json(structure_from_json(obj)) == blob


# scalars are taken only as JSON strings: no number, bool or null
NOT_STRINGS = [1, 1.0, True, None]
SCALAR_SITES = [
    ("q", BOTH, ("presentation", "q", 0, 1), "bad scalar in presentation"),
    ("c", BOTH, ("c", 0), "bad c entry"),
    ("g", BOTH, ("g", "0,1,0"), "bad g[0,1,0]"),
    ("delta", V1, ("delta", "0,1,0", 0, 2), "bad coefficient in delta[0,1,0]"),
    ("s", BOTH, ("s", "0,1,0", 1), "bad coefficient in s[0,1,0]"),
]


@pytest.mark.parametrize("value", NOT_STRINGS, ids=repr)
@pytest.mark.parametrize("version, path, where", _by_format(SCALAR_SITES))
def test_scalars_must_be_strings(blobs, version, path, where, value):
    obj = _put(*path, value)(copy.deepcopy(blobs[version]))
    message = f"{where}: expected a scalar string, got {value!r}"
    with pytest.raises(FileSyntaxError, match=re.escape(message)):
        structure_from_json(obj)


@pytest.mark.parametrize("version", [1, 2])
def test_load_parses_each_distinct_text_once(tmp_path, monkeypatch, version):
    B = gf7_structure((8, 8, 8), {(1, 2): 5, (1, 3): 3, (2, 3): 2})
    path = tmp_path / "s.json"
    if version == 1:
        path.write_text(json.dumps(format1_blob(B)))
    else:
        save_structure(B, str(path))
    blob = json.loads(path.read_text())
    calls = {"scalar": 0, "key": 0}
    parse_scalar = qci.scalars._parse_scalar
    parse_key = qci.structio.parse_vector_key

    def counted_scalar(field, text):
        calls["scalar"] += 1
        return parse_scalar(field, text)

    def counted_key(text, n):
        calls["key"] += 1
        return parse_key(text, n)

    monkeypatch.setattr(qci.scalars, "_parse_scalar", counted_scalar)
    monkeypatch.setattr(qci.structio, "parse_vector_key", counted_key)
    loaded = load_structure(str(path))
    assert calls == {"scalar": len(file_literals(blob)), "key": 0}
    assert len(file_literals(blob)) == 6
    assert structure_to_json(loaded) == structure_to_json(B)


# -- the one table reader: by position in canonical order, else by key ------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
def test_basis_keys_spell_the_basis(a):
    basis = itertools.product(*map(range, a))
    assert basis_keys(a) == [vector_key(v) for v in basis]


@pytest.fixture
def resolved(monkeypatch):
    """Every key text the loader resolves in the test, in order."""
    texts = []
    index = qci.structio._Keys.index

    def recorded(self, text, where):
        texts.append(text)
        return index(self, text, where)

    monkeypatch.setattr(qci.structio._Keys, "index", recorded)
    return texts


def test_canonical_file_is_read_positionally(blob, resolved):
    assert structure_to_json(structure_from_json(copy.deepcopy(blob))) == blob
    assert resolved == []


def test_reversed_key_order_loads_through_the_per_key_reader(blob, resolved):
    obj = copy.deepcopy(blob)
    obj["g"] = dict(reversed(obj["g"].items()))
    obj["s"] = dict(reversed(obj["s"].items()))
    assert list(obj["s"])[0] == "1,1,1"
    assert structure_to_json(structure_from_json(obj)) == blob
    assert resolved == list(obj["g"]) + list(obj["s"])


def test_alias_image_loads_through_the_per_key_reader(blob, resolved):
    obj = copy.deepcopy(blob)
    assert obj["s"]["0,0,1"][0] == "0,1,0"
    obj["s"]["0,0,1"][0] = "00,1,0"
    assert structure_to_json(structure_from_json(obj)) == blob
    assert resolved == [image for image, _ in obj["s"].values()]


LONG_LITERAL = "9" * 5000
LONG_MESSAGE = (
    f"integer of 5000 digits at position 0 exceeds the limit of "
    f"{sys.get_int_max_str_digits()} digits"
)


@pytest.mark.parametrize("respelled", [False, True])
@pytest.mark.parametrize("section", ["g", "s"])
def test_over_long_literal_is_a_syntax_error(tmp_path, blob, resolved, section, respelled):
    """A literal past int()'s digit limit is named by its key as the file
    spells it, in a canonical file, which resolves no key, and in one whose
    entry's key is spelled another way, which resolves the keys of that
    table only."""
    obj = copy.deepcopy(blob)
    key = "0,1,0"
    if section == "g":
        obj["g"][key] = LONG_LITERAL
    else:
        obj["s"][key][1] = LONG_LITERAL
    if respelled:
        obj[section] = {("0" + k if k == key else k): v for k, v in obj[section].items()}
        key = "0" + key
    where = f"g[{key}]" if section == "g" else f"coefficient in s[{key}]"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(FileSyntaxError) as exc:
        load_structure(str(path))
    assert str(exc.value) == f"bad {where}: {LONG_MESSAGE}"
    assert resolved == (list(obj[section]) if respelled else [])


def test_over_long_literal_in_a_presentation(blob):
    obj = copy.deepcopy(blob["presentation"])
    obj["q"][0][1] = LONG_LITERAL
    with pytest.raises(FileSyntaxError) as exc:
        presentation_from_json(obj)
    assert str(exc.value) == f"bad scalar in presentation: {LONG_MESSAGE}"


@pytest.mark.parametrize("source", ["blob1", "golden"])
def test_format1_files_read_g_and_s_positionally(blob1, resolved, source):
    # every delta row is spelled as B.row spells it, so each is compared as a
    # whole list and no key is resolved
    if source == "golden":
        obj = json.loads(GOLDEN_STRUCTURE.read_text())
        assert format1_blob(load_structure(str(GOLDEN_STRUCTURE))) == obj
    else:
        assert format1_blob(structure_from_json(copy.deepcopy(blob1))) == blob1
    assert resolved == []


def test_format1_walks_only_the_rows_that_differ(blob1, resolved):
    """A delta row spelled otherwise, here the top row with its terms in
    reverse order and one key respelled, still loads to the same structure;
    only that row is walked term by term, so its keys are the only ones
    resolved."""
    obj = copy.deepcopy(blob1)
    top = list(obj["delta"])[-1]
    rows = obj["delta"][top][::-1]
    rows[0] = [" " + rows[0][0], *rows[0][1:]]
    obj["delta"][top] = rows
    assert format1_blob(structure_from_json(obj)) == blob1
    assert resolved == [key for u, w, _ in rows for key in (u, w)]


G_S_FAULTS = [case for case in LOADER_MESSAGES if case[0][:2] in ("g-", "s-")]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(G_S_FAULTS),
    st.sampled_from([1, 2]),
    st.sets(st.sampled_from(["g", "delta", "s"]), min_size=1),
)
def test_a_fault_is_named_alike_in_either_key_order(case, version, reordered):
    """One fault of g or s raises the same message in a canonical file and
    in the same file with some of its tables in reversed key order."""
    _, _, tamper, exc, fragment = case
    blob = structure_to_json(example_structure("6.9", C8))
    canonical = tamper(format1_blob(structure_from_json(blob)) if version == 1 else blob)
    reversed_obj = copy.deepcopy(canonical)
    for name in reordered:
        if isinstance(reversed_obj.get(name), dict):
            reversed_obj[name] = dict(reversed(reversed_obj[name].items()))
    messages = []
    for obj in (canonical, reversed_obj):
        with pytest.raises(exc, match=re.escape(fragment)) as info:
            structure_from_json(obj)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_d4096_load_and_save_spell_no_key_and_parse_each_literal_once(tmp_path, monkeypatch):
    # a canonical file at the dimension cap resolves no key and parses each
    # distinct literal once, and saving it again spells no key through
    # vector_key
    B = gf7_structure(
        (8, 8, 8, 8),
        {(1, 2): 4, (1, 3): 5, (1, 4): 6, (2, 3): 3, (2, 4): 6, (3, 4): 1},
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_structure(B, str(first))
    calls = {"vector_key": 0, "index": 0, "_parse_scalar": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(qci.algebra, "vector_key")
    counted(qci.structio, "vector_key")
    counted(qci.structio._Keys, "index")
    counted(qci.scalars, "_parse_scalar")
    loaded = load_structure(str(first))
    save_structure(loaded, str(second))
    literals = file_literals(json.loads(first.read_text()))
    assert calls == {"vector_key": 0, "index": 0, "_parse_scalar": len(literals)}
    assert second.read_bytes() == first.read_bytes()


# integers are taken only as JSON integers: no bool, float or string
NOT_INTEGERS = [True, 2.0, 2.9, "2"]


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("kind, key", [("prime", "p"), ("cyclotomic", "m")])
def test_field_parameter_must_be_an_integer(kind, key, value):
    with pytest.raises(FileSyntaxError, match=f"bad {key}"):
        field_from_json({"kind": kind, key: value})


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_n_must_be_an_integer(blob, value):
    obj = copy.deepcopy(blob)
    obj["presentation"]["n"] = value
    with pytest.raises(FileSyntaxError, match="bad n"):
        structure_from_json(obj)


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_exponents_must_be_integers(blob, value):
    obj = copy.deepcopy(blob)
    obj["presentation"]["a"][0] = value
    with pytest.raises(FileSyntaxError, match="bad a entry"):
        structure_from_json(obj)


@pytest.mark.parametrize("value", [True, 1.0, 1.9, "1"])
def test_pi_entries_must_be_integers(blob, value):
    obj = copy.deepcopy(blob)
    obj["pi"][0] = value
    with pytest.raises(FileSyntaxError, match="bad pi entry"):
        structure_from_json(obj)


# -- round trips on random yes-presentations ----------------------------------


@st.composite
def yes_presentations(draw):
    """(P, witness): n in {2, 3}, exponents at most 3, and decide() says Yes."""
    field = draw(
        st.sampled_from([make_field("prime", 7), make_field("prime", 13), Q, C8])
    )
    n = draw(st.sampled_from([2, 3]))
    P, _ = rand_compatible_involutive_h(draw(st.randoms()), field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    return P, report.witness


def _through_text(obj):
    return json.loads(json.dumps(obj))


@settings(max_examples=60, deadline=None)
@given(yes_presentations())
def test_presentation_round_trip(drawn):
    P, _ = drawn
    assert presentation_from_json(_through_text(presentation_to_json(P))) == P


@settings(max_examples=60, deadline=None)
@given(yes_presentations())
def test_structure_round_trip(drawn):
    B = build_structure(*drawn)
    blob = structure_to_json(B)
    assert "delta" not in blob
    loaded = structure_from_json(_through_text(blob))
    assert structure_to_json(loaded) == blob
    assert loaded.delta == B.delta


@settings(max_examples=60, deadline=None)
@given(yes_presentations())
def test_format1_round_trip(drawn):
    # a format-1 file loads to the same structure, and saves as format 2
    B = build_structure(*drawn)
    loaded = structure_from_json(_through_text(format1_blob(B)))
    assert structure_to_json(loaded) == structure_to_json(B)
    assert loaded.delta == B.delta
    assert format1_blob(loaded) == format1_blob(B)


def _respell(rng, key: str) -> str:
    """key with every entry written non-canonically: leading zeros or a space."""
    spellings = ["0{}", " {}", "{} ", "0_0{}"]
    return ",".join(rng.choice(spellings).format(x) for x in key.split(","))


@settings(max_examples=40, deadline=None)
@given(yes_presentations(), st.randoms(use_true_random=False), st.sampled_from([1, 2]))
def test_noncanonical_keys_load(drawn, rng, version):
    B = build_structure(*drawn)
    blob = structure_to_json(B)
    obj = {
        **(format1_blob(B) if version == 1 else blob),
        "g": {_respell(rng, k): text for k, text in blob["g"].items()},
        "s": {
            _respell(rng, k): [_respell(rng, img), c]
            for k, (img, c) in blob["s"].items()
        },
    }
    if version == 1:
        obj["delta"] = {
            _respell(rng, k): [
                [_respell(rng, u), _respell(rng, w), c] for u, w, c in rows
            ]
            for k, rows in obj["delta"].items()
        }
    assert structure_to_json(structure_from_json(_through_text(obj))) == blob


# -- a loader fuzzer ----------------------------------------------------------

# type swaps, huge and odd literals, nested lists, NaN and Infinity
ODD_VALUES = [
    None, True, 0, -1, 2.5, 10**30, float("nan"), float("inf"),
    "", "z+", "0,0", "0,2,0", LONG_LITERAL, [], {}, [[["1"]]],
]
MUTATIONS = ["replace", "wrap", "delete", "alias", "reverse"]


def _nodes(node, path=()):
    """The path of node and of every object value and list entry inside it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _mutate(obj, path, kind, value):
    """obj with one mutation at path: the node replaced by value, wrapped in
    a list, deleted, named a second time under the alias "0" + key, or with
    its entries in reversed order."""
    value = copy.deepcopy(value)
    if not path:
        return {"replace": value, "wrap": [obj]}.get(kind, obj)
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    node = parent[last]
    if kind == "replace":
        parent[last] = value
    elif kind == "wrap":
        parent[last] = [node]
    elif kind == "delete":
        del parent[last]
    elif kind == "alias" and isinstance(parent, dict):
        parent["0" + last] = node
    elif kind == "reverse" and isinstance(node, dict):
        parent[last] = dict(reversed(node.items()))
    elif kind == "reverse" and isinstance(node, list):
        parent[last] = node[::-1]
    return obj


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["structure-1", "structure-2", "presentation"]), st.data())
def test_mutated_files_fail_only_with_loader_errors(tmp_path_factory, source, data):
    """A mutant of the d64 golden structure (format 1 or 2) or of the
    presentation of example 6.9 over Q(zeta_8) fails to load only with a
    QciError, and `qci verify` or `qci validate` of it exits 0, 1 or 2 with
    no traceback."""
    if source == "presentation":
        obj = presentation_to_json(example_presentation("6.9", C8))
    else:
        obj = json.loads(GOLDEN_STRUCTURE.read_text())
        if source == "structure-2":
            obj = structure_to_json(structure_from_json(obj))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        path = data.draw(st.sampled_from(list(_nodes(obj))))
        kind = data.draw(st.sampled_from(MUTATIONS))
        obj = _mutate(obj, path, kind, data.draw(st.sampled_from(ODD_VALUES)))
    text = json.dumps(obj)
    load = presentation_from_json if source == "presentation" else structure_from_json
    try:
        load(json.loads(text))
    except QciError:
        pass
    file = tmp_path_factory.getbasetemp() / "mutant.json"
    file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["validate" if source == "presentation" else "verify", str(file)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# digits, JSON punctuation, the root symbol, a control and a non-UTF-8 byte
OVERWRITES = b'0123456789 ,:[]{}"-./ez\x00\xff'


def _byte_mutant(data: bytes, kind: int, rng: random.Random) -> bytes:
    """data truncated (kind 0), with one byte overwritten by a byte of
    OVERWRITES (kind 1), or with b"\\xff\\xc3" inserted inside a string
    literal (kind 2), the place drawn by rng.  The file escapes no quote, so
    its quotes pair up in order."""
    if kind == 0:
        return data[:rng.randrange(len(data))]
    if kind == 1:
        i = rng.randrange(len(data))
        return data[:i] + bytes([rng.choice(OVERWRITES)]) + data[i + 1:]
    quotes = [i for i, byte in enumerate(data) if byte == ord('"')]
    k = rng.randrange(len(quotes) // 2)
    i = rng.randint(quotes[2 * k] + 1, quotes[2 * k + 1])
    return data[:i] + b"\xff\xc3" + data[i:]


@pytest.mark.parametrize("seed", range(3))
def test_byte_mutants_fail_only_with_loader_errors(tmp_path, seed):
    """Seeded byte-level mutants of the d64 golden structure, truncated, with
    one byte overwritten, or with invalid UTF-8 inside a literal, fail to
    load only with a QciError, and `qci verify` of each exits 0, 1 or 2
    with no traceback."""
    rng = random.Random(seed)
    data = GOLDEN_STRUCTURE.read_bytes()
    for n in range(30):
        file = tmp_path / f"mutant-{n}.json"
        file.write_bytes(_byte_mutant(data, n % 3, rng))
        try:
            load_structure(str(file))
        except QciError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["verify", str(file)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
