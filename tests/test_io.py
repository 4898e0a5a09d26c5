"""Save/load round trips and the two-layer file validation."""

import copy
import json

import pytest

from qci.demos import example_presentation, example_structure
from qci.errors import FileSemanticError, FileSyntaxError
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

C8 = make_field("cyclotomic", 8)


@pytest.fixture
def structure():
    return example_structure("6.9", C8)


@pytest.fixture
def blob(structure):
    return structure_to_json(structure)


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

    def test_truncated_file(self, tmp_path, structure):
        path = tmp_path / "s.json"
        save_structure(structure, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FileSyntaxError):
            load_structure(str(path))

    def test_missing_section(self, blob):
        obj = copy.deepcopy(blob)
        del obj["delta"]
        with pytest.raises(FileSyntaxError):
            structure_from_json(obj)


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

    def test_top_row_must_match_g(self, blob):
        obj = copy.deepcopy(blob)
        rows = obj["delta"]["1,1,1"]
        u, w, coeff = rows[1]
        rows[1] = [u, w, C8.format(-C8.parse(coeff))]
        with pytest.raises(FileSemanticError, match="disagrees"):
            structure_from_json(obj)

    def test_lower_rows_must_be_primitive(self, blob):
        obj = copy.deepcopy(blob)
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

    def test_consistent_perturbation_loads_then_fails_verification(self, blob):
        # negate g at an interior vector and the matching top tensor term:
        # the file is self-consistent, so loading succeeds; the antipode
        # definition check must then fail.
        obj = copy.deepcopy(blob)
        target = "0,1,0"
        obj["g"][target] = C8.format(-C8.parse(obj["g"][target]))
        top = obj["delta"]["1,1,1"]
        for idx, (u, w, coeff) in enumerate(top):
            comp = [1 - int(x) for x in u.split(",")]
            if ",".join(str(x) for x in comp) == target:
                top[idx] = [u, w, C8.format(-C8.parse(coeff))]
        loaded = structure_from_json(obj)
        rep = verify_axioms(loaded)
        assert not rep.all_passed
        assert any(c.name == "antipode-definition" for c in rep.failing())
