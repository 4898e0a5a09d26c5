"""Byte-identical `qci verify --json` reports on a fixed d64 GF(7) structure.

The structure file and the expected reports live in tests/data/golden.  The
reports were captured with the dense elimination kernel; any change to a
verdict, a counterexample location or a detail string shows up here.  The
structure file is in format 1, with its delta block; each case re-saves it
in format 2 before `qci verify` reads it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from helpers import g_dict
from qci.builder import BfaStructure
from qci.cli import run
from qci.structio import load_structure, save_structure
from qci.verify import negate_socle_entry

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
STRUCTURE = GOLDEN / "d64-gf7.structure.json"


def double_s_coefficient(B: BfaStructure, v) -> BfaStructure:
    s_map = dict(B.s_map)
    img, coeff = s_map[v]
    s_map[v] = (img, coeff + coeff)
    P = B.presentation
    return BfaStructure.from_tables(P, B.witness, g_dict(P, B.g), B.delta, s_map)


CASES = {
    "untampered": lambda B: B,
    "negate-socle-1-0-0": lambda B: negate_socle_entry(B, (1, 0, 0)),
    "negate-socle-0-2-1": lambda B: negate_socle_entry(B, (0, 2, 1)),
    "negate-socle-3-1-2": lambda B: negate_socle_entry(B, (3, 1, 2)),
    "double-s-0-1-2": lambda B: double_s_coefficient(B, (0, 1, 2)),
}


def verify_report(case: str, workdir: Path) -> str:
    """Stdout of `qci verify --json` on the tampered copy named `case`."""
    path = workdir / f"{case}.json"
    save_structure(CASES[case](load_structure(str(STRUCTURE))), str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(["verify", str(path), "--json"])
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, tmp_path):
    expected = (GOLDEN / f"{case}.verify.json").read_text()
    assert verify_report(case, tmp_path) == expected


def test_format1_file_resaves_as_format2(tmp_path):
    first = load_structure(str(STRUCTURE))
    path = tmp_path / "resaved.json"
    save_structure(first, str(path))
    assert json.loads(STRUCTURE.read_text())["format"] == 1
    assert json.loads(path.read_text())["format"] == 2
    second = load_structure(str(path))
    assert second.witness == first.witness
    assert second.g == first.g
    assert second.rows == first.rows
    assert (second.s_img, second.s_coef) == (first.s_img, first.s_coef)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["verify", str(path), "--json"]) == 0
    assert out.getvalue() == (GOLDEN / "untampered.verify.json").read_text()
