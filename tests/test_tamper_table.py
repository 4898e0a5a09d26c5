"""Every check's failure detail, pinned on a table of in-memory tamperings.

The golden reports only make the antipode checks fail.  Each tampering
below changes g entries or S coefficients of the examples 6.9 and 6.10, the
only tables a structure holds, and the full `to_json()` of both reports is
compared with the copy checked in under tests/data/tampered-reports.json.

No tampering of the tables reaches the checks in UNREACHABLE: nine read only
the presentation and the counit (the coefficient of 1), never g or S, and
unit-comultiplication reads delta(1), which is 1 (x) 1 whatever g is.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from helpers import t_vec
from qci.demos import example_structure
from qci.verify import AXIOM_CHECKS, DERIVED_CHECKS, verify_axioms, verify_derived

PINNED = Path(__file__).resolve().parent / "data" / "tampered-reports.json"

UNREACHABLE = {
    "counit-algebra-map",
    "unit-comultiplication",
    "frobenius-pairing",
    "counit-via-integral",
    "socle-pairing-normalized",
    "right-integral",
    "integral-space-dimension",
    "unimodularity",
    "left-modular-functional",
    "nakayama-involutive",
}

X0, X1 = (0, 0, 0), (1, 0, 0)


def scaled(B, table, v, factor):
    """A copy of B with entry v of g or s_coef (table) times factor, a literal."""
    P = B.presentation
    entries = list(getattr(B, table))
    i = P.index(v)
    entries[i] = P.field._mul(entries[i], P.field.parse(factor).value)
    return dataclasses.replace(B, **{table: entries})


def socle_entry(B, u, factor):
    """g_u times factor, and so the delta(t) term x_{a-1-u} (x) x_{pi(u)}."""
    return scaled(B, "g", u, factor)


def s_coefficient(B, v, factor):
    return scaled(B, "s_coef", v, factor)


TAMPERINGS = {
    "g_0 doubled": lambda B: socle_entry(B, X0, "2"),
    "g_0 zeroed": lambda B: socle_entry(B, X0, "0"),
    "g middle zeroed": lambda B: socle_entry(B, X1, "0"),
    "g_t doubled": lambda B: socle_entry(B, t_vec(B), "2"),
    "g_t negated": lambda B: socle_entry(B, t_vec(B), "-1"),
    "g_t zeroed": lambda B: socle_entry(B, t_vec(B), "0"),
    "S(1) negated": lambda B: s_coefficient(B, X0, "-1"),
    "S(x1) zeroed": lambda B: s_coefficient(B, X1, "0"),
    "S(t) doubled": lambda B: s_coefficient(B, t_vec(B), "2"),
}

EXAMPLES = ("6.9", "6.10")


def reports(example: str, label: str) -> dict:
    T = TAMPERINGS[label](example_structure(example))
    return {"axioms": verify_axioms(T).to_json(), "derived": verify_derived(T).to_json()}


@pytest.mark.parametrize("example", EXAMPLES)
@pytest.mark.parametrize("label", sorted(TAMPERINGS))
def test_reports_are_pinned(example, label):
    pinned = json.loads(PINNED.read_text())
    # compared as text, so the key order of every detail is pinned too
    assert json.dumps(reports(example, label)) == json.dumps(pinned[example][label])


def test_every_reachable_check_fails_somewhere():
    pinned = json.loads(PINNED.read_text())
    failed = {
        entry["name"]
        for by_label in pinned.values()
        for both in by_label.values()
        for entry in both["axioms"]["checks"] + both["derived"]["checks"]
        if not entry["passed"]
    }
    assert failed == set(AXIOM_CHECKS + DERIVED_CHECKS) - UNREACHABLE
    assert sorted(pinned) == sorted(EXAMPLES)
    assert all(sorted(by_label) == sorted(TAMPERINGS) for by_label in pinned.values())
