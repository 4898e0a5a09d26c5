"""Every check's failure detail, pinned on a table of in-memory tamperings.

The golden reports only make the antipode checks fail.  Each tampering
below changes delta rows, S coefficients or images, or g entries of the
examples 6.9 and 6.10, and the full `to_json()` of both reports is compared
with the copy checked in under tests/data/tampered-reports.json.

No tampering of the tables reaches the checks in UNREACHABLE: they read only
the presentation and the counit (the coefficient of 1), never delta, S or g.
"""

import json
from pathlib import Path

import pytest

from helpers import g_dict, t_vec
from qci.builder import BfaStructure
from qci.demos import example_structure
from qci.verify import AXIOM_CHECKS, DERIVED_CHECKS, verify_axioms, verify_derived

PINNED = Path(__file__).resolve().parent / "data" / "tampered-reports.json"

UNREACHABLE = {
    "counit-algebra-map",
    "frobenius-pairing",
    "counit-via-integral",
    "socle-pairing-normalized",
    "right-integral",
    "integral-space-dimension",
    "unimodularity",
    "left-modular-functional",
    "nakayama-involutive",
}

X0, X1, X2, X3 = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)


def tampered(B, delta=None, s_map=None, g=None):
    """A copy of B with the given tables changed: {key: new row or entry}."""
    return BfaStructure.from_tables(
        B.presentation,
        B.witness,
        {**g_dict(B.presentation, B.g), **(g or {})},
        {**B.delta, **(delta or {})},
        {**B.s_map, **(s_map or {})},
    )


def scaled_term(B, v, k, factor):
    """delta[v] with the coefficient of its k-th term times factor (a literal)."""
    c = B.presentation.field.parse(factor)
    row = list(B.delta[v])
    u, w, coeff = row[k]
    row[k] = (u, w, coeff * c)
    return tampered(B, delta={v: row})


def dropped_term(B, v, k):
    row = list(B.delta[v])
    del row[k]
    return tampered(B, delta={v: row})


def extra_terms(B, v, *terms):
    one = B.presentation.field.one
    return tampered(B, delta={v: list(B.delta[v]) + [(u, w, one) for u, w in terms]})


def top_term(B, u):
    """Index in delta[t] of the term with left factor u."""
    return [left for left, _, _ in B.delta[t_vec(B)]].index(u)


def s_coefficient(B, v, factor):
    img, coeff = B.s_map[v]
    return tampered(B, s_map={v: (img, coeff * B.presentation.field.parse(factor))})


def s_images(B, images):
    """S with the images of the given vectors replaced, coefficients kept."""
    return tampered(B, s_map={v: (w, B.s_map[v][1]) for v, w in images.items()})


def socle_entry(B, u, factor):
    """g_u times factor, in g and in the delta(t) term x_{a-1-u} (x) x_{pi(u)}."""
    top = t_vec(B)
    T = scaled_term(B, top, top_term(B, B.presentation.complement(u)), factor)
    g = g_dict(B.presentation, B.g)
    return tampered(T, g={u: g[u] * B.presentation.field.parse(factor)})


def grouplike_modular_element(B):
    """m = 1 + x_1 with x_1 made group-like up to 1: delta(x_1) gains x_1 (x) x_1."""
    T = extra_terms(B, t_vec(B), (X1, t_vec(B)))
    return extra_terms(T, X1, (X1, X1))


TAMPERINGS = {
    "delta(1) doubled": lambda B: scaled_term(B, X0, 0, "2"),
    "delta(1) emptied": lambda B: tampered(B, delta={X0: []}),
    "delta(x1) gains x1(x)x2": lambda B: extra_terms(B, X1, (X1, X2)),
    "delta(x1) 1(x)x1 doubled": lambda B: scaled_term(B, X1, 0, "2"),
    "delta(t) term x1 dropped": lambda B: dropped_term(B, t_vec(B), top_term(B, X1)),
    "delta(t) gains x1(x)t": lambda B: extra_terms(B, t_vec(B), (X1, t_vec(B))),
    "m made 1 + x1, group-like": grouplike_modular_element,
    "g_0 doubled": lambda B: socle_entry(B, X0, "2"),
    "g_t doubled": lambda B: socle_entry(B, t_vec(B), "2"),
    "g_t negated": lambda B: socle_entry(B, t_vec(B), "-1"),
    "g_t zeroed": lambda B: socle_entry(B, t_vec(B), "0"),
    "S(1) negated": lambda B: s_coefficient(B, X0, "-1"),
    "S(x1) zeroed": lambda B: s_coefficient(B, X1, "0"),
    "S(t) doubled": lambda B: s_coefficient(B, t_vec(B), "2"),
    "S(x1) made x1x2": lambda B: s_images(B, {X1: (1, 1, 0)}),
    "S(x1) made S(x2)": lambda B: s_images(B, {X1: B.s_map[X2][0]}),
    "S cycles x1, x2, x3": lambda B: s_images(B, {X1: X2, X2: X3, X3: X1}),
    "S swaps 1 and t": lambda B: s_images(B, {X0: t_vec(B), t_vec(B): X0}),
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
