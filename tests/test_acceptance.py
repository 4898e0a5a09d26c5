"""Acceptance criteria, one test and one PASS/FAIL line per criterion.

Every comparison is exact equality in the ambient field; the timing
budgets are wall-clock assertions.  The PASS/FAIL lines are collected in
helpers.ACCEPTANCE_LINES and echoed after the run by the conftest
terminal-summary hook.
"""

import random
import time
from contextlib import contextmanager

import helpers
from helpers import ALL_SUITES

from qci.algebra import Presentation
from qci.builder import build_structure, decide
from qci.demos import example_presentation, example_structure, example_witness
from qci.linalg import is_generalized_permutation
from qci.permutations import Permutation
from qci.scalars import make_field
from qci.verify import (
    is_hopf_comultiplication,
    negate_socle_entry,
    primitive_space_dim,
    verify_axioms,
    verify_derived,
)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        helpers.ACCEPTANCE_LINES.append(f"FAIL criterion {num}: {text}")
        raise
    helpers.ACCEPTANCE_LINES.append(f"PASS criterion {num}: {text}")


GRID_SHAPES = ((2, 2), (2, 3), (3, 3))


def grid_presentations():
    """Two-generator presentations over GF(5), GF(13), GF(2): every shape in
    GRID_SHAPES and every nonzero q12 (q21 forced to the inverse)."""
    out = []
    for p in (5, 13, 2):
        field = make_field("prime", p)
        for a in GRID_SHAPES:
            for k in range(1, p):
                u = field.from_int(k)
                q = [[field.one, u], [u.inverse(), field.one]]
                out.append(Presentation(field, a, q))
    return out


def expected_symmetric_tables(P, b):
    """Literal g and antipode tables of the symmetric example, in terms of b."""
    binv = b.inverse()
    one = P.field.one
    pi = Permutation((1, 3, 2))
    g = {}
    s = {}
    for v in P.basis():
        g[v] = binv if (v[1] == 1 and v[2] == 0) else one
        s[v] = (pi.act(v), binv ** (v[0] * v[1]) * b ** (v[0] * v[2]))
    return g, s


def test_criterion_1_symmetric_example():
    with criterion(
        1,
        "symmetric example: pinned witness and exact tables over three fields, "
        "all checks pass, under a second each",
    ):
        cases = [
            (make_field("cyclotomic", 8), None),
            (make_field("rational"), "2"),
            (make_field("prime", 7), "2"),
        ]
        for field, b_lit in cases:
            t0 = time.perf_counter()
            P = example_presentation("6.9", field, b_lit)
            w = example_witness("6.9", P)
            assert w.pi == Permutation((1, 3, 2))
            assert w.c == (field.one, field.one, field.one)
            B = build_structure(P, w)
            b = P.q[0][1]
            exp_g, exp_s = expected_symmetric_tables(P, b)
            assert B.g == exp_g
            assert B.s_map == exp_s
            top_terms = {(u, wv): c for u, wv, c in B.delta[P.top]}
            assert top_terms == {
                (tuple(t - x for t, x in zip(P.top, u)), w.pi.act(u)): exp_g[u]
                for u in P.basis()
            }
            assert verify_axioms(B).all_passed
            assert verify_derived(B).all_passed
            assert time.perf_counter() - t0 < 1.0

        # frozen cyclotomic literals with b = zeta_8
        C8 = make_field("cyclotomic", 8)
        Bz = example_structure("6.9", C8)
        minus_z3 = C8.parse("-z^3")
        assert Bz.g[(0, 1, 0)] == minus_z3
        assert Bz.g[(1, 1, 0)] == minus_z3
        assert Bz.s_map[(1, 1, 0)] == ((1, 0, 1), minus_z3)
        assert Bz.s_map[(1, 0, 1)] == ((1, 1, 0), C8.parse("z"))
        assert Bz.s_map[(0, 1, 0)] == ((0, 0, 1), C8.one)


def test_criterion_2_twisted_example():
    with criterion(
        2,
        "twisted example: exact tables, and the twisted Frobenius form has a "
        "non-involutive automorphism while the canonical one squares to the identity",
    ):
        t0 = time.perf_counter()
        C8 = make_field("cyclotomic", 8)
        P = example_presentation("6.10", C8)
        w = example_witness("6.10", P)
        B = build_structure(P, w)
        z = C8.zeta
        root = C8.sqrt_minus_one()
        b = z
        one = C8.one
        expected_g = {
            (0, 0, 0): one,
            (0, 0, 1): z**2,
            (0, 1, 0): -z,
            (0, 1, 1): -one,
            (1, 0, 0): -one,
            (1, 0, 1): -(z**2),
            (1, 1, 0): z,
            (1, 1, 1): one,
        }
        assert B.g == expected_g
        expected_s = {
            (0, 0, 0): ((0, 0, 0), one),
            (1, 0, 0): ((1, 0, 0), -one),
            (0, 1, 0): ((0, 0, 1), z**2),
            (0, 0, 1): ((0, 1, 0), z**2),
            (1, 1, 0): ((1, 0, 1), -z),
            (1, 0, 1): ((1, 1, 0), -(z**3)),
            (0, 1, 1): ((0, 1, 1), -one),
            (1, 1, 1): ((1, 1, 1), one),
        }
        assert B.s_map == expected_s

        # the two pinned readings: S(x1 x2) = -(sqrt(-1)/b) x1 x3 and the
        # top comultiplication term +(sqrt(-1)/b) x3 (x) x1 x3
        assert B.s_map[(1, 0, 0)] == ((1, 0, 0), -one)
        assert B.s_map[(1, 1, 0)] == ((1, 0, 1), -(root / b))
        top_terms = {(u, wv): c for u, wv, c in B.delta[P.top]}
        assert top_terms[((0, 0, 1), (1, 0, 1))] == root / b

        assert verify_axioms(B).all_passed
        assert verify_derived(B).all_passed

        # phi = (1 + x1) -> socle dual; the solved automorphism does not square
        # to the identity although the canonical one does
        shift = helpers.add(P.one_elem, P.monomial((1, 0, 0)))
        phi = helpers.reference_functional_left_hit(P, shift, P.dual_functional(P.top))
        images = helpers.reference_nakayama_wrt(P, phi)
        x2 = (0, 1, 0)
        n2_x2 = helpers.apply_linear(P, images, images[P.index(x2)])
        two = C8.from_int(2)
        assert n2_x2 == {x2: one, (1, 1, 0): two * (one - b)}
        assert n2_x2 != P.monomial(x2)
        for v in P.basis():
            assert P.nakayama(P.nakayama(P.monomial(v))) == P.monomial(v)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_not_hopf():
    with criterion(
        3,
        "neither example comultiplication is an algebra map in characteristic zero",
    ):
        C8 = make_field("cyclotomic", 8)
        Q = make_field("rational")
        structures = [
            example_structure("6.9", C8),
            example_structure("6.10", C8),
            example_structure("6.9", Q, b="2"),
        ]
        P = example_presentation("6.10", Q, b="2")
        report = decide(P)
        assert report.exists
        structures.append(build_structure(P, report.witness))
        for B in structures:
            assert not is_hopf_comultiplication(B)


def test_criterion_4_grid_cross_check():
    with criterion(
        4,
        "intrinsic predicate and sign search agree on the whole two-generator "
        "grid, and a non-involutive Nakayama map always decides No, within ten seconds",
    ):
        t0 = time.perf_counter()
        presentations = grid_presentations()
        assert len(presentations) == (4 + 12 + 1) * len(GRID_SHAPES)
        compared = 0
        for P in presentations:
            report = decide(P)  # raises CrossCheckError on any disagreement
            assert report.cross_check_ok
            for rec in report.involutions:
                assert rec.intrinsic == rec.solver_found
                compared += 1
            if not P.nakayama_is_involution():
                assert not report.exists
                assert report.reason == "nakayama-not-involutive"
                assert report.involutions == []
        assert compared > 0
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_identity_suites():
    with criterion(
        5,
        "sixteen randomized identity suites at a thousand or more instances "
        "each, zero failures",
    ):
        for name, engine in ALL_SUITES:
            rng = random.Random(f"acceptance-{name}")
            checked = engine(rng, 1000)
            assert checked >= 1000, name


def test_criterion_6_grid_structures_and_sensitivity():
    with criterion(
        6,
        "every buildable grid case passes all axiom and consequence checks, and "
        "negating any single interior coefficient is detected, within thirty seconds",
    ):
        t0 = time.perf_counter()
        built = 0
        for P in grid_presentations():
            report = decide(P)
            if not report.exists:
                continue
            built += 1
            B = build_structure(P, report.witness)
            assert verify_axioms(B).all_passed
            assert verify_derived(B).all_passed
            assert primitive_space_dim(P, B.delta) == P.dim - 2
            if P.field.characteristic() == 2:
                continue  # negation is the identity there
            for v in P.basis():
                if v in (P.zero_vec, P.top):
                    continue
                broken = negate_socle_entry(B, v)
                failing = {c.name for c in verify_axioms(broken).failing()}
                assert "antipode-definition" in failing, (P, v)
        assert built > 0
        assert time.perf_counter() - t0 < 30.0


def test_criterion_7_associativity_and_pairing():
    with criterion(
        7,
        "associativity holds on every basis triple of every grid presentation "
        "and the socle pairing matrix is a generalized permutation matrix",
    ):
        for P in grid_presentations():
            basis = P.basis()
            monos = {v: P.monomial(v) for v in basis}
            prods = {
                (u, v): P.mul(monos[u], monos[v]) for u in basis for v in basis
            }
            for u in basis:
                for v in basis:
                    for w in basis:
                        left = P.mul(prods[(u, v)], monos[w])
                        right = P.mul(monos[u], prods[(v, w)])
                        assert left == right
            mat = P.pairing_matrix(P.dual_functional(P.top))
            assert is_generalized_permutation(P.field, mat)
