"""Witness equations, closed forms, the decision procedure, and g tables."""

import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    REFERENCE_STRUCTURES,
    complement,
    epsilon,
    format1_blob,
    format2_blob,
    g_dict,
    identity_permutation,
    monomial,
    one_elem,
    phi_of,
    rand_compatible,
    rand_compatible_involutive_h,
    reference_bracket,
    reference_g_table,
    rejecting_clause,
    s_elem,
    t_elem,
    t_vec,
)
from qci.algebra import Presentation, q_grid
from qci.builder import (
    BfaStructure,
    Regime,
    Witness,
    applicable_regime,
    build_structure,
    check_witness,
    closed_form_c,
    decide,
    g_table,
    image_indices,
    regime_family,
    solve_c,
)
from qci.demos import example_presentation, example_witness
from qci.errors import (
    CrossCheckError,
    NotCompatibleError,
    NotInvolutionError,
    RegimeHypothesisError,
    TooManyGeneratorsError,
    WitnessInvalidError,
)
from qci.permutations import Permutation, enumerate_compatible, partition
from qci.scalars import Scalar, make_field
from qci.structio import structure_from_json, structure_to_json

Q = make_field("rational")
F2 = make_field("prime", 2)
F5 = make_field("prime", 5)
F7 = make_field("prime", 7)
F13 = make_field("prime", 13)
C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)


def presentation(field, a, entries):
    n = len(a)
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), lit in entries.items():
        val = field.parse(lit)
        q[i - 1][j - 1] = val
        q[j - 1][i - 1] = val.inverse()
    return Presentation(field, a, q)


def minus_pair(field):
    """n = 2, a = (2, 2), q12 = -1: both h values are -1."""
    return presentation(field, (2, 2), {(1, 2): "-1"})


def double_swap(field):
    """n = 4, two swapped pairs, every h value -1."""
    return presentation(
        field,
        (2, 2, 2, 2),
        {(1, 2): "-1", (3, 4): "-1", (1, 3): "1", (1, 4): "1", (2, 3): "1", (2, 4): "1"},
    )


class TestCheckWitness:
    def test_examples_pass(self):
        for ex in ("6.9", "6.10"):
            P = example_presentation(ex, C8)
            w = example_witness(ex, P)
            check_witness(P, w)

    def test_size_mismatch(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(WitnessInvalidError):
            check_witness(P, Witness(identity_permutation(2), (C8.one, C8.one)))

    def test_not_involution(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(WitnessInvalidError):
            check_witness(P, Witness(Permutation((2, 3, 1)), (C8.one,) * 3))

    def test_not_compatible(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(WitnessInvalidError):
            check_witness(P, Witness(identity_permutation(3), (C8.one,) * 3))

    def test_bad_scalars(self):
        P = example_presentation("6.9", C8)
        pi = Permutation((1, 3, 2))
        with pytest.raises(WitnessInvalidError):
            check_witness(P, Witness(pi, (C8.one, C8.one)))
        with pytest.raises(WitnessInvalidError):
            check_witness(P, Witness(pi, (C8.zero, C8.one, C8.one)))

    def test_pair_equation_violated(self):
        P = example_presentation("6.9", C8)
        pi = Permutation((1, 3, 2))
        c = (C8.one, C8.parse("2"), C8.parse("3"))
        with pytest.raises(WitnessInvalidError, match="c_2"):
            check_witness(P, Witness(pi, c))

    def test_product_equation_violated(self):
        P = example_presentation("6.9", C8)
        pi = Permutation((1, 3, 2))
        with pytest.raises(WitnessInvalidError, match="q_pi"):
            check_witness(P, Witness(pi, (-C8.one, C8.one, C8.one)))


class TestSolveC:
    def test_requires_involution_and_compatibility(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(NotInvolutionError):
            solve_c(P, Permutation((2, 3, 1)))
        with pytest.raises(NotCompatibleError):
            solve_c(P, identity_permutation(3))

    def test_gate_on_h_order(self):
        P = presentation(F13, (3, 3), {(1, 2): "2"})
        assert solve_c(P, Permutation((2, 1))) is None

    def test_plus_first_sign_search(self):
        P = minus_pair(F5)
        assert solve_c(P, identity_permutation(2)) == (F5.from_int(2), F5.from_int(2))

    def test_cyclotomic_root_values(self):
        P = minus_pair(C4)
        assert solve_c(P, identity_permutation(2)) == (C4.zeta, C4.zeta)

    def test_missing_root_blocks_fixed_minus(self):
        P = minus_pair(Q)
        assert solve_c(P, identity_permutation(2)) is None
        # the swap normalizes to c = (1, -1) whose product breaks the last equation
        assert solve_c(P, Permutation((2, 1))) is None

    def test_moved_pair_normalization(self):
        P = example_presentation("6.10", make_field("rational"), b="2")
        c = solve_c(P, Permutation((1, 3, 2)))
        assert c == (-Q.one, Q.one, -Q.one)
        check_witness(P, Witness(Permutation((1, 3, 2)), c))


class TestRegimes:
    def test_family_labels(self):
        assert regime_family(example_presentation("6.9", C8)) == "symmetric"
        assert regime_family(example_presentation("6.10", C8)) == "sqrt-minus-one-present"
        assert (
            regime_family(example_presentation("6.10", make_field("rational"), b="2"))
            == "sqrt-minus-one-absent"
        )
        assert regime_family(presentation(F2, (2, 2), {(1, 2): "1"})) == "char-two"

    def test_applicable_regime_classification(self):
        P9 = example_presentation("6.9", C8)
        assert applicable_regime(P9, Permutation((1, 3, 2))) == Regime.SYMMETRIC
        P10 = example_presentation("6.10", C8)
        assert applicable_regime(P10, Permutation((1, 3, 2))) == Regime.IMAG_ANCHOR_H_PLUS
        P10q = example_presentation("6.10", make_field("rational"), b="2")
        assert applicable_regime(P10q, Permutation((1, 3, 2))) == Regime.REAL_ANCHOR
        assert (
            applicable_regime(presentation(F2, (2, 2), {(1, 2): "1"}), identity_permutation(2))
            == Regime.CHAR_TWO
        )
        assert applicable_regime(minus_pair(F5), identity_permutation(2)) == (
            Regime.IMAG_ANCHOR_H_MINUS
        )
        assert applicable_regime(double_swap(F5), Permutation((2, 1, 4, 3))) == (
            Regime.IMAG_NO_ANCHOR
        )
        assert applicable_regime(double_swap(Q), Permutation((2, 1, 4, 3))) == (
            Regime.REAL_NO_ANCHOR
        )
        # blocked: no sqrt(-1) and a fixed index with h = -1
        assert applicable_regime(minus_pair(Q), identity_permutation(2)) is None
        # blocked: moved pairs with h = -1 not in multiples of four
        assert applicable_regime(minus_pair(Q), Permutation((2, 1))) is None
        # not an involution, or incompatible
        assert applicable_regime(example_presentation("6.9", C8), Permutation((2, 3, 1))) is None
        assert applicable_regime(example_presentation("6.9", C8), identity_permutation(3)) is None

    def test_closed_forms_satisfy_witness_equations(self):
        # moved pairs normalize to c_i = 1, c_{pi(i)} = h_{e_i} for i < pi(i)
        cases = [
            (example_presentation("6.9", C8), Permutation((1, 3, 2)), "1,1,1"),
            (example_presentation("6.10", C8), Permutation((1, 3, 2)), "-1,1,-1"),
            (
                example_presentation("6.10", make_field("rational"), b="2"),
                Permutation((1, 3, 2)),
                "-1,1,-1",
            ),
            (presentation(F2, (2, 2), {(1, 2): "1"}), identity_permutation(2), "1,1"),
            (minus_pair(F5), identity_permutation(2), "2,2"),
            (double_swap(F5), Permutation((2, 1, 4, 3)), "1,4,1,4"),
            (double_swap(Q), Permutation((2, 1, 4, 3)), "1,-1,1,-1"),
        ]
        for P, pi, expected in cases:
            regime = applicable_regime(P, pi)
            assert regime is not None
            c = closed_form_c(P, pi, regime)
            assert ",".join(str(x) for x in c) == expected, regime
            check_witness(P, Witness(pi, c))
            assert solve_c(P, pi) is not None

    def test_symmetric_recipe_values(self):
        # fully fixed involution with nontrivial fixed-block signs
        P = presentation(Q, (2, 2, 2), {(1, 2): "-1", (1, 3): "-1", (2, 3): "-1"})
        assert P.is_symmetric()
        pi = identity_permutation(3)
        c = closed_form_c(P, pi, Regime.SYMMETRIC)
        assert c == (Q.one, -Q.one, Q.one)
        # the sign search finds a different but equally valid witness
        assert solve_c(P, pi) == (Q.one, Q.one, -Q.one)
        check_witness(P, Witness(pi, c))

    def test_misapplied_regime_rejected(self):
        P9 = example_presentation("6.9", C8)
        pi = Permutation((1, 3, 2))
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(P9, pi, Regime.CHAR_TWO)
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(minus_pair(F5), identity_permutation(2), Regime.REAL_ANCHOR)
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(minus_pair(F5), identity_permutation(2), Regime.IMAG_ANCHOR_H_PLUS)
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(double_swap(Q), Permutation((2, 1, 4, 3)), Regime.IMAG_NO_ANCHOR)
        # the symmetric recipe would work in characteristic 2, and the h = 1
        # anchor on a symmetric presentation, but neither is the applicable regime
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(
                presentation(F2, (2, 2), {(1, 2): "1"}), identity_permutation(2), Regime.SYMMETRIC
            )
        with pytest.raises(RegimeHypothesisError):
            closed_form_c(P9, pi, Regime.IMAG_ANCHOR_H_PLUS)

    def test_regime_rule_matches_solver_on_grid(self):
        """The existence rule against the sign search, over fields with and
        without sqrt(-1): every compatible involution of n = 3 with
        a in {2,3}^3 and of (2,2,2,2) with q = +-1, plus six named cases."""
        units = {
            F2: ("1",),
            make_field("prime", 3): ("1", "2"),
            F5: ("1", "2", "3", "4"),
            make_field("prime", 7): ("1", "2", "3", "4", "5", "6"),
            Q: ("1", "-1", "2"),
        }
        cases = [
            example_presentation("6.9", C8),
            example_presentation("6.10", C8),
            minus_pair(Q),
            minus_pair(F5),
            double_swap(Q),
            double_swap(F5),
        ]
        pairs3 = [(1, 2), (1, 3), (2, 3)]
        pairs4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        for F, lits in units.items():
            for a in itertools.product((2, 3), repeat=3):
                for choice in itertools.product(lits, repeat=3):
                    cases.append(presentation(F, a, dict(zip(pairs3, choice))))
            signs = ("1",) if F.characteristic() == 2 else ("1", "-1")
            for choice in itertools.product(signs, repeat=6):
                cases.append(presentation(F, (2, 2, 2, 2), dict(zip(pairs4, choice))))
        seen = set()
        involutions = i4_cases = 0
        for P in cases:
            for pi in enumerate_compatible(P):
                involutions += 1
                regime = applicable_regime(P, pi)
                seen.add(regime)
                where = f"a = {P.a}, q = {P.q}, pi = {pi}"
                assert (regime is not None) == (solve_c(P, pi) is not None), where
                if regime is not None:
                    check_witness(P, Witness(pi, closed_form_c(P, pi, regime)))
                if P.field.characteristic() != 2 and P.nakayama_is_involution():
                    rep = partition(P, pi)
                    if rep.i4:
                        i4_cases += 1
                        assert rep.i1 or rep.i3, where
        assert seen == set(Regime) | {None}
        # pinned so that a shrunken grid or enumeration shows
        assert (involutions, i4_cases) == (1894, 120)


class TestDecide:
    def test_gate_failure(self):
        P = presentation(F13, (2, 3), {(1, 2): "5"})
        report = decide(P)
        assert not report.exists
        assert report.reason == "nakayama-not-involutive"
        assert not report.nakayama_involutive
        assert report.witness is None

    def test_involutions_counted_when_gate_fails(self):
        P = presentation(F5, (2, 2), {(1, 2): "2"})
        report = decide(P)
        assert not report.nakayama_involutive
        assert report.n_involutions == len(enumerate_compatible(P)) == 1
        assert report.to_json()["n_involutions"] == 1

    def test_involution_count_matches_enumeration(self):
        for P in (minus_pair(Q), double_swap(Q), example_presentation("6.9", C8)):
            report = decide(P)
            assert report.nakayama_involutive
            assert report.n_involutions == len(enumerate_compatible(P)) == len(report.involutions)

    def test_enumeration_bound_applies_before_gate(self):
        # counting the involutions needs the enumeration, whatever the gate says
        P = presentation(F5, (2,) * 11, {(1, 2): "2"})
        assert not P.nakayama_is_involution()
        with pytest.raises(TooManyGeneratorsError):
            decide(P)

    def test_symmetric_corollary_on_grid(self):
        """The paper's corollary: when A is symmetric (every h_{e_i} = 1), a
        structure exists iff some compatible permutation is an involution."""
        units = {
            F2: ("1",),
            make_field("prime", 3): ("1", "2"),
            F5: ("1", "2", "4"),
            make_field("prime", 7): ("1", "2", "6"),
            F13: ("1", "3", "5", "12"),
            Q: ("1", "-1", "2"),
            C8: ("1", "-1", "z", "z^2"),
        }
        shapes = {
            2: list(itertools.product((2, 3, 4, 5), repeat=2)),
            3: list(itertools.permutations((2, 3, 4))) + [(2, 2, 2), (3, 3, 3), (4, 4, 4)],
        }
        symmetric = absent = 0
        for F, lits in units.items():
            for n, shape_list in shapes.items():
                pairs = list(itertools.combinations(range(1, n + 1), 2))
                for a in shape_list:
                    for choice in itertools.product(lits, repeat=len(pairs)):
                        P = presentation(F, a, dict(zip(pairs, choice)))
                        if not P.is_symmetric():
                            continue
                        symmetric += 1
                        exists = decide(P).exists
                        involutions = enumerate_compatible(P, involutions_only=True)
                        assert exists == bool(involutions), (F.describe(), a, choice)
                        absent += not exists
        # pinned so that a shrunken grid shows; both answers occur
        assert (symmetric, absent) == (331, 24)

    def test_no_compatible_involution(self):
        # distinct exponents force pi = id, which needs a symmetric q matrix
        P = presentation(F5, (2, 3, 4), {(1, 2): "2", (1, 3): "1", (2, 3): "2"})
        assert P.nakayama_is_involution()
        report = decide(P)
        assert not report.exists
        assert report.reason == "no-compatible-involution"
        assert report.involutions == []

    def test_no_involution_admits_scalars(self):
        report = decide(minus_pair(Q))
        assert not report.exists
        assert report.reason == "no-involution-admits-scalars"
        assert len(report.involutions) == 2
        assert all(not rec.intrinsic and not rec.solver_found for rec in report.involutions)
        assert report.cross_check_ok

    def test_yes_after_field_extension(self):
        report = decide(minus_pair(C4))
        assert report.exists
        assert report.witness.pi == identity_permutation(2)
        assert report.witness.c == (C4.zeta, C4.zeta)

    def test_witness_is_first_in_enumeration_order(self):
        report = decide(double_swap(Q))
        assert report.exists
        assert report.witness.pi == Permutation((2, 1, 4, 3))
        rejected = [rec for rec in report.involutions if not rec.solver_found]
        assert rejected, "the fully fixed involutions must be rejected over Q"

    def test_examples_decide_yes(self):
        for ex in ("6.9", "6.10"):
            P = example_presentation(ex, C8)
            report = decide(P)
            assert report.exists
            assert report.witness.pi == Permutation((1, 3, 2))
            check_witness(P, report.witness)

    def test_routes_disagree_when_the_search_finds_nothing(self, monkeypatch):
        # the regime rule accepts [1,3,2], the first involution of 6.9
        monkeypatch.setattr("qci.builder.solve_c", lambda P, pi: None)
        message = "intrinsic condition (True) and sign search (False) disagree for pi = [1,3,2]"
        with pytest.raises(CrossCheckError, match=re.escape(message) + "$"):
            decide(example_presentation("6.9", C8))

    def test_report_json_shape(self):
        data = decide(minus_pair(C4)).to_json()
        assert data["exists"] is True
        assert data["witness"] == {"pi": "[1,2]", "c": ["z", "z"]}
        assert data["regime"] == "sqrt-minus-one-present"
        assert data["cross_check_ok"] is True
        assert all(
            set(rec) == {"pi", "intrinsic_condition", "solver_found_c"}
            for rec in data["involutions"]
        )


def brute_force_witness(p: int, a: tuple, q: list, pi: tuple) -> bool:
    """Whether some c in (GF(p)*)^n satisfies the two witness equations for
    the involution pi (0-based images), tried on every c, on integers mod p
    and with no normalization:
      c_i c_{pi(i)} = h_{e_i} = prod_j q_ij^{a_j - 1}, and
      q_pi prod_i c_i^{a_i - 1} = 1, where
      q_pi = prod_{j<k} bracket(pi e_k, pi e_j)^{(a_k - 1)(a_j - 1)} and
      bracket(u, v) = prod_{i<j} q_ij^{u_j v_i}."""
    n = len(a)

    def bracket(u, v):
        out = 1
        for i, j in itertools.combinations(range(n), 2):
            out = out * pow(q[i][j], u[j] * v[i], p) % p
        return out

    unit = [[int(i == k) for i in range(n)] for k in range(n)]
    h = [math.prod(pow(q[i][j], a[j] - 1, p) for j in range(n)) % p for i in range(n)]
    q_pi = 1
    for j, k in itertools.combinations(range(n), 2):
        q_pi = q_pi * pow(bracket(unit[pi[k]], unit[pi[j]]), (a[k] - 1) * (a[j] - 1), p) % p
    return any(
        all(c[i] * c[pi[i]] % p == h[i] for i in range(n))
        and q_pi * math.prod(pow(ci, ai - 1, p) for ci, ai in zip(c, a)) % p == 1
        for c in itertools.product(range(1, p), repeat=n)
    )


def third_route(P: Presentation) -> list:
    """(pi, brute_force_witness) for each compatible involution of P over
    GF(p), found among all permutations on integers mod p:
    a_{pi(i)} = a_i and q_{pi(i) pi(j)} = q_ji."""
    n, a, q = P.n, P.a, [list(row) for row in P.q_values]
    out = []
    for pi in itertools.permutations(range(n)):
        if all(
            pi[pi[i]] == i and a[pi[i]] == a[i] and q[pi[i]][pi[j]] == q[j][i]
            for i in range(n)
            for j in range(n)
        ):
            out.append((Permutation(k + 1 for k in pi), brute_force_witness(P.field.p, a, q, pi)))
    return out


def draw_prime_presentation(rng: random.Random, p: int, n: int, involutive: bool):
    """A presentation over GF(p) with a compatible involution and every
    a_i <= 4, with an involutive Nakayama automorphism when asked."""
    sample = rand_compatible_involutive_h if involutive else rand_compatible
    return sample(rng, make_field("prime", p), n, a_hi=4)[0]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.sampled_from([2, 3]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_brute_force_over_every_c_agrees_with_both_routes(p, n, involutive, rng):
    """A third route for decide: for every compatible involution, a c solving
    the witness equations exists exactly when a regime applies and exactly
    when solve_c finds one."""
    P = draw_prime_presentation(rng, p, n, involutive)
    routes = third_route(P)
    assert routes
    for pi, exists in routes:
        assert (applicable_regime(P, pi) is not None) == exists, (P, pi)
        assert (solve_c(P, pi) is not None) == exists, (P, pi)


def test_the_third_route_draws_reach_both_answers():
    """Fixed draws of the sampler above reach both answers of the brute
    force, so the test above compares the routes on Yes and on No."""
    rng = random.Random(0)
    draws = itertools.product((3, 5, 13), (2, 3), (False, True))
    answers = {
        exists
        for p, n, involutive in draws
        for _, exists in third_route(draw_prime_presentation(rng, p, n, involutive))
    }
    assert answers == {False, True}


def test_each_rejecting_clause_leaves_no_c():
    """Every involution of S_n on the q grids of GF(3) and GF(5), n = 2, 3 and
    each a_i in {2, 3, 4}: applicable_regime rejects it exactly when
    rejecting_clause names a clause, and for a compatible involution the
    brute force over every c finds a witness exactly when no clause does.
    So each clause that rejects leaves no c at all (the normalization of
    solve_c loses nothing), and the counts per clause are pinned, so a
    shrunken grid or a clause no longer reached shows."""
    counts = collections.Counter()
    for p, n in itertools.product((3, 5), (2, 3)):
        field = make_field("prime", p)
        involutions = [
            pi
            for pi in map(Permutation, itertools.permutations(range(1, n + 1)))
            if pi.is_involution()
        ]
        for a in itertools.product((2, 3, 4), repeat=n):
            for P in q_grid(field, a):
                exists = dict(third_route(P))
                for pi in involutions:
                    clause = rejecting_clause(P, pi)
                    assert (applicable_regime(P, pi) is None) == (clause is not None), (P, pi)
                    if pi in exists:
                        assert exists[pi] == (clause is None), (P, pi, clause)
                    counts[clause, pi in exists] += 1
    # (clause, whether pi is compatible): every clause occurs
    assert counts == {
        (None, True): 626,
        ("nakayama-gate", True): 196,
        ("nakayama-gate", False): 4828,
        ("not-compatible", False): 2030,
        ("root-no-anchor", True): 26,
        ("no-root-i3-or-i4", True): 164,
        ("no-root-no-anchor", True): 14,
    }


class TestGTable:
    def test_symmetric_example_values(self):
        P = example_presentation("6.9", C8)
        g = g_dict(P, g_table(P, example_witness("6.9", P)))
        minus_z3 = C8.parse("-z^3")
        expected = {
            (0, 0, 0): C8.one,
            (0, 0, 1): C8.one,
            (0, 1, 0): minus_z3,
            (0, 1, 1): C8.one,
            (1, 0, 0): C8.one,
            (1, 0, 1): C8.one,
            (1, 1, 0): minus_z3,
            (1, 1, 1): C8.one,
        }
        assert g == expected

    def test_twisted_example_values(self):
        P = example_presentation("6.10", C8)
        g = g_dict(P, g_table(P, example_witness("6.10", P)))
        z = C8.zeta
        expected = {
            (0, 0, 0): C8.one,
            (0, 0, 1): z**2,
            (0, 1, 0): -z,
            (0, 1, 1): -C8.one,
            (1, 0, 0): -C8.one,
            (1, 0, 1): -(z**2),
            (1, 1, 0): z,
            (1, 1, 1): C8.one,
        }
        assert g == expected

    def test_endpoints_are_one(self):
        P = minus_pair(C4)
        report = decide(P)
        g = g_dict(P, g_table(P, report.witness))
        assert g[P.zero_vec] == C4.one
        assert g[P.top] == C4.one

    def test_invalid_witness_rejected(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(WitnessInvalidError):
            g_table(P, Witness(Permutation((1, 3, 2)), (-C8.one, C8.one, C8.one)))

    @pytest.mark.parametrize(
        "field, q12, pi", [(F7, "2", (2, 1)), (C8, "-1", (1, 2))], ids=["prime:7", "cyclotomic:8"]
    )
    def test_exponents_beyond_one_hundred(self, field, q12, pi):
        # on (16,16) the pair exponents v_1 v_2 reach 15 * 15 = 225
        P = presentation(field, (16, 16), {(1, 2): q12})
        w = decide(P).witness
        assert w.pi == Permutation(pi)
        assert g_dict(P, g_table(P, w)) == reference_g_table(P, w)

    def test_routes_disagree_without_the_witness_check(self, monkeypatch):
        # c = (1, 1) with pi = id is no witness here (c_1^2 != h_e1 = 2), and
        # the routes differ by b_12^2 = 4 at v = (1, 1): 2 vs 2^-1 = 4
        monkeypatch.setattr("qci.builder.check_witness", lambda P, w: None)
        P = presentation(F7, (2, 2), {(1, 2): "2"})
        with pytest.raises(
            CrossCheckError,
            match=re.escape("socle coefficient routes disagree at v = (1, 1): 2 vs 4"),
        ):
            g_table(P, Witness(identity_permutation(2), (F7.one, F7.one)))

    def test_boundary_check_without_the_witness_check(self, monkeypatch):
        # symmetric q: both routes give c_1 c_2 = 2 at the top vector
        monkeypatch.setattr("qci.builder.check_witness", lambda P, w: None)
        P = presentation(F7, (2, 2), {(1, 2): "1"})
        with pytest.raises(CrossCheckError, match="boundary socle coefficients must be 1"):
            g_table(P, Witness(identity_permutation(2), (F7.from_int(2), F7.one)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F2, F7, F13, Q, C8]),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_tables_match_references(field, n, rng):
    """g_table against reference_g_table, and S(x_v) = g_v bracket(top - v, v)
    x_{pi(v)} against reference_bracket, for decide's witness."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    w = report.witness
    g = g_dict(P, g_table(P, w))
    assert g == reference_g_table(P, w)
    B = build_structure(P, w)
    for i, v in enumerate(P.basis()):
        assert Scalar(field, B.s_coef[i]) == g[v] * reference_bracket(P, complement(P, v), v)
        assert B.s_img[i] == P.index(w.pi.act(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
def test_image_indices_match_the_action(n, rng):
    P, pi = rand_compatible(rng, F7, n, a_hi=4)
    assert image_indices(P, pi) == [P.index(pi.act(v)) for v in P.basis()]


def gf7_draw(a, seed: int):
    """A GF(7) presentation with exponents a and decide's witness: the q_ij,
    i < j, are drawn from the units until decide says Yes."""
    rng = random.Random(seed)
    units = [F7.from_int(k) for k in range(1, 7)]
    n = len(a)
    while True:
        q = [[F7.one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = rng.choice(units)
                q[j][i] = q[i][j].inverse()
        P = Presentation(F7, a, q)
        report = decide(P)
        if report.exists:
            return P, report.witness


def scalar_arithmetic(monkeypatch, call) -> int:
    """The Scalar products, powers and inverses that call() performs."""
    calls = [0]
    for name in ("__mul__", "__rmul__", "__pow__", "inverse"):
        original = getattr(Scalar, name)

        def counted(*args, _original=original):
            calls[0] += 1
            return _original(*args)

        monkeypatch.setattr(Scalar, name, counted)
    call()
    monkeypatch.undo()
    return calls[0]


def test_build_structure_scalar_arithmetic_does_not_grow_with_dim(monkeypatch):
    """g, S and delta are built on payload tables: the only Scalar arithmetic
    is check_witness, whose cost depends on n alone."""
    counts = {}
    for a in ((4, 4, 4), (16, 16, 16), (64, 64), (8, 8, 8, 8)):
        P, w = gf7_draw(a, seed=1)
        counts[a] = scalar_arithmetic(monkeypatch, lambda: build_structure(P, w))
        assert counts[a] == scalar_arithmetic(monkeypatch, lambda: check_witness(P, w))
    assert counts[(4, 4, 4)] == counts[(16, 16, 16)]
    assert all(counts[a] <= 64 for a in ((16, 16, 16), (64, 64), (8, 8, 8, 8)))


def _with_loads(structures: dict) -> list:
    """pytest params of each named structure, then its format-3, its format-2
    and its format-1 load."""
    return [
        pytest.param(T, id=f"{name}-{kind}")
        for name, B in structures.items()
        for kind, T in (
            ("built", B),
            ("format3", structure_from_json(structure_to_json(B))),
            ("format2", structure_from_json(format2_blob(B))),
            ("format1", structure_from_json(format1_blob(B))),
        )
    ]


_P69 = example_presentation("6.9", C8)
DELTA_SHAPE_INPUTS = _with_loads(
    {
        "example-6.9": build_structure(_P69, example_witness("6.9", _P69)),
        **{f"reference-{i}": B for i, B in enumerate(REFERENCE_STRUCTURES)},
    }
)


class TestBuildStructure:
    def test_structure_fields(self):
        P = example_presentation("6.9", C8)
        B = build_structure(P, example_witness("6.9", P))
        assert isinstance(B, BfaStructure)
        assert t_vec(B) == (1, 1, 1)
        assert t_elem(B) == {(1, 1, 1): C8.one}
        assert phi_of(B) == {(1, 1, 1): C8.one}
        assert epsilon(B, one_elem(P)) == C8.one
        assert epsilon(B, monomial(P, (1, 0, 0))) == C8.zero

    @pytest.mark.parametrize("B", DELTA_SHAPE_INPUTS)
    def test_delta_shapes(self, B):
        """delta(1) = 1 (x) 1, every middle monomial is primitive, and
        delta(t) = sum_u g_u x_{a-1-u} (x) x_{pi(u)}, u over the basis once,
        read off pi.act and g alone."""
        P = B.presentation
        zero, one = P.zero_vec, P.field.one
        assert B.delta[zero] == [(zero, zero, one)]
        for mid in P.basis()[1:-1]:
            assert sorted(B.delta[mid], key=str) == sorted(
                [(zero, mid, one), (mid, zero, one)], key=str
            )
        top_row = B.delta[P.top]
        assert len(top_row) == P.dim
        g = g_dict(P, B.g)
        pi = B.witness.pi
        complements = [tuple(t - x for t, x in zip(P.top, u)) for u, _, _ in top_row]
        assert sorted(complements) == sorted(P.basis())
        for u, (_, w_part, coeff) in zip(complements, top_row):
            assert w_part == pi.act(u)
            assert coeff == g[u]

    def test_antipode_on_generators(self):
        P = example_presentation("6.10", C8)
        B = build_structure(P, example_witness("6.10", P))
        # S(x_i) = c_i x_{pi(i)}
        assert s_elem(B, monomial(P, (1, 0, 0))) == {(1, 0, 0): -C8.one}
        assert s_elem(B, monomial(P, (0, 1, 0))) == {(0, 0, 1): C8.zeta_power(2)}
        assert s_elem(B, monomial(P, (0, 0, 1))) == {(0, 1, 0): C8.zeta_power(2)}

    def test_twisted_antipode_table(self):
        P = example_presentation("6.10", C8)
        B = build_structure(P, example_witness("6.10", P))
        z = C8.zeta
        expected = {
            (0, 0, 0): ((0, 0, 0), C8.one),
            (1, 0, 0): ((1, 0, 0), -C8.one),
            (0, 1, 0): ((0, 0, 1), z**2),
            (0, 0, 1): ((0, 1, 0), z**2),
            (1, 1, 0): ((1, 0, 1), -z),
            (1, 0, 1): ((1, 1, 0), -(z**3)),
            (0, 1, 1): ((0, 1, 1), -C8.one),
            (1, 1, 1): ((1, 1, 1), C8.one),
        }
        assert B.s_map == expected
