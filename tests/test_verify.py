"""Exhaustive axiom and consequence checks on constructed structures."""

import dataclasses
import itertools
import json
import operator
import random
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from helpers import (
    PRESENTATION_CHECKS,
    REFERENCE_STRUCTURES,
    VIEW_CHECKS,
    add,
    bare_structure,
    built,
    complement,
    dual_functional,
    failing,
    format1_blob,
    g_dict,
    identity_permutation,
    monomial,
    one_elem,
    phi_of,
    presentation,
    rand_compatible_involutive_h,
    rand_presentation,
    rand_vector,
    reference_antihomomorphism,
    reference_coaction,
    reference_convolution_inverse,
    reference_copairing,
    reference_derived_checks,
    reference_functional_left_hit,
    reference_integral_space,
    reference_invert_element,
    reference_is_hopf,
    reference_pair_checks,
    reference_presentation_checks,
    reference_primitive_space_dim,
    reference_reports,
    reference_tensor_mul,
    t_elem,
    tensor_product,
    transposition,
    unit_pool,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qci import linalg, verify
from qci.algebra import Presentation
from qci.builder import BfaStructure, Witness, build_structure, decide
from qci.demos import example_presentation, example_structure, example_witness
from qci.errors import NotInvertibleError
from qci.verify import (
    AXIOM_CHECKS,
    DERIVED_CHECKS,
    is_hopf_comultiplication,
    negate_socle_entry,
    primitive_space_dim,
    verify_axioms,
    verify_derived,
)
from qci.permutations import is_compatible
from qci.scalars import Scalar, make_field
from qci.structio import load_structure, save_structure

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)
Q = make_field("rational")
F2 = make_field("prime", 2)
F5 = make_field("prime", 5)
F7 = make_field("prime", 7)


CHAR_TWO_GROUP_ALGEBRA = built(presentation(F2, (2, 2), {(1, 2): "1"}))

STRUCTURES = [
    example_structure("6.9", C8),
    example_structure("6.10", C8),
    example_structure("6.9", Q, b="2"),
    example_structure("6.9", F7, b="2"),
    built(example_presentation("6.10", Q, b="2")),
    built(presentation(C4, (2, 2), {(1, 2): "-1"})),
    CHAR_TWO_GROUP_ALGEBRA,
    built(presentation(Q, (2, 3), {(1, 2): "1"})),
]


class TestAllPass:
    @pytest.mark.parametrize("B", STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_axioms(self, B):
        rep = verify_axioms(B)
        assert [c.name for c in rep.checks] == list(AXIOM_CHECKS)
        assert rep.all_passed, failing(rep)

    @pytest.mark.parametrize("B", STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_derived(self, B):
        rep = verify_derived(B)
        assert [c.name for c in rep.checks] == list(DERIVED_CHECKS)
        assert rep.all_passed, failing(rep)

    def test_report_formats(self):
        rep = verify_axioms(STRUCTURES[0])
        text = rep.format_text()
        assert "[ok  ] coassociativity" in text
        data = rep.to_json()
        assert all(entry["passed"] for entry in data["checks"])


class TestTensorHelpers:
    def test_product_and_mul(self):
        P = example_presentation("6.9", C8)
        x1 = monomial(P, (1, 0, 0))
        x2 = monomial(P, (0, 1, 0))
        t = tensor_product(P, x1, x2)
        assert t == {((1, 0, 0), (0, 1, 0)): C8.one}
        sq = reference_tensor_mul(P, t, t)
        assert sq == {}
        cross = reference_tensor_mul(P, t, tensor_product(P, x2, x1))
        key = ((1, 1, 0), (1, 1, 0))
        assert list(cross) == [key]

    def test_coactions_inverse_to_counit(self):
        B = STRUCTURES[0]
        P = B.presentation
        eps = dual_functional(P, P.zero_vec)
        for v in P.basis():
            x = monomial(P, v)
            assert reference_coaction(B, eps, x, left=True) == x
            assert reference_coaction(B, eps, x, left=False) == x


class TestConvolution:
    def test_counit_is_self_inverse(self):
        B = STRUCTURES[0]
        P = B.presentation
        eps = dual_functional(P, P.zero_vec)
        assert reference_convolution_inverse(B, eps) == eps

    def test_socle_functional_not_invertible(self):
        B = STRUCTURES[0]
        with pytest.raises(NotInvertibleError):
            reference_convolution_inverse(B, phi_of(B))

    def test_inverse_property(self):
        B = STRUCTURES[1]
        P = B.presentation
        alpha = reference_functional_left_hit(P, t_elem(B), phi_of(B))
        inv = reference_convolution_inverse(B, alpha)
        # (alpha * inv)(x_v) = delta_{v,0}
        for v in P.basis():
            acc = P.field.zero
            for u, w, coeff in B.delta[v]:
                fa, fb = alpha.get(u), inv.get(w)
                if fa is not None and fb is not None:
                    acc = acc + fa * fb * coeff
            expected = P.field.one if v == P.zero_vec else P.field.zero
            assert acc == expected


class TestHopfFlag:
    def test_examples_are_not_hopf(self):
        assert not is_hopf_comultiplication(STRUCTURES[0])
        assert not is_hopf_comultiplication(STRUCTURES[1])

    def test_char_two_group_algebra_is_hopf(self):
        assert is_hopf_comultiplication(CHAR_TWO_GROUP_ALGEBRA)
        assert reference_is_hopf(CHAR_TWO_GROUP_ALGEBRA)


class TestPrimitives:
    def test_dimension_is_dim_minus_two(self):
        for B in STRUCTURES:
            P = B.presentation
            assert primitive_space_dim(B) == P.dim - 2
            assert reference_primitive_space_dim(B) == P.dim - 2


def first_antihomomorphism_failure(P, s_map):
    """First (u, v) with S(x_u x_v) != S(x_v) S(x_u), from whole-element products."""

    def S(x):
        out = {}
        for w, c in x.items():
            img, coeff = s_map[w]
            out = add(out, monomial(P, img, c * coeff))
        return out

    if S(one_elem(P)) != one_elem(P):
        return {"at": "S(1)"}
    for u in P.basis():
        for v in P.basis():
            xu, xv = monomial(P, u), monomial(P, v)
            if S(P.mul(xu, xv)) != P.mul(S(xv), S(xu)):
                return {"u": list(u), "v": list(v)}
    return None


def s_coef_of(B, s_map) -> list:
    """The payloads of the coefficients of s_map, an S table on vectors and
    Scalars whose images are those of B, in basis order."""
    assert all(s_map[v][0] == B.s_map[v][0] for v in B.presentation.basis())
    return [s_map[v][1].value for v in B.presentation.basis()]


class TestSensitivity:
    def test_negated_entry_fails_at_exactly_v(self):
        B = example_structure("6.9", C8)
        target = (0, 1, 0)
        broken = negate_socle_entry(B, target)
        rep = verify_axioms(broken)
        assert not rep.all_passed
        failed = {c.name: c.detail for c in failing(rep)}
        assert "antipode-definition" in failed
        assert failed["antipode-definition"]["v"] == list(target)

    def test_original_structure_unchanged(self):
        B = example_structure("6.9", C8)
        g_before = g_dict(B.presentation, B.g)
        negate_socle_entry(B, (0, 1, 0))
        assert g_dict(B.presentation, B.g) == g_before
        assert verify_axioms(B).all_passed

    def test_every_interior_entry_detected(self):
        B = built(presentation(C4, (2, 2), {(1, 2): "-1"}))
        P = B.presentation
        for v in P.basis():
            if v in (P.zero_vec, P.top):
                continue
            rep = verify_axioms(negate_socle_entry(B, v))
            assert any(c.name == "antipode-definition" for c in failing(rep))

    def test_tampered_antipode_breaks_antihomomorphism(self):
        B = example_structure("6.10", C8)
        s_map = dict(B.s_map)
        img, coeff = s_map[(1, 1, 0)]
        s_map[(1, 1, 0)] = (img, -coeff)
        tampered = dataclasses.replace(B, g=B.g, s_coef=s_coef_of(B, s_map))
        rep = verify_axioms(tampered)
        names = {c.name for c in failing(rep)}
        assert "antipode-antihomomorphism" in names or "antipode-definition" in names

    @pytest.mark.parametrize(
        "B",
        [
            example_structure("6.9", C8),
            example_structure("6.10", C8),
            example_structure("6.9", F7, b="2"),
        ],
        ids=lambda B: repr(B.presentation),
    )
    def test_every_negated_antipode_coefficient_detected(self, B):
        P = B.presentation
        assert P.a == (2, 2, 2)
        for v in P.basis():
            s_map = dict(B.s_map)
            img, coeff = s_map[v]
            s_map[v] = (img, -coeff)
            rep = verify_axioms(dataclasses.replace(B, g=B.g, s_coef=s_coef_of(B, s_map)))
            failed = {c.name: c.detail for c in failing(rep)}
            assert failed["antipode-antihomomorphism"] == first_antihomomorphism_failure(
                P, s_map
            ), v
            assert failed["antipode-definition"]["v"] == list(v)


def with_tables(B, g=None, s_coef=None) -> BfaStructure:
    """A copy of B with entries of g and s_coef replaced, each given as
    {basis vector: payload}."""
    P = B.presentation
    tables = {"g": list(B.g), "s_coef": list(B.s_coef)}
    for name, entries in (("g", g), ("s_coef", s_coef)):
        for v, x in (entries or {}).items():
            tables[name][P.index(v)] = x
    return dataclasses.replace(B, **tables)


def times(B, x, factor):
    """The payload x times factor, an int."""
    field = B.presentation.field
    return field._mul(x, field.from_int(factor).value)


def negated_coefficient(B, v):
    return with_tables(B, s_coef={v: times(B, B.s_coef[B.presentation.index(v)], -1)})


def negated_high_powers(B, k):
    """S negated on every x_v with v_k >= 2, a sign that is multiplicative in
    every coordinate but k: S still commutes past x_j for j != k, and fails
    first on a pair (u, e_k)."""
    basis = B.presentation.basis()
    return with_tables(B, s_coef={
        v: times(B, x, -1) for v, x in zip(basis, B.s_coef) if v[k] >= 2
    })


def tamperings(B):
    """(label, structure) for each in-memory perturbation of S and g."""
    P = B.presentation
    basis = P.basis()
    for v in basis:
        yield f"negate S coefficient at {v}", negated_coefficient(B, v)
    for v in basis:
        yield f"negate socle entry {v}", negate_socle_entry(B, v)
    for k, ak in enumerate(P.a):
        if ak >= 3:
            yield f"negate S on x{k + 1}-degree >= 2", negated_high_powers(B, k)


class TestPairChecksAgainstReference:
    """The support-driven pair loops decide every pair as the exhaustive ones."""

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_same_verdict_and_detail_under_every_tampering(self, B):
        cases = [("untampered", B)] + list(tamperings(B))
        failures = 0
        for label, T in cases:
            expected = reference_pair_checks(T)
            got = {c["name"]: c for c in verify_axioms(T).to_json()["checks"]}
            for name, entry in expected.items():
                assert got[name] == entry, (label, name)
            failures += not all(e["passed"] for e in expected.values())
        # the tamperings do break the pair checks, so the comparison has teeth
        assert failures >= len(cases) // 2

    @pytest.mark.parametrize(
        "a, field", [((4, 4, 4, 2), F7), ((2, 3, 2, 3), F5)], ids=["4442-gf7", "2323-gf5"]
    )
    def test_antihomomorphism_at_the_edges_of_its_slices(self, a, field):
        """The certificate compares s_coef on the indices with v_k < a_k - 1
        against the same indices plus stride_k; top - e_k is the last index
        that generator k compares, and t the last it compares against.  S
        scaled by 3 at top - e_k for each k, at t, and on the whole layer
        v_k = a_k - 1 for each k (which only generator k's comparison
        reaches: S stays multiplicative in the other coordinates), and S
        zeroed at the middle basis[dim // 2], one at a time: the check takes
        the verdict and names the pair of the plain evaluation.  The seeded
        structures have the involutions (2 3) and (1 3), and (2, 3, 2, 3)
        has a_k = 2, where top - e_k has v_k = 0 and the scaled layer keeps S
        an anti-homomorphism."""
        B = seeded(a, field)
        P = B.presentation

        def scaled(vectors):
            return with_tables(B, s_coef={
                v: times(B, B.s_coef[P.index(v)], 3) for v in vectors
            })

        cases = [
            scaled([tuple(map(operator.sub, P.top, P.unit_vec(k)))]) for k in range(1, P.n + 1)
        ]
        cases.append(scaled([P.top]))
        cases += [scaled([v for v in P.basis() if v[k] == ak - 1]) for k, ak in enumerate(a)]
        cases.append(with_tables(B, s_coef={P.basis()[P.dim // 2]: field.zero.value}))
        verdicts = []
        for T in cases:
            entry = verify_axioms(T).checks[AXIOM_CHECKS.index("antipode-antihomomorphism")]
            expected = reference_antihomomorphism(T)
            assert (entry.passed, entry.detail) == expected
            verdicts.append(expected[0])
        assert verdicts.count(True) == a.count(2)

    def test_structures_cover_nontrivial_involutions(self):
        moved = [
            B for B in REFERENCE_STRUCTURES
            if B.witness.pi.images != tuple(sorted(B.witness.pi.images))
        ]
        assert len(moved) >= 3


def g_perturbations(B):
    """(label, structure) for each change of g: every entry set to 0 and
    raised by 1, and every middle entry set to 0 at once."""
    P = B.presentation
    field = P.field
    one, zero = field.one.value, field.zero.value
    for v, x in zip(P.basis(), B.g):
        yield f"g{v} zeroed", with_tables(B, g={v: zero})
        yield f"g{v} plus one", with_tables(B, g={v: field._add(x, one)})
    yield "middle g zeroed", with_tables(B, g={v: zero for v in P.basis()[1:-1]})


class TestHopfCertificateAgainstReference:
    """The generator certificate gives the flag of the exhaustive scan."""

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_reference_structures(self, B):
        assert is_hopf_comultiplication(B) == reference_is_hopf(B) is False

    @pytest.mark.parametrize(
        "B",
        [CHAR_TWO_GROUP_ALGEBRA, STRUCTURES[0], *REFERENCE_STRUCTURES[:2]],
        ids=lambda B: repr(B.presentation),
    )
    def test_every_g_perturbation(self, B):
        flags = {}
        for label, T in g_perturbations(B):
            flags[label] = reference_is_hopf(T)
            assert is_hopf_comultiplication(T) == flags[label], label
        assert False in flags.values()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([F2, make_field("prime", 3), F7, C8]),
        st.sampled_from([2, 3]),
        st.randoms(use_true_random=False),
    )
    def test_built_structures_and_a_perturbation(self, field, n, rng):
        P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
        report = decide(P)
        assume(report.exists)
        B = build_structure(P, report.witness)
        T = rng.choice([T for _, T in g_perturbations(B)])
        for S in (B, T):
            assert is_hopf_comultiplication(S) == reference_is_hopf(S)


# The exhaustive (2, 2) grid of the Hopf flag: q_12 runs over every unit of
# each prime field and over the listed units of Q and Q(zeta_4), pi over
# id and the swap where compatible, and each entry of g over G_LITERALS, read
# in the field (so GF(2) and GF(3) repeat entries and keep the distinct
# ones).  S is the identity table, which the flag does not read.
HOPF_GRID = [
    (F2, ["1"]),
    (make_field("prime", 3), ["1", "2"]),
    (F5, ["1", "2", "3", "4"]),
    (Q, ["1", "-1", "2", "1/2"]),
    (C4, ["1", "-1", "z", "-z", "2"]),
]
G_LITERALS = ("0", "1", "-1", "2")
HOPF_GRID_STRUCTURES = 5220  # 32 + 324 + 1536 + 1536 + 1792, by field


def test_hopf_flag_on_the_two_by_two_grid():
    """On every structure of HOPF_GRID the flag equals the exhaustive scan,
    and it holds exactly for GF(2), pi = id and every g = 1, the closed
    form; the count pins the grid, so that a shrunken one shows."""
    hopf, count = [], 0
    for field, units in HOPF_GRID:
        entries = list(dict.fromkeys(field.parse(x).value for x in G_LITERALS))
        one = field.one.value
        for q12 in units:
            P = presentation(field, (2, 2), {(1, 2): q12})
            for pi in (identity_permutation(2), transposition(2, 1, 2)):
                if not is_compatible(P, pi):
                    continue
                for g in itertools.product(entries, repeat=P.dim):
                    B = BfaStructure(P, Witness(pi, ()), list(g), [one] * P.dim)
                    flag = is_hopf_comultiplication(B)
                    assert flag == reference_is_hopf(B), (field, q12, pi, g)
                    count += 1
                    if flag:
                        hopf.append((field, q12, pi, g))
    assert hopf == [(F2, "1", identity_permutation(2), (1, 1, 1, 1))]
    assert count == HOPF_GRID_STRUCTURES


@pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
def test_primitive_space_dim_matches_dense_reference(B):
    """primitive_space_dim reads g; the dense kernel on the tuple tables
    gives the same dimension under every change of g, and some of them
    change it."""
    P = B.presentation
    cases = [T for _, T in g_perturbations(B)]
    dims = [reference_primitive_space_dim(T) for T in cases]
    assert [primitive_space_dim(T) for T in cases] == dims
    assert set(dims) != {P.dim - 2}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, make_field("prime", 3), F7, Q, C8]),
    st.sampled_from([2, 3]),
    st.randoms(use_true_random=False),
)
def test_primitive_space_dim_matches_reference_on_draws(field, n, rng):
    """Built structures and one drawn change of g: the dimension is that of
    the dense kernel."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    B = build_structure(P, report.witness)
    perturbed = rng.choice([T for _, T in g_perturbations(B)])
    for S in (B, perturbed):
        assert primitive_space_dim(S) == reference_primitive_space_dim(S)


COMPOSING_S = (
    "nakayama-via-antipode",
    "fourth-power-formula",
    "antipode-square-is-nakayama",
    "antipode-fourth-power-identity",
)


POWER_PERTURBATIONS = (
    "S coefficient zeroed or scaled",
    "g_0 zeroed or scaled",
    "g_t zeroed or scaled",
)


def power_perturbation(B, kind, rng):
    """B with one change of the kind named, its place and factor drawn by
    rng.  A scaled g_0 is the coefficient of t (x) 1 in delta(t), which
    scales alpha -> t; a scaled g_t that of 1 (x) t, which scales m and
    t <- alpha, and a zeroed one leaves m without an inverse."""
    P = B.presentation
    factor = rng.choice([0, 2, 3])
    if kind == "S coefficient zeroed or scaled":
        v = rng.choice(P.basis())
        return with_tables(B, s_coef={v: times(B, B.s_coef[P.index(v)], factor)})
    v = P.zero_vec if kind == "g_0 zeroed or scaled" else P.top
    return with_tables(B, g={v: times(B, B.g[P.index(v)], factor)})


def derived_entries(B) -> dict:
    return {c.name: (c.passed, c.detail) for c in verify_derived(B).checks}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([F2, F7, Q, C8]),
    st.sampled_from([2, 3]),
    st.sampled_from(POWER_PERTURBATIONS),
    st.randoms(use_true_random=False),
)
def test_derived_checks_match_reference(field, n, kind, rng):
    """The seventeen derived checks on the index-keyed tables of the
    structure, with S^2, S^4 and h as payload arrays and m and alpha^{-1}
    read off c_0 and c_L, give the verdict and detail of their bodies on
    tuple keys and Scalars, m^{-1} and alpha^{-1} solved."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    B = build_structure(P, report.witness)
    for S in (B, power_perturbation(B, kind, rng)):
        assert derived_entries(S) == reference_derived_checks(S), kind


@pytest.mark.parametrize("kind", POWER_PERTURBATIONS)
def test_every_power_perturbation_reaches_the_checks(kind):
    """Each kind of perturbation fails some check that composes S on the
    reference structures, so the comparison above has teeth there."""
    rng = random.Random(0)
    failed = 0
    for B in REFERENCE_STRUCTURES:
        for _ in range(6):
            T = power_perturbation(B, kind, rng)
            expected = reference_derived_checks(T)
            assert derived_entries(T) == expected, kind
            failed += not all(expected[name][0] for name in COMPOSING_S)
    assert failed > 0


# -- every report against the plain evaluation ----------------------------------------


# examples 6.9 and 6.10 and the reference structures, then the other
# structures of STRUCTURES, the group algebra of characteristic two among them
ORACLE_STRUCTURES = STRUCTURES[:2] + REFERENCE_STRUCTURES + STRUCTURES[2:]

# the values c_0 and c_L are drawn from; "unit" is a unit of the field drawn
# by the test
ENDS = ("0", "1", "-1", "2", "unit")
MIDDLES = ("kept", "one zeroed", "one scaled", "all zeroed")


def drawn_tables(B, c0, cL, middle, s_scaled, rng) -> BfaStructure:
    """B with g_0 = c0 and g_t = cL (from ENDS), its middle g changed as
    middle (from MIDDLES) names, and s_scaled S coefficients scaled by 0,
    -1, 2 or a unit, at places drawn by rng."""
    P = B.presentation
    field, basis = P.field, P.basis()

    def value(text):
        return (rng.choice(unit_pool(field)) if text == "unit" else field.parse(text)).value

    g = {P.zero_vec: value(c0), P.top: value(cL)}
    if middle == "all zeroed":
        g.update({v: field.zero.value for v in basis[1:-1]})
    elif middle != "kept":
        v = rng.choice(basis[1:-1])
        factor = "0" if middle == "one zeroed" else rng.choice(["-1", "2", "unit"])
        g[v] = field._mul(B.g[P.index(v)], value(factor))
    s_coef = {
        v: field._mul(B.s_coef[P.index(v)], value(rng.choice(["0", "-1", "2", "unit"])))
        for v in rng.sample(basis, s_scaled)
    }
    return with_tables(B, g=g, s_coef=s_coef)


@pytest.mark.parametrize("B", ORACLE_STRUCTURES, ids=lambda B: repr(B.presentation))
@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(ENDS),
    st.sampled_from(ENDS),
    st.sampled_from(MIDDLES),
    st.integers(min_value=0, max_value=2),
    st.randoms(use_true_random=False),
)
def test_reports_match_the_plain_evaluation(B, c0, cL, middle, s_scaled, rng):
    """Both reports, in full, and the primitive dimension of a structure
    with drawn g and S coefficients are those of the plain evaluation on the
    tuple tables (reference_reports, reference_primitive_space_dim), which
    expands every row of delta and solves for m^{-1} and alpha^{-1}: the
    closed forms on c_0, c_L and the middle g decide as it does."""
    assert_reports_match(drawn_tables(B, c0, cL, middle, s_scaled, rng))


def assert_reports_match(T):
    got = {"axioms": verify_axioms(T).to_json(), "derived": verify_derived(T).to_json()}
    assert got == reference_reports(T)
    assert primitive_space_dim(T) == reference_primitive_space_dim(T)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, F7, Q, C8]),
    st.sampled_from([2, 3]),
    st.sampled_from(ENDS),
    st.sampled_from(ENDS),
    st.sampled_from(MIDDLES),
    st.randoms(use_true_random=False),
)
def test_reports_match_the_plain_evaluation_on_draws(field, n, c0, cL, middle, rng):
    """As above, on built structures of drawn presentations, with one S
    coefficient scaled."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    assert_reports_match(drawn_tables(build_structure(P, report.witness), c0, cL, middle, 1, rng))


@cache
def oracle_verdicts() -> tuple:
    """Over fixed draws of c_0, c_L and the middle g on example 6.9, the
    verdicts each check takes, by name, and the primitive dimensions."""
    B = example_structure("6.9", C8)
    rng = random.Random(0)
    verdicts, dims = {}, set()
    for c0, cL, middle in itertools.product(ENDS, ENDS, MIDDLES):
        T = drawn_tables(B, c0, cL, middle, 0, rng)
        reports = reference_reports(T)
        for entry in reports["axioms"]["checks"] + reports["derived"]["checks"]:
            verdicts.setdefault(entry["name"], set()).add(entry["passed"])
        dims.add(reference_primitive_space_dim(T))
    return verdicts, dims


@pytest.mark.parametrize("name", [
    "coassociativity", "counit-law", "frobenius-copairing", "unit-via-copairing",
    "modular-element", "antipode-of-modular-element", "nakayama-via-antipode",
    "fourth-power-formula",
])
def test_the_oracle_draws_reach_both_verdicts(name):
    """Each check decided in closed form on g both passes and fails over the
    fixed draws, so the comparison above has teeth."""
    assert oracle_verdicts()[0][name] == {True, False}


def test_the_oracle_draws_reach_both_primitive_dimensions():
    dim = example_structure("6.9", C8).presentation.dim
    assert oracle_verdicts()[1] == {dim - 1, dim - 2}


def test_pair_checks_evaluate_subquadratically_many_products(monkeypatch):
    """verify_axioms evaluates O(n^2) brackets, not dim^2 or dim.

    A passing structure is decided by the generator certificate of
    antipode-antihomomorphism, whose n dim pairs read their brackets from
    tables built from the 2 n^2 brackets of generators, and by one
    comparison per row of antipode-definition, whose table of
    bracket(top - v, v) is built from n^2 more.  Reading two brackets for
    each certificate pair made up to 2 n dim + dim, and one bracket per
    basis vector in antipode-definition 2 n^2 + dim.
    """
    B = load_structure(str(GOLDEN / "d64-gf7.structure.json"))
    P = B.presentation
    assert P.a == (4, 4, 4)
    calls = []
    original = Presentation.bracket_value

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(Presentation, "bracket_value", counted)
    assert verify_axioms(B).all_passed
    assert len(calls) == 3 * P.n ** 2


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, F7, make_field("prime", 13), C8]),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_socle_brackets_match_bracket_value(field, n, rng):
    """The table of antipode-definition, built by
    verify._socle_brackets from n^2 brackets of generators, is
    bracket(top - v, v) for every basis vector v, 2 <= a_i <= 6."""
    P = rand_presentation(rng, field, n, a_hi=6)
    assert verify._socle_brackets(P) == [
        P.bracket_value(complement(P, v), v) for v in P.basis()
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, F7, Q, C8]),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_bracket_characters_match_bracket_value(field, n, rng):
    """verify._character, built from the values of a character on the
    generators, is bracket_value on the basis for bracket(., e_k) and
    bracket(w, .), w off the basis too, and from a first scalar c is c
    times that table, as the anti-homomorphism certificate builds rho_k."""
    P = rand_presentation(rng, field, n, a_hi=3)
    units = [P.unit_vec(k) for k in range(1, n + 1)]
    w = rand_vector(rng, n)
    c = rng.choice(unit_pool(field)).value
    for left, right in [(None, e) for e in units] + [(w, None)]:
        def bracket(v):
            return P.bracket_value(v if left is None else left, v if right is None else right)

        chi = [bracket(e) for e in units]
        table = verify._character(field, chi, P.a)
        assert table == [bracket(v) for v in P.basis()]
        assert verify._character(field, chi, P.a, c) == [field._mul(c, x) for x in table]


# -- the integral spaces against elimination ------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F2, make_field("prime", 5), F7, Q, C8]),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_integral_spaces_match_elimination(field, n, rng):
    """Both integral spaces are the line of x_top, the certificate that
    integral-space-dimension and unimodularity pass by."""
    P = rand_presentation(rng, field, n)
    space = [{P.index(P.top): field.one}]
    for side in ("right", "left"):
        assert reference_integral_space(P, side) == space, side


# -- the presentation-only checks against their exhaustive loops -----------------


def presentation_entries(B) -> dict:
    """The report entries of the nine checks that read only P and the counit."""
    entries = verify_axioms(B).to_json()["checks"] + verify_derived(B).to_json()["checks"]
    return {e["name"]: e for e in entries if e["name"] in PRESENTATION_CHECKS}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F2, make_field("prime", 5), F7, Q, C8]),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_presentation_checks_match_reference(field, n, build, rng):
    """Each certificate gives the verdict and detail of the whole-basis loop,
    on built structures and on bare presentations with identity tables,
    whose Nakayama map is often not involutive."""
    if build:
        P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
        report = decide(P)
        assume(report.exists)
        B = build_structure(P, report.witness)
    else:
        B = bare_structure(rand_presentation(rng, field, n, a_hi=3))
    assert presentation_entries(B) == reference_presentation_checks(B)


def test_first_non_involutive_generator_is_the_last_one():
    """h_{e_1} = 1/4 and h_{e_2} = 2 fail, h_{e_3} = 1 does not: the first
    failing v in basis order is e_2, before e_1."""
    B = bare_structure(presentation(Q, (2, 3, 3), {(1, 2): "1/2"}))
    expected = reference_presentation_checks(B)
    assert expected["nakayama-involutive"]["detail"] == {"v": [0, 1, 0], "h": "2"}
    assert presentation_entries(B) == expected
    failed = [name for name, e in expected.items() if not e["passed"]]
    assert failed == ["nakayama-involutive"]


# -- count gates on one seeded d256 structure -------------------------------------


@cache
def seeded(a, field=F7):
    """A prime field (GF(7) by default), exponents a, q_ij (i < j) drawn from
    its units by Random(1) until decide says Yes."""
    rng = random.Random(1)
    n, one = len(a), field.one
    while True:
        q = [[one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = field.from_int(rng.randint(1, field.p - 1))
                q[j][i] = q[i][j].inverse()
        P = Presentation(field, a, q)
        report = decide(P)
        if report.exists:
            return build_structure(P, report.witness)


def seeded_d256():
    """The seeded structure with a = (4, 4, 4, 4) (the 14th draw)."""
    return seeded((4, 4, 4, 4))


def count_scalars(monkeypatch, field) -> dict:
    """Count Scalar constructions from now on, in the returned dict.

    The field's cached constants are built first, so that the count does
    not depend on which test touched them before.
    """
    _ = field.zero, field.one
    calls = {"scalar": 0}
    init = Scalar.__init__

    def counted(self, *args):
        calls["scalar"] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted)
    return calls


# Payload sums (Field._add) of verify_axioms, verify_derived, the Hopf flag
# and primitive_space_dim on a built structure, per term of delta(t): none,
# since antipode-coalgebra-antihomomorphism compares the row of t as two
# payload lists, the Hopf flag is decided in closed form and the rest are
# decided on g.  Summing delta(t) into two dicts there made 2.00 per term,
# and expanding the rows of 1 and t as well 2.03 at d256 and 2.00 at d4096;
# summing the column of t in primitive_space_dim made 3.11 and 3.01.
# Expanding delta(t) in coassociativity (6), summing it in
# antipode-definition (1) and applying S twice per basis vector in
# nakayama-via-antipode (2) made 12.07 per term at d256, with 288 brackets
# and 512 applications of S; expanding every primitive row as well made
# 26.95.
SUMS_PER_TERM_OF_DELTA_T = 0


def counting(calls: dict, name: str, original):
    """original, counting its calls in calls[name]."""
    def wrapper(*args):
        calls[name] += 1
        return original(*args)

    return wrapper


@pytest.mark.parametrize("a", [(4, 4, 4, 4), (16, 16, 16)], ids=["d256", "d4096"])
def test_built_structure_sums_no_payload(monkeypatch, a):
    """The checks that read delta are decided on g, and the row of t and
    each row of antipode-definition by one comparison of payload lists:
    with rref raising, verify_axioms, verify_derived, the Hopf flag and
    primitive_space_dim pass with no payload sum, and the brackets are
    bounded by 3 n^2 (the tables of the anti-homomorphism and the antipode
    definition)."""
    B = seeded(a)
    P = B.presentation

    def no_elimination(rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    calls = {"sums": 0, "brackets": 0}
    field_type = type(P.field)
    monkeypatch.setattr(field_type, "_add", counting(calls, "sums", field_type._add))
    monkeypatch.setattr(
        Presentation, "bracket_value", counting(calls, "brackets", Presentation.bracket_value)
    )
    assert verify_axioms(B).all_passed
    assert verify_derived(B).all_passed
    assert is_hopf_comultiplication(B) is False
    assert primitive_space_dim(B) == P.dim - 2
    assert calls["sums"] <= SUMS_PER_TERM_OF_DELTA_T * len(B.row(P.dim - 1))
    assert calls["brackets"] <= 3 * P.n ** 2


# Field._mul calls of verify_axioms, verify_derived and primitive_space_dim
# on a passing built structure are at most (2 n + C) dim, with this C, the
# smallest integer both shapes meet.  The certificate of
# antipode-antihomomorphism takes about two per basis vector and generator:
# one to tabulate rho_k and one to compare the slices.  Measured: 3 024 at
# d256 (11.81 per basis vector, n = 4) and 39 094 at d4096 (9.54, n = 3).
# Two tables and three products per certificate pair, and S^2 and S^4 as
# lists of tuples, made 4 879 (19.06) and 62 396 (15.23).
PRODUCTS_BESIDE_THE_CERTIFICATE = 4


@pytest.mark.parametrize("a", [(4, 4, 4, 4), (16, 16, 16)], ids=["d256", "d4096"])
def test_passing_verify_multiplies_few_payloads(monkeypatch, a):
    """A count gate on the payload products of a passing verification: every
    check compares whole payload lists, each built with a bounded number of
    products per basis vector."""
    B = seeded(a)
    P = B.presentation
    calls = {"products": 0}
    field_type = type(P.field)
    monkeypatch.setattr(field_type, "_mul", counting(calls, "products", field_type._mul))
    assert verify_axioms(B).all_passed
    assert verify_derived(B).all_passed
    assert primitive_space_dim(B) == P.dim - 2
    assert calls["products"] <= (2 * P.n + PRODUCTS_BESIDE_THE_CERTIFICATE) * P.dim


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("a", [(4, 4, 4, 4), (16, 16, 16)], ids=["d256", "d4096"])
def test_passing_verify_builds_no_basis(monkeypatch, tmp_path, a, source):
    """verify_axioms, verify_derived, the Hopf flag and primitive_space_dim
    pass on a structure built afresh or loaded from a format-2 file without
    building the list of basis vectors or their index, and without reading
    a row of delta: every check compares payload arrays and reads the basis
    only to name a failure, and the Hopf flag, decided in closed form,
    builds no Scalar either."""
    seed = seeded(a)
    P = seed.presentation
    B = build_structure(Presentation(P.field, P.a, P.q), seed.witness)
    if source == "loaded":
        path = tmp_path / "structure.json"
        save_structure(B, str(path))
        B = load_structure(str(path))
    P = B.presentation

    def no_row(self, i):
        raise AssertionError("BfaStructure.row called")

    monkeypatch.setattr(BfaStructure, "row", no_row)
    assert verify_axioms(B).all_passed
    assert verify_derived(B).all_passed
    calls = count_scalars(monkeypatch, P.field)
    assert is_hopf_comultiplication(B) is False
    assert calls == {"scalar": 0}
    assert primitive_space_dim(B) == P.dim - 2
    assert (P._basis, P._index) == (None, None)


def test_zeroed_g_fails_the_copairing_with_its_rank():
    """Zeroing k entries of g leaves k rows of the copairing matrix empty:
    the check names rank dim - k, on seeded_d256 and, against the dense
    rank, on the reference structures."""
    rng = random.Random(0)
    for B in (seeded_d256(), *REFERENCE_STRUCTURES):
        P = B.presentation
        zero = P.field.zero.value
        for k in (1, 2):
            T = with_tables(B, g={v: zero for v in rng.sample(P.basis(), k)})
            entries = {c.name: (c.passed, c.detail) for c in verify_axioms(T).checks}
            assert entries["frobenius-copairing"] == (False, {"rank": P.dim - k})
            if P.dim < 256:
                assert reference_copairing(T) == (False, {"rank": P.dim - k})


# The values verify_derived computes before its checks on seeded_d256: c_0,
# c_L and the powers of S, all payloads.  Building m and m^-1 as elements
# took one Scalar for m and two for m^-1.
SHARED_SCALARS = 0


def test_shared_values_build_few_scalars(monkeypatch):
    """The values verify_derived computes before its checks: c_0, c_L, the
    powers of S and h."""
    B = seeded_d256()
    monkeypatch.setattr(verify, "_DERIVED", {})
    calls = count_scalars(monkeypatch, B.presentation.field)
    assert verify_derived(B).checks == []
    assert calls == {"scalar": SHARED_SCALARS}


def test_presentation_checks_build_few_scalars(monkeypatch):
    """The nine checks that read only P and the counit build at most one
    scalar per generator on top of the shared values: eight pass by proof
    and nakayama-involutive squares h_{e_k}.  The whole-basis loops built
    1537."""
    B = seeded_d256()
    P = B.presentation
    P.h_generators()  # cached per presentation, as after decide
    for table in ("_AXIOMS", "_DERIVED"):
        checks = getattr(verify, table)
        monkeypatch.setattr(
            verify, table, {k: f for k, f in checks.items() if k in PRESENTATION_CHECKS}
        )
    calls = count_scalars(monkeypatch, P.field)
    entries = verify_axioms(B).checks + verify_derived(B).checks
    assert [c.name for c in entries] == list(PRESENTATION_CHECKS)
    assert all(c.passed for c in entries)
    assert calls["scalar"] - SHARED_SCALARS <= P.n


def test_antipode_power_checks_build_few_scalars(monkeypatch):
    """The four checks that compose S read the coefficient lists of S^2 and
    S^4 and the array h, computed once, and read m and alpha^{-1} off c_0
    and c_L: they build no
    Scalar beyond the shared values.  Solving for alpha^{-1}
    built 769, and composing S on Scalar elements for each v 8447."""
    B = seeded_d256()
    monkeypatch.setattr(
        verify, "_DERIVED", {k: f for k, f in verify._DERIVED.items() if k in COMPOSING_S}
    )
    calls = count_scalars(monkeypatch, B.presentation.field)
    report = verify_derived(B)
    assert [c.name for c in report.checks] == list(COMPOSING_S)
    assert report.all_passed
    assert calls["scalar"] - SHARED_SCALARS == 0


def test_derived_checks_build_only_the_shared_scalars(monkeypatch):
    """A passing verify_derived builds no Scalar: every check compares
    payloads on the index-keyed tables."""
    B = seeded_d256()
    calls = count_scalars(monkeypatch, B.presentation.field)
    report = verify_derived(B)
    assert [c.name for c in report.checks] == list(DERIVED_CHECKS)
    assert report.all_passed
    assert calls["scalar"] == SHARED_SCALARS


def test_axiom_checks_build_few_scalars(monkeypatch):
    """The five checks that read delta and S compare payloads on the
    index-keyed tables and build no Scalar on a passing structure.  On tuple
    keys and Scalars they built 10 973."""
    B = seeded_d256()
    monkeypatch.setattr(
        verify, "_AXIOMS", {k: f for k, f in verify._AXIOMS.items() if k in VIEW_CHECKS}
    )
    calls = count_scalars(monkeypatch, B.presentation.field)
    report = verify_axioms(B)
    assert [c.name for c in report.checks] == list(VIEW_CHECKS)
    assert report.all_passed
    assert calls["scalar"] == 0


def test_units_invert_without_elimination(monkeypatch):
    """m^-1 and the other units of seeded_d256 come from the nilpotent series
    of Presentation.invert_element: with rref raising, the inverses still
    match the exact solve and the full verify_derived report passes."""
    B = seeded_d256()
    P = B.presentation
    modular = reference_coaction(B, phi_of(B), t_elem(B), left=True)
    three, two = P.field.from_int(3), P.field.from_int(2)
    units = [
        modular,
        add(one_elem(P), monomial(P, P.unit_vec(1))),
        {P.zero_vec: three, P.unit_vec(1): P.field.one, P.unit_vec(2): two},
        {P.zero_vec: two, (1, 0, 2, 1): three, (0, 3, 0, 1): P.field.one, P.top: two},
    ]
    expected = [reference_invert_element(P, x) for x in units]

    def no_elimination(rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    assert [P.invert_element(x) for x in units] == expected
    report = verify_derived(B)
    assert [c.name for c in report.checks] == list(DERIVED_CHECKS)
    assert report.all_passed


# -- what a structure holds --------------------------------------------------------


def test_built_and_loaded_structures_hold_the_same_tables(tmp_path):
    """A structure holds the presentation, the witness, g and s_coef and
    nothing else.  A built d4096 structure and the same structure loaded
    from a format-2 and from a format-1 file hold the same tables, and read
    the same S images and row of t from them."""
    B = seeded((16, 16, 16))
    fields = [f.name for f in dataclasses.fields(BfaStructure)]
    assert fields == ["presentation", "witness", "g", "s_coef"]
    last = B.presentation.dim - 1
    format2, format1 = tmp_path / "format2.json", tmp_path / "format1.json"
    save_structure(B, str(format2))
    format1.write_text(json.dumps(format1_blob(B)))
    for T in (load_structure(str(format2)), load_structure(str(format1))):
        assert [getattr(T, name) for name in fields] == [getattr(B, name) for name in fields]
        assert (T.s_img, T.row(last)) == (B.s_img, B.row(last))


# -- memory gate on one seeded d4096 file -----------------------------------------


# A full verification of seeded((16, 16, 16)), loaded from its file, peaks
# at 0.77 MiB of traced allocations over a 0.22 MiB loaded structure (Python
# 3.11.7), with the checks comparing payload lists and only the Hopf flag
# building the basis, its index and the row of t; 1.75 MiB in the same
# sitting when the certificate pairs, the row of t and S^2, S^4 were walked
# as tuples and dicts.  An earlier sitting read 2.07 MiB for that verifier,
# which builds the row of t from g and the S images during the
# verification.  Storing the rows of 1 and t read
# the same peak over 0.61 MiB, and 3.72 MiB when coassociativity expanded
# delta(t).  In an earlier
# sitting, storing every primitive row read 4.53-4.65 MiB over 1.42-1.54 MiB;
# one before it read 4.9-5.0 MiB over 2.0-2.1 MiB there, as when every
# primitive row was expanded and the copairing eliminated (4.9-5.1 MiB).
# Keying coassociativity's expansion of delta(t) by one int instead of
# (p, q, w) read 4.3-4.4 MiB, at no measured gain in time.  When
# verify_axioms and verify_derived each built an index-keyed copy of
# tuple-keyed tables, it peaked at 8.49 MiB over 2.37 MiB.  The bound is
# kept at 6.0 MiB: 1.0 MiB above the peak with every primitive row stored,
# and 2.5 MiB below the last.
MEMORY_BOUND_MIB = 6.0


def test_full_verification_stays_under_the_memory_bound(tmp_path):
    """tracemalloc peak of verify_axioms, verify_derived, the Hopf flag and
    primitive_space_dim on a d4096 structure after save and load, the
    loaded structure included: the allocations of one `qci verify`."""
    path = tmp_path / "d4096.json"
    save_structure(seeded((16, 16, 16)), str(path))
    tracemalloc.start()
    try:
        B = load_structure(str(path))
        tracemalloc.reset_peak()
        passed = verify_axioms(B).all_passed and verify_derived(B).all_passed
        hopf, primitive = is_hopf_comultiplication(B), primitive_space_dim(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (passed, hopf, primitive) == (True, False, B.presentation.dim - 2)
    assert peak < MEMORY_BOUND_MIB * 2**20, f"peak {peak / 2**20:.2f} MiB"
