"""Exhaustive axiom and consequence checks on constructed structures."""

import random
from functools import cache
from pathlib import Path

import pytest
from helpers import (
    PRESENTATION_CHECKS,
    add,
    bare_structure,
    rand_compatible_involutive_h,
    rand_presentation,
    reference_functional_left_hit,
    reference_integral_space,
    reference_invert_element,
    reference_is_hopf,
    reference_pair_checks,
    reference_presentation_checks,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qci import linalg, verify
from qci.algebra import Presentation
from qci.builder import BfaStructure, build_structure, decide
from qci.demos import example_presentation, example_structure, example_witness
from qci.errors import NotInvertibleError
from qci.verify import (
    AXIOM_CHECKS,
    DERIVED_CHECKS,
    convolution_inverse,
    is_hopf_comultiplication,
    left_coaction,
    negate_socle_entry,
    primitive_space_dim,
    right_coaction,
    tensor_mul,
    tensor_product,
    verify_axioms,
    verify_derived,
)
from qci.scalars import Scalar, make_field
from qci.structio import load_structure

C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)
Q = make_field("rational")
F2 = make_field("prime", 2)
F7 = make_field("prime", 7)


def presentation(field, a, entries):
    n = len(a)
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), lit in entries.items():
        val = field.parse(lit)
        q[i - 1][j - 1] = val
        q[j - 1][i - 1] = val.inverse()
    return Presentation(field, a, q)


def built(P):
    report = decide(P)
    assert report.exists
    return build_structure(P, report.witness)


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
        assert rep.all_passed, rep.failing()

    @pytest.mark.parametrize("B", STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_derived(self, B):
        rep = verify_derived(B)
        assert [c.name for c in rep.checks] == list(DERIVED_CHECKS)
        assert rep.all_passed, rep.failing()

    def test_report_formats(self):
        rep = verify_axioms(STRUCTURES[0])
        text = rep.format_text()
        assert "[ok  ] coassociativity" in text
        data = rep.to_json()
        assert all(entry["passed"] for entry in data["checks"])


class TestTensorHelpers:
    def test_product_and_mul(self):
        P = example_presentation("6.9", C8)
        x1 = P.monomial((1, 0, 0))
        x2 = P.monomial((0, 1, 0))
        t = tensor_product(P, x1, x2)
        assert t == {((1, 0, 0), (0, 1, 0)): C8.one}
        sq = tensor_mul(P, t, t)
        assert sq == {}
        cross = tensor_mul(P, t, tensor_product(P, x2, x1))
        key = ((1, 1, 0), (1, 1, 0))
        assert list(cross) == [key]

    def test_coactions_inverse_to_counit(self):
        B = STRUCTURES[0]
        P = B.presentation
        eps = P.dual_functional(P.zero_vec)
        for v in P.basis():
            x = P.monomial(v)
            assert left_coaction(B, eps, x) == x
            assert right_coaction(B, x, eps) == x


class TestConvolution:
    def test_counit_is_self_inverse(self):
        B = STRUCTURES[0]
        P = B.presentation
        eps = P.dual_functional(P.zero_vec)
        assert convolution_inverse(B, eps) == eps

    def test_socle_functional_not_invertible(self):
        B = STRUCTURES[0]
        with pytest.raises(NotInvertibleError):
            convolution_inverse(B, B.phi())

    def test_inverse_property(self):
        B = STRUCTURES[1]
        P = B.presentation
        alpha = reference_functional_left_hit(P, B.t_elem(), B.phi())
        inv = convolution_inverse(B, alpha)
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
            assert primitive_space_dim(P, B.delta) == P.dim - 2


def first_antihomomorphism_failure(P, s_map):
    """First (u, v) with S(x_u x_v) != S(x_v) S(x_u), from whole-element products."""

    def S(x):
        out = {}
        for w, c in x.items():
            img, coeff = s_map[w]
            out = add(out, P.monomial(img, c * coeff))
        return out

    if S(P.one_elem) != P.one_elem:
        return {"at": "S(1)"}
    for u in P.basis():
        for v in P.basis():
            xu, xv = P.monomial(u), P.monomial(v)
            if S(P.mul(xu, xv)) != P.mul(S(xv), S(xu)):
                return {"u": list(u), "v": list(v)}
    return None


class TestSensitivity:
    def test_negated_entry_fails_at_exactly_v(self):
        B = example_structure("6.9", C8)
        target = (0, 1, 0)
        broken = negate_socle_entry(B, target)
        rep = verify_axioms(broken)
        assert not rep.all_passed
        failing = {c.name: c.detail for c in rep.failing()}
        assert "antipode-definition" in failing
        assert failing["antipode-definition"]["v"] == list(target)

    def test_original_structure_unchanged(self):
        B = example_structure("6.9", C8)
        g_before = dict(B.g)
        negate_socle_entry(B, (0, 1, 0))
        assert B.g == g_before
        assert verify_axioms(B).all_passed

    def test_every_interior_entry_detected(self):
        B = built(presentation(C4, (2, 2), {(1, 2): "-1"}))
        P = B.presentation
        for v in P.basis():
            if v in (P.zero_vec, P.top):
                continue
            rep = verify_axioms(negate_socle_entry(B, v))
            assert any(c.name == "antipode-definition" for c in rep.failing())

    def test_tampered_antipode_breaks_antihomomorphism(self):
        B = example_structure("6.10", C8)
        s_map = dict(B.s_map)
        img, coeff = s_map[(1, 1, 0)]
        s_map[(1, 1, 0)] = (img, -coeff)
        from qci.builder import BfaStructure

        tampered = BfaStructure(B.presentation, B.witness, B.g, B.delta, s_map)
        rep = verify_axioms(tampered)
        names = {c.name for c in rep.failing()}
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
        from qci.builder import BfaStructure

        P = B.presentation
        assert P.a == (2, 2, 2)
        for v in P.basis():
            s_map = dict(B.s_map)
            img, coeff = s_map[v]
            s_map[v] = (img, -coeff)
            rep = verify_axioms(BfaStructure(P, B.witness, B.g, B.delta, s_map))
            failing = {c.name: c.detail for c in rep.failing()}
            assert failing["antipode-antihomomorphism"] == first_antihomomorphism_failure(
                P, s_map
            ), v
            assert failing["antipode-definition"]["v"] == list(v)


def with_s_map(B, s_map, delta=None):
    return BfaStructure(
        B.presentation, B.witness, B.g, B.delta if delta is None else delta, s_map
    )


def negated_coefficient(B, v):
    s_map = dict(B.s_map)
    img, coeff = s_map[v]
    s_map[v] = (img, -coeff)
    return with_s_map(B, s_map)


def swapped_images(B, v1, v2):
    s_map = dict(B.s_map)
    (img1, c1), (img2, c2) = s_map[v1], s_map[v2]
    s_map[v1], s_map[v2] = (img2, c1), (img1, c2)
    return with_s_map(B, s_map)


def replaced_image(B, v, w):
    s_map = dict(B.s_map)
    s_map[v] = (w, s_map[v][1])
    return with_s_map(B, s_map)


def moved_image(B, v, shift):
    """s(v)'s image with its first coordinate moved by shift, off the basis."""
    s_map = dict(B.s_map)
    img, coeff = s_map[v]
    s_map[v] = ((img[0] + shift,) + img[1:], coeff)
    return with_s_map(B, s_map)


def negated_high_powers(B, k):
    """S negated on every x_v with v_k >= 2, a sign that is multiplicative in
    every coordinate but k: S still commutes past x_j for j != k, and fails
    first on a pair (u, e_k)."""
    s_map = dict(B.s_map)
    for v, (img, coeff) in B.s_map.items():
        if v[k] >= 2:
            s_map[v] = (img, -coeff)
    return with_s_map(B, s_map)


def tamperings(B):
    """(label, structure) for each in-memory perturbation of s_map and delta."""
    P = B.presentation
    basis = P.basis()
    for v in basis:
        yield f"negate S coefficient at {v}", negated_coefficient(B, v)
    for i, v1 in enumerate(basis):
        for v2 in basis[i + 1:]:
            yield f"swap S images of {v1}, {v2}", swapped_images(B, v1, v2)
    for v in basis:
        for w in basis:
            if w != B.s_map[v][0]:
                yield f"replace S image of {v} by {w}", replaced_image(B, v, w)
    for v in basis:
        for shift in (-P.a[0], P.a[0]):
            yield f"move S image of {v} by {shift}", moved_image(B, v, shift)
    for v in basis:
        yield f"negate socle entry {v}", negate_socle_entry(B, v)
    for k, ak in enumerate(P.a):
        if ak >= 3:
            yield f"negate S on x{k + 1}-degree >= 2", negated_high_powers(B, k)


REFERENCE_STRUCTURES = [
    built(presentation(F7, (2, 2, 2), {(2, 3): "-1"})),
    built(presentation(F7, (3, 3), {(1, 2): "-1"})),
    built(presentation(Q, (2, 2, 2), {(1, 3): "-1"})),
    built(presentation(Q, (3, 3), {(1, 2): "-1"})),
    built(presentation(C8, (2, 2, 2), {(1, 2): "z", (1, 3): "-z^3", (2, 3): "z"})),
    built(presentation(C8, (3, 3), {(1, 2): "z^2"})),
]


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

    def test_structures_cover_nontrivial_involutions(self):
        moved = [
            B for B in REFERENCE_STRUCTURES
            if B.witness.pi.images != tuple(sorted(B.witness.pi.images))
        ]
        assert len(moved) >= 3


def delta_perturbations(B):
    """(label, structure) for each single-entry change of a delta row: every
    term's coefficient set to 0 and raised by 1, and its factors swapped."""
    one, zero = B.presentation.field.one, B.presentation.field.zero
    for v, row in B.delta.items():
        for j, (u, w, c) in enumerate(row):
            for label, term in (
                ("zero", (u, w, zero)), ("plus one", (u, w, c + one)), ("swap", (w, u, c))
            ):
                delta = dict(B.delta)
                delta[v] = row[:j] + [term] + row[j + 1:]
                yield f"{label} term {j} of delta{v}", with_s_map(B, B.s_map, delta)


class TestHopfCertificateAgainstReference:
    """The generator certificate gives the flag of the exhaustive scan."""

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_reference_structures(self, B):
        assert is_hopf_comultiplication(B) == reference_is_hopf(B) is False

    @pytest.mark.parametrize(
        "B", [CHAR_TWO_GROUP_ALGEBRA, REFERENCE_STRUCTURES[0]], ids=lambda B: repr(B.presentation)
    )
    def test_every_delta_perturbation(self, B):
        flags = {}
        for label, T in delta_perturbations(B):
            flags[label] = reference_is_hopf(T)
            assert is_hopf_comultiplication(T) == flags[label], label
        # the perturbations of delta(1) are among them, and break its unit 1 (x) 1
        unit = [f for label, f in flags.items() if label.endswith(f"delta{B.presentation.zero_vec}")]
        assert unit and False in unit
        assert False in flags.values()
        assert (True in flags.values()) == (B is CHAR_TWO_GROUP_ALGEBRA)

    @pytest.mark.parametrize("B", [CHAR_TWO_GROUP_ALGEBRA] + REFERENCE_STRUCTURES[:2],
                             ids=lambda B: repr(B.presentation))
    def test_zero_comultiplication_is_multiplicative(self, B):
        T = with_s_map(B, B.s_map, {v: [] for v in B.delta})
        assert is_hopf_comultiplication(T) and reference_is_hopf(T)

    @pytest.mark.parametrize("c, hopf", [(0, True), (1, True), (2, False)])
    def test_delta_of_the_unit_alone(self, c, hopf):
        """delta(1) = c 1 (x) 1 and 0 elsewhere is multiplicative exactly when
        c^2 = c, which only the pair (0, 0) tells."""
        B = REFERENCE_STRUCTURES[0]
        P = B.presentation
        delta = {v: [] for v in B.delta}
        delta[P.zero_vec] = [(P.zero_vec, P.zero_vec, P.field.from_int(c))]
        T = with_s_map(B, B.s_map, delta)
        assert is_hopf_comultiplication(T) == reference_is_hopf(T) == hopf

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
        T = rng.choice([T for _, T in delta_perturbations(B)])
        for S in (B, T):
            assert is_hopf_comultiplication(S) == reference_is_hopf(S)


COMPOSING_S = (
    "nakayama-via-antipode",
    "fourth-power-formula",
    "antipode-square-is-nakayama",
    "antipode-fourth-power-identity",
)


class TestImagesOffBasis:
    """An S image off the basis is no element of A: the checks fail, not raise."""

    def test_example_6_9_moved_image_fails_at_delta(self):
        B = example_structure("6.9")
        x2 = B.presentation.unit_vec(2)
        T = moved_image(B, x2, B.presentation.a[0])
        assert T.s_map[x2][0] == (2, 0, 1)
        failing = {c.name: c.detail for c in verify_axioms(T).failing()}
        assert failing["antipode-coalgebra-antihomomorphism"] == {"v": [0, 1, 0], "at": "delta"}

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_every_moved_image_fails_coalgebra_antihomomorphism(self, B):
        P = B.presentation
        for v in P.basis():
            for shift in (-P.a[0], P.a[0]):
                rep = verify_axioms(moved_image(B, v, shift))
                detail = {c.name: c.detail for c in rep.failing()}[
                    "antipode-coalgebra-antihomomorphism"
                ]
                # S(1) off the basis already fails the counit half at v = 0
                at = "epsilon" if v == P.zero_vec else "delta"
                assert detail == {"v": list(v), "at": at}, (v, shift)

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_every_moved_image_fails_the_powers_of_s(self, B):
        """S^2 and S^4 are undefined on x_v and on x_w, w the image of v before
        the move (S sends x_w to x_v); each check that composes S fails at
        the first of the two in basis order."""
        P = B.presentation
        for v in P.basis():
            first = list(min(v, B.s_map[v][0]))
            for shift in (-P.a[0], P.a[0]):
                rep = verify_derived(moved_image(B, v, shift))
                assert [c.name for c in rep.checks] == list(DERIVED_CHECKS)
                failing = {c.name: c.detail for c in rep.failing()}
                for name in COMPOSING_S:
                    assert failing[name] == {"v": first}, (v, shift, name)

    def test_example_6_9_details_name_the_moved_image(self):
        B = example_structure("6.9")
        x1 = B.presentation.unit_vec(1)
        for shift, image in ((2, "x1^3"), (-2, "x1^-1")):
            T = moved_image(B, x1, shift)
            failing = {c.name: c.detail for c in verify_axioms(T).failing()}
            assert failing["antipode-definition"] == {
                "v": [1, 0, 0], "expected": f"(1)*{image}", "actual": "(1)*x1"
            }
            failing = {c.name: c.detail for c in verify_derived(T).failing()}
            assert {name: failing[name] for name in COMPOSING_S} == {
                name: {"v": [1, 0, 0]} for name in COMPOSING_S
            }


def test_pair_checks_evaluate_subquadratically_many_products(monkeypatch):
    """verify_axioms calls mul_basis O(n dim) times, not dim^2.

    A passing structure is decided by the generator certificate of
    antipode-antihomomorphism, two products for each of its n dim pairs.
    """
    golden = Path(__file__).resolve().parent / "data" / "golden"
    B = load_structure(str(golden / "d64-gf7.structure.json"))
    P = B.presentation
    assert P.a == (4, 4, 4)
    calls = []
    original = Presentation.mul_basis

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(Presentation, "mul_basis", counted)
    assert verify_axioms(B).all_passed
    assert 0 < len(calls) <= 2 * P.n * P.dim + 4 * P.dim


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
    failing = [name for name, e in expected.items() if not e["passed"]]
    assert failing == ["nakayama-involutive"]


# -- count gates on one seeded d256 structure -------------------------------------


@cache
def seeded_d256():
    """GF(7), a = (4, 4, 4, 4), q_ij (i < j) drawn from 1..6 by Random(1)
    until decide says Yes (the 14th draw)."""
    rng = random.Random(1)
    one = F7.one
    while True:
        q = [[one] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                q[i][j] = F7.from_int(rng.randint(1, 6))
                q[j][i] = q[i][j].inverse()
        P = Presentation(F7, (4, 4, 4, 4), q)
        report = decide(P)
        if report.exists:
            return build_structure(P, report.witness)


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


@pytest.mark.parametrize(
    "zero_delta, pairs, scalars",
    [(False, 7, 73), (True, 1280, 513)],
    ids=["built", "zero-delta"],
)
def test_hopf_flag_evaluates_few_pairs(monkeypatch, zero_delta, pairs, scalars):
    """At most (n + 1) dim pairs, each one tensor_mul call; the built
    structure fails at its seventh pair, and the zero delta, which is
    multiplicative, evaluates every certificate pair."""
    B = seeded_d256()
    P = B.presentation
    if zero_delta:
        B = with_s_map(B, B.s_map, {v: [] for v in B.delta})
    calls = count_scalars(monkeypatch, B.presentation.field)
    calls["tensor_mul"] = 0
    original = verify.tensor_mul

    def counted(*args):
        calls["tensor_mul"] += 1
        return original(*args)

    monkeypatch.setattr(verify, "tensor_mul", counted)
    assert is_hopf_comultiplication(B) is zero_delta
    assert calls == {"scalar": scalars, "tensor_mul": pairs}
    assert pairs <= (P.n + 1) * P.dim


# phi, t, m, m^-1 and alpha on seeded_d256
SHARED_SCALARS = 4


def test_shared_values_build_few_scalars(monkeypatch):
    """The values verify_derived computes before its checks: phi, t, m,
    m^-1 and alpha, which is the counit."""
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


def test_units_invert_without_elimination(monkeypatch):
    """m^-1 and the other units of seeded_d256 come from the nilpotent series:
    with rref raising, the inverses still match the exact solve and
    verify_derived computes its shared values.  fourth-power-formula still
    solves for the convolution inverse of alpha, so the full report runs
    after the patch is lifted."""
    B = seeded_d256()
    P = B.presentation
    modular = left_coaction(B, B.phi(), B.t_elem())
    three, two = P.field.from_int(3), P.field.from_int(2)
    units = [
        modular,
        add(P.one_elem, P.monomial(P.unit_vec(1))),
        {P.zero_vec: three, P.unit_vec(1): P.field.one, P.unit_vec(2): two},
        {P.zero_vec: two, (1, 0, 2, 1): three, (0, 3, 0, 1): P.field.one, P.top: two},
    ]
    expected = [reference_invert_element(P, x) for x in units]

    def no_elimination(rows):
        raise AssertionError("rref called")

    with monkeypatch.context() as patched:
        patched.setattr(linalg, "rref", no_elimination)
        assert [P.invert_element(x) for x in units] == expected
        patched.setattr(verify, "_DERIVED", {})
        assert verify_derived(B).checks == []
    report = verify_derived(B)
    assert [c.name for c in report.checks] == list(DERIVED_CHECKS)
    assert report.all_passed
