"""Exhaustive axiom and consequence checks on constructed structures."""

import json
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
    delta_table,
    dual_functional,
    failing,
    format1_blob,
    g_dict,
    left_coaction,
    monomial,
    one_elem,
    phi_of,
    presentation,
    rand_compatible_involutive_h,
    rand_presentation,
    rand_vector,
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
    reference_tensor_mul,
    reference_view_checks,
    right_coaction,
    t_elem,
    tensor_product,
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
    is_hopf_comultiplication,
    negate_socle_entry,
    primitive_space_dim,
    verify_axioms,
    verify_derived,
)
from qci.scalars import Scalar, make_field
from qci.structio import load_structure, save_structure

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)
Q = make_field("rational")
F2 = make_field("prime", 2)
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
            assert left_coaction(B, eps, x) == x
            assert right_coaction(B, x, eps) == x


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
        tampered = BfaStructure.from_tables(
            B.presentation, B.witness, g_dict(B.presentation, B.g), B.delta, s_map
        )
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
            rep = verify_axioms(
                BfaStructure.from_tables(P, B.witness, g_dict(P, B.g), B.delta, s_map)
            )
            failed = {c.name: c.detail for c in failing(rep)}
            assert failed["antipode-antihomomorphism"] == first_antihomomorphism_failure(
                P, s_map
            ), v
            assert failed["antipode-definition"]["v"] == list(v)


def with_s_map(B, s_map, delta=None):
    P = B.presentation
    return BfaStructure.from_tables(
        P, B.witness, g_dict(P, B.g), B.delta if delta is None else delta, s_map
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


def factor_off_basis(B, v):
    """B with row v gaining x_{v+a} (x) 1, a factor off the basis, as in
    TestDeltaFactorsOffBasis."""
    P = B.presentation
    off = tuple(map(sum, zip(v, P.a)))
    return with_s_map(B, B.s_map, {**B.delta, v: B.delta[v] + [(off, P.zero_vec, P.field.one)]})


@pytest.mark.parametrize("B", REFERENCE_STRUCTURES[:3], ids=lambda B: repr(B.presentation))
def test_primitive_space_dim_matches_dense_reference(B):
    """primitive_space_dim skips the columns that are zero and eliminates on
    payload keys; the dense kernel on the tuple tables gives the same
    dimension under every single-term change of delta and every row gaining
    a factor off the basis, and some of them change it."""
    P = B.presentation
    cases = [T for _, T in delta_perturbations(B)]
    cases += [factor_off_basis(B, v) for v in P.basis()]
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
    """Built structures, one drawn change of delta and one row gaining a
    factor off the basis: the dimension is that of the dense kernel."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    B = build_structure(P, report.witness)
    perturbed = rng.choice([T for _, T in delta_perturbations(B)])
    for S in (B, perturbed, factor_off_basis(B, rng.choice(P.basis()))):
        assert primitive_space_dim(S) == reference_primitive_space_dim(S)


@pytest.mark.parametrize("B", REFERENCE_STRUCTURES[:3], ids=lambda B: repr(B.presentation))
def test_primitive_space_dim_with_overlapping_columns(B):
    """Two middle rows gaining the same term x_u (x) x_u give equal columns,
    whose supports overlap: the structure leaves the shape, and the
    elimination finds them dependent, as the dense kernel does."""
    P = B.presentation
    u, v, w = P.basis()[1:4]
    term = (u, u, P.field.one)
    T = with_s_map(B, B.s_map, {**B.delta, v: B.delta[v] + [term], w: B.delta[w] + [term]})
    assert primitive_space_dim(T) == reference_primitive_space_dim(T) == P.dim - 3


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
        failed = {c.name: c.detail for c in failing(verify_axioms(T))}
        assert failed["antipode-coalgebra-antihomomorphism"] == {"v": [0, 1, 0], "at": "delta"}

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_every_moved_image_fails_coalgebra_antihomomorphism(self, B):
        P = B.presentation
        for v in P.basis():
            for shift in (-P.a[0], P.a[0]):
                rep = verify_axioms(moved_image(B, v, shift))
                detail = {c.name: c.detail for c in failing(rep)}[
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
                failed = {c.name: c.detail for c in failing(rep)}
                for name in COMPOSING_S:
                    assert failed[name] == {"v": first}, (v, shift, name)

    def test_example_6_9_details_name_the_moved_image(self):
        B = example_structure("6.9")
        x1 = B.presentation.unit_vec(1)
        for shift, image in ((2, "x1^3"), (-2, "x1^-1")):
            T = moved_image(B, x1, shift)
            failed = {c.name: c.detail for c in failing(verify_axioms(T))}
            assert failed["antipode-definition"] == {
                "v": [1, 0, 0], "expected": f"(1)*{image}", "actual": "(1)*x1"
            }
            failed = {c.name: c.detail for c in failing(verify_derived(T))}
            assert {name: failed[name] for name in COMPOSING_S} == {
                name: {"v": [1, 0, 0]} for name in COMPOSING_S
            }


class TestDeltaFactorsOffBasis:
    """A delta factor off the basis is no element of A: the checks that expand
    it fail at "off-basis", not raise, at the first row that holds it."""

    def test_golden_d64_socle_factor_shifted(self):
        """delta(t)'s left factor x1^3 x2^3 moved to x1^13 x2^13 x3^10."""
        B = load_structure(str(GOLDEN / "d64-gf7.structure.json"))
        P = B.presentation
        row = list(B.delta[P.top])
        k = [u for u, _, _ in row].index((3, 3, 0))
        u, w, c = row[k]
        row[k] = (tuple(x + 10 for x in u), w, c)
        T = with_s_map(B, B.s_map, {**B.delta, P.top: row})
        entries = {c["name"]: c for c in verify_axioms(T).to_json()["checks"]}
        off = {"v": [3, 3, 3], "at": "off-basis"}
        for name in ("coassociativity", "frobenius-copairing",
                     "antipode-coalgebra-antihomomorphism"):
            assert entries[name] == {"name": name, "passed": False, "detail": off}
        assert entries["counit-law"]["passed"]
        assert entries["antipode-definition"]["detail"]["v"] == [0, 0, 3]
        assert [c.name for c in verify_derived(T).checks] == list(DERIVED_CHECKS)

    def test_golden_d64_counit_factor_shifted(self):
        """delta(x3)'s term 1 (x) x3 moved to 1 (x) x1^10 x2^10 x3^11: the
        convolution system for alpha^{-1} has no unknown there, so
        fourth-power-formula fails at "off-basis" and no other derived check
        fails."""
        B = load_structure(str(GOLDEN / "d64-gf7.structure.json"))
        P = B.presentation
        x3 = P.unit_vec(3)
        row = [
            (u, tuple(x + 10 for x in w) if (u, w) == (P.zero_vec, x3) else w, c)
            for u, w, c in B.delta[x3]
        ]
        assert row != B.delta[x3]
        report = verify_derived(with_s_map(B, B.s_map, {**B.delta, x3: row}))
        assert [c.name for c in report.checks] == list(DERIVED_CHECKS)
        assert {c.name: c.detail for c in failing(report)} == {
            "fourth-power-formula": {"at": "off-basis"}
        }

    @pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
    def test_every_row_gaining_a_factor_off_the_basis(self, B):
        """Row v gains x_{v+a} (x) 1.  coassociativity and counit-law fail at v;
        antipode-coalgebra-antihomomorphism fails at v, or with "delta" at the
        preimage u of v under S when u comes first, since delta(S(x_u))
        reads row v."""
        P = B.presentation
        preimage = {img: u for u, (img, _) in B.s_map.items()}
        for v in P.basis():
            off = tuple(map(sum, zip(v, P.a)))
            row = B.delta[v] + [(off, P.zero_vec, P.field.one)]
            failed = {
                c.name: c.detail
                for c in failing(verify_axioms(with_s_map(B, B.s_map, {**B.delta, v: row})))
            }
            assert failed["coassociativity"] == {"v": list(v), "at": "off-basis"}
            assert failed["counit-law"] == {"v": list(v)}
            u = preimage[v]
            assert failed["antipode-coalgebra-antihomomorphism"] == (
                {"v": list(u), "at": "delta"} if u < v else {"v": list(v), "at": "off-basis"}
            )
            expected = {"v": list(P.top), "at": "off-basis"} if v == P.top else None
            assert failed.get("frobenius-copairing") == expected, v


POWER_PERTURBATIONS = (
    "S coefficient zeroed or scaled",
    "S image moved off the basis",
    "two S images swapped",
    "delta(t) gains x1 (x) t",
    "middle delta row gains a (u, 0) term",
    "right counit law broken",
    "delta factor off the basis",
    "delta(1) scaled by c^4 and S(1) by c",
)


def power_perturbation(B, kind, rng):
    """B with one change of the kind named, its place drawn by rng.

    delta(t) gaining x_1 (x) t makes m = g_top 1 + x_1, which is not a
    constant; a middle row v gaining (u, 0) with u != v gives alpha -> x_v
    the two terms x_v and c x_u.  The right counit law breaks where row v
    gains a term (0, w), w != v, or its term (0, v) is zeroed or scaled, so
    that fourth-power-formula solves for alpha^{-1}.  A factor w off the
    basis is added to row v as (0, w) or (w, 0), or to delta(t) as (w, t) or
    (t, w), so that it reaches x_v <- alpha, alpha -> x_v, m or t <- phi.
    delta(1) = c^4 1 (x) 1 with S(1) = c 1 makes alpha^{-1}(1) = c^{-4} and
    S^4(1) = c^4 1: fourth-power-formula solves for alpha^{-1}, passes at 1
    and fails at the first primitive row.
    """
    P = B.presentation
    field, basis = P.field, P.basis()
    v = rng.choice(basis)
    if kind == "S coefficient zeroed or scaled":
        img, coeff = B.s_map[v]
        factor = field.from_int(rng.choice([0, 2, 3]))
        return with_s_map(B, {**B.s_map, v: (img, coeff * factor)})
    if kind == "S image moved off the basis":
        return moved_image(B, v, rng.choice((-P.a[0], P.a[0])))
    if kind == "two S images swapped":
        return swapped_images(B, *rng.sample(basis, 2))
    if kind == "delta(t) gains x1 (x) t":
        row = (P.unit_vec(1), P.top, field.one)
        return with_s_map(B, B.s_map, {**B.delta, P.top: B.delta[P.top] + [row]})
    zero = P.zero_vec
    if kind == "delta(1) scaled by c^4 and S(1) by c":
        c = field.from_int(rng.choice([2, 3]))
        delta = {**B.delta, zero: [(zero, zero, c * c * c * c)]}
        return with_s_map(B, {**B.s_map, zero: (zero, c)}, delta)
    c = field.from_int(rng.choice([1, -1, 2]))
    if kind == "right counit law broken":
        row = B.delta[v]
        if rng.random() < 0.5:
            row = row + [(zero, rng.choice([w for w in basis if w != v]), c)]
        else:
            factor = field.from_int(rng.choice([0, 2, 3]))
            row = [(u, w, coeff * factor if u == zero else coeff) for u, w, coeff in row]
        return with_s_map(B, B.s_map, {**B.delta, v: row})
    if kind == "delta factor off the basis":
        w = tuple(x + a for x, a in zip(rng.choice(basis), P.a))
        term = rng.choice([(zero, w, c), (w, zero, c), (w, P.top, c), (P.top, w, c)])
        if P.top in term:
            v = P.top
        return with_s_map(B, B.s_map, {**B.delta, v: B.delta[v] + [term]})
    v = rng.choice(basis[1:-1])
    u = rng.choice([w for w in basis if w != v])
    return with_s_map(B, B.s_map, {**B.delta, v: B.delta[v] + [(u, zero, c)]})


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
    structure, with S^2, S^4 and h as payload arrays and alpha^{-1} = epsilon
    in the shape, give the verdict and detail of their bodies on tuple keys
    and Scalars, alpha^{-1} solved."""
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


# -- the checks that read delta and S against their tuple-keyed bodies -------------


VIEW_PERTURBATIONS = (
    "delta coefficient scaled or zeroed",
    "delta term dropped",
    "delta term added",
    "S coefficient zeroed",
    "S image moved off the basis",
    "two S images swapped",
    # the shape (verify._construction_shape) stores no row, so every middle
    # row is primitive and delta(1) = 1 (x) 1; and the premises
    # of the per-row certificate of the coalgebra anti-homomorphism and of
    # the generator certificate of the anti-homomorphism
    "middle row replaced by another primitive row",
    "row 0 coefficient scaled",
    "primitive row terms swapped",
    "S(1) scaled",
    "generator images swapped with non-generators",
    "primitive row stored explicitly",
    # the layout of delta(t) the shape gives: term 0 is t (x) 1 and term
    # last is 1 (x) t, the left factors run down the basis once, so m = 1,
    # and the right factors are the basis once
    "delta(t) edge term scaled",
    "delta(t) gains a term at 1 or t",
    "delta(t) gains a term at a repeated left factor",
    "delta(t) gains x_u (x) t",
    "delta(t) term split in three",
)

# Perturbations that leave the shape, or break a certificate's premise, but
# break no identity: every check still passes, now by evaluation.
HARMLESS_PERTURBATIONS = (
    "primitive row terms swapped",
    "primitive row stored explicitly",
    "delta(t) term split in three",
)


def view_perturbation(B, kind, rng):
    """B with one change of the kind named, its place drawn by rng.  An added
    delta term has both factors in the basis.  A term x_u (x) t of delta(t)
    with u != 0 makes m = g_top 1 + c x_u, which is not a constant; splitting
    a term c x_u (x) x_w of delta(t) into c, d and -d keeps delta(t)."""
    P = B.presentation
    field, basis = P.field, P.basis()
    zero, one, top = P.zero_vec, field.one, P.top
    v = rng.choice(basis)
    row = B.delta[v]
    j = rng.randrange(len(row))
    if kind.startswith("delta(t)"):
        row, c = B.delta[top], field.from_int(rng.choice([1, -1, 2]))
        if kind == "delta(t) edge term scaled":
            edge = rng.choice([(zero, top), (top, zero)])
            factor = field.from_int(rng.choice([0, 2, 3]))
            row = [(u, w, coeff * factor if (u, w) == edge else coeff) for u, w, coeff in row]
        elif kind == "delta(t) gains a term at 1 or t":
            w = rng.choice(basis)
            row = row + [(*rng.choice([(zero, w), (w, zero), (top, w)]), c)]
        elif kind == "delta(t) gains a term at a repeated left factor":
            u = rng.choice([u for u, _, _ in row if u not in (zero, top)])
            row = row + [(u, rng.choice(basis[1:-1]), c)]
        elif kind == "delta(t) gains x_u (x) t":
            row = row + [(rng.choice(basis[1:]), top, c)]
        else:
            j = rng.randrange(len(row))
            u, w, coeff = row[j]
            row = row[:j] + [(u, w, coeff), (u, w, c), (u, w, -c)] + row[j + 1:]
        return with_s_map(B, B.s_map, {**B.delta, top: row})
    if kind == "delta coefficient scaled or zeroed":
        u, w, c = row[j]
        term = (u, w, c * field.from_int(rng.choice([0, 2, 3])))
        return with_s_map(B, B.s_map, {**B.delta, v: row[:j] + [term] + row[j + 1:]})
    if kind == "delta term dropped":
        return with_s_map(B, B.s_map, {**B.delta, v: row[:j] + row[j + 1:]})
    if kind == "delta term added":
        term = (rng.choice(basis), rng.choice(basis), field.from_int(rng.choice([1, -1, 2])))
        return with_s_map(B, B.s_map, {**B.delta, v: row + [term]})
    if kind == "S coefficient zeroed":
        return with_s_map(B, {**B.s_map, v: (B.s_map[v][0], field.zero)})
    if kind == "S image moved off the basis":
        return moved_image(B, v, rng.choice((-P.a[0], P.a[0])))
    if kind == "middle row replaced by another primitive row":
        v = rng.choice(basis[1:-1])
        w = rng.choice([w for w in basis[1:] if w != v])
        return with_s_map(B, B.s_map, {**B.delta, v: [(zero, w, one), (w, zero, one)]})
    if kind == "row 0 coefficient scaled":
        c = field.from_int(rng.choice([-1, 2, 3]))
        return with_s_map(B, B.s_map, {**B.delta, zero: [(zero, zero, c)]})
    if kind == "primitive row terms swapped":
        v = rng.choice(basis[1:-1])
        return with_s_map(B, B.s_map, {**B.delta, v: B.delta[v][::-1]})
    if kind == "primitive row stored explicitly":
        # made directly, since from_tables stores no primitive row
        i = rng.choice([i for i in range(1, P.dim - 1) if i not in B.rows])
        rows = {**B.rows, i: [(0, i, one.value), (i, 0, one.value)]}
        return BfaStructure(P, B.witness, B.g, rows, B.s_img, B.s_coef)
    if kind == "S(1) scaled":
        return with_s_map(B, {**B.s_map, zero: (zero, field.from_int(rng.choice([-1, 2, 3])))})
    if kind == "generator images swapped with non-generators":
        units = [P.unit_vec(k) for k in range(1, P.n + 1)]
        pairs = zip(rng.sample(units, 2), rng.sample([w for w in basis if w not in units], 2))
        for g, w in pairs:
            B = swapped_images(B, g, w)
        return B
    return swapped_images(B, *rng.sample(basis, 2))


def delta_and_s_entries(B) -> dict:
    """The report entries of every check that reads delta or S, by name."""
    entries = {c.name: (c.passed, c.detail) for c in verify_axioms(B).checks}
    return {
        **{name: entries[name] for name in (*VIEW_CHECKS, "frobenius-copairing")},
        **derived_entries(B),
    }


def reference_delta_and_s_entries(B) -> dict:
    return {
        **reference_view_checks(B),
        "frobenius-copairing": reference_copairing(B),
        **reference_derived_checks(B),
    }


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([F2, F7, Q, C8]),
    st.sampled_from([2, 3]),
    st.sampled_from(VIEW_PERTURBATIONS),
    st.randoms(use_true_random=False),
)
def test_view_checks_match_reference(field, n, kind, rng):
    """The checks that read delta and S on index keys and payloads, with
    their certificates, give the verdict and detail of their bodies on
    tuple keys and Scalars, which expand every row and solve every rank."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    B = build_structure(P, report.witness)
    for S in (B, view_perturbation(B, kind, rng)):
        assert delta_and_s_entries(S) == reference_delta_and_s_entries(S), kind


def test_every_view_perturbation_reaches_the_checks():
    """On the reference structures each kind of perturbation but the
    harmless ones fails some of the five checks, and each check fails under
    some kind, so the comparison above has teeth; the harmless ones pass
    every check.  The other checks that read delta and S agree as well."""
    rng = random.Random(0)
    failed = {}
    for kind in VIEW_PERTURBATIONS:
        for B in REFERENCE_STRUCTURES:
            for _ in range(6):
                T = view_perturbation(B, kind, rng)
                expected = reference_delta_and_s_entries(T)
                assert delta_and_s_entries(T) == expected, kind
                for name in VIEW_CHECKS:
                    if not expected[name][0]:
                        failed.setdefault(kind, set()).add(name)
                if kind in HARMLESS_PERTURBATIONS:
                    assert all(passed for passed, _ in expected.values()), kind
    assert set(failed) == set(VIEW_PERTURBATIONS) - set(HARMLESS_PERTURBATIONS)
    assert set().union(*failed.values()) == set(VIEW_CHECKS)


# -- the shape of delta the construction writes -------------------------------------


def test_built_and_loaded_structures_have_the_shape(tmp_path):
    """A built GF(7) d256 structure, its format-1 and format-2 loads, and
    negate_socle_entry at every middle v have the construction's shape.  B
    with a stored delta(t) whose middle coefficient is doubled leaves it,
    since that row is no longer the one g spells; antipode-definition fails
    at that term's v, and the checks the shape decides pass by evaluation."""
    B = seeded_d256()
    format2, format1 = tmp_path / "format2.json", tmp_path / "format1.json"
    save_structure(B, str(format2))
    format1.write_text(json.dumps(format1_blob(B)))
    negated = [negate_socle_entry(B, v) for v in B.presentation.basis()[1:-1]]
    for T in (B, load_structure(str(format2)), load_structure(str(format1)), *negated):
        assert verify._construction_shape(T)
    P = B.presentation
    top = list(B.row(P.dim - 1))
    u, w, c = top[5]
    top[5] = (u, w, P.field._add(c, c))
    T = BfaStructure(P, B.witness, B.g, {**B.rows, P.dim - 1: top}, B.s_img, B.s_coef)
    assert not verify._construction_shape(T)
    entries = {c.name: (c.passed, c.detail) for c in verify_axioms(T).checks}
    assert entries["antipode-definition"][1]["v"] == list(P.basis()[5])
    for name in ("coassociativity", "counit-law", "frobenius-copairing"):
        assert entries[name] == (True, None)
    assert primitive_space_dim(T) == P.dim - 2


# The kinds of VIEW_PERTURBATIONS that change only coefficients of S.
S_COEFFICIENT_PERTURBATIONS = ("S coefficient zeroed", "S(1) scaled")


def test_delta_perturbations_leave_the_shape():
    """On the reference structures every kind of VIEW_PERTURBATIONS that
    changes delta leaves the shape, a middle coefficient of delta(t) scaled
    by a nonzero factor included, since the changed row is stored.  So does
    every kind that moves an S image: delta(t) keeps its right factors and
    is stored, as it no longer is the row B.row reads from the images.  A
    kind that changes only S coefficients keeps the shape."""
    rng = random.Random(0)
    for kind in VIEW_PERTURBATIONS:
        for B in REFERENCE_STRUCTURES:
            for _ in range(6):
                T = view_perturbation(B, kind, rng)
                in_shape = kind in S_COEFFICIENT_PERTURBATIONS
                assert verify._construction_shape(T) == in_shape, kind


def off_shape(B) -> dict:
    """B with one clause of the shape broken, by name: a stored delta(t)
    with its terms reversed or its terms 1 and 2 changed; or, with no row
    stored, g negated at 1 or t, a middle g zeroed, the image of 1 or t
    swapped with a middle one, or a middle image repeated, each of which
    changes the delta(t) that B.row reads."""
    P = B.presentation
    last, zero = P.dim - 1, P.field.zero.value
    top = B.row(last)
    (u1, w1, c1), (u2, w2, c2) = top[1], top[2]

    def with_top(row):
        return BfaStructure(P, B.witness, B.g, {**B.rows, last: row}, B.s_img, B.s_coef)

    def with_tables(**changes):
        """B with no row stored and entries of g or s_img changed, each
        table's changes given as {index: entry}."""
        tables = {"g": list(B.g), "s_img": list(B.s_img)}
        for name, entries in changes.items():
            for i, entry in entries.items():
                tables[name][i] = entry
        return BfaStructure(P, B.witness, tables["g"], {}, tables["s_img"], B.s_coef)

    images = B.s_img
    return {
        "terms reversed": with_top(top[::-1]),
        "middle left factors swapped": with_top([top[0], (u2, w1, c1), (u1, w2, c2), *top[3:]]),
        "middle right factor repeated": with_top([top[0], (u1, w2, c1), *top[2:]]),
        "middle coefficient zeroed": with_top([top[0], (u1, w1, zero), *top[2:]]),
        "negated at 1": negate_socle_entry(B, P.zero_vec),
        "negated at t": negate_socle_entry(B, P.top),
        "middle g zeroed": with_tables(g={1: zero}),
        "image of 1 swapped": with_tables(s_img={0: images[1], 1: images[0]}),
        "image of t swapped": with_tables(s_img={last: images[1], 1: images[last]}),
        "middle image repeated": with_tables(s_img={1: images[2]}),
    }


@pytest.mark.parametrize("B", REFERENCE_STRUCTURES, ids=lambda B: repr(B.presentation))
def test_structures_off_the_shape_are_evaluated(B):
    """Each of these leaves the shape, and every check that reads delta or
    S, and the primitive space, then agree with the reference.  Reversing
    delta(t) changes no identity, so every check still passes."""
    cases = off_shape(B)
    for name, T in cases.items():
        assert not verify._construction_shape(T), name
        assert delta_and_s_entries(T) == reference_delta_and_s_entries(T), name
        assert primitive_space_dim(T) == reference_primitive_space_dim(T), name
    reversed_t = cases["terms reversed"]
    assert verify_axioms(reversed_t).all_passed and verify_derived(reversed_t).all_passed


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F7, Q, C8]), st.sampled_from([2, 3]), st.randoms(use_true_random=False))
def test_coactions_match_reference(field, n, rng):
    """left_coaction and right_coaction, the Scalar edge of _hit, give the
    Scalar loops' f -> x and x <- f, on delta rows with one perturbation."""
    P, _ = rand_compatible_involutive_h(rng, field, n, a_hi=3)
    report = decide(P)
    assume(report.exists)
    B = build_structure(P, report.witness)
    B = view_perturbation(B, rng.choice(VIEW_PERTURBATIONS[:3]), rng)
    basis = P.basis()
    f, x = ({v: field.from_int(rng.choice([1, -1, 3])) for v in rng.sample(basis, 3)}
            for _ in range(2))
    assert left_coaction(B, f, x) == reference_coaction(B, f, x, left=True)
    assert right_coaction(B, x, f) == reference_coaction(B, f, x, left=False)


def test_pair_checks_evaluate_subquadratically_many_products(monkeypatch):
    """verify_axioms evaluates O(n^2) brackets, not dim^2 or dim.

    A passing structure is decided by the generator certificate of
    antipode-antihomomorphism, whose n dim pairs read their brackets from
    tables built from the 2 n^2 brackets of generators, and by one
    comparison per row of antipode-definition in the shape, whose table of
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
        P.bracket_value(P.complement(v), v) for v in P.basis()
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([F2, F7, Q, C8]),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_bracket_characters_match_bracket_value(field, n, rng):
    """The tables of the anti-homomorphism certificate: bracket(., e_k) and
    bracket(w, .) on the basis, built by verify._character from their values
    on the generators, are bracket_value, for w off the basis too."""
    P = rand_presentation(rng, field, n, a_hi=3)
    units = [P.unit_vec(k) for k in range(1, n + 1)]
    w = rand_vector(rng, n)
    for left, right in [(None, e) for e in units] + [(w, None)]:
        def bracket(v):
            return P.bracket_value(v if left is None else left, v if right is None else right)

        table = verify._character(field, [bracket(e) for e in units], P.a)
        assert table == [bracket(v) for v in P.basis()]


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
def seeded(a):
    """GF(7), exponents a, q_ij (i < j) drawn from 1..6 by Random(1) until
    decide says Yes."""
    rng = random.Random(1)
    n, one = len(a), F7.one
    while True:
        q = [[one] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = F7.from_int(rng.randint(1, 6))
                q[j][i] = q[i][j].inverse()
        P = Presentation(F7, a, q)
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


@pytest.mark.parametrize(
    "zero_delta, pairs, scalars",
    [(False, 7, 0), (True, 1280, 0)],
    ids=["built", "zero-delta"],
)
def test_hopf_flag_evaluates_few_pairs(monkeypatch, zero_delta, pairs, scalars):
    """At most (n + 1) dim pairs, each one _tensor_mul call; the built
    structure fails at its seventh pair, and the zero delta, which is
    multiplicative, evaluates every certificate pair.  The products run on
    payloads and build no Scalar; on Scalar elements they built 73 and 513."""
    B = seeded_d256()
    P = B.presentation
    if zero_delta:
        B = with_s_map(B, B.s_map, {v: [] for v in B.delta})
    calls = count_scalars(monkeypatch, B.presentation.field)
    calls["tensor_mul"] = 0
    original = verify._tensor_mul

    def counted(*args):
        calls["tensor_mul"] += 1
        return original(*args)

    monkeypatch.setattr(verify, "_tensor_mul", counted)
    assert is_hopf_comultiplication(B) is zero_delta
    assert calls == {"scalar": scalars, "tensor_mul": pairs}
    assert pairs <= (P.n + 1) * P.dim


# Payload sums (_add_value) of verify_axioms, verify_derived and
# primitive_space_dim on a built structure, per term of delta(t):
# antipode-coalgebra-antihomomorphism expands delta(t) on both sides (2), and
# a few more terms come from the rows of 1 and t: 2.03 per term at d256 and
# 2.00 at d4096.  Summing the column of t in primitive_space_dim as well made
# 3.11 and 3.01.  Expanding delta(t) in
# coassociativity (6), summing it in antipode-definition (1) and applying S
# twice per basis vector in nakayama-via-antipode (2) made 12.07 per term at
# d256, under the bound of 13 this replaces, with 288 brackets and 512
# applications of S; expanding every primitive row as well made 26.95.
SUMS_PER_TERM_OF_DELTA_T = 4


@pytest.mark.parametrize("a", [(4, 4, 4, 4), (16, 16, 16)], ids=["d256", "d4096"])
def test_built_structure_expands_only_the_rows_of_one_and_t(monkeypatch, a):
    """The shape of delta decides coassociativity, counit-law, the
    Frobenius copairing, the primitive space, the two S-power formulas and
    each row of antipode-definition by one comparison: with rref raising,
    verify_axioms, verify_derived and primitive_space_dim pass, the payload
    sums are bounded by a constant times the number of terms of delta(t),
    the brackets by 3 n^2 (the tables of the anti-homomorphism and the
    antipode definition), and S is applied to elements only for the rows of
    1 and t."""
    B = seeded(a)
    P = B.presentation

    def no_elimination(rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", no_elimination)
    monkeypatch.setattr(verify, "rref", no_elimination)
    calls = {"sums": 0, "brackets": 0, "apply": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(verify, "_add_value", counted("sums", verify._add_value))
    monkeypatch.setattr(verify, "_apply", counted("apply", verify._apply))
    monkeypatch.setattr(
        Presentation, "bracket_value", counted("brackets", Presentation.bracket_value)
    )
    assert verify_axioms(B).all_passed
    assert verify_derived(B).all_passed
    assert primitive_space_dim(B) == P.dim - 2
    assert calls["sums"] <= SUMS_PER_TERM_OF_DELTA_T * len(B.row(P.dim - 1))
    assert calls["brackets"] <= 3 * P.n ** 2
    assert calls["apply"] <= 2 * 2  # twice for each of the rows of 1 and t


def test_repeated_right_factor_fails_the_copairing_with_its_rank():
    """Two terms of delta(t) with one right factor leave a column of the
    copairing matrix empty: the structure leaves the shape, and the
    elimination names rank dim - 1, on seeded_d256 and, against the dense
    rank, on the reference structures."""
    for B in (seeded_d256(), *REFERENCE_STRUCTURES):
        P = B.presentation
        row = list(B.delta[P.top])
        (u, _, c), (_, w, _) = row[0], row[1]
        row[0] = (u, w, c)
        T = with_s_map(B, B.s_map, {**B.delta, P.top: row})
        entries = {c.name: (c.passed, c.detail) for c in verify_axioms(T).checks}
        assert entries["frobenius-copairing"] == (False, {"rank": P.dim - 1})
        if P.dim < 256:
            assert reference_copairing(T) == (False, {"rank": P.dim - 1})


# phi, t, m, m^-1 and alpha on seeded_d256: one Scalar for m, two for m^-1
SHARED_SCALARS = 3


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


def test_antipode_power_checks_build_few_scalars(monkeypatch):
    """The four checks that compose S read payload arrays of S^2, S^4 and h,
    composed once, and in the shape take m = 1 and alpha^{-1} = epsilon:
    they build no Scalar beyond the shared values.  Solving for alpha^{-1}
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
    """A passing verify_derived builds the Scalars of m and m^{-1} and no
    other: every check compares payloads on the index-keyed tables."""
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
    """m^-1 and the other units of seeded_d256 come from the nilpotent series,
    and alpha^{-1} = epsilon from the shape: with rref raising, the
    inverses still match the exact solve and the full verify_derived report
    passes."""
    B = seeded_d256()
    P = B.presentation
    modular = left_coaction(B, phi_of(B), t_elem(B))
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


# -- the rows a structure stores --------------------------------------------------


def test_built_and_loaded_structures_store_no_row(tmp_path):
    """A built d4096 structure, and the same structure loaded from a
    format-2 and from a format-1 file, store no row of delta; each reads
    the same row of t from its g and S images."""
    B = seeded((16, 16, 16))
    last = B.presentation.dim - 1
    format2, format1 = tmp_path / "format2.json", tmp_path / "format1.json"
    save_structure(B, str(format2))
    format1.write_text(json.dumps(format1_blob(B)))
    for T in (B, load_structure(str(format2)), load_structure(str(format1))):
        assert T.rows == {}
        assert T.row(last) == B.row(last)


def test_from_tables_stores_exactly_the_rows_that_differ_from_the_constructions():
    """from_tables keeps each row other than the one the construction
    writes (BfaStructure.row) as written, terms in that order, and stores
    nothing for the tables of a built structure; delta_table still lists
    delta(x_v) for every basis vector v."""
    rng = random.Random(0)
    for B in REFERENCE_STRUCTURES:
        P = B.presentation
        basis, zero, one = P.basis(), P.zero_vec, P.field.one
        table = delta_table(B)
        assert list(table) == basis
        assert all(table[v] == [(zero, v, one), (v, zero, one)] for v in basis[1:-1])
        assert with_s_map(B, B.s_map).rows == {}
        v, w = rng.sample(basis[1:-1], 2)
        delta = {**table, v: table[v][::-1], w: [(zero, w, one), (w, zero, one + one)]}
        T = with_s_map(B, B.s_map, delta)
        assert sorted(T.rows) == sorted({P.index(v), P.index(w)})
        assert delta_table(T) == delta
        delta = {**delta, zero: [(zero, zero, one + one)], P.top: table[P.top][::-1]}
        T = with_s_map(B, B.s_map, delta)
        assert sorted(T.rows) == sorted({0, P.index(v), P.index(w), P.dim - 1})
        assert delta_table(T) == delta


# -- memory gate on one seeded d4096 file -----------------------------------------


# A full verification of seeded((16, 16, 16)), loaded from its file, peaks at
# 2.07 MiB of traced allocations over a 0.22 MiB loaded structure (Python
# 3.11.7), which stores no row of delta and builds the row of t from g and
# the S images during the verification.  Storing the rows of 1 and t read
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
