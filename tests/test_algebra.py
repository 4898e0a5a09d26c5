"""Presentation validation, monomial arithmetic, and the two Nakayama maps."""

import itertools
import random

import pytest
from helpers import (
    add,
    apply_functional,
    dual_functional,
    field_pool,
    h_of,
    monomial,
    nakayama,
    one_elem,
    rand_presentation,
    reference_element_to_string,
    reference_functional_left_hit,
    reference_invert_element,
    reference_nakayama_wrt,
    reference_power,
    scale,
    unit_pool,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qci.algebra import (
    Presentation,
    dim_limit,
    monomial_name,
    parse_vector_key,
    q_grid,
    vector_key,
)
from qci.cli import run
from qci.demos import example_presentation
from qci.errors import (
    BadDiagonalError,
    BadDimLimitError,
    BadExponentError,
    BadReciprocalError,
    NotInvertibleError,
    TooLargeError,
)
from qci.linalg import add_term
from qci.scalars import Scalar, make_field

Q = make_field("rational")
F13 = make_field("prime", 13)


def two_gen(field, a1, a2, q12):
    q12 = field.parse(str(q12))
    one = field.one
    return Presentation(field, (a1, a2), [[one, q12], [q12.inverse(), one]])


class TestValidation:
    def test_accepts_valid(self):
        P = two_gen(Q, 2, 3, "2")
        assert P.dim == 6
        assert P.top == (1, 2)
        assert len(P.basis()) == 6

    def test_diagonal_must_be_one(self):
        two = Q.parse("2")
        with pytest.raises(BadDiagonalError):
            Presentation(Q, (2, 2), [[two, two], [two.inverse(), two]])

    def test_reciprocal_constraint(self):
        two = Q.parse("2")
        with pytest.raises(BadReciprocalError):
            Presentation(Q, (2, 2), [[Q.one, two], [two, Q.one]])
        with pytest.raises(BadReciprocalError):
            Presentation(Q, (2, 2), [[Q.one, Q.zero], [Q.zero, Q.one]])

    def test_exponent_bounds(self):
        with pytest.raises(BadExponentError):
            two_gen(Q, 1, 3, "2")
        with pytest.raises(BadExponentError):
            Presentation(Q, (4,), [[Q.one]])

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.delenv("QCI_DIM_LIMIT", raising=False)
        assert dim_limit() == 4096
        with pytest.raises(TooLargeError):
            two_gen(Q, 65, 64, "1")
        monkeypatch.setenv("QCI_DIM_LIMIT", "8000")
        assert dim_limit() == 8000
        P = two_gen(Q, 65, 64, "1")
        assert P.dim == 4160

    @pytest.mark.parametrize("raw", ["abc", "-1", "0", "", "4096.5"])
    def test_bad_dimension_cap_is_an_error(self, monkeypatch, raw):
        monkeypatch.setenv("QCI_DIM_LIMIT", raw)
        with pytest.raises(BadDimLimitError) as info:
            dim_limit()
        assert "QCI_DIM_LIMIT" in str(info.value)
        assert repr(raw) in str(info.value)
        with pytest.raises(BadDimLimitError):
            two_gen(Q, 2, 2, "1")

    def test_shape_mismatch(self):
        with pytest.raises(BadReciprocalError):
            Presentation(Q, (2, 2), [[Q.one, Q.one]])


def grid_by_init(field, a):
    """The q-grid of `qci enumerate`, each row validated by Presentation().

    The unit of the last pair i < j varies slowest and that of the first
    fastest, each over 1, ..., p - 1."""
    n = len(a)
    units = [field.from_int(k) for k in range(1, field.p)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for slowest_first in itertools.product(units, repeat=len(pairs)):
        q = [[field.one] * n for _ in range(n)]
        for (i, j), u in zip(reversed(pairs), slowest_first):
            q[i][j], q[j][i] = u, u.inverse()
        yield Presentation(field, a, q)


class TestGrid:
    @pytest.mark.parametrize("p, a", [(5, (2, 2)), (7, (2, 2, 3)), (5, (3, 2, 4))])
    def test_rows_equal_validated_presentations(self, p, a):
        field = make_field("prime", p)
        rows = list(q_grid(field, a))
        expected = list(grid_by_init(field, a))
        assert len(rows) == (p - 1) ** (len(a) * (len(a) - 1) // 2)
        assert rows == expected
        # q_grid sets each row's h payloads from its power table; a fresh
        # presentation computes them with field._pow
        assert [P._h_values for P in rows] == [P.h_values() for P in expected]
        # every attribute, q's Scalars and the other, empty caches included
        assert [vars(P) for P in rows] == [vars(P) for P in expected]

    def test_rows_are_table_lookups(self, monkeypatch):
        """Each row of q, its payloads and h_{e_i} come from a table of
        n (p - 1)^(n - 1) entries built once per grid: setting up the 1 728
        rows of GF(13), (3, 3, 3) takes at most two products per entry, 864
        in all; computing h row by row, three products a row, took 5 199
        with the validation."""
        field_type = type(F13)
        calls = []
        original = field_type._mul

        def counted(self, x, y):
            calls.append(1)
            return original(self, x, y)

        monkeypatch.setattr(field_type, "_mul", counted)
        n, p = 3, F13.p
        rows = list(q_grid(F13, (3, 3, 3)))
        assert len(rows) == (p - 1) ** 3
        assert 0 < len(calls) <= 2 * n * (p - 1) ** (n - 1) == 864

    def test_shape_is_validated(self):
        F5 = make_field("prime", 5)
        with pytest.raises(BadExponentError):
            next(q_grid(F5, (2,)))
        with pytest.raises(BadExponentError):
            next(q_grid(F5, (2, 1)))
        with pytest.raises(BadExponentError):
            next(q_grid(F5, (2, 2.5)))
        with pytest.raises(ValueError):
            next(q_grid(Q, (2, 2)))

    def test_enumerate_reads_the_cap_once(self, monkeypatch, capsys):
        import qci.algebra

        calls = []
        original = qci.algebra.dim_limit

        def counted():
            calls.append(1)
            return original()

        monkeypatch.setattr(qci.algebra, "dim_limit", counted)
        assert run(["enumerate", "--field", "prime:5", "--n", "3", "--a", "2,2,2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4**3
        assert calls == [1]

    @pytest.mark.parametrize(
        "limit, a, message",
        [
            (None, "100,100", "error: dimension 10000 exceeds the cap 4096\n"),
            ("3", "2,2", "error: dimension 4 exceeds the cap 3\n"),
        ],
    )
    def test_enumerate_over_the_cap(self, monkeypatch, capsys, limit, a, message):
        if limit is None:
            monkeypatch.delenv("QCI_DIM_LIMIT", raising=False)
        else:
            monkeypatch.setenv("QCI_DIM_LIMIT", limit)
        assert run(["enumerate", "--field", "prime:5", "--n", "2", "--a", a]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        # the header goes out before the first row is set up, as it always has
        header = "q12,h1,h2,n_squared_is_id,n_involutions,decision,witness_pi,regime"
        assert captured.out.splitlines() == [header]


class TestArithmetic:
    def test_bracket_and_mul(self):
        P = two_gen(Q, 2, 3, "2")
        x1, x2 = monomial(P, (1, 0)), monomial(P, (0, 1))
        # x2 x1 = q12 x1 x2
        assert P.mul(x2, x1) == {(1, 1): Q.parse("2")}
        assert P.mul(x1, x2) == {(1, 1): Q.one}
        assert P.bracket((0, 2), (1, 0)) == Q.parse("4")

    def test_truncation(self):
        P = two_gen(Q, 2, 3, "2")
        assert P.mul(monomial(P, (1, 0)), monomial(P, (1, 0))) == {}
        assert P.mul(monomial(P, (0, 2)), monomial(P, (0, 1))) == {}

    def test_associativity_small(self):
        P = two_gen(F13, 3, 3, "6")
        basis = P.basis()
        for u in basis:
            for v in basis:
                for w in basis:
                    left = P.mul(P.mul(monomial(P, u), monomial(P, v)), monomial(P, w))
                    right = P.mul(monomial(P, u), P.mul(monomial(P, v), monomial(P, w)))
                    assert left == right

    def test_power_and_add(self):
        P = two_gen(Q, 2, 3, "2")
        s = add(one_elem(P), scale(P, -Q.one, one_elem(P)))
        assert s == {}

    def test_invert_element(self):
        P = two_gen(Q, 2, 3, "2")
        one_plus = add(one_elem(P), monomial(P, (0, 1)))
        inv = P.invert_element(one_plus)
        assert P.mul(one_plus, inv) == one_elem(P)
        assert P.mul(inv, one_plus) == one_elem(P)
        assert inv == {
            (0, 0): Q.one,
            (0, 1): -Q.one,
            (0, 2): Q.one,
        }
        with pytest.raises(NotInvertibleError):
            P.invert_element(monomial(P, (1, 0)))
        with pytest.raises(NotInvertibleError):
            P.invert_element({})


def inverse_or_raise(invert, *args):
    """invert(*args), or NotInvertibleError when it raises that."""
    try:
        return invert(*args)
    except NotInvertibleError:
        return NotInvertibleError


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(field_pool()),
    st.integers(min_value=2, max_value=4),
    st.randoms(use_true_random=False),
)
def test_quadratic_table_matches_direct_products(field, n, rng):
    """Entry v is prod_i lin_i^{v_i} prod_{i<j} quad_ij^{v_i v_j}; the unit
    pools hold 1, so the repeating path runs too."""
    P = rand_presentation(rng, field, n, a_hi=3)
    pool = unit_pool(field)
    lin = [rng.choice(pool) for _ in range(n)]
    quad = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    table = P.quadratic_table([x.value for x in lin], [[x.value for x in row] for row in quad])
    assert len(table) == P.dim
    for v, got in zip(P.basis(), table):
        want = field.one
        for i in range(n):
            want = want * reference_power(lin[i], v[i])
            for j in range(i + 1, n):
                want = want * reference_power(quad[i][j], v[i] * v[j])
        assert Scalar(field, got) == want


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [make_field("prime", 2), make_field("prime", 7), Q, make_field("cyclotomic", 8)]
    ),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_series_inverse_matches_solve(field, n, constant, rng):
    """The nilpotent series and the exact solve agree on every element, in
    value or in raising NotInvertibleError; x has a constant term exactly
    when it is a unit."""
    P = rand_presentation(rng, field, n, a_hi=3)
    pool = unit_pool(field)
    x: dict = {}
    for v in rng.sample(P.basis(), rng.randint(1, min(P.dim, 6))):
        for _ in range(rng.randint(1, 2)):
            add_term(x, v, rng.choice(pool))
    if constant:
        x[P.zero_vec] = rng.choice(pool)
    else:
        x.pop(P.zero_vec, None)
    inv = inverse_or_raise(P.invert_element, x)
    assert inv == inverse_or_raise(reference_invert_element, P, x)
    assert (inv is NotInvertibleError) is (P.zero_vec not in x)
    if inv is not NotInvertibleError:
        assert P.mul(x, inv) == one_elem(P) == P.mul(inv, x)


@pytest.mark.parametrize("v", [(3, 0), (0, 4), (-1, 1)], ids=["x1^3", "x2^4", "x1^-1*x2"])
def test_series_inverse_rejects_keys_off_the_basis(v):
    """A key off the basis makes x no element of A, even with a unit
    constant term."""
    P = two_gen(Q, 3, 4, "2")
    with pytest.raises(NotInvertibleError):
        P.invert_element(add(one_elem(P), monomial(P, v)))


class TestDistinguishedScalars:
    def test_h_values_twisted_example(self):
        field = make_field("cyclotomic", 8)
        P = example_presentation("6.10", field)
        hs = P.h_generators()
        assert hs[0] == field.one
        assert hs[1] == -field.one
        assert hs[2] == -field.one
        assert not P.is_symmetric()
        assert P.nakayama_is_involution()

    def test_symmetric_example(self):
        P = example_presentation("6.9", make_field("cyclotomic", 8))
        assert P.is_symmetric()

    def test_h_of_is_multiplicative_on_basis(self):
        P = two_gen(F13, 2, 3, "5")
        h1, h2 = P.h_generators()
        assert h1 == F13.from_int(12)
        assert h2 == F13.from_int(8)
        assert h_of(P, (1, 1)) == F13.from_int(5)
        assert not P.nakayama_is_involution()


class TestNakayama:
    def test_solved_map_scales_by_inverse_h(self):
        # a presentation with h^2 != 1 separates the two conventions:
        # the automorphism solved from phi(xy) = phi(y N(x)) with the socle
        # functional scales x_v by h_v^{-1}, the closed form scales by h_v.
        P = two_gen(F13, 2, 3, "5")
        phi = dual_functional(P, P.top)
        images = reference_nakayama_wrt(P, phi)
        for v in P.basis():
            h = h_of(P, v)
            assert images[P.index(v)] == {v: h.inverse()}
            assert nakayama(P, monomial(P, v)) == {v: h}
        assert images[P.index((0, 1))] == {(0, 1): F13.from_int(5)}
        assert nakayama(P, monomial(P, (0, 1))) == {(0, 1): F13.from_int(8)}

    def test_conventions_agree_when_h_involutive(self):
        P = example_presentation("6.10", make_field("cyclotomic", 8))
        images = reference_nakayama_wrt(P, dual_functional(P, P.top))
        for v in P.basis():
            assert images[P.index(v)] == nakayama(P, monomial(P, v))

    def test_defining_identity(self):
        P = two_gen(F13, 2, 3, "5")
        phi = dual_functional(P, P.top)
        images = reference_nakayama_wrt(P, phi)
        for u in P.basis():
            for v in P.basis():
                lhs = apply_functional(P, phi, P.mul(monomial(P, u), monomial(P, v)))
                rhs = apply_functional(P, 
                    phi, P.mul(monomial(P, v), images[P.index(u)])
                )
                assert lhs == rhs


class TestFunctionals:
    def test_left_and_right_hits(self):
        P = two_gen(Q, 2, 3, "2")
        phi = dual_functional(P, P.top)
        x1 = monomial(P, (1, 0))
        assert reference_functional_left_hit(P, x1, phi) == {(0, 2): Q.parse("4")}

    def test_pairing_matrix_socle(self):
        from qci.linalg import is_generalized_permutation

        P = two_gen(Q, 2, 3, "2")
        mat = P.pairing_matrix(dual_functional(P, P.top))
        assert is_generalized_permutation(Q, mat)

    def test_pairing_against_products(self):
        from qci.linalg import rank

        P = two_gen(Q, 3, 3, "2")
        # A functional with several support monomials, one of them (0, 0).
        phi = {(0, 0): Q.parse("3"), (1, 2): Q.parse("-1/2"), (2, 2): Q.one}
        mat = P.pairing_matrix(phi)
        for i, u in enumerate(P.basis()):
            for j, v in enumerate(P.basis()):
                prod = P.mul(monomial(P, u), monomial(P, v))
                assert mat[i][j] == apply_functional(P, phi, prod)
        # phi picks only the unit's coefficient: the pairing has rank 1.
        unit_only = P.pairing_matrix(dual_functional(P, P.zero_vec))
        assert rank(Q, unit_only) == 1 < P.dim


class TestNames:
    def test_monomial_name(self):
        assert monomial_name((0, 0, 0)) == "1"
        assert monomial_name((1, 0, 2)) == "x1*x3^2"

    def test_monomial_name_off_the_basis(self):
        assert monomial_name((3, 0, 0)) == "x1^3"
        assert monomial_name((-1, 1, -2)) == "x1^-1*x2*x3^-2"

    def test_vector_key_round_trip(self):
        assert vector_key((1, 0, 2)) == "1,0,2"
        assert parse_vector_key("1,0,2", 3) == (1, 0, 2)
        with pytest.raises(ValueError):
            parse_vector_key("1,0", 3)
        with pytest.raises(ValueError):
            parse_vector_key("1,a,2", 3)

    def test_element_to_string(self):
        P = two_gen(Q, 2, 3, "2")
        assert P.element_to_string({}) == "0"
        x = add(one_elem(P), monomial(P, (1, 1), Q.parse("-2")))
        assert P.element_to_string(x) == "(1) + (-2)*x1*x2"

    def test_element_to_string_off_the_basis(self):
        P = two_gen(Q, 2, 3, "2")
        x = {(2, 0): Q.parse("3"), (0, 0): Q.one, (-1, 2): Q.parse("-1")}
        assert P.element_to_string(x) == "(-1)*x1^-1*x2^2 + (1) + (3)*x1^2"

    def test_element_to_string_matches_basis_walk(self):
        rng = random.Random(14)
        for trial in range(300):
            P = rand_presentation(rng, rng.choice(field_pool()), a_hi=3)
            pool = unit_pool(P.field)
            support = rng.sample(P.basis(), rng.randint(0, min(6, P.dim)))
            x = {v: rng.choice(pool) for v in support}  # insertion order is random
            assert P.element_to_string(x) == reference_element_to_string(P, x), trial
