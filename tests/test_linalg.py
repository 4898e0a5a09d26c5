"""Exact linear algebra over the scalar fields."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add,
    dense_eliminate,
    dense_kernel_basis,
    dense_rank,
    dense_solve_matrix,
    monomial,
)
from qci.algebra import Presentation
from qci.errors import SingularMatrixError
from qci.linalg import (
    add_term,
    invert,
    is_generalized_permutation,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)
from qci.scalars import make_field

Q = make_field("rational")
F7 = make_field("prime", 7)
C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)


def mat(field, rows):
    return [[field.parse(str(x)) for x in row] for row in rows]


def test_rank_known():
    assert rank(Q, mat(Q, [[1, 2], [2, 4]])) == 1
    assert rank(Q, mat(Q, [[1, 2], [3, 4]])) == 2
    assert rank(Q, mat(Q, [[0, 0], [0, 0]])) == 0
    assert rank(F7, mat(F7, [[1, 3, 2], [2, 6, 4], [1, 0, 0]])) == 2


def test_kernel_known():
    ker = kernel_basis(Q, mat(Q, [[1, 2], [2, 4]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + Q.parse("2") * v[1] == Q.zero
    assert not all(x.is_zero() for x in v)
    assert kernel_basis(Q, mat(Q, [[1, 0], [0, 1]])) == []


def test_kernel_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[F7.from_int(rng.randint(0, 6)) for _ in range(m)] for _ in range(n)]
        r = rank(F7, rows)
        ker = kernel_basis(F7, rows)
        assert r + len(ker) == m
        for v in ker:
            for row in rows:
                acc = F7.zero
                for x, y in zip(row, v):
                    acc = acc + x * y
                assert acc.is_zero()


def test_solve_and_invert():
    a = mat(Q, [[2, 1], [1, 1]])
    b = mat(Q, [[1, 0], [0, 1]])
    x = solve_matrix(Q, a, b)
    assert x == mat(Q, [[1, -1], [-1, 2]])
    assert invert(Q, a) == x
    with pytest.raises(SingularMatrixError):
        solve_matrix(Q, mat(Q, [[1, 2], [2, 4]]), b)


def test_solve_cyclotomic():
    i = C4.zeta
    a = [[C4.one, i], [i, C4.one]]
    x = solve_matrix(C4, a, [[C4.one], [C4.zero]])
    # verify by substitution
    assert a[0][0] * x[0][0] + a[0][1] * x[1][0] == C4.one
    assert a[1][0] * x[0][0] + a[1][1] * x[1][0] == C4.zero


def test_generalized_permutation():
    assert is_generalized_permutation(Q, mat(Q, [[0, 2], [-3, 0]]))
    assert is_generalized_permutation(Q, mat(Q, [[1, 0], [0, 5]]))
    assert not is_generalized_permutation(Q, mat(Q, [[1, 1], [0, 1]]))
    assert not is_generalized_permutation(Q, mat(Q, [[0, 1], [0, 1]]))
    assert not is_generalized_permutation(Q, mat(Q, [[0, 0], [1, 0]]))


# -- the sparse kernel against the dense reference elimination ---------------

FIELDS = {"GF(7)": F7, "Q": Q, "Q(zeta_4)": C4}


@st.composite
def matrices(draw, square=False):
    """(field, matrix): empty, all-zero, wide, tall or rank-deficient, mostly sparse."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows = draw(st.integers(1 if square else 0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    if field is C4:
        nonzero = st.sampled_from([C4.one, -C4.one, C4.zeta, -C4.zeta, C4.parse("1+z"),
                                   C4.parse("2-3*z"), C4.parse("1/2")])
    elif field is Q:
        nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool).map(
            lambda x: Q.parse(str(x)))
    else:
        nonzero = st.integers(1, 6).map(F7.from_int)
    entry = st.one_of(st.just(field.zero), st.just(field.zero), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):
        # a dependent row: a combination of two drawn rows
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        x, y = draw(nonzero), draw(nonzero)
        rows[draw(st.integers(0, nrows - 1))] = [x * a + y * b for a, b in zip(rows[i], rows[j])]
    return field, rows


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_dense_reference(drawn):
    field, rows = drawn
    assert rank(field, rows) == dense_rank(rows)
    assert kernel_basis(field, rows) == dense_kernel_basis(field, rows)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True), st.integers(1, 3), st.data())
def test_solve_matches_dense_reference(drawn, width, data):
    field, a = drawn
    n = len(a)
    b = [[field.from_int(data.draw(st.integers(-3, 3))) for _ in range(width)] for _ in range(n)]
    expected = dense_solve_matrix(a, b)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            solve_matrix(field, a, b)
    else:
        assert solve_matrix(field, a, b) == expected


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_does_not_depend_on_row_order(drawn, rnd):
    field, rows = drawn
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]
    shuffled = list(sparse)
    rnd.shuffle(shuffled)
    assert rref(shuffled) == rref(sparse)
    assert sparse == [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]


CHAIN_FIELDS = {"GF(7)": F7, "Q": Q, "Q(zeta_8)": C8}


def chain_nonzero(field):
    if field is C8:
        return st.sampled_from([C8.one, -C8.one, C8.zeta, C8.zeta_power(3),
                                C8.parse("1+z"), C8.parse("2-z^2"), C8.parse("1/2")])
    if field is Q:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool).map(
            lambda x: Q.parse(str(x)))
    return st.integers(1, 6).map(F7.from_int)


@st.composite
def chained_systems(draw):
    """(field, rows): an upper triangular or bidiagonal block, with extra
    columns, rows made rank-deficient or appended (tall), under a random
    row and column permutation.

    Each pivot row of the block holds the next pivot column, so the reduced
    form comes only from back-substitution along the whole chain.
    """
    field = CHAIN_FIELDS[draw(st.sampled_from(sorted(CHAIN_FIELDS)))]
    nonzero = chain_nonzero(field)
    entry = st.one_of(st.just(field.zero), nonzero)
    m = draw(st.integers(1, 7))
    extra = draw(st.integers(0, 2))
    bidiagonal = draw(st.booleans())
    rows = []
    for i in range(m):
        row = [field.zero] * (m + extra)
        row[i] = draw(nonzero)
        for j in range(i + 1, m):
            if j == i + 1:
                row[j] = draw(nonzero)
            elif not bidiagonal:
                row[j] = draw(entry)
        for j in range(m, m + extra):
            row[j] = draw(entry)
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        # a rank-deficient block: a row replaced by a combination of two others
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        x, y = draw(nonzero), draw(nonzero)
        rows[k] = [x * a + y * b for a, b in zip(rows[i], rows[j])]
    for _ in range(draw(st.integers(0, 2))):
        # a tall system: an appended combination of two rows
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        x, y = draw(nonzero), draw(nonzero)
        rows.append([x * a + y * b for a, b in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(m + extra)))
    rows = [[row[c] for c in order] for row in draw(st.permutations(rows))]
    return field, rows


@settings(max_examples=150, deadline=None)
@given(chained_systems())
def test_rref_back_substitutes_chains_like_dense_reference(drawn):
    field, rows = drawn
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]
    work = [list(row) for row in rows]
    pivots = dense_eliminate(work)
    reduced = rref(sparse)
    assert sorted(reduced) == pivots
    for r, pc in enumerate(pivots):
        assert reduced[pc] == {j: x for j, x in enumerate(work[r]) if not x.is_zero()}
    assert sparse == [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]


def named_shapes(field):
    z, o, t = field.zero, field.one, field.from_int(2)
    return {
        "empty": [],
        "no-columns": [[], []],
        "all-zero": [[z, z, z], [z, z, z]],
        "wide": [[o, z, t, z, o], [z, z, o, t, z]],
        "tall": [[o, t], [z, o], [t, z], [z, z], [o, o]],
        "rank-deficient": [[o, t, z], [t, t * t, z], [z, o, o]],
        "monomial": [[z, t, z], [z, z, -o], [o, z, z]],
    }


@pytest.mark.parametrize("shape", sorted(named_shapes(Q)))
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_named_shapes_match_dense_reference(name, shape):
    field = FIELDS[name]
    rows = named_shapes(field)[shape]
    assert rank(field, rows) == dense_rank(rows)
    assert kernel_basis(field, rows) == dense_kernel_basis(field, rows)
    if rows and len(rows) == len(rows[0]):
        b = [[field.one] for _ in rows]
        expected = dense_solve_matrix(rows, b)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                solve_matrix(field, rows, b)
        else:
            assert solve_matrix(field, rows, b) == expected


# -- the sparse accumulator ----------------------------------------------------

SUMMAND_FIELDS = {"GF(7)": F7, "Q": Q, "Q(zeta_8)": C8}


def summands(field):
    """Scalars of the field, zero included."""
    if field is F7:
        return st.integers(0, 6).map(F7.from_int)
    if field is Q:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
            lambda x: Q.parse(str(x)))
    coeffs = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
    return coeffs.map(lambda cs: sum(
        (C8.from_int(c) * C8.zeta_power(k) for k, c in enumerate(cs)), C8.zero))


@st.composite
def term_sequences(draw):
    """(field, [(key, scalar)]) where some terms exactly cancel earlier ones."""
    field = SUMMAND_FIELDS[draw(st.sampled_from(sorted(SUMMAND_FIELDS)))]
    terms = draw(st.lists(st.tuples(st.integers(0, 4), summands(field)), max_size=12))
    if terms:
        for i in draw(st.lists(st.integers(0, len(terms) - 1), max_size=len(terms))):
            key, x = terms[i]
            terms.append((key, -x))
    return field, draw(st.permutations(terms))


@settings(max_examples=200, deadline=None)
@given(term_sequences())
def test_add_term_is_the_dense_sum_without_zeros(drawn):
    field, terms = drawn
    out: dict = {}
    dense = [field.zero] * 5
    for key, x in terms:
        add_term(out, key, x)
        dense[key] = dense[key] + x
        assert not any(c.is_zero() for c in out.values())
    assert out == {key: c for key, c in enumerate(dense) if not c.is_zero()}


@pytest.mark.parametrize("name", sorted(SUMMAND_FIELDS))
def test_mul_drops_products_that_cancel(name):
    """(x1 + x2)(x2 - q^-1 x1) = x2^2 in x2 x1 = q x1 x2 with x1^2 = 0."""
    field = SUMMAND_FIELDS[name]
    q12 = C8.zeta if field is C8 else field.from_int(2)
    one = field.one
    P = Presentation(field, (2, 3), [[one, q12], [q12.inverse(), one]])
    x = add(monomial(P, (1, 0)), monomial(P, (0, 1)))
    y = add(monomial(P, (0, 1)), monomial(P, (1, 0), -q12.inverse()))
    assert P.mul(x, y) == {(0, 2): one}
