"""Finite-dimensional algebras on n skew-commuting nilpotent generators.

A presentation consists of a coefficient field, exponents a_1..a_n (with
a_i >= 2) and a matrix q with q_ii = 1 and q_ij q_ji = 1.  The algebra has
generators x_1..x_n subject to x_i^{a_i} = 0 and x_j x_i = q_ij x_i x_j, and
the monomials x_v = x_1^{v_1} ... x_n^{v_n} with 0 <= v_i <= a_i - 1 form a
basis.  Elements are sparse dicts mapping exponent tuples to scalars; zero
coefficients are never stored.
"""

from __future__ import annotations

import itertools
import operator
import os

from .errors import (
    BadDiagonalError,
    BadDimLimitError,
    BadExponentError,
    BadReciprocalError,
    NotInvertibleError,
    TooLargeError,
)
from .linalg import add_term
from .scalars import Field, Scalar

DEFAULT_DIM_LIMIT = 4096


def dim_limit() -> int:
    """Dimension cap; override with the QCI_DIM_LIMIT environment variable.

    The variable is read on every call.  A value that is not an integer, or
    is below 1, raises BadDimLimitError.
    """
    raw = os.environ.get("QCI_DIM_LIMIT")
    if raw is None:
        return DEFAULT_DIM_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise BadDimLimitError(f"QCI_DIM_LIMIT={raw!r} is not an integer") from None
    if limit < 1:
        raise BadDimLimitError(f"QCI_DIM_LIMIT={raw!r} must be at least 1")
    return limit


def _validate(field: Field, a: tuple, q: tuple) -> tuple:
    """Check a presentation's exponents, q and dimension; return the payload
    matrix of q.  Reads the cap through dim_limit()."""
    n = len(a)
    if n < 2:
        raise BadExponentError(f"need at least 2 generators, got {n}")
    if any(ai < 2 for ai in a):
        raise BadExponentError(f"every exponent must be >= 2, got {a}")
    if len(q) != n or any(len(row) != n for row in q):
        raise BadReciprocalError(f"q must be a {n}x{n} matrix")
    is_zero, mul, one = field._is_zero, field._mul, field.one.value
    values = []
    for i, row in enumerate(q):
        row_values = []
        for j, entry in enumerate(row):
            if not isinstance(entry, Scalar) or (
                entry.field is not field and entry.field != field
            ):
                raise BadReciprocalError(f"q[{i+1}][{j+1}] is not a field scalar")
            if is_zero(entry.value):
                raise BadReciprocalError(f"q[{i+1}][{j+1}] is zero")
            row_values.append(entry.value)
        if row_values[i] != one:
            raise BadDiagonalError(f"q[{i+1}][{i+1}] must be 1")
        values.append(tuple(row_values))
    for i in range(n):
        for j in range(i + 1, n):
            if mul(values[i][j], values[j][i]) != one:
                raise BadReciprocalError(f"q[{i+1}][{j+1}] * q[{j+1}][{i+1}] must be 1")
    dim = 1
    for ai in a:
        dim *= ai
    limit = dim_limit()
    if dim > limit:
        raise TooLargeError(f"dimension {dim} exceeds the cap {limit}")
    return tuple(values)


class Presentation:
    """Validated presentation data plus exact structure-constant arithmetic.

    After validation, q_values holds q as a read-only matrix of field
    payloads.  Payloads are canonical per field kind, so == on them is
    scalar equality; brackets, h values and the compatibility tests work on
    payloads and build one Scalar per result.
    """

    def __init__(self, field: Field, a, q):
        a = tuple(a)
        try:
            a = tuple(map(operator.index, a))
        except TypeError:
            raise BadExponentError(f"every exponent must be an integer, got {a!r}") from None
        q = tuple(tuple(row) for row in q)
        self._setup(field, a, q, _validate(field, a, q))

    def _setup(self, field: Field, a: tuple, q: tuple, q_values: tuple) -> None:
        """Set every attribute: a is a tuple of ints, q a tuple of row tuples
        of Scalars and q_values its payload matrix, all already validated."""
        self.field = field
        self.a = a
        self.n = len(a)
        self.top = tuple(ai - 1 for ai in a)  # exponents of the socle monomial
        self.q = q
        self.q_values = q_values
        self._basis = None
        self._index = None
        self._h_values = None
        self._h_gen = None
        self._powers = {}  # (i, j, e) -> payload of q_ij ** e, filled by bracket

    # -- basis bookkeeping ---------------------------------------------------

    @property
    def dim(self) -> int:
        d = 1
        for ai in self.a:
            d *= ai
        return d

    @property
    def zero_vec(self) -> tuple:
        return (0,) * self.n

    def basis(self) -> list:
        """All exponent vectors in lexicographic order."""
        if self._basis is None:
            self._basis = list(itertools.product(*[range(ai) for ai in self.a]))
        return self._basis

    def positions(self) -> dict:
        """Each basis vector mapped to its index in basis(), built once."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.basis())}
        return self._index

    def index(self, v) -> int:
        return self.positions()[tuple(v)]

    def in_basis(self, v) -> bool:
        return min(v) >= 0 and all(map(operator.lt, v, self.a))

    def unit_vec(self, i: int) -> tuple:
        """Exponent vector of the generator x_i (1-based i)."""
        return tuple(1 if k == i - 1 else 0 for k in range(self.n))

    # -- structure constants ---------------------------------------------------

    def bracket(self, u, v) -> Scalar:
        """The scalar prod_{i<j} q_ij^{u_j v_i} on arbitrary integer vectors:
        bracket_value(u, v) as a Scalar."""
        return Scalar(self.field, self.bracket_value(u, v))

    def bracket_value(self, u, v):
        """The payload of bracket(u, v), field.one.value for the empty product.

        The payload of each power q_ij^e is cached; terms with v_i = 0 are
        skipped.
        """
        field = self.field
        powers = self._powers
        n = self.n
        out = None
        for i in range(n - 1):
            vi = v[i]
            if vi:
                for j in range(i + 1, n):
                    e = u[j] * vi
                    if e:
                        power = powers.get((i, j, e))
                        if power is None:
                            power = powers[(i, j, e)] = field._pow(self.q_values[i][j], e)
                        out = power if out is None else field._mul(out, power)
        return field.one.value if out is None else out

    def quadratic_table(self, lin, quad) -> list:
        """prod_i lin_i^{v_i} prod_{i<j} quad_ij^{v_i v_j} as payloads, for v
        over the basis in basis order; lin holds n payloads and quad an n x n
        matrix of payloads, read above the diagonal.

        Coordinate k extends the table over the first k coordinates: the entry
        x at a prefix u is followed by x r, x r^2, ..., x r^{a_k - 1}, where
        r = lin_k prod_{i<k} quad_ik^{u_i} is a character of u, tabulated in
        the same order.  Each entry of a table costs at most one _mul, and
        since every a_i >= 2 the tables of r for all k are together no longer
        than the result; a factor of 1 repeats entries instead.
        """
        mul, one = self.field._mul, self.field.one.value

        def powers(x, c, ak):
            """x c^e for e = 0, ..., ak - 1."""
            if c == one:
                return itertools.repeat(x, ak)
            return itertools.accumulate(itertools.repeat(c, ak - 1), mul, initial=x)

        out = [one]
        for k, ak in enumerate(self.a):
            ratio = [lin[k]]
            for i in range(k):
                c, ai = quad[i][k], self.a[i]
                ratio = [y for x in ratio for y in powers(x, c, ai)]
            out = [y for x, r in zip(out, ratio) for y in powers(x, r, ak)]
        return out

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for u, cu in x.items():
            for v, cv in y.items():
                w = tuple(ui + vi for ui, vi in zip(u, v))
                if self.in_basis(w):
                    add_term(out, w, cu * cv * self.bracket(u, v))
        return out

    def invert_element(self, x: dict) -> dict:
        """Two-sided inverse of x = c (1 + n), as c^{-1} sum_k (-n)^k.

        Here c is the coefficient of 1 and n = x / c - 1 has no constant
        term.  Every term of n is a basis monomial of degree at least 1, so
        a product of |top| + 1 of them has degree above |top| = sum (a_i - 1)
        and leaves the basis: n^{|top|+1} = 0.  The sum therefore stops by
        itself, and (1 + n) sum_k (-n)^k = 1 - (-n)^{|top|+1} = 1 on both
        sides, since the powers of n commute with n.  A is local: an x with
        no constant term is nilpotent in the same way, so it is no unit.
        Neither is an x with a key off the basis, which is no element of A.
        """
        zero = self.zero_vec
        c = x.get(zero)
        if c is None or not all(map(self.in_basis, x)):
            raise NotInvertibleError("element is not invertible")
        c_inv = c.inverse()
        minus = -c_inv
        step = {v: cv * minus for v, cv in x.items() if v != zero}  # -n
        out, term = {zero: c_inv}, {zero: c_inv}
        while term:
            term = self.mul(term, step)
            for v, cv in term.items():
                add_term(out, v, cv)
        return out

    # -- the distinguished automorphism data ------------------------------------

    def h_values(self) -> tuple:
        """The payloads of h_{e_i} = prod_j q_ij^{a_j - 1} (q_ii = 1 is skipped)."""
        if self._h_values is None:
            mul, power, q = self.field._mul, self.field._pow, self.q_values
            columns = [
                {q[i][j]: power(q[i][j], e) for i in range(self.n) if i != j}
                for j, e in enumerate(self.top)
            ]
            self._h_values = tuple(_h_payload(mul, i, row, columns) for i, row in enumerate(q))
        return self._h_values

    def h_generators(self) -> list:
        """The values h_{e_i} = prod_j q_ij^{a_j - 1}."""
        if self._h_gen is None:
            self._h_gen = [Scalar(self.field, h) for h in self.h_values()]
        return self._h_gen

    def is_symmetric(self) -> bool:
        one = self.field.one.value
        return all(h == one for h in self.h_values())

    def nakayama_is_involution(self) -> bool:
        mul, one = self.field._mul, self.field.one.value
        return all(mul(h, h) == one for h in self.h_values())

    # -- functionals -------------------------------------------------------------

    def pairing_matrix(self, phi: dict) -> list:
        """Matrix (u, v) |-> phi(x_u x_v) over the basis ordering (dense rows).

        Only the v with u + v in the support of phi can pair nonzero, so the
        scalar work is O(|phi| dim) rather than dim^2.
        """
        zero, dim = self.field.zero, self.dim
        support = [(w, fw) for w, fw in phi.items() if self.in_basis(w) and not fw.is_zero()]
        rows = []
        for u in self.basis():
            row = [zero] * dim
            for w, fw in support:
                v = tuple(map(operator.sub, w, u))
                if self.in_basis(v):
                    row[self.index(v)] = fw * self.bracket(u, v)
            rows.append(row)
        return rows

    def element_to_string(self, x: dict) -> str:
        """Terms in lexicographic order of their vectors, which is basis order.

        Vectors off the basis print too, so a detail can name such a term.
        """
        if not x:
            return "0"
        parts = []
        for v in sorted(x):
            mono = monomial_name(v)
            parts.append(f"({x[v]})*{mono}" if mono != "1" else f"({x[v]})")
        return " + ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and other.field == self.field
            and other.a == self.a
            and other.q_values == self.q_values
        )

    def __hash__(self):
        return hash((self.field, self.a, self.q_values))

    def __repr__(self):
        return f"Presentation(n={self.n}, a={self.a}, field={self.field.describe()})"


def _h_payload(mul, i: int, row: tuple, columns: list):
    """h_{e_i} = prod_{j != i} q_ij^{a_j - 1} as a payload, read from row i
    of q_values, the factors taken in increasing j; columns[j] maps each
    payload q_ij, i != j, to its power q_ij^{a_j - 1}."""
    acc = None
    for j, x in enumerate(row):
        if j != i:
            power = columns[j][x]
            acc = power if acc is None else mul(acc, power)
    return acc


def q_grid(field: Field, a):
    """Every presentation of exponents a over the prime field `field` with
    units above the diagonal, in the row order of `qci enumerate`.

    The pairs i < j are taken in lexicographic order and each q_ij runs over
    the units 1, ..., p - 1 in increasing order, the first pair fastest;
    q_ji = q_ij^{-1} and q_ii = 1.  The grid is validated once, not once per
    row: the shape by one Presentation of a with q = 1, which reads the cap
    once, and each unit u once, that it is nonzero and that u u^{-1} = 1.

    Each row is set up from tables built once per grid.  Row i of q, its
    row of payloads and h_{e_i} depend only on the units of the n - 1 pairs
    that touch generator i, so table i holds the triple (row of Scalars, row
    of payloads, h_{e_i}) for each choice of those units: n (p - 1)^(n - 1)
    entries in all.  A grid row is then n lookups, by the unit indices of
    its pairs.

    Certificate that _validate passes on every row: the row has the
    validated a (n >= 2, each a_i >= 2, dim within the cap read for the
    grid); q is n x n by construction, and entry (i, j) of table i is
    field.one on the diagonal, the checked unit u of pair (i, j) for i < j
    and its checked inverse u^{-1} for i > j, all Scalars of `field`.  These
    are nonzero, the diagonal is one, and since tables i and j read the same
    unit of pair (i, j), q_ij q_ji = u u^{-1} = 1.  q_values holds the
    payloads of exactly these entries, as _validate would return them.

    Certificate that the h payloads equal h_values() of the row: h_{e_i}
    multiplies q_ij^(a_j - 1) over j != i, and every such q_ij is a unit u
    or its inverse u^{-1} of the grid, so its power is an entry of the power
    table, the one field._pow returns; _h_payload multiplies the same
    factors in the same order for both, on row i of q_values, which is the
    payload row stored beside it.
    """
    if field.kind != "prime":
        raise ValueError(f"q_grid needs a prime field, got {field.describe()}")
    a = tuple(a)
    one = field.one
    shape = Presentation(field, a, [[one] * len(a) for _ in a])
    is_zero, mul, one_value = field._is_zero, field._mul, one.value
    units = []
    for k in range(1, field.p):
        u = field.from_int(k)
        if is_zero(u.value):
            raise BadReciprocalError(f"grid unit {u} is zero")
        u_inv = u.inverse()
        if mul(u.value, u_inv.value) != one_value:
            raise BadReciprocalError(f"grid unit {u} times its inverse must be 1")
        units.append(((u, u.value), (u_inv, u_inv.value)))
    table = {
        e: {x: field._pow(x, e) for pair in units for _, x in pair} for e in set(shape.top)
    }
    columns = [table[e] for e in shape.top]
    n = shape.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # the unit of pair k sits at index len(pairs) - 1 - k of a product tuple
    slot = {pair: len(pairs) - 1 - k for k, pair in enumerate(pairs)}
    lookups = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rows = {}
        for choice in itertools.product(range(len(units)), repeat=n - 1):
            q_row, values = [one] * n, [one_value] * n
            for j, k in zip(others, choice):
                q_row[j], values[j] = units[k][j < i]
            values = tuple(values)
            # itemgetter of one index returns the index itself, not a 1-tuple
            key = choice if n > 2 else choice[0]
            rows[key] = (tuple(q_row), values, _h_payload(mul, i, values, columns))
        get = operator.itemgetter(*(slot[min(i, j), max(i, j)] for j in others))
        lookups.append((rows, get))
    for choice in itertools.product(range(len(units)), repeat=len(pairs)):
        q, values, h = zip(*[rows[get(choice)] for rows, get in lookups])
        P = Presentation.__new__(Presentation)
        P._setup(field, shape.a, q, values)
        P._h_values = h
        yield P


def monomial_name(v) -> str:
    """Readable name like x1*x3^2 for an exponent vector (x1^-1 off the basis)."""
    parts = []
    for i, e in enumerate(v, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e != 0:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def vector_key(v) -> str:
    """Comma-joined form of an exponent vector, used in file formats."""
    return ",".join(str(x) for x in v)


def basis_keys(a) -> list:
    """vector_key of every basis vector of exponents a, in basis order; each
    key is one join over digit strings spelled once per coordinate."""
    digits = (tuple(map(str, range(ai))) for ai in a)
    return [",".join(t) for t in itertools.product(*digits)]


def parse_vector_key(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated entries in {text!r}")
    return tuple(int(p) for p in parts)
