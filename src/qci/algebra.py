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


class Presentation:
    """Validated presentation data plus exact structure-constant arithmetic.

    After validation, q_values holds q as a read-only matrix of field
    payloads.  Payloads are canonical per field kind, so == on them is
    scalar equality; brackets, h values and the compatibility tests work on
    payloads and build one Scalar per result.
    """

    def __init__(self, field: Field, a, q):
        self.field = field
        a = tuple(a)
        try:
            self.a = tuple(map(operator.index, a))
        except TypeError:
            raise BadExponentError(f"every exponent must be an integer, got {a!r}") from None
        self.n = len(self.a)
        self.top = tuple(ai - 1 for ai in self.a)  # exponents of the socle monomial
        self.q = tuple(tuple(row) for row in q)
        self.q_values = self._validate()
        self._basis = None
        self._index = None
        self._h_values = None
        self._h_gen = None
        self._powers = {}  # (i, j, e) -> payload of q_ij ** e, filled by bracket
        self._h_powers = {}  # (i, e) -> payload of h_{e_i} ** e, filled by h_of

    def _validate(self) -> tuple:
        """Check the presentation; return the payload matrix of q."""
        if self.n < 2:
            raise BadExponentError(f"need at least 2 generators, got {self.n}")
        if any(ai < 2 for ai in self.a):
            raise BadExponentError(f"every exponent must be >= 2, got {self.a}")
        if len(self.q) != self.n or any(len(row) != self.n for row in self.q):
            raise BadReciprocalError(f"q must be a {self.n}x{self.n} matrix")
        field = self.field
        is_zero, mul, one = field._is_zero, field._mul, field.one.value
        values = []
        for i, row in enumerate(self.q):
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
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if mul(values[i][j], values[j][i]) != one:
                    raise BadReciprocalError(
                        f"q[{i+1}][{j+1}] * q[{j+1}][{i+1}] must be 1"
                    )
        dim = 1
        for ai in self.a:
            dim *= ai
        limit = dim_limit()
        if dim > limit:
            raise TooLargeError(f"dimension {dim} exceeds the cap {limit}")
        return tuple(values)

    # -- basis bookkeeping ---------------------------------------------------

    @property
    def dim(self) -> int:
        d = 1
        for ai in self.a:
            d *= ai
        return d

    def complement(self, v) -> tuple:
        """The exponent vector a - 1 - v, whose monomial pairs x_v onto the socle."""
        return tuple(map(operator.sub, self.top, v))

    @property
    def zero_vec(self) -> tuple:
        return (0,) * self.n

    def basis(self) -> list:
        """All exponent vectors in lexicographic order."""
        if self._basis is None:
            self._basis = list(itertools.product(*[range(ai) for ai in self.a]))
        return self._basis

    def index(self, v) -> int:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.basis())}
        return self._index[tuple(v)]

    def in_basis(self, v) -> bool:
        return min(v) >= 0 and all(map(operator.lt, v, self.a))

    def unit_vec(self, i: int) -> tuple:
        """Exponent vector of the generator x_i (1-based i)."""
        return tuple(1 if k == i - 1 else 0 for k in range(self.n))

    # -- structure constants ---------------------------------------------------

    def bracket(self, u, v) -> Scalar:
        """The scalar prod_{i<j} q_ij^{u_j v_i} on arbitrary integer vectors.

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
        return field.one if out is None else Scalar(field, out)

    def mul_basis(self, u, v):
        """Product of two basis monomials: (w, coeff) or (None, 0)."""
        w = tuple(map(operator.add, u, v))
        if not self.in_basis(w):
            return None, self.field.zero
        return w, self.bracket(u, v)

    def monomial(self, v, coeff=None) -> dict:
        coeff = self.field.one if coeff is None else coeff
        if coeff.is_zero():
            return {}
        return {tuple(v): coeff}

    @property
    def one_elem(self) -> dict:
        return {self.zero_vec: self.field.one}

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for u, cu in x.items():
            for v, cv in y.items():
                w = tuple(ui + vi for ui, vi in zip(u, v))
                if self.in_basis(w):
                    add_term(out, w, cu * cv * self.bracket(u, v))
        return out

    def scale(self, c: Scalar, x: dict) -> dict:
        if c.is_zero():
            return {}
        return {v: c * cv for v, cv in x.items()}

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

    def h_of(self, v) -> Scalar:
        """h_v = bracket(a-1-v, v) / bracket(v, a-1-v) on any integer vector v.

        Computed as prod_i h_{e_i}^{v_i}: with q_ii = 1 and q_ji = q_ij^{-1}
        the v_i v_j factors of the two brackets cancel.
        """
        field = self.field
        hs = self.h_values()
        powers = self._h_powers
        out = None
        for i, e in enumerate(v):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = powers[(i, e)] = field._pow(hs[i], e)
                out = power if out is None else field._mul(out, power)
        return field.one if out is None else Scalar(field, out)

    def h_values(self) -> tuple:
        """The payloads of h_{e_i} = prod_j q_ij^{a_j - 1} (q_ii = 1 is skipped)."""
        if self._h_values is None:
            field = self.field
            exps = self.top
            out = []
            for i, row in enumerate(self.q_values):
                acc = None
                for j, x in enumerate(row):
                    if j != i:
                        power = field._pow(x, exps[j])
                        acc = power if acc is None else field._mul(acc, power)
                out.append(acc)
            self._h_values = tuple(out)
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

    def nakayama(self, x: dict) -> dict:
        """The closed-form automorphism scaling each x_v by h_v."""
        return {v: self.h_of(v) * c for v, c in x.items()}

    # -- functionals -------------------------------------------------------------

    def dual_functional(self, v) -> dict:
        """The linear functional picking out the coefficient of x_v."""
        return {tuple(v): self.field.one}

    def apply_functional(self, f: dict, x: dict) -> Scalar:
        out = self.field.zero
        for v, c in x.items():
            fv = f.get(v)
            if fv is not None:
                out = out + fv * c
        return out

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


def parse_vector_key(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated entries in {text!r}")
    return tuple(int(p) for p in parts)
