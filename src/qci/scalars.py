"""Exact scalar arithmetic over the supported coefficient fields.

Three field kinds exist: the rationals, prime fields GF(p), and cyclotomic
fields Q(zeta_m).  Every element carries a canonical representation (Fraction,
least nonnegative residue, or the integer coefficient vector of its reduced
polynomial in zeta over one positive common denominator, gcd-normalised), so
equality is structural and nothing is ever rounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from .errors import (
    DivisionByZeroError,
    InvalidOrderError,
    NotInFieldError,
    NotPrimeError,
    ScalarSyntaxError,
)


# ---------------------------------------------------------------------------
# integer polynomials as coefficient lists, degree 0 first


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _prime_factors(m: int) -> list:
    """The distinct primes dividing m, in increasing order, by trial division
    by 2 and then by odd q only."""
    primes, q = [], 2
    while m > 1:
        if q * q > m:
            q = m
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q = 3 if q == 2 else q + 2
    return primes


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality test; moduli stay small here."""
    return p >= 2 and _prime_factors(p) == [p]


@cache
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of the m-th cyclotomic polynomial, degree 0 first.

    Phi_m is the product of (x^(m/e) - 1)^mu(e) over the squarefree divisors
    e of m.  In integers: multiply by the binomials with mu(e) = 1, then
    divide exactly by those with mu(e) = -1; every partial quotient is a
    polynomial because the full quotient is.
    """
    terms = [(m, 1)]  # (m/e, mu(e)) for each squarefree divisor e of m
    for q in _prime_factors(m):
        terms += [(d // q, -mu) for d, mu in terms]
    coeffs = [1]
    for d, mu in terms:
        if mu == 1:  # times x^d - 1
            out = [-c for c in coeffs] + [0] * d
            for i, c in enumerate(coeffs):
                out[i + d] += c
            coeffs = out
    for d, mu in terms:
        if mu == -1:  # exactly divided by x^d - 1, lowest coefficient first
            out = [0] * (len(coeffs) - d)
            for i in range(len(out)):
                out[i] = (out[i - d] if i >= d else 0) - coeffs[i]
            coeffs = out
    return tuple(Fraction(c) for c in coeffs)


# ---------------------------------------------------------------------------


class Scalar:
    """An element of one of the supported fields.

    Arithmetic is exact and closed in the owning field.  Integers coerce on
    either side of an arithmetic operator, but a scalar never equals an int:
    equality would have to identify from_int(8) with 1 over GF(7), and no
    hash could agree with that.  Scalars are immutable, so the cached
    constants Field.zero and Field.one are shared freely.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("scalars from different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        return Scalar(self.field, self.field._inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        return Scalar(self.field, self.field._pow(self.value, k))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        same = self.field is other.field or self.field == other.field
        return same and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return f"Scalar({self.field.describe()}, {self.field.format(self)!r})"


class Field:
    """Common interface of the three field kinds."""

    kind: str

    def characteristic(self) -> int:
        raise NotImplementedError

    def from_int(self, k: int) -> Scalar:
        raise NotImplementedError

    @cached_property
    def zero(self) -> Scalar:
        return self.from_int(0)

    @cached_property
    def one(self) -> Scalar:
        return self.from_int(1)

    def sqrt_minus_one(self):
        """A square root of -1 in this field, or None when absent."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        return _parse_scalar(self, text)

    def format(self, s: Scalar) -> str:
        raise NotImplementedError

    # payload-level arithmetic implemented per kind
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _pow(self, a, k: int):
        """a^k for a payload a (nonzero when k < 0), by square-and-multiply."""
        if k < 0:
            a, k = self._inv(a), -k
        result = self.one.value
        while k:
            if k & 1:
                result = self._mul(result, a)
            k >>= 1
            if k:
                a = self._mul(a, a)
        return result

    def _is_zero(self, a) -> bool:
        raise NotImplementedError


class RationalField(Field):
    """The field of rationals with Fraction payloads."""

    kind = "rational"

    def characteristic(self) -> int:
        return 0

    def from_int(self, k: int) -> Scalar:
        return Scalar(self, Fraction(k))

    def from_fraction(self, fr: Fraction) -> Scalar:
        return Scalar(self, Fraction(fr))

    def sqrt_minus_one(self):
        return None

    def describe(self) -> str:
        return "rational"

    def format(self, s: Scalar) -> str:
        return str(s.value)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _pow(self, a, k: int):
        return a ** k

    def _is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    """GF(p) with least nonnegative residue payloads."""

    kind = "prime"

    def __init__(self, p: int):
        if isinstance(p, int) and p > MAX_PRIME_MODULUS:
            raise NotPrimeError(f"modulus {p} exceeds the limit of {MAX_PRIME_MODULUS}")
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"modulus {p!r} is not prime")
        self.p = p

    def characteristic(self) -> int:
        return self.p

    def from_int(self, k: int) -> Scalar:
        return Scalar(self, k % self.p)

    def sqrt_minus_one(self):
        return self._sqrt_minus_one

    @cached_property
    def _sqrt_minus_one(self):
        """The smaller of the two roots s, p - s of -1, found once per field.

        For the least quadratic non-residue n (Euler's criterion), s =
        n^((p-1)/4) squares to n^((p-1)/2) = -1.
        """
        p = self.p
        if p == 2:
            return self.one
        if p % 4 != 1:
            return None
        n = 2
        while pow(n, (p - 1) // 2, p) != p - 1:
            n += 1
        s = pow(n, (p - 1) // 4, p)
        return Scalar(self, min(s, p - s))

    def describe(self) -> str:
        return f"prime:{self.p}"

    def format(self, s: Scalar) -> str:
        return str(s.value)

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, self.p - 2, self.p)

    def _pow(self, a, k: int):
        return pow(a, k, self.p)

    def _is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


# is_prime and multiplicative_order factor by trial division up to sqrt(p),
# so moduli are bounded before the primality test
MAX_PRIME_MODULUS = 2**31 - 1

# the reduction table of Q(zeta_m) holds up to about deg(Phi_m)^2 entries, so
# orders are bounded before Phi_m is computed
MAX_CYCLOTOMIC_ORDER = 1000


class CyclotomicField(Field):
    """Q(zeta_m): payloads are residues mod the m-th cyclotomic polynomial.

    A payload is a pair (num, den): num is a tuple of deg(Phi_m) integers, the
    numerators of the coefficients of 1, z, z^2, ... where z denotes zeta_m,
    and den > 0 is their common denominator with gcd(den, *num) = 1, so equal
    elements have equal payloads.  Phi_m is monic with integer coefficients:
    a product is an integer convolution folded back through a table of
    z^k mod Phi_m (deg <= k <= 2 deg - 2), and an inverse comes from an
    integer pseudo-remainder Euclid against Phi_m, so no step divides
    polynomials over Q.
    """

    kind = "cyclotomic"

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise InvalidOrderError(f"cyclotomic order {m!r} must be a positive integer")
        if m > MAX_CYCLOTOMIC_ORDER:
            raise InvalidOrderError(
                f"cyclotomic order {m} exceeds the limit of {MAX_CYCLOTOMIC_ORDER}"
            )
        self.m = m
        self.modulus = tuple(int(c) for c in cyclotomic_polynomial(m))
        self.degree = d = len(self.modulus) - 1
        self._tail = (0,) * (d - 1)
        # row k - d is z^k mod Phi_m as its nonzero (index, coefficient) pairs;
        # z^d = z^d - Phi_m, and each next row shifts by z and folds z^d back
        power = [-c for c in self.modulus[:-1]]
        rows = [power]
        for _ in range(d + 1, 2 * d - 1):
            lead = power[-1]
            power = [0] + power[:-1]
            if lead:
                for i, t in enumerate(rows[0]):
                    power[i] += lead * t
            rows.append(power)
        self._table = [tuple((i, t) for i, t in enumerate(row) if t) for row in rows]

    def characteristic(self) -> int:
        return 0

    def from_int(self, k: int) -> Scalar:
        return Scalar(self, ((k,) + self._tail, 1))

    def from_fraction(self, fr: Fraction) -> Scalar:
        fr = Fraction(fr)
        return Scalar(self, ((fr.numerator,) + self._tail, fr.denominator))

    @property
    def zeta(self) -> Scalar:
        """The distinguished primitive m-th root of unity."""
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> Scalar:
        """z^k for any integer k: shifts of at most deg - 1, each folded once."""
        k %= self.m
        d = self.degree
        start = min(k, d - 1)
        num = [0] * d
        num[start] = 1
        k -= start
        step = max(d - 1, 1)
        while k:
            s = min(k, step)
            num = self._fold([0] * s + num)
            k -= s
        return Scalar(self, (tuple(num), 1))

    def sqrt_minus_one(self):
        if self.m % 4 == 0:
            return self.zeta_power(self.m // 4)
        return None

    def describe(self) -> str:
        return f"cyclotomic:{self.m}"

    def format(self, s: Scalar) -> str:
        num, den = s.value
        parts = []
        for k in range(self.degree - 1, -1, -1):
            c = num[k]
            if c == 0:
                continue
            mag = Fraction(abs(c), den)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "z" if mag == 1 else f"{mag}*z"
            else:
                body = f"z^{k}" if mag == 1 else f"{mag}*z^{k}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts) if parts else "0"

    def _fold(self, coeffs: list) -> list:
        """Reduce integer coefficients of degree < 2 deg - 1 mod Phi_m."""
        d = self.degree
        for k in range(d, len(coeffs)):
            c = coeffs[k]
            if c:
                for i, t in self._table[k - d]:
                    coeffs[i] += c * t
        return coeffs[:d]

    @staticmethod
    def _normal(num: list, den: int) -> tuple:
        """The payload num/den (den > 0) with the common content divided out."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return tuple(num), den

    def _add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            return self._normal([x + y for x, y in zip(an, bn)], ad)
        return self._normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def _neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def _mul(self, a, b):
        an, ad = a
        bn, bd = b
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(an):
            if x:
                j = i
                for y in bn:
                    if y:
                        prod[j] += x * y
                    j += 1
        return self._normal(self._fold(prod), ad * bd)

    def _inv(self, a):
        """den * t / c, where num * t = c mod Phi_m for an integer constant c.

        Each pseudo-remainder step r0 <- lc(r1) r0 - lc(r0) z^s r1 keeps
        r0 = t0 num (mod Phi_m) when t0 takes the same step; dividing r0 and
        t0 by their joint content keeps the integers small.  Phi_m is
        irreducible and deg num < deg Phi_m, so the remainders end at a
        nonzero constant.
        """
        num, den = a
        r0, t0 = list(self.modulus), []
        r1, t1 = _trim(list(num)), [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                c, s = r0[-1], len(r0) - len(r1)
                r0 = [lead * x for x in r0]
                for i, y in enumerate(r1):
                    r0[s + i] -= c * y
                t0 = [lead * x for x in t0] + [0] * (s + len(t1) - len(t0))
                for i, y in enumerate(t1):
                    t0[s + i] -= c * y
                r0, t0 = _trim(r0), _trim(t0)
                g = gcd(*r0, *t0)
                if g != 1:
                    r0 = [x // g for x in r0]
                    t0 = [x // g for x in t0]
            r0, r1, t0, t1 = r1, r0, t1, t0
        c = r1[0]
        if c < 0:
            c, den = -c, -den
        out = [den * x for x in t1] + [0] * (self.degree - len(t1))
        return self._normal(out, c)

    def _is_zero(self, a) -> bool:
        return not any(a[0])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.m == self.m

    def __hash__(self):
        return hash(("cyclotomic", self.m))


def make_field(kind: str, param: int | None = None) -> Field:
    """Build a field from its descriptor, e.g. ('prime', 5)."""
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        if param is None:
            raise NotPrimeError("prime field needs a modulus")
        return PrimeField(param)
    if kind == "cyclotomic":
        if param is None:
            raise InvalidOrderError("cyclotomic field needs an order")
        return CyclotomicField(param)
    raise ScalarSyntaxError(f"unknown field kind {kind!r}")


def parse_field_descriptor(text: str) -> Field:
    """Parse CLI-style descriptors: rational, prime:<p>, cyclotomic:<m>."""
    name, sep, arg = text.partition(":")
    if name == "rational" and not sep:
        return RationalField()
    if name in ("prime", "cyclotomic") and sep:
        try:
            param = int(arg)
        except ValueError:
            raise ScalarSyntaxError(f"bad field parameter in {text!r}") from None
        return make_field(name, param)
    raise ScalarSyntaxError(f"bad field descriptor {text!r}")


# ---------------------------------------------------------------------------
# scalar literal grammar:
#   scalar := term (('+'|'-') term)*
#   term   := rat | rat '*' zpow | zpow
#   zpow   := 'z' ('^' int)?
#   rat    := int ('/' posint)?

_TOKEN = re.compile(r"\s*(?:(\d+)|([z*/^+-]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ScalarSyntaxError(f"unexpected character at position {pos} in {text!r}")
        if m.group(1) is not None:
            try:
                tokens.append(("int", int(m.group(1))))
            except ValueError:  # more digits than int() converts
                raise ScalarSyntaxError(
                    f"integer of {len(m.group(1))} digits at position {m.start(1)} exceeds "
                    f"the limit of {sys.get_int_max_str_digits()} digits"
                ) from None
        else:
            tokens.append((m.group(2), None))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, field: Field, tokens, text: str):
        self.field = field
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, why: str):
        raise ScalarSyntaxError(f"{why} in scalar literal {self.text!r}")

    def parse_int(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        if self.peek() != "int":
            self.fail("expected an integer")
        return sign * self.take()[1]

    def parse_rat(self) -> Fraction:
        num = self.parse_int()
        if self.peek() == "/":
            self.take()
            if self.peek() != "int":
                self.fail("expected a denominator")
            den = self.take()[1]
            if den == 0:
                raise DivisionByZeroError(f"zero denominator in {self.text!r}")
            return Fraction(num, den)
        return Fraction(num)

    def parse_zpow(self) -> Scalar:
        self.take()  # the z
        k = 1
        if self.peek() == "^":
            self.take()
            k = self.parse_int()
        if not isinstance(self.field, CyclotomicField):
            raise NotInFieldError(
                f"the root symbol z has no meaning in the {self.field.describe()} field"
            )
        return self.field.zeta_power(k)

    def parse_term(self, negate: bool) -> Scalar:
        if self.peek() == "z":
            out = self.parse_zpow()
        else:
            fr = self.parse_rat()
            if self.peek() == "*":
                self.take()
                if self.peek() != "z":
                    self.fail("expected z after *")
                out = self.parse_zpow() * self._embed(fr)
            else:
                out = self._embed(fr)
        return -out if negate else out

    def _embed(self, fr: Fraction) -> Scalar:
        if fr.denominator == 1:
            return self.field.from_int(fr.numerator)
        if self.field.characteristic() == 0:
            return self.field.from_fraction(fr)
        return self.field.from_int(fr.numerator) / self.field.from_int(fr.denominator)

    def parse_scalar(self) -> Scalar:
        negate = False
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                negate = not negate
        out = self.parse_term(negate)
        while self.peek() in ("+", "-"):
            negate = self.take()[0] == "-"
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    negate = not negate
            out = out + self.parse_term(negate)
        if self.pos != len(self.tokens):
            self.fail("trailing input")
        return out


def _parse_scalar(field: Field, text: str) -> Scalar:
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarSyntaxError("empty scalar literal")
    return _Parser(field, tokens, text).parse_scalar()


def multiplicative_order(s: Scalar):
    """Order of s in the unit group, or None when s is not a root of unity.

    The roots of unity form a cyclic group of order cap: 2 over Q, p - 1
    over GF(p), lcm(2, m) over Q(zeta_m).  The order of a root s is cap
    divided by each prime factor r of cap while s^(order/r) = 1.
    """
    if s.is_zero():
        return None
    field = s.field
    if isinstance(field, RationalField):
        cap = 2
    elif isinstance(field, PrimeField):
        cap = field.p - 1
    else:
        cap = lcm(2, field.m)
    if s ** cap != field.one:
        return None
    order = cap
    for r in _prime_factors(cap):
        while order % r == 0 and s ** (order // r) == field.one:
            order //= r
    return order
