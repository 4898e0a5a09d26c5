"""Field arithmetic, parsing, and root-of-unity bookkeeping."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qci.scalars
from helpers import (
    cyclo_coefficients,
    reference_cyclo_inverse,
    reference_cyclo_mul,
    reference_cyclotomic_polynomial,
    reference_multiplicative_order,
    reference_power,
    reference_sqrt_minus_one,
)
from qci.errors import (
    DivisionByZeroError,
    InvalidOrderError,
    NotInFieldError,
    NotPrimeError,
    ScalarSyntaxError,
)
from qci.scalars import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_PRIME_MODULUS,
    CyclotomicField,
    PrimeField,
    RationalField,
    Scalar,
    cyclotomic_polynomial,
    is_prime,
    make_field,
    multiplicative_order,
    parse_field_descriptor,
)

Q = make_field("rational")
F2 = make_field("prime", 2)
F5 = make_field("prime", 5)
F7 = make_field("prime", 7)
F13 = make_field("prime", 13)
C3 = make_field("cyclotomic", 3)
C4 = make_field("cyclotomic", 4)
C8 = make_field("cyclotomic", 8)


def frac(*args):
    return Fraction(*args)


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        # coefficient tuples are constant-first
        assert cyclotomic_polynomial(1) == (frac(-1), frac(1))
        assert cyclotomic_polynomial(2) == (frac(1), frac(1))
        assert cyclotomic_polynomial(3) == (frac(1), frac(1), frac(1))
        assert cyclotomic_polynomial(4) == (frac(1), frac(0), frac(1))
        assert cyclotomic_polynomial(6) == (frac(1), frac(-1), frac(1))
        assert cyclotomic_polynomial(8) == (frac(1), frac(0), frac(0), frac(0), frac(1))
        assert cyclotomic_polynomial(12) == (
            frac(1),
            frac(0),
            frac(-1),
            frac(0),
            frac(1),
        )

    def test_degree_is_euler_phi(self):
        phis = {5: 4, 7: 6, 9: 6, 10: 4, 15: 8}
        for m, d in phis.items():
            assert len(cyclotomic_polynomial(m)) == d + 1

    def test_matches_fraction_division(self):
        for m in range(1, 151):
            assert cyclotomic_polynomial(m) == reference_cyclotomic_polynomial(m)

    @pytest.mark.parametrize("m", [720, 1000, 2310])
    def test_product_over_divisors_is_x_to_the_m_minus_one(self, m):
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                assert all(c.denominator == 1 for c in phi)
                out = [0] * (len(product) + len(phi) - 1)
                for i, c in enumerate(product):
                    if c:
                        for j, t in enumerate(phi):
                            if t:
                                out[i + j] += c * t.numerator
                product = out
        assert product == [-1] + [0] * (m - 1) + [1]


class TestFieldConstruction:
    def test_kinds(self):
        assert isinstance(Q, RationalField)
        assert isinstance(F5, PrimeField)
        assert isinstance(C8, CyclotomicField)
        assert Q.characteristic() == 0
        assert F5.characteristic() == 5
        assert C8.characteristic() == 0

    def test_prime_validation(self):
        with pytest.raises(NotPrimeError):
            make_field("prime", 6)
        with pytest.raises(NotPrimeError):
            make_field("prime", 1)

    # (10^9 + 7)(10^9 + 9), whose trial division ran for seconds, and the bound + 1
    @pytest.mark.parametrize("p", [1000000016000000063, MAX_PRIME_MODULUS + 1])
    def test_prime_modulus_bound(self, monkeypatch, p):
        # the bound is checked before the modulus is tested by trial division
        def unreachable(p):
            raise AssertionError(f"modulus {p} was tested")

        monkeypatch.setattr(qci.scalars, "is_prime", unreachable)
        message = f"modulus {p} exceeds the limit of {MAX_PRIME_MODULUS}"
        with pytest.raises(NotPrimeError, match=message):
            make_field("prime", p)

    def test_largest_prime_modulus(self):
        assert make_field("prime", MAX_PRIME_MODULUS).describe() == f"prime:{MAX_PRIME_MODULUS}"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**5 - 1))
    def test_prime_factors_match_naive_trial_division(self, m):
        # _prime_factors skips even q after 2; naive division tries every q
        naive = [q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))]
        assert qci.scalars._prime_factors(m) == naive
        assert is_prime(m) == (naive == [m])

    @pytest.mark.parametrize("m", [10**30, MAX_CYCLOTOMIC_ORDER + 1])
    def test_cyclotomic_order_bound(self, monkeypatch, m):
        # the bound is checked before Phi_m is computed
        def unreachable(m):
            raise AssertionError(f"order {m} was factored")

        monkeypatch.setattr(qci.scalars, "cyclotomic_polynomial", unreachable)
        monkeypatch.setattr(qci.scalars, "_prime_factors", unreachable)
        message = f"cyclotomic order {m} exceeds the limit of {MAX_CYCLOTOMIC_ORDER}"
        with pytest.raises(InvalidOrderError, match=message):
            make_field("cyclotomic", m)

    def test_descriptor_round_trip(self):
        for text in ("rational", "prime:13", "cyclotomic:8"):
            assert parse_field_descriptor(text).describe() == text
        with pytest.raises(ScalarSyntaxError):
            parse_field_descriptor("prime")
        with pytest.raises(ScalarSyntaxError):
            parse_field_descriptor("galois:5")

    def test_equality(self):
        assert F5 == make_field("prime", 5)
        assert F5 != F7
        assert C8 == make_field("cyclotomic", 8)
        assert C8 != C4


class TestArithmetic:
    def test_rational_basics(self):
        assert Q.parse("1/2") + Q.parse("1/3") == Q.parse("5/6")
        assert Q.parse("3") ** -2 == Q.parse("1/9")
        assert (-Q.one) * (-Q.one) == Q.one
        assert Q.format(Q.parse("-1/2")) == "-1/2"

    def test_prime_inverse(self):
        assert F5.from_int(2).inverse() == F5.from_int(3)
        assert F13.from_int(2).inverse() == F13.from_int(7)
        with pytest.raises(DivisionByZeroError):
            F5.zero.inverse()

    def test_zeta_reduction(self):
        # zeta_8^4 = -1, so zeta^7 = -zeta^3 and zeta^9 = zeta
        assert C8.zeta_power(7) == -C8.zeta_power(3)
        assert C8.parse("z^9") == C8.zeta
        assert C8.zeta_power(idx := 4) == -C8.one and idx == 4

    def test_cyclotomic_nonmonomial_inverse(self):
        u = C8.one + C8.zeta
        assert u * u.inverse() == C8.one

    def test_c3_basis_reduction(self):
        # 1 + z + z^2 = 0 in Q(zeta_3)
        assert C3.zeta_power(2) == -(C3.one + C3.zeta)

    def test_mixed_fields_rejected(self):
        with pytest.raises(TypeError):
            Q.one + F5.one


class TestParsing:
    def test_cyclotomic_terms(self):
        assert C8.format(C8.parse("2*z^3 - 1/2")) == "2*z^3 - 1/2"
        assert C8.format(C8.parse("-z^3+1")) == "-z^3 + 1"
        assert C8.parse("3*z^2") == C8.from_int(3) * C8.zeta_power(2)
        with pytest.raises(ScalarSyntaxError):
            C8.parse("z^2*z")

    def test_errors(self):
        with pytest.raises(ScalarSyntaxError):
            Q.parse("")
        with pytest.raises(NotInFieldError):
            Q.parse("z")
        with pytest.raises(ScalarSyntaxError):
            Q.parse("1/")
        with pytest.raises(DivisionByZeroError):
            Q.parse("1/0")

    def test_integer_past_the_digit_limit(self):
        """An integer int() refuses to convert is a ScalarSyntaxError that
        names its length and place, not a bare ValueError."""
        limit = sys.get_int_max_str_digits()
        for field, text, at in ((F7, "9" * 5000, 0), (Q, "1/ " + "9" * 5000, 3),
                                (C8, "z - " + "9" * 5000 + "*z", 4)):
            with pytest.raises(ScalarSyntaxError) as exc:
                field.parse(text)
            assert str(exc.value) == (
                f"integer of 5000 digits at position {at} exceeds the limit of {limit} digits"
            )
        assert F7.parse("9" * limit) == F7.from_int(int("9" * limit) % 7)

    def test_format_parse_round_trip(self):
        samples = {
            Q: ["0", "1", "-1", "2/7", "-13"],
            F13: ["0", "1", "12", "7"],
            C8: ["0", "1", "-z", "z^3 - z + 2", "-2*z^2 + 1/3"],
        }
        for field, texts in samples.items():
            for text in texts:
                s = field.parse(text)
                assert field.parse(field.format(s)) == s


class TestSqrtMinusOne:
    def test_known_values(self):
        assert Q.sqrt_minus_one() is None
        assert F2.sqrt_minus_one() == F2.one
        assert F5.sqrt_minus_one() == F5.from_int(2)
        assert F13.sqrt_minus_one() == F13.from_int(5)
        assert F7.sqrt_minus_one() is None
        assert C3.sqrt_minus_one() is None
        assert C4.sqrt_minus_one() == C4.zeta
        assert C8.sqrt_minus_one() == C8.zeta_power(2)

    def test_square_is_minus_one(self):
        for field in (F2, F5, F13, C4, C8):
            s = field.sqrt_minus_one()
            assert s * s == -field.one

    def test_prime_fields_match_linear_scan(self):
        for p in filter(is_prime, range(2, 2000)):
            field = PrimeField(p)
            root = field.sqrt_minus_one()
            assert root == reference_sqrt_minus_one(field)
            assert (root is None) == (p % 4 == 3)

    def test_large_prime_once_per_field(self):
        field = make_field("prime", 100_000_037)
        assert field.sqrt_minus_one() == field.from_int(44_612_474)
        assert field.sqrt_minus_one() is field.sqrt_minus_one()


class TestMultiplicativeOrder:
    def test_known_orders(self):
        assert multiplicative_order(Q.one) == 1
        assert multiplicative_order(-Q.one) == 2
        assert multiplicative_order(Q.parse("2")) is None
        assert multiplicative_order(Q.zero) is None
        assert multiplicative_order(F5.from_int(2)) == 4
        assert multiplicative_order(F5.from_int(4)) == 2
        assert multiplicative_order(F13.from_int(5)) == 4
        assert multiplicative_order(C8.zeta) == 8
        assert multiplicative_order(C8.zeta_power(2)) == 4
        assert multiplicative_order(C8.one + C8.zeta) is None
        assert multiplicative_order(-C3.zeta) == 6

    def test_prime_fields_match_linear_scan(self):
        for p in filter(is_prime, range(2, 200)):
            field = PrimeField(p)
            for k in range(p):
                x = field.from_int(k)
                assert multiplicative_order(x) == reference_multiplicative_order(x)

    def test_cyclotomic_and_rational_match_linear_scan(self):
        for m in (1, 2, 3, 4, 5, 8, 9, 12, 15):
            field = make_field("cyclotomic", m)
            for k in range(2 * m):
                z = field.zeta_power(k)
                for x in (z, -z, z + field.one, field.zero):
                    assert multiplicative_order(x) == reference_multiplicative_order(x)
        for text in ("0", "1", "-1", "2", "-1/2"):
            x = Q.parse(text)
            assert multiplicative_order(x) == reference_multiplicative_order(x)

    def test_large_order_is_logarithmic(self):
        # the linear scan takes about a second here
        assert multiplicative_order(PrimeField(1_000_003).from_int(2)) == 1_000_002
        assert multiplicative_order(PrimeField(100_000_037).from_int(-1)) == 2


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).map(Q.from_fraction)
residues = st.integers(min_value=0, max_value=12).map(F13.from_int)
cyclos = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=4, max_size=4
).map(lambda cs: sum((C8.from_int(c) * C8.zeta_power(k) for k, c in enumerate(cs)), C8.zero))


@settings(max_examples=120, deadline=None)
@given(st.one_of(rationals, residues, cyclos), st.one_of(rationals, residues, cyclos))
def test_field_axioms(x, y):
    if x.field is not y.field:
        return
    field = x.field
    assert x + y == y + x
    assert x * y == y * x
    assert x + field.zero == x
    assert x * field.one == x
    assert x + (-x) == field.zero
    assert x * (x + y) == x * x + x * y
    if not x.is_zero():
        assert x * x.inverse() == field.one
        assert x ** -3 == (x.inverse()) ** 3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
)
def test_cyclotomic_mul_matches_polynomials(cs, ds):
    # multiplication agrees with polynomial multiplication mod z^4 = -1
    x = sum((C8.from_int(c) * C8.zeta_power(k) for k, c in enumerate(cs)), C8.zero)
    y = sum((C8.from_int(d) * C8.zeta_power(k) for k, d in enumerate(ds)), C8.zero)
    acc = C8.zero
    for k, c in enumerate(cs):
        for l, d in enumerate(ds):
            acc = acc + C8.from_int(c * d) * C8.zeta_power(k + l)
    assert x * y == acc


class TestConstants:
    @pytest.mark.parametrize("field", [Q, F7, C8], ids=lambda F: F.describe())
    def test_cached_once_per_field(self, field):
        assert field.one is field.one
        assert field.zero is field.zero
        assert field.one == field.from_int(1)
        assert field.zero == field.from_int(0)

    @pytest.mark.parametrize("field", [Q, F7, C8], ids=lambda F: F.describe())
    def test_shared_constants_stay_neutral(self, field):
        x = field.from_int(5)
        for _ in range(3):
            assert field.zero + x == x
            assert field.one * x == x
            assert -field.one + field.one == field.zero
        assert field.one == field.from_int(1)
        assert field.zero == field.from_int(0)


class TestHashContract:
    @pytest.mark.parametrize("field", [Q, F7, C8], ids=lambda F: F.describe())
    def test_no_int_equality(self, field):
        assert field.one != 1
        assert not (field.one == 1)
        assert field.zero != 0
        assert len({field.one, field.from_int(1)}) == 1
        assert len({field.one, 1}) == 2

    def test_int_coercion_in_arithmetic_stays(self):
        assert F7.one + 1 == F7.from_int(2)
        assert 3 * F7.from_int(5) == F7.one
        assert 1 - Q.one == Q.zero

    def test_wrapping_residues_are_not_ints(self):
        # over GF(7) from_int(8) is 1, so no hash could agree with int equality
        assert F7.from_int(8) == F7.one
        assert F7.from_int(8) != 8 and F7.from_int(8) != 1


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Q.from_fraction)
small_residues = st.integers(min_value=-20, max_value=20).map(F7.from_int)
small_cyclos = st.lists(
    st.integers(min_value=-1, max_value=1), min_size=4, max_size=4
).map(lambda cs: sum((C8.from_int(c) * C8.zeta_power(k) for k, c in enumerate(cs)), C8.zero))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_scalars_hash_equal(data):
    strategy = data.draw(st.sampled_from([small_rationals, small_residues, small_cyclos]))
    x = data.draw(strategy)
    y = data.draw(strategy)
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    # a value rebuilt through arithmetic is the same dict key
    rebuilt = (x + x.field.one) - x.field.one
    assert rebuilt == x and hash(rebuilt) == hash(x)


# -- Q(zeta_m) against the Fraction-polynomial reference --------------------------

CYCLO_ORDERS = (1, 2, 3, 5, 7, 8, 9, 12, 15)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def from_coefficients(field, coeffs):
    return sum(
        (field.from_fraction(c) * field.zeta_power(k) for k, c in enumerate(coeffs)),
        field.zero,
    )


def draw_cyclo(data):
    """A field Q(zeta_m), m drawn from CYCLO_ORDERS, and two coefficient lists."""
    field = make_field("cyclotomic", data.draw(st.sampled_from(CYCLO_ORDERS)))
    coeffs = st.lists(coefficients, min_size=field.degree, max_size=field.degree)
    return field, data.draw(coeffs), data.draw(coeffs)


class TestCyclotomicAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ring_operations(self, data):
        field, fs, gs = draw_cyclo(data)
        x, y = from_coefficients(field, fs), from_coefficients(field, gs)
        assert cyclo_coefficients(x) == fs
        assert cyclo_coefficients(x + y) == [a + b for a, b in zip(fs, gs)]
        assert cyclo_coefficients(x - y) == [a - b for a, b in zip(fs, gs)]
        assert cyclo_coefficients(-x) == [-a for a in fs]
        assert cyclo_coefficients(x * y) == reference_cyclo_mul(field.m, fs, gs)
        if not x.is_zero():
            assert cyclo_coefficients(x.inverse()) == reference_cyclo_inverse(field.m, fs)

    @pytest.mark.parametrize("m", CYCLO_ORDERS)
    def test_zeta_powers(self, m):
        field = make_field("cyclotomic", m)
        one = [Fraction(1)]
        for k in range(-2 * m, 3 * m):
            monomial = [Fraction(0)] * (k % m) + one
            expected = reference_cyclo_mul(m, monomial, one)
            assert cyclo_coefficients(field.zeta_power(k)) == expected
            assert field.parse(f"z^{k}") == field.zeta_power(k)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_payload_is_canonical(self, data):
        field, fs, gs = draw_cyclo(data)
        x, y = from_coefficients(field, fs), from_coefficients(field, gs)
        routes = [field.parse(str(x)), (x + y) - y]
        if not y.is_zero():
            routes.append((x * y) * y.inverse())
        for other in routes:
            assert other == x
            assert other.value == x.value and hash(other) == hash(x)
        num, den = x.value
        assert den > 0 and gcd(den, *num) == 1

    def test_dense_inverse_degree_48(self):
        field = make_field("cyclotomic", 210)
        assert field.degree == 48
        rng = random.Random(210)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(48)]
        x = from_coefficients(field, coeffs)
        assert x * x.inverse() == field.one


def cyclo_literal(data, field) -> str:
    """A literal of signed fractional terms c*z^k, negative k included."""
    terms = data.draw(
        st.lists(
            st.tuples(coefficients, st.integers(min_value=-2 * field.m, max_value=2 * field.m)),
            min_size=1,
            max_size=5,
        )
    )
    return " + ".join(f"{c}*z^{k}" for c, k in terms)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_inverts_str_in_every_field(data):
    field = data.draw(
        st.sampled_from([Q, F2, F7, F13] + [make_field("cyclotomic", m) for m in CYCLO_ORDERS])
    )
    if field.kind == "rational":
        x = Q.from_fraction(data.draw(st.fractions(max_denominator=50)))
    elif field.kind == "prime":
        x = field.from_int(data.draw(st.integers()))
    else:
        x = field.parse(cyclo_literal(data, field))
    assert field.parse(str(x)) == x


# -- powers against repeated products ---------------------------------------

POWER_FIELDS = [F2, F7, make_field("prime", 100_000_037), Q] + [
    make_field("cyclotomic", m) for m in (1, 4, 8, 12)
]


class TestPower:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_repeated_products(self, data):
        field = data.draw(st.sampled_from(POWER_FIELDS))
        if field.kind == "prime":
            x = field.from_int(data.draw(st.integers()))
        elif field.kind == "rational":
            x = Q.from_fraction(data.draw(coefficients))
        else:
            coeffs = st.lists(coefficients, min_size=field.degree, max_size=field.degree)
            x = from_coefficients(field, data.draw(coeffs))
        k = data.draw(st.integers(min_value=-40, max_value=40))
        assume(k >= 0 or not x.is_zero())
        assert x**k == reference_power(x, k)

    @pytest.mark.parametrize("field", [Q, F7, C8], ids=lambda F: F.describe())
    def test_zero_and_non_integer_exponents(self, field):
        assert field.zero**0 == field.one
        with pytest.raises(DivisionByZeroError):
            field.zero**-1
        with pytest.raises(TypeError):
            field.from_int(2) ** 1.5

    @pytest.mark.parametrize("field", [Q, F7, C8], ids=lambda F: F.describe())
    def test_one_payload_operation(self, field, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(Scalar, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(Scalar, name, counted(name))
        x = field.from_int(3)
        assert x**37 != x**-37
        assert calls == []
