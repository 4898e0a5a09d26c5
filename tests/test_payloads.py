"""Payload arithmetic of Presentation against plain Scalar references.

Presentation keeps q as a matrix of field payloads and computes brackets,
h values and compatibility on them.  Each test here draws presentations
over GF(p), Q and Q(zeta_8) with n <= 4, some of whose q entries belong to
an equal but distinct field object, and compares with the Scalar-level
references in helpers.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    h_of,
    prune_kind,
    rand_compatible,
    rand_compatible_involutive_h,
    rand_presentation,
    reference_bracket,
    reference_enumerate_compatible,
    reference_h_generators,
    reference_h_of,
    reference_is_compatible,
)
from qci.algebra import Presentation
from qci.builder import decide
from qci.errors import BadDiagonalError, BadExponentError, BadReciprocalError, TooLargeError
from qci.permutations import Permutation, enumerate_compatible, is_compatible
from qci.scalars import Scalar, make_field

FIELDS = [("prime", p) for p in (2, 3, 5, 7, 13)] + [("rational", None), ("cyclotomic", 8)]


@st.composite
def presentations(draw):
    """A presentation whose q entries come partly from a twin field object.

    The twin is made by a second make_field call, so it equals the field of
    the presentation without being the same object.
    """
    kind, param = draw(st.sampled_from(FIELDS))
    field, twin = make_field(kind, param), make_field(kind, param)
    n = draw(st.integers(min_value=2, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["free", "compatible", "involutive-h"]))
    if shape == "free":
        P = rand_presentation(rng, field, n)
    elif shape == "compatible":
        P, _ = rand_compatible(rng, field, n)
    else:
        P, _ = rand_compatible_involutive_h(rng, field, n)
    moved = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    q = [
        [twin.parse(str(x)) if moved[i * n + j] else x for j, x in enumerate(row)]
        for i, row in enumerate(P.q)
    ]
    return Presentation(field, P.a, q)


vectors = st.lists(st.integers(min_value=-4, max_value=5), min_size=4, max_size=4)


def assert_native(P, x):
    assert isinstance(x, Scalar) and x.field == P.field


@settings(max_examples=150, deadline=None)
@given(presentations(), st.lists(st.tuples(vectors, vectors), min_size=1, max_size=8))
def test_bracket_matches_reference(P, pairs):
    # several pairs per presentation, each twice, so that later calls read
    # the power cache that earlier ones filled
    for u, v in pairs + pairs:
        u, v = u[: P.n], v[: P.n]
        got = P.bracket(u, v)
        assert_native(P, got)
        assert got == reference_bracket(P, u, v)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.lists(vectors, min_size=1, max_size=8))
def test_h_matches_reference(P, vs):
    hs = reference_h_generators(P)
    assert P.h_generators() == hs
    for h in P.h_generators():
        assert_native(P, h)
    for v in vs + vs:
        got = h_of(P, v[: P.n])
        assert_native(P, got)
        assert got == reference_h_of(P, v[: P.n])
    assert h_of(P, P.zero_vec) == P.field.one
    assert P.is_symmetric() == all(h == P.field.one for h in hs)
    assert P.nakayama_is_involution() == all(h * h == P.field.one for h in hs)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.data())
def test_compatibility_matches_reference(P, data):
    assert_enumeration_matches_reference(P)
    images = data.draw(st.permutations(range(1, P.n + 1)))
    pi = Permutation(images)
    assert is_compatible(P, pi) == reference_is_compatible(P, pi)


def assert_enumeration_matches_reference(P):
    for involutions_only in (True, False):
        assert enumerate_compatible(P, involutions_only) == reference_enumerate_compatible(
            P, involutions_only
        )


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_compatible_permutations_invert_the_nakayama_signature(P):
    """The lemma the prune of enumerate_compatible rests on: every compatible
    pi has a_{pi(i)} = a_i and h_{pi(i)} h_i = 1, on the permutations it
    returns and on every one the brute force finds."""
    h, one = reference_h_generators(P), P.field.one
    found = enumerate_compatible(P, involutions_only=False)
    every = reference_enumerate_compatible(P, involutions_only=False)
    for pi in found + every:
        for i in range(1, P.n + 1):
            assert P.a[pi(i) - 1] == P.a[i - 1]
            assert h[pi(i) - 1] * h[i - 1] == one


def fixed_draws() -> list:
    """Seeded draws of each shape of presentations() over each of FIELDS, for
    n = 2, 3, 4: 63 presentations."""
    rng = random.Random(0)
    draws = []
    for (kind, param), n in itertools.product(FIELDS, (2, 3, 4)):
        field = make_field(kind, param)
        draws.append(rand_presentation(rng, field, n))
        draws.append(rand_compatible(rng, field, n)[0])
        draws.append(rand_compatible_involutive_h(rng, field, n)[0])
    return draws


def test_fixed_draws_reach_both_prunes():
    """On a fixed list of draws like those of test_compatibility_matches_reference,
    the oracle holds, and the Nakayama signature both ends the enumeration
    early (some i has no partner) and prunes some images without ending it."""
    draws = fixed_draws()
    for P in draws:
        assert_enumeration_matches_reference(P)
    assert Counter(map(prune_kind, draws)) == {"early": 9, "partial": 16, "none": 38}


def test_twin_field_entries_change_nothing():
    F, twin = make_field("prime", 7), make_field("prime", 7)
    assert F == twin and F is not twin
    rng = random.Random(5)
    for _ in range(20):
        P, pi = rand_compatible(rng, F, 3)
        Q = Presentation(F, P.a, [[twin.parse(str(x)) for x in row] for row in P.q])
        assert Q == P and Q.q_values == P.q_values
        assert Q.h_generators() == P.h_generators()
        assert is_compatible(Q, pi)
        assert enumerate_compatible(Q) == enumerate_compatible(P)
        assert decide(Q).to_json() == decide(P).to_json()


# -- validation: every error, its message and the order of the checks


F5 = make_field("prime", 5)
F7 = make_field("prime", 7)


def q_matrix(n, **entries):
    """n x n over GF(7): 1 on the diagonal, q12 = 2, q21 = 4; entries override.

    An entry named e.g. q13 replaces the (1, 3) position as given.
    """
    one = F7.one
    q = [[one] * n for _ in range(n)]
    q[0][1], q[1][0] = F7.from_int(2), F7.from_int(4)
    for name, value in entries.items():
        q[int(name[1]) - 1][int(name[2]) - 1] = value
    return q


# (name, a, q, error, message); each case also holds every fault of the rows
# below it that the shape allows, so the first reported error pins the order
VALIDATION_CASES = [
    ("exponent-type", (1.5,), [[5]], BadExponentError,
     "every exponent must be an integer, got (1.5,)"),
    ("generators", (4,), [[5]], BadExponentError, "need at least 2 generators, got 1"),
    ("exponent-bound", (1, 2, 2), [[5]], BadExponentError,
     "every exponent must be >= 2, got (1, 2, 2)"),
    ("shape", (64, 64, 64), [[5, 5], [5, 5]], BadReciprocalError, "q must be a 3x3 matrix"),
    ("non-scalar", (64, 64, 64),
     q_matrix(3, q12=5, q13=F5.one, q11=F7.from_int(2), q23=F7.zero), BadReciprocalError,
     "q[1][2] is not a field scalar"),
    ("foreign-field", (64, 64, 64),
     q_matrix(3, q12=F5.from_int(2), q13=F7.zero, q11=F7.from_int(2)), BadReciprocalError,
     "q[1][2] is not a field scalar"),
    ("zero", (64, 64, 64), q_matrix(3, q13=F7.zero, q11=F7.from_int(2)), BadReciprocalError,
     "q[1][3] is zero"),
    # the diagonal of row 1 is checked before the entries of row 2
    ("diagonal", (64, 64, 64), q_matrix(3, q11=F7.from_int(2), q23=F5.one, q31=F7.zero),
     BadDiagonalError, "q[1][1] must be 1"),
    ("reciprocal", (64, 64, 64), q_matrix(3, q21=F7.from_int(2), q23=F7.from_int(3)),
     BadReciprocalError, "q[1][2] * q[2][1] must be 1"),
    ("cap", (64, 64, 64), q_matrix(3), TooLargeError, "dimension 262144 exceeds the cap 4096"),
]


@pytest.mark.parametrize(
    "a, q, error, message",
    [case[1:] for case in VALIDATION_CASES],
    ids=[case[0] for case in VALIDATION_CASES],
)
def test_validation_errors_in_order(monkeypatch, a, q, error, message):
    monkeypatch.delenv("QCI_DIM_LIMIT", raising=False)
    with pytest.raises(error) as info:
        Presentation(F7, a, q)
    assert type(info.value) is error
    assert str(info.value) == message


def test_validation_accepts_the_base_matrix():
    P = Presentation(F7, (2, 3, 2), q_matrix(3))
    assert P.q_values == ((1, 2, 1), (4, 1, 1), (1, 1, 1))
    with pytest.raises(TypeError):
        P.q_values[0][1] = 3


@pytest.mark.parametrize("a", [(2.9, "3"), (2, "3"), (2.0, 2), (2, 2.5)], ids=repr)
def test_exponents_are_not_coerced(a):
    one = F7.one
    with pytest.raises(BadExponentError, match="must be an integer"):
        Presentation(F7, a, [[one, one], [one, one]])


# -- count gate: the scalars that Presentation(...) plus decide build


@pytest.mark.parametrize(
    "entries, reason, scalars",
    [
        ((2, 1, 1), "nakayama-not-involutive", 1),  # only the field's sqrt(-1)
        ((2, 14, 2), None, 27),  # Yes, witness pi = [3,2,1]
    ],
    ids=["nakayama-gate", "yes"],
)
def test_decide_builds_few_scalars(monkeypatch, entries, reason, scalars):
    """GF(29), a = (4, 4, 4), q_12, q_13, q_23 = entries.

    The field is new, so its cached constants are built the same way in
    every run; q is built before counting starts.
    """
    F = make_field("prime", 29)
    one = F.one
    q = [[one] * 3 for _ in range(3)]
    for (i, j), k in zip([(0, 1), (0, 2), (1, 2)], entries):
        q[i][j] = F.from_int(k)
        q[j][i] = q[i][j].inverse()
    calls = {"scalar": 0}
    init = Scalar.__init__

    def counted(self, field, value):
        calls["scalar"] += 1
        init(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counted)
    report = decide(Presentation(F, (4, 4, 4), q))
    assert (report.exists, report.reason) == (reason is None, reason)
    assert calls == {"scalar": scalars}
