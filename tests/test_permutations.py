"""Permutation action, compatibility, enumeration, and index partitions."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_permutation, prune_kind, transposition
from qci import permutations
from qci.algebra import Presentation
from qci.demos import example_presentation
from qci.errors import (
    NakayamaOrderError,
    NotCompatibleError,
    NotInvolutionError,
    TooManyGeneratorsError,
)
from qci.permutations import (
    Permutation,
    enumerate_compatible,
    is_compatible,
    partition,
    q_pi,
)
from qci.scalars import make_field

Q = make_field("rational")
C8 = make_field("cyclotomic", 8)
F5 = make_field("prime", 5)


def presentation(field, a, entries):
    """entries maps (i, j) with i < j to a parseable scalar literal."""
    n = len(a)
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), lit in entries.items():
        val = field.parse(lit)
        q[i - 1][j - 1] = val
        q[j - 1][i - 1] = val.inverse()
    return Presentation(field, a, q)


class TestPermutationBasics:
    def test_action_convention(self):
        # w = pi.act(v) places v_i at position pi(i)
        pi = Permutation((2, 1, 3))
        assert pi.act((5, 7, 9)) == (7, 5, 9)
        cycle = Permutation((2, 3, 1))
        assert cycle.act((5, 7, 9)) == (9, 5, 7)

    def test_parse_and_str(self):
        pi = Permutation.parse("[2,1,3]")
        assert pi == Permutation((2, 1, 3))
        assert str(pi) == "[2,1,3]"
        assert Permutation.parse(" [3, 1,2] ") == Permutation((3, 1, 2))
        for text in ("[2,2,3]", "[1,2.5]"):
            with pytest.raises(ValueError):
                Permutation.parse(text)

    @pytest.mark.parametrize(
        "images, message",
        [
            ([1.9, 2], "every image must be an integer, got (1.9, 2)"),
            (["2", "1"], "every image must be an integer, got ('2', '1')"),
            ([1, None], "every image must be an integer, got (1, None)"),
            ([2.0, 1.0], "every image must be an integer, got (2.0, 1.0)"),
            ([1, 1], "(1, 1) is not a permutation of 1..2"),
            ([0, 1], "(0, 1) is not a permutation of 1..2"),
        ],
    )
    def test_images_are_not_coerced(self, images, message):
        with pytest.raises(ValueError) as info:
            Permutation(images)
        assert str(info.value) == message

    def test_involution_and_points(self):
        swap = Permutation((1, 3, 2))
        assert swap.is_involution()
        assert swap.fixed_points() == (1,)
        assert swap.moved_points() == (2, 3)
        cycle = Permutation((2, 3, 1))
        assert not cycle.is_involution()
        assert identity_permutation(3) == Permutation((1, 2, 3))
        assert transposition(3, 2, 3) == swap


class TestCompatibility:
    def test_symmetric_example_involutions(self):
        P = example_presentation("6.9", C8)
        got = enumerate_compatible(P)
        assert [str(p) for p in got] == ["[1,3,2]", "[2,1,3]", "[3,2,1]"]
        # the identity and the 3-cycles fail the q condition for generic b
        assert not is_compatible(P, identity_permutation(3))
        assert not is_compatible(P, Permutation((2, 3, 1)))

    def test_symmetric_example_all_permutations(self):
        P = example_presentation("6.9", C8)
        got = enumerate_compatible(P, involutions_only=False)
        assert [str(p) for p in got] == ["[1,3,2]", "[2,1,3]", "[3,2,1]"]

    def test_twisted_example_involutions(self):
        P = example_presentation("6.10", C8)
        got = enumerate_compatible(P)
        assert [str(p) for p in got] == ["[1,3,2]"]

    def test_exponent_mismatch(self):
        P = presentation(Q, (2, 3), {(1, 2): "1"})
        assert not is_compatible(P, Permutation((2, 1)))
        assert is_compatible(P, identity_permutation(2))

    def test_size_mismatch(self):
        P = presentation(Q, (2, 3), {(1, 2): "1"})
        assert not is_compatible(P, identity_permutation(3))

    def test_enumeration_bound(self, monkeypatch):
        P = presentation(Q, (2, 2), {(1, 2): "1"})
        monkeypatch.setattr(permutations, "ENUMERATION_BOUND", 1)
        with pytest.raises(TooManyGeneratorsError, match="enumeration bound 1"):
            enumerate_compatible(P)


@st.composite
def gf5_presentations(draw):
    """n <= 5 over GF(5), q_ij in {1, -1, 2, 2^-1} above the diagonal and
    exponents in {2, 3}.  Each is drawn from a random sub-pool of its
    values, so that many draws admit several compatible permutations."""
    n = draw(st.integers(2, 5))
    pool = st.lists(st.sampled_from(("1", "-1", "2", "3")), min_size=1, unique=True)
    exponents = st.lists(st.sampled_from((2, 3)), min_size=1, unique=True)
    literals, sizes = draw(pool), draw(exponents)
    a = draw(st.lists(st.sampled_from(sizes), min_size=n, max_size=n))
    entries = {
        (i, j): draw(st.sampled_from(literals))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return presentation(F5, a, entries)


class TestEnumerationOracle:
    @settings(max_examples=300, deadline=None)
    @given(P=gf5_presentations(), involutions_only=st.booleans())
    def test_matches_filtered_permutations(self, P, involutions_only):
        assert enumerate_compatible(P, involutions_only) == filtered(P, involutions_only)

    def test_fixed_list_reaches_both_prunes(self):
        """On 40 seeded presentations in the style of gf5_presentations, the
        oracle holds, and the Nakayama signature both ends the enumeration
        early and prunes some images without ending it."""
        rng = random.Random(0)
        draws = []
        for _ in range(40):
            n = rng.randint(2, 5)
            literals = rng.sample(("1", "-1", "2", "3"), rng.randint(1, 4))
            sizes = rng.sample((2, 3), rng.randint(1, 2))
            a = [rng.choice(sizes) for _ in range(n)]
            pairs = itertools.combinations(range(1, n + 1), 2)
            draws.append(presentation(F5, a, {pair: rng.choice(literals) for pair in pairs}))
        for P in draws:
            for involutions_only in (True, False):
                assert enumerate_compatible(P, involutions_only) == filtered(P, involutions_only)
        assert Counter(map(prune_kind, draws)) == {"early": 11, "partial": 16, "none": 13}


def filtered(P, involutions_only):
    """The compatible permutations (involutions when asked) among all of
    S_n; itertools.permutations yields the image tuples in lexicographic
    order."""
    return [
        pi
        for pi in map(Permutation, itertools.permutations(range(1, P.n + 1)))
        if is_compatible(P, pi) and (pi.is_involution() or not involutions_only)
    ]


class TestQPi:
    def test_identity_witness_sign(self):
        P = presentation(Q, (2, 2), {(1, 2): "-1"})
        assert q_pi(P, identity_permutation(2)) == -Q.one

    def test_single_fixed_point_is_trivial(self):
        P = example_presentation("6.10", C8)
        assert q_pi(P, Permutation((1, 3, 2))) == C8.one

    def test_swap_reduces_to_empty_fixed_block(self):
        P = presentation(Q, (3, 3), {(1, 2): "2"})
        assert q_pi(P, Permutation((2, 1))) == Q.one


class TestPartition:
    def test_twisted_example_classes(self):
        P = example_presentation("6.10", C8)
        rep = partition(P, Permutation((1, 3, 2)))
        assert rep.fixed == (1,)
        assert rep.moved == (2, 3)
        assert rep.i1 == (1,)
        assert rep.j3 == (2, 3)
        assert rep.i2 == rep.i3 == rep.i4 == ()
        assert rep.q_pi == C8.one
        assert not rep.char_two

    def test_i4_split(self):
        P = presentation(Q, (3, 4, 4), {(1, 2): "-1", (1, 3): "1", (2, 3): "1"})
        rep = partition(P, identity_permutation(3))
        assert rep.i4 == (1,)
        assert rep.i1 == (2, 3)

    def test_requires_involution_and_compatibility(self):
        P = example_presentation("6.9", C8)
        with pytest.raises(NotInvolutionError):
            partition(P, Permutation((2, 3, 1)))
        with pytest.raises(NotCompatibleError):
            partition(P, identity_permutation(3))

    def test_sign_classification_needs_h_order_two(self):
        F13 = make_field("prime", 13)
        P = presentation(F13, (3, 3), {(1, 2): "2"})
        with pytest.raises(NakayamaOrderError):
            partition(P, Permutation((2, 1)))

    def test_char_two_report(self):
        F2 = make_field("prime", 2)
        P = presentation(F2, (2, 2), {(1, 2): "1"})
        rep = partition(P, identity_permutation(2))
        assert rep.char_two
        assert rep.fixed == (1, 2)
        assert rep.i1 == ()
