"""Permutations acting on generators and exponent vectors.

A permutation pi of {1..n} acts on an exponent vector by permuting positions:
the image w of v has w_{pi(i)} = v_i, so generators map by x_i |-> x_{pi(i)}.
A permutation preserves a presentation when a_{pi(i)} = a_i and
q_{pi(i) pi(j)} = q_ji for all i, j.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    NakayamaOrderError,
    NotCompatibleError,
    NotInvolutionError,
    TooManyGeneratorsError,
)
from .algebra import Presentation
from .scalars import Scalar

ENUMERATION_BOUND = 10


class Permutation:
    """Permutation of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        try:
            images = tuple(map(operator.index, images))
        except TypeError:
            raise ValueError(f"every image must be an integer, got {images!r}") from None
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images!r} is not a permutation of 1..{n}")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_involution(self) -> bool:
        return all(self(self(i)) == i for i in range(1, self.n + 1))

    def act(self, v) -> tuple:
        """Permute vector positions: the image w satisfies w_{pi(i)} = v_i."""
        out = [0] * self.n
        for i in range(self.n):
            out[self.images[i] - 1] = v[i]
        return tuple(out)

    def fixed_points(self) -> tuple:
        return tuple(i for i in range(1, self.n + 1) if self(i) == i)

    def moved_points(self) -> tuple:
        return tuple(i for i in range(1, self.n + 1) if self(i) != i)

    def __eq__(self, other):
        return isinstance(other, Permutation) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        return "[" + ",".join(str(i) for i in self.images) + "]"

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        return cls(int(p) for p in body.split(","))


def is_compatible(P: Presentation, pi: Permutation) -> bool:
    """Whether pi preserves the exponents and the q matrix.

    The q condition is checked on payloads for i < j only: it holds on the
    diagonal, where both sides are 1, and the condition for (j, i) is the
    inverse of the one for (i, j), since q_ij q_ji = 1.
    """
    n = P.n
    if pi.n != n:
        return False
    images = [k - 1 for k in pi.images]
    a, q = P.a, P.q_values
    if any(a[images[i]] != a[i] for i in range(n)):
        return False
    return all(
        q[images[i]][images[j]] == q[j][i] for i in range(n) for j in range(i + 1, n)
    )


def enumerate_compatible(P: Presentation, involutions_only: bool = True) -> list:
    """All compatible permutations (involutions by default), in lexicographic
    order of their image tuples.

    Every compatible pi has h_{pi(i)} = h_i^{-1}, where h_i = h_{e_i} =
    prod_{l != i} q_il^{a_l - 1}.  Reindex the product over m != pi(i) by
    m = pi(l), l != i: compatibility gives q_{pi(i) pi(l)} = q_li and
    a_{pi(l)} = a_l, so h_{pi(i)} = prod_{l != i} q_li^{a_l - 1} = h_i^{-1},
    since q_li = q_il^{-1}.  So position i takes an image j only among its
    partners, the j with a_j = a_i and h_j h_i = 1, computed once per call,
    and if some i has no partner no permutation is compatible and the result
    is [].  The prune loses nothing: it drops only images that no compatible
    pi takes.

    One recursion fills the least unfilled position i, trying its partners
    in increasing order, so the results come out sorted.  i takes an unused
    partner j whose q entries agree with every filled pair (k, pi(k)):
    q_{j pi(k)} = q_{ki}; as in is_compatible, the condition for (k, i)
    follows from it.  For involutions j then takes i back; every earlier
    position is used by then, so j is i or a later position.  j -> i agrees
    as well: its condition with a filled pair (k, pi(k)) is that of i -> j
    with (pi(k), k), by reciprocity.
    """
    n = P.n
    if n > ENUMERATION_BOUND:
        raise TooManyGeneratorsError(f"n = {n} exceeds the enumeration bound {ENUMERATION_BOUND}")
    a, q, h = P.a, P.q_values, P.h_values()
    mul, one = P.field._mul, P.field.one.value
    partners = []
    for i, hi in enumerate(h):
        start = i if involutions_only else 0
        # the early return needs every partner; the recursion tries j >= start
        every = [j for j in range(n) if a[j] == a[i] and mul(h[j], hi) == one]
        if not every:
            return []
        partners.append([j for j in every if j >= start])
    columns = list(zip(*q))  # columns[i][k] = q[k][i]
    images = [None] * n  # 0-based: images[i] = pi(i + 1) - 1 once filled
    used = [False] * n  # the images taken so far
    filled = []  # the filled pairs (k, images[k])
    results = []

    def fill(i: int) -> None:
        while i < n and images[i] is not None:  # taken back by an earlier position
            i += 1
        if i == n:
            results.append(Permutation([k + 1 for k in images]))
            return
        column = columns[i]
        for j in partners[i]:
            if used[j]:
                continue
            row = q[j]
            for k, image in filled:
                if row[image] != column[k]:
                    break
            else:
                back = involutions_only and j != i
                images[i], used[j] = j, True
                filled.append((i, j))
                if back:
                    images[j], used[i] = i, True
                    filled.append((j, i))
                fill(i + 1)
                if back:
                    images[j], used[i] = None, False
                    filled.pop()
                images[i], used[j] = None, False
                filled.pop()

    fill(0)
    return results


def q_pi(P: Presentation, pi: Permutation) -> Scalar:
    """prod_{j<k} bracket(pi(e_k), pi(e_j))^{(a_k-1)(a_j-1)}."""
    out = P.field.one
    for j in range(1, P.n + 1):
        for k in range(j + 1, P.n + 1):
            e = (P.a[k - 1] - 1) * (P.a[j - 1] - 1)
            base = P.bracket(pi.act(P.unit_vec(k)), pi.act(P.unit_vec(j)))
            out = out * base**e
    return out


@dataclass(frozen=True)
class PartitionReport:
    """Index classification for a compatible involution.

    fixed/moved split {1..n} by whether pi(i) = i.  Away from characteristic
    2 the fixed indices refine by the sign of h_{e_i} and the parity of a_i,
    and j3 collects the moved indices with h = -1 and a_i even:
      i1: fixed, h = 1,  a_i even      i3: fixed, h = -1, a_i even
      i2: fixed, h = 1,  a_i odd       i4: fixed, h = -1, a_i odd
    In characteristic 2 the sign refinement is meaningless; only fixed/moved
    are reported and char_two is set.
    """

    pi: Permutation
    fixed: tuple
    moved: tuple
    i1: tuple
    i2: tuple
    i3: tuple
    i4: tuple
    j3: tuple
    q_pi: Scalar
    char_two: bool


def partition(P: Presentation, pi: Permutation) -> PartitionReport:
    """Classify indices for a compatible involution; see PartitionReport."""
    if not pi.is_involution():
        raise NotInvolutionError(f"{pi} is not an involution")
    if not is_compatible(P, pi):
        raise NotCompatibleError(f"{pi} does not preserve the presentation")
    fixed = pi.fixed_points()
    moved = pi.moved_points()
    qp = q_pi(P, pi)
    if P.field.characteristic() == 2:
        return PartitionReport(pi, fixed, moved, (), (), (), (), (), qp, True)
    one = P.field.one
    minus_one = -one
    h = P.h_generators()
    i1, i2, i3, i4, j3 = [], [], [], [], []
    for i in range(1, P.n + 1):
        plus = h[i - 1] == one
        if not plus and h[i - 1] != minus_one:
            raise NakayamaOrderError(
                f"h_e{i} is neither 1 nor -1; sign classification undefined"
            )
        even = P.a[i - 1] % 2 == 0
        if pi(i) != i:
            if even and not plus:
                j3.append(i)
        elif plus:
            (i1 if even else i2).append(i)
        else:
            (i3 if even else i4).append(i)
    return PartitionReport(
        pi, fixed, moved, tuple(i1), tuple(i2), tuple(i3), tuple(i4), tuple(j3), qp, False
    )
