"""Exhaustive exact verification of a constructed structure.

Every check decides every basis vector (or every basis pair), by
evaluation or by a proof in a docstring; nothing is sampled and every
comparison is exact.  The antipode anti-homomorphism is decided on the
n dim pairs (x_u, x_k) with x_k a generator, which imply every pair by
induction on word length, as one comparison of payload lists per
generator; only when that certificate fails are the other pairs on which
a side can be nonzero scanned, to name the first failing one.  The Hopf
flag is decided in closed form on a, the characteristic, pi and g.
Failures carry a replayable counterexample.

A structure holds only the payload tables g and s_coef (BfaStructure);
delta and the support of S are the ones the construction writes.  With
L = dim - 1 and s = B.s_img, the permutation of basis indices v |-> pi(v),
which fixes 0 and L, B.row spells:
  (a) delta(1) = 1 (x) 1;
  (b) delta(x_v) = 1 (x) x_v + x_v (x) 1 for every middle index 0 < v < L;
  (c) delta(t) = sum_k g[k] x_{L-k} (x) x_{s(k)}, so its left factors run
      down the basis once and its right factors over the basis once;
  (d) hence term 0 is c_0 t (x) 1 and term L is c_L 1 (x) t, with
      c_0 = g[0] and c_L = g[L], and every other term has both factors
      in the middle.  A term with g[k] = 0 vanishes.
S(x_v) = s_coef[v] x_{s(v)}.  So each check that reads delta is decided in
closed form on c_0, c_L and the middle g, and its docstring proves that the
verdict and the detail are those of evaluating it term by term; the Hopf
flag's docstring proves its closed form the same way.  A passing check
compares whole payload lists, and reads the list of basis vectors, their
index or a Scalar only for a failure detail.  s is an involution, so S^2
and S^4 send each x_v to a multiple of itself: they are kept as
coefficient lists, and h_v as a payload array, computed once (_Shared).

Ten checks pass for every structure, by the proofs in
_fixed_by_presentation, with no evaluation: unit-comultiplication, which
reads delta(1), and nine that read only the presentation and the
functionals it fixes (the counit epsilon = x_0^*, phi = x_top^* and the
integral t = x_top), counit-algebra-map, frobenius-pairing,
counit-via-integral, socle-pairing-normalized, right-integral,
integral-space-dimension, unimodularity and left-modular-functional.
nakayama-involutive reads only the presentation and is decided on the n
generators.

Each check is one private function returning (passed, detail).  It stops at
its first failure, in basis order (pairs row by row), and the detail names
that failure, or is None when the check passed.  The checks are listed
once, in report order, in the tables _AXIOMS and _DERIVED; AXIOM_CHECKS and
DERIVED_CHECKS are their names.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field

from .algebra import Presentation
from .builder import BfaStructure
from .scalars import Scalar


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    checks: list = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            extra = "" if c.detail is None else f"  {c.detail}"
            lines.append(f"  [{mark:4}] {c.name}{extra}")
        return "\n".join(lines)


# -- the tables on indices and payloads --------------------------------------------


def _character(field, chi, a, first=None) -> list:
    """first prod_k chi_k^{v_k} as payloads, for v over the basis of the box a
    in basis order, chi a sequence of payloads and first a payload (1 when
    None).  A coordinate whose chi_k is 1 repeats entries instead of
    multiplying them: the table is built from the first chi_k != 1 on and
    then repeated for the coordinates before it."""
    mul, one = field._mul, field.one.value
    lead = next((k for k, c in enumerate(chi) if c != one), len(chi))
    out = [one if first is None else first]
    for c, ak in zip(chi[lead:], a[lead:]):
        if c == one:
            out = [x for x in out for _ in range(ak)]
        else:
            powers = list(itertools.accumulate([c] * (ak - 1), mul, initial=one))
            out = [mul(x, p) for x in out for p in powers]
    return out * math.prod(a[:lead])


def _socle_brackets(P: Presentation) -> list:
    """bracket(top - v, v) as payloads, for v over the basis in basis order,
    from n^2 brackets of generators and not from Presentation.quadratic_table,
    which the builder reads S from.

    The bracket is multiplicative in each argument, so bracket(top - v, v) =
    bracket(top, v) bracket(v, v)^{-1}, and bracket(e_k, e_k) = 1.  Let
    v_j = 0 for every j > k.  Then bracket(v, e_k) = 1, so
      bracket(top - v - e_k, v + e_k) = bracket(top - v, v) bracket(top, e_k) psi_k(v)^{-1}
    with psi_k = bracket(., e_k) bracket(e_k, .), a character whose value at
    v is prod_{i<k} psi_k(e_i)^{v_i}.  Coordinate k extends the table at
    each prefix p over the first k coordinates by the powers of the ratio
    bracket(top, e_k) psi_k(p)^{-1}, tabulated by _character from the
    scalar bracket(top, e_k): at most one _mul per entry, and the ratio
    tables are together no longer than the result.
    """
    field, units = P.field, [P.unit_vec(k) for k in range(1, P.n + 1)]
    mul, inv, bracket, one = field._mul, field._inv, P.bracket_value, field.one.value
    out = [one]
    for k, (ek, ak) in enumerate(zip(units, P.a)):
        psi = [inv(mul(bracket(ei, ek), bracket(ek, ei))) for ei in units[:k]]
        ratios = _character(field, psi, P.a[:k], bracket(P.top, ek))
        out = [
            y
            for x, r in zip(out, ratios)
            for y in (
                itertools.repeat(x, ak) if r == one
                else itertools.accumulate(itertools.repeat(r, ak - 1), mul, initial=x)
            )
        ]
    return out


# -- check helpers -------------------------------------------------------------


def _first(basis, fails) -> tuple:
    """(passed, detail) for "fails(i) is false for every index i of basis".

    The detail names the first failing v = basis[i] as {"v": v}, followed by
    the entries of the failure when it is a dict.
    """
    for i, v in enumerate(basis):
        why = fails(i)
        if why:
            return False, {"v": list(v), **(why if isinstance(why, dict) else {})}
    return True, None


def _verdict(passed: bool, detail: dict) -> tuple:
    """(passed, detail), with the detail dropped when the check passed."""
    return passed, None if passed else detail


def _fixed_by_presentation(B: BfaStructure, shared=None) -> tuple:
    """Passes, with no detail, for every structure.

    unit-comultiplication: delta(1) = 1 (x) 1 as B.row spells it, (a) of
    the module docstring, whatever g and s_coef are.

    The nine other checks that point here read only the presentation and the
    functionals it fixes, epsilon = x_0^*, phi = x_top^* and t = x_top, and
    each identity holds for every (q, a).  x_u x_v is a bracket times
    x_{u+v} when u + v lies in the basis and 0 otherwise, and a bracket is a
    product of powers of nonzero q entries, so it is nonzero.

    counit-algebra-map: epsilon(1) = 1.  epsilon(x_u x_v) vanishes unless
      u + v = 0, and epsilon(x_u) epsilon(x_v) unless u = v = 0, which for
      basis vectors is the same pair, where both sides are 1.
    frobenius-pairing: phi(x_u x_v) vanishes unless u + v = top, so row u
      of the pairing has one nonzero entry, at v = complement(u).  The
      complement permutes the basis, so the matrix is a generalized
      permutation matrix of rank dim.
    counit-via-integral and right-integral: for v != 0, t x_v = 0 because
      top + v leaves the basis, and epsilon(x_v) = 0.  At v = 0 they read
      phi(t) = 1 and t = t.
    socle-pairing-normalized: phi(t) = 1.
    integral-space-dimension and unimodularity: the right integrals are the
      kernel of y -> (y x_i)_i over the generators x_i.  Each row of that
      system has one nonzero entry, at column index(w) for w + e_i in the
      basis, so the kernel is spanned by the unit vectors of the columns no
      row hits.  Column index(w) is missed by every row exactly when
      w_i = a_i - 1 for every i, that is when w is top.  x_i x_w has the
      support of x_w x_i, so the left integrals are the same line K x_top.
    left-modular-functional: alpha(x_v) = phi(x_v t) vanishes for v != 0,
      because v + top leaves the basis, and alpha(1) = phi(t) = 1, so
      alpha = t -> phi is the counit.
    """
    return True, None


# -- axiom checks ----------------------------------------------------------------


def _coassociativity(B: BfaStructure) -> tuple:
    """(delta (x) id) delta = (id (x) delta) delta.  Fails at t unless c_0
    and c_L lie in {0, 1} and every middle g is 0 unless c_0 = c_L = 1.

    By (a) both sides of row 1 are 1(x)1(x)1, and by (a), (b) both sides of
    a middle row are 1(x)1(x)x_v + 1(x)x_v(x)1 + x_v(x)1(x)1.  At t, by (c),
    (d), with the sums over the middle k,
      (delta (x) id) delta(t) = c_0 delta(t) (x) 1 + c_L 1(x)1(x)t
                                + sum g_k delta(x_{L-k}) (x) x_{s(k)}
      (id (x) delta) delta(t) = c_0 t(x)1(x)1 + c_L 1 (x) delta(t)
                                + sum g_k x_{L-k} (x) delta(x_{s(k)}).
    Expanded by (b), (c), (d), their coefficients on the distinct triples
    are, left against right:
      t(x)1(x)1  c_0^2 : c_0            x_{L-k}(x)x_{s(k)}(x)1  c_0 g_k : g_k
      1(x)t(x)1  c_0 c_L : c_0 c_L      1(x)x_{L-k}(x)x_{s(k)}  g_k : c_L g_k
      1(x)1(x)t  c_L : c_L^2            x_{L-k}(x)1(x)x_{s(k)}  g_k : g_k
    The triples are distinct, since the places of the factors 1 and t
    differ and L - k and s(k) are middle indices, one per k.  So the sides
    agree exactly when c_0^2 = c_0, c_L^2 = c_L and every middle g_k with
    (c_0, c_L) != (1, 1) is 0.
    """
    P = B.presentation
    field, g = P.field, B.g
    mul, one = field._mul, field.one.value
    c0, cL = g[0], g[-1]
    middle = c0 == one == cL or all(map(field._is_zero, g[1:-1]))
    return _verdict(mul(c0, c0) == c0 and mul(cL, cL) == cL and middle, {"v": list(P.top)})


def _counit_law(B: BfaStructure) -> tuple:
    """(epsilon (x) id) delta = id = (id (x) epsilon) delta, that is
    x_v <- epsilon = x_v = epsilon -> x_v, with epsilon = x_0^*.  Fails at t
    unless c_0 = c_L = 1.

    x_v <- epsilon sums the right factors of the terms of row v with left
    factor 1, and epsilon -> x_v the left factors of those with right factor
    1.  Both are x_v on the rows (a), (b).  By (c), (d) the only term of
    delta(t) with left factor 1 is c_L 1 (x) t, and the only one with right
    factor 1 is c_0 t (x) 1, so t <- epsilon = c_L t and epsilon -> t = c_0 t.
    """
    P, one = B.presentation, B.presentation.field.one.value
    return _verdict(B.g[0] == one == B.g[-1], {"v": list(P.top)})


def _frobenius_copairing(B: BfaStructure) -> tuple:
    """Rank of w |-> t <- x_w^*, one row per w: the number of nonzero g.

    t <- x_w^* sums the right factors of the terms of delta(t) with left
    factor w.  By (c) that is the one term k = L - w, so row w holds g[k] at
    column s(k) and nothing else, and column s(k) is hit by row L - k alone.
    A matrix with at most one nonzero entry in each row and each column has
    as rank the number of its nonzero entries.
    """
    P = B.presentation
    rank = P.dim - sum(map(P.field._is_zero, B.g))
    return _verdict(rank == P.dim, {"rank": rank})


def _below_top(dim: int, stride: int, ak: int) -> list:
    """Slices that together visit each basis index with v_k < a_k - 1 once,
    for the coordinate k with index stride stride = a_{k+1} ... a_n and
    exponent ak = a_k.

    Those indices are the first (a_k - 1) stride of each block of a_k stride
    consecutive indices, so they are also the indices o + j a_k stride for o
    among the first (a_k - 1) stride.  Each slice plus stride visits the
    indices of v + e_k.  Whichever form takes fewer slices is returned.
    """
    period, span = ak * stride, (ak - 1) * stride
    if dim // period <= span:
        return [slice(b, b + span) for b in range(0, dim, period)]
    return [slice(o, dim, period) for o in range(span)]


def _antipode_antihomomorphism(B: BfaStructure) -> tuple:
    """S(x_u x_v) = S(x_v) S(x_u).

    Generator certificate.  Let S(1) = 1, and let the pair (u, e_k) pass
    for every basis u and generator x_k.  Every pair passes, by induction
    on |v|; |v| = 0 is S(1) = 1.  For |v| > 0 let k be the last index with
    v_k > 0 and v' = v - e_k, so that x_v = x_{v'} x_k exactly.  With
    x_u x_{v'} = c x_w (c = 0 allowed):
      S(x_u x_v) = c S(x_w x_k) = c S(x_k) S(x_w)              pair (w, e_k)
                 = S(x_k) S(x_u x_{v'}) = S(x_k) S(x_{v'}) S(x_u)   induction
                 = S(x_{v'} x_k) S(x_u) = S(x_v) S(x_u)        pair (v', e_k)
    The generator pairs are pairs of the grid, so the certificate fails
    exactly when some pair fails.

    The pair (u, e_k) on payloads.  Let i be the index of u, stride_k =
    a_{k+1} ... a_n the index of e_k, and m = pi(k).  The left side is
    bracket(u, e_k) S(x_{u+e_k}), and u + e_k lies in the basis exactly when
    u_k < a_k - 1, at index i + stride_k.  The right side is
    s_coef[stride_k] s_coef[i] x_{e_m} x_{pi(u)}, since s(i) is the index
    of pi(u) and S(x_k) = s_coef[stride_k] x_{e_m}.  pi(u) carries u_k at
    position m, so e_m + pi(u) lies in the basis exactly when
    u_k < a_k - 1, and then it is pi(u + e_k).  So both sides vanish when
    u_k = a_k - 1, and otherwise both are multiples of x_{s(i + stride_k)},
    with the coefficients, zero included,
      s_coef[i + stride_k] bracket(u, e_k)  and
      s_coef[stride_k] s_coef[i] bracket(e_m, pi(u)).
    bracket(u, e_k) is a product of q entries, so it is nonzero, and
    dividing by it the pair passes exactly when
      s_coef[i + stride_k] = s_coef[i] rho_k[i],
      rho_k = s_coef[stride_k] chi_k,
      chi_k(u) = bracket(e_m, pi(u)) bracket(u, e_k)^{-1}.
    The bracket is multiplicative in each argument and pi(u) =
    sum_j u_j e_{pi(j)}, so chi_k is the character with the values
    bracket(e_m, e_{pi(j)}) bracket(e_j, e_k)^{-1} on the generators, and
    rho_k is tabulated by _character from the scalar s_coef[stride_k].  The
    indices with u_k < a_k - 1 are compared as whole slices (_below_top).

    When the certificate fails, the scan below decides every pair that can
    fail and names the first failing one.  The left side vanishes unless
    u + v lies in the basis, that is unless v lies in box(u), and so does
    the right side: s(v) + s(u) = pi(u + v), since pi permutes the
    coordinates and preserves the exponents.  Each row visits box(u) in
    basis order.
    """
    P = B.presentation
    s_coef, dim = B.s_coef, P.dim
    field, bracket = P.field, P.bracket_value
    mul, is_zero = field._mul, field._is_zero

    def antihomomorphic(i, j):
        """S(x_u x_v) == S(x_v) S(x_u) for u, v = basis[i], basis[j], each side
        compared as None (zero) or (index, payload)."""
        u, v = basis[i], basis[j]
        w = index.get(tuple(map(operator.add, u, v)))
        lhs = None
        if w is not None and not is_zero(s_coef[w]):
            lhs = (s_img[w], mul(s_coef[w], bracket(u, v)))
        iu, iv = basis[s_img[i]], basis[s_img[j]]
        w = index.get(tuple(map(operator.add, iv, iu)))
        rhs = None
        if w is not None:
            c = mul(s_coef[j], s_coef[i])
            if not is_zero(c):
                rhs = (w, mul(c, bracket(iv, iu)))
        return lhs == rhs

    def certified():
        """s_coef[i + stride_k] == s_coef[i] rho_k[i] wherever u_k < a_k - 1."""
        pi, units = B.witness.pi, [P.unit_vec(k) for k in range(1, P.n + 1)]
        images = [units[pi(k) - 1] for k in range(1, P.n + 1)]
        for k, (ek, ak) in enumerate(zip(units, P.a)):
            stride = math.prod(P.a[k + 1:])
            chi = [
                mul(bracket(images[k], fj), field._inv(bracket(ej, ek)))
                for ej, fj in zip(units, images)
            ]
            rho = _character(field, chi, P.a, s_coef[stride])
            for run in _below_top(dim, stride, ak):
                after = slice(run.start + stride, run.stop + stride, run.step)
                if s_coef[after] != list(map(mul, s_coef[run], rho[run])):
                    return False
        return True

    if s_coef[0] != field.one.value:
        return False, {"at": "S(1)"}
    if certified():
        return True, None
    basis, index, s_img = P.basis(), P.positions(), B.s_img
    for i, u in enumerate(basis):
        for v in itertools.product(*map(range, map(operator.sub, P.a, u))):
            if not antihomomorphic(i, index[v]):
                return False, {"u": list(u), "v": list(v)}
    return True, None


def _antipode_coalgebra_antihomomorphism(B: BfaStructure) -> tuple:
    """epsilon S = epsilon and delta S = (S (x) S) delta^op.

    S(x_v) = c x_{s(v)} is one term, and s fixes 1 and t and permutes the
    middle indices.  So epsilon S(x_v) = epsilon(x_v) fails only at 1, when
    S(1) != 1 ("epsilon").  With S(1) = 1, row 1 reads 1 (x) 1 on both
    sides, by (a).  A middle row passes unexpanded: x_w, w = s(v), is
    middle, so by (b)
      (S (x) S) delta^op(x_v) = S(x_v) (x) S(1) + S(1) (x) S(x_v)
                              = c (x_w (x) 1 + 1 (x) x_w) = c delta(x_w),
    which is delta S(x_v).  So only row t is compared, term by term.

    s is pi on exponent vectors, an involution, and pi(top - v) =
    top - pi(v) since pi preserves the exponents, so s(L - j) = L - s(j).
    By (c), delta S(t) = s_coef[L] delta(t) has its term with left factor
    x_j at k = L - j:
      s_coef[L] g[L - j] x_j (x) x_{L - s(j)}.
    delta^op(t) = sum_k g[k] x_{s(k)} (x) x_{L-k}, and S (x) S sends its term
    k = j to
      g[j] s_coef[L - j] s_coef[s(j)] x_j (x) x_{L - s(j)},
    since s(s(j)) = j.  Each side has one term per left index j, and the
    two terms with left index j sit at the same pair, so no terms add up and
    the sides agree exactly when, for every j,
      s_coef[L] g[L - j] = g[j] s_coef[L - j] s_coef[s(j)],
    zeros included: a term with coefficient 0 is absent from its side.
    """
    P = B.presentation
    field, g, s_coef = P.field, B.g, B.s_coef
    mul = field._mul
    if s_coef[0] != field.one.value:
        return False, {"v": list(P.zero_vec), "at": "epsilon"}
    lhs = list(map(mul, itertools.repeat(s_coef[-1]), reversed(g)))
    rhs = list(map(mul, g, map(mul, reversed(s_coef), map(s_coef.__getitem__, B.s_img))))
    return _verdict(lhs == rhs, {"v": list(P.top), "at": "delta"})


def _antipode_definition(B: BfaStructure) -> tuple:
    """S(x) = sum phi(t_1 x) t_2.

    phi = x_top^*, and x_u x_v has the support top exactly when u is the
    complement top - v, whose index is L - index(v); there
    phi(x_u x_v) = bracket(top - v, v), table[i] (_socle_brackets).  So
    row v = basis[i] sums the terms of delta(t) with left factor L - i,
    times table[i]: by (c) the one term g[i] x_{s(i)}.  It is compared
    with S(x_v) = s_coef[i] x_{s(i)}: the row passes when
    table[i] g[i] = s_coef[i], both zero included.
    """
    P = B.presentation
    field = P.field
    actual = list(map(field._mul, _socle_brackets(P), B.g))
    if actual == B.s_coef:
        return True, None
    basis = P.basis()

    def element(i, x):
        """x x_{s(i)} as text."""
        zero = field._is_zero(x)
        return P.element_to_string({} if zero else {basis[B.s_img[i]]: Scalar(field, x)})

    return _first(basis, lambda i: actual[i] != B.s_coef[i] and {
        "expected": element(i, B.s_coef[i]),
        "actual": element(i, actual[i]),
    })


_AXIOMS = {
    "counit-algebra-map": _fixed_by_presentation,
    "unit-comultiplication": _fixed_by_presentation,
    "coassociativity": _coassociativity,
    "counit-law": _counit_law,
    "frobenius-pairing": _fixed_by_presentation,
    "frobenius-copairing": _frobenius_copairing,
    "antipode-antihomomorphism": _antipode_antihomomorphism,
    "antipode-coalgebra-antihomomorphism": _antipode_coalgebra_antihomomorphism,
    "antipode-definition": _antipode_definition,
}

AXIOM_CHECKS = tuple(_AXIOMS)


def verify_axioms(B: BfaStructure) -> VerificationReport:
    """The defining axioms, every basis pair decided exactly.

    unit-comultiplication, counit-algebra-map and frobenius-pairing hold
    for every structure (_fixed_by_presentation), and the checks that read
    delta are decided on g (the module docstring).  The anti-homomorphism
    check passes on its generator pairs alone and scans the rest only to
    locate a failure.  Pairs are visited in basis order, row u before row
    u', so a failure names the first failing pair of the whole dim x dim
    grid.
    """
    return VerificationReport([CheckResult(name, *check(B)) for name, check in _AXIOMS.items()])


# -- derived checks ---------------------------------------------------------------


class _Shared:
    """The values the derived checks share, computed once.

    c_0 = g[0] and c_L = g[L], the coefficients of t (x) 1 and 1 (x) t in
    delta(t).  s2 and s4 are the coefficient lists of S^2 and S^4: s is an
    involution (BfaStructure), so S^2(x_v) = s_coef[i] s_coef[s(i)] x_v and
    S^4(x_v) = s2[i]^2 x_v, v = basis[i], each 0 when its coefficient is.
    h_v = prod_k h_{e_k}^{v_k}.
    """

    def __init__(self, B: BfaStructure):
        P, mul = B.presentation, B.presentation.field._mul
        self.c0, self.cL = B.g[0], B.g[-1]
        self.s2 = list(map(mul, B.s_coef, map(B.s_coef.__getitem__, B.s_img)))
        self.s4 = list(map(mul, self.s2, self.s2))
        self.h = _character(P.field, P.h_values(), P.a)


def _power_is(B: BfaStructure, coefs: list, target: list) -> tuple:
    """(passed, detail) of "the power of S with the coefficient list coefs
    (_Shared) sends x_v to target[i] x_v for every v = basis[i]": row v
    compares coefs[i] x_v with target[i] x_v, so it fails exactly when
    coefs[i] != target[i]."""
    if coefs == target:
        return True, None
    return _first(B.presentation.basis(), lambda i: coefs[i] != target[i])


def _square_is_nakayama(B: BfaStructure, d: _Shared, c) -> tuple:
    """(passed, detail) of "S^2(x_v) = h_v x_v for every v", with S^2(t)
    scaled by the payload c."""
    scaled = d.s2[:-1] + [B.presentation.field._mul(c, d.s2[-1])]
    return _power_is(B, scaled, d.h)


def _fourth_power_is(B: BfaStructure, d: _Shared, c) -> tuple:
    """(passed, detail) of "S^4(x_v) = x_v for every v", with the x_v of t
    scaled by the payload c."""
    P = B.presentation
    return _power_is(B, d.s4, [P.field.one.value] * (P.dim - 1) + [c])


def _unit_via_copairing(B: BfaStructure, d: _Shared) -> tuple:
    """1 = t <- phi.  t <- phi sums the right factors of the terms of
    delta(t) with left factor t, which by (c), (d) is the one term
    c_0 t (x) 1: t <- phi = c_0 1."""
    P = B.presentation
    field, c0 = P.field, d.c0
    if c0 == field.one.value:
        return True, None
    value = {} if field._is_zero(c0) else {P.zero_vec: Scalar(field, c0)}
    return False, {"value": P.element_to_string(value)}


def _modular_element(B: BfaStructure, d: _Shared) -> tuple:
    """m = phi -> t is group-like (and 1 in characteristic 0).

    phi -> t sums the left factors of the terms of delta(t) with right
    factor t, which by (c), (d) is the one term c_L 1 (x) t: m = c_L 1.  So
    epsilon(m) = c_L, and the check fails at "epsilon" unless c_L = 1.  Then
    m = 1, which lies in the basis, is 1 in every characteristic, and is
    group-like by (a).
    """
    return _verdict(d.cL == B.presentation.field.one.value, {"at": "epsilon"})


def _antipode_of_modular_element(B: BfaStructure, d: _Shared) -> tuple:
    """S(m) = m^{-1}.  m = c_L 1 (modular-element) has no inverse when
    c_L = 0.  Otherwise m^{-1} = c_L^{-1} 1, and S(m) = c_L s_coef[0] 1,
    since s fixes 1."""
    field, cL = B.presentation.field, d.cL
    if field._is_zero(cL):
        return False, None
    return field._mul(cL, B.s_coef[0]) == field._inv(cL), None


def _nakayama_via_antipode(B: BfaStructure, d: _Shared) -> tuple:
    """N(x) = m^{-1} S^2(alpha -> x) m.

    m = c_L 1 (modular-element): with c_L = 0 there is no m^{-1}, and the
    check fails at "modular-inverse".  Otherwise m^{-1} x m = x.
    alpha = epsilon (_fixed_by_presentation), and epsilon -> x_v is x_v on
    every row but t, and c_0 t at t (counit-law).  So row v compares
    S^2(x_v) with N(x_v) = h_v x_v, as antipode-square-is-nakayama, with
    S^2(t) scaled by c_0.
    """
    if B.presentation.field._is_zero(d.cL):
        return False, {"at": "modular-inverse"}
    return _square_is_nakayama(B, d, d.c0)


def _fourth_power_formula(B: BfaStructure, d: _Shared) -> tuple:
    """S^4(x) = m (alpha^{-1} -> x <- alpha) m^{-1}.

    With c_L = 0 there is no m^{-1}, and the check fails at
    "modular-inverse", as nakayama-via-antipode does.  Otherwise
    m x m^{-1} = x.  alpha = epsilon (_fixed_by_presentation), and
    x_v <- epsilon is x_v on every row but t, and c_L t at t (counit-law).
    So the convolution system (alpha * f)(x_v) = epsilon(x_v) for
    f = alpha^{-1}, which reads sum over the terms c x_w of x_v <- alpha of
    c f(x_w) = [v = 0], is diagonal with the nonzero entries 1 and c_L,
    and alpha^{-1} = epsilon.  epsilon -> (c_L t) = c_0 c_L t.  So row v
    compares S^4(x_v) with x_v, as antipode-fourth-power-identity, with the
    t of row t scaled by c_0 c_L.
    """
    field = B.presentation.field
    if field._is_zero(d.cL):
        return False, {"at": "modular-inverse"}
    return _fourth_power_is(B, d, field._mul(d.c0, d.cL))


def _nonzero_coefficients(B: BfaStructure, d: _Shared) -> tuple:
    """antipode-graded, S preserves total degree, and antipode-monomial, the
    image map is an involution of the basis fixing top: each fails at the
    first zero coefficient and nowhere else.

    S(x_v) = s_coef[v] x_{s(v)}, and pi(v) has the coordinates of v,
    permuted, so x_{s(v)} has the degree of x_v.  pi is an involution of
    the generators preserving the exponents (check_witness), so s is an
    involution of the basis fixing t.
    """
    field = B.presentation.field
    if field.zero.value not in B.s_coef:
        return True, None
    return _first(B.presentation.basis(), lambda i: field._is_zero(B.s_coef[i]))


def _antipode_square_is_nakayama(B: BfaStructure, d: _Shared) -> tuple:
    """S^2 = N, the Nakayama automorphism in closed form: x_v |-> h_v x_v."""
    return _square_is_nakayama(B, d, B.presentation.field.one.value)


def _antipode_fourth_power_identity(B: BfaStructure, d: _Shared) -> tuple:
    """S^4 = id."""
    return _fourth_power_is(B, d, B.presentation.field.one.value)


def _antipode_fixes_integral(B: BfaStructure, d: _Shared) -> tuple:
    """S(t) = t: S(t) = s_coef[L] t, since s fixes t."""
    return B.s_coef[-1] == B.presentation.field.one.value, None


def _nakayama_involutive(B: BfaStructure, d: _Shared) -> tuple:
    """h_v^2 = 1 for every v, so N is an involution.

    Certificate on the generators.  h_v = prod_i h_{e_i}^{v_i}, so every
    h_v^2 = 1 when every h_{e_k}^2 = 1.  Otherwise let k be the largest
    index with h_{e_k}^2 != 1.  The basis vectors before e_k in basis order
    are the v with v_i = 0 for every i <= k, and their h_v^2 is a product of
    the h_{e_i}^2 = 1 with i > k.  So the first failing v is e_k, and the
    detail names h_{e_k}.
    """
    P, field = B.presentation, B.presentation.field
    for k, h in reversed(list(enumerate(P.h_values(), start=1))):
        if field._mul(h, h) != field.one.value:
            return False, {"v": list(P.unit_vec(k)), "h": str(Scalar(field, h))}
    return True, None


_DERIVED = {
    "counit-via-integral": _fixed_by_presentation,
    "socle-pairing-normalized": _fixed_by_presentation,
    "right-integral": _fixed_by_presentation,
    "integral-space-dimension": _fixed_by_presentation,
    "unimodularity": _fixed_by_presentation,
    "unit-via-copairing": _unit_via_copairing,
    "left-modular-functional": _fixed_by_presentation,
    "modular-element": _modular_element,
    "antipode-of-modular-element": _antipode_of_modular_element,
    "nakayama-via-antipode": _nakayama_via_antipode,
    "fourth-power-formula": _fourth_power_formula,
    "antipode-graded": _nonzero_coefficients,
    "antipode-square-is-nakayama": _antipode_square_is_nakayama,
    "antipode-fourth-power-identity": _antipode_fourth_power_identity,
    "antipode-fixes-integral": _antipode_fixes_integral,
    "nakayama-involutive": _nakayama_involutive,
    "antipode-monomial": _nonzero_coefficients,
}

DERIVED_CHECKS = tuple(_DERIVED)


def verify_derived(B: BfaStructure) -> VerificationReport:
    """The derived identities.  The checks share c_0, c_L and the powers of
    S (_Shared).  alpha = t -> phi is the counit (_fixed_by_presentation),
    so alpha -> x and x <- alpha are the coactions of epsilon = x_0^*."""
    shared = _Shared(B)
    return VerificationReport(
        [CheckResult(name, *check(B, shared)) for name, check in _DERIVED.items()]
    )


def is_hopf_comultiplication(B: BfaStructure) -> bool:
    """Whether delta is multiplicative for the componentwise tensor product:
    exactly when a = (2, 2), the characteristic is 2, pi = id and every g
    is 1.

    The pairs (x_u, x_v) with v in {0, e_1, ..., e_n} imply every pair by
    induction on |v|; |v| = 0 is the pair (u, 0).  For |v| > 0 let k be the
    last index with v_k > 0 and v' = v - e_k, so that x_v = x_{v'} x_k
    exactly.  With x_u x_{v'} = c x_w (c = 0 allowed):
      delta(x_u x_v) = c delta(x_w x_k) = c delta(x_w) delta(x_k)   pair (w, e_k)
                     = delta(x_u x_{v'}) delta(x_k)
                     = delta(x_u) delta(x_{v'}) delta(x_k)          induction
                     = delta(x_u) delta(x_v)                        pair (v', e_k)
    which uses only that A (x) A is associative.  The pairs (u, 0) and
    (0, e_k) hold by (a).  For a middle u, x_u x_k is b x_w with
    w = u + e_k and b = bracket(u, e_k) nonzero, or 0 when w leaves the
    basis, and by (b)
      delta(x_u) delta(x_k) = 1 (x) x_u x_k + x_u x_k (x) 1
                              + x_u (x) x_k + x_k (x) x_u.
    Unless w = top, delta(x_u x_k) is the first two terms, by (b), so the
    pair holds exactly when x_u (x) x_k + x_k (x) x_u = 0: never for
    u != e_k, two distinct terms with coefficient 1, and for u = e_k, where
    it reads 2 x_k (x) x_k = 0, exactly in characteristic 2.

    The presentation forces n >= 2 and every a_i >= 2, so every e_j is
    middle.  Unless a = (2, 2) there are j != k with e_j + e_k != top, and
    the pair (e_j, e_k) fails.  Let a = (2, 2): the basis is 1, x_2, x_1, t
    and L = 3.  The pairs (e_k, e_k) hold exactly in characteristic 2, and
    the only such field of qci is GF(2), in which every bracket is 1.
    There the pairs (e_1, e_2) and (e_2, e_1), with w = top, hold exactly
    when
      delta(t) = t (x) 1 + x_1 (x) x_2 + x_2 (x) x_1 + 1 (x) t.
    By (c), delta(t) = g[0] t (x) 1 + g[1] x_1 (x) x_{s(1)}
    + g[2] x_2 (x) x_{s(2)} + g[3] 1 (x) t, which is that exactly when
    s(1) = 1, that is pi = id, and every g is 1.  Then the pairs (t, e_k)
    hold: t x_k = 0, and delta(t) delta(x_k) holds t (x) x_k and
    x_k (x) t twice each, once from t (x) 1 or 1 (x) t and once from a
    middle term, so it vanishes in characteristic 2.
    """
    P, one = B.presentation, B.presentation.field.one.value
    return (
        P.a == (2, 2)
        and P.field.characteristic() == 2
        and B.witness.pi(1) == 1
        and all(x == one for x in B.g)
    )


def primitive_space_dim(B: BfaStructure) -> int:
    """Dimension of {x : delta(x) = 1 (x) x + x (x) 1}, computed exactly:
    dim - 1, less 1 unless delta(t) = 1 (x) t + t (x) 1.

    The column delta(x_v) - 1 (x) x_v - x_v (x) 1 vanishes on a middle row
    (b), and at 1 it is -(1 (x) 1) (a).  At t it is, by (c), (d),
    (c_L - 1) 1 (x) t + (c_0 - 1) t (x) 1 + sum g_k x_{L-k} (x) x_{s(k)} over
    the middle k, with no term at 1 (x) 1.  Nonzero columns on disjoint
    supports are independent, so the rank is 1, plus 1 when the column of
    t is nonzero: unless c_0 = c_L = 1 and every middle g is 0.
    """
    P = B.presentation
    field, g = P.field, B.g
    one = field.one.value
    primitive_t = g[0] == one == g[-1] and all(map(field._is_zero, g[1:-1]))
    return P.dim - 1 - (not primitive_t)


def negate_socle_entry(B: BfaStructure, v) -> BfaStructure:
    """A copy of B with the socle coefficient at v negated in g, and so in
    delta(t), which B.row reads from g.

    The antipode table is left untouched, so the definition check must
    notice the inconsistency at exactly v.
    """
    g = list(B.g)
    i = B.presentation.index(tuple(v))
    g[i] = B.presentation.field._neg(g[i])
    return dataclasses.replace(B, g=g)
