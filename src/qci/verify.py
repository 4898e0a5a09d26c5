"""Exhaustive exact verification of a constructed structure.

Every check decides every basis vector (or every basis pair), by
evaluation or by a proof in a docstring; nothing is sampled and every
comparison is exact.  A pair check evaluates only the pairs on which one
of its sides can be nonzero; on the rest both sides vanish by the
supports of the tables.  The antipode anti-homomorphism is decided on
the n dim pairs (x_u, x_k) with x_k a generator, which imply every pair
by induction on word length; only when that certificate fails are the
other pairs scanned, to name the first failing one.  The Hopf flag is
decided the same way, on the pairs (x_u, 1) and (x_u, x_k).  Failures
carry a replayable counterexample.

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
verdict and the detail are those of evaluating it term by term.  Only
antipode-coalgebra-antihomomorphism and the Hopf flag sum delta(t).  The
checks compare payloads, and build a Scalar only for a failure detail.
S, S^2, S^4 and h_v are payload arrays composed once (_Shared), since S
sends each monomial to a multiple of one monomial.

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


def _add_value(field, out: dict, key, term) -> None:
    """out[key] += term on payloads, dropping the entry when it cancels."""
    acc = out.get(key)
    acc = term if acc is None else field._add(acc, term)
    if field._is_zero(acc):
        out.pop(key, None)
    else:
        out[key] = acc


def _delta(field, row, x: dict) -> dict:
    """delta(x) on index pairs, for x a payload dict on basis indices and row
    the row accessor of the structure (BfaStructure.row)."""
    mul = field._mul
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in row(v):
            _add_value(field, out, (u, w), mul(c, coeff))
    return out


def _tensor_mul(P: Presentation, s: dict, t: dict) -> dict:
    """Componentwise product on the tensor square of payload dicts keyed by
    index pairs: x_u1 (x) x_w1 times x_u2 (x) x_w2 is bracket(u1, u2)
    bracket(w1, w2) x_{u1+u2} (x) x_{w1+w2}, and 0 when a sum leaves the
    basis."""
    field, basis, index, bracket = P.field, P.basis(), P.positions(), P.bracket_value
    mul = field._mul
    out: dict = {}
    for (u1, w1), c1 in s.items():
        u1, w1 = basis[u1], basis[w1]
        for (u2, w2), c2 in t.items():
            u2, w2 = basis[u2], basis[w2]
            u = index.get(tuple(map(operator.add, u1, u2)))
            w = index.get(tuple(map(operator.add, w1, w2)))
            if u is not None and w is not None:
                c = mul(mul(mul(c1, c2), bracket(u1, u2)), bracket(w1, w2))
                _add_value(field, out, (u, w), c)
    return out


def _character(field, chi, a) -> list:
    """prod_k chi_k^{v_k} as payloads, for v over the basis of the box a in
    basis order, chi a sequence of payloads.  A coordinate whose chi_k is 1
    repeats entries instead of multiplying them: the table is built from the
    first chi_k != 1 on and then repeated for the coordinates before it."""
    mul, one = field._mul, field.one.value
    lead = next((k for k, c in enumerate(chi) if c != one), len(chi))
    out = [one]
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
    bracket(top, e_k) psi_k(p)^{-1}, tabulated by _character: one _mul per
    entry, and the ratio tables are together no longer than the result.
    """
    field, units = P.field, [P.unit_vec(k) for k in range(1, P.n + 1)]
    mul, inv, bracket, one = field._mul, field._inv, P.bracket_value, field.one.value
    out = [one]
    for k, (ek, ak) in enumerate(zip(units, P.a)):
        psi = [inv(mul(bracket(ei, ek), bracket(ek, ei))) for ei in units[:k]]
        step = bracket(P.top, ek)
        ratios = (mul(step, r) for r in _character(field, psi, P.a[:k]))
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

    The brackets of the certificate pairs come from tables built once: the
    bracket is multiplicative in each argument, so bracket(., e_k) and
    bracket(S(e_k), .) are characters on the basis, with the values
    bracket(e_j, e_k) and bracket(S(e_k), e_j) on the generators (_character).
    S sends x_k to a multiple of the generator x_{pi(k)}, so the sums
    u + e_k and s(e_k) + s(u) are indices (certified).

    When the certificate fails, the scan below decides every pair that can
    fail and names the first failing one.  The left side vanishes unless
    u + v lies in the basis, that is unless v lies in box(u), and so does
    the right side: s(v) + s(u) = pi(u + v), since pi permutes the
    coordinates and preserves the exponents.  Each row visits box(u) in
    basis order.
    """
    P = B.presentation
    basis, index = P.basis(), P.positions()
    s_img, s_coef = B.s_img, B.s_coef
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
        """The certificate pairs (u, e_k), on indices: u + e_k is
        i + index(e_k) when u_k < a_k - 1, and s(e_k) + s(u) is
        s_img[i] + index(e_m) when S(x_k) sits at e_m and s(u)_m < a_m - 1."""
        units = [P.unit_vec(k) for k in range(1, P.n + 1)]
        generators = [index[e] for e in units]
        for k, g in enumerate(generators):
            sg, cg = s_img[g], s_coef[g]
            m = generators.index(sg)
            lk = _character(field, [bracket(f, units[k]) for f in units], P.a)
            rk = _character(field, [bracket(units[m], f) for f in units], P.a)
            ak, am = P.a[k] - 1, P.a[m] - 1
            for i, u in enumerate(basis):
                lhs = rhs = None
                if u[k] < ak and not is_zero(s_coef[i + g]):
                    lhs = (s_img[i + g], mul(s_coef[i + g], lk[i]))
                ku = s_img[i]
                if basis[ku][m] < am:
                    c = mul(cg, s_coef[i])
                    if not is_zero(c):
                        rhs = (ku + sg, mul(c, rk[ku]))
                if lhs != rhs:
                    return False
        return True

    if s_coef[0] != field.one.value:
        return False, {"at": "S(1)"}
    if certified():
        return True, None
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
    which is delta S(x_v).  So only row t is summed, term by term.
    """
    P = B.presentation
    field, s_img, s_coef = P.field, B.s_img, B.s_coef
    mul = field._mul
    if s_coef[0] != field.one.value:
        return False, {"v": list(P.zero_vec), "at": "epsilon"}
    coef, lhs, rhs = s_coef[-1], {}, {}
    for u, w, c in B.row(len(s_img) - 1):
        _add_value(field, lhs, (u, w), mul(coef, c))
        _add_value(field, rhs, (s_img[w], s_img[u]), mul(mul(c, s_coef[u]), s_coef[w]))
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
    field, basis = P.field, P.basis()
    actual = list(map(field._mul, _socle_brackets(P), B.g))
    if actual == B.s_coef:
        return True, None

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
    delta(t).  Entry i of S, S^2 or S^4 is (index of w, c) when the power
    sends x_v, v = basis[i], to c x_w, c != 0, and () when it sends x_v to
    0.  S(x_v) is one term, so S^4 = S^2 S^2 entry by entry.
    h_v = prod_k h_{e_k}^{v_k}.
    """

    def __init__(self, B: BfaStructure):
        P, field = B.presentation, B.presentation.field
        self.c0, self.cL = B.g[0], B.g[-1]

        def then(first: list, second: list) -> list:
            out = []
            for term in first:  # () stays
                image = term and second[term[0]]
                out.append(image and (image[0], field._mul(term[1], image[1])))
            return out

        self.s1 = [() if field._is_zero(c) else (w, c) for w, c in zip(B.s_img, B.s_coef)]
        self.s2 = then(self.s1, self.s1)
        self.s4 = then(self.s2, self.s2)
        self.h = _character(field, P.h_values(), P.a)


def _scaled(field, term, c):
    """The term (w, x) of a power of S times the payload c, () when it vanishes."""
    if not term or c == field.one.value:
        return term
    return () if field._is_zero(c) else (term[0], field._mul(c, term[1]))


def _square_is_nakayama(B: BfaStructure, d: _Shared, c) -> tuple:
    """(passed, detail) of "S^2(x_v) = h_v x_v for every v", with S^2(t)
    scaled by the payload c."""
    P = B.presentation
    s2, h, last = d.s2, d.h, P.dim - 1
    top = _scaled(P.field, s2[last], c)
    return _first(P.basis(), lambda i: (s2[i] if i < last else top) != (i, h[i]))


def _fourth_power_is(B: BfaStructure, d: _Shared, c) -> tuple:
    """(passed, detail) of "S^4(x_v) = x_v for every v", with the x_v of t
    scaled by the payload c."""
    P = B.presentation
    s4, last, one = d.s4, P.dim - 1, P.field.one.value
    top = _scaled(P.field, (last, one), c)
    return _first(P.basis(), lambda i: s4[i] != ((i, one) if i < last else top))


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
    is_zero = B.presentation.field._is_zero
    return _first(B.presentation.basis(), lambda i: is_zero(B.s_coef[i]))


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
    """Whether delta is multiplicative for the componentwise tensor product.

    Decided on the pairs (u, v) with v in {0, e_1, ..., e_n}, u in basis
    order, stopping at the first failing pair.  These imply every pair by
    induction on |v|; |v| = 0 is the pair (u, 0).  For |v| > 0 let k be the
    last index with v_k > 0 and v' = v - e_k, so that x_v = x_{v'} x_k
    exactly.  With x_u x_{v'} = c x_w (c = 0 allowed):
      delta(x_u x_v) = c delta(x_w x_k) = c delta(x_w) delta(x_k)   pair (w, e_k)
                     = delta(x_u x_{v'}) delta(x_k)
                     = delta(x_u) delta(x_{v'}) delta(x_k)          induction
                     = delta(x_u) delta(x_v)                        pair (v', e_k)
    which uses only that A (x) A is associative, so the claim holds for any
    linear map delta: A -> A (x) A.
    The certificate pairs are pairs of the grid, so the flag is the one of
    the exhaustive dim x dim scan, from at most (n + 1) dim pairs, each one
    _tensor_mul call on payload dicts.
    """
    P = B.presentation
    field, basis, index = P.field, P.basis(), P.positions()
    one = field.one.value
    factors = [0] + [index[P.unit_vec(k)] for k in range(1, P.n + 1)]
    deltas = [(basis[j], _delta(field, B.row, {j: one})) for j in factors]
    for i, u in enumerate(basis):
        du = _delta(field, B.row, {i: one})
        for v, dv in deltas:
            w = index.get(tuple(map(operator.add, u, v)))
            lhs = {} if w is None else _delta(field, B.row, {w: P.bracket_value(u, v)})
            if lhs != _tensor_mul(P, du, dv):
                return False
    return True


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
