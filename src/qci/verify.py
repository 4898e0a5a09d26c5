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

The checks read delta and S as the structure stores them (BfaStructure):
rows of (key, key, payload) terms, an image array and a payload array.
B.rows holds every row that differs from the one the construction writes,
and B.row(i) reads any row: 1 (x) 1 at 0, delta(t) from g and the S images
at the last index, and the primitive row 1 (x) x_v + x_v (x) 1 in between.
The checks compare payloads, and build a Scalar or a tuple only for a
failure detail; a check that would expand a delta factor or an S image off
the basis, which is its own key, fails at "off-basis".  S, S^2, S^4 and h_v
are payload arrays composed once (_Shared), since S sends each monomial to
a multiple of one monomial; conjugation by m is a scaling when m is a
constant (_conjugation).

One premise, decided once: whether delta has the shape the construction
writes (_construction_shape).  No row is stored, so delta(1) = 1 (x) 1,
every middle row is primitive and delta(t) = sum_v g_v x_{a-1-v} (x)
x_{pi(v)} as B.row reads it from g and the S images; g is 1 at 1 and t and
nowhere zero, and the images are a permutation of the basis fixing 1 and
t.  Every structure that build_structure or load_structure makes has it.
verify_axioms passes it to its checks, and _Shared holds it for the
derived ones.  Its docstring proves what it implies:
  - coassociativity, counit-law and frobenius-copairing pass, and
    primitive_space_dim is dim - 2;
  - a row of antipode-definition is one comparison of g times a bracket
    with the S coefficient, the brackets from a table built from the
    brackets of generators (_socle_brackets), not from the builder's
    Presentation.quadratic_table;
  - m = 1 and alpha^{-1} = epsilon, so nakayama-via-antipode and
    fourth-power-formula read as antipode-square-is-nakayama and
    antipode-fourth-power-identity.
Outside the shape these evaluate plainly, through B.row and _hit, so no
verdict or detail depends on the shape.  antipode-coalgebra-antihomomorphism
reads the rows instead: a primitive row whose S image is primitive passes
unexpanded, by its docstring.  So a built structure sums delta(t) only in
antipode-coalgebra-antihomomorphism, and calls no rref.

Nine checks read only the presentation and the functionals it fixes: the
counit epsilon = x_0^*, phi = x_top^* and the integral t = x_top.  Eight
of them hold for every presentation and pass by the proofs in
_fixed_by_presentation, with no evaluation: counit-algebra-map,
frobenius-pairing, counit-via-integral, socle-pairing-normalized,
right-integral, integral-space-dimension, unimodularity and
left-modular-functional.  The ninth, nakayama-involutive, is decided on
the n generators.

Each check is one private function returning (passed, detail).  It stops at
its first failure, in basis order (pairs row by row), and the detail names
that failure, or is None when the check passed.  The checks are listed
once, in report order, in the tables _AXIOMS and _DERIVED; AXIOM_CHECKS and
DERIVED_CHECKS are their names.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field

from .algebra import Presentation, monomial_name
from .builder import BfaStructure, key_of, vector_of
from .errors import NotInvertibleError, SingularMatrixError
from .linalg import add_term, rref, solve_sparse
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


# -- the tables on keys and payloads ----------------------------------------------


def _add_value(field, out: dict, key, term) -> None:
    """out[key] += term on payloads, dropping the entry when it cancels, as add_term."""
    acc = out.get(key)
    acc = term if acc is None else field._add(acc, term)
    if field._is_zero(acc):
        out.pop(key, None)
    else:
        out[key] = acc


def _delta(field, row, x: dict) -> dict:
    """delta(x) on key pairs, for x a payload dict on basis indices and row
    the row accessor of the structure (BfaStructure.row)."""
    mul = field._mul
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in row(v):
            _add_value(field, out, (u, w), mul(c, coeff))
    return out


def _hit(field, row, f: dict, x: dict, left: bool) -> dict:
    """f -> x = sum x_1 f(x_2) when left, else x <- f = sum f(x_1) x_2, with
    f and x payload dicts on keys, x on the basis, and row the row accessor
    of the structure: the one implementation of both coactions."""
    mul = field._mul
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in row(v):
            key, arg = (u, w) if left else (w, u)
            fv = f.get(arg)
            if fv is not None:
                _add_value(field, out, key, mul(mul(c, coeff), fv))
    return out


def _element(P: Presentation, x: dict) -> dict:
    """The Scalar element, keyed by vectors, of a payload dict on keys."""
    return {vector_of(P, k): Scalar(P.field, c) for k, c in x.items()}


def _tensor_mul(P: Presentation, s: dict, t: dict) -> dict:
    """Componentwise product on the tensor square of payload dicts keyed by
    key pairs: x_u1 (x) x_w1 times x_u2 (x) x_w2 is bracket(u1, u2)
    bracket(w1, w2) x_{u1+u2} (x) x_{w1+w2}, and 0 when a sum leaves the
    basis."""
    field, index, bracket = P.field, P.positions(), P.bracket_value
    mul = field._mul
    out: dict = {}
    for (u1, w1), c1 in s.items():
        u1, w1 = vector_of(P, u1), vector_of(P, w1)
        for (u2, w2), c2 in t.items():
            u2, w2 = vector_of(P, u2), vector_of(P, w2)
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


# -- the shape of delta ----------------------------------------------------------


def _construction_shape(B: BfaStructure) -> bool:
    """Whether delta is the one the construction writes, the premise of
    every check that passes or shortens by its shape.

    With last = dim - 1, the shape is three conditions, none of which walks
    the terms of delta(t):
      (i)   B.rows is empty, so every row is the one B.row reads;
      (ii)  g[0] = g[last] = 1, and no g is zero;
      (iii) s_img[0] = 0, s_img[last] = last, and s_img, which has dim
            entries, holds every index once.
    The clauses the proofs below read follow from how B.row spells the rows:
      (a) every middle row is primitive, by (i);
      (b) delta(1) = 1 (x) 1, by (i);
      (c) delta(t) lists its terms as (last - k, s_img[k], g[k]),
          k = 0 .. last, by (i), so its left factors run down the basis,
          each once;
      (d) its right factors s_img[k] are the basis, each once, by (iii);
      (e) term 0 is (last, 0, 1) and term last is (0, last, 1): t (x) 1 and
          1 (x) t, by (ii), (iii), so no other term has a factor at 0 or
          last, by (c), (d);
      (f) every coefficient c_k = g[k] is nonzero, by (ii).
    So delta(t) = 1 (x) t + t (x) 1 + sum c_k x_L (x) x_R over the middle k,
    with x_L and x_R primitive by (a).  Then:
      coassociativity: delta(1) = 1 (x) 1 by (b), and a primitive row gives
        1(x)1(x)x_v + 1(x)x_v(x)1 + x_v(x)1(x)1 on both sides.  At t,
          (delta (x) id) delta(t) = 1(x)1(x)t + delta(t) (x) 1 + sum c delta(x_L) (x) x_R
          (id (x) delta) delta(t) = 1 (x) delta(t) + t(x)1(x)1 + sum c x_L (x) delta(x_R)
        are, term for term, 1(x)1(x)t + 1(x)t(x)1 + t(x)1(x)1 +
        sum c (1 (x) x_L (x) x_R + x_L (x) 1 (x) x_R + x_L (x) x_R (x) 1),
        whatever the c are.  So it passes.
      counit-law, and alpha^{-1} = epsilon: epsilon = x_0^*, so
        epsilon -> x_v and x_v <- epsilon sum the terms of row v with right,
        resp. left, factor 0.  Row 0 has the one term 1 (x) 1, a primitive
        row x_v (x) 1 and 1 (x) x_v, and delta(t) t (x) 1 and 1 (x) t by (e),
        so epsilon -> x_v = x_v = x_v <- epsilon for every v, and
        counit-law passes.  alpha = epsilon (_fixed_by_presentation), so the
        convolution system of alpha^{-1} is the identity, and
        alpha^{-1} = epsilon.
      m = 1: m = phi -> t sums the terms of delta(t) with right factor t,
        which by (d), (e) is the one term 1 (x) t, so m = m^{-1} = 1.
      frobenius-copairing: row last - k of the matrix of w |-> t <- x_w^*
        holds c_k at column s_img[k] and nothing else, by (c), so by (d),
        (f) it is a generalized permutation matrix of rank dim, and it passes.
      primitive_space_dim: the column delta(x_v) - 1 (x) x_v - x_v (x) 1
        vanishes on a primitive row; at 1 it is -(1 (x) 1), and at t the
        middle terms of delta(t), nonzero by (f) since dim >= 4, none at
        (0, 0).  Nonzero columns on disjoint supports have rank 2, so the
        space has dimension dim - 2.
      antipode-definition: row v = basis[i] sums the terms of delta(t) with
        left factor complement(v), index last - i, which by (c) is the one
        term k = i.  With table[i] = bracket(top - v, v) (_socle_brackets)
        that sum is table[i] g[i] x_{s_img[i]}, nonzero by (f), so the row
        is the one comparison of table[i] g[i] with s_coef[i].
    """
    P, g, s_img = B.presentation, B.g, B.s_img
    field, last = P.field, P.dim - 1
    one = field.one.value
    return (
        not B.rows
        and g[0] == one == g[last]
        and (s_img[0], s_img[last]) == (0, last)
        and not any(map(field._is_zero, g))
        and set(s_img) == set(range(P.dim))
    )


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


def _fixed_by_presentation(B: BfaStructure, shared) -> tuple:
    """Passes, with no detail, for every structure.

    The eight checks that point here read only the presentation and the
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


def _unit_comultiplication(B: BfaStructure, shape: bool) -> tuple:
    """delta(1) = 1 (x) 1; a failure prints delta(1), its terms in basis order."""
    P, one = B.presentation, B.presentation.field.one.value
    actual = _delta(P.field, B.row, {0: one})
    terms = {(vector_of(P, u), vector_of(P, w)): c for (u, w), c in actual.items()}
    text = " + ".join(
        f"({Scalar(P.field, terms[u, w])})*{monomial_name(u)}(x){monomial_name(w)}"
        for u, w in sorted(terms)
    )
    return _verdict(actual == {(0, 0): one}, {"delta(1)": text or "0"})


def _coassociativity(B: BfaStructure, shape: bool) -> tuple:
    """(delta (x) id) delta = (id (x) delta) delta.  It holds in the shape
    (_construction_shape); otherwise every row is expanded.

    A row holding a factor off the basis fails at "off-basis": delta is no
    map A -> A (x) A there, and the factor has no row to expand.  The rows it
    expands may hold such factors; they are keys like any other.
    """
    if shape:
        return True, None
    field, row = B.presentation.field, B.row
    mul = field._mul

    def fails(i):
        left, right = {}, {}
        for u, w, c in row(i):
            if isinstance(u, tuple) or isinstance(w, tuple):
                return {"at": "off-basis"}
            for p, q, c2 in row(u):
                _add_value(field, left, (p, q, w), mul(c, c2))
            for p, q, c2 in row(w):
                _add_value(field, right, (u, p, q), mul(c, c2))
        return left != right

    return _first(B.presentation.basis(), fails)


def _counit_law(B: BfaStructure, shape: bool) -> tuple:
    """(epsilon (x) id) delta = id = (id (x) epsilon) delta, that is
    x_v <- epsilon = x_v = epsilon -> x_v, with epsilon = x_0^*.  It holds
    in the shape (_construction_shape)."""
    if shape:
        return True, None
    field, one = B.presentation.field, B.presentation.field.one.value
    return _first(
        B.presentation.basis(),
        lambda i: any(
            _hit(field, B.row, {0: one}, {i: one}, left) != {i: one} for left in (False, True)
        ),
    )


def _frobenius_copairing(B: BfaStructure, shape: bool) -> tuple:
    """Rank of w |-> t <- x_w^*, one row per w: dim in the shape
    (_construction_shape), and otherwise from rref.  A factor of delta(t)
    off the basis fails at "off-basis", as in coassociativity."""
    if shape:
        return True, None
    P = B.presentation
    top = B.row(P.dim - 1)
    if any(isinstance(u, tuple) or isinstance(w, tuple) for u, w, _ in top):
        return False, {"v": list(P.top), "at": "off-basis"}
    rows = [{} for _ in range(P.dim)]
    for u, w, c in top:
        add_term(rows[u], w, Scalar(P.field, c))
    r = len(rref(rows))
    return _verdict(r == P.dim, {"rank": r})


def _antipode_antihomomorphism(B: BfaStructure, shape: bool) -> tuple:
    """S(x_u x_v) = S(x_v) S(x_u).

    Generator certificate.  Let S(1) = 1, and let the pair (u, e_k) pass
    for every basis u and generator x_k.  Then every nonzero image S(x_v),
    v != 0, lies in the basis: otherwise the pair (v - e_k, e_k) fails, its
    left side sitting on the off-basis vector and its right side in the
    basis or zero.  Every pair passes, by induction on |v|; |v| = 0 is
    S(1) = 1.  For |v| > 0 let k be the last index with v_k > 0 and
    v' = v - e_k, so that x_v = x_{v'} x_k exactly.  With
    x_u x_{v'} = c x_w (c = 0 allowed):
      S(x_u x_v) = c S(x_w x_k) = c S(x_k) S(x_w)              pair (w, e_k)
                 = S(x_k) S(x_u x_{v'}) = S(x_k) S(x_{v'}) S(x_u)   induction
                 = S(x_{v'} x_k) S(x_u) = S(x_v) S(x_u)        pair (v', e_k)
    The middle steps multiply images as elements of A, which is why the
    nonzero images must lie in the basis.  The generator pairs are pairs
    of the grid, so the certificate fails exactly when some pair fails.

    The brackets of the certificate pairs come from tables built once: the
    bracket is multiplicative in each argument, so bracket(., e_k) and
    bracket(S(e_k), .) are characters on the basis, with the values
    bracket(e_j, e_k) and bracket(S(e_k), e_j) on the generators (_character).
    The certificate is read when every image lies in the basis and S sends
    each generator to a generator, the shape a built or loaded structure
    has; then the sums u + e_k and s(e_k) + s(u) are indices (certified).

    Otherwise, or when the certificate fails, the scan below decides every
    pair that can fail and names the first failing one.  The left side
    vanishes unless v lies in box(u), the right side unless s(v) + s(u)
    lies in the basis; those v are found by probing the image vectors w
    with s(u) + w in the basis, within the bounding box of all images
    (images outside the basis included).  Each row visits the union in
    basis order.
    """
    P = B.presentation
    basis, index = P.basis(), P.positions()
    s_img, s_coef = B.s_img, B.s_coef
    field, bracket = P.field, P.bracket_value
    mul, is_zero = field._mul, field._is_zero

    def antihomomorphic(i, j):
        """S(x_u x_v) == S(x_v) S(x_u) for u, v = basis[i], basis[j], each side
        compared as None (zero) or (key, payload)."""
        u, v = basis[i], basis[j]
        w = index.get(tuple(map(operator.add, u, v)))
        lhs = None
        if w is not None and not is_zero(s_coef[w]):
            lhs = (s_img[w], mul(s_coef[w], bracket(u, v)))
        iu, iv = s_vec[i], s_vec[j]
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
        if set(map(type, s_img)) != {int} or not all(s_img[g] in generators for g in generators):
            return False
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

    if s_img[0] != 0 or s_coef[0] != field.one.value:
        return False, {"at": "S(1)"}
    if certified():
        return True, None
    s_vec = [vector_of(P, k) for k in s_img]
    preimages: dict = {}  # image vector -> basis indices of its preimages
    for j, img in enumerate(s_vec):
        preimages.setdefault(img, []).append(j)
    lo = [min(img[k] for img in preimages) for k in range(P.n)]
    hi = [max(img[k] for img in preimages) for k in range(P.n)]
    for i, u in enumerate(basis):
        iu = s_vec[i]
        box = itertools.product(*(range(ak - uk) for ak, uk in zip(P.a, u)))
        candidates = {index[v] for v in box}  # the v with u + v in the basis
        probe = (
            range(max(lo[k], -iu[k]), min(hi[k], P.a[k] - 1 - iu[k]) + 1)
            for k in range(P.n)
        )
        for w in itertools.product(*probe):
            candidates.update(preimages.get(w, ()))
        for j in sorted(candidates):
            if not antihomomorphic(i, j):
                return False, {"u": list(u), "v": list(basis[j])}
    return True, None


def _antipode_coalgebra_antihomomorphism(B: BfaStructure, shape: bool) -> tuple:
    """epsilon S = epsilon and delta S = (S (x) S) delta^op.

    S(x_v) = c x_w is one term, so epsilon S(x_v) is c when w = 0 and 0
    otherwise.  An image off the basis has no delta row, so the check fails
    there at "delta"; a row of delta holding a factor off the basis fails at
    "off-basis", as in coassociativity.

    Certificate for primitive rows.  Row 0 is decided first, and its
    epsilon test passes only when S(1) = 1.  Let row i and the row of its
    image w be primitive: each of i and w lies strictly between 0 and
    last = dim - 1 and not in B.rows (w an index, since a key off the basis
    has no row).  Then
      (S (x) S) delta^op(x_v) = S(x_v) (x) S(1) + S(1) (x) S(x_v)
                              = c (x_w (x) 1 + 1 (x) x_w) = c delta(x_w),
    which is delta S(x_v), so the row passes without expansion.
    """
    field, row = B.presentation.field, B.row
    s_img, s_coef = B.s_img, B.s_coef
    mul, is_zero = field._mul, field._is_zero
    one, zero = field.one.value, field.zero.value
    expanded = {0, len(s_img) - 1, *B.rows}  # the rows not read as primitive

    def fails(i):
        img, coef = s_img[i], s_coef[i]
        if (coef if img == 0 else zero) != (one if i == 0 else zero):
            return {"at": "epsilon"}
        if isinstance(img, int) and i not in expanded and img not in expanded:
            return None
        rhs: dict = {}
        for u, w, c in row(i):
            if isinstance(u, tuple) or isinstance(w, tuple):
                return {"at": "off-basis"}
            _add_value(field, rhs, (s_img[w], s_img[u]), mul(mul(c, s_coef[u]), s_coef[w]))
        lhs: dict = {}
        if not is_zero(coef):
            if isinstance(img, tuple):
                return {"at": "delta"}
            for u, w, c in row(img):
                _add_value(field, lhs, (u, w), mul(coef, c))
        if lhs != rhs:
            return {"at": "delta"}
        return None

    return _first(B.presentation.basis(), fails)


def _antipode_definition(B: BfaStructure, shape: bool) -> tuple:
    """S(x) = sum phi(t_1 x) t_2.

    phi = x_top^*, and x_u x_v has the support top exactly when u is the
    complement top - v, whose index is dim - 1 - index(v); there
    phi(x_u x_v) = bracket(top - v, v), table[i] (_socle_brackets).  So
    row v = basis[i] sums the terms of delta(t) with left factor
    complement(v), times table[i].  In the shape that is one comparison
    (_construction_shape); a row that fails it is summed for its detail.
    """
    P = B.presentation
    field, basis = P.field, P.basis()
    mul, last = field._mul, len(basis) - 1
    g, s_img, s_coef = B.g, B.s_img, B.s_coef
    table = _socle_brackets(P)
    top = B.row(last)
    by_left: dict = {}  # left factor key -> [(w, c)] over the terms of delta(t)
    for u, w, c in top:
        by_left.setdefault(u, []).append((w, c))

    def fails(i):
        if shape and mul(table[i], g[i]) == s_coef[i]:
            return None
        acc: dict = {}
        for w, c in by_left.get(last - i, ()):
            _add_value(field, acc, w, mul(table[i], c))
        img, coef = s_img[i], s_coef[i]
        expected = {} if field._is_zero(coef) else {img: coef}
        if acc == expected:
            return None
        return {
            "expected": P.element_to_string(_element(P, expected)),
            "actual": P.element_to_string(_element(P, acc)),
        }

    return _first(basis, fails)


_AXIOMS = {
    "counit-algebra-map": _fixed_by_presentation,
    "unit-comultiplication": _unit_comultiplication,
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

    The shape of delta is decided once and passed to every check
    (_construction_shape).  counit-algebra-map and frobenius-pairing hold
    for every presentation (_fixed_by_presentation).  The other pair checks
    evaluate only the pairs where a side can be nonzero given the supports
    of the tables; on every other pair both sides are zero.  The anti-homomorphism check passes on
    its generator pairs alone and scans the rest only to locate a failure.
    Pairs are visited in basis order, row u before row u', so a failure
    names the first failing pair of the whole dim x dim grid.
    """
    shape = _construction_shape(B)
    return VerificationReport(
        [CheckResult(name, *check(B, shape)) for name, check in _AXIOMS.items()]
    )


# -- derived checks ---------------------------------------------------------------


class _Shared:
    """The values the derived checks share, computed once.

    Whether delta has the construction's shape (_construction_shape).
    m = phi -> t, with phi = x_top^* and t = x_top, as a payload dict on keys
    and as a Scalar element, and m^{-1} (None when m is not invertible).
    Entry i of S, S^2 or S^4 is (key of w, c) when the power sends x_v,
    v = basis[i], to c x_w, c != 0, () when it sends x_v to 0, and None when
    S met a vector off the basis.  S(x_v) is one term, so S^4 = S^2 S^2
    entry by entry.  h_v = prod_k h_{e_k}^{v_k}.
    """

    def __init__(self, B: BfaStructure):
        P, field = B.presentation, B.presentation.field
        self.shape = _construction_shape(B)
        top = {P.dim - 1: field.one.value}
        self.m = _hit(field, B.row, top, top, left=True)
        self.modular = _element(P, self.m)
        try:
            self.inv = P.invert_element(self.modular)
        except NotInvertibleError:
            self.inv = None

        def then(first: list, second: list) -> list:
            out = []
            for term in first:  # None and () stay, and a key off the basis gives None
                image = term and (None if isinstance(term[0], tuple) else second[term[0]])
                out.append(image and (image[0], field._mul(term[1], image[1])))
            return out

        self.s1 = [() if field._is_zero(c) else (w, c) for w, c in zip(B.s_img, B.s_coef)]
        self.s2 = then(self.s1, self.s1)
        self.s4 = then(self.s2, self.s2)
        self.h = _character(field, P.h_values(), P.a)


def _apply(field, table: list, x: dict):
    """The power of S in table applied to the payload element x on keys,
    terms that cancel dropped, or None when it is undefined on a key of x."""
    out: dict = {}
    for k, c in x.items():
        term = None if isinstance(k, tuple) else table[k]
        if term is None:
            return None
        if term:
            _add_value(field, out, term[0], field._mul(c, term[1]))
    return out


def _conjugation(P: Presentation, left: dict, right: dict):
    """x |-> left x right on payload elements x on keys, which may lie off
    the basis; left and right are Scalar elements.

    When left and right are constants l 1 and r 1, every bracket with the
    zero vector is 1, so the map is x restricted to the basis (its int
    keys), times l r.  Other elements are multiplied in by Presentation.mul.
    """
    zero, mul = P.zero_vec, P.field._mul
    if left.keys() == {zero} == right.keys():
        c = mul(left[zero].value, right[zero].value)
        return lambda x: {w: mul(cw, c) for w, cw in x.items() if isinstance(w, int)}

    def product(x: dict) -> dict:
        y = P.mul(P.mul(left, _element(P, x)), right)
        return {key_of(P, w): cw.value for w, cw in y.items()}

    return product


def _unit_via_copairing(B: BfaStructure, d: _Shared) -> tuple:
    """1 = t <- phi."""
    P = B.presentation
    last, one = P.dim - 1, P.field.one.value
    recovered = _hit(P.field, B.row, {last: one}, {last: one}, left=False)
    if recovered == {0: one}:
        return True, None
    return False, {"value": P.element_to_string(_element(P, recovered))}


def _modular_element(B: BfaStructure, d: _Shared) -> tuple:
    """m = phi -> t is group-like (and 1 in characteristic 0); a key of m off
    the basis fails at "off-basis", since delta has no row there."""
    field, m = B.presentation.field, d.m
    mul, one = field._mul, field.one.value
    if m.get(0) != one:
        return False, {"at": "epsilon"}
    if any(isinstance(k, tuple) for k in m):
        return False, {"at": "off-basis"}
    square = {(u, w): mul(cu, cw) for u, cu in m.items() for w, cw in m.items()}
    if _delta(field, B.row, m) != square:
        return False, {"at": "grouplike"}
    if field.characteristic() == 0 and m != {0: one}:
        return False, {"at": "char-zero-unit"}
    return True, None


def _antipode_of_modular_element(B: BfaStructure, d: _Shared) -> tuple:
    """S(m) = m^{-1}.  m^{-1} exists only when every key of m lies in the
    basis, where S is read from the arrays."""
    if d.inv is None:
        return False, None
    P = B.presentation
    image: dict = {}
    for k, c in d.m.items():
        _add_value(P.field, image, B.s_img[k], P.field._mul(c, B.s_coef[k]))
    return image == {key_of(P, v): c.value for v, c in d.inv.items()}, None


def _nakayama_via_antipode(B: BfaStructure, d: _Shared) -> tuple:
    """N(x) = m^{-1} S^2(alpha -> x) m.

    alpha -> x_v is epsilon -> x_v, and S is applied to it twice, since its
    terms can cancel in between.  In the shape, epsilon -> x_v = x_v and
    m = m^{-1} = 1 (_construction_shape), so row v reads S^2(x_v) = h_v x_v,
    which is antipode-square-is-nakayama.
    """
    if d.shape:
        return _antipode_square_is_nakayama(B, d)
    P = B.presentation
    if d.inv is None:
        return False, {"at": "modular-inverse"}
    field, s1, h = P.field, d.s1, d.h
    one = field.one.value
    conjugate = _conjugation(P, d.inv, d.modular)

    def fails(i):
        once = _apply(field, s1, _hit(field, B.row, {0: one}, {i: one}, left=True))
        twice = None if once is None else _apply(field, s1, once)
        return twice is None or conjugate(twice) != {i: h[i]}

    return _first(P.basis(), fails)


def _fourth_power_formula(B: BfaStructure, d: _Shared) -> tuple:
    """S^4(x) = m (alpha^{-1} -> x <- alpha) m^{-1}.

    In the shape, alpha^{-1} = epsilon, epsilon -> x_v = x_v = x_v <- epsilon
    and m = m^{-1} = 1 (_construction_shape), so row v reads S^4(x_v) = x_v,
    which is antipode-fourth-power-identity.

    Otherwise alpha = epsilon = x_0^*, so x_v <- alpha is x_v <- epsilon, and
    alpha^{-1} is solved from the convolution system (alpha * g)(x_v) =
    epsilon(x_v), which reads, row by row,
      sum over the terms c x_w of x_v <- alpha of c g(x_w) = [v = 0].
    A surviving term off the basis fails at "off-basis", since g has no
    unknown there, and a singular system at "alpha-inverse".
    """
    if d.shape:
        return _antipode_fourth_power_identity(B, d)
    P = B.presentation
    if d.inv is None:
        return False, {"at": "modular-inverse"}
    field, dim, one = P.field, P.dim, P.field.one.value
    rights = [_hit(field, B.row, {0: one}, {i: one}, left=False) for i in range(dim)]
    if any(isinstance(w, tuple) for right in rights for w in right):
        return False, {"at": "off-basis"}
    system = [{w: Scalar(field, c) for w, c in right.items()} for right in rights]
    system[0][dim] = field.one
    try:
        alpha_inv = {w: c.value for w, c in solve_sparse(system, dim).items()}
    except SingularMatrixError:
        return False, {"at": "alpha-inverse"}
    s4 = d.s4
    conjugate = _conjugation(P, d.modular, d.inv)

    def fails(i):
        moved = _hit(field, B.row, alpha_inv, rights[i], left=True)
        return s4[i] is None or conjugate(moved) != ({s4[i][0]: s4[i][1]} if s4[i] else {})

    return _first(P.basis(), fails)


def _antipode_graded(B: BfaStructure, d: _Shared) -> tuple:
    """S preserves total degree."""
    P = B.presentation
    basis, is_zero = P.basis(), P.field._is_zero
    return _first(
        basis,
        lambda i: is_zero(B.s_coef[i]) or sum(vector_of(P, B.s_img[i])) != sum(basis[i]),
    )


def _antipode_square_is_nakayama(B: BfaStructure, d: _Shared) -> tuple:
    """S^2 = N, the Nakayama automorphism in closed form: x_v |-> h_v x_v."""
    s2, h = d.s2, d.h
    return _first(B.presentation.basis(), lambda i: s2[i] != (i, h[i]))


def _antipode_fourth_power_identity(B: BfaStructure, d: _Shared) -> tuple:
    """S^4 = id."""
    s4, one = d.s4, B.presentation.field.one.value
    return _first(B.presentation.basis(), lambda i: s4[i] != (i, one))


def _antipode_fixes_integral(B: BfaStructure, d: _Shared) -> tuple:
    """S(t) = t."""
    last = B.presentation.dim - 1
    return B.s_img[last] == last and B.s_coef[last] == B.presentation.field.one.value, None


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


def _antipode_monomial(B: BfaStructure, d: _Shared) -> tuple:
    """The image map is an involution of the basis fixing top."""
    P = B.presentation
    s_img, dim, is_zero = B.s_img, P.dim, P.field._is_zero
    found = _first(P.basis(), lambda i: is_zero(B.s_coef[i]) or isinstance(s_img[i], tuple))
    if not found[0]:
        return found
    if sorted(s_img) != list(range(dim)):
        return False, {"at": "not-a-bijection"}
    if any(s_img[s_img[i]] != i for i in range(dim)):
        return False, {"at": "not-an-involution"}
    if s_img[dim - 1] != dim - 1:
        return False, {"at": "top-not-fixed"}
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
    "antipode-graded": _antipode_graded,
    "antipode-square-is-nakayama": _antipode_square_is_nakayama,
    "antipode-fourth-power-identity": _antipode_fourth_power_identity,
    "antipode-fixes-integral": _antipode_fixes_integral,
    "nakayama-involutive": _nakayama_involutive,
    "antipode-monomial": _antipode_monomial,
}

DERIVED_CHECKS = tuple(_DERIVED)


def verify_derived(B: BfaStructure) -> VerificationReport:
    """The derived identities.  The checks share the shape of delta, m,
    m^{-1} and the powers of S (_Shared).  alpha = t -> phi is the counit
    (_fixed_by_presentation), so alpha -> x and x <- alpha are the coactions
    of epsilon = x_0^*."""
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
    which uses only that A (x) A is associative.  So no premise
    delta(1) = 1 (x) 1 is needed and the claim holds for any linear map
    delta: A -> A (x) A.
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
    """Dimension of {x : delta(x) = 1 (x) x + x (x) 1}, computed exactly.

    dim - 2 in the shape (_construction_shape).  Otherwise dim minus the
    rank of the columns delta(x_v) - 1 (x) x_v - x_v (x) 1 on the key pairs,
    eliminated as rows; a primitive row gives a zero column, so only the
    rows of 1 and t and those in B.rows are read.
    """
    P = B.presentation
    if _construction_shape(B):
        return P.dim - 2
    field, one = P.field, P.field.one.value
    minus_one = field._neg(one)
    columns = []
    for j in sorted({0, P.dim - 1, *B.rows}):
        col = _delta(field, B.row, {j: one})
        _add_value(field, col, (0, j), minus_one)
        _add_value(field, col, (j, 0), minus_one)
        columns.append(col)
    ids: dict = {}  # key pair -> its column in the eliminated rows
    return P.dim - len(rref(
        [{ids.setdefault(k, len(ids)): Scalar(field, c) for k, c in col.items()} for col in columns]
    ))


def negate_socle_entry(B: BfaStructure, v) -> BfaStructure:
    """A copy of B with the socle coefficient at v negated in g, and so in
    delta(t), which B.row reads from g; a stored row of t has its term at
    the complement of v negated as well.

    The antipode table is left untouched, so the definition check must
    notice the inconsistency at exactly v.
    """
    v = tuple(v)
    P = B.presentation
    g = list(B.g)
    i = P.index(v)
    neg = P.field._neg
    g[i] = neg(g[i])
    last, rows = P.dim - 1, dict(B.rows)
    if last in rows:
        left = key_of(P, P.complement(v))
        rows[last] = [(u, w, neg(c) if u == left else c) for u, w, c in rows[last]]
    return BfaStructure(P, B.witness, g, rows, list(B.s_img), list(B.s_coef))
