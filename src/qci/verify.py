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

The four checks that compose the antipode (antipode-square-is-nakayama,
antipode-fourth-power-identity, nakayama-via-antipode and
fourth-power-formula) read S, S^2, S^4 and h_v from payload tables composed
once per structure (_powers), since S sends each monomial to a multiple of
one monomial; conjugation by the modular element m = g_top 1, a constant on
every structure a file can hold, is a scaling of the basis part
(_conjugation).

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
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

from .algebra import Presentation, monomial_name
from .builder import BfaStructure
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

    def failing(self) -> list:
        return [c for c in self.checks if not c.passed]

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


# -- tensor helpers ----------------------------------------------------------


def tensor_product(P: Presentation, x: dict, y: dict) -> dict:
    out = {}
    for u, cu in x.items():
        for w, cw in y.items():
            out[(u, w)] = cu * cw
    return out


def tensor_mul(P: Presentation, s: dict, t: dict) -> dict:
    """Componentwise product on the tensor square."""
    out: dict = {}
    for (u1, w1), c1 in s.items():
        for (u2, w2), c2 in t.items():
            u = tuple(a + b for a, b in zip(u1, u2))
            w = tuple(a + b for a, b in zip(w1, w2))
            if not P.in_basis(u) or not P.in_basis(w):
                continue
            coeff = c1 * c2 * P.bracket(u1, u2) * P.bracket(w1, w2)
            add_term(out, (u, w), coeff)
    return out


def _tensor_str(P: Presentation, t: dict) -> str:
    if not t:
        return "0"
    parts = []
    for (u, w) in sorted(t):
        parts.append(f"({t[(u, w)]})*{monomial_name(u)}(x){monomial_name(w)}")
    return " + ".join(parts)


# -- coalgebra-side helpers ---------------------------------------------------


def left_coaction(B: BfaStructure, f: dict, x: dict) -> dict:
    """f -> x = sum x_1 f(x_2)."""
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in B.delta[v]:
            fv = f.get(w)
            if fv is not None:
                add_term(out, u, c * coeff * fv)
    return out


def right_coaction(B: BfaStructure, x: dict, f: dict) -> dict:
    """x <- f = sum f(x_1) x_2."""
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in B.delta[v]:
            fv = f.get(u)
            if fv is not None:
                add_term(out, w, c * coeff * fv)
    return out


def convolution_inverse(B: BfaStructure, f: dict) -> dict:
    """Inverse of f in the dual algebra (f*g)(x) = sum f(x_1) g(x_2)."""
    P = B.presentation
    basis = P.basis()
    dim = len(basis)
    rows = []
    for v in basis:
        row: dict = {}
        for u, w, coeff in B.delta[v]:
            fv = f.get(u)
            if fv is not None:
                add_term(row, P.index(w), fv * coeff)
        rows.append(row)
    rows[P.index(P.zero_vec)][dim] = P.field.one
    try:
        sol = solve_sparse(rows, dim)
    except SingularMatrixError:
        raise NotInvertibleError("functional has no convolution inverse") from None
    return {basis[i]: c for i, c in sol.items()}


# -- check helpers -------------------------------------------------------------


def _first(vectors, fails) -> tuple:
    """(passed, detail) for "fails(v) is false for every v", v in the order given.

    The detail names the first failing v as {"v": v}, followed by the entries
    of fails(v) when that is a dict.
    """
    for v in vectors:
        why = fails(v)
        if why:
            return False, {"v": list(v), **(why if isinstance(why, dict) else {})}
    return True, None


def _verdict(passed: bool, detail: dict) -> tuple:
    """(passed, detail), with the detail dropped when the check passed."""
    return passed, None if passed else detail


def _single(w, c):
    """The one-term element c x_w as a comparable pair, or None when c is 0."""
    return None if c.is_zero() else (w, c)


def _box(P: Presentation, u):
    """The basis vectors v with u + v in the basis, in basis order."""
    return itertools.product(*(range(ak - uk) for ak, uk in zip(P.a, u)))


def _fixed_by_presentation(B: BfaStructure, d: SimpleNamespace | None = None) -> tuple:
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


def _unit_comultiplication(B: BfaStructure) -> tuple:
    """delta(1) = 1 (x) 1."""
    P = B.presentation
    actual = B.delta_elem(P.one_elem)
    expected = {(P.zero_vec, P.zero_vec): P.field.one}
    return _verdict(actual == expected, {"delta(1)": _tensor_str(P, actual)})


def _coassociativity(B: BfaStructure) -> tuple:
    """(delta (x) id) delta = (id (x) delta) delta."""

    def fails(v):
        left, right = {}, {}
        for u, w, c in B.delta[v]:
            for p, q, c2 in B.delta[u]:
                add_term(left, (p, q, w), c * c2)
            for p, q, c2 in B.delta[w]:
                add_term(right, (u, p, q), c * c2)
        return left != right

    return _first(B.presentation.basis(), fails)


def _counit_law(B: BfaStructure) -> tuple:
    """(epsilon (x) id) delta = id = (id (x) epsilon) delta."""
    P = B.presentation
    eps = {P.zero_vec: P.field.one}

    def fails(v):
        mono = P.monomial(v)
        return right_coaction(B, mono, eps) != mono or left_coaction(B, eps, mono) != mono

    return _first(P.basis(), fails)


def _frobenius_copairing(B: BfaStructure) -> tuple:
    """Rank of w |-> t <- x_w^*, one row per w."""
    P = B.presentation
    rows = [{} for _ in range(P.dim)]
    for u, w, c in B.delta[B.t_vec]:
        add_term(rows[P.index(u)], P.index(w), c)
    r = len(rref(rows))
    return _verdict(r == P.dim, {"rank": r})


def _antipode_antihomomorphism(B: BfaStructure) -> tuple:
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

    Only then does the scan below name the first failing pair.  The left
    side vanishes unless v lies in box(u), the right side unless
    s(v) + s(u) lies in the basis; those v are found by probing the image
    vectors w with s(u) + w in the basis, within the bounding box of all
    images (images outside the basis included).  Each row visits the union
    in basis order.
    """
    P = B.presentation
    basis = P.basis()

    def antihomomorphic(u, v):
        w, c = P.mul_basis(u, v)
        lhs = None if w is None else _single(B.s_map[w][0], c * B.s_map[w][1])
        (iu, cu), (iv, cv) = B.s_map[u], B.s_map[v]
        w, c = P.mul_basis(iv, iu)
        rhs = None if w is None else _single(w, cv * cu * c)
        return lhs == rhs

    if B.s_elem(P.one_elem) != P.one_elem:
        return False, {"at": "S(1)"}
    generators = [P.unit_vec(k) for k in range(1, P.n + 1)]
    if all(antihomomorphic(u, e) for u in basis for e in generators):
        return True, None
    preimages: dict = {}  # image vector -> basis indices of its preimages
    for j, v in enumerate(basis):
        preimages.setdefault(B.s_map[v][0], []).append(j)
    lo = [min(img[k] for img in preimages) for k in range(P.n)]
    hi = [max(img[k] for img in preimages) for k in range(P.n)]
    for u in basis:
        iu = B.s_map[u][0]
        candidates = {P.index(v) for v in _box(P, u)}
        probe = (
            range(max(lo[k], -iu[k]), min(hi[k], P.a[k] - 1 - iu[k]) + 1)
            for k in range(P.n)
        )
        for w in itertools.product(*probe):
            candidates.update(preimages.get(w, ()))
        for j in sorted(candidates):
            if not antihomomorphic(u, basis[j]):
                return False, {"u": list(u), "v": list(basis[j])}
    return True, None


def _antipode_coalgebra_antihomomorphism(B: BfaStructure) -> tuple:
    """An image off the basis has no delta, so the check fails there."""
    P = B.presentation

    def fails(v):
        image = B.s_elem(P.monomial(v))
        if B.epsilon(image) != B.epsilon(P.monomial(v)):
            return {"at": "epsilon"}
        rhs: dict = {}
        for u, w, c in B.delta[v]:
            (iu, cu), (iw, cw) = B.s_map[u], B.s_map[w]
            add_term(rhs, (iw, iu), c * cu * cw)
        if not B.delta.keys() >= image.keys() or B.delta_elem(image) != rhs:
            return {"at": "delta"}
        return None

    return _first(P.basis(), fails)


def _antipode_definition(B: BfaStructure) -> tuple:
    """S(x) = sum phi(t_1 x) t_2.  phi(x_u x_v) vanishes unless u + v lies in
    the support of phi, so for each v only the terms of delta(t) with left
    factor s - v, s in that support, contribute."""
    P = B.presentation
    phi_support = [(s, fs) for s, fs in B.phi().items() if P.in_basis(s)]
    by_left: dict = {}  # left factor u -> [(w, c)] over the terms of delta(t)
    for u, w, c in B.delta[B.t_vec]:
        by_left.setdefault(u, []).append((w, c))

    def fails(v):
        acc: dict = {}
        for s, fs in phi_support:
            u = tuple(si - vi for si, vi in zip(s, v))
            for w, c in by_left.get(u, ()):
                _, cuv = P.mul_basis(u, v)
                add_term(acc, w, fs * cuv * c)
        expected = B.s_elem(P.monomial(v))
        if acc == expected:
            return None
        return {"expected": P.element_to_string(expected), "actual": P.element_to_string(acc)}

    return _first(P.basis(), fails)


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

    counit-algebra-map and frobenius-pairing hold for every presentation
    (_fixed_by_presentation).  The other pair checks evaluate only the pairs
    where a side can be nonzero given the supports of the tables; on every
    other pair both sides are zero.  The anti-homomorphism check passes on
    its generator pairs alone and scans the rest only to locate a failure.
    Pairs are visited in basis order, row u before row u', so a failure
    names the first failing pair of the whole dim x dim grid.
    """
    return VerificationReport([CheckResult(name, *check(B)) for name, check in _AXIOMS.items()])


# -- antipode powers on payloads ---------------------------------------------------


def _add_value(field, out: dict, key, term) -> None:
    """out[key] += term on payloads, dropping the entry when it cancels, as add_term."""
    acc = out.get(key)
    acc = term if acc is None else field._add(acc, term)
    if field._is_zero(acc):
        out.pop(key, None)
    else:
        out[key] = acc


def _hit(B: BfaStructure, f: dict, x: dict, left: bool) -> dict:
    """f -> x = sum x_1 f(x_2) when left, else x <- f = sum f(x_1) x_2, with
    f and x payload dicts, as left_coaction and right_coaction."""
    field = B.presentation.field
    mul = field._mul
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in B.delta[v]:
            key, arg = (u, w) if left else (w, u)
            fv = f.get(arg)
            if fv is not None:
                _add_value(field, out, key, mul(mul(c, coeff.value), fv))
    return out


def _powers(B: BfaStructure, d: SimpleNamespace) -> SimpleNamespace:
    """S, S^2 and S^4 as payload tables, with h_v on the basis and alpha as
    a payload dict; composed by the first check that reads them and kept in d.

    A table maps each key v of s_map to (w, c) when the power sends x_v to
    c x_w, c a nonzero payload, and to () when it sends x_v to 0, as it does
    from the first zero coefficient on.  v has no entry where the power is
    undefined: S met a vector that is no key of s_map, such as an image off
    the basis.  S(x_v) is one term, so S^4 = S^2 S^2 entry by entry.
    """
    if hasattr(d, "powers"):
        return d.powers
    P = B.presentation
    mul = P.field._mul
    s1 = {v: () if c.is_zero() else (w, c.value) for v, (w, c) in B.s_map.items()}

    def then(first: dict, second: dict) -> dict:
        out = {}
        for v, term in first.items():
            if not term:
                out[v] = term
            elif (image := second.get(term[0])) is not None:
                out[v] = (image[0], mul(term[1], image[1])) if image else ()
        return out

    s2 = then(s1, s1)
    h = {v: P.h_value(v) for v in P.basis()}
    alpha = {v: c.value for v, c in d.alpha.items()}
    d.powers = SimpleNamespace(s1=s1, s2=s2, s4=then(s2, s2), h=h, alpha=alpha)
    return d.powers


def _apply(field, table: dict, x: dict):
    """The power of S in table applied to the payload element x, terms that
    cancel dropped, or None when it is undefined on a key of x."""
    out: dict = {}
    for v, c in x.items():
        term = table.get(v)
        if term is None:
            return None
        if term:
            _add_value(field, out, term[0], field._mul(c, term[1]))
    return out


def _conjugation(P: Presentation, left: dict, right: dict):
    """x |-> left x right on payload elements x, whose keys may lie off the basis.

    When left and right are constants l 1 and r 1, every bracket with the
    zero vector is 1, so the map is x restricted to the basis, times l r.
    That is the case for m and m^{-1} on every structure a file can hold:
    the loader rebuilds delta from pi and g, and the one term of delta(t)
    with right factor x_top is g_top 1 (x) x_top, so m = g_top 1.  Other
    elements are multiplied in by Presentation.mul.
    """
    zero, field = P.zero_vec, P.field
    if left.keys() == {zero} == right.keys():
        c = field._mul(left[zero].value, right[zero].value)
        return lambda x: {w: field._mul(cw, c) for w, cw in x.items() if P.in_basis(w)}

    def product(x: dict) -> dict:
        y = {w: Scalar(field, cw) for w, cw in x.items()}
        return {w: cw.value for w, cw in P.mul(P.mul(left, y), right).items()}

    return product


# -- derived checks ---------------------------------------------------------------


def _unit_via_copairing(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """1 = t <- phi."""
    P = B.presentation
    recovered = right_coaction(B, d.t, d.phi)
    return _verdict(recovered == P.one_elem, {"value": P.element_to_string(recovered)})


def _modular_element(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """m = phi -> t is group-like (and 1 in characteristic 0)."""
    P, m = B.presentation, d.modular
    if B.epsilon(m) != P.field.one:
        return False, {"at": "epsilon"}
    if B.delta_elem(m) != tensor_product(P, m, m):
        return False, {"at": "grouplike"}
    if P.field.characteristic() == 0 and m != P.one_elem:
        return False, {"at": "char-zero-unit"}
    return True, None


def _antipode_of_modular_element(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S(m) = m^{-1}."""
    return d.inv is not None and B.s_elem(d.modular) == d.inv, None


def _nakayama_via_antipode(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """N(x) = m^{-1} S^2(alpha -> x) m.

    alpha -> x_v is read from the delta row of v, and S is applied to it
    twice, since its terms can cancel in between.
    """
    P = B.presentation
    if d.inv is None:
        return False, {"at": "modular-inverse"}
    field, powers = P.field, _powers(B, d)
    one = field.one.value
    conjugate = _conjugation(P, d.inv, d.modular)

    def fails(v):
        s1 = _apply(field, powers.s1, _hit(B, powers.alpha, {v: one}, left=True))
        s2 = None if s1 is None else _apply(field, powers.s1, s1)
        return s2 is None or conjugate(s2) != {v: powers.h[v]}

    return _first(P.basis(), fails)


def _fourth_power_formula(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S^4(x) = m (alpha^{-1} -> x <- alpha) m^{-1}."""
    P = B.presentation
    if d.inv is None:
        return False, {"at": "modular-inverse"}
    try:
        alpha_inv = {v: c.value for v, c in convolution_inverse(B, d.alpha).items()}
    except NotInvertibleError:
        return False, {"at": "alpha-inverse"}
    powers, one = _powers(B, d), P.field.one.value
    conjugate = _conjugation(P, d.modular, d.inv)

    def fails(v):
        hit = _hit(B, alpha_inv, _hit(B, powers.alpha, {v: one}, left=False), left=True)
        s4 = powers.s4.get(v)
        return s4 is None or conjugate(hit) != ({s4[0]: s4[1]} if s4 else {})

    return _first(P.basis(), fails)


def _antipode_graded(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S preserves total degree."""
    P = B.presentation
    return _first(P.basis(), lambda v: B.s_map[v][1].is_zero() or sum(B.s_map[v][0]) != sum(v))


def _antipode_square_is_nakayama(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S^2 = N, the Nakayama automorphism in closed form: x_v |-> h_v x_v."""
    powers = _powers(B, d)
    return _first(B.presentation.basis(), lambda v: powers.s2.get(v) != (v, powers.h[v]))


def _antipode_fourth_power_identity(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S^4 = id."""
    powers, one = _powers(B, d), B.presentation.field.one.value
    return _first(B.presentation.basis(), lambda v: powers.s4.get(v) != (v, one))


def _antipode_fixes_integral(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """S(t) = t."""
    return B.s_elem(d.t) == d.t, None


def _nakayama_involutive(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """h_v^2 = 1 for every v, so N is an involution.

    Certificate on the generators.  h_v = prod_i h_{e_i}^{v_i}, so every
    h_v^2 = 1 when every h_{e_k}^2 = 1.  Otherwise let k be the largest
    index with h_{e_k}^2 != 1.  The basis vectors before e_k in basis order
    are the v with v_i = 0 for every i <= k, and their h_v^2 is a product of
    the h_{e_i}^2 = 1 with i > k.  So the first failing v is e_k, and the
    detail names h_{e_k}.
    """
    P = B.presentation
    for k, h in reversed(list(enumerate(P.h_generators(), start=1))):
        if h * h != P.field.one:
            return False, {"v": list(P.unit_vec(k)), "h": str(h)}
    return True, None


def _antipode_monomial(B: BfaStructure, d: SimpleNamespace) -> tuple:
    """The image map is an involution of the basis fixing top."""
    P = B.presentation
    basis = P.basis()
    found = _first(basis, lambda v: B.s_map[v][1].is_zero() or not P.in_basis(B.s_map[v][0]))
    if not found[0]:
        return found
    images = {v: B.s_map[v][0] for v in basis}
    if sorted(images.values()) != basis:
        return False, {"at": "not-a-bijection"}
    if any(images[images[v]] != v for v in basis):
        return False, {"at": "not-an-involution"}
    if images[P.top] != P.top:
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
    """The derived identities.  The checks share phi, t, the modular element
    m = phi -> t, m^{-1} (None when m is not invertible) and
    alpha = t -> phi, computed once here; alpha is the counit for every
    presentation (_fixed_by_presentation, left-modular-functional), and
    m^{-1} is the nilpotent series of Presentation.invert_element, with no
    linear solve."""
    P = B.presentation
    phi, t = B.phi(), B.t_elem()
    modular = left_coaction(B, phi, t)
    try:
        inv = P.invert_element(modular)
    except NotInvertibleError:
        inv = None
    alpha = P.dual_functional(P.zero_vec)
    shared = SimpleNamespace(phi=phi, t=t, modular=modular, inv=inv, alpha=alpha)
    checks = [CheckResult(name, *check(B, shared)) for name, check in _DERIVED.items()]
    return VerificationReport(checks)


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
    the exhaustive dim x dim scan, from at most (n + 1) dim pairs.
    """
    P = B.presentation
    factors = [P.zero_vec] + [P.unit_vec(k) for k in range(1, P.n + 1)]
    deltas = [(v, B.delta_elem(P.monomial(v))) for v in factors]
    for u in P.basis():
        du = B.delta_elem(P.monomial(u))
        for v, dv in deltas:
            w, c = P.mul_basis(u, v)
            lhs = {} if w is None else B.delta_elem({w: c})
            if lhs != tensor_mul(P, du, dv):
                return False
    return True


def primitive_space_dim(P: Presentation, delta: dict) -> int:
    """Dimension of {x : delta(x) = 1 (x) x + x (x) 1}, computed exactly."""
    zero = P.zero_vec
    rows: dict = {}  # tensor key -> {index(v): coefficient of that key in column v}
    for j, v in enumerate(P.basis()):
        col: dict = {}
        for u, w, c in delta[v]:
            add_term(col, (u, w), c)
        add_term(col, (zero, v), -P.field.one)
        add_term(col, (v, zero), -P.field.one)
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return P.dim - len(rref(rows.values()))


def negate_socle_entry(B: BfaStructure, v) -> BfaStructure:
    """A copy of B with the socle coefficient at v negated in g and delta.

    The antipode table is left untouched, so the definition check must
    notice the inconsistency at exactly v.
    """
    v = tuple(v)
    P = B.presentation
    g = dict(B.g)
    g[v] = -g[v]
    delta = {key: list(rows) for key, rows in B.delta.items()}
    delta[P.top] = [
        (u, w, -c if P.complement(u) == v else c) for u, w, c in delta[P.top]
    ]
    return BfaStructure(P, B.witness, g, delta, dict(B.s_map))
