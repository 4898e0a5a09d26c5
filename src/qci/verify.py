"""Exhaustive exact verification of a constructed structure.

Every check decides the whole basis (or all basis pairs); nothing is
sampled and every comparison is exact.  A pair check evaluates only the
pairs on which one of its sides can be nonzero; on the rest both sides
vanish by the supports of the tables.  The antipode anti-homomorphism is
decided on the n dim pairs (x_u, x_k) with x_k a generator, which imply
every pair by induction on word length; only when that certificate fails
(or an image of S lies off the basis) are the other pairs scanned, to name
the first failing one.  Failures carry a replayable counterexample.
Checks run in the fixed order listed in AXIOM_CHECKS and DERIVED_CHECKS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .algebra import Presentation, monomial_name
from .builder import BfaStructure
from .errors import NotInvertibleError, SingularMatrixError
from .linalg import add_term, null_space, rref, solve_sparse

AXIOM_CHECKS = (
    "counit-algebra-map",
    "unit-comultiplication",
    "coassociativity",
    "counit-law",
    "frobenius-pairing",
    "frobenius-copairing",
    "antipode-antihomomorphism",
    "antipode-coalgebra-antihomomorphism",
    "antipode-definition",
)

DERIVED_CHECKS = (
    "counit-via-integral",
    "socle-pairing-normalized",
    "right-integral",
    "integral-space-dimension",
    "unimodularity",
    "unit-via-copairing",
    "left-modular-functional",
    "modular-element",
    "antipode-of-modular-element",
    "nakayama-via-antipode",
    "fourth-power-formula",
    "antipode-graded",
    "antipode-square-is-nakayama",
    "antipode-fourth-power-identity",
    "antipode-fixes-integral",
    "nakayama-involutive",
    "antipode-monomial",
)


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

    def record(self, name: str, passed: bool, detail: dict | None = None) -> None:
        self.checks.append(CheckResult(name, passed, detail))

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


# -- axiom checks --------------------------------------------------------------


def _single(w, c):
    """The one-term element c x_w as a comparable pair, or None when c is 0."""
    return None if c.is_zero() else (w, c)


def _box(P: Presentation, u):
    """The basis vectors v with u + v in the basis, in basis order."""
    return itertools.product(*(range(ak - uk) for ak, uk in zip(P.a, u)))


def verify_axioms(B: BfaStructure) -> VerificationReport:
    """The defining axioms, every basis pair decided exactly.

    The pair checks evaluate only the pairs where a side can be nonzero
    given the supports of the tables; on every other pair both sides are
    zero.  The anti-homomorphism check passes on its generator pairs alone
    and scans the rest only to locate a failure.  Pairs are visited in
    basis order, row u before row u', so a failure names the first failing
    pair of the whole dim x dim grid.
    """
    P = B.presentation
    rep = VerificationReport()
    one = P.field.one
    zero_vec = P.zero_vec
    basis = P.basis()
    position = {v: i for i, v in enumerate(basis)}

    # counit-algebra-map.  With E the support of epsilon on the basis, the
    # right side eps(x_u) eps(x_v) vanishes unless u and v lie in E, and the
    # left side eps(x_u x_v) unless u + v does; every other pair is 0 = 0.
    ok, detail = True, None
    if B.epsilon(P.one_elem) != one:
        ok, detail = False, {"at": "epsilon(1)"}
    else:
        zero = P.field.zero
        eps = [B.epsilon(P.monomial(u)) for u in basis]
        support = [i for i, e in enumerate(eps) if not e.is_zero()]
        for i, u in enumerate(basis):
            candidates = set(support) if i in support else set()
            for k in support:
                v = tuple(wk - uk for wk, uk in zip(basis[k], u))
                if P.in_basis(v):
                    candidates.add(position[v])
            for j in sorted(candidates):
                v = basis[j]
                w, c = P.mul_basis(u, v)
                lhs = zero if w is None else B.epsilon({w: c})
                rhs = eps[i] * eps[j]
                if lhs != rhs:
                    ok, detail = False, {"u": list(u), "v": list(v)}
                    break
            if not ok:
                break
    rep.record("counit-algebra-map", ok, detail)

    # unit-comultiplication
    expected = {(zero_vec, zero_vec): one}
    actual = B.delta_elem(P.one_elem)
    rep.record(
        "unit-comultiplication",
        actual == expected,
        None if actual == expected else {"delta(1)": _tensor_str(P, actual)},
    )

    # coassociativity
    ok, detail = True, None
    for v in basis:
        left: dict = {}
        right: dict = {}
        for u, w, c in B.delta[v]:
            for p, q, c2 in B.delta[u]:
                add_term(left, (p, q, w), c * c2)
            for p, q, c2 in B.delta[w]:
                add_term(right, (u, p, q), c * c2)
        if left != right:
            ok, detail = False, {"v": list(v)}
            break
    rep.record("coassociativity", ok, detail)

    # counit-law
    ok, detail = True, None
    for v in basis:
        mono = P.monomial(v)
        lhs = right_coaction(B, mono, {zero_vec: one})
        rhs = left_coaction(B, {zero_vec: one}, mono)
        if lhs != mono or rhs != mono:
            ok, detail = False, {"v": list(v)}
            break
    rep.record("counit-law", ok, detail)

    # frobenius-pairing
    r = len(rref(P.pairing_rows(B.phi())))
    rep.record("frobenius-pairing", r == P.dim, None if r == P.dim else {"rank": r})

    # frobenius-copairing: rank of w |-> t <- x_w^*, one row per w
    rows = [{} for _ in basis]
    for u, w, c in B.delta[B.t_vec]:
        add_term(rows[P.index(u)], P.index(w), c)
    r = len(rref(rows))
    rep.record("frobenius-copairing", r == P.dim, None if r == P.dim else {"rank": r})

    # The basis vectors whose S image is nonzero and lies off the basis.  Such
    # an image is no element of A; both antipode checks below read this set.
    off_basis = {
        v for v in basis
        if not P.in_basis(B.s_map[v][0]) and not B.s_map[v][1].is_zero()
    }

    # antipode-antihomomorphism: S(x_u x_v) = S(x_v) S(x_u).
    #
    # Generator certificate.  Let S(1) = 1 and every image lie in the basis,
    # and let the pair (u, e_k) pass for every basis u and generator x_k.
    # Then every pair passes, by induction on |v|; |v| = 0 is S(1) = 1.  For
    # |v| > 0 let k be the last index with v_k > 0 and v' = v - e_k, so that
    # x_v = x_{v'} x_k exactly.  With x_u x_{v'} = c x_w (c = 0 allowed):
    #   S(x_u x_v) = c S(x_w x_k) = c S(x_k) S(x_w)              pair (w, e_k)
    #              = S(x_k) S(x_u x_{v'}) = S(x_k) S(x_{v'}) S(x_u)   induction
    #              = S(x_{v'} x_k) S(x_u) = S(x_v) S(x_u)        pair (v', e_k)
    # The middle steps multiply images as elements of A, which is why every
    # image must lie in the basis.  The generator pairs are pairs of the
    # grid, so the certificate fails exactly when some pair fails.
    #
    # Only then, or when an image lies off the basis, the scan below names
    # the first failing pair.  The left side vanishes unless v lies in
    # box(u), the right side unless s(v) + s(u) lies in the basis; those v
    # are found by probing the image vectors w with s(u) + w in the basis,
    # within the bounding box of all images (images outside the basis
    # included).  Each row visits the union in basis order.
    def antihomomorphic(u, v):
        w, c = P.mul_basis(u, v)
        lhs = None if w is None else _single(B.s_map[w][0], c * B.s_map[w][1])
        (iu, cu), (iv, cv) = B.s_map[u], B.s_map[v]
        w, c = P.mul_basis(iv, iu)
        rhs = None if w is None else _single(w, cv * cu * c)
        return lhs == rhs

    generators = [P.unit_vec(k) for k in range(1, P.n + 1)]
    ok, detail = True, None
    if B.s_elem(P.one_elem) != P.one_elem:
        ok, detail = False, {"at": "S(1)"}
    elif off_basis or not all(antihomomorphic(u, e) for u in basis for e in generators):
        preimages: dict = {}  # image vector -> basis indices of its preimages
        for j, v in enumerate(basis):
            preimages.setdefault(B.s_map[v][0], []).append(j)
        lo = [min(img[k] for img in preimages) for k in range(P.n)]
        hi = [max(img[k] for img in preimages) for k in range(P.n)]
        for u in basis:
            iu = B.s_map[u][0]
            candidates = {position[v] for v in _box(P, u)}
            probe = (
                range(max(lo[k], -iu[k]), min(hi[k], P.a[k] - 1 - iu[k]) + 1)
                for k in range(P.n)
            )
            for w in itertools.product(*probe):
                candidates.update(preimages.get(w, ()))
            for j in sorted(candidates):
                if not antihomomorphic(u, basis[j]):
                    ok, detail = False, {"u": list(u), "v": list(basis[j])}
                    break
            if not ok:
                break
    rep.record("antipode-antihomomorphism", ok, detail)

    # antipode-coalgebra-antihomomorphism.  An image off the basis has no
    # delta, so the check fails there (lhs None).
    ok, detail = True, None
    for v in basis:
        image = B.s_elem(P.monomial(v))
        if B.epsilon(image) != B.epsilon(P.monomial(v)):
            ok, detail = False, {"v": list(v), "at": "epsilon"}
            break
        lhs = None if v in off_basis else B.delta_elem(image)
        rhs: dict = {}
        for u, w, c in B.delta[v]:
            iu, cu = B.s_map[u]
            iw, cw = B.s_map[w]
            add_term(rhs, (iw, iu), c * cu * cw)
        if lhs != rhs:
            ok, detail = False, {"v": list(v), "at": "delta"}
            break
    rep.record("antipode-coalgebra-antihomomorphism", ok, detail)

    # antipode-definition: S(x) = sum phi(t_1 x) t_2.  phi(x_u x_v) vanishes
    # unless u + v lies in the support of phi, so for each v only the terms
    # of delta(t) with left factor s - v, s in that support, contribute.
    ok, detail = True, None
    phi = B.phi()
    phi_support = [(s, fs) for s, fs in phi.items() if P.in_basis(s)]
    by_left: dict = {}  # left factor u -> [(w, c)] over the terms of delta(t)
    for u, w, c in B.delta[B.t_vec]:
        by_left.setdefault(u, []).append((w, c))
    for v in basis:
        acc: dict = {}
        for s, fs in phi_support:
            u = tuple(si - vi for si, vi in zip(s, v))
            for w, c in by_left.get(u, ()):
                _, cuv = P.mul_basis(u, v)
                add_term(acc, w, fs * cuv * c)
        if acc != B.s_elem(P.monomial(v)):
            ok, detail = False, {
                "v": list(v),
                "expected": P.element_to_string(B.s_elem(P.monomial(v))),
                "actual": P.element_to_string(acc),
            }
            break
    rep.record("antipode-definition", ok, detail)

    return rep


# -- derived checks -------------------------------------------------------------


def _integral_space(P: Presentation, side: str) -> list:
    """Kernel basis of y -> (y x_i)_i or (x_i y)_i over all generators.

    The product of x_w with a generator is a single monomial (or zero), so
    every row of the system has one entry: row (i, target) holds the
    coefficient of x_target in x_w x_i (or x_i x_w) at column index(w).
    Kernel vectors are sparse dicts keyed by basis index.
    """
    rows = []
    for i in range(1, P.n + 1):
        gen = P.unit_vec(i)
        for j, w in enumerate(P.basis()):
            target, c = P.mul_basis(w, gen) if side == "right" else P.mul_basis(gen, w)
            if target is not None:
                rows.append({j: c})
    return null_space(P.field, rows, P.dim)


def verify_derived(B: BfaStructure) -> VerificationReport:
    P = B.presentation
    rep = VerificationReport()
    one = P.field.one
    basis = P.basis()
    phi = B.phi()
    t = B.t_elem()

    # counit-via-integral: epsilon(x) = phi(t x)
    ok, detail = True, None
    for v in basis:
        if P.apply_functional(phi, P.mul(t, P.monomial(v))) != B.epsilon(P.monomial(v)):
            ok, detail = False, {"v": list(v)}
            break
    rep.record("counit-via-integral", ok, detail)

    # socle-pairing-normalized: phi(t) = 1
    val = P.apply_functional(phi, t)
    rep.record("socle-pairing-normalized", val == one, None if val == one else {"phi(t)": str(val)})

    # right-integral: t x = epsilon(x) t
    ok, detail = True, None
    for v in basis:
        lhs = P.mul(t, P.monomial(v))
        rhs = P.scale(B.epsilon(P.monomial(v)), t)
        if lhs != rhs:
            ok, detail = False, {"v": list(v)}
            break
    rep.record("right-integral", ok, detail)

    # integral-space-dimension: both one-dimensional
    right_space = _integral_space(P, "right")
    left_space = _integral_space(P, "left")
    ok = len(right_space) == 1 and len(left_space) == 1
    rep.record(
        "integral-space-dimension",
        ok,
        None if ok else {"right_dim": len(right_space), "left_dim": len(left_space)},
    )

    # unimodularity: the two spaces coincide
    ok = False
    if len(right_space) == 1 and len(left_space) == 1:
        ok = len(rref([right_space[0], left_space[0]])) == 1
    rep.record("unimodularity", ok, None)

    # unit-via-copairing: 1 = t <- phi
    recovered = right_coaction(B, t, phi)
    rep.record(
        "unit-via-copairing",
        recovered == P.one_elem,
        None if recovered == P.one_elem else {"value": P.element_to_string(recovered)},
    )

    # left-modular-functional: alpha = t -> phi equals the counit
    alpha = P.functional_left_hit(t, phi)
    eps_fun = P.dual_functional(P.zero_vec)
    rep.record("left-modular-functional", alpha == eps_fun, None)

    # modular-element: m = phi -> t is group-like (and 1 in characteristic 0)
    modular = left_coaction(B, phi, t)
    ok, detail = True, None
    if B.epsilon(modular) != one:
        ok, detail = False, {"at": "epsilon"}
    elif B.delta_elem(modular) != tensor_product(P, modular, modular):
        ok, detail = False, {"at": "grouplike"}
    elif P.field.characteristic() == 0 and modular != P.one_elem:
        ok, detail = False, {"at": "char-zero-unit"}
    rep.record("modular-element", ok, detail)

    # antipode-of-modular-element: S(m) = m^{-1}
    ok = True
    try:
        inv = P.invert_element(modular)
    except NotInvertibleError:
        ok, inv = False, None
    if ok:
        ok = B.s_elem(modular) == inv
    rep.record("antipode-of-modular-element", ok, None)

    # nakayama-via-antipode: N(x) = m^{-1} S^2(alpha -> x) m
    ok, detail = True, None
    if inv is None:
        ok, detail = False, {"at": "modular-inverse"}
    else:
        for v in basis:
            hit = left_coaction(B, alpha, P.monomial(v))
            conj = P.mul(P.mul(inv, B.s_elem(B.s_elem(hit))), modular)
            if conj != P.nakayama(P.monomial(v)):
                ok, detail = False, {"v": list(v)}
                break
    rep.record("nakayama-via-antipode", ok, detail)

    # fourth-power-formula: S^4(x) = m (alpha^{-1} -> x <- alpha) m^{-1}
    ok, detail = True, None
    if inv is None:
        ok, detail = False, {"at": "modular-inverse"}
    else:
        try:
            alpha_inv = convolution_inverse(B, alpha)
        except NotInvertibleError:
            alpha_inv = None
            ok, detail = False, {"at": "alpha-inverse"}
        if alpha_inv is not None:
            for v in basis:
                x = P.monomial(v)
                s4 = B.s_elem(B.s_elem(B.s_elem(B.s_elem(x))))
                moved = left_coaction(B, alpha_inv, right_coaction(B, x, alpha))
                rhs = P.mul(P.mul(modular, moved), inv)
                if s4 != rhs:
                    ok, detail = False, {"v": list(v)}
                    break
    rep.record("fourth-power-formula", ok, detail)

    # antipode-graded: S preserves total degree
    ok, detail = True, None
    for v in basis:
        img, coeff = B.s_map[v]
        if coeff.is_zero() or sum(img) != sum(v):
            ok, detail = False, {"v": list(v)}
            break
    rep.record("antipode-graded", ok, detail)

    # antipode-square-is-nakayama
    ok, detail = True, None
    for v in basis:
        if B.s_elem(B.s_elem(P.monomial(v))) != P.nakayama(P.monomial(v)):
            ok, detail = False, {"v": list(v)}
            break
    rep.record("antipode-square-is-nakayama", ok, detail)

    # antipode-fourth-power-identity
    ok, detail = True, None
    for v in basis:
        x = P.monomial(v)
        if B.s_elem(B.s_elem(B.s_elem(B.s_elem(x)))) != x:
            ok, detail = False, {"v": list(v)}
            break
    rep.record("antipode-fourth-power-identity", ok, detail)

    # antipode-fixes-integral
    fixed = B.s_elem(t) == t
    rep.record("antipode-fixes-integral", fixed, None)

    # nakayama-involutive
    ok, detail = True, None
    for v in basis:
        hv = P.h_of(v)
        if hv * hv != one:
            ok, detail = False, {"v": list(v), "h": str(hv)}
            break
    rep.record("nakayama-involutive", ok, detail)

    # antipode-monomial: the image map is an involution of the basis fixing top
    ok, detail = True, None
    images = {}
    for v in basis:
        img, coeff = B.s_map[v]
        if coeff.is_zero() or not P.in_basis(img):
            ok, detail = False, {"v": list(v)}
            break
        images[v] = img
    if ok:
        if sorted(images.values()) != sorted(basis):
            ok, detail = False, {"at": "not-a-bijection"}
        elif any(images[images[v]] != v for v in basis):
            ok, detail = False, {"at": "not-an-involution"}
        elif images[P.top] != P.top:
            ok, detail = False, {"at": "top-not-fixed"}
    rep.record("antipode-monomial", ok, detail)

    return rep


def is_hopf_comultiplication(B: BfaStructure) -> bool:
    """Whether delta is multiplicative for the componentwise tensor product."""
    P = B.presentation
    basis = P.basis()
    for u in basis:
        du = B.delta_elem(P.monomial(u))
        for v in basis:
            prod = P.mul(P.monomial(u), P.monomial(v))
            lhs = B.delta_elem(prod)
            rhs = tensor_mul(P, du, B.delta_elem(P.monomial(v)))
            if lhs != rhs:
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
