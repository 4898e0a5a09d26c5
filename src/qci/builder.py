"""Construction and decision of comultiplications with monomial antipode.

The algebra carries the functional phi = x_{a-1}^* and the socle element
t = x_{a-1}.  A witness is a compatible involution pi together with scalars
c_1..c_n satisfying

    c_i * c_{pi(i)} = h_{e_i}          for every i, and
    q_pi * prod_i c_i^{a_i - 1} = 1.

Every witness yields a comultiplication with counit x |-> coefficient of 1,
primitive on all middle basis vectors, whose induced antipode is the monomial
map S(x_v) = (coefficient) x_{pi(v)}.  decide() settles existence by two
independent routes and insists they agree: route one asks which closed-form
regime applies to each compatible involution (applicable_regime, the one
statement of the existence rule), route two searches the signs of the
scalars directly (solve_c).

A structure (BfaStructure) holds only what the construction leaves free
once the witness is chosen: the socle coefficients g and the antipode
coefficients s_coef.  delta and the support of S are read from the witness
and g, so no other comultiplication or antipode support can be spelled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property

from .algebra import Presentation
from .errors import (
    CrossCheckError,
    NotCompatibleError,
    NotInvolutionError,
    RegimeHypothesisError,
    WitnessInvalidError,
)
from .permutations import (
    Permutation,
    enumerate_compatible,
    is_compatible,
    partition,
    q_pi,
)
from .scalars import Scalar


@dataclass(frozen=True)
class Witness:
    """A compatible involution with scalars solving the witness equations."""

    pi: Permutation
    c: tuple


def check_witness(P: Presentation, w: Witness) -> None:
    """Raise WitnessInvalidError unless w satisfies its defining equations."""
    pi = w.pi
    if pi.n != P.n:
        raise WitnessInvalidError("permutation size does not match n")
    if not pi.is_involution():
        raise WitnessInvalidError(f"{pi} is not an involution")
    if not is_compatible(P, pi):
        raise WitnessInvalidError(f"{pi} does not preserve the presentation")
    if len(w.c) != P.n:
        raise WitnessInvalidError("need one scalar c_i per generator")
    for ci in w.c:
        if not isinstance(ci, Scalar) or ci.field != P.field:
            raise WitnessInvalidError("c entries must be scalars of the base field")
        if ci.is_zero():
            raise WitnessInvalidError("c entries must be nonzero")
    h = P.h_generators()
    for i in range(1, P.n + 1):
        if w.c[i - 1] * w.c[pi(i) - 1] != h[i - 1]:
            raise WitnessInvalidError(f"c_{i} * c_{pi(i)} != h_e{i}")
    prod = q_pi(P, pi)
    for i in range(P.n):
        prod = prod * w.c[i] ** (P.a[i] - 1)
    if prod != P.field.one:
        raise WitnessInvalidError("q_pi * prod c_i^(a_i - 1) != 1")


def solve_c(P: Presentation, pi: Permutation):
    """Deterministic search for scalars completing pi to a witness.

    Moved indices are normalized to c_i = 1, c_{pi(i)} = h_{e_i} for i < pi(i);
    this loses no generality because the product condition is invariant under
    rescaling within a moved pair.  Each fixed index needs c_i^2 = h_{e_i},
    leaving a sign choice; signs are searched in lexicographic order (plus
    first).  Returns the c tuple or None.
    """
    if not pi.is_involution():
        raise NotInvolutionError(f"{pi} is not an involution")
    if not is_compatible(P, pi):
        raise NotCompatibleError(f"{pi} does not preserve the presentation")
    if not P.nakayama_is_involution():
        return None
    one = P.field.one
    h = P.h_generators()
    n = P.n
    c = [None] * (n + 1)  # 1-based
    for i in range(1, n + 1):
        if pi(i) > i:
            c[i] = one
            c[pi(i)] = h[i - 1]
    fixed = [i for i in range(1, n + 1) if pi(i) == i]
    base = [None] * (n + 1)
    for i in fixed:
        if h[i - 1] == one:
            base[i] = one
        else:
            root = P.field.sqrt_minus_one()
            if root is None:
                return None
            base[i] = root
    qp = q_pi(P, pi)
    for signs in itertools.product((False, True), repeat=len(fixed)):
        for i, flip in zip(fixed, signs):
            c[i] = -base[i] if flip else base[i]
        prod = qp
        for i in range(1, n + 1):
            prod = prod * c[i] ** (P.a[i - 1] - 1)
        if prod == one:
            return tuple(c[1:])
    return None


class Regime(Enum):
    """Closed-form recipes for the scalars c; applicable_regime picks one.

    SYMMETRIC           all h_{e_i} = 1; any compatible involution works.
    CHAR_TWO            characteristic 2 with involutive Nakayama map.
    IMAG_ANCHOR_H_PLUS  sqrt(-1) available, some fixed i with h = 1, a_i even.
    IMAG_ANCHOR_H_MINUS sqrt(-1) available, some fixed i with h = -1 (a_i even).
    IMAG_NO_ANCHOR      sqrt(-1) available, no even-exponent fixed index;
                        needs the count of moved h = -1 even-exponent pairs
                        to be even.
    REAL_ANCHOR         sqrt(-1) absent: no fixed index with h = -1 allowed,
                        anchored at a fixed i with h = 1, a_i even.
    REAL_NO_ANCHOR      sqrt(-1) absent, all fixed indices have h = 1 and
                        odd exponents; same parity condition as above.
    """

    SYMMETRIC = "symmetric"
    CHAR_TWO = "char-two"
    IMAG_ANCHOR_H_PLUS = "imag-anchor-h-plus"
    IMAG_ANCHOR_H_MINUS = "imag-anchor-h-minus"
    IMAG_NO_ANCHOR = "imag-no-anchor"
    REAL_ANCHOR = "real-anchor"
    REAL_NO_ANCHOR = "real-no-anchor"


def regime_family(P: Presentation) -> str:
    """The case split of the existence rule on (q, a), in its order:
    characteristic 2, then symmetric, then whether sqrt(-1) exists."""
    if P.field.characteristic() == 2:
        return "char-two"
    if P.is_symmetric():
        return "symmetric"
    if P.field.sqrt_minus_one() is not None:
        return "sqrt-minus-one-present"
    return "sqrt-minus-one-absent"


def applicable_regime(P: Presentation, pi: Permutation):
    """The regime whose closed form applies to this involution, or None.

    This is the existence rule: scalars c completing pi to a witness exist
    exactly when a regime applies.  decide() checks it against solve_c.

    The case split on (q, a) is regime_family's.  With sqrt(-1) present no
    "no i4" clause is needed: it would never reject an involution that i1
    or i3 does not already accept, because i4 nonempty forces i1 u i3
    nonempty.  For fixed i, h_{e_i} = prod_j q_ij^{a_j - 1}.  A moved pair
    {j, pi(j)} contributes q_ij^{a_j - 1} q_{i pi(j)}^{a_j - 1} = 1, since
    compatibility gives q_{i pi(j)} = q_ji = q_ij^{-1} and a_{pi(j)} = a_j.
    A fixed j has q_ij = q_ji, so q_ij = +-1 and contributes -1 only when
    q_ij = -1 and a_j is even.  Hence h_{e_i} = -1 needs a fixed j with a_j
    even: j lies in i1 or i3.
    """
    if not P.nakayama_is_involution():
        return None
    if not pi.is_involution() or not is_compatible(P, pi):
        return None
    family = regime_family(P)
    if family in ("char-two", "symmetric"):
        return Regime(family)
    rep = partition(P, pi)
    if family == "sqrt-minus-one-present":
        if rep.i1:
            return Regime.IMAG_ANCHOR_H_PLUS
        if rep.i3:
            return Regime.IMAG_ANCHOR_H_MINUS
        return Regime.IMAG_NO_ANCHOR if len(rep.j3) % 4 == 0 else None
    if rep.i3 or rep.i4:
        return None
    if rep.i1:
        return Regime.REAL_ANCHOR
    if len(rep.j3) % 4 == 0:
        return Regime.REAL_NO_ANCHOR
    return None


def closed_form_c(P: Presentation, pi: Permutation, regime: Regime):
    """The literal closed-form c of the given regime.

    Raises RegimeHypothesisError unless regime is applicable_regime(P, pi).
    The result always satisfies the witness equations (this is asserted).
    """
    applicable = applicable_regime(P, pi)
    if applicable != regime:
        raise RegimeHypothesisError(
            f"{regime} does not apply to pi = {pi}; the applicable regime is {applicable}"
        )
    one = P.field.one
    n = P.n
    if regime == Regime.CHAR_TWO:
        c = (one,) * n
    elif regime == Regime.SYMMETRIC:
        fixed = set(pi.fixed_points())
        c = []
        for i in range(1, n + 1):
            acc = one
            if i in fixed:
                for j in range(i, n + 1):
                    if j in fixed:
                        acc = acc * P.q[i - 1][j - 1] ** (P.a[j - 1] - 1)
            c.append(acc)
        c = tuple(c)
    else:
        # the sign regimes: c = 1 on i1, i2 and sqrt(-1) on i3, i4; moved
        # pairs normalized to c_i = 1, c_{pi(i)} = h_{e_i} for i < pi(i)
        h = P.h_generators()
        rep = partition(P, pi)
        root = P.field.sqrt_minus_one()
        c = [None] * (n + 1)
        for i in rep.i1 + rep.i2:
            c[i] = one
        for i in rep.i3 + rep.i4:
            c[i] = root
        for i in rep.moved:
            c[i] = one if i < pi(i) else h[i - 1]
        minus = regime == Regime.IMAG_ANCHOR_H_MINUS
        if minus or regime in (Regime.IMAG_ANCHOR_H_PLUS, Regime.REAL_ANCHOR):
            anchor = min(rep.i3 if minus else rep.i1)
            rest = q_pi(P, pi)
            for i in range(1, n + 1):
                if i != anchor:
                    rest = rest * c[i] ** (P.a[i - 1] - 1)
            if minus and (P.a[anchor - 1] // 2) % 2:
                rest = -rest
            c[anchor] = rest
        c = tuple(c[1:])
    check_witness(P, Witness(pi, c))
    return c


@dataclass
class InvolutionRecord:
    pi: Permutation
    intrinsic: bool
    solver_found: bool


@dataclass
class DecisionReport:
    """Outcome of decide() with the evidence trail."""

    exists: bool
    reason: str | None
    witness: Witness | None
    regime: str
    nakayama_involutive: bool
    n_involutions: int
    involutions: list = dc_field(default_factory=list)
    cross_check_ok: bool = True

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "reason": self.reason,
            "witness": None
            if self.witness is None
            else {
                "pi": str(self.witness.pi),
                "c": [str(ci) for ci in self.witness.c],
            },
            "regime": self.regime,
            "nakayama_involutive": self.nakayama_involutive,
            "n_involutions": self.n_involutions,
            "involutions": [
                {
                    "pi": str(rec.pi),
                    "intrinsic_condition": rec.intrinsic,
                    "solver_found_c": rec.solver_found,
                }
                for rec in self.involutions
            ],
            "cross_check_ok": self.cross_check_ok,
        }


def decide(P: Presentation) -> DecisionReport:
    """Decide existence of a witness, cross-checking two routes per involution.

    Route one asks whether a closed-form regime applies (applicable_regime);
    route two runs the sign search solve_c.  Disagreement raises
    CrossCheckError.  The returned witness (when any) belongs to the first
    qualifying involution in enumeration order, with solve_c's scalars.
    The compatible involutions are counted before the Nakayama gate, so
    n_involutions is set whether or not the gate passes.
    """
    candidates = enumerate_compatible(P, involutions_only=True)
    report = DecisionReport(
        exists=False,
        reason=None,
        witness=None,
        regime=regime_family(P),
        nakayama_involutive=P.nakayama_is_involution(),
        n_involutions=len(candidates),
    )
    if not report.nakayama_involutive:
        report.reason = "nakayama-not-involutive"
        return report
    if not candidates:
        report.reason = "no-compatible-involution"
        return report
    for pi in candidates:
        intrinsic = applicable_regime(P, pi) is not None
        c = solve_c(P, pi)
        found = c is not None
        report.involutions.append(InvolutionRecord(pi, intrinsic, found))
        if intrinsic != found:
            raise CrossCheckError(
                f"intrinsic condition ({intrinsic}) and sign search ({found}) "
                f"disagree for pi = {pi}"
            )
        if found and report.witness is None:
            report.witness = Witness(pi, c)
            report.exists = True
    if not report.exists:
        report.reason = "no-involution-admits-scalars"
    return report


# ---------------------------------------------------------------------------
# coefficient tables and the full structure


def image_indices(P: Presentation, pi: Permutation) -> list:
    """The basis index of pi(v), for v over the basis in basis order.

    pi(v) carries v_i at position pi(i), and a basis vector w has the index
    sum_k w_k stride_k with stride_k = a_{k+1} ... a_n, so index(pi v) =
    sum_i v_i stride_{pi(i)}, tabulated coordinate by coordinate.  pi must
    preserve the exponents, as a compatible permutation does.
    """
    strides = [math.prod(P.a[k + 1:]) for k in range(P.n)]
    out = [0]
    for i, ai in enumerate(P.a):
        step = strides[pi(i + 1) - 1]
        out = [x + y for x in out for y in range(0, ai * step, step)]
    return out


def _socle_powers(P: Presentation) -> list:
    """The payloads d_i = prod_{j>i} q_ij^{-(a_j - 1)}, read as q_ji^{a_j - 1}."""
    field, q, a = P.field, P.q_values, P.a
    out = []
    for i in range(P.n):
        acc = field.one.value
        for j in range(i + 1, P.n):
            acc = field._mul(acc, field._pow(q[j][i], a[j] - 1))
        out.append(acc)
    return out


def _upper(n: int, entry) -> list:
    """The n x n matrix with entry(i, j) above the diagonal and None elsewhere."""
    return [[entry(i, j) if i < j else None for j in range(n)] for i in range(n)]


def g_table(P: Presentation, w: Witness) -> list:
    """Payloads of the socle comultiplication's coefficients, in basis order.

    Entry i holds the coefficient of x_{a-1-v} (x) x_{pi(v)}, v = basis[i];
    the list returned is route one's table.  Two closed forms compute it;
    they must agree (CrossCheckError otherwise, at the first v in basis
    order), and the entries at v = 0 and v = a-1 must be 1.
    With b_jk = bracket(pi e_k, pi e_j):
      route one   g_v = bracket(top - v, v)^{-1} prod_i c_i^{v_i}
                        prod_{j<k} b_jk^{v_j v_k}
      route two   g_{pi(v)} = bracket(top - pi v, pi v)^{-1}
                        prod_i c_{pi(i)}^{v_i} prod_{j<k} b_jk^{-v_j v_k}

    Each route is a quadratic character of v, prod_i l_i^{v_i}
    prod_{i<j} m_ij^{v_i v_j}, tabulated over the basis with O(1) field
    products per entry (Presentation.quadratic_table).  With
    d_i = prod_{j>i} q_ij^{-(a_j - 1)},
      bracket(top - v, v)^{-1} = prod_{i<j} q_ij^{-(a_j - 1) v_i} q_ij^{v_i v_j},
    so route one has l_i = c_i d_i and m_ij = q_ij b_ij.  pi(v) carries v_i
    at position pi(i), so the bracket at pi(v) has l_i = d_{pi(i)} and
    m_ij = q_{pi(i) pi(j)} with the pair in increasing order, and route two
    has l_i = c_{pi(i)} d_{pi(i)} and m_ij = q_{pi(i) pi(j)} b_ij^{-1}.  Route
    two's table, in the order of v, is moved to pi(v) by image_indices.  The
    routes share only the d_i.
    """
    check_witness(P, w)
    field, n, q = P.field, P.n, P.q_values
    mul = field._mul
    p = [w.pi(i + 1) - 1 for i in range(n)]  # pi on 0-based positions
    c = [ci.value for ci in w.c]
    d = _socle_powers(P)
    units = [P.unit_vec(i + 1) for i in range(n)]
    b = _upper(n, lambda j, k: P.bracket_value(units[p[k]], units[p[j]]))

    route_one = P.quadratic_table(
        [mul(c[i], d[i]) for i in range(n)], _upper(n, lambda i, j: mul(q[i][j], b[i][j]))
    )
    table = P.quadratic_table(
        [mul(c[p[i]], d[p[i]]) for i in range(n)],
        _upper(n, lambda i, j: mul(q[min(p[i], p[j])][max(p[i], p[j])], field._inv(b[i][j]))),
    )
    route_two = [None] * P.dim
    for k, x in zip(image_indices(P, w.pi), table):
        route_two[k] = x

    if route_one != route_two:
        v, x, y = next(t for t in zip(P.basis(), route_one, route_two) if t[1] != t[2])
        raise CrossCheckError(
            f"socle coefficient routes disagree at v = {v}: "
            f"{Scalar(field, x)} vs {Scalar(field, y)}"
        )
    one = field.one.value
    if route_one[0] != one or route_one[-1] != one:
        raise CrossCheckError("boundary socle coefficients must be 1")
    return route_one


@dataclass
class BfaStructure:
    """A structure of the construction: presentation, witness, g and s_coef.

    Once (P, witness) is fixed, the construction fixes delta and the support
    of S, and only two payload tables in basis order are free:
      g[i]       the coefficient of x_{a-1-v} (x) x_{pi(v)} in delta(t),
                 v = basis[i], as in g_table
      s_coef[i]  the c of S(x_v) = c x_{pi(v)}
    witness.pi is a compatible involution, as check_witness demands of
    every witness, so s_img, the basis index of pi(v) for each v, is an
    involution of the basis fixing 1 and t.  The counit is the
    coefficient-of-1 functional.  dataclasses.replace makes a copy with
    other tables.
    """

    presentation: Presentation
    witness: Witness
    g: list
    s_coef: list

    @cached_property
    def s_img(self) -> list:
        """S(x_v) is a multiple of x_{pi(v)}: image_indices of witness.pi."""
        return image_indices(self.presentation, self.witness.pi)

    def row(self, i: int) -> list:
        """delta(x_v), v = basis[i], for a basis index i, as (index, index,
        payload) terms: 1 (x) 1 at 0, the primitive row 1 (x) x_v + x_v (x) 1
        in between, and at the last index the row of t,
        delta(t) = sum_v g_v x_{a-1-v} (x) x_{pi(v)}, spelled on each call:
        term k is (last - k, s_img[k], g[k]), since the complement a-1-v of
        the basis vector at index k is the one at index last - k."""
        one, last = self.presentation.field.one.value, len(self.g) - 1
        if i == last:
            return [(last - k, w, x) for k, (w, x) in enumerate(zip(self.s_img, self.g))]
        return [(0, i, one), (i, 0, one)] if i else [(0, 0, one)]


def build_structure(P: Presentation, w: Witness) -> BfaStructure:
    """The structure of a witness, with S(x_v) = g_v bracket(a-1-v, v) x_{pi(v)}.

    bracket(top - v, v) = prod_{i<j} q_ij^{(a_j - 1) v_i} q_ji^{v_i v_j} is
    read from one quadratic_table, with l_i = d_i^{-1} (d_i as in g_table).
    """
    g = g_table(P, w)
    field, q = P.field, P.q_values
    brackets = P.quadratic_table(
        [field._inv(x) for x in _socle_powers(P)], _upper(P.n, lambda i, j: q[j][i])
    )
    return BfaStructure(P, w, g, list(map(field._mul, g, brackets)))
