"""Construction and decision of comultiplications with monomial antipode.

The algebra carries the functional phi = x_{a-1}^* and the socle element
t = x_{a-1}.  A witness is a compatible involution pi together with scalars
c_1..c_n satisfying

    c_i * c_{pi(i)} = h_{e_i}          for every i, and
    q_pi * prod_i c_i^{a_i - 1} = 1.

Every witness yields a comultiplication with counit x |-> coefficient of 1,
primitive on all middle basis vectors, whose induced antipode is the monomial
map S(x_v) = (coefficient) x_{pi(v)}.  decide() settles existence by two
independent routes and insists they agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from enum import Enum

from .algebra import Presentation
from .errors import (
    CrossCheckError,
    NotCompatibleError,
    NotInvolutionError,
    RegimeHypothesisError,
    WitnessInvalidError,
)
from .permutations import (
    PartitionReport,
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
    one = P.field.one
    h = P.h_generators()
    if any(hi * hi != one for hi in h):
        return None
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
    """Closed-form recipes for the scalars c, named by their hypotheses.

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


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise RegimeHypothesisError(why)


def closed_form_c(P: Presentation, pi: Permutation, regime: Regime):
    """The literal closed-form c for the given regime; hypotheses are checked.

    The result always satisfies the witness equations (this is asserted).
    """
    one = P.field.one
    h = P.h_generators()
    n = P.n
    if regime == Regime.CHAR_TWO:
        _require(P.field.characteristic() == 2, "characteristic must be 2")
        _require(pi.is_involution() and is_compatible(P, pi), "need a compatible involution")
        _require(all(hi == one for hi in h), "Nakayama map must be involutive")
        c = tuple(one for _ in range(n))
        check_witness(P, Witness(pi, c))
        return c
    if regime == Regime.SYMMETRIC:
        _require(P.is_symmetric(), "all h_{e_i} must equal 1")
        _require(pi.is_involution() and is_compatible(P, pi), "need a compatible involution")
        fixed = set(pi.fixed_points())
        c = []
        for i in range(1, n + 1):
            if i in fixed:
                acc = one
                for j in range(i, n + 1):
                    if j in fixed:
                        acc = acc * P.q[i - 1][j - 1] ** (P.a[j - 1] - 1)
                c.append(acc)
            else:
                c.append(one)
        c = tuple(c)
        check_witness(P, Witness(pi, c))
        return c

    _require(P.field.characteristic() != 2, "sign regimes need characteristic != 2")
    _require(all(hi * hi == one for hi in h), "Nakayama map must be involutive")
    rep = partition(P, pi)
    root = P.field.sqrt_minus_one()
    qp = rep.q_pi

    def moved_value(i: int) -> Scalar:
        return one if i < pi(i) else h[i - 1]

    if regime in (Regime.IMAG_ANCHOR_H_PLUS, Regime.REAL_ANCHOR):
        if regime == Regime.IMAG_ANCHOR_H_PLUS:
            _require(root is not None, "need sqrt(-1) in the field")
        else:
            _require(root is None, "regime applies when sqrt(-1) is absent")
            _require(not rep.i3 and not rep.i4, "no fixed index may have h = -1")
        _require(bool(rep.i1), "need a fixed index with h = 1 and even exponent")
        anchor = min(rep.i1)
        c = [None] * (n + 1)
        for i in rep.i1 + rep.i2:
            c[i] = one
        for i in rep.i3 + rep.i4:
            c[i] = root
        for i in rep.moved:
            c[i] = moved_value(i)
        rest = one
        for i in range(1, n + 1):
            if i != anchor:
                rest = rest * c[i] ** (P.a[i - 1] - 1)
        c[anchor] = qp * rest
    elif regime == Regime.IMAG_ANCHOR_H_MINUS:
        _require(root is not None, "need sqrt(-1) in the field")
        _require(bool(rep.i3), "need a fixed index with h = -1 and even exponent")
        anchor = min(rep.i3)
        c = [None] * (n + 1)
        for i in rep.i1 + rep.i2:
            c[i] = one
        for i in rep.i3 + rep.i4:
            c[i] = root
        for i in rep.moved:
            c[i] = moved_value(i)
        rest = one
        for i in range(1, n + 1):
            if i != anchor:
                rest = rest * c[i] ** (P.a[i - 1] - 1)
        sign = one if (P.a[anchor - 1] // 2) % 2 == 0 else -one
        c[anchor] = sign * qp * rest
    elif regime in (Regime.IMAG_NO_ANCHOR, Regime.REAL_NO_ANCHOR):
        if regime == Regime.IMAG_NO_ANCHOR:
            _require(root is not None, "need sqrt(-1) in the field")
        else:
            _require(root is None, "regime applies when sqrt(-1) is absent")
        _require(not rep.i1 and not rep.i3, "no even-exponent fixed index allowed")
        _require(not rep.i4, "fixed indices with h = -1 cannot occur here")
        _require(len(rep.j3) % 4 == 0, "moved h = -1 even-exponent pairs must pair up evenly")
        c = [None] * (n + 1)
        for i in rep.fixed:
            c[i] = one
        for i in rep.moved:
            c[i] = moved_value(i)
    else:
        raise RegimeHypothesisError(f"unknown regime {regime!r}")
    c = tuple(c[1:])
    check_witness(P, Witness(pi, c))
    return c


def applicable_regime(P: Presentation, pi: Permutation):
    """The regime whose closed form applies to this involution, or None."""
    one = P.field.one
    h = P.h_generators()
    if any(hi * hi != one for hi in h):
        return None
    if not pi.is_involution() or not is_compatible(P, pi):
        return None
    if P.field.characteristic() == 2:
        return Regime.CHAR_TWO
    if P.is_symmetric():
        return Regime.SYMMETRIC
    rep = partition(P, pi)
    has_root = P.field.sqrt_minus_one() is not None
    if has_root:
        if rep.i1:
            return Regime.IMAG_ANCHOR_H_PLUS
        if rep.i3:
            return Regime.IMAG_ANCHOR_H_MINUS
        if not rep.i4 and len(rep.j3) % 4 == 0:
            return Regime.IMAG_NO_ANCHOR
        return None
    if rep.i3 or rep.i4:
        return None
    if rep.i1:
        return Regime.REAL_ANCHOR
    if len(rep.j3) % 4 == 0:
        return Regime.REAL_NO_ANCHOR
    return None


def intrinsic_predicate(P: Presentation, pi: Permutation) -> bool:
    """Existence condition for scalars c over the given compatible involution.

    Assumes the global h^2 = 1 gate already passed.  In characteristic 2 and
    in the symmetric case every compatible involution qualifies.  Otherwise
    the partition counts decide: with sqrt(-1) in the field the condition is
    |i1| + |i3| != 0 or |j3|/2 even; without it, additionally no fixed index
    may carry h = -1.
    """
    if P.field.characteristic() == 2 or P.is_symmetric():
        return True
    rep = partition(P, pi)
    if P.field.sqrt_minus_one() is not None:
        return bool(rep.i1 or rep.i3) or len(rep.j3) % 4 == 0
    if rep.i3 or rep.i4:
        return False
    return bool(rep.i1) or len(rep.j3) % 4 == 0


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


def regime_family(P: Presentation) -> str:
    if P.field.characteristic() == 2:
        return "char-two"
    if P.is_symmetric():
        return "symmetric"
    if P.field.sqrt_minus_one() is not None:
        return "sqrt-minus-one-present"
    return "sqrt-minus-one-absent"


def decide(P: Presentation) -> DecisionReport:
    """Decide existence of a witness, cross-checking two routes per involution.

    Route one evaluates the intrinsic partition condition; route two runs the
    sign search solve_c.  Disagreement raises CrossCheckError.  The returned
    witness (when any) belongs to the first qualifying involution in
    enumeration order, with solve_c's scalars.
    """
    family = regime_family(P)
    one = P.field.one
    if any(h * h != one for h in P.h_generators()):
        return DecisionReport(
            exists=False,
            reason="nakayama-not-involutive",
            witness=None,
            regime=family,
            nakayama_involutive=False,
        )
    report = DecisionReport(
        exists=False,
        reason=None,
        witness=None,
        regime=family,
        nakayama_involutive=True,
    )
    candidates = enumerate_compatible(P, involutions_only=True)
    if not candidates:
        report.reason = "no-compatible-involution"
        return report
    for pi in candidates:
        intrinsic = intrinsic_predicate(P, pi)
        c = solve_c(P, pi)
        found = c is not None
        report.involutions.append(InvolutionRecord(pi, intrinsic, found))
        if intrinsic != found:
            report.cross_check_ok = False
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


def g_table(P: Presentation, w: Witness) -> dict:
    """Coefficients of the socle comultiplication, keyed by v in the basis.

    Entry v holds the coefficient of x_{a-1-v} (x) x_{pi(v)}.  Two closed
    forms compute it; they must agree (CrossCheckError otherwise), and the
    entries at v = 0 and v = a-1 must be 1.
    """
    check_witness(P, w)
    pi = w.pi
    one = P.field.one
    top = P.top
    pe = [pi.act(P.unit_vec(i)) for i in range(1, P.n + 1)]  # images of e_i

    def pair_product(v, negate: bool) -> Scalar:
        acc = one
        for j in range(P.n):
            for k in range(j + 1, P.n):
                e = v[j] * v[k]
                if e:
                    base = P.bracket(pe[k], pe[j])
                    acc = acc * base ** (-e if negate else e)
        return acc

    route_one = {}
    for v in P.basis():
        comp = tuple(t - x for t, x in zip(top, v))
        coeff = P.bracket(comp, v).inverse()
        for i in range(P.n):
            if v[i]:
                coeff = coeff * w.c[i] ** v[i]
        route_one[v] = coeff * pair_product(v, negate=False)

    route_two = {}
    for v in P.basis():
        pv = pi.act(v)
        comp = tuple(t - x for t, x in zip(top, pv))
        coeff = P.bracket(comp, pv).inverse()
        for i in range(P.n):
            if v[i]:
                coeff = coeff * w.c[pi(i + 1) - 1] ** v[i]
        route_two[pv] = coeff * pair_product(v, negate=True)

    for v in P.basis():
        if route_one[v] != route_two[v]:
            raise CrossCheckError(
                f"socle coefficient routes disagree at v = {v}: "
                f"{route_one[v]} vs {route_two[v]}"
            )
    if route_one[P.zero_vec] != one or route_one[top] != one:
        raise CrossCheckError("boundary socle coefficients must be 1")
    return route_one


@dataclass
class BfaStructure:
    """A verified-ready structure: presentation, witness, and all tables.

    delta maps each basis vector v to a list of (u, w, coeff) tensor terms;
    s_map sends v to (image vector, coeff); g holds the socle coefficients
    keyed by v as in g_table.  The counit is the coefficient-of-1 functional.
    """

    presentation: Presentation
    witness: Witness
    g: dict
    delta: dict
    s_map: dict

    @property
    def t_vec(self) -> tuple:
        return self.presentation.top

    def phi(self) -> dict:
        return self.presentation.dual_functional(self.presentation.top)

    def t_elem(self) -> dict:
        return self.presentation.monomial(self.presentation.top)

    def epsilon(self, x: dict):
        c = x.get(self.presentation.zero_vec)
        return self.presentation.field.zero if c is None else c

    def delta_elem(self, x: dict) -> dict:
        """Tensor expansion of x as a dict keyed by vector pairs."""
        P = self.presentation
        out: dict = {}
        for v, c in x.items():
            for u, wv, coeff in self.delta[v]:
                key = (u, wv)
                term = c * coeff
                acc = out.get(key)
                acc = term if acc is None else acc + term
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return out

    def s_elem(self, x: dict) -> dict:
        P = self.presentation
        out: dict = {}
        for v, c in x.items():
            img, coeff = self.s_map[v]
            term = c * coeff
            acc = out.get(img)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(img, None)
            else:
                out[img] = acc
        return out


def build_structure(P: Presentation, w: Witness) -> BfaStructure:
    """Assemble the comultiplication and antipode tables from a witness."""
    g = g_table(P, w)
    one = P.field.one
    top = P.top
    zero = P.zero_vec
    delta: dict = {}
    for v in P.basis():
        if v == zero:
            delta[v] = [(zero, zero, one)]
        elif v == top:
            delta[v] = [
                (tuple(t - x for t, x in zip(top, u)), w.pi.act(u), g[u])
                for u in P.basis()
            ]
        else:
            delta[v] = [(zero, v, one), (v, zero, one)]
    s_map = {}
    for v in P.basis():
        comp = tuple(t - x for t, x in zip(top, v))
        s_map[v] = (w.pi.act(v), g[v] * P.bracket(comp, v))
    return BfaStructure(P, w, g, delta, s_map)

