"""Shared random generators and identity-suite engines.

Each suite engine draws randomized instances (presentation, vectors, and a
permutation where required), asserts an exact identity on every instance,
and returns the number of instances checked.  Engines are deterministic
for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, cached_property

from qci.algebra import Presentation, basis_keys, monomial_name, vector_key
from qci.builder import BfaStructure, Witness, build_structure, decide, g_table
from qci.errors import NotInvertibleError, SingularMatrixError
from qci.linalg import add_term, null_space, rref
from qci.permutations import Permutation, partition, q_pi
from qci.scalars import Field, Scalar, cyclotomic_polynomial, make_field
from qci.structio import structure_to_json
from qci.verify import AXIOM_CHECKS, DERIVED_CHECKS

# one PASS/FAIL line per acceptance criterion, echoed by the conftest
# terminal-summary hook so the lines survive pytest's output capture
ACCEPTANCE_LINES: list = []


def field_pool() -> list:
    return [
        make_field("rational"),
        make_field("prime", 2),
        make_field("prime", 3),
        make_field("prime", 5),
        make_field("prime", 7),
        make_field("prime", 13),
        make_field("cyclotomic", 3),
        make_field("cyclotomic", 4),
        make_field("cyclotomic", 8),
    ]


def unit_pool(field: Field) -> list:
    """Nonzero scalars used for random q entries."""
    if field.kind == "rational":
        vals = ["1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3"]
        return [field.parse(v) for v in vals]
    if field.kind == "prime":
        return [field.from_int(k) for k in range(1, field.p)]
    units = [field.zeta_power(k) for k in range(field.m)]
    return units + [-u for u in units]


def root_pool(field: Field) -> list:
    """Units with small multiplicative order, for h-involutive sampling."""
    if field.kind == "rational":
        return [field.one, -field.one]
    if field.kind == "prime":
        return [field.from_int(k) for k in range(1, field.p)]
    return [field.zeta_power(k) for k in range(field.m)] + [
        -field.zeta_power(k) for k in range(field.m)
    ]


def rand_vector(rng: random.Random, n: int, lo: int = -3, hi: int = 4) -> tuple:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def rand_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def rand_involution(rng: random.Random, n: int) -> Permutation:
    images = [0] * (n + 1)
    todo = list(range(1, n + 1))
    rng.shuffle(todo)
    while todo:
        i = todo.pop()
        if images[i]:
            continue
        if todo and rng.random() < 0.6:
            j = next((x for x in todo if not images[x]), None)
            if j is not None:
                images[i], images[j] = j, i
                continue
        images[i] = i
    return Permutation(tuple(images[1:]))


def rand_presentation(
    rng: random.Random, field: Field, n: int | None = None, a_hi: int = 4
) -> Presentation:
    """A random presentation with unconstrained q entries."""
    if n is None:
        n = rng.randint(2, 4)
    pool = unit_pool(field)
    a = [rng.randint(2, a_hi) for _ in range(n)]
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u = rng.choice(pool)
            q[i][j] = u
            q[j][i] = u.inverse()
    return Presentation(field, a, q)


def rand_compatible(
    rng: random.Random,
    field: Field,
    n: int | None = None,
    a_hi: int = 4,
    pool: list | None = None,
):
    """A random presentation together with a compatible involution.

    Exponents are constant on pi-orbits.  q entries are drawn freely on
    orbit representatives of (i,j) -> (pi(i),pi(j)) and propagated through
    the compatibility constraint q_{pi(i)pi(j)} = q_{ji}; a pair of fixed
    indices is forced to carry +-1.
    """
    if n is None:
        n = rng.randint(2, 4)
    if pool is None:
        pool = unit_pool(field)
    pi = rand_involution(rng, n)
    one = field.one
    a = [0] * (n + 1)
    for i in range(1, n + 1):
        if a[i] == 0:
            val = rng.randint(2, a_hi)
            a[i] = val
            a[pi(i)] = val
    q = [[one for _ in range(n)] for _ in range(n)]

    def put(i: int, j: int, u) -> None:
        q[i - 1][j - 1] = u
        q[j - 1][i - 1] = u.inverse()

    done = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) in done:
                continue
            img = tuple(sorted((pi(i), pi(j))))
            if img == (i, j):
                if pi(i) == i and pi(j) == j:
                    u = one if field.characteristic() == 2 else rng.choice([one, -one])
                else:
                    u = rng.choice(pool)
                put(i, j, u)
            else:
                u = rng.choice(pool)
                put(i, j, u)
                put(pi(i), pi(j), q[j - 1][i - 1])
                done.add(img)
            done.add((i, j))
    return Presentation(field, a[1:], q), pi


def rand_compatible_involutive_h(
    rng: random.Random, field: Field, n: int | None = None, a_hi: int = 4
):
    """Like rand_compatible but retries until every h_{e_i}^2 = 1."""
    for _ in range(500):
        P, pi = rand_compatible(rng, field, n, a_hi, pool=root_pool(field))
        if P.nakayama_is_involution():
            return P, pi
    raise AssertionError("could not sample an h-involutive presentation")


# ---------------------------------------------------------------------------
# elements, functionals and permutations on Scalars


def one_elem(P: Presentation) -> dict:
    """The unit 1 of the algebra."""
    return {P.zero_vec: P.field.one}


def monomial(P: Presentation, v, coeff=None) -> dict:
    """coeff x_v (x_v when coeff is None), with no term kept when coeff = 0."""
    coeff = P.field.one if coeff is None else coeff
    if coeff.is_zero():
        return {}
    return {tuple(v): coeff}


def dual_functional(P: Presentation, v) -> dict:
    """The linear functional picking out the coefficient of x_v."""
    return {tuple(v): P.field.one}


def scale(P: Presentation, c: Scalar, x: dict) -> dict:
    """c x, with no term kept when c = 0."""
    if c.is_zero():
        return {}
    return {v: c * cv for v, cv in x.items()}


def mul_basis(P: Presentation, u, v):
    """Product of two basis monomials: (w, coeff) or (None, 0)."""
    w = tuple(a + b for a, b in zip(u, v))
    if not P.in_basis(w):
        return None, P.field.zero
    return w, P.bracket(u, v)


def apply_functional(P: Presentation, f: dict, x: dict) -> Scalar:
    """f(x) for a functional f given by its values on basis vectors."""
    out = P.field.zero
    for v, c in x.items():
        fv = f.get(v)
        if fv is not None:
            out = out + fv * c
    return out


def complement(P: Presentation, v) -> tuple:
    """The exponent vector a - 1 - v, whose monomial pairs x_v onto the socle."""
    return tuple(t - x for t, x in zip(P.top, v))


def t_vec(B) -> tuple:
    """The exponent vector of the integral t = x_top."""
    return B.presentation.top


def t_elem(B) -> dict:
    """The integral t = x_top."""
    return monomial(B.presentation, B.presentation.top)


def phi_of(B) -> dict:
    """The Frobenius functional phi = x_top^*."""
    return dual_functional(B.presentation, B.presentation.top)


def epsilon(B, x: dict):
    """The counit: the coefficient of 1 in x."""
    c = x.get(B.presentation.zero_vec)
    return B.presentation.field.zero if c is None else c


def h_of(P: Presentation, v) -> Scalar:
    """h_v = bracket(a-1-v, v) / bracket(v, a-1-v) on any integer vector v.

    Computed as prod_i h_{e_i}^{v_i} from the payloads P.h_values(): with
    q_ii = 1 and q_ji = q_ij^{-1} the v_i v_j factors of the two brackets
    cancel.
    """
    field = P.field
    out = field.one.value
    for h, e in zip(P.h_values(), v):
        out = field._mul(out, field._pow(h, e))
    return Scalar(field, out)


def nakayama(P: Presentation, x: dict) -> dict:
    """The closed-form Nakayama automorphism, scaling each x_v by h_v."""
    return {v: h_of(P, v) * c for v, c in x.items()}


def failing(report) -> list:
    """The checks of a VerificationReport that did not pass, in report order."""
    return [c for c in report.checks if not c.passed]


def identity_permutation(n: int) -> Permutation:
    """The identity permutation of 1..n."""
    return Permutation(range(1, n + 1))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The permutation of 1..n exchanging i and j."""
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(images)


# ---------------------------------------------------------------------------
# the tables of a structure on vectors and Scalars


def delta_table(B) -> dict:
    """delta as {v: [(u, w, coeff)]} on vectors and Scalars, read off B.row
    for every basis vector."""
    P = B.presentation
    basis = P.basis()
    return {
        v: [(basis[u], basis[w], Scalar(P.field, c)) for u, w, c in B.row(i)]
        for i, v in enumerate(basis)
    }


def s_table(B) -> dict:
    """S as {v: (image, coeff)} on vectors and Scalars, read off B.s_img and B.s_coef."""
    P = B.presentation
    basis = P.basis()
    return {v: (basis[w], Scalar(P.field, c)) for v, w, c in zip(basis, B.s_img, B.s_coef)}


# The tests read a structure through its tuple tables, as B.delta and
# B.s_map; the package stores only g and s_coef on basis indices.  So the
# tables are derived here, on first read, and tampered copies are made with
# dataclasses.replace on g and s_coef.
for _name, _table in (("delta", delta_table), ("s_map", s_table)):
    _derived = cached_property(_table)
    _derived.__set_name__(BfaStructure, _name)
    setattr(BfaStructure, _name, _derived)


def delta_elem(B, x: dict) -> dict:
    """delta(x) of a Scalar element x, keyed by vector pairs."""
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in B.delta[v]:
            add_term(out, (u, w), c * coeff)
    return out


def s_elem(B, x: dict) -> dict:
    """S(x) of a Scalar element x."""
    out: dict = {}
    for v, c in x.items():
        img, coeff = B.s_map[v]
        add_term(out, img, c * coeff)
    return out


def reference_tensor_mul(P: Presentation, s: dict, t: dict) -> dict:
    """Componentwise product on the tensor square of Scalar dicts keyed by
    vector pairs, its brackets from reference_bracket: the reference for the
    product of qci.verify.is_hopf_comultiplication."""
    out: dict = {}
    for (u1, w1), c1 in s.items():
        for (u2, w2), c2 in t.items():
            u = tuple(a + b for a, b in zip(u1, u2))
            w = tuple(a + b for a, b in zip(w1, w2))
            if P.in_basis(u) and P.in_basis(w):
                coeff = c1 * c2 * reference_bracket(P, u1, u2) * reference_bracket(P, w1, w2)
                add_term(out, (u, w), coeff)
    return out


def reference_copairing(B) -> tuple:
    """(passed, detail) of frobenius-copairing from the dense dim x dim
    matrix whose entry (u, w) is the coefficient of x_u (x) x_w in delta(t),
    on the tuple tables, and its rank by dense elimination."""
    P = B.presentation
    terms = B.delta[P.top]
    mat = [[P.field.zero] * P.dim for _ in range(P.dim)]
    for u, w, c in terms:
        mat[P.index(u)][P.index(w)] += c
    r = dense_rank(mat)
    return (True, None) if r == P.dim else (False, {"rank": r})


def reference_primitive_space_dim(B) -> int:
    """Dimension of the primitives from the dense matrix on the tuple tables:
    column v holds delta(x_v) - 1 (x) x_v - x_v (x) 1 on every vector pair
    any column touches, and the kernel comes from dense elimination."""
    P = B.presentation
    zero, one = P.zero_vec, P.field.one
    columns = []
    for v in P.basis():
        col = delta_elem(B, monomial(P, v))
        add_term(col, (zero, v), -one)
        add_term(col, (v, zero), -one)
        columns.append(col)
    keys = sorted(set().union(*columns))
    if not keys:
        return P.dim
    mat = [[col.get(key, P.field.zero) for col in columns] for key in keys]
    return len(dense_kernel_basis(P.field, mat))


# ---------------------------------------------------------------------------
# element arithmetic the package itself does not need


def format2_blob(B) -> dict:
    """B as a format-2 structure file: the format-3 texts keyed by basis
    vector, each s entry [image, coefficient] with the pi-image's key."""
    obj = {**structure_to_json(B), "format": 2}
    keys = basis_keys(B.presentation.a)
    obj["g"] = dict(zip(keys, obj["g"]))
    obj["s"] = {key: [keys[w], x] for key, w, x in zip(keys, B.s_img, obj["s"])}
    return obj


def format1_blob(B) -> dict:
    """B as a format-1 structure file: format 2 plus the delta block before s."""
    obj = {**format2_blob(B), "format": 1}
    s_block = obj.pop("s")
    obj["delta"] = {
        vector_key(v): [[vector_key(u), vector_key(w), str(c)] for u, w, c in rows]
        for v, rows in B.delta.items()
    }
    obj["s"] = s_block
    return obj


def add(x: dict, y: dict) -> dict:
    """x + y of sparse elements, dropping terms that cancel."""
    out = dict(x)
    for v, c in y.items():
        add_term(out, v, c)
    return out


def reference_element_to_string(P: Presentation, x: dict) -> str:
    """An element of A as text, one term per basis vector in x, walked in
    basis order: the reference for Presentation.element_to_string on A."""
    if not x:
        return "0"
    parts = []
    for v in P.basis():
        c = x.get(v)
        if c is not None:
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(v, start=1) if e
            )
            parts.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(parts)


def apply_linear(P: Presentation, images: list, x: dict) -> dict:
    """The linear map with x_v |-> images[P.index(v)], applied to x."""
    out: dict = {}
    for v, c in x.items():
        for w, cw in images[P.index(v)].items():
            add_term(out, w, c * cw)
    return out


def reference_invert_element(P: Presentation, x: dict) -> dict:
    """Two-sided inverse of x, via an exact solve; raises when absent.

    Solves x * y = 1 with one sparse row per basis vector: column j
    holds the coefficients of x * x_j, column dim the right-hand side.
    The reference for the nilpotent series of Presentation.invert_element.
    """
    basis = P.basis()
    dim = len(basis)
    rows = [{} for _ in basis]
    for j, w in enumerate(basis):
        for v, c in P.mul(x, monomial(P, w)).items():
            rows[P.index(v)][j] = c
    rows[P.index(P.zero_vec)][dim] = P.field.one
    try:
        sol = solve_square(rows, dim)
    except SingularMatrixError:
        raise NotInvertibleError("element is not invertible") from None
    return {basis[j]: c for j, c in sol.items()}


def solve_square(rows, n: int) -> dict:
    """Solve A x = b for square A, from sparse rows of A with b_i at column
    n, by one rref; returns {index: nonzero Scalar} and raises
    SingularMatrixError when A is singular."""
    reduced = rref(rows)
    if len(reduced) != n or any(c >= n for c in reduced):
        raise SingularMatrixError("matrix is singular")
    return {i: reduced[i][n] for i in range(n) if n in reduced[i]}


def reference_nakayama_wrt(P: Presentation, phi: dict) -> list:
    """Images N(x_v), indexed like the basis, of the automorphism with
    phi(xy) = phi(y N(x)).

    With M the pairing matrix of phi, N(x_u) = sum_i X[i][u] x_i solves
    M X = M^T; one rref of the rows [M | M^T] gives X.  Raises
    SingularMatrixError when the pairing of phi is degenerate.
    """
    basis = P.basis()
    dim = len(basis)
    mat = P.pairing_matrix(phi)
    rows = []
    for i in range(dim):
        row = {j: x for j, x in enumerate(mat[i]) if not x.is_zero()}
        row.update({dim + k: mat[k][i] for k in range(dim) if not mat[k][i].is_zero()})
        rows.append(row)
    reduced = rref(rows)
    if sorted(reduced) != list(range(dim)):
        raise SingularMatrixError("functional pairing is degenerate")
    return [
        {basis[i]: row[dim + k] for i, row in reduced.items() if dim + k in row}
        for k in range(dim)
    ]


# ---------------------------------------------------------------------------
# dense elimination: a reference for the sparse kernel of qci.linalg


def dense_eliminate(mat) -> list:
    """Reduced row echelon form of a list of rows of Scalars, in place.

    Returns the pivot column indices.  This is the straightforward dense
    Gauss-Jordan elimination qci.linalg once used; the tests compare the
    sparse kernel against it.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and not mat[i][c].is_zero():
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def dense_rank(mat) -> int:
    return len(dense_eliminate([list(row) for row in mat]))


def dense_kernel_basis(field: Field, mat) -> list:
    if not mat:
        return []
    cols = len(mat[0])
    work = [list(row) for row in mat]
    pivots = dense_eliminate(work)
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        vec = [field.zero] * cols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def dense_solve_matrix(a, b):
    """Solution of A X = B for square A, or None when A is singular."""
    n = len(a)
    work = [list(a[i]) + list(b[i]) for i in range(n)]
    if dense_eliminate(work) != list(range(n)):
        return None
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# exhaustive pair loops: a reference for the axiom checks of qci.verify


def reference_pair_checks(B) -> dict:
    """The three pair checks of verify_axioms, evaluated on all dim^2 pairs.

    These are the loops qci.verify once ran: every (u, v) in basis order,
    with no use of the supports of the tables.  Returns {name: entry} with
    entries shaped like CheckResult.to_json(), so the tests compare the
    verdict and the detail of the support-driven loops against them.
    """
    P = B.presentation
    basis = P.basis()
    out = {}

    def record(name, ok, detail):
        out[name] = {"name": name, "passed": ok, "detail": detail}

    record("counit-algebra-map", *reference_counit_algebra_map(B))
    record("antipode-antihomomorphism", *reference_antihomomorphism(B))

    ok, detail = True, None
    phi = phi_of(B)
    for v in basis:
        acc: dict = {}
        for u, w, c in B.delta[t_vec(B)]:
            uv, cuv = mul_basis(P, u, v)
            fuv = None if uv is None else phi.get(uv)
            if fuv is None:
                continue
            val = fuv * cuv
            if not val.is_zero():
                add_term(acc, w, val * c)
        if acc != s_elem(B, monomial(P, v)):
            ok, detail = False, {
                "v": list(v),
                "expected": P.element_to_string(s_elem(B, monomial(P, v))),
                "actual": P.element_to_string(acc),
            }
            break
    record("antipode-definition", ok, detail)
    return out


def reference_antihomomorphism(B) -> tuple:
    """(passed, detail) of antipode-antihomomorphism from all dim^2 pairs."""
    P = B.presentation
    if s_elem(B, one_elem(P)) != one_elem(P):
        return False, {"at": "S(1)"}

    def single(w, c):
        return None if c.is_zero() else (w, c)

    for u in P.basis():
        iu, cu = B.s_map[u]
        for v in P.basis():
            w, c = mul_basis(P, u, v)
            lhs = None if w is None else single(B.s_map[w][0], c * B.s_map[w][1])
            iv, cv = B.s_map[v]
            w, c = mul_basis(P, iv, iu)
            rhs = None if w is None else single(w, cv * cu * c)
            if lhs != rhs:
                return False, {"u": list(u), "v": list(v)}
    return True, None


def reference_counit_algebra_map(B) -> tuple:
    """(passed, detail) of counit-algebra-map from all dim^2 pairs."""
    P = B.presentation
    if epsilon(B, one_elem(P)) != P.field.one:
        return False, {"at": "epsilon(1)"}
    basis = P.basis()
    eps = [epsilon(B, monomial(P, u)) for u in basis]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            w, c = mul_basis(P, u, v)
            lhs = P.field.zero if w is None else epsilon(B, {w: c})
            if lhs != eps[i] * eps[j]:
                return False, {"u": list(u), "v": list(v)}
    return True, None


def reference_is_hopf(B) -> bool:
    """Whether delta is multiplicative, decided on all dim^2 pairs.

    This is the loop qci.verify.is_hopf_comultiplication once ran: every
    (u, v) in basis order, with delta applied to the whole product x_u x_v.
    """
    P = B.presentation
    basis = P.basis()
    for u in basis:
        du = delta_elem(B, monomial(P, u))
        for v in basis:
            lhs = delta_elem(B, P.mul(monomial(P, u), monomial(P, v)))
            if lhs != reference_tensor_mul(P, du, delta_elem(B, monomial(P, v))):
                return False
    return True


def reference_integral_space(P: Presentation, side: str) -> list:
    """Kernel basis of y -> (y x_i)_i ("right") or (x_i y)_i ("left").

    The literal system: one row per generator x_i and basis vector w with
    x_w x_i (or x_i x_w) nonzero, holding its coefficient at column
    index(w), solved by elimination.
    """
    rows = []
    for i in range(1, P.n + 1):
        gen = P.unit_vec(i)
        for j, w in enumerate(P.basis()):
            target, c = mul_basis(P, w, gen) if side == "right" else mul_basis(P, gen, w)
            if target is not None:
                rows.append({j: c})
    return null_space(P.field, rows, P.dim)


def reference_functional_left_hit(P: Presentation, a_elem: dict, f: dict) -> dict:
    """The functional x |-> f(x a), evaluated on every basis monomial."""
    out: dict = {}
    for v in P.basis():
        val = apply_functional(P, f, P.mul(monomial(P, v), a_elem))
        if not val.is_zero():
            out[v] = val
    return out


def presentation(field, a, entries):
    """The presentation with q_ij = entries[(i, j)] (1-based, i < j,
    literals), q_ji its inverse and every other q_ij = 1."""
    n = len(a)
    one = field.one
    q = [[one for _ in range(n)] for _ in range(n)]
    for (i, j), lit in entries.items():
        val = field.parse(lit)
        q[i - 1][j - 1] = val
        q[j - 1][i - 1] = val.inverse()
    return Presentation(field, a, q)


def built(P):
    report = decide(P)
    assert report.exists
    return build_structure(P, report.witness)


_F7, _Q, _C8 = make_field("prime", 7), make_field("rational"), make_field("cyclotomic", 8)

# Small built structures over three kinds of field, with nontrivial
# involutions, on which tests compare the package with the references.
REFERENCE_STRUCTURES = [
    built(presentation(_F7, (2, 2, 2), {(2, 3): "-1"})),
    built(presentation(_F7, (3, 3), {(1, 2): "-1"})),
    built(presentation(_Q, (2, 2, 2), {(1, 3): "-1"})),
    built(presentation(_Q, (3, 3), {(1, 2): "-1"})),
    built(presentation(_C8, (2, 2, 2), {(1, 2): "z", (1, 3): "-z^3", (2, 3): "z"})),
    built(presentation(_C8, (3, 3), {(1, 2): "z^2"})),
]


def bare_structure(P: Presentation) -> BfaStructure:
    """P with identity tables: pi = id, every g_v = 1 and S = id.

    Such tables need not satisfy any axiom, and P need not admit a
    structure at all; the checks that read only P and the counit still run
    on it through verify_axioms and verify_derived.
    """
    one = P.field.one.value
    return BfaStructure(P, Witness(identity_permutation(P.n), ()), [one] * P.dim, [one] * P.dim)


PRESENTATION_CHECKS = (
    "counit-algebra-map",
    "frobenius-pairing",
    "counit-via-integral",
    "socle-pairing-normalized",
    "right-integral",
    "integral-space-dimension",
    "unimodularity",
    "left-modular-functional",
    "nakayama-involutive",
)


def reference_presentation_checks(B) -> dict:
    """The nine checks that read only the presentation and the counit, each
    decided on the whole basis with no use of supports.

    These are the loops qci.verify once ran, some made more literal: every
    basis vector (every pair for the counit), the pairing rank from the
    products x_u x_v, both integral spaces by elimination, unimodularity by
    rref, alpha evaluated on every monomial, and h_v by its bracket
    definition.  Returns {name: entry} with entries shaped like
    CheckResult.to_json().
    """
    P = B.presentation
    one = P.field.one
    basis = P.basis()
    phi, t = phi_of(B), t_elem(B)
    out = {}

    def record(name, ok, detail):
        out[name] = {"name": name, "passed": ok, "detail": None if ok else detail}

    def first(fails):
        for v in basis:
            why = fails(v)
            if why:
                return False, {"v": list(v), **(why if isinstance(why, dict) else {})}
        return True, None

    record("counit-algebra-map", *reference_counit_algebra_map(B))
    rows = []
    for u in basis:
        row = {}
        for j, v in enumerate(basis):
            val = apply_functional(P, phi, P.mul(monomial(P, u), monomial(P, v)))
            if not val.is_zero():
                row[j] = val
        rows.append(row)
    r = len(rref(rows))
    record("frobenius-pairing", r == P.dim, {"rank": r})
    record("counit-via-integral", *first(
        lambda v: apply_functional(P, phi, P.mul(t, monomial(P, v))) != epsilon(B, monomial(P, v))
    ))
    val = apply_functional(P, phi, t)
    record("socle-pairing-normalized", val == one, {"phi(t)": str(val)})
    record("right-integral", *first(
        lambda v: P.mul(t, monomial(P, v)) != scale(P, epsilon(B, monomial(P, v)), t)
    ))
    right, left = reference_integral_space(P, "right"), reference_integral_space(P, "left")
    one_each = len(right) == len(left) == 1
    record("integral-space-dimension", one_each, {"right_dim": len(right), "left_dim": len(left)})
    record("unimodularity", one_each and len(rref([right[0], left[0]])) == 1, None)
    alpha = reference_functional_left_hit(P, t, phi)
    record("left-modular-functional", alpha == dual_functional(P, P.zero_vec), None)

    def not_involutive(v):
        hv = h_by_brackets(P, v)
        return None if hv * hv == one else {"h": str(hv)}

    record("nakayama-involutive", *first(not_involutive))
    return out


def reference_coaction(B, f: dict, x: dict, left: bool) -> dict:
    """f -> x = sum x_1 f(x_2) when left, else x <- f = sum f(x_1) x_2, on
    Scalar dicts: the loops left_coaction and right_coaction once ran."""
    out: dict = {}
    for v, c in x.items():
        for u, w, coeff in B.delta[v]:
            key, arg = (u, w) if left else (w, u)
            fv = f.get(arg)
            if fv is not None:
                add_term(out, key, c * coeff * fv)
    return out


def tensor_product(P: Presentation, x: dict, y: dict) -> dict:
    """x (x) y on Scalar dicts, keyed by vector pairs."""
    return {(u, w): cu * cw for u, cu in x.items() for w, cw in y.items()}


def reference_convolution_inverse(B, f: dict) -> dict:
    """Inverse of f in the dual algebra (f*g)(x) = sum f(x_1) g(x_2), by a
    sparse solve on Scalars: row v of the system is (f*g)(x_v) = epsilon(x_v).

    Raises NotInvertibleError when the system is singular.
    """
    P = B.presentation
    basis = P.basis()
    dim = len(basis)
    rows = []
    for v in basis:
        row: dict = {}
        for u, w, coeff in B.delta[v]:
            fu = f.get(u)
            if fu is not None:
                add_term(row, w, fu * coeff)
        rows.append({P.index(w): c for w, c in row.items()})
    rows[P.index(P.zero_vec)][dim] = P.field.one
    try:
        sol = solve_square(rows, dim)
    except SingularMatrixError:
        raise NotInvertibleError("functional has no convolution inverse") from None
    return {basis[i]: c for i, c in sol.items()}


def s_power(B, x: dict, k: int) -> dict:
    """S^k(x) of a Scalar element x."""
    for _ in range(k):
        x = s_elem(B, x)
    return x


def reference_derived_checks(B) -> dict:
    """(passed, detail) of the seventeen derived checks, by name.

    These are the bodies qci.verify once ran on tuple keys and Scalars:
    the coactions on Scalar dicts (reference_coaction), S applied k times to
    the Scalar element of each x_v, m and m^{-1} multiplied in with
    Presentation.mul, m^{-1} and alpha^{-1} by sparse solves
    (reference_invert_element, reference_convolution_inverse), never by
    certificate.  The eight checks that read only the presentation come
    from reference_presentation_checks.
    """
    P = B.presentation
    field, basis = P.field, P.basis()
    phi, t = phi_of(B), t_elem(B)
    modular = reference_coaction(B, phi, t, left=True)
    try:
        inv = reference_invert_element(P, modular)
    except NotInvertibleError:
        inv = None
    alpha = dual_functional(P, P.zero_vec)

    def first(fails):
        for v in basis:
            if fails(v):
                return False, {"v": list(v)}
        return True, None

    def unit_via_copairing():
        recovered = reference_coaction(B, phi, t, left=False)
        if recovered == one_elem(P):
            return True, None
        return False, {"value": P.element_to_string(recovered)}

    def modular_element():
        if epsilon(B, modular) != field.one:
            return False, {"at": "epsilon"}
        if delta_elem(B, modular) != tensor_product(P, modular, modular):
            return False, {"at": "grouplike"}
        if field.characteristic() == 0 and modular != one_elem(P):
            return False, {"at": "char-zero-unit"}
        return True, None

    def nakayama_via_antipode():
        if inv is None:
            return False, {"at": "modular-inverse"}

        def fails(v):
            s2 = s_power(B, reference_coaction(B, alpha, monomial(P, v), left=True), 2)
            return P.mul(P.mul(inv, s2), modular) != nakayama(P, monomial(P, v))

        return first(fails)

    def fourth_power_formula():
        if inv is None:
            return False, {"at": "modular-inverse"}
        try:
            alpha_inv = reference_convolution_inverse(B, alpha)
        except NotInvertibleError:
            return False, {"at": "alpha-inverse"}

        def fails(v):
            x = monomial(P, v)
            hit = reference_coaction(
                B, alpha_inv, reference_coaction(B, alpha, x, left=False), left=True
            )
            return s_power(B, x, 4) != P.mul(P.mul(modular, hit), inv)

        return first(fails)

    def antipode_monomial():
        found = first(
            lambda v: B.s_map[v][1].is_zero() or not P.in_basis(B.s_map[v][0])
        )
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

    out = {
        name: (entry["passed"], entry["detail"])
        for name, entry in reference_presentation_checks(B).items()
    }
    del out["counit-algebra-map"], out["frobenius-pairing"]
    out.update({
        "unit-via-copairing": unit_via_copairing(),
        "modular-element": modular_element(),
        "antipode-of-modular-element": (inv is not None and s_elem(B, modular) == inv, None),
        "nakayama-via-antipode": nakayama_via_antipode(),
        "fourth-power-formula": fourth_power_formula(),
        "antipode-graded": first(
            lambda v: B.s_map[v][1].is_zero() or sum(B.s_map[v][0]) != sum(v)
        ),
        "antipode-square-is-nakayama": first(
            lambda v: s_power(B, monomial(P, v), 2) != nakayama(P, monomial(P, v))
        ),
        "antipode-fourth-power-identity": first(
            lambda v: s_power(B, monomial(P, v), 4) != monomial(P, v)
        ),
        "antipode-fixes-integral": (s_elem(B, t) == t, None),
        "antipode-monomial": antipode_monomial(),
    })
    return out


VIEW_CHECKS = (
    "coassociativity",
    "counit-law",
    "antipode-antihomomorphism",
    "antipode-coalgebra-antihomomorphism",
    "antipode-definition",
)


def reference_view_checks(B) -> dict:
    """(passed, detail) of the five axiom checks that read delta and S, by name.

    These are the bodies qci.verify once ran on tuple keys and Scalars:
    delta rows and S images looked up by vector, the coactions of the counit
    on Scalars (reference_coaction), and products through
    mul_basis.  The anti-homomorphism is decided on all dim^2 pairs
    (reference_antihomomorphism), so it shares no candidate set with
    qci.verify.
    """
    P = B.presentation
    basis = P.basis()

    def first(fails):
        for v in basis:
            why = fails(v)
            if why:
                return False, {"v": list(v), **(why if isinstance(why, dict) else {})}
        return True, None

    def coassociative(v):
        left, right = {}, {}
        for u, w, c in B.delta[v]:
            for p, q, c2 in B.delta[u]:
                add_term(left, (p, q, w), c * c2)
            for p, q, c2 in B.delta[w]:
                add_term(right, (u, p, q), c * c2)
        return left != right

    eps = {P.zero_vec: P.field.one}

    def counit_fails(v):
        mono = monomial(P, v)
        return (
            reference_coaction(B, eps, mono, left=False) != mono
            or reference_coaction(B, eps, mono, left=True) != mono
        )

    def coalgebra_fails(v):
        image = s_elem(B, monomial(P, v))
        if epsilon(B, image) != epsilon(B, monomial(P, v)):
            return {"at": "epsilon"}
        rhs: dict = {}
        for u, w, c in B.delta[v]:
            (iu, cu), (iw, cw) = B.s_map[u], B.s_map[w]
            add_term(rhs, (iw, iu), c * cu * cw)
        if not B.delta.keys() >= image.keys() or delta_elem(B, image) != rhs:
            return {"at": "delta"}
        return None

    phi_support = [(s, fs) for s, fs in phi_of(B).items() if P.in_basis(s)]
    by_left: dict = {}
    for u, w, c in B.delta[t_vec(B)]:
        by_left.setdefault(u, []).append((w, c))

    def definition_fails(v):
        acc: dict = {}
        for s, fs in phi_support:
            u = tuple(si - vi for si, vi in zip(s, v))
            for w, c in by_left.get(u, ()):
                _, cuv = mul_basis(P, u, v)
                add_term(acc, w, fs * cuv * c)
        expected = s_elem(B, monomial(P, v))
        if acc == expected:
            return None
        return {"expected": P.element_to_string(expected), "actual": P.element_to_string(acc)}

    return {
        "coassociativity": first(coassociative),
        "counit-law": first(counit_fails),
        "antipode-antihomomorphism": reference_antihomomorphism(B),
        "antipode-coalgebra-antihomomorphism": first(coalgebra_fails),
        "antipode-definition": first(definition_fails),
    }


def reference_reports(B) -> dict:
    """The to_json() of verify_axioms(B) and verify_derived(B), as
    {"axioms": ..., "derived": ...}, from the plain evaluations above: every
    row of delta and every image of S read off the tuple tables, with no
    closed form on g.  delta(1) is printed as the unit-comultiplication
    detail of qci.verify once was."""
    P = B.presentation
    zero = P.zero_vec
    unit = delta_elem(B, one_elem(P))
    text = " + ".join(
        f"({unit[u, w]})*{monomial_name(u)}(x){monomial_name(w)}" for u, w in sorted(unit)
    )
    entries = {
        name: (entry["passed"], entry["detail"])
        for name, entry in reference_presentation_checks(B).items()
    }
    entries.update(reference_view_checks(B))
    entries.update(reference_derived_checks(B))
    ok = unit == {(zero, zero): P.field.one}
    entries["unit-comultiplication"] = (ok, None if ok else {"delta(1)": text or "0"})
    entries["frobenius-copairing"] = reference_copairing(B)

    def report(names) -> dict:
        checks = [{"name": n, "passed": entries[n][0], "detail": entries[n][1]} for n in names]
        return {"all_passed": all(c["passed"] for c in checks), "checks": checks}

    return {"axioms": report(AXIOM_CHECKS), "derived": report(DERIVED_CHECKS)}


# ---------------------------------------------------------------------------
# identity suites


# -- reference cyclotomic arithmetic: Fraction polynomials mod Phi_m ----------
# The dense Q[z] routines CyclotomicField and cyclotomic_polynomial used before
# their integer arithmetic; coefficient lists run from degree 0 upward.


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi == 0:
            continue
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return _trim(out)


def _poly_divmod(f, g):
    """Exact quotient and remainder of f by g over Q."""
    f = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    lead = g[-1]
    while len(f) >= len(g) and _trim(f):
        f = _trim(f)
        if len(f) < len(g):
            break
        k = len(f) - len(g)
        c = f[-1] / lead
        q[k] = c
        for j, gj in enumerate(g):
            f[k + j] -= c * gj
        f = f[:-1]
    return _trim(q), _trim(f)


@cache
def reference_cyclotomic_polynomial(m: int) -> tuple:
    """Phi_m by Fraction division of x^m - 1 by the Phi_d of the proper divisors d."""
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(reference_cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod(num, den)
    assert not rem, "cyclotomic division must be exact"
    return tuple(quot)


def _poly_xgcd(f, g):
    """Extended gcd over Q: returns (gcd, s, t) with s*f + t*g = gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while _trim(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([a - b for a, b in _zipcoef(s0, _poly_mul(q, s1))])
        t0, t1 = t1, _trim([a - b for a, b in _zipcoef(t0, _poly_mul(q, t1))])
    return r0, s0, t0


def _zipcoef(f, g):
    n = max(len(f), len(g))
    f = list(f) + [Fraction(0)] * (n - len(f))
    g = list(g) + [Fraction(0)] * (n - len(g))
    return zip(f, g)


def _pad(coeffs, degree: int) -> list:
    return list(coeffs) + [Fraction(0)] * (degree - len(coeffs))


def cyclo_coefficients(x: Scalar) -> list:
    """The Fraction coefficients of 1, z, z^2, ... of a Q(zeta_m) scalar."""
    num, den = x.value
    return [Fraction(c, den) for c in num]


def reference_cyclo_mul(m: int, f, g) -> list:
    """f * g mod Phi_m by Fraction polynomial division."""
    phi = list(cyclotomic_polynomial(m))
    _, rem = _poly_divmod(_poly_mul(_trim(list(f)), _trim(list(g))), phi)
    return _pad(rem, len(phi) - 1)


def reference_cyclo_inverse(m: int, f) -> list:
    """f^-1 mod Phi_m by the Fraction extended gcd."""
    phi = list(cyclotomic_polynomial(m))
    g, s, _ = _poly_xgcd(_trim(list(f)), phi)
    assert len(g) == 1 and g[0] != 0
    _, rem = _poly_divmod([x / g[0] for x in s], phi)
    return _pad(rem, len(phi) - 1)


# -- reference powers and roots: the loops Scalar.__pow__ and
# PrimeField.sqrt_minus_one ran before their closed forms


def reference_power(x: Scalar, k: int) -> Scalar:
    """x^k as |k| repeated products, of x^-1 when k < 0."""
    base = x.inverse() if k < 0 else x
    acc = x.field.one
    for _ in range(abs(k)):
        acc = acc * base
    return acc


def reference_sqrt_minus_one(field: Field):
    """The least s in 2..p-1 with s^2 = -1 over GF(p) by a linear scan; one when p = 2."""
    p = field.p
    if p == 2:
        return field.one
    for s in range(2, p):
        if s * s % p == p - 1:
            return field.from_int(s)
    return None


def reference_multiplicative_order(s: Scalar):
    """The least k in 1..cap with s^k = 1 by repeated products, else None.

    cap is 2 over Q, p - 1 over GF(p) and lcm(2, m) over Q(zeta_m).
    """
    if s.is_zero():
        return None
    field = s.field
    if field.kind == "rational":
        cap = 2
    elif field.kind == "prime":
        cap = field.p - 1
    else:
        cap = field.m if field.m % 2 == 0 else 2 * field.m
    acc = field.one
    for k in range(1, cap + 1):
        acc = acc * s
        if acc == field.one:
            return k
    return None


def g_dict(P: Presentation, g: list) -> dict:
    """The socle coefficients {v: Scalar} of the payloads g in basis order,
    the form of B.g and of g_table's result."""
    return {v: Scalar(P.field, x) for v, x in zip(P.basis(), g)}


def reference_g_table(P: Presentation, w) -> dict:
    """Route one of g_table with every power taken by reference_power.

    g[v] = bracket(top - v, v)^-1 prod_i c_i^{v_i}
    prod_{j<k} bracket(pi e_k, pi e_j)^{v_j v_k}.
    """
    out = {}
    pe = [w.pi.act(P.unit_vec(i)) for i in range(1, P.n + 1)]
    for v in P.basis():
        comp = tuple(t - x for t, x in zip(P.top, v))
        coeff = reference_power(P.bracket(comp, v), -1)
        for j in range(P.n):
            coeff = coeff * reference_power(w.c[j], v[j])
            for k in range(j + 1, P.n):
                coeff = coeff * reference_power(P.bracket(pe[k], pe[j]), v[j] * v[k])
        out[v] = coeff
    return out


# -- Scalar-level references for the payload arithmetic of Presentation and
# the compatibility tests: every step is a Scalar operation on P.q


def reference_bracket(P: Presentation, u, v) -> Scalar:
    """prod_{i<j} q_ij^{u_j v_i}, each power by reference_power."""
    acc = P.field.one
    for i in range(P.n):
        for j in range(i + 1, P.n):
            acc = acc * reference_power(P.q[i][j], u[j] * v[i])
    return acc


def reference_h_generators(P: Presentation) -> list:
    """h_{e_i} = prod_j q_ij^{a_j - 1}, the diagonal included."""
    out = []
    for i in range(P.n):
        acc = P.field.one
        for j in range(P.n):
            acc = acc * reference_power(P.q[i][j], P.a[j] - 1)
        out.append(acc)
    return out


def reference_h_of(P: Presentation, v) -> Scalar:
    """h_v = prod_i h_{e_i}^{v_i}."""
    acc = P.field.one
    for h, e in zip(reference_h_generators(P), v):
        acc = acc * reference_power(h, e)
    return acc


def reference_is_compatible(P: Presentation, pi: Permutation) -> bool:
    """a_{pi(i)} = a_i and q_{pi(i) pi(j)} = q_ji for all i, j, as Scalars."""
    return pi.n == P.n and all(
        P.a[pi(i) - 1] == P.a[i - 1]
        and all(P.q[pi(i) - 1][pi(j) - 1] == P.q[j - 1][i - 1] for j in range(1, P.n + 1))
        for i in range(1, P.n + 1)
    )


def reference_enumerate_compatible(P: Presentation, involutions_only: bool = True) -> list:
    """Every compatible permutation by brute force over S_n, in image order."""
    perms = map(Permutation, itertools.permutations(range(1, P.n + 1)))
    return [
        pi
        for pi in perms
        if (pi.is_involution() or not involutions_only) and reference_is_compatible(P, pi)
    ]


def prune_kind(P: Presentation) -> str:
    """How the Nakayama signature prunes the images tried for P, recomputed
    from reference_h_generators: "early" when some i has no partner j (a_j
    = a_i and h_j h_i = 1), "partial" when every i has one but some index
    of equal exponent is no partner of some i, else "none"."""
    h, a, one = reference_h_generators(P), P.a, P.field.one
    partners = [
        [j for j in range(P.n) if a[j] == a[i] and h[j] * h[i] == one] for i in range(P.n)
    ]
    if not all(partners):
        return "early"
    same = [[j for j in range(P.n) if a[j] == a[i]] for i in range(P.n)]
    return "partial" if partners != same else "none"


def rejecting_clause(P: Presentation, pi: Permutation) -> str | None:
    """The clause of the existence rule that rejects pi, or None when a
    regime accepts it, recomputed from the h values, partition and whether
    the field holds sqrt(-1):
      nakayama-gate          some h_{e_i}^2 != 1;
      not-compatible         pi is no compatible involution;
      root-no-anchor         sqrt(-1) present, i1 and i3 empty, and i4 or
                             |j3| != 0 mod 4;
      no-root-i3-or-i4       sqrt(-1) absent, i3 or i4 nonempty;
      no-root-no-anchor      sqrt(-1) absent, i1 empty, |j3| != 0 mod 4.
    Characteristic 2 and symmetric presentations reject no compatible
    involution."""
    one = P.field.one
    h = reference_h_generators(P)
    if any(x * x != one for x in h):
        return "nakayama-gate"
    if not pi.is_involution() or not reference_is_compatible(P, pi):
        return "not-compatible"
    if P.field.characteristic() == 2 or all(x == one for x in h):
        return None
    rep = partition(P, pi)
    unanchored = len(rep.j3) % 4 != 0
    if reference_sqrt_minus_one(P.field) is not None:
        if rep.i1 or rep.i3 or not (rep.i4 or unanchored):
            return None
        return "root-no-anchor"
    if rep.i3 or rep.i4:
        return "no-root-i3-or-i4"
    return "no-root-no-anchor" if not rep.i1 and unanchored else None


def suite_bracket_on_generators(rng: random.Random, trials: int) -> int:
    """bracket(e_j,e_k) = bracket(e_k,e_j) q_kj and the explicit 1/q_kj table."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        for j in range(1, P.n + 1):
            for k in range(1, P.n + 1):
                ej, ek = P.unit_vec(j), P.unit_vec(k)
                assert P.bracket(ej, ek) == P.bracket(ek, ej) * P.q[k - 1][j - 1]
                expected = P.field.one if j <= k else P.q[k - 1][j - 1]
                assert P.bracket(ej, ek) == expected
                count += 1
    return count


def suite_bracket_biadditive(rng: random.Random, trials: int) -> int:
    """Inversion and biadditivity of the structure coefficients."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        n = P.n
        u, v, w = (rand_vector(rng, n) for _ in range(3))
        neg_u = tuple(-x for x in u)
        neg_v = tuple(-x for x in v)
        buv = P.bracket(u, v)
        assert P.bracket(neg_u, v) == buv.inverse()
        assert P.bracket(u, neg_v) == buv.inverse()
        uv = tuple(a + b for a, b in zip(u, v))
        vw = tuple(a + b for a, b in zip(v, w))
        assert P.bracket(uv, w) == P.bracket(u, w) * P.bracket(v, w)
        assert P.bracket(u, vw) == P.bracket(u, v) * P.bracket(u, w)
        count += 1
    return count


def suite_bracket_expansion(rng: random.Random, trials: int) -> int:
    """bracket(u,v) equals its expansion over generator pairs."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        n = P.n
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        full = P.field.one
        lower = P.field.one
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                base = P.bracket(P.unit_vec(i), P.unit_vec(j))
                full = full * base ** (u[i - 1] * v[j - 1])
                if j < i:
                    lower = lower * base ** (u[i - 1] * v[j - 1])
        assert P.bracket(u, v) == full == lower
        count += 1
    return count


def h_by_brackets(P: Presentation, v) -> Scalar:
    """h_v = bracket(a-1-v, v) / bracket(v, a-1-v), the definition of h.

    h_of computes prod h_{e_i}^{v_i} from P.h_values() instead, so this ratio is
    the independent route the identity suites compare it against.
    """
    comp = tuple(ai - 1 - vi for ai, vi in zip(P.a, v))
    return P.bracket(comp, v) / P.bracket(v, comp)


def suite_h_multiplicative(rng: random.Random, trials: int) -> int:
    """h_{u+v} = h_u h_v, and h_u = bracket(a-1-u, u) / bracket(u, a-1-u)."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        n = P.n
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        uv = tuple(a + b for a, b in zip(u, v))
        assert h_of(P, uv) == h_of(P, u) * h_of(P, v)
        assert h_of(P, u) == h_by_brackets(P, u)
        count += 1
    return count


def suite_reordered_generator_product(rng: random.Random, trials: int) -> int:
    """x_{pi(e_n)}^{v_n} ... x_{pi(e_1)}^{v_1} = (pair product) x_{pi(v)}."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        n = P.n
        pi = rand_permutation(rng, n)
        v = tuple(rng.randint(0, P.a[i] - 1) for i in range(n))
        lhs = one_elem(P)
        for i in range(n, 0, -1):
            gen = monomial(P, P.unit_vec(pi(i)))
            for _ in range(v[i - 1]):
                lhs = P.mul(lhs, gen)
        coeff = P.field.one
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                base = P.bracket(pi.act(P.unit_vec(k)), pi.act(P.unit_vec(j)))
                coeff = coeff * base ** (v[k - 1] * v[j - 1])
        pv = pi.act(v)
        rhs = {pv: coeff} if P.in_basis(pv) else {}
        assert lhs == rhs
        count += 1
    return count


def suite_bracket_transport(rng: random.Random, trials: int) -> int:
    """bracket(pi(u),pi(v)) expands over permuted generator pairs."""
    count = 0
    fields = field_pool()
    while count < trials:
        P = rand_presentation(rng, rng.choice(fields))
        n = P.n
        pi = rand_permutation(rng, n)
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        rhs = P.field.one
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                base = P.bracket(pi.act(P.unit_vec(j)), pi.act(P.unit_vec(k)))
                rhs = rhs * base ** (u[j - 1] * v[k - 1])
        assert P.bracket(pi.act(u), pi.act(v)) == rhs
        count += 1
    return count


def suite_compatible_fixes_top(rng: random.Random, trials: int) -> int:
    """A compatible permutation fixes the top exponent vector."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        assert pi.act(P.top) == P.top
        count += 1
    return count


def suite_compatible_exchange(rng: random.Random, trials: int) -> int:
    """bracket(u,v) bracket(pi(u),pi(v)) = bracket(v,u) bracket(pi(v),pi(u))."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        n = P.n
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        pu, pv = pi.act(u), pi.act(v)
        lhs = P.bracket(u, v) * P.bracket(pu, pv)
        rhs = P.bracket(v, u) * P.bracket(pv, pu)
        assert lhs == rhs
        count += 1
    return count


def suite_compatible_transform(rng: random.Random, trials: int) -> int:
    """bracket(pi(v),pi(u)) = bracket(u,v) prod (pair bases)^(u_j v_k + u_k v_j)."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        n = P.n
        u, v = rand_vector(rng, n), rand_vector(rng, n)
        acc = P.bracket(u, v)
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                base = P.bracket(pi.act(P.unit_vec(k)), pi.act(P.unit_vec(j)))
                e = u[j - 1] * v[k - 1] + u[k - 1] * v[j - 1]
                acc = acc * base**e
        assert P.bracket(pi.act(v), pi.act(u)) == acc
        count += 1
    return count


def suite_h_inverse_pairing(rng: random.Random, trials: int) -> int:
    """h_v h_{pi(v)} = 1 for compatible permutations."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        v = rand_vector(rng, P.n)
        assert h_of(P, v) * h_of(P, pi.act(v)) == P.field.one
        count += 1
    return count


def suite_moved_index_split(rng: random.Random, trials: int) -> int:
    """J is the disjoint union of the lower and upper halves of its pairs."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        moved = set(pi.moved_points())
        lower = {i for i in moved if i < pi(i)}
        upper = {pi(i) for i in lower}
        assert lower.isdisjoint(upper)
        assert lower | upper == moved
        count += 1
    return count


def suite_fixed_block_signs(rng: random.Random, trials: int) -> int:
    """q_ij^2 = 1 whenever both indices are fixed by a compatible involution."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        one = P.field.one
        for i in pi.fixed_points():
            for j in pi.fixed_points():
                val = P.q[i - 1][j - 1]
                assert val * val == one
                count += 1
        count += 1  # presentations with no fixed pair still count once
    return count


def suite_fixed_block_h(rng: random.Random, trials: int) -> int:
    """h_{e_i} restricted to the fixed block, for fixed i."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        fixed = pi.fixed_points()
        hs = P.h_generators()
        for i in fixed:
            acc = P.field.one
            for j in fixed:
                acc = acc * P.q[i - 1][j - 1] ** (P.a[j - 1] - 1)
            assert hs[i - 1] == acc
            count += 1
        count += 1
    return count


def suite_qpi_fixed_block(rng: random.Random, trials: int) -> int:
    """q_pi reduces to the fixed block and squares to 1."""
    count = 0
    fields = field_pool()
    while count < trials:
        P, pi = rand_compatible(rng, rng.choice(fields))
        fixed = pi.fixed_points()
        acc = P.field.one
        for j in fixed:
            for k in fixed:
                if j < k:
                    e = (P.a[k - 1] - 1) * (P.a[j - 1] - 1)
                    acc = acc * P.q[k - 1][j - 1] ** e
        val = q_pi(P, pi)
        assert val == acc
        assert val * val == P.field.one
        count += 1
    return count


def suite_partition_parity(rng: random.Random, trials: int) -> int:
    """|I_3| is even; and I_1 = I_3 = empty forces I_4 empty."""
    count = 0
    fields = [f for f in field_pool() if f.characteristic() != 2]
    while count < trials:
        P, pi = rand_compatible_involutive_h(rng, rng.choice(fields))
        rep = partition(P, pi)
        assert len(rep.i3) % 2 == 0
        if not rep.i1 and not rep.i3:
            assert not rep.i4
        count += 1
    return count


def suite_socle_coefficients(rng: random.Random, trials: int) -> int:
    """The socle-coefficient identity and the antipode closed form.

    For each witness produced by decide: g[v] g[pi(v)] bracket(top-pi(v),pi(v))
    bracket(v,top-v) = 1, and the antipode coefficient at v equals
    prod c_i^{v_i} times the pair product.
    """
    count = 0
    fields = field_pool()
    while count < trials:
        field = rng.choice(fields)
        try:
            P, pi = rand_compatible_involutive_h(rng, field, n=rng.randint(2, 3), a_hi=3)
        except AssertionError:
            continue
        report = decide(P)
        if not report.exists:
            continue
        w = report.witness
        g = g_dict(P, g_table(P, w))
        B = build_structure(P, w)
        top = P.top
        one = P.field.one
        for v in P.basis():
            pv = w.pi.act(v)
            comp_pv = tuple(t - x for t, x in zip(top, pv))
            comp_v = tuple(t - x for t, x in zip(top, v))
            lhs = g[v] * g[pv] * P.bracket(comp_pv, pv) * P.bracket(v, comp_v)
            assert lhs == one
            coeff = one
            for i in range(1, P.n + 1):
                coeff = coeff * w.c[i - 1] ** v[i - 1]
            for j in range(1, P.n + 1):
                for k in range(j + 1, P.n + 1):
                    base = P.bracket(w.pi.act(P.unit_vec(k)), w.pi.act(P.unit_vec(j)))
                    coeff = coeff * base ** (v[j - 1] * v[k - 1])
            img, s_coeff = B.s_map[v]
            assert img == pv and s_coeff == coeff
            count += 1
    return count


ALL_SUITES = (
    ("bracket-on-generators", suite_bracket_on_generators),
    ("bracket-biadditive", suite_bracket_biadditive),
    ("bracket-expansion", suite_bracket_expansion),
    ("h-multiplicative", suite_h_multiplicative),
    ("reordered-generator-product", suite_reordered_generator_product),
    ("bracket-transport", suite_bracket_transport),
    ("compatible-fixes-top", suite_compatible_fixes_top),
    ("compatible-exchange", suite_compatible_exchange),
    ("compatible-transform", suite_compatible_transform),
    ("h-inverse-pairing", suite_h_inverse_pairing),
    ("moved-index-split", suite_moved_index_split),
    ("fixed-block-signs", suite_fixed_block_signs),
    ("fixed-block-h", suite_fixed_block_h),
    ("q-pi-fixed-block", suite_qpi_fixed_block),
    ("partition-parity", suite_partition_parity),
    ("socle-coefficients", suite_socle_coefficients),
)
