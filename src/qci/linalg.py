"""Exact linear algebra over a coefficient field.

Sparse vectors throughout the package are dicts mapping a key to a nonzero
Scalar; a zero coefficient is never stored.  `add_term` is the one place
that adds into such a dict: it drops an entry as soon as it cancels.

The one elimination routine is `rref`, which works on sparse rows: dicts
mapping a column index to a nonzero Scalar.  It brings each row to echelon
form as it arrives and back-substitutes once at the end, in decreasing pivot
order, so its cost follows the nonzeros it touches rather than the square
of the rank.  Elimination divides by exact pivots, so every result is exact;
there are no thresholds anywhere.  The matrices the verifier meets are
monomial or close to it, so rows stay short.

`rank`, `kernel_basis`, `solve_matrix` and `invert` keep the dense interface
(lists of rows of Scalars) as thin adapters over `rref`.
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .scalars import Field, Scalar


def add_term(out: dict, key, term: Scalar) -> None:
    """out[key] += term, in place, dropping the entry when it cancels."""
    acc = out.get(key)
    acc = term if acc is None else acc + term
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def _add_multiple(row: dict, factor: Scalar, other: dict) -> None:
    """row += factor * other, in place, dropping entries that cancel."""
    for col, x in other.items():
        add_term(row, col, factor * x)


def rref(rows) -> dict:
    """Reduced row echelon form of sparse rows, as {pivot column: row}.

    Rows are taken in order.  Each is brought to echelon form against the
    pivots found so far: while its leftmost column is a pivot column, that
    pivot row is subtracted (which may bring in further pivot columns, all
    to the right).  Its leftmost column then becomes a new pivot, scaled to
    1.  One back-substitution at the end, in decreasing pivot order, clears
    every pivot row in the other pivot columns; each row is cleared against
    rows that are already reduced, so the cost follows the nonzeros touched
    rather than rank^2.  The result is the unique reduced echelon form of
    the row space, so it does not depend on the order of the rows.  The
    input rows are not modified.
    """
    pivots: dict = {}
    for given in rows:
        row = dict(given)
        while row:
            lead = min(row)
            if lead not in pivots:
                break
            _add_multiple(row, -row[lead], pivots[lead])
        if not row:
            continue
        inv = row[lead].inverse()
        pivots[lead] = {col: x * inv for col, x in row.items()}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [c for c in row if c != lead and c in pivots]:
            _add_multiple(row, -row[col], pivots[col])
    return pivots


def null_space(field: Field, rows, ncols: int) -> list[dict]:
    """Sparse basis of {v : row . v = 0 for every row}, over columns 0..ncols-1.

    One vector per free column, in increasing order: 1 at the free column and
    minus the reduced rows' entries at the pivot columns.
    """
    reduced = rref(rows)
    basis = {c: {c: field.one} for c in range(ncols) if c not in reduced}
    for pc, row in reduced.items():
        for col, x in row.items():
            if col != pc:
                basis[col][pc] = -x
    return list(basis.values())


def solve_sparse(rows, n: int) -> dict:
    """Solve A x = b for square A; rows are A's rows with b_i at column n.

    Returns the solution as {index: nonzero Scalar}; raises when A is
    singular.
    """
    reduced = _solved(rows, n)
    return {i: reduced[i][n] for i in range(n) if n in reduced[i]}


def _solved(rows, n: int) -> dict:
    """rref of augmented rows whose first n columns form a square matrix."""
    reduced = rref(rows)
    if len(reduced) != n or any(c >= n for c in reduced):
        raise SingularMatrixError("matrix is singular")
    return reduced


def _sparse(mat) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in mat]


def rank(field: Field, mat) -> int:
    return len(rref(_sparse(mat)))


def kernel_basis(field: Field, mat) -> list[list[Scalar]]:
    """Basis of the right kernel {v : mat v = 0}."""
    if not mat:
        return []
    cols = len(mat[0])
    out = []
    for vec in null_space(field, _sparse(mat), cols):
        dense = [field.zero] * cols
        for col, x in vec.items():
            dense[col] = x
        out.append(dense)
    return out


def solve_matrix(field: Field, a, b):
    """Solve A X = B exactly for square A; raises when A is singular."""
    n = len(a)
    width = len(b[0])
    rows = _sparse([list(a[i]) + list(b[i]) for i in range(n)])
    reduced = _solved(rows, n)
    return [[reduced[i].get(n + k, field.zero) for k in range(width)] for i in range(n)]


def invert(field: Field, a):
    n = len(a)
    ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    return solve_matrix(field, a, ident)


def is_generalized_permutation(field: Field, mat) -> bool:
    """True when every row and every column has exactly one nonzero entry."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return False
    col_seen = [0] * n
    for row in mat:
        nonzero = [j for j, x in enumerate(row) if not x.is_zero()]
        if len(nonzero) != 1:
            return False
        col_seen[nonzero[0]] += 1
    return all(k == 1 for k in col_seen)
