"""Exact linear algebra over any field-like coefficient type.

Works for Fraction, cyclotomic elements and symbolic Scalars:
elements must support +, -, *, /, ``**0`` for the unit, ==, and
truthiness for zero-testing.

Row reduction is sparse: a row is a dict {column: nonzero entry}, so the
cost follows the nonzeros rather than the width.  ``rref`` also takes
dense rows (lists); the matrix helpers below stay dense.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "det",
    "mat_mul",
    "mat_shift",
]


def _sparse(row) -> dict:
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


def _eliminate(row: dict, prow: dict, col: int) -> dict:
    """Subtract row[col] times the normalised pivot row prow from row in
    place, deleting entries that cancel; return row (empty if it vanished)."""
    f = row[col]
    for c, x in prow.items():
        v = row.get(c)
        v = -(f * x) if v is None else v - f * x
        if v:
            row[c] = v
        else:
            row.pop(c, None)
    return row


def rref(rows: list, ncols: int) -> tuple:
    """Reduced row echelon form of the matrix with the given rows, each a
    dense list or a dict {column: entry}; zero entries are dropped.

    Columns are taken in order; the pivot of a column is the first row not
    yet used as a pivot that holds it.  Returns (reduced nonzero rows as
    dicts, pivot column list), row i having its leading 1 at pivots[i].
    """
    pending = [r for r in map(_sparse, rows) if r]
    red, pivots = [], []
    for col in range(ncols):
        if not pending:
            break
        piv = next((i for i, r in enumerate(pending) if col in r), None)
        if piv is None:
            continue
        prow = pending.pop(piv)
        pval = prow[col]
        one = pval**0
        if pval != one:
            inv = one / pval
            prow = {c: x * inv for c, x in prow.items()}
        for row in red:
            if col in row:
                _eliminate(row, prow, col)
        pending = [r for r in pending if col not in r or _eliminate(r, prow, col)]
        red.append(prow)
        pivots.append(col)
    return red, pivots


def rank(rows: list, ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel of the matrix, as dense vectors."""
    red, pivots = rref(rows, ncols)
    entries = (x for r in rows for x in (r.values() if isinstance(r, dict) else r))
    one = next(entries, Fraction(1)) ** 0
    zero = one - one
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pc in zip(red, pivots):
            c = prow.get(fc)
            if c:
                vec[pc] = -c
        basis.append(vec)
    return basis


def det(rows: list):
    """Determinant by fraction-producing Gaussian elimination."""
    n = len(rows)
    rows = [list(r) for r in rows]
    one = rows[0][0] ** 0
    result = one
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return one - one
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pval = rows[col][col]
        result = result * pval
        inv = one / pval
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return result if sign > 0 else -result


def mat_mul(a: list, b: list) -> list:
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = []
        for j in range(nb):
            acc = None
            for k, x in enumerate(row):
                if x:
                    term = x * b[k][j]
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = row[0] - row[0]
            orow.append(acc)
        out.append(orow)
    return out


def mat_shift(a: list, lam) -> list:
    """a - lam * I for a square matrix a."""
    return [[x - lam if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]
