"""Exact linear algebra over any field-like coefficient type.

Works for Fraction, Rational, cyclotomic elements and symbolic Scalars:
elements must support +, -, *, /, ``**0`` for the unit, ==, and
truthiness for zero-testing, and take the ints 0 and 1 as their zero and
one in * and ==.

A matrix is a list of rows, each a dict {column: nonzero entry}.  No
producer stores a zero, so two matrices are equal exactly when their
rows are, and every cost follows the nonzeros, not the width.  ``rref``,
``rank`` and ``det`` read one forward elimination; ``mat_mul`` makes one
coefficient product per pair of nonzeros that meet.
"""

from __future__ import annotations

__all__ = [
    "rref",
    "rank",
    "det",
    "mat_mul",
    "mat_shift",
]


def _sparse(row: dict) -> dict:
    return {c: x for c, x in row.items() if x}


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


def _pivot_rows(rows: list, ncols: int):
    """Forward elimination over the columns in order; a column's pivot is
    the first pending (nonzero, not yet pivot) row that holds it.  Yields
    (column, that row's position among the pending rows, pivot value, the
    row scaled to a leading 1) once the column is cleared from the rest."""
    pending = [r for r in map(_sparse, rows) if r]
    for col in range(ncols):
        if not pending:
            return
        piv = next((i for i, r in enumerate(pending) if col in r), None)
        if piv is None:
            continue
        prow = pending.pop(piv)
        pval = prow[col]
        one = pval**0
        if pval != one:
            inv = one / pval
            prow = {c: x * inv for c, x in prow.items()}
        pending = [r for r in pending if col not in r or _eliminate(r, prow, col)]
        yield col, piv, pval, prow


def rref(rows: list, ncols: int) -> tuple:
    """Reduced row echelon form of the matrix with the given rows, each a
    dict {column: entry}; zero entries are dropped.

    Returns (reduced nonzero rows as dicts, pivot column list), row i
    having its leading 1 at pivots[i] and zeros in every other pivot column.
    """
    red, pivots = [], []
    for col, _, _, prow in _pivot_rows(rows, ncols):
        for row in red:
            if col in row:
                _eliminate(row, prow, col)
        red.append(prow)
        pivots.append(col)
    return red, pivots


def rank(rows: list, ncols: int) -> int:
    return sum(1 for _ in _pivot_rows(rows, ncols))


def det(rows: list):
    """Determinant of a square matrix: the product of the pivots, each
    negated when its row was popped from an odd position.  A nonsingular
    matrix has no zero row to skip, so the positions are exact.  It starts
    from the int 1, so det([]) is 1, and a singular matrix gives the int 0;
    both equal the one and zero of every coefficient type."""
    result, found = 1, 0
    for _, piv, pval, _ in _pivot_rows(rows, len(rows)):
        result = -(result * pval) if piv % 2 else result * pval
        found += 1
    return result if found == len(rows) else 0


def mat_mul(a: list, b: list) -> list:
    """The product a b: one coefficient product for each nonzero a[i][k]
    and each nonzero of row k of b."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                v = acc.get(j)
                acc[j] = x * y if v is None else v + x * y
        out.append(_sparse(acc))
    return out


def mat_shift(a: list, lam) -> list:
    """a - lam * I for a square matrix a; only the diagonal changes."""
    return [_sparse({**row, i: row[i] - lam if i in row else -lam}) for i, row in enumerate(a)]
