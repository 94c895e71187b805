"""Exact linear algebra over any field-like coefficient type.

Works for Fraction, Rational, cyclotomic elements and symbolic Scalars:
elements must support +, -, *, /, ``**0`` for the unit, ==, and
truthiness for zero-testing, and take the ints 0 and 1 as their zero and
one in * and ==.

A matrix is a list of rows, each a dict {column: nonzero entry}.  No
producer stores a zero, so two matrices are equal exactly when their
rows are, and every cost follows the nonzeros, not the width.  ``rref``,
``rank`` and ``det`` read one row insertion, then ``rref`` back-substitutes;
``mat_mul`` makes one coefficient product per pair of nonzeros that meet.
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


def _echelon(rows: list, ncols: int) -> dict:
    """Row insertion: each row, copied without zeros, is reduced by its
    smallest column while that column has a pivot row, then scaled to a
    leading 1 as that column's pivot row, unless it vanished.  Returns
    {pivot column: (input row index, pivot value, pivot row)}."""
    piv: dict = {}
    for i, row in enumerate(rows):
        row = _sparse(row)
        if row and (min(row) < 0 or max(row) >= ncols):
            col = next(c for c in row if not 0 <= c < ncols)
            raise ValueError(f"row {i} has an entry in column {col}, outside [0, {ncols})")
        while row and (col := min(row)) in piv:
            _eliminate(row, piv[col][2], col)
        if row:
            pval = row[col]
            one = pval**0
            if pval != one:
                inv = one / pval
                row = {c: x * inv for c, x in row.items()}
            piv[col] = (i, pval, row)
    return piv


def rref(rows: list, ncols: int) -> tuple:
    """Reduced row echelon form of the matrix with the given rows, each a
    dict {column: entry}; zero entries are dropped, and a nonzero one in a
    column outside [0, ncols) raises ValueError, as it does in ``rank``.

    Returns (reduced nonzero rows as dicts, pivot column list), row i
    having its leading 1 at pivots[i] and zeros in every other pivot column.
    """
    piv = _echelon(rows, ncols)
    pivots = sorted(piv)
    red = [piv[col][2] for col in pivots]
    # back substitution: later rows are reduced, so they add no pivot column
    for col, row in zip(reversed(pivots), reversed(red)):
        for c in [c for c in row if c != col and c in piv]:
            _eliminate(row, piv[c][2], c)
    return red, pivots


def rank(rows: list, ncols: int) -> int:
    return len(_echelon(rows, ncols))


def det(rows: list):
    """Determinant of a square matrix: the product of the pivots times the
    sign of the permutation that takes each row to its pivot column.  It
    starts from the int 1, so det([]) is 1, and a singular matrix gives the
    int 0; both equal the one and zero of every coefficient type.  A nonzero
    entry in a column outside [0, len(rows)) raises ValueError."""
    n = len(rows)
    piv = _echelon(rows, n)
    if len(piv) < n:
        return 0
    result, perm = 1, [0] * n
    for col, (i, pval, _) in piv.items():
        result = result * pval
        perm[i] = col
    for i in range(n):  # each swap that sorts perm flips the sign
        while (j := perm[i]) != i:
            perm[i], perm[j], result = perm[j], j, -result
    return result


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
