"""Exact dense linear algebra over any field-like coefficient type.

Works for Fraction, cyclotomic elements and symbolic Scalars:
elements must support +, -, *, truthiness for zero-testing, and division
(through __truediv__ or an .inv() method).
"""

from __future__ import annotations

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "det",
    "mat_mul",
    "mat_identity",
    "mat_sub",
]


def _div(a, b):
    try:
        return a / b
    except TypeError:
        return a * b.inv()


def rref(rows: list, ncols: int) -> tuple:
    """Reduced row echelon form in place on a copy.

    Returns (reduced nonzero rows, pivot column list).
    """
    rows = [list(r) for r in rows]
    pivots = []
    rank_ = 0
    for col in range(ncols):
        piv = None
        for r in range(rank_, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank_], rows[piv] = rows[piv], rows[rank_]
        prow = rows[rank_]
        if not _is_one(prow[col]):
            inv = _div(_one_like(prow[col]), prow[col])
            rows[rank_] = prow = [x * inv for x in prow]
        for r in range(len(rows)):
            if r != rank_ and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
        rank_ += 1
        if rank_ == len(rows):
            break
    return rows[:rank_], pivots


def _one_like(x):
    return x**0 if hasattr(x, "__pow__") else 1


def _is_one(x):
    try:
        return x == _one_like(x)
    except TypeError:
        return False


def rank(rows: list, ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def nullspace(rows: list, ncols: int) -> list:
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows, ncols)
    if not red and not rows:
        red = []
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    if rows:
        one = _one_like(rows[0][0])
        zero = one - one
    else:
        from fractions import Fraction

        one, zero = Fraction(1), Fraction(0)
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pc in zip(red, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


def det(rows: list):
    """Determinant by fraction-producing Gaussian elimination."""
    n = len(rows)
    rows = [list(r) for r in rows]
    one = _one_like(rows[0][0])
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
        inv = _div(one, pval)
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return result if sign > 0 else -result


def mat_identity(n: int, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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


def mat_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
