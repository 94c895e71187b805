"""Conversions between the dense matrices that the test oracles write and
the sparse rows that ``tlcat.linalg`` takes: a list of rows, each a dict
{column: nonzero entry}."""


def rows_of(dense: list) -> list:
    """The sparse rows of a dense matrix, zero entries dropped."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def dense(rows: list, n: int, zero) -> list:
    """The dense n-column matrix of sparse rows, zero filling the gaps."""
    return [[row.get(j, zero) for j in range(n)] for row in rows]
