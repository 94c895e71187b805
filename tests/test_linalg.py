"""Sparse exact row reduction against a dense Gauss-Jordan reference and
a column-scan elimination, and the determinant against the permutation
expansion."""

import sys
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlcat.linalg as linalg
from tlcat.cyclotomic import CycloField
from tlcat.linalg import det, mat_mul, mat_shift, rank, rref
from tlcat.morphism import domain_for
from tlcat.scalar import Specialization

from matrix_forms import rows_of


def dense_rref(rows, ncols):
    """Textbook dense Gauss-Jordan: pivot on the first remaining row that
    holds the column, normalise it, clear the column everywhere else."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [x * inv for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def as_form(rows, form):
    """The same dense matrix as sparse rows, or as dicts that keep explicit
    zero entries, which the elimination drops."""
    if form == "dict":
        return rows_of(rows)
    return [dict(enumerate(r)) for r in rows]


def kernel_basis(rows, ncols, one):
    """Right kernel read off the fully reduced rows of rref: one vector per
    free column, each pivot coordinate minus its row's entry there."""
    red, pivots = rref(rows, ncols)
    zero = one - one
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pc in zip(red, pivots):
            vec[pc] = -prow.get(fc, zero)
        basis.append(vec)
    return basis


def densify(row: dict, ncols: int, zero):
    return [row.get(c, zero) for c in range(ncols)]


def apply(rows, vec):
    return [sum((a * b for a, b in zip(r, vec)), vec[0] - vec[0]) for r in rows]


FORMS = ("dict", "dict-with-zeros")
entry = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=6))
    if len(rows) >= 2 and draw(st.booleans()):
        # a dependent row, so that rank deficiency is common
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(FORMS))
def test_rref_matches_dense_reference(matrix, form):
    rows, ncols = matrix
    given_rows = as_form(rows, form)
    before = [dict(r) for r in given_rows]
    red, pivots = rref(given_rows, ncols)
    ref_rows, ref_pivots = dense_rref(rows, ncols)
    assert given_rows == before  # the input is not modified
    assert pivots == ref_pivots
    assert all(isinstance(r, dict) for r in red)
    assert all(x for r in red for x in r.values())  # no zero entries
    assert [densify(r, ncols, Fraction(0)) for r in red] == ref_rows


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from(FORMS))
def test_rank_plus_nullity_and_kernel(matrix, form):
    rows, ncols = matrix
    basis = kernel_basis(as_form(rows, form), ncols, Fraction(1))
    assert rank(rows_of(rows), ncols) + len(basis) == ncols
    assert rank(as_form(rows, form), ncols) == rank(rows_of(rows), ncols)
    for vec in basis:
        assert len(vec) == ncols
        assert all(x == 0 for x in apply(rows, vec))
    # the kernel basis is independent
    assert rank(rows_of(basis), ncols) == len(basis)


def test_empty_and_zero_matrices():
    assert rref([], 3) == ([], [])
    zero_rows = [dict.fromkeys(range(3), Fraction(0)), {}, {1: Fraction(0)}]
    assert rref(zero_rows, 3) == ([], [])
    assert rank(zero_rows, 3) == 0
    one, zero = Fraction(1), Fraction(0)
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert rank([], 3) == 0
    assert kernel_basis([], 3, one) == identity
    assert kernel_basis(zero_rows, 3, one) == identity
    # the 0x0 determinant is the empty product
    assert det([]) == 1


def test_rref_over_cyclotomic_field():
    dom = domain_for(Specialization.parse("root:3"))
    z = dom.s_power(1)
    one, zero = dom.one, dom.zero
    rows = [
        [z, one, zero, z * z, one],
        [zero, zero, zero, zero, zero],
        [z * z, z, zero, z * z * z, z],  # z times the first row
        [one, zero, one + z, zero, zero - one],
        [z + one, one, one + z, z * z, zero],  # first row + fourth row
    ]
    ncols = len(rows[0])
    ref_rows, ref_pivots = dense_rref(rows, ncols)
    for form in FORMS:
        red, pivots = rref(as_form(rows, form), ncols)
        assert pivots == ref_pivots == [0, 1]
        assert all(x for r in red for x in r.values())
        assert [densify(r, ncols, zero) for r in red] == ref_rows
        basis = kernel_basis(as_form(rows, form), ncols, one)
        assert len(basis) == ncols - rank(rows_of(rows), ncols) == 3
        for vec in basis:
            assert all(x == zero for x in apply(rows, vec))


Q12 = CycloField(12)


def cyclo(terms):
    """The element sum of c * zeta_12^k over the (k, c) pairs."""
    out = Q12.from_rational(0)
    for k, c in terms:
        out = out + Q12.zeta(k) * c
    return out


DET_ENTRIES = {
    "fraction": entry,
    "cyclotomic": st.one_of(
        st.just(cyclo([])),
        st.lists(st.tuples(st.integers(0, 11), st.integers(-2, 2)),
                 min_size=1, max_size=3).map(cyclo)),
}


def permutation_det(rows, zero):
    """Leibniz expansion: the signed sum over permutations of the products
    of one entry per row and column."""
    n = len(rows)
    total = zero
    for perm in permutations(range(n)):
        term = zero + rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = total - term if odd else total + term
    return total


@st.composite
def square_matrices(draw):
    field = draw(st.sampled_from(sorted(DET_ENTRIES)))
    zero = Fraction(0) if field == "fraction" else cyclo([])
    n = draw(st.integers(min_value=1, max_value=5))
    shape = draw(st.sampled_from(("random", "dependent", "permutation", "zero")))
    if shape == "zero":
        return [[zero] * n for _ in range(n)], zero
    if shape == "permutation":
        # a signed permutation matrix: every pivot search skips rows
        perm = draw(st.permutations(range(n)))
        diag = draw(st.lists(DET_ENTRIES[field], min_size=n, max_size=n))
        return [[diag[i] if j == perm[i] else zero for j in range(n)]
                for i in range(n)], zero
    rows = draw(st.lists(st.lists(DET_ENTRIES[field], min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if shape == "dependent" and n >= 2:
        # one row a combination of the others, so the matrix is singular
        i = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows[i] = [sum((c * r[col] for j, (c, r) in enumerate(zip(coeffs, rows)) if j != i),
                       zero) for col in range(n)]
    return rows, zero


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_the_permutation_expansion(matrix):
    rows, zero = matrix
    sparse = rows_of(rows)
    before = [dict(r) for r in sparse]
    value = det(sparse)
    assert sparse == before  # the input is not modified
    assert value == permutation_det(rows, zero)
    assert (value == zero) == (rank(sparse, len(rows)) < len(rows))


class _CountingEntry:
    """A nonzero coefficient that logs every product it enters."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(other)
        return self

    __rmul__ = __mul__

    def __bool__(self):
        return True


def test_mat_mul_makes_one_product_per_meeting_pair_of_nonzeros():
    # two diagonal n x n matrices meet in n pairs of nonzeros; a loop over
    # every (row, column) entry would make n^2 products
    log = []
    n = 6
    diag = [{i: _CountingEntry(log)} for i in range(n)]
    prod = mat_mul(diag, diag)
    assert len(log) == n
    assert [list(row) for row in prod] == [[i] for i in range(n)]


def test_products_and_shifts_store_no_zero():
    # matrix equality is row-dict equality, so a cancelled entry must be
    # dropped, not kept as an explicit zero
    F = Fraction
    a = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}]
    b = [{0: F(1)}, {0: F(-1)}]
    assert mat_mul(a, b) == [{}, {}]
    assert mat_mul([{}, {}], b) == [{}, {}]
    assert mat_shift([{0: F(2), 1: F(3)}, {}], F(2)) == [{1: F(3)}, {1: F(-2)}]
    assert mat_shift([{}], F(0)) == [{}]


def test_columns_outside_the_width_are_rejected():
    F = Fraction
    with pytest.raises(ValueError, match=r"row 0 .* column 5"):
        rank([{5: F(1)}], 3)
    with pytest.raises(ValueError, match=r"row 1 .* column 4"):
        rref([{0: F(1)}, {0: F(1), 4: F(2)}], 3)
    with pytest.raises(ValueError, match=r"row 2 .* column -1"):
        rref([{}, {1: F(1)}, {-1: F(1)}], 3)
    with pytest.raises(ValueError, match=r"row 1 .* column 2"):
        det([{0: F(1)}, {2: F(1)}])
    # an explicit zero stores nothing, wherever it sits
    assert rank([{0: F(1), 7: F(0)}], 3) == 1


# The column-scan elimination that rref, rank and det used before row
# insertion, kept as an oracle: for each column in order, the first pending
# row holding it is the pivot, and the column is cleared from the rest.

def _scan_sparse(row):
    return {c: x for c, x in row.items() if x}


def _scan_eliminate(row, prow, col):
    f = row[col]
    for c, x in prow.items():
        v = row.get(c)
        v = -(f * x) if v is None else v - f * x
        if v:
            row[c] = v
        else:
            row.pop(c, None)
    return row


def _scan_pivot_rows(rows, ncols):
    pending = [r for r in map(_scan_sparse, rows) if r]
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
        pending = [r for r in pending if col not in r or _scan_eliminate(r, prow, col)]
        yield col, piv, pval, prow


def scan_rref(rows, ncols):
    red, pivots = [], []
    for col, _, _, prow in _scan_pivot_rows(rows, ncols):
        for row in red:
            if col in row:
                _scan_eliminate(row, prow, col)
        red.append(prow)
        pivots.append(col)
    return red, pivots


def scan_det(rows):
    result, found = 1, 0
    for _, piv, pval, _ in _scan_pivot_rows(rows, len(rows)):
        result = -(result * pval) if piv % 2 else result * pval
        found += 1
    return result if found == len(rows) else 0


def _field_entries(name):
    """Small random elements of one coefficient field, zero included."""
    ints = st.integers(-3, 3)
    if name == "fraction":
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    if name == "cyclotomic":
        return st.lists(st.tuples(st.integers(0, 11), ints), max_size=3).map(cyclo)
    dom = domain_for(Specialization.parse("rational:5/3" if name == "rational" else "generic"))

    def element(terms):
        out = dom.zero
        for k, c in terms:
            out = out + dom.s_power(k) * c
        return out
    return st.lists(st.tuples(st.integers(-2, 2), ints), max_size=2).map(element)


FIELDS = ("fraction", "rational", "scalar", "cyclotomic")


@st.composite
def sparse_matrices(draw, square=False):
    """Sparse rows over one field, some with explicit zeros, with duplicate,
    dependent and all-zero rows mixed in, and the same rows shuffled."""
    field = draw(st.sampled_from(FIELDS))
    entries = _field_entries(field)
    nrows = draw(st.integers(0, 4 if field == "scalar" else 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    # sparse rows make the leading columns arrive out of order
    fill = draw(st.integers(1, 3 if field == "scalar" else max(ncols, 1)))
    rows = draw(st.lists(st.dictionaries(st.integers(0, max(ncols - 1, 0)), entries,
                                         max_size=fill),
                         min_size=nrows, max_size=nrows))
    if square:
        # a nonzero on a random permutation, so most are nonsingular
        for row, col in zip(rows, draw(st.permutations(range(nrows)))):
            row[col] = draw(entries.filter(bool))
    if len(rows) >= 2:
        # a duplicate, a sum of two rows or a row of explicit zeros; in a
        # square matrix it replaces the last row, so singular ones are common
        a, b = rows[0], rows[-2]
        extra = draw(st.sampled_from((
            None,
            dict(a),
            {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()},
            {c: x - x for c, x in b.items()},
        )))
        if extra is not None and square:
            rows[-1] = extra
        elif extra is not None:
            rows.append(extra)
    order = draw(st.permutations(range(len(rows))))
    return rows, ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_row_insertion_matches_the_column_scan(matrix):
    rows, ncols, shuffled = matrix
    before = [dict(r) for r in rows]
    red, pivots = rref(rows, ncols)
    assert rows == before  # the input is not modified
    assert (red, pivots) == scan_rref(rows, ncols)
    assert all(x for r in red for x in r.values())
    assert rank(rows, ncols) == len(pivots)
    # the reduced form does not depend on the order of the rows
    assert rref(shuffled, ncols) == (red, pivots)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(square=True))
def test_det_matches_the_column_scan(matrix):
    rows, _, shuffled = matrix
    before = [dict(r) for r in rows]
    assert det(rows) == scan_det(rows)
    assert det(shuffled) == scan_det(shuffled)
    assert rows == before


class _OverLimit(Exception):
    pass


def _lines_run_in_linalg(f, limit):
    """Lines of tlcat.linalg executed by f(), loop tests included; stops f
    once the count passes limit."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > limit:
                raise _OverLimit
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == linalg.__file__ else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        f()
    except _OverLimit:
        pass
    finally:
        sys.settrace(old)
    return count


def test_elimination_work_follows_the_nonzeros():
    # an anti-diagonal matrix needs no elimination at all; a column scan
    # probes every pending row for each column, about n^2/2 probes
    n = 2000
    rows = [{n - 1 - i: Fraction(i + 1)} for i in range(n)]
    limit = 40 * n
    for f in (lambda: rref(rows, n), lambda: rank(rows, n), lambda: det(rows)):
        assert _lines_run_in_linalg(f, limit) <= limit
