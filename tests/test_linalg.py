"""Sparse exact row reduction against a dense Gauss-Jordan reference, and
the determinant against the permutation expansion."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

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
