"""Fusion products: quotient dimensions, decomposition over Q(s) (and its
agreement with a rational point), monodromy eigenvalues and route
agreement, Jordan structure at roots."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlcat.fusion as fusion
from tlcat.diagram import e_diagram, enumerate_diagrams
from tlcat.fusion import (
    AmbiguousEigenvalue,
    EigenvalueMismatch,
    FusedModule,
    _images,
    _pair_map,
    expected_summands,
    fusion_decomposition_generic,
    fusion_summands,
    generic_rational_spec,
    jordan_type,
    monodromy_eigenvalue,
    verify_fusion_suite,
    verify_root_examples,
)
from tlcat.linalg import mat_mul, mat_shift, rank, rref
from tlcat.morphism import GENERIC, CoeffDomain, crossing_word, domain_for, e, identity
from tlcat.scalar import Rational, Scalar, Specialization
from tlcat.standard import RegularModule, StandardModule, act, standard_dimension
from tlcat.twist import gamma_eigenvalue, twist_element

from matrix_forms import dense, rows_of
from scalar_oracle import q_power


def test_expected_summands():
    assert expected_summands(2, 1) == [1, 3]
    assert expected_summands(1, 1) == [0, 2]
    assert expected_summands(3, 1) == [2, 4]


def test_decomposition_2211():
    fused, found = fusion_decomposition_generic(2, 2, 1, 1)
    assert fused.dim == 3
    assert found == {1: 1, 3: 1}


def test_decomposition_dimension_oracle():
    # for generic s the fusion of S_{n1,k1} and S_{n2,k2} decomposes
    # into one copy of each S_{N,k}, |k1-k2| <= k <= k1+k2 in steps of 2
    for (n1, k1, n2, k2) in [(1, 1, 1, 1), (2, 0, 1, 1), (2, 2, 2, 2),
                             (3, 1, 2, 2), (2, 2, 3, 1)]:
        fused, found = fusion_decomposition_generic(n1, k1, n2, k2)
        N = n1 + n2
        expected = {k: 1 for k in expected_summands(k1, k2) if k <= N}
        assert found == expected
        assert fused.dim == sum(standard_dimension(N, k) for k in expected)


def test_fusion_rule_check_fails_on_a_wrong_multiplicity(monkeypatch):
    # {0: 2} fills S_{1,1} x S_{1,1} (two copies of the one-dimensional
    # S_{2,0}) with an expected k, but breaks the generic fusion rule
    right = fusion_summands

    def wrong(fused):
        found = right(fused)
        return {0: 2} if (fused.n, fused.left.k, fused.right.k) == (2, 1, 1) else found

    monkeypatch.setattr("tlcat.fusion.fusion_summands", wrong)
    rep = verify_fusion_suite(max_total=3)
    failed = [c["params"] for c in rep.failures()
              if c["identity"] == "summands account for the fusion product"]
    assert failed == [{"n1": 1, "k1": 1, "n2": 1, "k2": 1}]


def pivot_by_pivot(red, pivots, free, vec, zero):
    """Residue of a raw vector by eliminating its pivot coordinates one at
    a time in pivot order, each against its reduced row; correct for any
    echelon form, fully reduced or not."""
    pending = dict(vec)
    for row, p in zip(red, pivots):
        c = pending.pop(p, zero)
        if c:
            for j, x in row.items():
                if j != p:
                    pending[j] = pending.get(j, zero) - c * x
    return [pending.get(f, zero) for f in free]


@pytest.fixture
def relation_rows(monkeypatch):
    """A list that grows by one entry per FusedModule built: the relation
    rows it passes to ``rref``."""
    captured = []

    def recording_rref(rows, ncols):
        captured.append(rows)
        return rref(rows, ncols)

    monkeypatch.setattr("tlcat.fusion.rref", recording_rref)
    return captured


@pytest.mark.parametrize("spec", ["generic", "rational:5/3", "root:3"])
def test_reduce_matches_pivot_by_pivot_elimination(spec, rng, relation_rows):
    dom = domain_for(Specialization.parse(spec))
    for n1, k1, n2, k2 in [(2, 2, 1, 1), (2, 0, 2, 0), (3, 1, 1, 1), (2, 0, 3, 1)]:
        relation_rows.clear()
        fused = FusedModule(StandardModule(n1, k1, dom), StandardModule(n2, k2, dom))
        (rows,) = relation_rows
        red, pivots = rref(rows, fused.raw_dim)
        assert fused.basis == sorted(set(range(fused.raw_dim)) - set(pivots))
        assert all(fused._reduce(row) == {} for row in rows)
        for _ in range(20):
            support = rng.sample(range(fused.raw_dim), rng.randint(1, min(6, fused.raw_dim)))
            vec = {j: dom.s_power(rng.randint(-4, 4)) * rng.randint(-3, 3) for j in support}
            assert dense([fused._reduce(vec)], fused.dim, dom.zero) == \
                [pivot_by_pivot(red, pivots, fused.basis, vec, dom.zero)]


def _rows_weighing_loops(fused):
    """The relation rows of every (leg, generator) pair, a gluing that
    closes loops weighed by beta to their number, with cancelled entries
    and rows dropped: the oracle for the loop-free rows."""
    dom, left, right = fused.dom, fused.left, fused.right
    m, pairs = left.n, fused.pairs
    one_l, one_r = ([{x: dom.one} for x in range(mod.dim)] for mod in (left, right))
    gens = [(e_diagram(i, fused.n), _pair_map(_images(e(i, m, dom), left), one_r))
            for i in range(1, m)]
    gens += [(e_diagram(m + j, fused.n), _pair_map(one_l, _images(e(j, right.n, dom), right)))
             for j in range(1, right.n)]
    dindex = fused.legs._index
    rows = []
    for ghat, pair_map in gens:
        for di, d in enumerate(fused.legs.basis):
            dg, loops = d.compose(ghat)
            top, base = dindex[dg] * pairs, di * pairs
            cg = dom.beta_power(loops) if loops else dom.one
            for p, image in enumerate(pair_map):
                row = {top + p: cg}
                for q, c in image.items():
                    k = base + q
                    row[k] = row[k] - c if k in row else -c
                if any(row.values()):
                    rows.append(row)
    return rows


def _standard_products(dom, max_total):
    """Every pair of standard factors with 1 <= n1 + n2 <= max_total."""
    for total in range(1, max_total + 1):
        for n1 in range(total + 1):
            n2 = total - n1
            for k1 in range(n1 % 2, n1 + 1, 2):
                for k2 in range(n2 % 2, n2 + 1, 2):
                    yield StandardModule(n1, k1, dom), StandardModule(n2, k2, dom)


@pytest.mark.parametrize("spec, max_total", [
    ("generic", 4), ("rational:5/3", 5), ("root:2", 5), ("root:3", 5),
])
def test_loop_free_rows_span_the_relations_of_every_gluing(spec, max_total):
    # the rows of the looped gluings are combinations of loop-free ones, so
    # dropping them keeps the row space, and the unique reduced form keeps
    # the basis and every pivot image, at beta = 0 (root:2) too
    dom = domain_for(Specialization.parse(spec))
    s11, s22 = StandardModule(1, 1, dom), StandardModule(2, 2, dom)
    factors = list(_standard_products(dom, max_total))
    factors += [(RegularModule(2, dom), RegularModule(2, dom)), (FusedModule(s22, s11), s11)]
    for left, right in factors:
        fused = FusedModule(left, right)
        red, pivots = rref(_rows_weighing_loops(fused), fused.raw_dim)
        basis = sorted(set(range(fused.raw_dim)) - set(pivots))
        free = {f: i for i, f in enumerate(basis)}
        assert fused.basis == basis, fused
        assert fused._pivot_image == {p: {free[j]: x for j, x in row.items() if j != p}
                                      for row, p in zip(red, pivots)}, fused


def test_looped_gluings_factor_through_loop_free_ones():
    # a leg d whose gluing onto e_i closes a loop is x o e_i for a leg x
    # that glues without one, which is why d gives no relation row; and a
    # loop-free gluing moves its leg, so a row's two parts never share a
    # raw coordinate
    for n in range(2, 9):
        legs = enumerate_diagrams(n, n)
        for i in range(1, n):
            glued = [d.compose(e_diagram(i, n)) for d in legs]
            loop_free = {dg for dg, loops in glued if not loops}
            looped = [d for d, (_, loops) in zip(legs, glued) if loops]
            assert looped and all(d in loop_free for d in looped), (n, i)
            assert all(dg != d for d, (dg, loops) in zip(legs, glued) if not loops)


@pytest.mark.parametrize("n1, k1, n2, k2, count", [
    (3, 3, 3, 1, 720),
    (4, 2, 3, 1, 8910),
])
def test_looped_gluings_give_no_relation_rows(n1, k1, n2, k2, count, relation_rows):
    # with a row for every generator on every leg these would be 972 and 11,286
    dom = domain_for(Specialization.parse("rational:5/3"))
    FusedModule(StandardModule(n1, k1, dom), StandardModule(n2, k2, dom))
    assert [len(rows) for rows in relation_rows] == [count]


def _assert_canonical(mat, dim):
    """mat is dim sparse rows with no stored zero and no column past dim."""
    assert len(mat) == dim
    assert all(x and 0 <= j < dim for row in mat for j, x in row.items()), mat


def _diagonal(mat):
    """The distinct nonzero diagonal entries: shifting by one cancels it."""
    return {row[r] for r, row in enumerate(mat) if r in row}


@pytest.mark.parametrize("spec", ["generic", "rational:5/3", "root:2", "root:3"])
def test_matrix_producers_store_no_zero(spec, rng, relation_rows):
    # every matrix equality a check makes (e_i^2 = beta e_i, the two
    # monodromy routes, the product rule of act) compares row dicts, so it
    # means something only if no producer keeps a cancelled entry; beta = 0
    # at root:2 makes e_i^2 vanish
    dom = domain_for(Specialization.parse(spec))
    # the relation rows too: at beta = 0 a looped gluing's row would store one
    s31_s20 = FusedModule(StandardModule(3, 1, dom), StandardModule(2, 0, dom))
    (rows,) = relation_rows
    stored = [(r, j) for r, row in enumerate(rows) for j, x in row.items()
              if not x or not 0 <= j < s31_s20.raw_dim]
    assert rows and not stored, stored
    fused = FusedModule(StandardModule(2, 2, dom), StandardModule(1, 1, dom))
    for module in (StandardModule(4, 2, dom), RegularModule(3, dom), fused):
        for i in range(1, module.n):
            mi = act(e(i, module.n, dom), module)
            _assert_canonical(mi, module.dim)
            _assert_canonical(mat_mul(mi, mi), module.dim)
            # e_i (e_i - beta) = 0: every entry of this product cancels
            assert mat_mul(mi, mat_shift(mi, dom.beta)) == [{} for _ in range(module.dim)]
            for lam in _diagonal(mi):
                _assert_canonical(mat_shift(mi, lam), module.dim)
    # e_i^2 = beta e_i compares a product with the scaled rows
    assert fused.verify_representation().ok
    for route in ("braiding", "twist"):
        mono = fused.monodromy_matrix(route)
        _assert_canonical(mono, fused.dim)
        for lam in _diagonal(mono):
            _assert_canonical(mat_shift(mono, lam), fused.dim)
    # a pivot coordinate plus its own image on the free coordinates cancels
    for p, image in fused._pivot_image.items():
        vec = {p: dom.one, **{fused.basis[f]: x for f, x in image.items()}}
        assert fused._reduce(vec) == {}
    for _ in range(20):
        support = rng.sample(range(fused.raw_dim), 4)
        vec = {j: dom.s_power(rng.randint(-4, 4)) * rng.randint(-1, 1) for j in support}
        assert all(x and 0 <= f < fused.dim for f, x in fused._reduce(vec).items())


def test_monodromy_eigenvalue_formula():
    dom = GENERIC
    assert monodromy_eigenvalue(2, 1, 3, dom) == q_power(2)
    # mu_{1,1,0} = q^{-3}, mu_{1,1,2} = q
    assert monodromy_eigenvalue(1, 1, 0, dom) == Scalar.s_power(-12)
    assert monodromy_eigenvalue(1, 1, 2, dom) == Scalar.s_power(4)


def test_symbolic_monodromy_routes_agree():
    fused = FusedModule(StandardModule(1, 1, GENERIC),
                        StandardModule(1, 1, GENERIC))
    assert fused.dim == 2
    mono = fused.monodromy_matrix("braiding")
    assert mono == fused.monodromy_matrix("twist")
    # upper triangular with the two mu eigenvalues on the diagonal
    diag = sorted(str(mono[i][i]) for i in range(2))
    assert diag == sorted([str(Scalar.s_power(-12)), str(Scalar.s_power(4))])


def test_route_agreement_detects_a_wrong_factor_twist(monkeypatch):
    # replacing c_1^-1 = s^-6 by the identity scales the twist route by
    # s^12, so the two monodromy routes must disagree
    monkeypatch.setattr("tlcat.fusion.twist_inverse",
                        lambda n, dom: identity(n, dom=dom))
    fused = FusedModule(StandardModule(1, 1, GENERIC),
                        StandardModule(1, 1, GENERIC))
    assert fused.monodromy_matrix("braiding") != fused.monodromy_matrix("twist")


def test_route_agreement_detects_a_wrong_factor_twist_with_warm_caches(monkeypatch):
    # the cached c_1^-1, c_2 and double braiding are built before the fault is
    # planted; the twist route must still pick up the wrong factor
    fused = FusedModule(StandardModule(1, 1, GENERIC),
                        StandardModule(1, 1, GENERIC))
    assert fused.monodromy_matrix("braiding") == fused.monodromy_matrix("twist")
    assert crossing_word.cache_info().currsize > 0
    monkeypatch.setattr("tlcat.fusion.twist_inverse",
                        lambda n, dom: identity(n, dom=dom))
    fused = FusedModule(StandardModule(1, 1, GENERIC),
                        StandardModule(1, 1, GENERIC))
    assert fused.monodromy_matrix("braiding") != fused.monodromy_matrix("twist")


def test_braiding_route_composes_crossings_onto_dense_morphisms(compose_calls):
    # eta_{3,3} eta_{3,3} is one word of 2mn = 18 crossings: 17 products of
    # a crossing (two terms) with a dense morphism of End(6), each at most
    # 2 Catalan(6) diagram compositions, then one leg composition of at
    # most Catalan(6) per column.  The dense product of the two commutors
    # takes about 14,000.  The point 37/23 is used nowhere else, so no
    # cached double braiding is reused.
    dom = CoeffDomain(Specialization.rational(Fraction(37, 23)))
    m, n = 3, 3
    fused = FusedModule(StandardModule(m, 3, dom), StandardModule(n, 1, dom))
    assert fused.dim == 14
    compose_calls.clear()
    fused.monodromy_matrix("braiding")
    catalan = comb(2 * (m + n), m + n) // (m + n + 1)
    assert len(compose_calls) <= 2 * (2 * m * n - 1) * catalan + fused.dim * catalan


def test_rational_point_coefficients_are_rationals():
    # at s = 5/3 every coefficient is a Rational, from the domain's constants
    # through the structural morphisms to a fused module's monodromy
    dom = domain_for(Specialization.rational(Fraction(5, 3)))
    values = [dom.one, dom.zero, dom.beta] + [dom.s_power(k) for k in range(-8, 9)]
    values += twist_element(3, dom).terms.values()
    fused = FusedModule(StandardModule(2, 2, dom), StandardModule(2, 0, dom))
    mono = fused.monodromy_matrix("twist")
    values += [x for row in mono for x in row.values()]
    assert len(mono) == fused.dim > 0
    assert all(type(x) is Rational for x in values), {type(x) for x in values}
    assert dom.s_power(-3) == Fraction(27, 125) and str(dom.beta) == "-397186/50625"


def _outcomes(rep):
    return [(c["identity"], {k: v for k, v in c["params"].items() if k != "spec"},
             c["status"]) for c in rep.cases]


def test_generic_suite_agrees_with_a_rational_point():
    # the suite over Q(s) and the same suite at s = 5/3 make the same
    # checks with the same outcomes, case by case
    generic = verify_fusion_suite(max_total=4)
    pointwise = verify_fusion_suite(max_total=4, spec=generic_rational_spec())
    assert generic.ok and pointwise.ok
    assert _outcomes(generic) == _outcomes(pointwise)
    assert generic.cases[0]["params"] == {"spec": "generic"}


def test_generic_suite_detects_a_wrong_monodromy_eigenvalue(monkeypatch):
    # scaling mu_{k1,k2,k1+k2} by s^4 must make the symbolic semisimplicity
    # check fail, with the wrong mu as its witness
    right = monodromy_eigenvalue

    def wrong(k1, k2, k, dom):
        mu = right(k1, k2, k, dom)
        return mu * dom.s_power(4) if k == k1 + k2 else mu

    monkeypatch.setattr("tlcat.fusion.monodromy_eigenvalue", wrong)
    rep = verify_fusion_suite(max_total=3)
    failed = [c for c in rep.failures()
              if c["identity"] == "monodromy is semisimple with eigenvalues mu_k"]
    assert failed
    for case in failed:
        p = case["params"]
        top = p["k1"] + p["k2"]
        assert case["witness"]["mu"][top] == str(wrong(p["k1"], p["k2"], top, GENERIC))


def test_routes_agree_rational():
    spec = generic_rational_spec()
    for (n1, k1, n2, k2) in [(2, 2, 1, 1), (2, 0, 2, 0), (3, 1, 1, 1)]:
        dom = domain_for(spec)
        fused = FusedModule(StandardModule(n1, k1, dom),
                            StandardModule(n2, k2, dom))
        assert fused.monodromy_matrix("braiding") == \
            fused.monodromy_matrix("twist")


@pytest.mark.parametrize("n1, k1, n2, k2, raw_dim, dim, summands", [
    (4, 2, 3, 1, 2574, 28, {1: 1, 3: 1}),
    (4, 0, 3, 1, 1716, 14, {1: 1}),
])
def test_fusion_at_seven_strands(n1, k1, n2, k2, raw_dim, dim, summands):
    # an N = 7 quotient: thousands of relation rows on thousands of columns
    fused, found = fusion_decomposition_generic(n1, k1, n2, k2,
                                                Specialization.parse("rational:5/3"))
    assert (fused.raw_dim, fused.dim, found) == (raw_dim, dim, summands)
    assert fused.monodromy_matrix("braiding") == fused.monodromy_matrix("twist")


def test_fused_representation_relations():
    spec = generic_rational_spec()
    dom = domain_for(spec)
    fused = FusedModule(StandardModule(2, 2, dom), StandardModule(1, 1, dom))
    assert fused.verify_representation().ok
    # on four strands e_1 and e_3 must commute too
    for spec in (Specialization.generic(), Specialization.parse("root:3")):
        dom = domain_for(spec)
        for (n1, k1), (n2, k2) in (((2, 2), (2, 0)), ((3, 1), (1, 1))):
            rep = FusedModule(StandardModule(n1, k1, dom),
                              StandardModule(n2, k2, dom)).verify_representation()
            assert rep.ok
            assert [c["params"] for c in rep.cases
                    if c["identity"] == "far commutation"] == [{"i": 1, "j": 3}]


def test_fused_representation_detects_noncommuting_far_generators(monkeypatch):
    # e_3 conjugated by P = 1 + e_2 keeps every relation but far commutation:
    # P commutes with e_2, and P^-1 = 1 - e_2 / (1 + beta)
    dom = domain_for(generic_rational_spec())
    fused = FusedModule(StandardModule(2, 2, dom), StandardModule(2, 0, dom))
    e2 = dense(act(e(2, 4, dom), fused), fused.dim, dom.zero)
    one = [[dom.one if i == j else dom.zero for j in range(fused.dim)]
           for i in range(fused.dim)]
    c = -1 / (1 + dom.beta)
    p = rows_of([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(one, e2)])
    p_inv = rows_of([[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(one, e2)])

    def planted(f, module):
        mat = act(f, module)
        return mat_mul(mat_mul(p, mat), p_inv) if f == e(3, 4, dom) else mat

    monkeypatch.setattr(fusion, "act", planted)
    rep = fused.verify_representation()
    assert [c["identity"] for c in rep.failures()] == ["far commutation"]


def test_triple_products_agree_in_both_bracketings():
    # a fused module is a factor like any other: (A x B) x C and
    # A x (B x C) over Q(s) have equal dimension and equal eigenspaces of
    # c_N, which fill the module with the iterated generic fusion rule
    count = 0
    for ns in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        N = sum(ns)
        cn = twist_element(N, GENERIC)
        for ks in product(*(range(n % 2, n + 1, 2) for n in ns)):
            a, b, c = (StandardModule(n, k, GENERIC) for n, k in zip(ns, ks))
            rule = [0] * (N + 1)
            for j in expected_summands(ks[0], ks[1]):
                for k in expected_summands(j, ks[2]):
                    rule[k] += standard_dimension(N, k)
            eigdims = []
            for fused in (FusedModule(FusedModule(a, b), c), FusedModule(a, FusedModule(b, c))):
                assert fused.n == N
                mat = act(cn, fused)
                eigdims.append([fused.dim - rank(mat_shift(mat, gamma_eigenvalue(k, GENERIC)),
                                                 fused.dim)
                                for k in range(N % 2, N + 1, 2)])
                assert sum(eigdims[-1]) == fused.dim
            assert eigdims[0] == eigdims[1] == rule[N % 2::2]
            count += 1
    assert count == 7


@pytest.mark.parametrize("spec, dims", [
    ("root:2", (6, 19, 3)),
    ("root:3", (2, 9, 2)),
    ("generic", (2, 9, 2)),
])
def test_fused_dimensions_with_an_s20_factor(spec, dims):
    # S_{2,0} is the cup; at root:2 (beta = 0) its induced products outgrow
    # the generic rule, which root:3 and generic s follow.  The relation
    # rows are the only thing that sets these dimensions.
    dom = domain_for(Specialization.parse(spec))
    s20 = StandardModule(2, 0, dom)
    got = tuple(FusedModule(StandardModule(n, k, dom), s20).dim
                for n, k in ((2, 0), (4, 2), (1, 1)))
    assert got == dims


def test_regular_fusion_dimension():
    spec = generic_rational_spec()
    dom = domain_for(spec)
    fused = FusedModule(RegularModule(1, dom), RegularModule(1, dom))
    # End(1) x_f End(1) is the regular module of End(2), dimension 2
    assert fused.dim == 2
    # a factor with no k: the summands are read at every k <= N, N - k even
    assert fusion_summands(fused) == {0: 1, 2: 1}
    s11 = StandardModule(1, 1, dom)
    assert fusion_summands(FusedModule(FusedModule(s11, s11), s11)) == {1: 2, 3: 1}


def test_jordan_type_oracle():
    F = Fraction
    # handcrafted nilpotent: blocks (2, 1)
    m = rows_of([[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]])
    assert jordan_type(m, F(0)) == (2, 1)
    # shift the eigenvalue
    m2 = rows_of([[F(5), F(1), F(0)], [F(0), F(5), F(0)], [F(0), F(0), F(5)]])
    assert jordan_type(m2, F(5)) == (2, 1)
    ident = rows_of([[F(1), F(0)], [F(0), F(1)]])
    assert jordan_type(ident, F(1)) == (1, 1)
    with pytest.raises(EigenvalueMismatch):
        jordan_type(ident, F(3))
    # an empty matrix has no eigenvalue
    with pytest.raises(EigenvalueMismatch):
        jordan_type([], F(0))


def _jordan_matrix(blocks) -> list:
    """The block-diagonal Fraction matrix of Jordan blocks (value, size),
    as sparse rows."""
    n = sum(b for _, b in blocks)
    mat = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for value, b in blocks:
        for i in range(start, start + b):
            mat[i][i] = Fraction(value)
            if i + 1 < start + b:
                mat[i][i + 1] = Fraction(1)
        start += b
    return rows_of(mat)


def _inverse(p: list) -> list:
    """The inverse of an invertible square Fraction matrix, via rref of [p | 1]."""
    n = len(p)
    red, pivots = rref(rows_of([row + [Fraction(int(i == j)) for j in range(n)]
                                for i, row in enumerate(p)]), 2 * n)
    assert pivots == list(range(n))
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in red]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.lists(st.integers(1, 3), max_size=2),
       st.integers(-2, 2),
       st.data())
def test_jordan_type_recovers_conjugated_jordan_blocks(at_lam, elsewhere, lam, data):
    # Jordan blocks at lam and at lam + 1, conjugated by a random invertible
    # matrix, keep their block sizes at lam
    jmat = _jordan_matrix([(lam, b) for b in at_lam] + [(lam + 1, b) for b in elsewhere])
    n = len(jmat)
    entry = st.integers(-3, 3).map(Fraction)
    p = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
                  .filter(lambda m: rank(rows_of(m), n) == n))
    mat = mat_mul(mat_mul(rows_of(p), jmat), rows_of(_inverse(p)))
    assert jordan_type(mat, Fraction(lam)) == tuple(sorted(at_lam, reverse=True))


@pytest.mark.parametrize("blocks, lam, ranks, products", [
    ([(0, 3), (0, 1)], 0, 3, 2),   # the rank reaches 0
    ([(0, 2), (1, 1)], 0, 3, 2),   # the rank stops falling at 1
    ([(0, 1), (0, 1)], 0, 1, 0),
    ([(1, 2)], 0, 1, 0),           # not an eigenvalue
])
def test_jordan_type_work(monkeypatch, blocks, lam, ranks, products):
    # one rank per power of (mat - lam) until the rank reaches 0 or stops
    # falling, and one product per further power
    calls = {"rank": 0, "mat_mul": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(fusion, "rank", counted("rank", rank))
    monkeypatch.setattr(fusion, "mat_mul", counted("mat_mul", mat_mul))
    try:
        jordan_type(_jordan_matrix(blocks), Fraction(lam))
    except EigenvalueMismatch:
        pass
    assert calls == {"rank": ranks, "mat_mul": products}


def test_root_of_unity_examples():
    rep = verify_root_examples()
    assert rep.ok, rep.failures()


def test_root_examples_detect_a_wrong_eigenvalue(monkeypatch):
    # s^4 = q times each monodromy eigenvalue is not an eigenvalue: both
    # Jordan-type cases fail with the mismatch as their witness
    shifted = tuple(ex[:4] + (ex[4] + 4,) + ex[5:] for ex in fusion._ROOT_EXAMPLES)
    monkeypatch.setattr(fusion, "_ROOT_EXAMPLES", shifted)
    failures = verify_root_examples().failures()
    assert [c["identity"] for c in failures] == ["monodromy jordan type"] * 2
    assert all(c["witness"] == {"error": "value is not an eigenvalue of the matrix"}
               for c in failures)


def test_root_examples_name_the_entry_a_route_gets_wrong(monkeypatch):
    # one doubled entry of the regular x regular twist route: the failed
    # route check names exactly that entry, and prints entries with str
    monodromy_matrix = FusedModule.monodromy_matrix
    planted = []

    def doubled(self, route="braiding"):
        mat = monodromy_matrix(self, route)
        if route == "twist" and self.dim == 14:
            entries = [(i, j) for i, row in enumerate(mat) for j in sorted(row)]
            i, j = entries[len(entries) // 2]
            planted.append((i, j, mat[i][j]))
            mat = mat[:i] + [{**mat[i], j: 2 * mat[i][j]}] + mat[i + 1:]
        return mat

    monkeypatch.setattr(FusedModule, "monodromy_matrix", doubled)
    failures = verify_root_examples().failures()
    assert [c["identity"] for c in failures] == ["double braiding equals the twist-ratio route"]
    (i, j, x), = planted
    witness = failures[0]["witness"]
    assert witness["diff"] == [f"({i}, {j}): {-x}"]
    assert "CycloElement[" not in witness["lhs"] + witness["rhs"]
    assert f"{j}: {2 * x}" in witness["rhs"]


def test_generic_suite_reports_collisions_at_a_bad_point():
    # at s = 1 the central eigenvalues collide: the suite records each
    # product with two or more summands as failed, with the collision
    rep = verify_fusion_suite(3, Specialization.rational(1))
    failures = rep.failures()
    assert [c["identity"] for c in failures] == ["fusion decomposition"] * 3
    assert all("central eigenvalues collide" in c["witness"]["error"] for c in failures)


def test_collision_detected_at_bad_point():
    # s = 1 collapses all central eigenvalues
    with pytest.raises(AmbiguousEigenvalue):
        fusion_decomposition_generic(2, 2, 1, 1, Specialization.rational(1))
