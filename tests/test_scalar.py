"""Exact coefficient arithmetic: Laurent polynomials in s with spectral
variables, rational/cyclotomic specializations."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlcat.cyclotomic import CycloElement, CycloField
from tlcat.morphism import GENERIC, domain_for
from tlcat.scalar import (
    _LIMIT,
    NotInvertibleInRing,
    Rational,
    Scalar,
    Specialization,
    _u_divmod,
    _u_gcd,
    _u_mul,
    parse_scalar,
)

from scalar_oracle import (
    ZKEY,
    Oracle,
    boxed,
    decoded,
    eval_rational,
    from_tuples,
    q_power,
    subs,
)

# random Laurent polynomials in s: exponent -> small rational
coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
spoly = st.dictionaries(st.integers(min_value=-8, max_value=8), coeff,
                        max_size=4)


def build(d: dict) -> Scalar:
    out = Scalar.from_rational(0)
    for k, c in d.items():
        out = out + Scalar.s_power(k) * Scalar.from_rational(c)
    return out


def eval_oracle(d: dict, x: Fraction) -> Fraction:
    return sum((c * x ** k for k, c in d.items()), Fraction(0))


POINTS = [Fraction(2), Fraction(5, 3), Fraction(-7, 4), Fraction(1, 2)]


@settings(max_examples=150, deadline=None)
@given(spoly, spoly)
def test_ring_ops_match_rational_evaluation(da, db):
    a, b = build(da), build(db)
    for x in POINTS:
        assert eval_rational((a + b), s=x) == eval_oracle(da, x) + eval_oracle(db, x)
        assert eval_rational((a - b), s=x) == eval_oracle(da, x) - eval_oracle(db, x)
        assert eval_rational((a * b), s=x) == eval_oracle(da, x) * eval_oracle(db, x)
        assert eval_rational((1 - a), s=x) == 1 - eval_oracle(da, x)
        assert eval_rational((a ** 3), s=x) == eval_oracle(da, x) ** 3
        if eval_oracle(db, x):
            assert eval_rational((a / b), s=x) == eval_oracle(da, x) / eval_oracle(db, x)


@settings(max_examples=100, deadline=None)
@given(spoly)
def test_inverse(da):
    a = build(da)
    if not a:
        with pytest.raises((NotInvertibleInRing, ZeroDivisionError)):
            a.inv()
        return
    assert a * a.inv() == Scalar.from_rational(1)


@settings(max_examples=100, deadline=None)
@given(spoly)
def test_text_round_trip(da):
    a = build(da)
    assert parse_scalar(str(a)) == a


@pytest.mark.parametrize("text", [
    "", "+", "-", " * ", "s^", "2 * * s", "3 +", "- - s", "s*",
    # no space stands inside a number, so these tokens do not glue together
    "-s^2  1",
    "2 * s^-4 - + s^4 + 7/3",
])
def test_malformed_scalar_text_raises(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_well_formed_scalar_text_keeps_its_value():
    s, u, v = (Scalar.var_power(x, 1) for x in "suv")
    for text, value in [
        ("s", s),
        ("u*v", u * v),
        ("s^2 * 3", 3 * s ** 2),
        ("-s^2 + 1", 1 - s ** 2),
        ("0", Scalar(0)),
        (" - 3/2 ", Scalar(Fraction(-3, 2))),
        ("s^4 + 1 - s^-4 + s", s ** 4 + 1 - s ** -4 + s),
        ("2 * s^-4 - s^4 + 7/3", 2 * s ** -4 - s ** 4 + Fraction(7, 3)),
        ("(s^2) / (1 + s^8)", s ** 2 / (1 + s ** 8)),
        ("( u - 1 )/( s - 2 )", (u - 1) / (s - 2)),
    ]:
        assert parse_scalar(text) == value, text


# -- packed keys against the tuple-key oracle ------------------------------------

L = _LIMIT
EDGE = (L - 1, -L)  # the last exponents inside the box
SMALL = list(range(-6, 7))
EXP = st.sampled_from(SMALL + list(EDGE))
nonzero = coeff.filter(bool)


@st.composite
def raw_pair(draw):
    """Two operands, each a numerator keyed by exponent tuples over a
    denominator in s (None for 1).  A numerator is multivariate in s, u, v, w,
    or a spectral monomial times a Laurent polynomial in s, which is a unit.
    Spectral exponents range over small values and the box edges.  The
    s-exponents of each operand cluster near 0 or near one edge; shifting a
    denominator's lowest exponent to 0 can move its numerator across the box.
    A few exponents sit just past the edge."""
    s_at = draw(st.sampled_from((0, 0, L - 5, -L + 5)))
    den_at = draw(st.sampled_from((0, 0, L - 4, -L)))
    s_exp = st.sampled_from(SMALL).map(lambda e: s_at + e)

    def operand():
        if draw(st.booleans()):
            spec = draw(st.tuples(EXP, EXP, EXP))
            num = {(draw(s_exp), *spec): draw(nonzero) for _ in range(draw(st.integers(1, 3)))}
        else:
            num = draw(st.dictionaries(st.tuples(s_exp, EXP, EXP, EXP), nonzero, max_size=3))
        den = draw(st.none() | st.dictionaries(st.integers(den_at, den_at + 3), nonzero,
                                               min_size=1, max_size=3))
        if num and draw(st.integers(0, 7)) == 0:
            # a spectral one: s-exponents pass the edge from s_at = +-(L - 5)
            key, c = num.popitem()
            i = draw(st.integers(1, 3))
            num[key[:i] + (draw(st.sampled_from((L, -L - 1))),) + key[i + 1:]] = c
        return num, den

    return operand(), operand()


def outcome(f, *args):
    """f(*args), or the type of the ArithmeticError it raised."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


def o_pow(a: Oracle, k: int) -> Oracle:
    """a ** k by the square-and-multiply of Scalar.__pow__, each product in
    the box."""
    if k < 0:
        return o_pow(boxed(a.inv()), -k)
    out, base = Oracle({ZKEY: 1}), a
    while k:
        if k & 1:
            out = boxed(out * base)
        k >>= 1
        if k:
            base = boxed(base * base)
    return out


def assert_matches(got, want):
    """A Scalar (or raised error type) equal to the oracle's result."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert decoded(got) == want.num and got.den == want.den
    for c in [*got.num.values(), *got.den.values()]:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert str(got) == str(want)
    assert parse_scalar(str(got)) == got
    r = want.rational()
    if r is not None:
        assert got == r and hash(got) == hash(r)


@settings(max_examples=300, deadline=None)
@given(raw_pair())
def test_packed_keys_match_the_tuple_key_oracle(pair):
    def build(raw):
        num, den = raw
        if any(not -L <= e < L for k in num for e in k):
            raise OverflowError("input outside the box")
        return boxed(Oracle(num, den))

    values = []
    for raw in pair:
        want = outcome(build, raw)
        got = outcome(from_tuples, *raw)
        assert_matches(got, want)
        if outcome(lambda: boxed(Oracle(*raw))) is OverflowError:
            # the text of a value past the edge does not parse
            with pytest.raises(ValueError):
                parse_scalar(str(Oracle(*raw)))
        values.append((got, want))
    (a, oa), (b, ob) = values
    if isinstance(oa, type) or isinstance(ob, type):
        return
    cases = [
        (lambda: a + b, lambda: boxed(oa + ob)),
        (lambda: a - b, lambda: boxed(oa + -ob)),
        (lambda: -a, lambda: -oa),
        (lambda: a * b, lambda: boxed(oa * ob)),
        (lambda: b * a, lambda: boxed(ob * oa)),
        (lambda: a.inv(), lambda: boxed(oa.inv())),
        (lambda: a / b, lambda: boxed(oa * boxed(ob.inv()))),
        (lambda: a ** 3, lambda: o_pow(oa, 3)),
        (lambda: b ** -2, lambda: o_pow(ob, -2)),
    ]
    for got, want in cases:
        assert_matches(outcome(got), outcome(want))
    if outcome(lambda: boxed(oa * ob)) is OverflowError:
        with pytest.raises(ValueError):
            parse_scalar(str(oa * ob))
    same = oa.num == ob.num and oa.den == ob.den
    assert (a == b) == same and (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)
    if not isinstance(outcome(lambda: a * b), type):
        assert hash(a * b) == hash(b * a)


def test_box_edges():
    for e in EDGE:
        x = Scalar.s_power(e)
        assert decoded(x) == {(e, 0, 0, 0): 1} and parse_scalar(str(x)) == x
        for name in "uvw":
            assert parse_scalar(f"{name}^{e}") == Scalar.var_power(name, e)
    for e in (L, -L - 1):
        for make in (Scalar.s_power, lambda k: Scalar.var_power("w", k)):
            with pytest.raises(OverflowError):
                make(e)
    s, u = Scalar.s_power(1), Scalar.var_power("u", 1)
    # a power squares its base no further than it needs
    assert u.inv() ** L == Scalar.var_power("u", -L)
    half = Scalar.var_power("u", -(L // 2))
    for x, y in [(Scalar.s_power(L - 1), s), (half, half / u),
                 (s / (s + 1), Scalar.s_power(L - 1) / (s + 2))]:
        with pytest.raises(OverflowError):
            x * y
    assert Scalar.s_power(L - 1) * Scalar.s_power(-L) == 1 / s
    # a denominator of degree L - 1 is inside the box, its square is not
    d = 1 + Scalar.s_power(L - 1)
    with pytest.raises(OverflowError):
        d.inv() * d.inv()
    for text in (f"s^{L}", f"u^{-L - 1}", "s^99999999", f"(1) / (1 + s^{L})",
                 f"s^{L - 1} * s", "1/0", "(1) / (0)", "(1) / (u + 1)"):
        with pytest.raises(ValueError):
            parse_scalar(text)


# -- products that cancel: a = f p / q and b = r / (f t) share the factor f ------

SPEC = st.integers(-2, 2)
HALF = L // 2  # two denominators of this degree multiply to one past the box
# f, q, t: polynomials in s; p: a polynomial in s, u, v; r: a spectral monomial
# times a polynomial in s, so that b is invertible.  Drawn q and t keep a low
# degree: a gcd of a pair with a common factor far apart in degree still costs
# seconds to minutes of exact Euclid (ROADMAP, "Smaller items"), so the box
# edge is reached by the explicit examples, whose factors divide cheaply.
upoly = st.dictionaries(st.integers(0, 3), nonzero, max_size=3)
planted = st.tuples(
    st.dictionaries(st.integers(0, 3), nonzero, min_size=2, max_size=3),
    st.dictionaries(st.tuples(st.integers(-3, 3), SPEC, SPEC, st.just(0)), nonzero,
                    min_size=1, max_size=3),
    upoly,
    st.tuples(st.dictionaries(st.integers(-3, 3), nonzero, min_size=1, max_size=3),
              st.tuples(SPEC, SPEC, SPEC)),
    upoly,
)


def planted_operands(f, p, q, r, t):
    """The raw operands (f p, q) and (r, f t); an empty q or t stands for 1."""
    fp = (Oracle({(e, 0, 0, 0): c for e, c in f.items()}) * Oracle(p)).num
    r_poly, spec = r
    return (fp, q or {0: 1}), ({(e, *spec): c for e, c in r_poly.items()}, _u_mul(f, t or {0: 1}))


ONE_PLUS_S = {0: 1, 1: 1}
UNIT_P, UNIT_R = {ZKEY: 1}, ({0: 2}, (1, 0, 0))


@settings(max_examples=150, deadline=None)
@given(planted)
# the denominator of a * b cancels to 1: (1 + s) * 2u / (1 + s) = 2u
@example((ONE_PLUS_S, UNIT_P, {}, UNIT_R, {}))
# deg q + deg t is L, one past the box, or L - 1, its last degree
@example((ONE_PLUS_S, UNIT_P, {0: 1, HALF: 1}, UNIT_R, {0: 1, HALF: 1}))
@example((ONE_PLUS_S, UNIT_P, {0: 1, HALF: 1}, UNIT_R, {0: 1, HALF - 1: 1}))
def test_cancelling_products_match_the_tuple_key_oracle(raw):
    (num_a, den_a), (num_b, den_b) = planted_operands(*raw)
    a, oa = from_tuples(num_a, den_a), Oracle(num_a, den_a)
    b, ob = from_tuples(num_b, den_b), Oracle(num_b, den_b)
    assert_matches(a, oa)
    assert_matches(b, ob)
    cases = [
        (lambda: a * b, lambda: boxed(oa * ob)),
        (lambda: b * a, lambda: boxed(ob * oa)),
        (lambda: a / b, lambda: boxed(oa * boxed(ob.inv()))),
        (lambda: a ** 2 * b ** -1, lambda: boxed(o_pow(oa, 2) * o_pow(ob, -1))),
    ]
    for got, want in cases:
        assert_matches(outcome(got), outcome(want))


def test_cancelling_products_at_the_edges():
    def product(q, t):
        (num_a, den_a), (num_b, den_b) = planted_operands(ONE_PLUS_S, UNIT_P, q, UNIT_R, t)
        return from_tuples(num_a, den_a) * from_tuples(num_b, den_b)

    assert product({}, {}) == 2 * Scalar.var_power("u", 1)
    assert product({}, {}).den == {0: 1}
    assert max(product({0: 1, HALF: 1}, {0: 1, HALF - 1: 1}).den) == L - 1
    with pytest.raises(OverflowError):
        product({0: 1, HALF: 1}, {0: 1, HALF: 1})


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(0, 2), nonzero, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, 300), nonzero, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, 3), nonzero, min_size=1, max_size=4))
def test_gcd_matches_euclid_by_long_division(f, x, y):
    # a common factor f (coprime pairs when f is constant), a sparse
    # cofactor far above a small one
    def euclid(a, b):
        while b:
            a, b = b, _u_divmod(a, b)[1]
        lc = a[max(a)]
        return {e: c / lc for e, c in a.items()}

    a, b = _u_mul(f, x), _u_mul(f, y)
    assert _u_gcd(a, b) == _u_gcd(b, a) == euclid(a, b)


def test_gcd_when_the_prime_divides_a_coefficient():
    # mod _P the leading s^2 terms of these vanish, or a denominator does
    # not exist, yet over Q they share the factor s + 1/_P
    p = (1 << 61) - 1
    for f in ({1: p, 0: 1}, {1: 1, 0: Fraction(1, p)}):
        a, b = _u_mul(f, {1: 1, 0: 1}), _u_mul(f, {1: 1, 0: 2})
        assert _u_gcd(a, b) == _u_gcd(b, a) == {1: 1, 0: Fraction(1, p)}


def test_wide_spread_gcd_is_cheap():
    # a sum whose s-exponents span the box: exact long division of the
    # numerator by the cubic denominator took one step per degree, with
    # growing coefficients (34 s); the pair is coprime, which the division
    # mod _P shows with word-sized coefficients
    den = {-L: Fraction(3, 7), -L + 1: 2, -L + 3: Fraction(5, 3)}
    a = from_tuples({(-L + 5, 0, 0, 0): 1}, den)
    b = Scalar.s_power(-L + 5)
    start = time.process_time()
    total = a + b
    assert time.process_time() - start < 10
    assert total.den == {0: Fraction(9, 35), 1: Fraction(6, 5), 3: 1}
    x = Fraction(2)
    want = x ** 5 / sum(c * x ** (e + L) for e, c in den.items()) + x ** (5 - L)
    assert eval_rational(total, s=x) == want
    assert total - b == a


def test_integral_coefficients_are_ints():
    def coefficients(x):
        return list(decoded(x).values()) + list(x.den.values())

    def assert_ints(x):
        assert all(type(c) is int for c in coefficients(x)), repr(decoded(x))

    s = Scalar.s_power(1)
    a = 3 * s ** 2 - s + 1
    b = s + 2
    for x in [Scalar(4), Scalar.from_rational(Fraction(6, 3)),
              from_tuples({(1, 0, 0, 0): Fraction(4, 2)}),
              from_tuples({(0, 0, 0, 0): Fraction(3)}, {0: Fraction(3), 1: Fraction(3)}),
              from_tuples({(0, 0, 0, 0): Fraction(3, 2)}, {0: Fraction(3, 2), 1: Fraction(3, 2)}),
              from_tuples({(2, 0, 0, 0): Fraction(4, 3)}, {0: Fraction(2, 3)}),
              a + b, a * b, a - b, b.inv(), a / b, (2 * b) / 2, (s ** 2 - 1) / (s - 1),
              Fraction(1, 2) * s + Fraction(1, 2) * s, (2 * s) * Fraction(1, 2)]:
        assert_ints(x)
        assert_ints(parse_scalar(str(x)))
    assert (s ** 2 - 1) / (s - 1) == s + 1
    # a non-integral quotient keeps its Fraction, and only that one
    half = (2 * s + 1) / 2
    assert decoded(half) == {(1, 0, 0, 0): 1, (0, 0, 0, 0): Fraction(1, 2)}
    assert type(decoded(half)[(1, 0, 0, 0)]) is int
    assert type(decoded(half)[(0, 0, 0, 0)]) is Fraction
    assert decoded(parse_scalar(str(half))) == decoded(half)
    assert subs(s / 3, s=3) == 1
    assert type(decoded(subs(s / 3, s=3))[(0, 0, 0, 0)]) is int
    # the same normal form in Q(zeta_N)
    for N in (1, 2, 3, 8, 12, 16):
        F = CycloField(N)
        assert all(type(c) is int for c in F.phi.values())
        dom = domain_for(Specialization.cyclotomic(N))
        z = F.zeta()
        for x in [F.from_rational(0), F.from_rational(1), F.from_rational(Fraction(6, 3)),
                  z, F.zeta(N - 1), dom.beta, dom.s_power(-3), z * z + 1, dom.beta * z - dom.beta,
                  F.from_rational(Fraction(1, 2)) * 2, z.inv() * z,
                  F.from_rational(Fraction(1, 2)) + Fraction(1, 2)]:
            assert all(type(c) is int for c in x.terms.values()), repr(x)
        # a non-integral coefficient keeps its Fraction
        half = F.from_rational(2).inv()
        assert half == Fraction(1, 2)
        assert type(half.terms[0]) is Fraction


def test_q_and_beta():
    assert q_power(1) == Scalar.s_power(4)
    assert q_power(Fraction(1, 2)) == Scalar.s_power(2)
    assert GENERIC.beta == -Scalar.s_power(4) - Scalar.s_power(-4)
    with pytest.raises(ValueError):
        q_power(Fraction(1, 3))


def test_spectral_variables_commute_and_cancel():
    u = Scalar.var_power("u", 1)
    a = (Scalar.s_power(2) * u + Scalar.s_power(-2)) * u
    b = u * (Scalar.s_power(2) * u + Scalar.s_power(-2))
    assert a == b
    assert (u * Scalar.var_power("u", -1)) == Scalar.from_rational(1)


def test_subs_partial():
    u = Scalar.var_power("u", 1)
    x = Scalar.s_power(4) * u + Scalar.s_power(-4)
    at = subs(x, u=Fraction(3))
    assert at == Scalar.s_power(4) * Scalar.from_rational(3) + Scalar.s_power(-4)


def test_specialization_parse():
    assert Specialization.parse("generic").kind == "generic"
    sp = Specialization.parse("root:3")
    assert sp.kind == "cyclotomic" and sp.N == 24
    sp = Specialization.parse("rational:5/3")
    assert sp.kind == "rational" and sp.s0 == Fraction(5, 3)
    for text in ("nonsense:1", "rational:0", "rational:1/0"):
        with pytest.raises(ValueError):
            Specialization.parse(text)
    with pytest.raises(ValueError):
        Specialization.rational(0)


def dense_phi(N: int) -> list:
    """Dense coefficient list of Phi_N (index = exponent), from the field's
    sparse phi."""
    phi = CycloField(N).phi
    return [phi.get(i, 0) for i in range(max(phi) + 1)]


def dense_coeffs(x: CycloElement) -> list:
    """The phi(N) dense coefficients of x, index = exponent."""
    return [x.terms.get(i, 0) for i in range(x.field.degree)]


def test_cyclotomic_polynomials():
    # oracle: known factorizations
    assert dense_phi(1) == [Fraction(-1), Fraction(1)]
    assert dense_phi(2) == [Fraction(1), Fraction(1)]
    assert dense_phi(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert dense_phi(12) == [Fraction(1), Fraction(0), Fraction(-1),
                             Fraction(0), Fraction(1)]
    # product over divisors of x^n - 1
    for n in range(1, 41):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d:
                continue
            phi = dense_phi(d)
            out = [Fraction(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [Fraction(0)] * (n + 1)
        expected[0], expected[n] = Fraction(-1), Fraction(1)
        assert prod == expected


def test_cyclo_field_arithmetic():
    F = CycloField(12)
    z = F.zeta()
    assert z ** 12 == F.from_rational(1)
    assert z ** 6 == -F.from_rational(1)
    assert sum((z ** (4 * k) for k in range(3)), F.from_rational(0)) == F.from_rational(0)
    a = z ** 5 + F.from_rational(Fraction(2, 3))
    assert a * a.inv() == F.from_rational(1)


CYCLO_ORDERS = (1, 2, 3, 8, 12, 16, 24, 32)


@st.composite
def cyclo_pair(draw):
    """Two nonzero elements of one field Q(zeta_N)."""
    F = CycloField(draw(st.sampled_from(CYCLO_ORDERS)))
    coeffs = st.lists(coeff, min_size=F.degree, max_size=F.degree).filter(any)
    return (CycloElement(F, dict(enumerate(draw(coeffs)))),
            CycloElement(F, dict(enumerate(draw(coeffs)))))


@settings(max_examples=100, deadline=None)
@given(cyclo_pair())
def test_cyclotomic_field_operations(pair):
    a, b = pair
    one = a.field.from_rational(1)
    assert a * a.inv() == one
    assert (a / b) * b == a
    assert 1 - a == -(a - 1)
    assert 2 / a == 2 * a.inv()
    assert a ** -2 * a ** 2 == one


# -- Rational against fractions.Fraction ------------------------------------------

rational_value = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@st.composite
def rational_operand(draw):
    """(value as a Fraction, the same value as a Rational, int or Fraction)."""
    value = draw(rational_value)
    kinds = [Rational, Fraction] + ([int] if value.denominator == 1 else [])
    return value, draw(st.sampled_from(kinds))(value)


def assert_rational(x, want: Fraction):
    assert type(x) is Rational, repr(x)
    assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
    assert str(x) == str(want)


@settings(max_examples=300, deadline=None)
@given(rational_operand(), rational_operand(), st.integers(-4, 4))
@example((Fraction(2, 3), Rational(Fraction(2, 3))), (Fraction(2, 3), Fraction(2, 3)), -2)
@example((Fraction(0), 0), (Fraction(0), Rational(0)), 3)
def test_rational_matches_the_fraction_oracle(a, b, k):
    (fa, xa), (fb, xb) = a, b
    if type(xa) is not Rational and type(xb) is not Rational:
        xa = Rational(xa)
    x = Rational(fa)
    for got, want in [(xa + xb, fa + fb), (xa - xb, fa - fb), (xa * xb, fa * fb),
                      (-x, -fa), (x + 0, fa), (0 - x, -fa)]:
        assert_rational(got, want)
    if fb:
        assert_rational(xa / xb, fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            xa / xb
    if fa:
        assert_rational(x.inv(), 1 / fa)
        assert_rational(x ** k, fa ** k)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()
        assert_rational(x ** abs(k), fa ** abs(k))
    with pytest.raises(ZeroDivisionError):
        x / 0
    for other in [fb, Rational(fb)] + ([fb.numerator] if fb.denominator == 1 else []):
        assert (x == other) is (fa == fb) and (other == x) is (fa == fb)
        assert (x != other) is (fa != fb) and (other != x) is (fa != fb)
    assert hash(x) == hash(fa) and x in {fa} and fa in {x}
    assert bool(x) is bool(fa)


def test_cyclotomic_domain_specializes_s():
    dom = domain_for(Specialization.cyclotomic(12))
    F = CycloField(12)
    assert dom.s_power(4) + dom.s_power(-4) == F.zeta(4) + F.zeta(8)
    # q = zeta_3 so beta = -q - q^-1 = 1
    assert dom.beta == F.from_rational(1)


# -- Q(zeta_N) against a dense schoolbook oracle --------------------------------


def dense_reduce(p: list, N: int) -> list:
    """p (index = exponent, any length) reduced modulo Phi_N by long
    division, padded to phi(N) coefficients."""
    phi = dense_phi(N)
    d = len(phi) - 1
    p = list(p)
    for top in range(len(p) - 1, d - 1, -1):
        c = p[top]
        if c:
            for i, f in enumerate(phi):
                p[top - d + i] -= c * f
    return (p + [0] * d)[:d]


def dense_mul(a: list, b: list, N: int) -> list:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_reduce(out, N)


def dense_str(p: list) -> str:
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        mono = "" if i == 0 else "z" if i == 1 else f"z^{i}"
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mono if c == 1 else "-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def assert_normal_form(x: CycloElement):
    assert all(0 <= i < x.field.degree for i in x.terms), x.terms
    for c in x.terms.values():
        assert c, x.terms
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), x.terms


@st.composite
def cyclo_operand(draw, N: int) -> list:
    """Unreduced dense coefficients of zero, c*zeta^k (k < N), a binomial, or
    a dense element with Fraction coefficients."""
    F = CycloField(N)
    kind = draw(st.sampled_from(("zero", "monomial", "binomial", "dense")))
    p = [0] * N
    if kind in ("monomial", "binomial"):
        for _ in range(1 if kind == "monomial" else 2):
            c = draw(st.sampled_from((1, -1, 2)) | coeff.filter(bool))
            p[draw(st.integers(0, N - 1))] += c
    elif kind == "dense":
        p[:F.degree] = draw(st.lists(coeff, min_size=F.degree, max_size=F.degree))
    return p


@st.composite
def cyclo_operands(draw):
    N = draw(st.sampled_from(CYCLO_ORDERS))
    return N, draw(cyclo_operand(N)), draw(cyclo_operand(N))


@settings(max_examples=200, deadline=None)
@given(cyclo_operands())
def test_cyclotomic_arithmetic_matches_the_dense_oracle(operands):
    N, pa, pb = operands
    F = CycloField(N)
    da, db = dense_reduce(pa, N), dense_reduce(pb, N)
    a, b = CycloElement(F, dict(enumerate(da))), CycloElement(F, dict(enumerate(db)))
    for x, p in [(a, pa), (b, pb)]:
        # the same element built from powers of zeta
        assert sum((c * F.zeta(k) for k, c in enumerate(p) if c), F.from_rational(0)) == x
    results = [
        (a, da),
        (a + b, [x + y for x, y in zip(da, db)]),
        (a - b, [x - y for x, y in zip(da, db)]),
        (-a, [-x for x in da]),
        (a * b, dense_mul(da, db, N)),
        (b * a, dense_mul(db, da, N)),
        (a * a, dense_mul(da, da, N)),
    ]
    if any(da):
        ai = a.inv()
        assert dense_mul(da, dense_coeffs(ai), N) == dense_reduce([1], N)
        results.append((ai, dense_coeffs(ai)))
    for x, p in results:
        assert_normal_form(x)
        assert dense_coeffs(x) == list(p)
        assert str(x) == dense_str(p)
        assert x == CycloElement(F, dict(enumerate(p)))
        assert hash(x) == hash(CycloElement(F, dict(enumerate(p))))
        if not any(p[1:]):
            # a rational value compares and hashes as that rational
            assert x == p[0] and hash(x) == hash(p[0])
    assert (a == b) == (da == db)
    assert (a != b) == (da != db)


def test_sparse_normal_form_and_reduction_rows():
    F = CycloField(32)
    assert len(F._rows) == F.degree - 1
    assert all(len(row) == 1 for row in F._rows)
    for N in (16, 24):
        assert all(1 <= len(row) <= 2 for row in CycloField(N)._rows)
    assert (F.zeta(5) * F.zeta(20)).terms == {9: -1}
    assert len(domain_for(Specialization.parse("root:4")).beta.terms) == 2
    assert F.from_rational(0).terms == {} and F.from_rational(1).terms == {0: 1}


def test_element_constructor_takes_the_stored_sparse_form():
    F = CycloField(12)
    x = CycloElement(F, {0: Fraction(4, 2), 1: 0, 3: Fraction(1, 3)})
    assert x.terms == {0: 2, 3: Fraction(1, 3)} and type(x.terms[0]) is int
    assert x == 2 + F.zeta(3) / 3
    assert CycloElement(F, {}) == F.from_rational(0)
    for bad in (-1, F.degree, F.N):
        with pytest.raises(ValueError, match="exponent"):
            CycloElement(F, {bad: 1})


@pytest.mark.parametrize("N", CYCLO_ORDERS)
def test_zeta_powers_are_iterated_products(N):
    F = CycloField(N)
    z, power = F.zeta(), F.from_rational(1)
    for k in range(2 * N):
        x = F.zeta(k)
        assert x == power, (k, x, power)
        assert dense_coeffs(x) == dense_reduce([0] * k + [1], N)
        assert F.zeta(-k) == x.inv()
        assert_normal_form(x)
        power = power * z
    assert power == F.from_rational(1)


def test_rational_values_hash_as_rationals():
    s = Scalar.s_power(1)
    for r in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        samples = [Scalar(r), Scalar.from_rational(r), (s + r) - s, (r * s) / s]
        samples += [CycloField(N).from_rational(r) for N in CYCLO_ORDERS]
        samples += [CycloField(N).zeta(3) * r * CycloField(N).zeta(-3) for N in CYCLO_ORDERS]
        for x in samples:
            assert x == r and hash(x) == hash(r), repr(x)
            assert x in {r} and r in {x}
    assert hash(Scalar(Fraction(6, 3))) == hash(2)
    # q = e^{i pi/3}: beta = -q - q^-1 = -1, found by arithmetic in Q(zeta_24)
    beta = domain_for(Specialization.parse("root:3")).beta
    assert beta == -1 and hash(beta) == hash(-1)
