"""Morphism algebra details not covered by the relation suites."""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlcat import braid, twist
from tlcat.diagram import (
    Diagram,
    _compose_cached,
    e_diagram,
    enumerate_diagrams,
    identity_diagram,
)
from tlcat.integrable import _boundary, transfer_matrix
from tlcat.morphism import (
    GENERIC,
    CoeffDomain,
    Morphism,
    big_cup,
    cups,
    dilute_eta11,
    domain_for,
    e,
    identity,
    on_strands,
    t,
)
from tlcat.scalar import Scalar, Specialization


def test_tensor_drops_cancelled_terms(monkeypatch):
    # diagram tensor is injective, so force two products onto one diagram
    dom = domain_for(Specialization.rational(Fraction(5, 3)))
    a, b = enumerate_diagrams(2, 2)
    f = Morphism(2, 2, {a: Fraction(1), b: Fraction(-1)}, dom=dom)
    g = Morphism.from_diagram(a, dom)
    target = enumerate_diagrams(4, 4)[0]
    monkeypatch.setattr(Diagram, "tensor", lambda self, other: target)
    prod = f.tensor(g)
    assert prod.terms == {}
    assert prod.is_zero


def test_morphism_is_unhashable():
    # its terms dict is mutable, so it cannot key a cache
    with pytest.raises(TypeError):
        hash(e(1, 2))


class _CountingOne:
    """A unit coefficient that counts every multiplication it enters."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(other)
        return other

    __rmul__ = __mul__

    def __bool__(self):
        return True


def test_compose_skips_unit_factors():
    log = []
    dom = CoeffDomain(Specialization.rational(Fraction(5, 3)))
    dom.one = _CountingOne(log)
    e1 = Morphism.from_diagram(e_diagram(1, 3), dom)
    e2 = Morphism.from_diagram(e_diagram(2, 3), dom)
    # no loop: the product of the two units is the unit itself
    prod = e1.compose(e2)
    ((d, c),) = prod.terms.items()
    assert c is dom.one
    assert (d, 0) == e_diagram(1, 3).compose(e_diagram(2, 3))
    # one loop: the coefficient is beta itself
    assert e1.compose(e1).terms == {e_diagram(1, 3): dom.beta}
    # a non-unit factor is taken as it is
    t1 = t(1, 3, dom)
    assert t1.compose(e1).terms == {e_diagram(1, 3): dom.s_power(2) + dom.s_power(-2) * dom.beta}
    # tensor skips the unit in the same way
    ((d, c),) = e1.tensor(e2).terms.items()
    assert c is dom.one
    assert d == e_diagram(1, 3).tensor(e_diagram(2, 3))
    i1 = identity_diagram(1)
    one1 = Morphism.from_diagram(i1, dom)
    assert one1.tensor(t1).terms == {i1.tensor(d): c for d, c in t1.terms.items()}
    assert t1.tensor(one1).terms == {d.tensor(i1): c for d, c in t1.terms.items()}
    # a dilute crossing placed on strands tensors with the dilute identity
    assert len(on_strands(dilute_eta11(dom), 2, 3).terms) == 10
    assert log == []


def _bilinear_sum(f, g):
    """The plain bilinear extension of diagram gluing: one product per pair."""
    dom = f.dom
    out = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            glued = d1.compose(d2)
            if glued is None:
                continue
            d, loops = glued
            out[d] = out.get(d, dom.zero) + c1 * c2 * dom.beta_power(loops)
    return Morphism(f.dst, g.src, out, f.dilute, dom)


def _random_morphism(rng, dst, src, dilute, dom):
    diagrams = enumerate_diagrams(src, dst, dilute)
    terms = {}
    for d in rng.sample(diagrams, min(len(diagrams), 6)):
        k = rng.choice((0, 0, 1, 2, 3))
        terms[d] = dom.one if k == 0 else dom.s_power(rng.randint(-4, 4)) * k
    return Morphism(dst, src, terms, dilute, dom)


@pytest.mark.parametrize("spec", ["generic", "rational:5/3", "root:3"])
def test_compose_matches_the_bilinear_sum(spec):
    dom = domain_for(Specialization.parse(spec))
    rng = random.Random(spec)
    seen = {"loops": 0, "annihilated": 0}
    for dilute in (False, True):
        for dst, mid, src in ((2, 2, 2), (3, 3, 3), (1, 3, 1), (2, 4, 2), (4, 2, 2), (0, 4, 0)):
            for _ in range(3):
                f = _random_morphism(rng, dst, mid, dilute, dom)
                g = _random_morphism(rng, mid, src, dilute, dom)
                prod = f.compose(g)
                assert prod == _bilinear_sum(f, g)
                assert all(prod.terms.values())
                for d1 in f.terms:
                    for d2 in g.terms:
                        glued = d1.compose(d2)
                        seen["annihilated"] += glued is None
                        seen["loops"] += bool(glued and glued[1])
    assert seen["loops"] and seen["annihilated"]
    # e_1 (beta 1 - e_1): both right terms glue onto e_1, e_1 e_1 with a
    # loop, so their group sums to zero
    e1, one2 = e_diagram(1, 2), identity_diagram(2)
    left = Morphism(2, 2, {e1: dom.s_power(3) * 2}, dom=dom)
    right = Morphism(2, 2, {one2: dom.beta, e1: -dom.one}, dom=dom)
    assert left.compose(right).terms == {}
    assert _bilinear_sum(left, right).is_zero
    # a cancelling group beside a surviving one
    left = Morphism(2, 2, {e1: dom.s_power(1), one2: dom.s_power(-1)}, dom=dom)
    prod = left.compose(right)
    assert prod == _bilinear_sum(left, right)
    assert prod.terms == {one2: dom.s_power(-1) * dom.beta, e1: -dom.s_power(-1)}


def _pairwise_oracle(f, g):
    """f after g as the sum of c1 * c2 * beta^loops over every pair of
    terms, glued by the uncached kernel."""
    glue = _compose_cached.__wrapped__
    dom = f.dom
    out = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            glued = glue(d1, d2)
            if glued is None:
                continue
            d, loops = glued
            c = c1 * c2
            for _ in range(loops):
                c = c * dom.beta
            out[d] = out.get(d, dom.zero) + c
    return Morphism(f.dst, g.src, out, f.dilute, dom)


# (dst, mid, src): loops and, on dilute strands, annihilation, with up to
# 14 diagrams on a side
_SHAPES = {False: ((3, 3, 3), (2, 4, 2), (4, 4, 4), (6, 2, 6)),
           True: ((2, 2, 2), (1, 3, 1), (3, 1, 3), (2, 2, 0))}


@st.composite
def _operand(draw, dst, src, dilute, dom):
    pool = enumerate_diagrams(src, dst, dilute)
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    terms = {}
    for d in picks:
        k = draw(st.sampled_from((1, -1, 2, 3)))
        e = draw(st.integers(-4, 4))
        terms[d] = dom.one if (k, e) == (1, 0) else dom.s_power(e) * k
    return Morphism(dst, src, terms, dilute, dom)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(("generic", "rational:5/3", "root:3")), st.booleans())
def test_compose_matches_the_pairwise_oracle(data, spec, dilute):
    # 1-6 terms a side in either size order, so both operands take turns
    # being the side whose coefficients are factored out
    dom = domain_for(Specialization.parse(spec))
    dst, mid, src = data.draw(st.sampled_from(_SHAPES[dilute]))
    f = data.draw(_operand(dst, mid, dilute, dom))
    g = data.draw(_operand(mid, src, dilute, dom))
    prod = f.compose(g)
    assert prod == _pairwise_oracle(f, g)
    assert all(prod.terms.values())


def test_transfer_product_multiplies_each_left_coefficient_once_per_result(monkeypatch):
    du = transfer_matrix(4, "ordinary", "u")
    dv = transfer_matrix(4, "ordinary", "v")
    left = {id(c) for c in du.terms.values() if c is not du.dom.one}
    pairs = {
        (d1, d1.compose(d2)[0]) for d1 in du.terms for d2 in dv.terms
    }
    assert len(pairs) == 64
    expected = _bilinear_sum(du, dv)
    calls = []
    mul = Scalar.__mul__

    def counting_mul(self, other):
        if id(self) in left or id(other) in left:
            calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    prod = du.compose(dv)
    monkeypatch.undo()
    assert 0 < len(calls) <= len(pairs)
    assert prod == expected


S0 = Fraction(19, 23)


def _dom():
    return domain_for(Specialization.rational(S0))


# per cached builder: the positional call and two keyword forms of it
CALL_FORMS = {
    "commutor": (
        braid.commutor,
        lambda f: f(2, 1, "left-nested", _dom(), False),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(s=1, r=2, dilute=False, dom=_dom()),
    ),
    "commutor_inverse": (
        braid.commutor_inverse,
        lambda f: f(2, 1, _dom(), False),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(r=2, s=1, dom=_dom(), dilute=False),
    ),
    "double_braiding": (
        braid.double_braiding,
        lambda f: f(2, 1, _dom()),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(n=1, m=2, dom=_dom()),
    ),
}
for _name in ("twist_element", "twist_inverse"):
    CALL_FORMS[_name] = (
        getattr(twist, _name),
        lambda f: f(3, _dom()),
        lambda f: f(3, dom=_dom()),
        lambda f: f(n=3, dom=_dom()),
    )


@pytest.mark.parametrize("name", sorted(CALL_FORMS))
def test_structural_morphism_cache(name):
    builder, positional, *keyword_forms = CALL_FORMS[name]
    m = positional(builder)
    info = builder.cache_info()
    assert isinstance(info.maxsize, int) and 0 < info.maxsize <= 256
    for form in keyword_forms:
        assert form(builder) is m
    after = builder.cache_info()
    assert after.misses == info.misses
    assert after.hits == info.hits + len(keyword_forms)
    assert after.currsize == info.currsize
    # the cached morphism is the uncached one, and read-only
    assert m == positional(builder.__wrapped__)
    d = next(iter(m.terms))
    with pytest.raises(TypeError):
        m.terms[d] = m.terms[d]
    with pytest.raises(TypeError):
        del m.terms[d]
    assert positional(builder) is m


def test_cached_builder_binds_without_inspect():
    before = braid.commutor.cache_info()
    forms = (
        braid.commutor(2, 3),
        braid.commutor(2, 3, "left-nested"),
        braid.commutor(r=2, s=3, dom=GENERIC),
        braid.commutor(2, 3, dilute=False),
    )
    assert all(m is forms[0] for m in forms)
    after = braid.commutor.cache_info()
    # one entry for all four forms: at most one miss, the rest hits
    assert after.misses - before.misses <= 1
    assert after.currsize - before.currsize == after.misses - before.misses
    assert (after.hits + after.misses) - (before.hits + before.misses) == 4
    for call in (
        lambda: braid.commutor(2),
        lambda: braid.commutor(s=3),
        lambda: braid.commutor(2, 3, bogus=1),
        lambda: braid.commutor(2, 3, r=2),
        lambda: braid.commutor(2, 3, "left-nested", GENERIC, False, None),
    ):
        with pytest.raises(TypeError):
            call()
    assert braid.commutor.cache_info().currsize == after.currsize
    # perfbench's tracer reads the builder's signature through functools.wraps
    assert list(inspect.signature(braid.commutor).parameters) == [
        "r", "s", "form", "dom", "dilute"]


@pytest.mark.parametrize("spec", ["generic", "rational:5/3"])
def test_cups_is_the_tensor_power_of_the_cup(spec):
    dom = domain_for(Specialization.parse(spec))
    power = identity(0, dom=dom)
    for p in range(4):
        assert cups(p, dom) == power
        power = power.tensor(big_cup(1, dom))
    # the ordinary Yang-Baxter boundary is z^2
    assert _boundary("ordinary") == cups(2)
