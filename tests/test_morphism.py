"""Morphism algebra details not covered by the relation suites."""

from fractions import Fraction

import pytest

from tlcat import braid, twist
from tlcat.diagram import Diagram, e_diagram, enumerate_diagrams
from tlcat.morphism import CoeffDomain, Morphism, domain_for, t
from tlcat.scalar import Specialization


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
    assert d == e_diagram(1, 3).compose(e_diagram(2, 3)).diagram
    # one loop: the coefficient is beta itself
    assert e1.compose(e1).terms == {e_diagram(1, 3): dom.beta}
    # a non-unit factor is taken as it is
    t1 = t(1, 3, dom)
    assert t1.compose(e1).terms == {e_diagram(1, 3): dom.s_power(2) + dom.s_power(-2) * dom.beta}
    assert log == []


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
