"""Morphism algebra details not covered by the relation suites."""

from fractions import Fraction

from tlcat.diagram import Diagram, enumerate_diagrams
from tlcat.morphism import Morphism, domain_for
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
