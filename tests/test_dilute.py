"""Dilute diagrams, the two-term braiding element, and its suite."""

from tlcat.braid import commutor, commutor_inverse
from tlcat.diagram import dilute_diagram, enumerate_diagrams
from tlcat.dilute import verify_dilute_braiding
from tlcat.morphism import GENERIC, dilute_eta11, dilute_eta11_inverse, dilute_identity, t, t_inv
from tlcat.scalar import Scalar


def test_end2_has_nine_diagrams():
    assert len(enumerate_diagrams(2, 2, dilute=True)) == 9


def test_named_diagrams():
    assert dilute_diagram("parallel").pairs() == ((1, 4), (2, 3))
    assert dilute_diagram("vacant").pairs() == ()
    assert dilute_diagram("cupcap").pairs() == ((1, 2), (3, 4))


def test_eta11_coefficients():
    eta = dilute_eta11()
    assert eta.terms[dilute_diagram("parallel")] == Scalar.s_power(2)
    assert eta.terms[dilute_diagram("cupcap")] == Scalar.s_power(-2)
    for name in ("diag-down", "diag-up", "vacant"):
        assert eta.terms[dilute_diagram(name)] == Scalar.from_rational(1)
    assert len(eta.terms) == 5


def test_eta11_inverse():
    eta, inv = dilute_eta11(), dilute_eta11_inverse()
    assert eta.compose(inv) == dilute_identity(2)
    assert inv.compose(eta) == dilute_identity(2)


def test_constraint_equations():
    # a1^2 + a1 a5 beta + a5^2 = 0 and a2^2 = a3^2 = a4^2 = a1 a5
    a1, a5 = Scalar.s_power(2), Scalar.s_power(-2)
    one = Scalar.from_rational(1)
    assert a1 * a1 + a1 * a5 * GENERIC.beta + a5 * a5 == Scalar.from_rational(0)
    assert one * one == a1 * a5


def test_dilute_identity_is_occupation_sum():
    # 2^n occupation sectors
    assert len(dilute_identity(1).terms) == 2
    assert len(dilute_identity(2).terms) == 4
    assert len(dilute_identity(3).terms) == 8


def test_dilute_crossings_invertible():
    for n in (2, 3):
        for i in range(1, n):
            assert t(i, n, dilute=True).compose(t_inv(i, n, dilute=True)) == \
                dilute_identity(n)


def test_dilute_commutor_invertible():
    for r, s in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        eta = commutor(r, s, dilute=True)
        inv = commutor_inverse(r, s, dilute=True)
        assert eta.compose(inv) == dilute_identity(r + s)


def test_dilute_suite():
    rep = verify_dilute_braiding(3, samples=25, seed=0)
    assert rep.ok, rep.failures()[:3]
