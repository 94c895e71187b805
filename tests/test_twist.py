"""Twist element: centrality, the twist condition, naturality, cyclic
rotation identities, and eigenvalues on standard modules."""

from fractions import Fraction
from math import comb

import pytest

from tlcat.morphism import CoeffDomain, Morphism, domain_for, e, identity, t, t_inv, word
from tlcat.scalar import Scalar, Specialization
from tlcat.standard import NotScalarAction, StandardModule, eigenvalue_on_standard
from tlcat.twist import (
    e0,
    en,
    gamma_eigenvalue,
    twist_element,
    twist_element_reversed,
    twist_inverse,
    verify_centrality,
    verify_cyclic_lemma,
    verify_det_t1,
    verify_gamma_consistency,
    verify_twist_axiom,
    verify_twist_naturality_exhaustive,
)

from scalar_oracle import q_power


def test_twist_small_explicit():
    # c_0 = empty identity, c_1 = q^{3/2} 1 (single strand, no crossings)
    assert twist_element(0) == identity(0)
    assert twist_element(1) == identity(1).scale(Scalar.s_power(6))
    # c_2 = q^3 (t_1)^2
    assert twist_element(2) == (t(1, 2) * t(1, 2)).scale(Scalar.s_power(12))


def test_twist_words_are_explicit_rotation_powers():
    # rho_n = t_1 ... t_{n-1} and lambda_n = t_{n-1} ... t_1, written out
    # here rather than taken from the commutors the twist is built from
    for n in range(0, 6):
        up, down = list(range(1, n)), list(range(n - 1, 0, -1))
        rho = word([t(i, n) for i in up], n)
        lam = word([t(i, n) for i in down], n)
        rho_inv = word([t_inv(i, n) for i in down], n)
        lam_inv = word([t_inv(i, n) for i in up], n)
        q32n = Scalar.s_power(6 * n)
        assert twist_element(n) == word([rho] * n, n).scale(q32n)
        assert twist_element_reversed(n) == word([lam] * n, n).scale(q32n)
        assert twist_inverse(n) == word([rho_inv] * n, n).scale(Scalar.s_power(-6 * n))
        if n >= 2:
            assert en(n) == rho * e(n - 1, n) * rho_inv
            assert e0(n) == lam * e(1, n) * lam_inv


def test_centrality_and_inverse():
    for n in (2, 3, 4):
        assert verify_centrality(n).ok
        assert twist_element(n) * twist_inverse(n) == identity(n)


@pytest.mark.parametrize("n", [5, 6])
def test_centrality_composes_no_two_dense_morphisms(monkeypatch, n):
    # c_n c_n^-1 takes the inverse letters one at a time, so every product
    # verify_centrality makes has a crossing or an e_i as one factor
    smaller = []
    compose = Morphism.compose

    def recording(self, other):
        smaller.append(min(len(self.terms), len(other.terms)))
        return compose(self, other)

    monkeypatch.setattr(Morphism, "compose", recording)
    monkeypatch.setattr(Morphism, "__mul__", recording)
    assert verify_centrality(n).ok
    assert smaller and max(smaller) <= 2


@pytest.mark.parametrize("spec", ["rational:5/3", "root:3"])
def test_twist_inverse_at_points(spec):
    dom = domain_for(Specialization.parse(spec))
    for n in range(0, 6):
        assert twist_inverse(n, dom).compose(twist_element(n, dom)) == identity(n, dom=dom)


def test_twist_is_built_from_crossing_times_dense_products(compose_calls):
    # c_6 is one word of n(n-1) = 30 crossings, and a crossing (two terms)
    # times a dense morphism of End(6) takes at most 2 Catalan(6) diagram
    # compositions; a power of rho_6 by squaring takes about 20,000.  The
    # point 31/17 is used nowhere else, so no cached twist is reused.
    dom = CoeffDomain(Specialization.rational(Fraction(31, 17)))
    n = 6
    c6 = twist_element(n, dom)
    catalan = comb(2 * n, n) // (n + 1)
    assert len(c6.terms) == catalan
    assert len(compose_calls) <= 2 * n * (n - 1) * catalan


def test_twist_condition():
    assert verify_twist_axiom(4).ok


def test_both_product_orders_agree():
    for n in range(0, 5):
        assert twist_element(n) == twist_element_reversed(n)


def test_naturality():
    assert verify_twist_naturality_exhaustive(4).ok


def test_cyclic_lemma():
    for n in (2, 3, 4):
        assert verify_cyclic_lemma(n).ok


def test_gamma_on_standard_modules():
    # independent oracle: act the central element on each standard module
    # and read off the scalar
    for n in range(1, 6):
        for k in range(n % 2, n + 1, 2):
            module = StandardModule(n, k)
            if module.dim == 0:
                continue
            got = eigenvalue_on_standard(twist_element(n), module)
            assert got == gamma_eigenvalue(k)
            assert got == q_power(  # q^{k(k+2)/2}
                __import__("fractions").Fraction(k * (k + 2), 2))
    assert verify_gamma_consistency(5).ok


@pytest.mark.parametrize("raised", [NotScalarAction, TypeError])
def test_gamma_consistency_records_only_a_non_scalar_action(raised, monkeypatch):
    # a non-scalar action fails exactly its own case, with the error as its
    # witness; any other exception is a fault in the program and propagates
    right = eigenvalue_on_standard

    def faulty(central, module):
        if (module.n, module.k) == (3, 1):
            raise raised("planted")
        return right(central, module)

    monkeypatch.setattr("tlcat.twist.eigenvalue_on_standard", faulty)
    if raised is TypeError:
        with pytest.raises(TypeError, match="planted"):
            verify_gamma_consistency(4)
        return
    rep = verify_gamma_consistency(4)
    assert [(c["params"], c.get("witness")) for c in rep.failures()] == [
        ({"n": 3, "k": 1}, {"error": "planted"})]
    assert len(rep.cases) == 9


def test_gamma_example():
    # the n = 4, k = 2 module has central eigenvalue q^4 = s^16
    assert gamma_eigenvalue(2) == Scalar.s_power(16)


def test_det_t1():
    assert verify_det_t1(4).ok
