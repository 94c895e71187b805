"""Spectral-parameter faces: Yang-Baxter, inversion, boundary reflection,
and commuting transfer matrices for all three families."""

import pytest

from tlcat import scalar
from tlcat.diagram import dilute_diagram
from tlcat.integrable import (
    face,
    spectral_power,
    transfer_matrix,
    verify_boundary_ybe,
    verify_integrable_suite,
    verify_inversion,
    verify_spectral_identities,
    verify_transfer_commute,
    verify_ybe,
)
from tlcat.morphism import Morphism, dilute_end2, identity
from tlcat.scalar import Scalar


def _scalar(text_exponents):
    s, u = text_exponents
    return Scalar.s_power(s) * Scalar.var_power("u", u)


def test_ordinary_face_definition():
    from tlcat.morphism import t, t_inv

    x = face(1, 2)
    got = x("u")
    expected = t(1, 2).scale(Scalar.s_power(2) * Scalar.var_power("u", -1)) \
        - t_inv(1, 2).scale(Scalar.s_power(-2) * Scalar.var_power("u", 1))
    assert got == expected


def test_spectral_identities():
    for family in ("ordinary", "dilute-braid"):
        rep = verify_spectral_identities(family)
        assert rep.ok, rep.failures()[:2]


def test_ybe_all_families():
    assert verify_ybe("ordinary").ok
    assert verify_ybe("dilute-braid").ok
    assert verify_ybe("dilute-IK").ok


def test_ik_weights_are_built_once(monkeypatch):
    # two dilute-IK Yang-Baxter runs call the five-term face 24 times and
    # build its weights once; the shared weights cannot be modified
    import tlcat.integrable

    built = []
    monkeypatch.setattr(tlcat.integrable, "dilute_end2",
                        lambda *a: built.append(a) or dilute_end2(*a))
    tlcat.integrable._ik_weights.cache_clear()
    assert verify_ybe("dilute-IK").ok and verify_ybe("dilute-IK").ok
    assert len(built) == 5
    info = tlcat.integrable._ik_weights.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 23, 1)
    for weight in tlcat.integrable._ik_weights():
        with pytest.raises(TypeError):
            weight.terms[next(iter(weight.terms))] = Scalar.from_rational(0)


def test_ordinary_inversion_scalar():
    x = face(1, 2)
    prod = x("u") * x("1/u")
    rho = Scalar.s_power(8) + Scalar.s_power(-8) \
        - Scalar.var_power("u", 2) - Scalar.var_power("u", -2)
    assert prod == identity(2).scale(rho)


def test_inversion_reports():
    for family in ("ordinary", "dilute-braid", "dilute-IK"):
        rep = verify_inversion(family)
        assert rep.ok, rep.failures()[:2]


def test_dilute_braid_inversion_defect():
    # the dilute two-term crossing is NOT a scalar times the identity:
    # the defect lands entirely on the fully-occupied parallel diagram
    from tlcat.morphism import dilute_identity

    x = face(1, 2, "dilute-braid")
    prod = x("u") * x("1/u")
    scalar = Scalar.s_power(4) + Scalar.s_power(-4) \
        - Scalar.var_power("u", 2) - Scalar.var_power("u", -2)
    defect = Scalar.s_power(8) - Scalar.s_power(4) - Scalar.s_power(-4) \
        + Scalar.s_power(-8)
    from tlcat.morphism import Morphism
    expected = dilute_identity(2).scale(scalar) + \
        Morphism.from_diagram(dilute_diagram("parallel")).scale(defect)
    assert prod == expected


def test_boundary_ybe():
    for family in ("ordinary", "dilute-braid", "dilute-IK"):
        rep = verify_boundary_ybe(family)
        assert rep.ok, rep.failures()[:2]


def test_boundary_ybe_composes_no_end4_pair(monkeypatch):
    # each side is X_2(u) (X_k(v) boundary): every product acts on Hom(0,4),
    # where multiplying left to right composed 18 End(4) pairs
    shapes = []
    compose = Morphism.compose

    def recording(self, other):
        shapes.append((self.dst, self.src, other.dst, other.src))
        return compose(self, other)

    monkeypatch.setattr(Morphism, "compose", recording)
    for family in ("ordinary", "dilute-braid", "dilute-IK"):
        assert verify_boundary_ybe(family).ok
    assert shapes and all(src == 0 for *_, src in shapes)
    assert (4, 4, 4, 4) not in shapes


def test_dilute_ik_suite_gcd_work(monkeypatch):
    # a product cancels only the cross factors of its canonical operands, and
    # a single-term s-slice is a unit: the suite takes about 400 gcds, where
    # reducing each whole product took 2,645
    calls = []
    gcd = scalar._u_gcd
    monkeypatch.setattr(scalar, "_u_gcd", lambda a, b: calls.append(None) or gcd(a, b))
    assert verify_integrable_suite("dilute-IK").ok
    assert len(calls) <= 600


def test_transfer_shapes_and_commutation():
    d2 = transfer_matrix(2)
    assert d2.dst == d2.src == 2
    for n in (2, 3):
        rep = verify_transfer_commute(n)
        assert rep.ok, rep.failures()[:1]


def test_spectral_power_parsing():
    assert spectral_power("u")(1) * spectral_power("1/u")(1) == \
        Scalar.from_rational(1)
    assert spectral_power("v/u")(2) == \
        spectral_power("v")(2) * spectral_power("1/u")(2)
