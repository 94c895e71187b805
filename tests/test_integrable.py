"""Spectral-parameter faces: Yang-Baxter, inversion, boundary reflection,
and commuting transfer matrices for all three families."""

import pytest

from tlcat import scalar
from tlcat.diagram import dilute_diagram
from tlcat.integrable import (
    FaceOperator,
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
from tlcat.morphism import Morphism, dilute_end2, identity, on_strands, t, t_inv
from tlcat.scalar import Scalar

FAMILIES = ("ordinary", "dilute-braid", "dilute-IK")


def _scalar(text_exponents):
    s, u = text_exponents
    return Scalar.s_power(s) * Scalar.var_power("u", u)


def test_ordinary_face_definition():
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
    # build its weights once; the shared weights cannot be modified, and the
    # cache holds the weights of all three families
    import tlcat.integrable

    built = []
    monkeypatch.setattr(tlcat.integrable, "dilute_end2",
                        lambda *a: built.append(a) or dilute_end2(*a))
    tlcat.integrable._face_weights.cache_clear()
    assert verify_ybe("dilute-IK").ok and verify_ybe("dilute-IK").ok
    assert len(built) == 5
    info = tlcat.integrable._face_weights.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 23, 3)
    for family in FAMILIES:
        for _, weight in tlcat.integrable._face_weights(family):
            with pytest.raises(TypeError):
                weight.terms[next(iter(weight.terms))] = Scalar.from_rational(0)
    assert tlcat.integrable._face_weights.cache_info().currsize == 3


def _unshared_face(i, n, family, arg):
    """The face as it was built before the weights were shared: the two
    crossing families from t_i and t_i^-1 on all n strands, the five-term
    family from its End(2) weights, each built afresh."""
    upow = spectral_power(arg)
    sp, one = Scalar.s_power, Scalar.from_rational(1)
    if family != "dilute-IK":
        dilute = family == "dilute-braid"
        return (t(i, n, dilute=dilute).scale(sp(2) * upow(-1))
                - t_inv(i, n, dilute=dilute).scale(sp(-2) * upow(1)))

    def y(sign):
        pref = (-one * sp(3 * sign)) * (((sp(2) - sp(-2)) * (sp(3) - sp(-3))).inv())
        return dilute_end2({"parallel": -sp(2 * sign), "cupcap": -sp(-2 * sign),
                            "diag-down": one, "diag-up": one, "vacant": one}).scale(pref)

    def w(sign):
        pref = (sp(3) - sp(-3)).inv()
        if sign < 0:
            pref = -pref
        return dilute_end2({"bottom-line": sp(3 * sign), "top-line": sp(3 * sign),
                            "left-cup": -one, "right-cap": -one}).scale(pref)

    zmid = dilute_end2({
        "vacant": sp(4) - one + sp(-4), "parallel": -one, "cupcap": -one,
        "diag-down": sp(2) - one + sp(-2), "diag-up": sp(2) - one + sp(-2),
    }).scale(((sp(1) - sp(-1)) * (sp(3) - sp(-3))).inv())
    local = (y(1).scale(upow(-2)) + w(1).scale(upow(-1)) + zmid
             + w(-1).scale(upow(1)) + y(-1).scale(upow(2)))
    return on_strands(local, i, n)


@pytest.mark.parametrize("family", FAMILIES)
def test_faces_match_the_unshared_construction(family):
    # every face is sum_k u^k W_k on strands i, i+1, equal to the face built
    # the old way, and read-only like every morphism
    for n in range(2, 6):
        for i in range(1, n):
            for arg in ("u", "v", "1/u", "v/u", (0, 0, 0), (1, -1, 1)):
                got = face(i, n, family)(arg)
                assert got == _unshared_face(i, n, family, arg), (i, n, arg)
                with pytest.raises(TypeError):
                    got.terms[next(iter(got.terms))] = Scalar.from_rational(0)


def test_unknown_face_family_is_refused():
    with pytest.raises(ValueError, match="unknown face family"):
        face(1, 2, "dilute")
    with pytest.raises(ValueError, match="unknown face family"):
        FaceOperator(1, 2, "dilute")("u")


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
    x = face(1, 2, "dilute-braid")
    prod = x("u") * x("1/u")
    scalar = Scalar.s_power(4) + Scalar.s_power(-4) \
        - Scalar.var_power("u", 2) - Scalar.var_power("u", -2)
    defect = Scalar.s_power(8) - Scalar.s_power(4) - Scalar.s_power(-4) \
        + Scalar.s_power(-8)
    expected = identity(2, True).scale(scalar) + \
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

    # f * g is the same function as f.compose(g): record both names
    monkeypatch.setattr(Morphism, "compose", recording)
    monkeypatch.setattr(Morphism, "__mul__", recording)
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


@pytest.mark.parametrize("family", ["dilute-braid", "dilute-IK"])
def test_only_the_ordinary_family_has_a_transfer_matrix(family):
    # the cup and cap closing the auxiliary strands are ordinary, so a
    # dilute family once failed deep inside compose
    with pytest.raises(ValueError, match=f"{family!r}: only 'ordinary' has one"):
        transfer_matrix(2, family)


@pytest.mark.parametrize("call", [
    lambda: spectral_power("x"),
    lambda: face(1, 2)("x"),
    lambda: transfer_matrix(2, "ordinary", "x"),
], ids=["spectral-power", "face", "transfer-matrix"])
def test_unknown_spectral_argument_is_refused(call):
    # once a bare KeyError: 'x'
    with pytest.raises(ValueError, match=r"'x': name one of u, v, w, 1/u, v/u or give an "
                                         r"exponent triple"):
        call()


def test_spectral_power_parsing():
    assert spectral_power("u")(1) * spectral_power("1/u")(1) == \
        Scalar.from_rational(1)
    assert spectral_power("v/u")(2) == \
        spectral_power("v")(2) * spectral_power("1/u")(2)
