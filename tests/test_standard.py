"""Standard modules, the regular module, projectors, and rigidity."""

import math
import random

import pytest

import tlcat.standard as standard
from tlcat.diagram import enumerate_diagrams
from tlcat.fusion import FusedModule
from tlcat.linalg import mat_mul
from tlcat.morphism import GENERIC, Morphism, domain_for, e, identity
from tlcat.scalar import PoleAtSpecialization, Scalar, Specialization
from tlcat.standard import (
    NotScalarAction,
    RegularModule,
    StandardModule,
    act,
    annihilated_line_dimension,
    eigenvalue_on_standard,
    standard_dimension,
    verify_rigidity,
    wenzl_jones,
)

from matrix_forms import dense


def dim_oracle(n: int, k: int) -> int:
    # binomial difference formula
    p = (n - k) // 2
    return math.comb(n, p) - math.comb(n, p - 1) if p >= 1 else math.comb(n, p)


def test_dimensions():
    for n in range(0, 9):
        for k in range(n % 2, n + 1, 2):
            assert standard_dimension(n, k) == dim_oracle(n, k)
            assert StandardModule(n, k).dim == dim_oracle(n, k) if n <= 7 else True


def test_dimension_sum_rule():
    # sum over k of (dim S_{n,k})^2 = Catalan(n) = dim End(n)
    for n in range(0, 8):
        total = sum(standard_dimension(n, k) ** 2
                    for k in range(n % 2, n + 1, 2))
        assert total == math.comb(2 * n, n) // (n + 1)


def test_action_is_algebra_map():
    # act builds the matrices of standard, regular and fused modules alike
    rng = random.Random(2)
    modules = [StandardModule(n, k) for n in (2, 3, 4) for k in range(n % 2, n + 1, 2)]
    modules.append(RegularModule(3))
    for spec in ("generic", "rational:5/3", "root:3"):
        dom = domain_for(Specialization.parse(spec))
        modules.append(FusedModule(StandardModule(2, 2, dom), StandardModule(1, 1, dom)))
    for module in modules:
        diags = enumerate_diagrams(module.n, module.n)
        for _ in range(6):
            f = Morphism.from_diagram(rng.choice(diags), module.dom)
            g = Morphism.from_diagram(rng.choice(diags), module.dom)
            assert act(f * g, module) == mat_mul(act(f, module),
                                                 act(g, module))


def test_regular_module_matches_left_multiplication():
    module = RegularModule(2)
    f = e(1, 2)
    cols = [module.act_on_element(f, b) for b in module.basis]
    # e_1 acting on End(2): e.1 = e, e.e = beta e
    idx = {d: i for i, d in enumerate(module.basis)}
    from tlcat.diagram import e_diagram, identity_diagram
    col_one = cols[idx[identity_diagram(2)]]
    col_e = cols[idx[e_diagram(1, 2)]]
    assert col_one == {idx[e_diagram(1, 2)]: Scalar.from_rational(1)}
    assert col_e == {idx[e_diagram(1, 2)]: GENERIC.beta}


def test_nonscalar_action_raises():
    module = StandardModule(3, 1)
    with pytest.raises(NotScalarAction):
        eigenvalue_on_standard(e(1, 3), module)


def test_wenzl_jones_small_closed_form():
    # wj_2 = 1 + e_1 / (q + q^-1)
    beta = GENERIC.beta
    expected = identity(2) + e(1, 2).scale(-beta.inv())
    assert wenzl_jones(2) == expected


def test_wenzl_jones_properties():
    for m in (2, 3, 4):
        wj = wenzl_jones(m)
        assert wj * wj == wj
        for i in range(1, m):
            assert (e(i, m) * wj).is_zero
            assert (wj * e(i, m)).is_zero
        assert wj.transpose() == wj


def test_annihilated_line_unique():
    for m in (2, 3):
        assert annihilated_line_dimension(m) == 1
    sp = Specialization.rational("5/3")
    for m in (4, 5):
        assert annihilated_line_dimension(m, sp) == 1
    # here e_i x = 0 alone leaves 2 and 3 dimensions; x e_i = 0 cuts them to 1
    for m, root in ((3, "root:3"), (4, "root:4")):
        assert annihilated_line_dimension(m, Specialization.parse(root)) == 1


def test_rigidity():
    for m in (1, 2, 3, 4):
        assert verify_rigidity(m).ok


@pytest.mark.parametrize("m, diagram_tensors", [(4, 55), (5, 153)])
def test_rigidity_tensors_no_two_dense_factors(monkeypatch, m, diagram_tensors):
    # the projector zig-zag builds P_m (x) P_m as (P_m (x) 1)(1 (x) P_m):
    # 2 Catalan(m) diagram tensors where the product of the factors took
    # Catalan(m)^2, 196 at m = 4 and 1,764 at m = 5
    shapes = []
    tensor = Morphism.tensor

    def recording(self, other):
        shapes.append((len(self.terms), len(other.terms)))
        return tensor(self, other)

    monkeypatch.setattr(Morphism, "tensor", recording)
    assert verify_rigidity(m).ok
    assert all(min(shape) == 1 for shape in shapes), shapes
    assert sum(a * b for a, b in shapes) == diagram_tensors


def test_right_action_composes_on_the_right():
    # annihilated_line_dimension and both monodromy routes read x -> x f
    # off right_act_on_element; the oracle composes each basis diagram with
    # f on the right, for f every e_i and two morphisms with several terms;
    # transposing the left action of f^t on x^t gives the same column
    for m in range(0, 5):
        module = RegularModule(m)
        fs = [e(i, m) for i in range(1, m)] + [identity(m)]
        if m >= 2:
            fs += [e(1, m) + e(m - 1, m).scale(GENERIC.beta), wenzl_jones(m)]
        for f in fs:
            for d in module.basis:
                image = Morphism.from_diagram(d).compose(f)
                column = {module.basis.index(dd): c for dd, c in image.terms.items()}
                assert module.right_act_on_element(f, d) == column
                flipped = module.act_on_element(f.transpose(), d.transpose())
                transposed = {module.basis.index(module.basis[i].transpose()): c
                              for i, c in flipped.items()}
                assert transposed == column


def test_projector_pole_fails_unless_a_quantum_integer_vanishes(monkeypatch):
    def pole(m, dom=GENERIC):
        raise PoleAtSpecialization("planted pole")

    monkeypatch.setattr(standard, "wenzl_jones", pole)
    # no [k]_q vanishes at a generic point, nor at root:3 below size 3
    for m, dom in ((2, GENERIC), (2, domain_for(Specialization.parse("root:3")))):
        rep = verify_rigidity(m, dom)
        assert [c["identity"] for c in rep.failures()] == ["projector existence"]


def test_projector_built_past_a_vanishing_quantum_integer_fails(monkeypatch):
    # [2]_q = 0 at root:2, so a projector P_2 that builds is wrong
    monkeypatch.setattr(standard, "wenzl_jones", lambda m, dom=GENERIC: identity(m, dom=dom))
    rep = verify_rigidity(2, domain_for(Specialization.parse("root:2")))
    assert [c["identity"] for c in rep.failures()] == ["projector existence"]


def test_projector_annihilation_detects_a_wrong_projector(monkeypatch):
    # the identity is idempotent, symmetric and satisfies the zig-zag, so
    # only the annihilation check sees that it is not P_m
    monkeypatch.setattr(standard, "wenzl_jones", lambda m, dom=GENERIC: identity(m, dom=dom))
    for m in (2, 3):
        rep = verify_rigidity(m)
        assert [(c["identity"], c["params"]) for c in rep.failures()] == [
            ("projector annihilation", {"m": m})]
