"""Standard modules, the regular module, projectors, and rigidity."""

import math
import random

import pytest

from tlcat.diagram import enumerate_diagrams
from tlcat.fusion import FusedModule
from tlcat.linalg import mat_mul
from tlcat.morphism import Morphism, domain_for, e, identity
from tlcat.scalar import Scalar, Specialization
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
    assert col_e == {idx[e_diagram(1, 2)]: Scalar.beta()}


def test_nonscalar_action_raises():
    module = StandardModule(3, 1)
    with pytest.raises(NotScalarAction):
        eigenvalue_on_standard(e(1, 3), module)


def test_wenzl_jones_small_closed_form():
    # wj_2 = 1 + e_1 / (q + q^-1)
    beta = Scalar.beta()
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


def test_rigidity():
    for m in (1, 2, 3, 4):
        assert verify_rigidity(m).ok
