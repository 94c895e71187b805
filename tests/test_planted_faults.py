"""Planted faults: a wrong face weight, a wrong loop weight and a wrong
crossing coefficient must each make the checks that see them fail, with a
witness.  Each plant goes in through monkeypatch, never by editing source,
and the shared structural caches are cleared before and after, so no word or
weight built under a plant outlives it."""

import sys

import pytest

import tlcat.integrable
import tlcat.morphism
from tlcat.braid import verify_braid_relations, verify_hexagons
from tlcat.diagram import e_diagram
from tlcat.integrable import _face_weights, verify_transfer_commute, verify_ybe
from tlcat.morphism import GENERIC, CoeffDomain, Morphism, crossing_word
from tlcat.twist import verify_centrality


def _clear():
    crossing_word.cache_clear()
    _face_weights.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    _clear()
    yield monkeypatch
    _clear()


def _fails_with_witness(rep):
    failures = rep.failures()
    assert failures
    for case in failures:
        witness = case["witness"]
        assert set(witness) == {"lhs", "rhs", "diff"}
        assert not witness["diff"].endswith(": 0")
    return True


@pytest.mark.parametrize("family", ["ordinary", "dilute-braid", "dilute-IK"])
def test_a_wrong_face_weight_breaks_yang_baxter(plant, family):
    # scale the first weight W_k of X(u) = sum_k u^k W_k by s^2.  Transfer
    # commutation does not see such a plant: with W_k scaled by s^2 or -1,
    # or with W_k + e_i, [D_n(u), D_n(v)] still vanished at n = 2, 3 and 4,
    # likely because an ordinary face is always in span{1, e_i}
    def planted(fam):
        (k, w), *rest = _face_weights(fam)
        return ((k, w.scale(GENERIC.s_power(2))), *rest)

    plant.setattr(tlcat.integrable, "_face_weights", planted)
    assert _fails_with_witness(verify_ybe(family))


def test_a_wrong_loop_weight_breaks_transfer_commutation(plant):
    # beta^(k+1) for k >= 1 closed loops: D_n(u) and D_n(v) still commute at
    # n <= 3, and fail to at n = 4
    beta_power = CoeffDomain.beta_power
    plant.setattr(CoeffDomain, "beta_power",
                  lambda self, k: beta_power(self, k + 1 if k >= 1 else k))
    assert _fails_with_witness(verify_transfer_commute(4))


def test_a_wrong_crossing_coefficient_breaks_the_braid_checks(plant):
    # q^(-1/4) e_i in place of q^(-1/2) e_i in the ordinary t_i, in every
    # tlcat namespace that holds t
    t = tlcat.morphism.t

    def planted(i, n, dom=GENERIC, dilute=False):
        m = t(i, n, dom, dilute)
        if dilute:
            return m
        terms = m.terms.copy()
        terms[e_diagram(i, n)] = dom.s_power(-1)
        return Morphism(n, n, terms, False, dom)

    holders = [mod for name, mod in sys.modules.items()
               if (name == "tlcat" or name.startswith("tlcat.")) and getattr(mod, "t", None) is t]
    assert tlcat.morphism in holders and tlcat.integrable in holders
    for mod in holders:
        plant.setattr(mod, "t", planted)
    for verify in (verify_braid_relations, verify_hexagons, verify_centrality):
        assert _fails_with_witness(verify(3)), verify.__name__
