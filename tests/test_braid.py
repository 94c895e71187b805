"""Elementary crossings, braid relations, commutor closed forms,
hexagons, naturality, and the non-centrality witness."""

import random

import pytest

import tlcat.braid
from tlcat.braid import (
    commutor,
    commutor_inverse,
    double_braiding,
    monodromy_noncentral_witness,
    verify_braid_relations,
    verify_braiding_lemmas,
    verify_braid_suite,
    verify_hexagons,
    verify_naturality,
)
from tlcat.diagram import enumerate_diagrams
from tlcat.dilute import verify_dilute_braiding
from tlcat.morphism import GENERIC, Morphism, crossing_word, domain_for, e, identity, t, t_inv
from tlcat.scalar import Scalar, Specialization

from scalar_oracle import q_power


def test_crossing_definition_and_inverse():
    for n in (2, 3, 4):
        for i in range(1, n):
            ti = t(i, n)
            expected = identity(n).scale(Scalar.s_power(2)) + \
                e(i, n).scale(Scalar.s_power(-2))
            assert ti == expected
            assert ti * t_inv(i, n) == identity(n)
            assert t_inv(i, n) * ti == identity(n)


def test_braid_relations():
    for n in (3, 4, 5):
        assert verify_braid_relations(n).ok


def test_braid_group_relation_direct():
    # t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1}, checked without the verifier
    for n in (3, 4):
        for i in range(1, n - 1):
            a, b = t(i, n), t(i + 1, n)
            assert a * b * a == b * a * b
    # distant generators commute
    a, b = t(1, 4), t(3, 4)
    assert a * b == b * a


def test_commutor_closed_forms_and_hexagons():
    assert verify_hexagons(5).ok


@pytest.mark.parametrize("dilute, max_total", [(False, 5), (True, 3)])
def test_closed_forms_agree_detects_a_wrong_word(monkeypatch, dilute, max_total):
    # reverse the word of eta_{1,s} for s >= 2 (in both closed forms): the
    # check compares eta_{r,s} with eta_{s,r} transposed, so it fails for
    # (1, s) and (s, 1), where both closed forms are one index tuple
    indices = tlcat.braid.crossing_indices

    def reversed_for_one(r, s, form="left-nested"):
        return indices(r, s, form)[::-1] if r == 1 and s >= 2 else indices(r, s, form)

    crossing_word.cache_clear()
    monkeypatch.setattr(tlcat.braid, "crossing_indices", reversed_for_one)
    failed = {(c["params"]["r"], c["params"]["s"])
              for c in verify_hexagons(max_total, dilute).failures()
              if c["identity"] == "closed-forms-agree"}
    assert failed == {rs for s in range(2, max_total) for rs in ((1, s), (s, 1))}


def test_dilute_hexagons_run_the_same_checks():
    ordinary = verify_hexagons(3)
    dilute = verify_hexagons(3, dilute=True)
    assert dilute.ok
    assert len(dilute.cases) == len(ordinary.cases)
    assert [(c["identity"], c["params"]) for c in dilute.cases] == \
        [(c["identity"], c["params"]) for c in ordinary.cases]


def test_dilute_suite_detects_a_wrong_commutor_inverse(monkeypatch):
    # plant eta in place of eta^-1: the inverse check must fail, with a
    # witness, exactly where eta is not an involution, that is r, s > 0
    monkeypatch.setattr(
        tlcat.braid, "commutor_inverse",
        lambda r, s, dom=GENERIC, dilute=False: commutor(r, s, dom=dom, dilute=dilute))
    failures = verify_dilute_braiding(3, samples=0).failures()
    assert [(c["identity"], c["params"]) for c in failures] == [
        ("inverse", {"r": r, "s": s}) for r, s in ((1, 1), (1, 2), (2, 1))
    ]
    for case in failures:
        assert not case["witness"]["diff"].endswith(": 0")


def test_commutor_inverse():
    for r in range(0, 4):
        for s in range(0, 4 - r):
            eta = commutor(r, s)
            inv = commutor_inverse(r, s)
            assert eta * inv == identity(r + s)
            assert inv * eta == identity(r + s)


def test_commutor_small_explicit():
    # eta_{1,1} = t_1 and eta_{0,n} = eta_{n,0} = identity
    assert commutor(1, 1) == t(1, 2)
    assert commutor(0, 3) == identity(3)
    assert commutor(3, 0) == identity(3)


@pytest.mark.parametrize("spec", ["generic", "rational:5/3", "root:3"])
def test_double_braiding_is_the_product_of_the_commutors(spec):
    # the one-word double braiding against the dense product of the two
    # commutors, including m = 0 or n = 0, where its word is empty
    dom = domain_for(Specialization.parse(spec))
    for m in range(0, 6):
        for n in range(0, 6 - m):
            expected = commutor(n, m, dom=dom).compose(commutor(m, n, dom=dom))
            assert double_braiding(m, n, dom) == expected


def test_naturality_exhaustive_small_and_sampled():
    assert verify_naturality(4, samples=50, seed=1).ok


def test_naturality_samples_need_a_larger_shape(monkeypatch):
    # the samples draw r, s, n, m from 0..4, so from max_total 8 on no draw
    # is larger and the sampling loop could never finish; stub the diagram
    # work so only the control flow runs
    class BoundedRandom(random.Random):
        draws = 0

        def randint(self, a, b):
            self.draws += 1
            assert self.draws < 10_000, "the sampling loop does not end"
            return super().randint(a, b)

    cases = []
    monkeypatch.setattr(tlcat.braid.random, "Random", BoundedRandom)
    monkeypatch.setattr(tlcat.braid, "enumerate_diagrams", lambda n, r: [None])
    monkeypatch.setattr(
        tlcat.braid, "_naturality_case", lambda rep, *args: cases.append(args)
    )
    with pytest.raises(ValueError, match="max_total < 8"):
        verify_naturality(8, samples=1)
    assert cases == []
    verify_naturality(8, samples=0)
    assert cases
    cases.clear()
    verify_naturality(7, samples=1)
    r, s, n, m = cases[-1][:4]
    assert max(r + s, n + m) == 8


def test_naturality_direct_random():
    rng = random.Random(5)
    for _ in range(25):
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        n = rng.choice([k for k in range(0, 4) if (k + r) % 2 == 0])
        m = rng.choice([k for k in range(0, 4) if (k + s) % 2 == 0])
        cs = enumerate_diagrams(n, r)
        ds = enumerate_diagrams(m, s)
        if not cs or not ds:
            continue
        c = Morphism.from_diagram(rng.choice(cs))
        d = Morphism.from_diagram(rng.choice(ds))
        lhs = commutor(r, s).compose(c.tensor(d))
        rhs = d.tensor(c).compose(commutor(n, m))
        assert lhs == rhs


def test_braiding_lemmas():
    assert verify_braiding_lemmas(5).ok


def test_noncentral_witness_exact():
    w = monodromy_noncentral_witness()
    e1, e2 = e(1, 3), e(2, 3)
    coeff = q_power(-2) * (q_power(1) - q_power(-1))
    assert w == (e1 * e2 - e2 * e1).scale(coeff)
    assert not w.is_zero


def test_noncentral_witness_detects_a_central_double_braiding(monkeypatch):
    # with the identity for the double braiding the commutator vanishes, the
    # closed form no longer matches, and the case fails with the error
    monkeypatch.setattr(tlcat.braid, "double_braiding",
                        lambda m, n, dom=GENERIC: identity(m + n, dom=dom))
    failures = verify_braid_suite(2, samples=0).failures()
    assert [c["identity"] for c in failures] == ["noncentral-witness"]
    assert "error" in failures[0]["witness"]
