"""Acceptance gate: one test per criterion, each with a runtime budget and
a single pass/fail summary line."""

import time

from tlcat.braid import verify_braid_suite
from tlcat.diagram import enumerate_diagrams
from tlcat.dilute import verify_dilute_braiding
from tlcat.fusion import verify_fusion_suite, verify_root_examples
from tlcat.integrable import (
    face,
    verify_integrable_suite,
    verify_transfer_commute,
)
from tlcat.morphism import GENERIC, e, identity
from tlcat.report import VerificationReport
from tlcat.scalar import Scalar, Specialization
from tlcat.standard import (
    StandardModule,
    annihilated_line_dimension,
    standard_dimension,
    verify_rigidity,
    wenzl_jones,
)
from tlcat.twist import verify_twist_suite


def _finish(label: str, budget: float, t0: float, ok: bool, detail: str = ""):
    elapsed = time.time() - t0
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{mark}] {label}: {elapsed:.1f}s (budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, f"{label}: checks failed. {detail}"
    assert elapsed < budget, f"{label}: exceeded runtime budget"


def test_criterion_1_tl_relations():
    t0 = time.time()
    rep = VerificationReport("acceptance.tl")
    beta = GENERIC.beta
    for n in range(2, 7):
        for i in range(1, n):
            ei = e(i, n)
            rep.check("e_i^2 = beta e_i", {"n": n, "i": i},
                      ei * ei, ei.scale(beta))
            for j in range(1, n):
                ej = e(j, n)
                if abs(i - j) == 1:
                    rep.check("e_i e_j e_i = e_i", {"n": n, "i": i, "j": j},
                              ei * ej * ei, ei)
                elif abs(i - j) >= 2:
                    rep.check("distant e_i e_j = e_j e_i",
                              {"n": n, "i": i, "j": j}, ei * ej, ej * ei)
    _finish("criterion 1 (algebra relations n <= 6)", 5, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_2_braiding_suite():
    t0 = time.time()
    rep = verify_braid_suite(max_total=6, samples=200, seed=0)
    _finish("criterion 2 (braiding suite)", 120, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_3_twist_suite():
    t0 = time.time()
    rep = verify_twist_suite(max_n=6)
    _finish("criterion 3 (twist suite)", 180, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_4_rigidity():
    t0 = time.time()
    rep = VerificationReport("acceptance.rigidity")
    # zig-zag and projector-decorated zig-zag
    for m in (1, 2, 3):
        rep.extend(verify_rigidity(m))
    for m in (4,):
        sub = verify_rigidity(m)
        rep.extend(sub)
    # projector properties through m = 5
    for m in (2, 3, 4, 5):
        wj = wenzl_jones(m)
        rep.add("projector idempotent", {"m": m}, wj * wj == wj)
        killed = all((e(i, m) * wj).is_zero and (wj * e(i, m)).is_zero
                     for i in range(1, m))
        rep.add("projector annihilated by every e_i", {"m": m}, killed)
    # uniqueness of the annihilated line (symbolic small, exact rational
    # point for m = 4, 5)
    for m in (2, 3):
        rep.add("annihilated line unique", {"m": m},
                annihilated_line_dimension(m) == 1)
    point = Specialization.rational("5/3")
    for m in (4, 5):
        rep.add("annihilated line unique", {"m": m},
                annihilated_line_dimension(m, point) == 1)
    _finish("criterion 4 (rigidity and projectors)", 120, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_5_fusion_generic():
    t0 = time.time()
    rep = verify_fusion_suite(max_total=6)
    _finish("criterion 5 (generic fusion n1+n2 <= 6)", 300, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_6_root_of_unity_examples():
    t0 = time.time()
    rep = verify_root_examples()
    _finish("criterion 6 (root-of-unity fusion examples)", 180, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_7_integrability():
    t0 = time.time()
    rep = verify_integrable_suite("ordinary", max_n=3)
    # inversion residual, exact form, asserted directly
    x = face(1, 2)
    rho = Scalar.s_power(8) + Scalar.s_power(-8) \
        - Scalar.var_power("u", 2) - Scalar.var_power("u", -2)
    rep.add("inversion residual ((q^2+q^-2)-(u^2+u^-2)) 1", {},
            x("u") * x("1/u") == identity(2).scale(rho))
    # transfer-matrix commutation up to n = 4, computed symbolically
    rep.extend(verify_transfer_commute(4))
    _finish("criterion 7 (integrability)", 600, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_8_dilute():
    t0 = time.time()
    rep = verify_dilute_braiding(max_total=4, samples=50, seed=0)
    rep.extend(verify_integrable_suite("dilute-braid"))
    rep.extend(verify_integrable_suite("dilute-IK"))
    _finish("criterion 8 (dilute families)", 300, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")


def test_criterion_9_combinatorics():
    t0 = time.time()
    import math

    rep = VerificationReport("acceptance.combinatorics")
    for n in range(0, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        rep.add("dim End(n) = Catalan(n)", {"n": n},
                len(enumerate_diagrams(n, n)) == catalan)
        for k in range(n % 2, n + 1, 2):
            p = (n - k) // 2
            binomial = math.comb(n, p) - (math.comb(n, p - 1) if p else 0)
            basis = len(StandardModule(n, k).basis)
            rep.add("dim S_{n,k} matches the binomial formula",
                    {"n": n, "k": k},
                    standard_dimension(n, k) == binomial == basis)
    _finish("criterion 9 (combinatorics)", 60, t0, rep.ok,
            f"{rep.n_pass}/{len(rep.cases)} checks")
