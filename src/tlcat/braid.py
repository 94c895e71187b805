"""The commutor eta_{r,s} and mechanical verification of the braiding laws.

eta_{r,s} in End(r+s) interchanges a block of r strands with a block of s
strands.  The paper gives it in two closed forms, nested products of
crossings.  Products here follow the convention that the running index
grows towards the left: prod_{i=1}^{s} t_i = t_s ... t_1.
``crossing_indices`` lists the crossings of the first form.  The second
form of eta_{r,s} is the transpose of the first form of eta_{s,r}, and
their equality is one of the verified identities.  eta_{r,s}, its inverse
and the double braiding eta_{n,m} eta_{m,n} are each one cached word of
those crossings (``morphism.crossing_word``).
"""

from __future__ import annotations

import random

from .morphism import (
    GENERIC, CoeffDomain, Morphism, crossing_word, cups, e, identity, require_generic, t,
    word,
)
from .diagram import enumerate_diagrams
from .report import VerificationReport

__all__ = [
    "crossing_indices",
    "commutor",
    "commutor_inverse",
    "double_braiding",
    "verify_hexagons",
    "verify_naturality",
    "verify_braid_relations",
    "verify_braiding_lemmas",
    "monodromy_noncentral_witness",
    "verify_braid_suite",
]


def crossing_indices(r: int, s: int) -> tuple:
    """The indices k of the crossings t_k whose product, leftmost factor
    first, is eta_{r,s} in its first closed form,
    prod_{i=1}^{s} ( prod_{j=r-1}^{0} t_{i+j} ).  Every t_k is its own
    transpose, so the indices of (s, r) read backwards give the second
    form of eta_{r,s}, the transpose of eta_{s,r}."""
    return tuple(i + j for i in range(s, 0, -1) for j in range(r))


def commutor(r: int, s: int, dom: CoeffDomain = GENERIC, dilute: bool = False) -> Morphism:
    """eta_{r,s} in End(r+s) for ordinary or dilute strands."""
    if r < 0 or s < 0:
        raise ValueError(f"negative block size in commutor({r}, {s})")
    return crossing_word(crossing_indices(r, s), r + s, dom, dilute, False, 0)


def commutor_inverse(
    r: int, s: int, dom: CoeffDomain = GENERIC, dilute: bool = False
) -> Morphism:
    """Structural inverse: the reversed product of inverse crossings."""
    if r < 0 or s < 0:
        raise ValueError(f"negative block size in commutor_inverse({r}, {s})")
    return crossing_word(crossing_indices(r, s)[::-1], r + s, dom, dilute, True, 0)


def double_braiding(m: int, n: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """eta_{n,m} eta_{m,n} in End(m+n), built as one word of its 2mn
    crossings rather than as a product of the two dense commutors."""
    if m < 0 or n < 0:
        raise ValueError(f"negative block size in double_braiding({m}, {n})")
    indices = crossing_indices(n, m) + crossing_indices(m, n)
    return crossing_word(indices, m + n, dom, False, False, 0)


# ---------------------------------------------------------------------------
# verifiers


def verify_hexagons(max_total: int, dilute: bool = False) -> VerificationReport:
    """Closed forms, inverses and both hexagons of eta for ordinary or
    dilute strands."""
    rep = VerificationReport("braid.hexagons")

    def eta(r, s):
        return commutor(r, s, dilute=dilute)

    def one(n):
        return identity(n, dilute)

    for total in range(0, max_total + 1):
        for r in range(0, total + 1):
            s = total - r
            # the second closed form of eta_{r,s} is the word of eta_{s,r}
            # reversed, and every t_k is its own transpose
            rep.check("closed-forms-agree", {"r": r, "s": s}, eta(r, s), eta(s, r).transpose())
            rep.check(
                "inverse",
                {"r": r, "s": s},
                eta(r, s).compose(commutor_inverse(r, s, dilute=dilute)),
                one(r + s),
            )
    for total in range(0, max_total + 1):
        for n in range(0, total + 1):
            for m in range(0, total - n + 1):
                k = total - n - m
                lhs = eta(n, m + k)
                rhs = one(m).tensor(eta(n, k)).compose(eta(n, m).tensor(one(k)))
                rep.check("hexagon-first", {"n": n, "m": m, "k": k}, lhs, rhs)
                lhs2 = eta(n + m, k)
                rhs2 = eta(n, k).tensor(one(m)).compose(one(n).tensor(eta(m, k)))
                rep.check("hexagon-second", {"u": n, "v": m, "w": k}, lhs2, rhs2)
    return rep


def _naturality_case(rep, r, s, n, m, c_diag, d_diag):
    """One naturality check; the strand family is that of the diagrams."""
    cm = Morphism.from_diagram(c_diag)
    dm = Morphism.from_diagram(d_diag)
    dilute = c_diag.dilute
    lhs = commutor(r, s, dilute=dilute).compose(cm.tensor(dm))
    rhs = dm.tensor(cm).compose(commutor(n, m, dilute=dilute))
    return rep.check(
        "naturality",
        {"r": r, "s": s, "n": n, "m": m,
         "c": c_diag.to_text(), "d": d_diag.to_text()},
        lhs,
        rhs,
    )


def verify_naturality(max_total: int = 6, samples: int = 0, seed: int = 0) -> VerificationReport:
    """eta_{r,s} (c tensor d) = (d tensor c) eta_{n,m} for c in Hom(n,r),
    d in Hom(m,s); exhaustive for r+s and n+m up to max_total, plus random
    larger pairs when samples > 0.  The samples draw r, s, n, m from 0..4,
    so they need max_total < 8: from 8 on no draw is larger."""
    if samples > 0 and max_total >= 8:
        raise ValueError(
            f"random naturality samples need max_total < 8, got {max_total}"
        )
    rep = VerificationReport("braid.naturality")
    for rs in range(0, max_total + 1):
        for r in range(0, rs + 1):
            s = rs - r
            for nm in range(0, max_total + 1):
                for n in range(0, nm + 1):
                    m = nm - n
                    if (n + r) % 2 or (m + s) % 2:
                        continue
                    cs = enumerate_diagrams(n, r)
                    ds = enumerate_diagrams(m, s)
                    for c_diag in cs:
                        for d_diag in ds:
                            _naturality_case(rep, r, s, n, m, c_diag, d_diag)
    rng = random.Random(seed)
    done = 0
    while done < samples:
        r = rng.randint(0, 4)
        s = rng.randint(0, 4)
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        if max(r + s, n + m) <= max_total or (n + r) % 2 or (m + s) % 2:
            continue
        cs = enumerate_diagrams(n, r)
        ds = enumerate_diagrams(m, s)
        _naturality_case(rep, r, s, n, m, rng.choice(cs), rng.choice(ds))
        done += 1
    return rep


def verify_braid_relations(n: int) -> VerificationReport:
    rep = VerificationReport("braid.relations")
    for i in range(1, n - 1):
        ti, tj = t(i, n), t(i + 1, n)
        ei, ej = e(i, n), e(i + 1, n)
        rep.check("t t e = e e (lower)", {"n": n, "i": i}, ti * tj * ei, ej * ei)
        rep.check("e e = e t t (lower)", {"n": n, "i": i}, ej * ei, ej * ti * tj)
        rep.check("t t e = e e (upper)", {"n": n, "i": i}, tj * ti * ej, ei * ej)
        rep.check("e e = e t t (upper)", {"n": n, "i": i}, ei * ej, ei * tj * ti)
        rep.check("braid relation", {"n": n, "i": i}, ti * tj * ti, tj * ti * tj)
    for i in range(1, n):
        for j in range(i + 2, n):
            rep.check(
                "far commutation", {"n": n, "i": i, "j": j},
                t(i, n) * t(j, n), t(j, n) * t(i, n),
            )
    # palindome words t_i ... t_{n-1} ... t_i = t_{n-1} ... t_i ... t_{n-1}
    for i in range(1, n):
        top = n - 1
        up = list(range(i, top + 1))
        word1 = up + up[-2::-1]
        down = list(range(top, i - 1, -1))
        word2 = down + down[-2::-1]
        lhs = word([t(k, n) for k in word1], n)
        rhs = word([t(k, n) for k in word2], n)
        rep.check("palindrome", {"n": n, "i": i}, lhs, rhs)
    return rep


def verify_braiding_lemmas(max_total: int = 6) -> VerificationReport:
    """The e-transport and bubble identities of the braiding construction."""
    rep = VerificationReport("braid.lemmas")
    for total in range(2, max_total + 1):
        for n in range(0, total + 1):
            m = total - n
            eta = commutor(n, m)
            for i in range(1, n):
                rep.check(
                    "eta e_i = e_{m+i} eta", {"n": n, "m": m, "i": i},
                    eta * e(i, total), e(m + i, total) * eta,
                )
            for j in range(1, m):
                rep.check(
                    "eta e_{n+j} = e_j eta", {"n": n, "m": m, "j": j},
                    eta * e(n + j, total), e(j, total) * eta,
                )
    for n in range(0, max_total - 1):
        for p in range(1, (max_total - n) // 2 + 1):
            zp = cups(p)
            lhs = commutor(n, 2 * p).compose(identity(n).tensor(zp))
            rhs = zp.tensor(identity(n))
            rep.check("bubble: eta_{n,2p} (1 x z^p) = z^p x 1", {"n": n, "p": p}, lhs, rhs)
    return rep


def monodromy_noncentral_witness() -> Morphism:
    """The exact nonzero commutator showing the double braiding is not central:
    eta_{2,1} eta_{1,2} e_1 - e_1 eta_{2,1} eta_{1,2}
      = q^-2 (q - q^-1)(e_1 e_2 - e_2 e_1)."""
    mono = double_braiding(1, 2)
    e1, e2 = e(1, 3), e(2, 3)
    witness = mono * e1 - e1 * mono
    sp = GENERIC.s_power
    coeff = sp(-8) * (sp(4) - sp(-4))
    expected = (e1 * e2 - e2 * e1).scale(coeff)
    if witness != expected:
        raise AssertionError("non-centrality witness does not match the closed form")
    return witness


def verify_braid_suite(
    max_total: int = 6, samples: int = 200, seed: int = 0, dom: CoeffDomain = GENERIC
) -> VerificationReport:
    require_generic(dom)
    rep = VerificationReport("braid")
    rep.extend(verify_hexagons(max_total))
    rep.extend(verify_naturality(max_total, samples=samples, seed=seed))
    for n in range(2, max_total + 1):
        rep.extend(verify_braid_relations(n))
    rep.extend(verify_braiding_lemmas(max_total))
    try:
        w = monodromy_noncentral_witness()
        rep.add("noncentral-witness", {}, not w.is_zero, {"witness": w.to_text()})
    except AssertionError as exc:
        rep.add("noncentral-witness", {}, False, {"error": str(exc)})
    return rep
