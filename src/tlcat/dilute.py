"""Braiding for the dilute diagram family.

The elementary two-strand braiding is the five-diagram morphism
eta_{1,1} = t(1, 2, dilute=True) in the dilute End(2) (defined with the
other generators in morphism); its coefficients are forced, up to sign
choices, by requiring that occupied and vacant strand patterns transport
through it.
Everything else - the crossings t_i, the block interchange eta_{r,s} and
its inverse - is the ordinary construction called with dilute=True: the
same crossing words, with the dilute identity (a sum over occupation
patterns) in place of the ordinary identity strand.  The checks are
shared the same way: the closed forms, inverses and hexagons are
braid.verify_hexagons with dilute=True, and each sampled naturality case
is braid's own, on dilute diagrams.  Only the facts that pin the
coefficients of eta_{1,1} are checked here alone.
"""

from __future__ import annotations

import random

from .braid import _naturality_case, commutor, verify_hexagons
from .diagram import Diagram, dilute_diagram, enumerate_diagrams
from .morphism import (
    CoeffDomain,
    GENERIC,
    Morphism,
    dilute_end2,
    identity,
    require_generic,
    t,
    t_inv,
)
from .report import VerificationReport

__all__ = [
    "dilute_commutor",
    "verify_dilute_braiding",
]


def dilute_commutor(r: int, s: int) -> Morphism:
    """eta_{r,s} for dilute strands: commutor(r, s, dilute=True)."""
    return commutor(r, s, dilute=True)


# ---------------------------------------------------------------------------
# verifiers


def verify_dilute_braiding(
    max_total: int = 4,
    dom: CoeffDomain = GENERIC,
    samples: int = 50,
    seed: int = 0,
) -> VerificationReport:
    require_generic(dom)
    rep = VerificationReport("dilute.braiding")
    eta = t(1, 2, dilute=True)
    sp, one = GENERIC.s_power, GENERIC.one

    # basic counting and unit facts
    rep.add(
        "dilute End(2) has nine diagrams",
        {},
        len(enumerate_diagrams(2, 2, dilute=True)) == 9,
    )
    rep.check(
        "eta11 inverse",
        {},
        eta.compose(t_inv(1, 2, dilute=True)),
        identity(2, True),
    )

    # coefficient constraints: a1 = q^{1/2}, a5 = q^{-1/2}, a2 = a3 = a4 = 1
    a1, a5 = sp(2), sp(-2)
    rep.add(
        "a1^2 + a1 a5 beta + a5^2 = 0",
        {},
        not (a1 * a1 + a1 * a5 * GENERIC.beta + a5 * a5),
    )
    rep.add("a2^2 = a3^2 = a4^2 = a1 a5", {}, one * one == a1 * a5)

    # occupation-pattern transport: dashed span = line + vacancies
    top_solid = dilute_end2({"parallel": one, "top-line": one})
    bottom_solid = dilute_end2({"parallel": one, "bottom-line": one})
    top_vacant = dilute_end2({"bottom-line": one, "vacant": one})
    bottom_vacant = dilute_end2({"top-line": one, "vacant": one})
    for name, (x, y) in {
        "solid top -> solid bottom": (top_solid, bottom_solid),
        "solid bottom -> solid top": (bottom_solid, top_solid),
        "vacant top -> vacant bottom": (top_vacant, bottom_vacant),
        "vacant bottom -> vacant top": (bottom_vacant, top_vacant),
    }.items():
        rep.check("occupation transport: " + name, {}, eta.compose(x), y.compose(eta))

    # the interchange conditions that pinned the coefficients
    one_strand = identity(1, True)
    eta12 = dilute_commutor(1, 2)
    eta21 = dilute_commutor(2, 1)
    for bname in ("cupcap", "left-cup", "right-cap"):
        b = Morphism.from_diagram(dilute_diagram(bname))
        rep.check(
            "eta_{1,2} interchange",
            {"b": bname},
            eta12.compose(one_strand.tensor(b)),
            b.tensor(one_strand).compose(eta12),
        )
        rep.check(
            "eta_{2,1} interchange",
            {"b": bname},
            eta21.compose(b.tensor(one_strand)),
            one_strand.tensor(b).compose(eta21),
        )
    vac_node = Morphism.from_diagram(Diagram.from_pairs(1, 0, (), dilute=True))
    strand = Morphism.from_diagram(Diagram.from_pairs(1, 1, ((1, 2),), dilute=True))
    vac_strand = Morphism.from_diagram(Diagram.from_pairs(1, 1, (), dilute=True))
    for aname, a in (("line", strand), ("vacancy", vac_strand)):
        rep.check(
            "eta_{1,1} absorbs a single boundary node",
            {"a": aname},
            eta.compose(a.tensor(vac_node)),
            vac_node.tensor(a),
        )
        rep.check(
            "eta_{1,1} absorbs a single boundary node (flip)",
            {"a": aname},
            eta.compose(vac_node.tensor(a)),
            a.tensor(vac_node),
        )

    rep.extend(verify_hexagons(max_total, dilute=True))

    # naturality on sampled dilute diagrams
    rng = random.Random(seed)
    sizes = [
        (r, s, n, m)
        for r in range(0, 3)
        for s in range(0, 3)
        for n in range(0, 3)
        for m in range(0, 3)
    ]
    for _ in range(samples):
        r, s, n, m = rng.choice(sizes)
        cs = enumerate_diagrams(n, r, dilute=True)
        ds = enumerate_diagrams(m, s, dilute=True)
        _naturality_case(rep, r, s, n, m, rng.choice(cs), rng.choice(ds))
    return rep
