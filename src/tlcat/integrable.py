"""Face operators, transfer matrices, and the integrability conditions.

Three face-operator families are provided:

* ordinary      X_i(u)  = (sqrt(q)/u) t_i - (u/sqrt(q)) t_i^{-1}
* dilute-braid  the same combination built on the dilute crossing
* dilute-IK     the five-term Boltzmann-weight face (Izergin-Korepin /
                Nienhuis) on dilute strands

Everything is exact and lives in the Laurent ring over s with the extra
invertible variables u, v, w, so an identity proved here holds at every
specialisation and no other coefficient domain is taken.  The transfer
matrix D_n(u) is a word of 2n faces on n+2 strands capped by a cup and a
cap on the two auxiliary strands; commutation of D_n(u) and D_n(v) is
proved by computing both products symbolically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from .diagram import dilute_diagram
from .morphism import (
    GENERIC,
    CoeffDomain,
    Morphism,
    big_cap,
    big_cup,
    cups,
    dilute_end2,
    dilute_identity,
    dilute_sum,
    identity,
    on_strands,
    require_generic,
    t,
    t_inv,
    word,
)
from .report import VerificationReport
from .scalar import Scalar

__all__ = [
    "FaceOperator",
    "face",
    "spectral_power",
    "verify_spectral_identities",
    "verify_ybe",
    "verify_inversion",
    "verify_boundary_ybe",
    "transfer_matrix",
    "verify_transfer_commute",
    "verify_integrable_suite",
]


_SPECTRAL_EXPONENTS = {
    "u": (1, 0, 0),
    "v": (0, 1, 0),
    "w": (0, 0, 1),
    "1/u": (-1, 0, 0),
    "v/u": (-1, 1, 0),
}


def spectral_power(arg):
    """Return k -> (spectral argument)^k for a monomial spectral argument
    named by arg ('u', 'v', 'w', '1/u' or 'v/u') or given as an exponent triple."""
    eu, ev, ew = _SPECTRAL_EXPONENTS[arg] if isinstance(arg, str) else arg
    x = Scalar.var_power("u", eu) * Scalar.var_power("v", ev) * Scalar.var_power("w", ew)
    return lambda k: x**k


@functools.lru_cache(maxsize=1)
def _ik_weights() -> tuple:
    """The five End(2) Boltzmann-weight morphisms y+, w+, z, w-, y-, built
    once; their terms are read-only, as cached_morphism makes them."""
    sp, one = GENERIC.s_power, GENERIC.one

    def y(sign: int):
        # -q^{±3/4} / ((q^{1/2}-q^{-1/2})(q^{3/4}-q^{-3/4}))
        pref = (-one * sp(3 * sign)) * (
            ((sp(2) - sp(-2)) * (sp(3) - sp(-3))).inv()
        )
        return dilute_end2({
            "parallel": -sp(2 * sign),
            "cupcap": -sp(-2 * sign),
            "diag-down": one,
            "diag-up": one,
            "vacant": one,
        }).scale(pref)

    def w(sign: int):
        pref = (sp(3) - sp(-3)).inv()
        if sign < 0:
            pref = -pref
        return dilute_end2({
            "bottom-line": sp(3 * sign),
            "top-line": sp(3 * sign),
            "left-cup": -one,
            "right-cap": -one,
        }).scale(pref)

    zpref = ((sp(1) - sp(-1)) * (sp(3) - sp(-3))).inv()
    zmid = dilute_end2({
        "vacant": sp(4) - one + sp(-4),
        "parallel": -one,
        "cupcap": -one,
        "diag-down": sp(2) - one + sp(-2),
        "diag-up": sp(2) - one + sp(-2),
    }).scale(zpref)
    weights = (y(1), w(1), zmid, w(-1), y(-1))
    for m in weights:
        m.terms = MappingProxyType(m.terms)
    return weights


@dataclass(frozen=True)
class FaceOperator:
    """A face acting on strands i, i+1 of n; call it with a spectral
    argument to obtain the morphism."""

    i: int
    n: int
    family: str

    def __call__(self, arg="u") -> Morphism:
        upow = spectral_power(arg)
        i, n = self.i, self.n
        if self.family == "dilute-IK":
            yp, wp, zm, wm, ym = _ik_weights()
            local = (
                yp.scale(upow(-2))
                + wp.scale(upow(-1))
                + zm
                + wm.scale(upow(1))
                + ym.scale(upow(2))
            )
            return on_strands(local, i, n)
        dilute = self.family == "dilute-braid"
        return (
            t(i, n, dilute=dilute).scale(GENERIC.s_power(2) * upow(-1))
            - t_inv(i, n, dilute=dilute).scale(GENERIC.s_power(-2) * upow(1))
        )


def face(i: int, n: int, family: str = "ordinary") -> FaceOperator:
    if not 1 <= i < n:
        raise ValueError(f"face index {i} out of range for {n} strands")
    if family not in ("ordinary", "dilute-braid", "dilute-IK"):
        raise ValueError(f"unknown face family {family!r}")
    return FaceOperator(i, n, family)


def verify_spectral_identities(family: str = "ordinary") -> VerificationReport:
    """The crossing identities in End(3) that make the Yang-Baxter
    equation work, plus the four-term cancellation."""
    rep = VerificationReport(f"integrable.identities[{family}]")
    dilute = family != "ordinary"
    t1, t2 = t(1, 3, dilute=dilute), t(2, 3, dilute=dilute)
    s1, s2 = t_inv(1, 3, dilute=dilute), t_inv(2, 3, dilute=dilute)
    cases = [
        ("t1 t2 t1 = t2 t1 t2", t1 * t2 * t1, t2 * t1 * t2),
        ("t2 t1 t2^-1 = t1^-1 t2 t1", t2 * t1 * s2, s1 * t2 * t1),
        ("t1 t2 t1^-1 = t2^-1 t1 t2", t1 * t2 * s1, s2 * t1 * t2),
        ("t2 t1^-1 t2^-1 = t1^-1 t2^-1 t1", t2 * s1 * s2, s1 * s2 * t1),
        ("t1 t2^-1 t1^-1 = t2^-1 t1^-1 t2", t1 * s2 * s1, s2 * s1 * t2),
        ("t1^-1 t2^-1 t1^-1 = t2^-1 t1^-1 t2^-1", s1 * s2 * s1, s2 * s1 * s2),
    ]
    for name, lhs, rhs in cases:
        rep.check(name, {}, lhs, rhs)
    rep.check(
        "t^-1-sandwich difference = q * t-sandwich difference",
        {},
        (s1 * t2 * s1) - (s2 * t1 * s2),
        ((t1 * s2 * t1) - (t2 * s1 * t2)).scale(GENERIC.s_power(4)),
    )

    # Y_i(u) = u^-1 t_i - u t_i^-1: all but four terms of the triple-product
    # difference cancel.
    def Y(which, var):
        up = spectral_power(var)
        base, inv = (t1, s1) if which == 1 else (t2, s2)
        return base.scale(up(-1)) - inv.scale(up(1))

    lhs = Y(1, "u") * Y(2, "v") * Y(1, "w")
    rhs = Y(2, "w") * Y(1, "v") * Y(2, "u")
    uvw = spectral_power((1, -1, 1))(1)
    residual = ((s1 * t2 * s1) - (s2 * t1 * s2)).scale(uvw) - (
        (t1 * s2 * t1) - (t2 * s1 * t2)
    ).scale(uvw.inv())
    rep.check("four-term residual of Y-products", {}, lhs - rhs, residual)
    return rep


def verify_ybe(family: str = "ordinary") -> VerificationReport:
    """X_1(u) X_2(v) X_1(v/u) = X_2(v/u) X_1(v) X_2(u) in End(3),
    symbolically: the ratio convention, for every family."""
    rep = VerificationReport(f"integrable.ybe[{family}]")
    x1, x2 = face(1, 3, family), face(2, 3, family)
    lhs = x1("u") * x2("v") * x1("v/u")
    rhs = x2("v/u") * x1("v") * x2("u")
    rep.check("yang-baxter", {"args": ["u", "v", "v/u"]}, lhs, rhs)
    # the degenerate point u = v reduces the ratio argument to 1
    lhs1 = x1("u") * x2("u") * x1((0, 0, 0))
    rhs1 = x2((0, 0, 0)) * x1("u") * x2("u")
    rep.check("degenerate u = v case", {}, lhs1, rhs1)
    return rep


def verify_inversion(family: str = "ordinary") -> VerificationReport:
    """X(u) X(1/u) in End(2): scalar for the ordinary and five-term dilute
    families, scalar plus an explicit defect for the dilute crossing face."""
    rep = VerificationReport(f"integrable.inversion[{family}]")
    x = face(1, 2, family)
    prod = x("u") * x("1/u")
    sp = GENERIC.s_power
    u2 = spectral_power("u")(2)
    if family == "ordinary":
        rho = sp(8) + sp(-8) - u2 - u2.inv()
        rep.check("inversion scalar", {"rho": str(rho)},
                  prod, identity(2).scale(rho))
    elif family == "dilute-braid":
        rho = sp(4) + sp(-4) - u2 - u2.inv()
        defect_coeff = sp(8) - sp(4) - sp(-4) + sp(-8)
        expected = dilute_identity(2).scale(rho) + Morphism.from_diagram(
            dilute_diagram("parallel")
        ).scale(defect_coeff)
        rep.check(
            "inversion defect",
            {"rho": str(rho), "defect": str(defect_coeff)},
            prod,
            expected,
        )
        rep.add("inversion fails (defect nonzero)", {}, bool(defect_coeff))
    elif family == "dilute-IK":
        ident = dilute_identity(2)
        some = next(iter(ident.terms))
        rho_hat = prod.terms.get(some, GENERIC.zero)
        rep.check(
            "inversion scalar",
            {"rho_hat": str(rho_hat)},
            prod,
            ident.scale(rho_hat),
        )
    return rep


def _boundary(kind: str) -> Morphism:
    """Boundary condition in Hom(0,4)."""
    if kind == "ordinary":
        return cups(2)
    # Double arcs close the four strands pairwise in the planar-nested way
    # (1,4),(2,3), matching the nested big-cup convention of the category.
    arcs = {
        "solid double arc": [((1, 4), (2, 3))],
        "all vacancies": [()],
        "dashed double arc": [((1, 4), (2, 3)), ((1, 4),), ((2, 3),), ()],
        "asymmetric single arc": [((1, 2),)],
    }[kind]
    return dilute_sum(4, 0, arcs)


def verify_boundary_ybe(family: str = "ordinary") -> VerificationReport:
    """X_2(u) X_3(v) (boundary) = X_2(u) X_1(v) (boundary) on four strands.

    The three faces are built once, and each side is evaluated right to
    left, X_2(u) (X_k(v) boundary): every product acts on a vector of
    Hom(0,4), and no two End(4) morphisms are composed."""
    rep = VerificationReport(f"integrable.boundary-ybe[{family}]")
    x1v, x2u, x3v = face(1, 4, family)("v"), face(2, 4, family)("u"), face(3, 4, family)("v")

    def holds(boundary: Morphism) -> bool:
        return x2u * (x3v * boundary) == x2u * (x1v * boundary)

    if family == "ordinary":
        rep.add("cup boundary", {"boundary": "z (x) z"}, holds(_boundary("ordinary")))
    elif family == "dilute-braid":
        for kind in ("solid double arc", "all vacancies", "dashed double arc"):
            rep.add("boundary holds", {"boundary": kind}, holds(_boundary(kind)))
        rep.add(
            "asymmetric boundary fails",
            {"boundary": "asymmetric single arc"},
            not holds(_boundary("asymmetric single arc")),
        )
    else:
        # The five-term face is compatible with exactly one of the candidate
        # boundaries: the dashed double arc.
        expected = {
            "solid double arc": False,
            "all vacancies": False,
            "dashed double arc": True,
            "asymmetric single arc": False,
        }
        for kind, want in expected.items():
            rep.add(
                "boundary status",
                {"boundary": kind, "holds": want},
                holds(_boundary(kind)) == want,
            )
    return rep


def transfer_matrix(n: int, family: str = "ordinary", arg="u", dom: CoeffDomain = GENERIC) -> Morphism:
    """D_n(u): 2n faces on n+2 strands, the two auxiliary strands closed by
    a cup and a cap."""
    require_generic(dom)
    faces = [face(i, n + 2, family)(arg) for i in range(1, n + 1)]
    # the word X_n ... X_1 X_1 ... X_n
    bulk = word(faces[::-1] + faces, n + 2)
    cap = identity(n).tensor(big_cap(1))
    cup = identity(n).tensor(big_cup(1))
    return cap.compose(bulk).compose(cup)


def verify_transfer_commute(n: int, family: str = "ordinary") -> VerificationReport:
    """[D_n(u), D_n(v)] = 0, by direct symbolic computation."""
    rep = VerificationReport(f"integrable.transfer[{family}]")
    du = transfer_matrix(n, family, "u")
    dv = transfer_matrix(n, family, "v")
    rep.check("transfer matrices commute", {"n": n, "mode": "symbolic"},
              du.compose(dv), dv.compose(du))
    return rep


def verify_integrable_suite(
    family: str = "ordinary", max_n: int = 3, dom: CoeffDomain = GENERIC
) -> VerificationReport:
    """Spectral identities, Yang-Baxter, inversion, boundary reflection,
    and (for the ordinary family) transfer-matrix commutation."""
    require_generic(dom)
    rep = VerificationReport(f"integrable.{family}")
    rep.extend(verify_spectral_identities(family))
    ybe = verify_ybe(family)
    rep.extend(ybe)
    if family == "dilute-IK":
        rep.add("a spectral-argument convention satisfies yang-baxter",
                {"family": family}, ybe.ok,
                {"convention": "ratio (u, v, v/u)", "args": ["u", "v", "v/u"]})
    rep.extend(verify_inversion(family))
    rep.extend(verify_boundary_ybe(family))
    if family == "ordinary":
        for n in range(2, min(max_n, 4) + 1):
            rep.extend(verify_transfer_commute(n, family))
    return rep
