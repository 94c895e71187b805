"""The central twist elements c_n and their verified properties.

c_n = q^(3n/2) rho_n^n, equivalently q^(3n/2) lambda_n^n, where the cyclic
rotations are commutors: rho_n = t_1 t_2 ... t_{n-1} = eta_{n-1,1} and
lambda_n = t_{n-1} ... t_1 = eta_{1,n-1}, with inverses built by
commutor_inverse.  c_n, y_n and c_n^-1 are each one cached word of n(n-1)
crossings (``morphism.crossing_word``): the rotation's crossings
(``braid.crossing_indices``) repeated n times, so no power of a dense
morphism is formed.  Centrality, the twist
condition against the double braiding, naturality, the cyclic-translation
toolkit around rho_n and lambda_n, and the standard module eigenvalues
gamma_{n,k} = q^{k(k+2)/2} are all checked mechanically.
"""

from __future__ import annotations

import functools

from .braid import commutor, commutor_inverse, crossing_indices, double_braiding
from .diagram import enumerate_diagrams
from .linalg import det
from .morphism import GENERIC, CoeffDomain, Morphism, crossing_word, cups, e, identity, t, t_inv
from .report import VerificationReport
from .standard import (
    NotScalarAction, StandardModule, act, eigenvalue_on_standard, standard_dimension,
)
from .scalar import Scalar

__all__ = [
    "twist_element",
    "twist_element_reversed",
    "twist_inverse",
    "e0",
    "en",
    "gamma_exponent",
    "gamma_eigenvalue",
    "det_t1_closed_form",
    "verify_centrality",
    "verify_twist_axiom",
    "verify_cyclic_lemma",
    "verify_twist_naturality_exhaustive",
    "verify_gamma_consistency",
    "verify_det_t1",
    "verify_twist_suite",
]


def twist_element(n: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """c_n = q^(3n/2) rho_n^n; c_0 is the empty identity."""
    return crossing_word(crossing_indices(n - 1, 1) * n, n, dom, False, False, 6 * n)


def twist_element_reversed(n: int) -> Morphism:
    """y_n = q^(3n/2) lambda_n^n; equals c_n (verified, not assumed)."""
    return crossing_word(crossing_indices(1, n - 1) * n, n, GENERIC, False, False, 6 * n)


def _inverse_letters(n: int) -> tuple:
    """The strands k of the letters t_k^-1 of rho_n^-n, leftmost first."""
    return crossing_indices(n - 1, 1)[::-1] * n


def twist_inverse(n: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """c_n^-1 = q^(-3n/2) rho_n^-n."""
    return crossing_word(_inverse_letters(n), n, dom, False, True, -6 * n)


def en(n: int) -> Morphism:
    """The extra generator e_n = rho e_{n-1} rho^{-1}."""
    return commutor(n - 1, 1).compose(e(n - 1, n)).compose(commutor_inverse(n - 1, 1))


def e0(n: int) -> Morphism:
    """The extra generator e_0 = lambda e_1 lambda^{-1}."""
    return commutor(1, n - 1).compose(e(1, n)).compose(commutor_inverse(1, n - 1))


def gamma_exponent(k: int) -> int:
    """The s-exponent 2k(k+2) of gamma_{n,k} = q^{k(k+2)/2}."""
    return 2 * k * (k + 2)


def gamma_eigenvalue(k: int, dom: CoeffDomain = GENERIC):
    """gamma_{n,k} = q^{k(k+2)/2} = s^{2k(k+2)}."""
    return dom.s_power(gamma_exponent(k))


# ---------------------------------------------------------------------------
# verifiers


def verify_centrality(n: int) -> VerificationReport:
    rep = VerificationReport("twist.centrality")
    c = twist_element(n)
    for i in range(1, n):
        ei = e(i, n)
        rep.check("c_n e_i = e_i c_n", {"n": n, "i": i}, c.compose(ei), ei.compose(c))
    # c_n c_n^-1, one inverse letter at a time: no dense x dense product
    prod = functools.reduce(lambda m, k: m.compose(t_inv(k, n)), _inverse_letters(n), c)
    rep.check("c_n invertible", {"n": n}, prod.scale(GENERIC.s_power(-6 * n)), identity(n))
    return rep


def verify_twist_axiom(max_total: int) -> VerificationReport:
    rep = VerificationReport("twist.axiom")
    for total in range(0, max_total + 1):
        for r in range(0, total + 1):
            s = total - r
            lhs = twist_element(total)
            rhs = double_braiding(r, s).compose(twist_element(r).tensor(twist_element(s)))
            rep.check("twist condition", {"r": r, "s": s}, lhs, rhs)
    # the two commutor-shuffling identities used to prove the twist condition
    for total in range(2, max_total + 1):
        for r in range(1, total):
            s = total - r
            lhs = commutor(s + 1, r - 1).compose(commutor(s, 1).tensor(identity(r - 1)))
            rhs = commutor(s, r).compose(identity(s).tensor(commutor(1, r - 1)))
            rep.check("shuffle (s,1) into (s+1,r-1)", {"r": r, "s": s}, lhs, rhs)
            lhs2 = commutor(r - 1, s + 1).compose(identity(r - 1).tensor(commutor(1, s)))
            rhs2 = commutor(r, s).compose(commutor(r - 1, 1).tensor(identity(s)))
            rep.check("shuffle (1,s) into (r-1,s+1)", {"r": r, "s": s}, lhs2, rhs2)
    # c_{2p} fixes the p-fold cup
    for p in (1, 2):
        zp = cups(p)
        rep.check("c_{2p} z^p = z^p", {"p": p}, twist_element(2 * p).compose(zp), zp)
    return rep


def verify_cyclic_lemma(n: int) -> VerificationReport:
    rep = VerificationReport("twist.cyclic")
    r, ri = commutor(n - 1, 1), commutor_inverse(n - 1, 1)
    l, li = commutor(1, n - 1), commutor_inverse(1, n - 1)
    beta = GENERIC.beta
    e_n, e_0 = en(n), e0(n)
    for i in range(1, n - 1):
        rep.check(
            "rho e_i rho^-1 = e_{i+1}", {"n": n, "i": i},
            r.compose(e(i, n)).compose(ri), e(i + 1, n),
        )
    for i in range(2, n):
        rep.check(
            "lam e_i lam^-1 = e_{i-1}", {"n": n, "i": i},
            l.compose(e(i, n)).compose(li), e(i - 1, n),
        )
    rep.check("rho e_n rho^-1 = e_1", {"n": n}, r.compose(e_n).compose(ri), e(1, n))
    rep.check("lam e_0 lam^-1 = e_{n-1}", {"n": n}, l.compose(e_0).compose(li), e(n - 1, n))
    rep.check("e_n^2 = beta e_n", {"n": n}, e_n.compose(e_n), e_n.scale(beta))
    rep.check("e_0^2 = beta e_0", {"n": n}, e_0.compose(e_0), e_0.scale(beta))
    if n >= 3:
        # at n = 2 the wrapped generator coincides with e_1 and the
        # adjacent-index relations do not apply
        em1 = e(n - 1, n)
        e1 = e(1, n)
        rep.check("e_{n-1} e_n e_{n-1} = e_{n-1}", {"n": n}, em1.compose(e_n).compose(em1), em1)
        rep.check("e_n e_{n-1} e_n = e_n", {"n": n}, e_n.compose(em1).compose(e_n), e_n)
        rep.check("e_1 e_0 e_1 = e_1", {"n": n}, e1.compose(e_0).compose(e1), e1)
        rep.check("e_0 e_1 e_0 = e_0", {"n": n}, e_0.compose(e1).compose(e_0), e_0)
    return rep


def verify_twist_naturality_exhaustive(max_side: int) -> VerificationReport:
    rep = VerificationReport("twist.naturality")
    for m in range(0, max_side + 1):
        twist_m = twist_element(m)
        for n in range(0, max_side + 1):
            if (m + n) % 2:
                continue
            twist_n = twist_element(n)
            for d in enumerate_diagrams(n, m):
                f = Morphism.from_diagram(d)
                rep.check(
                    "theta_dst f = f theta_src",
                    {"dst": m, "src": n, "f": d.to_text()},
                    twist_m.compose(f),
                    f.compose(twist_n),
                )
    return rep


def verify_gamma_consistency(max_n: int) -> VerificationReport:
    """c_n acts on S_{n,k} as the scalar gamma_{n,k}; a non-scalar action
    is a failed case."""
    rep = VerificationReport("twist.gamma")
    for n in range(0, max_n + 1):
        c = twist_element(n)
        for k in range(n % 2, n + 1, 2):
            params = {"n": n, "k": k}
            try:
                lamv = eigenvalue_on_standard(c, StandardModule(n, k))
            except NotScalarAction as exc:
                rep.add("gamma_{n,k} = q^{k(k+2)/2}", params, False, {"error": str(exc)})
                continue
            ok = lamv == gamma_eigenvalue(k)
            rep.add("gamma_{n,k} = q^{k(k+2)/2}", params, ok,
                    None if ok else {"got": str(lamv)})
    return rep


def det_t1_closed_form(n: int, k: int) -> Scalar:
    """det of t_1 on S_{n,k}: q^{dim/2} (-q^-2)^{dim S_{n-2,k}}.  Below two
    strands End(n) has no t_1, and this raises ValueError."""
    if n < 2:
        raise ValueError(f"End({n}) has no t_1")
    d2 = standard_dimension(n - 2, k) if n - 2 >= k else 0
    return Scalar.s_power(2 * standard_dimension(n, k) - 8 * d2) * (-1) ** d2


def verify_det_t1(max_n: int) -> VerificationReport:
    """det of t_1 on S_{n,k} equals q^{dim/2} (-q^-2)^{dim S_{n-2,k}}."""
    rep = VerificationReport("twist.det-t1")
    for n in range(2, max_n + 1):
        t1 = t(1, n)
        for k in range(n % 2, n + 1, 2):
            module = StandardModule(n, k)
            rep.check("det t_1 on S_{n,k}", {"n": n, "k": k},
                      det(act(t1, module)), det_t1_closed_form(n, k))
    return rep


_AXIOM_TOTAL = 6
_NATURALITY_SIDE = 5
_CYCLIC_MAX = 5


def verify_twist_suite(max_n: int = 6) -> VerificationReport:
    rep = VerificationReport("twist")
    for n in range(2, max_n + 1):
        rep.extend(verify_centrality(n))
    rep.extend(verify_twist_axiom(_AXIOM_TOTAL))
    rep.extend(verify_twist_naturality_exhaustive(_NATURALITY_SIDE))
    for n in range(2, _CYCLIC_MAX + 1):
        rep.extend(verify_cyclic_lemma(n))
    for n in range(0, _CYCLIC_MAX + 1):
        rep.check(
            "c_n = y_n (both product forms)", {"n": n},
            twist_element(n), twist_element_reversed(n),
        )
    rep.extend(verify_gamma_consistency(max_n))
    rep.extend(verify_det_t1(min(max_n, 5)))
    return rep
