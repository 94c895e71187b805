"""Standard modules as explicit matrix representations, the Jones-Wenzl
style projector, and the diagrammatic rigidity identities.

S_{n,k} is spanned by the (n,k)-diagrams with exactly k through lines,
viewed in Hom(k, n).  A morphism acts by composition on the left; any term
whose through-line count drops below k is discarded.  The regular module
(End(n) acting on its own diagram basis) uses plain composition with loop
weights and no truncation; fusion at roots of unity needs it.
"""

from __future__ import annotations

from math import comb, gcd

from .diagram import Diagram, enumerate_diagrams
from .linalg import rank
from .morphism import GENERIC, CoeffDomain, Morphism, big_cap, big_cup, domain_for, e, identity
from .report import VerificationReport
from .scalar import PoleAtSpecialization, Specialization

__all__ = [
    "StandardModule",
    "RegularModule",
    "standard_dimension",
    "act",
    "eigenvalue_on_standard",
    "NotScalarAction",
    "wenzl_jones",
    "verify_rigidity",
    "annihilated_line_dimension",
]


class NotScalarAction(ValueError):
    """A claimed central element did not act as a multiple of the identity."""


def standard_dimension(n: int, k: int) -> int:
    """dim S_{n,k}; ValueError unless 0 <= k <= n and n - k is even."""
    if not 0 <= k <= n or (n - k) % 2:
        raise ValueError(f"no standard module S_{n},{k}")
    p = (n - k) // 2
    return comb(n, p) - (comb(n, p - 1) if p >= 1 else 0)


class StandardModule:
    """S_{n,k}: span of (n,k)-diagrams with exactly k through lines."""

    def __init__(self, n: int, k: int, dom: CoeffDomain = GENERIC):
        standard_dimension(n, k)  # checks the label
        self.n = n
        self.k = k
        self.dom = dom
        self.basis = [
            d for d in enumerate_diagrams(k, n) if d.through == k
        ]
        self._index = {d: i for i, d in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act_on_element(self, f: Morphism, v: Diagram) -> dict:
        """Column of f acting on the diagram v, as index in this module's
        basis -> coefficient.  Terms that lose through lines are dropped
        when the module has a through-line count k (k is None for the
        regular module, which keeps every term)."""
        image = f.compose(Morphism.from_diagram(v, self.dom))
        return {
            self._index[d]: c
            for d, c in image.terms.items()
            if self.k is None or d.through == self.k
        }

    def __repr__(self):
        return f"StandardModule(S_{self.n},{self.k}, dim={self.dim})"


class RegularModule:
    """End(n) as a left module over itself, on the diagram basis."""

    def __init__(self, n: int, dom: CoeffDomain = GENERIC):
        self.n = n
        self.k = None
        self.dom = dom
        self.basis = enumerate_diagrams(n, n)
        self._index = {d: i for i, d in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    act_on_element = StandardModule.act_on_element

    def __repr__(self):
        return f"RegularModule(End({self.n}), dim={self.dim})"


def act(f: Morphism, module) -> list:
    """Matrix of f in End(n) on a module over TL_n - standard, regular or
    fused: anything with n, dim, basis and act_on_element.  Row i is
    {j: the i-th coordinate of f on basis element j}, nonzeros only."""
    if f.src != module.n or f.dst != module.n:
        raise ValueError(f"morphism {f.dst}<-{f.src} is not in End({module.n})")
    mat: list = [{} for _ in range(module.dim)]
    for j, v in enumerate(module.basis):
        for i, coeff in module.act_on_element(f, v).items():
            mat[i][j] = coeff
    return mat


def eigenvalue_on_standard(central: Morphism, module: StandardModule):
    """The scalar by which a central element acts; NotScalarAction otherwise."""
    mat = act(central, module)
    if not mat:
        raise NotScalarAction("module is zero-dimensional")
    lam = mat[0].get(0, module.dom.zero)
    for i, row in enumerate(mat):
        expect = {i: lam} if lam else {}
        if row != expect:
            j = min(c for c in row.keys() | expect.keys() if row.get(c) != expect.get(c))
            raise NotScalarAction(f"matrix is not scalar at entry ({i},{j})")
    return lam


# ---------------------------------------------------------------------------
# the projector


def wenzl_jones(m: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """The idempotent in End(m) killed by every e_i, built recursively;
    the recursion coefficient is solved exactly from the annihilation
    condition at each step rather than taken from any closed form."""
    if m < 0:
        raise ValueError("need m >= 0")
    if m <= 1:
        return identity(m, dom=dom)
    wj = identity(1, dom=dom)
    for size in range(2, m + 1):
        w1 = wj.tensor(identity(1, dom=dom))
        em = e(size - 1, size, dom)
        a = em.compose(w1)
        b = a.compose(em).compose(w1)
        # b must be a scalar multiple of a; that scalar's inverse is the
        # recursion coefficient, and it vanishing signals a root of unity
        d0, c0 = next(iter(a.terms.items()))
        num = b.terms.get(d0)
        if not num:
            raise PoleAtSpecialization(
                f"projector recursion breaks at size {size}: quantum integer vanishes"
            )
        ratio = num / c0
        if b != a.scale(ratio):
            raise AssertionError("projector recursion lost proportionality")
        wj = w1 - w1.compose(em).compose(w1).scale(1 / ratio)
    return wj


def _flip(mat: list, module: RegularModule) -> list:
    """mat with its rows and columns renumbered by transposing the basis
    diagrams: the left action of f becomes the right action of f^t,
    because x f^t = (f x^t)^t."""
    flip = [module._index[d.transpose()] for d in module.basis]
    # transposing twice gives the diagram back, so flip is its own inverse
    return [{flip[b]: x for b, x in mat[a].items()} for a in flip]


def annihilated_line_dimension(m: int, spec: Specialization | None = None) -> int:
    """Dimension of {x in End(m) : e_i x = x e_i = 0 for all i}.

    Symbolic for the generic specialization; callers wanting speed pass a
    rational point.
    """
    module = RegularModule(m, domain_for(spec or Specialization.generic()))
    rows = []
    for i in range(1, m):
        # e_i is its own transpose, so x e_i is read off e_i x
        left = act(e(i, m, module.dom), module)
        rows += left + _flip(left, module)
    return module.dim - rank(rows, module.dim)


def verify_rigidity(m: int, dom: CoeffDomain = GENERIC) -> VerificationReport:
    """Zig-zag identities and, where the projector exists, the
    projector-decorated zig-zag; where it must not, its pole."""
    rep = VerificationReport("repr.rigidity")
    one_m = identity(m, dom=dom)
    cup = big_cup(m, dom)
    cap = big_cap(m, dom)
    rep.check(
        "zig-zag left", {"m": m},
        one_m.tensor(cap).compose(cup.tensor(one_m)), one_m,
    )
    rep.check(
        "zig-zag right", {"m": m},
        cap.tensor(one_m).compose(one_m.tensor(cup)), one_m,
    )
    # P_m exists iff [k]_q != 0 for every k <= m.  At s = zeta_N the least
    # such k is ell = N / gcd(N, 8), the order of q^2 = s^8, unless q^2 = 1
    # (then [k]_q = +-k); no [k]_q vanishes at a generic or rational point.
    ell = dom.spec.N // gcd(dom.spec.N, 8) if dom.spec.kind == "cyclotomic" else 1
    pole = 1 < ell <= m
    try:
        wj = wenzl_jones(m, dom)
    except PoleAtSpecialization as exc:
        witness = {"vanishing": f"[{ell}]_q"} if pole else {"error": str(exc)}
        rep.add("projector existence", {"m": m}, pole, witness)
        return rep
    if pole:
        rep.add("projector existence", {"m": m}, False,
                {"error": f"projector built although [{ell}]_q = 0"})
        return rep
    decorated_cap = cap.compose(wj.tensor(wj))
    rep.check(
        "projector zig-zag", {"m": m},
        one_m.tensor(decorated_cap).compose(cup.tensor(one_m)), wj,
    )
    rep.check("projector idempotent", {"m": m}, wj.compose(wj), wj)
    rep.check("projector transpose-symmetric", {"m": m}, wj.transpose(), wj)
    ok = True
    for i in range(1, m):
        ei = e(i, m, dom)
        if not ei.compose(wj).is_zero or not wj.compose(ei).is_zero:
            ok = False
    rep.add("projector annihilation", {"m": m}, ok)
    return rep
