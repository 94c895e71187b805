"""Morphisms: formal linear combinations of planar diagrams.

A Morphism is a dict Diagram -> coefficient with all diagrams sharing
(dst, src, dilute).  Coefficients live in a CoeffDomain: symbolic Scalars
by default, or exact specialized values: a Rational at a rational point s0,
a CycloElement in Q(zeta_N).
Composition extends diagram gluing bilinearly, multiplying in one loop
weight beta per closed loop; dilute annihilated pairs contribute nothing.
It factors out the coefficients of the operand with fewer terms: for each
of its terms, the other operand's terms that glue onto one result diagram
are summed (each already times its beta power) before that coefficient
multiplies the sum once.
"""

from __future__ import annotations

import functools
import inspect
import re
from itertools import product as _iproduct
from types import MappingProxyType

from .diagram import (
    _TOO_MANY,
    MAX_NODES,
    VACANT,
    Diagram,
    InterfaceMismatch,
    dilute_diagram,
    e_diagram,
    identity_diagram,
)
from .scalar import Rational, Scalar, Specialization, parse_scalar

__all__ = [
    "CoeffDomain",
    "GENERIC",
    "domain_for",
    "require_generic",
    "Morphism",
    "identity",
    "e",
    "t",
    "t_inv",
    "big_cup",
    "cups",
    "big_cap",
    "dilute_identity",
    "dilute_end2",
    "dilute_sum",
    "dilute_eta11",
    "dilute_eta11_inverse",
    "on_strands",
    "word",
    "cached_morphism",
    "parse_morphism",
]


class CoeffDomain:
    """The coefficient ring: everything a Morphism needs to know about it.
    Its elements are Scalars over Q(s), Rationals at a rational point (s0
    becomes a Rational once, here) or CycloElements in Q(zeta_N)."""

    __slots__ = ("spec", "zero", "one", "_spow", "beta", "_beta_pows")

    def __init__(self, spec: Specialization):
        self.spec = spec
        if spec.kind == "generic":
            self._spow = Scalar.s_power
        elif spec.kind == "rational":
            s0 = Rational(spec.s0)
            self._spow = lambda k: s0**k
        else:
            from .cyclotomic import CycloField

            field = CycloField(spec.N)
            self._spow = field.zeta
        self.one = self._spow(0)
        self.zero = self.one - self.one
        self.beta = -self._spow(4) - self._spow(-4)
        self._beta_pows = [self.one, self.beta]

    def s_power(self, k: int):
        return self._spow(k)

    def beta_power(self, k: int):
        pows = self._beta_pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.beta)
        return pows[k]

    def __eq__(self, other):
        return isinstance(other, CoeffDomain) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"CoeffDomain({self.spec.describe()})"


GENERIC = CoeffDomain(Specialization.generic())

_domains = {Specialization.generic(): GENERIC}


def domain_for(spec: Specialization) -> CoeffDomain:
    if spec not in _domains:
        _domains[spec] = CoeffDomain(spec)
    return _domains[spec]


def require_generic(dom: CoeffDomain) -> None:
    """Raise ValueError unless dom is generic: the braid, dilute and
    integrable suites prove over Q(s) (with u, v, w), so at every point."""
    if dom.spec.kind != "generic":
        raise ValueError(f"this suite runs over Q(s) only, not at {dom.spec.describe()}")


class Morphism:
    __slots__ = ("dst", "src", "dilute", "terms", "dom")

    def __init__(self, dst, src, terms, dilute=False, dom=GENERIC, _clean=False):
        self.dst = dst
        self.src = src
        self.dilute = dilute
        self.dom = dom
        if _clean:
            self.terms = terms
        else:
            self.terms = {d: c for d, c in terms.items() if c}
            for d in self.terms:
                if d.dst != dst or d.src != src or d.dilute != dilute:
                    raise ValueError(f"term {d!r} does not live in {dst}<-{src}")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_diagram(d: Diagram, dom: CoeffDomain = GENERIC) -> "Morphism":
        return Morphism(d.dst, d.src, {d: dom.one}, d.dilute, dom, _clean=True)

    @staticmethod
    def zero(dst, src, dilute=False, dom: CoeffDomain = GENERIC) -> "Morphism":
        return Morphism(dst, src, {}, dilute, dom, _clean=True)

    # -- linear structure -------------------------------------------------------

    def _check_shape(self, other):
        if (
            self.dst != other.dst
            or self.src != other.src
            or self.dilute != other.dilute
            or self.dom != other.dom
        ):
            raise InterfaceMismatch("morphism shapes or domains differ")

    def __add__(self, other):
        self._check_shape(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            c2 = terms.get(d)
            c2 = c if c2 is None else c2 + c
            if c2:
                terms[d] = c2
            elif d in terms:
                del terms[d]
        return Morphism(self.dst, self.src, terms, self.dilute, self.dom, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Morphism(
            self.dst,
            self.src,
            {d: -c for d, c in self.terms.items()},
            self.dilute,
            self.dom,
            _clean=True,
        )

    def scale(self, c) -> "Morphism":
        if not c:
            return Morphism.zero(self.dst, self.src, self.dilute, self.dom)
        return Morphism(
            self.dst,
            self.src,
            {d: c * cd for d, cd in self.terms.items()},
            self.dilute,
            self.dom,
            _clean=True,
        )

    def __mul__(self, other):
        """f * g is composition f after g; scalars also accepted."""
        if isinstance(other, Morphism):
            return self.compose(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- multiplicative structure -------------------------------------------------

    def compose(self, other: "Morphism") -> "Morphism":
        if self.src != other.dst:
            raise InterfaceMismatch(
                f"compose: src {self.src} != dst {other.dst}"
            )
        dom = self.dom
        if self.dilute != other.dilute or (dom is not other.dom and dom != other.dom):
            raise InterfaceMismatch("compose: dilute flags or domains differ")
        one = dom.one
        beta_power = dom.beta_power
        glue = Diagram.compose
        # the outer loop runs over the operand with fewer terms
        left_outer = len(self.terms) <= len(other.terms)
        outer, inner = (self.terms, other.terms) if left_outer else (other.terms, self.terms)
        out: dict = {}
        for d1, c1 in outer.items():
            # sum c2 * beta^loops per result diagram, then multiply the
            # outer coefficient c1 in once
            groups: dict = {}
            for d2, c2 in inner.items():
                glued = glue(d1, d2) if left_outer else glue(d2, d1)
                if glued is None:
                    continue
                d, loops = glued
                if loops:
                    b = beta_power(loops)
                    c2 = b if c2 is one else c2 * b
                g = groups.get(d)
                groups[d] = c2 if g is None else g + c2
            for d, g in groups.items():
                if not g:
                    continue
                # a one-diagram morphism carries the unit: skip multiplying by it
                c = g if c1 is one else c1 if g is one else c1 * g
                c0 = out.get(d)
                c0 = c if c0 is None else c0 + c
                if c0:
                    out[d] = c0
                elif d in out:
                    del out[d]
        return Morphism(self.dst, other.src, out, self.dilute, dom, _clean=True)

    def tensor(self, other: "Morphism") -> "Morphism":
        if self.dilute != other.dilute or self.dom != other.dom:
            raise InterfaceMismatch("tensor: dilute flags or domains differ")
        one = self.dom.one
        out: dict = {}
        for (d1, c1), (d2, c2) in _iproduct(self.terms.items(), other.terms.items()):
            d = d1.tensor(d2)
            c = c2 if c1 is one else c1 if c2 is one else c1 * c2
            c0 = out.get(d)
            c0 = c if c0 is None else c0 + c
            if c0:
                out[d] = c0
            elif d in out:
                del out[d]
        return Morphism(
            self.dst + other.dst,
            self.src + other.src,
            out,
            self.dilute,
            self.dom,
            _clean=True,
        )

    def transpose(self) -> "Morphism":
        return Morphism(
            self.src,
            self.dst,
            {d.transpose(): c for d, c in self.terms.items()},
            self.dilute,
            self.dom,
            _clean=True,
        )

    # -- predicates -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.dst == other.dst
            and self.src == other.src
            and self.dilute == other.dilute
            and self.dom == other.dom
            and self.terms == other.terms
        )

    # -- text form ----------------------------------------------------------------------

    def to_text(self) -> str:
        tag = "d" if self.dilute else ""
        head = f"{self.dst}<-{self.src}{tag} : "
        if not self.terms:
            return head + "0"
        parts = [
            f"[{c}] * {d.to_text()}"
            for d, c in sorted(self.terms.items(), key=lambda kv: kv[0].key())
        ]
        return head + " + ".join(parts)

    def __repr__(self):
        return f"Morphism({self.to_text()})"


def cached_morphism(maxsize: int):
    """Memoise a builder of structural morphisms in a bounded LRU cache.

    The key is the call's full argument tuple, in parameter order with
    defaults filled in, so the keyword and positional forms of one call
    share an entry; every argument must be hashable and immutable.  The
    parameter names and defaults are read once, here, so a call binds its
    arguments without inspect.  A cached morphism's terms are made
    read-only, because every caller receives the same object."""

    def decorate(build):
        params = inspect.signature(build).parameters.values()
        if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
            raise TypeError(f"{build.__name__}: only plain parameters can key a cache")
        names = tuple(p.name for p in params)
        defaults = tuple(p.default for p in params)
        index = {name: i for i, name in enumerate(names)}
        nparams = len(names)
        empty = inspect.Parameter.empty

        @functools.lru_cache(maxsize=maxsize)
        def cached(*key):
            m = build(*key)
            m.terms = MappingProxyType(m.terms)
            return m

        @functools.wraps(build)
        def builder(*args, **kwargs):
            if kwargs or len(args) != nparams:
                if len(args) > nparams:
                    raise TypeError(f"{build.__name__}() takes {nparams} arguments, "
                                    f"{len(args)} given")
                key = list(args) + list(defaults[len(args):])
                for name, value in kwargs.items():
                    i = index.get(name)
                    if i is None:
                        raise TypeError(f"{build.__name__}() got an unexpected "
                                        f"keyword argument {name!r}")
                    if i < len(args):
                        raise TypeError(f"{build.__name__}() got multiple values "
                                        f"for argument {name!r}")
                    key[i] = value
                missing = [n for n, v in zip(names, key) if v is empty]
                if missing:
                    raise TypeError(f"{build.__name__}() missing arguments: "
                                    + ", ".join(missing))
                args = key
            return cached(*args)

        builder.cache_info = cached.cache_info
        return builder

    return decorate


# the text form of to_text: {m}<-{n}[d] : 0 or {m}<-{n}[d] : [c] * diagram + ...
_TEXT = r"(?s)\s*(\d+)\s*<-\s*(\d+)\s*(d?)\s*:\s*(.*?)\s*"
_TERM = r"(?s)\[([^\[\]]*)\]\s*\*\s*(.*)"


def parse_morphism(text: str) -> Morphism:
    """Inverse of to_text for generic-domain morphisms.  Malformed text
    raises ValueError."""
    match = re.fullmatch(_TEXT, text)
    if not match:
        raise ValueError(f"bad morphism text {text!r}")
    dst, src, dilute, body = match.groups()
    dst, src, dilute = int(dst), int(src), dilute == "d"
    if dst + src > MAX_NODES:
        raise ValueError(_TOO_MANY.format(dst + src))
    if body == "0":
        return Morphism.zero(dst, src, dilute)
    terms = {}
    # split only at term boundaries: a '+' followed by a new '[coeff]'
    # (coefficients themselves may contain ' + ')
    for chunk in re.split(r" \+ (?=\[)", body):
        term = re.fullmatch(_TERM, chunk)
        if not term:
            raise ValueError(f"bad term {chunk!r}")
        coeff = parse_scalar(term[1])
        diag = Diagram.from_text(term[2])
        terms[diag] = terms[diag] + coeff if diag in terms else coeff
    return Morphism(dst, src, terms, dilute)


# ---------------------------------------------------------------------------
# generators


def identity(n: int, dilute: bool = False, dom: CoeffDomain = GENERIC) -> Morphism:
    if dilute:
        return dilute_identity(n, dom)
    return Morphism.from_diagram(identity_diagram(n), dom)


def e(i: int, n: int, dom: CoeffDomain = GENERIC) -> Morphism:
    return Morphism.from_diagram(e_diagram(i, n), dom)


def on_strands(local: Morphism, i: int, n: int) -> Morphism:
    """The End(2) morphism local placed on strands i, i+1 of n, with the
    identity of its own strand family on the other strands."""
    if not 1 <= i < n:
        raise ValueError(f"strand index {i} out of range for {n} strands")
    out = local
    if i > 1:
        out = identity(i - 1, local.dilute, local.dom).tensor(out)
    if i + 1 < n:
        out = out.tensor(identity(n - i - 1, local.dilute, local.dom))
    return out


def word(factors, n: int, dilute: bool = False, dom: CoeffDomain = GENERIC) -> Morphism:
    """The product f_1 f_2 ... f_k in End(n), leftmost factor first, built
    from the right: f_1 (f_2 (... f_k)).  The empty word is the identity of
    its strand family; a non-empty word never starts from an identity,
    which on n dilute strands has 2^n terms."""
    out = None
    for f in reversed(factors):
        out = f if out is None else f.compose(out)
    return identity(n, dilute, dom) if out is None else out


def t(i: int, n: int, dom: CoeffDomain = GENERIC, dilute: bool = False) -> Morphism:
    """Elementary crossing q^(1/2) (1_n + q^(-1) e_i); on dilute strands,
    the five-diagram eta_{1,1} on strands i, i+1."""
    if dilute:
        return on_strands(dilute_eta11(dom), i, n)
    terms = {
        identity_diagram(n): dom.s_power(2),
        e_diagram(i, n): dom.s_power(-2),
    }
    return Morphism(n, n, terms, False, dom, _clean=True)


def t_inv(i: int, n: int, dom: CoeffDomain = GENERIC, dilute: bool = False) -> Morphism:
    """Inverse crossing q^(-1/2) (1_n + q e_i); on dilute strands, the
    inverse of eta_{1,1} on strands i, i+1."""
    if dilute:
        return on_strands(dilute_eta11_inverse(dom), i, n)
    terms = {
        identity_diagram(n): dom.s_power(-2),
        e_diagram(i, n): dom.s_power(2),
    }
    return Morphism(n, n, terms, False, dom, _clean=True)


def big_cup(m: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """Nested cups in Hom(0,2m): node i arcs to node 2m+1-i."""
    return Morphism.from_diagram(Diagram.from_link(2 * m, 0, range(2 * m - 1, -1, -1)), dom)


def cups(p: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """The p-fold cup z^p in Hom(0,2p): pairs (1,2), (3,4), ..., (2p-1,2p)."""
    return Morphism.from_diagram(Diagram.from_link(2 * p, 0, [i ^ 1 for i in range(2 * p)]), dom)


def big_cap(m: int, dom: CoeffDomain = GENERIC) -> Morphism:
    return big_cup(m, dom).transpose()


def dilute_identity(n: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """The dilute unit: sum over all occupation patterns of parallel strands."""
    terms = {}
    for mask in range(1 << n):
        link = [VACANT] * (2 * n)
        for i in range(n):
            if mask >> i & 1:
                link[i] = 2 * n - 1 - i
                link[2 * n - 1 - i] = i
        terms[Diagram.from_link(n, n, link, True)] = dom.one
    return Morphism(n, n, terms, True, dom, _clean=True)


def dilute_end2(coeffs: dict, dom: CoeffDomain = GENERIC) -> Morphism:
    """The dilute End(2) morphism with coefficient coeffs[name] on the
    diagram dilute_diagram(name)."""
    terms = {dilute_diagram(name): c for name, c in coeffs.items()}
    return Morphism(2, 2, terms, True, dom)


def dilute_sum(dst: int, src: int, pair_sets) -> Morphism:
    """The sum, with coefficient one, of the dilute diagrams in Hom(src, dst)
    whose arcs are each listed set of node pairs."""
    terms = {Diagram.from_pairs(dst, src, pairs, dilute=True): GENERIC.one for pairs in pair_sets}
    return Morphism(dst, src, terms, True)


def dilute_eta11(dom: CoeffDomain = GENERIC) -> Morphism:
    """The elementary dilute braiding:
    q^{1/2} parallel + q^{-1/2} cup-cap + both diagonals + all-vacant."""
    one = dom.one
    return dilute_end2({
        "parallel": dom.s_power(2),
        "cupcap": dom.s_power(-2),
        "diag-down": one,
        "diag-up": one,
        "vacant": one,
    }, dom)


def dilute_eta11_inverse(dom: CoeffDomain = GENERIC) -> Morphism:
    one = dom.one
    return dilute_end2({
        "parallel": dom.s_power(-2),
        "cupcap": dom.s_power(2),
        "diag-down": one,
        "diag-up": one,
        "vacant": one,
    }, dom)
