"""Morphisms: formal linear combinations of planar diagrams.

A Morphism maps each Diagram to a nonzero coefficient, with all diagrams
sharing (dst, src, dilute).  It is an immutable value, as a Diagram is: a
tuple of dst, src, dilute, dom and a read-only view of its terms, so a
cache (crossing_word, the face weights) hands one morphism to every
caller.  Its CoeffDomain is read-only too.  Morphism(...) is the one public
constructor, and it checks its terms; the builders here go through
_morphism, which takes a finished dict over unchecked.  An ordinary
morphism is a dilute one whose every node is occupied: identity is the sum
over the family's occupation patterns, which is the one full pattern on
ordinary strands.

Coefficients live in a CoeffDomain: symbolic Scalars by default, or exact
specialized values: a Rational at a rational point s0, a CycloElement in
Q(zeta_N).
Composition extends diagram gluing bilinearly, multiplying in one loop
weight beta per closed loop; dilute annihilated pairs contribute nothing.
So on dilute strands it never forms them: it buckets the inner operand's
terms once per call by the vacancy pattern of the shared column, read in
the kernel's junction convention, and pairs each outer term with the
bucket of its own pattern only.  An ordinary column has no vacancies, so
the whole inner operand is one bucket and no key is computed.
It factors out the coefficients of the operand with fewer terms: for each
of its terms, the other operand's terms that glue onto one result diagram
are summed (each already times its beta power) before that coefficient
multiplies the sum once.
"""

from __future__ import annotations

import functools
import re
from itertools import product as _iproduct
from types import MappingProxyType
from typing import NamedTuple

from .diagram import (
    _TOO_MANY,
    MAX_NODES,
    VACANT,
    Diagram,
    InterfaceMismatch,
    _source_vacancies,
    _target_vacancies,
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
    "dilute_end2",
    "on_strands",
    "word",
    "crossing_word",
    "parse_morphism",
]


class _DomainFields(NamedTuple):
    spec: Specialization
    zero: object
    one: object
    beta: object
    s_power: object  # the map k -> s^k
    beta_pows: list  # beta^0, beta^1, ..., grown by beta_power


class CoeffDomain(_DomainFields):
    """The coefficient ring: everything a Morphism needs to know about it.
    Its elements are Scalars over Q(s), Rationals at a rational point (s0
    becomes a Rational once, here) or CycloElements in Q(zeta_N).  An
    immutable tuple that equals and hashes by its spec, as domain_for shares it."""

    __slots__ = ()
    _replace = _make = __replace__ = None

    def __new__(cls, spec: Specialization):
        if spec.kind == "generic":
            spow = Scalar.s_power
        elif spec.kind == "rational":
            spow = Rational(spec.s0).__pow__
        else:
            from .cyclotomic import CycloField
            spow = CycloField(spec.N).zeta
        one, beta = spow(0), -spow(4) - spow(-4)
        return tuple.__new__(cls, (spec, one - one, one, beta, spow, [one, beta]))

    def __getnewargs__(self):
        return (self.spec,)

    def beta_power(self, k: int):
        pows = self.beta_pows
        while len(pows) <= k:
            pows.append(pows[-1] * self.beta)
        return pows[k]

    def __eq__(self, other):
        return isinstance(other, CoeffDomain) and self.spec == other.spec

    def __ne__(self, other):  # tuple's own != would compare every field
        return not self == other

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"CoeffDomain({self.spec.describe()})"


# bounded: a rebuilt domain equals an evicted one, and compose falls back to
# equality, so morphisms over the two mix
domain_for = functools.lru_cache(maxsize=32)(CoeffDomain)

GENERIC = domain_for(Specialization.generic())


def require_generic(dom: CoeffDomain) -> None:
    """Raise ValueError unless dom is generic: the braid, dilute and
    integrable suites prove over Q(s) (with u, v, w), so at every point."""
    if dom.spec.kind != "generic":
        raise ValueError(f"this suite runs over Q(s) only, not at {dom.spec.describe()}")


class _MorphismFields(NamedTuple):
    dst: int
    src: int
    dilute: bool
    dom: CoeffDomain
    # last, so tuple equality compares the cheap fields first
    terms: MappingProxyType


class Morphism(_MorphismFields):
    """An immutable value, as a Diagram is: a tuple of its fields, whose
    terms is a read-only mapping Diagram -> nonzero coefficient.  The
    constructor checks its terms; the library's own builders go through the
    unchecked _morphism.  The tuple's own builders, which would skip the
    check, raise TypeError."""

    __slots__ = ()
    # equality is the tuple's; a morphism keys no cache
    __hash__ = None
    _replace = _make = __replace__ = None

    def __new__(cls, dst, src, terms, dilute=False, dom=GENERIC):
        clean = {d: c for d, c in terms.items() if c}
        for d in clean:
            if d.dst != dst or d.src != src or d.dilute != dilute:
                raise ValueError(f"term {d!r} does not live in {dst}<-{src}")
        return _morphism(dst, src, clean, dilute, dom)

    def __getnewargs__(self):
        # copy.copy rebuilds through __new__: its arguments in its order
        return self.dst, self.src, self.terms, self.dilute, self.dom

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_diagram(d: Diagram, dom: CoeffDomain = GENERIC) -> "Morphism":
        return _morphism(d.dst, d.src, {d: dom.one}, d.dilute, dom)

    @staticmethod
    def zero(dst, src, dilute=False, dom: CoeffDomain = GENERIC) -> "Morphism":
        return _morphism(dst, src, {}, dilute, dom)

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
        # a copy of the proxy: dict(proxy) would take the generic mapping path
        terms = self.terms.copy()
        for d, c in other.terms.items():
            c2 = terms.get(d)
            c2 = c if c2 is None else c2 + c
            if c2:
                terms[d] = c2
            elif d in terms:
                del terms[d]
        return _morphism(self.dst, self.src, terms, self.dilute, self.dom)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _morphism(self.dst, self.src, {d: -c for d, c in self.terms.items()},
                         self.dilute, self.dom)

    def scale(self, c) -> "Morphism":
        if not c:
            return Morphism.zero(self.dst, self.src, self.dilute, self.dom)
        return _morphism(self.dst, self.src, {d: c * cd for d, cd in self.terms.items()},
                         self.dilute, self.dom)

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
        buckets = None
        if self.dilute:
            # a string end meeting a vacancy kills the pair: bucket the inner
            # terms by the vacancies of the shared column, and pair each outer
            # term with its own bucket only, so every pair sent glues
            if left_outer:
                outer_key, inner_key = _source_vacancies, _target_vacancies
            else:
                outer_key, inner_key = _target_vacancies, _source_vacancies
            buckets = {}
            for item in inner.items():
                buckets.setdefault(inner_key(item[0]), []).append(item)
        out: dict = {}
        for d1, c1 in outer.items():
            # an ordinary column has no vacancies: the whole inner operand
            partners = inner.items() if buckets is None else buckets.get(outer_key(d1), ())
            # sum c2 * beta^loops per result diagram, then multiply the
            # outer coefficient c1 in once
            groups: dict = {}
            for d2, c2 in partners:
                d, loops = glue(d1, d2) if left_outer else glue(d2, d1)
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
        return _morphism(self.dst, other.src, out, self.dilute, dom)

    # f * g is f after g, the same function, so a tracer of compose sees both;
    # scale is the one scalar multiple, and 2 * f is no tuple repeat
    __mul__ = compose
    __rmul__ = None

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
        return _morphism(self.dst + other.dst, self.src + other.src, out, self.dilute, self.dom)

    def transpose(self) -> "Morphism":
        return _morphism(self.src, self.dst, {d.transpose(): c for d, c in self.terms.items()},
                         self.dilute, self.dom)

    # -- predicates -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


def _morphism(dst, src, terms: dict, dilute: bool, dom: CoeffDomain) -> Morphism:
    """The Morphism with the given terms, unchecked: every coefficient is
    nonzero and every diagram lives in Hom(src, dst) of the family.  It
    takes the dict over, behind a read-only view."""
    return tuple.__new__(Morphism, (dst, src, dilute, dom, MappingProxyType(terms)))


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
    """The unit of End(n): the sum of parallel strands over every occupation
    pattern of the family.  Dilute strands take every mask of occupied
    strands; ordinary strands only the full one."""
    full = (1 << n) - 1
    terms = {}
    for mask in range(0 if dilute else full, full + 1):
        link = [VACANT] * (2 * n)
        for i in range(n):
            if mask >> i & 1:
                link[i] = 2 * n - 1 - i
                link[2 * n - 1 - i] = i
        terms[Diagram.from_link(n, n, link, dilute)] = dom.one
    return _morphism(n, n, terms, dilute, dom)


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
    the five-diagram eta_{1,1} = t(1, 2, dom, dilute=True) on strands i, i+1."""
    if dilute:
        return _dilute_crossing(i, n, dom, 2)
    terms = {
        identity_diagram(n): dom.s_power(2),
        e_diagram(i, n): dom.s_power(-2),
    }
    return _morphism(n, n, terms, False, dom)


def t_inv(i: int, n: int, dom: CoeffDomain = GENERIC, dilute: bool = False) -> Morphism:
    """Inverse crossing q^(-1/2) (1_n + q e_i); on dilute strands, the
    inverse of eta_{1,1} on strands i, i+1."""
    if dilute:
        return _dilute_crossing(i, n, dom, -2)
    terms = {
        identity_diagram(n): dom.s_power(-2),
        e_diagram(i, n): dom.s_power(2),
    }
    return _morphism(n, n, terms, False, dom)


def _dilute_crossing(i: int, n: int, dom: CoeffDomain, k: int) -> Morphism:
    """s^k parallel + s^-k cup-cap + both diagonals + all-vacant on strands
    i, i+1 of n dilute strands: eta_{1,1} for k = 2, its inverse for k = -2."""
    one = dom.one
    return on_strands(dilute_end2({
        "parallel": dom.s_power(k),
        "cupcap": dom.s_power(-k),
        "diag-down": one,
        "diag-up": one,
        "vacant": one,
    }, dom), i, n)


@functools.lru_cache(maxsize=256)
def crossing_word(indices: tuple, n: int, dom: CoeffDomain, dilute: bool,
                  inverse: bool, s_exp: int, /) -> Morphism:
    """s^s_exp times the word of the crossings t_k (t_k^-1 if inverse) for k
    in indices, leftmost first, on n strands of either family.  The
    commutor, its inverse, the double braiding and the twist are each one
    such word, built once per key and shared by every caller, as every
    Morphism is read-only; the parameters are positional-only, so a word has
    one key."""
    cross = t_inv if inverse else t
    m = word([cross(k, n, dom, dilute) for k in indices], n, dilute, dom)
    if s_exp:
        m = m.scale(dom.s_power(s_exp))
    return m


def big_cup(m: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """Nested cups in Hom(0,2m): node i arcs to node 2m+1-i."""
    return Morphism.from_diagram(Diagram.from_link(2 * m, 0, range(2 * m - 1, -1, -1)), dom)


def cups(p: int, dom: CoeffDomain = GENERIC) -> Morphism:
    """The p-fold cup z^p in Hom(0,2p): pairs (1,2), (3,4), ..., (2p-1,2p)."""
    return Morphism.from_diagram(Diagram.from_link(2 * p, 0, [i ^ 1 for i in range(2 * p)]), dom)


def big_cap(m: int, dom: CoeffDomain = GENERIC) -> Morphism:
    return big_cup(m, dom).transpose()


def dilute_end2(coeffs: dict, dom: CoeffDomain = GENERIC) -> Morphism:
    """The dilute End(2) morphism with coefficient coeffs[name] on the
    diagram dilute_diagram(name)."""
    terms = {dilute_diagram(name): c for name, c in coeffs.items()}
    return Morphism(2, 2, terms, True, dom)
