"""Planar diagrams: the basis objects of every Hom-space.

A Diagram with dst = m, src = n pairs up the m + n boundary nodes of a
rectangle.  Nodes are numbered 1..m down the left column and m+1..m+n up
the right column, so the numbering runs once around the boundary and
planarity is the classical no-interleaving test on a line: no two pairs
(a,b), (c,d) with a < c < b < d.

Dilute diagrams additionally allow vacancies: nodes carrying no string.
Composing a string end onto a vacancy annihilates the whole composite, so
gluing returns either (diagram, loops) or None.

A diagram is an immutable value (a NamedTuple), so it can key the gluing
cache and the terms of a Morphism.  Internally it stores a 0-based link
table as bytes, whose hash Python caches, with VACANT (255) marking a
vacancy; so a diagram has at most MAX_NODES (255) boundary nodes, and every
constructor that packs a link checks that.  The public pairing view is
1-based to match the text serialization {m}x{n}:[(a,b),...].

Diagram.compose is the gluing cache itself: the lru_cache of the kernel
_compose_cached, which also checks the interface.  A mismatched pair
raises on every call and is never stored.  The kernel still returns None
for a dilute pair whose shared column has unequal vacancies, but
Morphism.compose never asks for one: it pairs terms by the vacancy keys
_source_vacancies and _target_vacancies, which read the column in the
kernel's junction convention.

An ordinary diagram is a dilute one with every node occupied, so
enumeration is one loop over the subsets of occupied nodes: a dilute
Hom-space takes every even subset, an ordinary one only the subset of all
nodes.  Every enumerated diagram is packed by the checked from_link, so a
Hom-space past MAX_NODES raises at its first diagram.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

__all__ = [
    "Diagram",
    "InterfaceMismatch",
    "identity_diagram",
    "e_diagram",
    "dilute_diagram",
    "enumerate_diagrams",
    "KERNEL",
    "MAX_NODES",
    "VACANT",
]

# the composition kernel in use (pure Python; reported in benchmark output)
KERNEL = "python"

# the link value of a vacancy; a byte indexes the nodes 0..MAX_NODES-1
VACANT = 255
MAX_NODES = 255
_TOO_MANY = f"a diagram has at most {MAX_NODES} boundary nodes, not {{}}"


# the text form {m}x{n}[d]:[(a,b),...], with spaces between tokens; re
# compiles each pattern on first use
_PAIR_TEXT = r"\(\s*\d+\s*,\s*\d+\s*\)"
_PAIRS_TEXT = rf"(?:{_PAIR_TEXT}(?:\s*,\s*{_PAIR_TEXT})*)?"
_TEXT = rf"\s*(\d+)\s*x\s*(\d+)\s*(d?)\s*:\s*\[\s*({_PAIRS_TEXT})\s*\]\s*"
_PAIR = r"(\d+)\s*,\s*(\d+)"


class InterfaceMismatch(ValueError):
    """Composition attempted across unequal middle node counts."""


class Diagram(NamedTuple):
    """A planar diagram in Hom(src, dst).  The link table pairs the boundary
    nodes 0..(dst+src-1): link[i] is the partner of node i, or VACANT for a
    vacancy (dilute only)."""

    dst: int
    src: int
    link: bytes
    dilute: bool = False

    @staticmethod
    def from_link(dst: int, src: int, link, dilute: bool = False) -> "Diagram":
        """The diagram of a 0-based link sequence (VACANT for a vacancy),
        checked only for at most MAX_NODES nodes."""
        if len(link) > MAX_NODES:
            raise ValueError(_TOO_MANY.format(len(link)))
        return Diagram(dst, src, bytes(link), dilute)

    @staticmethod
    def from_pairs(dst: int, src: int, pairs, dilute: bool = False) -> "Diagram":
        total = dst + src
        if total > MAX_NODES:
            raise ValueError(_TOO_MANY.format(total))
        link = [VACANT] * total
        for a, b in pairs:
            if not (1 <= a <= total and 1 <= b <= total) or a == b:
                raise ValueError(f"bad pair ({a},{b}) for {dst}x{src}")
            if link[a - 1] != VACANT or link[b - 1] != VACANT:
                raise ValueError(f"node reused in pair ({a},{b})")
            link[a - 1] = b - 1
            link[b - 1] = a - 1
        if not dilute and VACANT in link:
            raise ValueError("non-dilute diagram must pair every node")
        d = Diagram(dst, src, bytes(link), dilute)
        d._check_planar()
        return d

    def _check_planar(self):
        ps = self.pairs()
        for i, (a, b) in enumerate(ps):
            for c, d in ps[i + 1:]:
                if a < c < b < d or c < a < d < b:
                    raise ValueError(f"pairs ({a},{b}) and ({c},{d}) cross")

    # -- views ----------------------------------------------------------------

    def pairs(self) -> tuple:
        """Sorted 1-based pairs; the canonical key for basis ordering."""
        out = []
        for i, j in enumerate(self.link):
            if i < j != VACANT:
                out.append((i + 1, j + 1))
        return tuple(sorted(out))

    def vacancies(self) -> tuple:
        return tuple(i + 1 for i, j in enumerate(self.link) if j == VACANT)

    @property
    def through(self) -> int:
        m = self.dst
        return sum(1 for i, j in enumerate(self.link) if i < m <= j != VACANT)

    # -- operations -------------------------------------------------------------

    # compose(other), self after other, is the gluing cache: it is set to
    # _compose_cached below the kernel

    def tensor(self, other: "Diagram") -> "Diagram":
        """Stack self on top of other."""
        if self.dilute != other.dilute:
            raise InterfaceMismatch("cannot mix dilute and ordinary diagrams")
        m1, n1, m2, n2 = self.dst, self.src, other.dst, other.src
        dst, src = m1 + m2, n1 + n2
        link = [VACANT] * (dst + src)

        def shift1(i):  # self keeps the top block of both columns
            return i if i < m1 else i + m2 + n2

        for i, j in enumerate(self.link):
            if j != VACANT:
                link[shift1(i)] = shift1(j)
        # other sits below on the left, before self on the right
        for i, j in enumerate(other.link):
            if j != VACANT:
                link[i + m1] = j + m1
        return Diagram.from_link(dst, src, link, self.dilute)

    def transpose(self) -> "Diagram":
        """Reflect through a vertical axis, swapping source and destination."""
        m, n = self.dst, self.src
        total = m + n
        # with the numbering running once around the boundary, reflection at
        # the same height is exactly reversal of the numbering
        link = [VACANT] * total
        for i, j in enumerate(self.link):
            if j != VACANT:
                link[total - 1 - i] = total - 1 - j
        return Diagram.from_link(n, m, link, self.dilute)

    # -- text form ----------------------------------------------------------------

    def to_text(self) -> str:
        tag = "d" if self.dilute else ""
        body = ",".join(f"({a},{b})" for a, b in self.pairs())
        return f"{self.dst}x{self.src}{tag}:[{body}]"

    @staticmethod
    def from_text(text: str) -> "Diagram":
        """Inverse of to_text: {m}x{n}[d]:[(a,b),...], with spaces between
        tokens but never inside a number; from_pairs checks the pairing."""
        match = re.fullmatch(_TEXT, text)
        if not match:
            raise ValueError(f"bad diagram text {text!r}")
        m, n, dilute, body = match.groups()
        pairs = [(int(a), int(b)) for a, b in re.findall(_PAIR, body)]
        return Diagram.from_pairs(int(m), int(n), pairs, dilute == "d")

    # -- plumbing ------------------------------------------------------------------

    def key(self):
        return (self.pairs(), self.vacancies())

    def __repr__(self):
        return f"Diagram({self.to_text()})"


# ---------------------------------------------------------------------------
# the composition kernel


@lru_cache(maxsize=1 << 18)
def _compose_cached(c: Diagram, b: Diagram):
    """c after b: glue c's source column onto b's destination, keyed on the
    two diagrams.  This is Diagram.compose.

    Returns (glued Diagram, closed loop count), or None when a string end
    meets a vacancy, which kills the whole composite; a cache hit returns
    the stored result itself.  Raises InterfaceMismatch (never stored) when
    c's source and b's destination differ or the strand families do.

    c's right column runs bottom to top, b's left column top to bottom, so
    middle height r joins c node kdst+r with b node mid-1-r.
    """
    if c.src != b.dst:
        raise InterfaceMismatch(f"cannot compose: src {c.src} != dst {b.dst}")
    if c.dilute != b.dilute:
        raise InterfaceMismatch("cannot mix dilute and ordinary diagrams")
    kdst, mid, nsrc = c.dst, c.src, b.src
    c_link, b_link = c.link, b.link
    for r in range(mid):
        if (c_link[kdst + r] == VACANT) != (b_link[mid - 1 - r] == VACANT):
            return None

    total = kdst + nsrc
    out = [-1] * total  # -1: not reached yet
    seen_c = [False] * mid  # middle junctions visited from the boundary

    for start in range(total):
        if out[start] != -1:
            continue
        if start < kdst:
            side, node = 0, start  # side 0 = c, 1 = b
        else:
            side, node = 1, mid + (start - kdst)
        while True:
            partner = c_link[node] if side == 0 else b_link[node]
            if partner == VACANT:
                out[start] = VACANT
                break
            if side == 0:
                if partner < kdst:
                    out[start] = partner
                    out[partner] = start
                    break
                r = partner - kdst
                seen_c[r] = True
                side, node = 1, mid - 1 - r
            else:
                if partner >= mid:
                    end = kdst + (partner - mid)
                    out[start] = end
                    out[end] = start
                    break
                r = mid - 1 - partner
                seen_c[r] = True
                side, node = 0, kdst + r

    loops = 0
    for r0 in range(mid):
        if seen_c[r0] or c_link[kdst + r0] == VACANT:
            continue
        r = r0
        side = 0
        node = kdst + r0
        while True:
            partner = c_link[node] if side == 0 else b_link[node]
            if side == 0:
                r = partner - kdst
                seen_c[r] = True
                side, node = 1, mid - 1 - r
            else:
                r = mid - 1 - partner
                if seen_c[r]:
                    loops += 1
                    break
                seen_c[r] = True
                side, node = 0, kdst + r
    return Diagram.from_link(kdst, nsrc, out, c.dilute), loops


Diagram.compose = _compose_cached


# the bytes.translate table of a vacancy key: VACANT -> 1, a node -> 0
_VACANCY_KEY = bytes(VACANT) + b"\x01"


def _source_vacancies(c: Diagram) -> bytes:
    """The vacancies of c's source column by middle height r, as the kernel
    reads c as the left factor; b"" for an empty column."""
    return c.link[c.dst:].translate(_VACANCY_KEY)


def _target_vacancies(b: Diagram) -> bytes:
    """The vacancies of b's destination column by middle height r, as the
    kernel reads b as the right factor.  c after b glues (is not None)
    exactly when _source_vacancies(c) == _target_vacancies(b)."""
    # link[:dst] first: link[dst-1::-1] would reverse the whole link at dst 0
    return b.link[:b.dst][::-1].translate(_VACANCY_KEY)


# ---------------------------------------------------------------------------
# standard diagrams


def identity_diagram(n: int, dilute: bool = False) -> Diagram:
    return Diagram.from_link(n, n, range(2 * n - 1, -1, -1), dilute)


def e_diagram(i: int, n: int) -> Diagram:
    """The TL generator diagram: arcs joining neighbours i, i+1 on both columns."""
    if not (1 <= i <= n - 1):
        raise ValueError(f"e_{i} undefined in End({n})")
    link = [2 * n - 1 - j for j in range(2 * n)]
    a, b = i - 1, i
    link[a], link[b] = b, a
    ra, rb = 2 * n - 1 - a, 2 * n - 1 - b
    link[ra], link[rb] = rb, ra
    return Diagram.from_link(n, n, link)


# The nine diagrams of the dilute End(2).  Left nodes are 1 (top) and
# 2 (bottom); right nodes are 3 (bottom) and 4 (top).
_END2_PAIRS = {
    "parallel": ((1, 4), (2, 3)),
    "cupcap": ((1, 2), (3, 4)),
    "diag-down": ((1, 3),),
    "diag-up": ((2, 4),),
    "top-line": ((1, 4),),
    "bottom-line": ((2, 3),),
    "left-cup": ((1, 2),),
    "right-cap": ((3, 4),),
    "vacant": (),
}


def dilute_diagram(name: str) -> Diagram:
    """One of the nine dilute End(2) diagrams, by name."""
    return Diagram.from_pairs(2, 2, _END2_PAIRS[name], dilute=True)


# ---------------------------------------------------------------------------
# enumeration


def _noncrossing_matchings(points: tuple):
    """All non-crossing perfect matchings of an ordered point tuple; none
    for an odd count."""
    if len(points) % 2:
        return
    if not points:
        yield ()
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        partner = points[idx]
        inside = points[1:idx]
        outside = points[idx + 1:]
        for mi in _noncrossing_matchings(inside):
            for mo in _noncrossing_matchings(outside):
                yield ((first, partner),) + mi + mo


def enumerate_diagrams(n: int, m: int, dilute: bool = False) -> list:
    """All planar (m,n)-diagrams in Hom(n,m), deterministically ordered
    (lexicographic on the sorted pairing list); a new list on every call."""
    return list(_enumerated(n, m, bool(dilute)))


@lru_cache(maxsize=64)
def _enumerated(n: int, m: int, dilute: bool) -> tuple:
    # each subset of occupied nodes with each of its non-crossing matchings
    total = m + n
    out = []
    for k in range(0 if dilute else total, total + 1, 2):
        for occupied in combinations(range(total), k):
            for match in _noncrossing_matchings(occupied):
                link = [VACANT] * total
                for a, b in match:
                    link[a] = b
                    link[b] = a
                out.append(Diagram.from_link(m, n, link, dilute))
    out.sort(key=Diagram.key)
    return tuple(out)
