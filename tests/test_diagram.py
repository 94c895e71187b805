"""Diagram enumeration and composition."""

import math
import random
from itertools import combinations

import pytest

from tlcat.diagram import (
    Diagram,
    InterfaceMismatch,
    _compose_cached,
    e_diagram,
    enumerate_diagrams,
    identity_diagram,
)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def motzkin(p: int) -> int:
    # number of partial non-crossing matchings of p points on a line
    m = [1, 1]
    for k in range(2, p + 1):
        m.append(m[k - 1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[p]


def brute_force_count(n: int, m: int, dilute: bool) -> int:
    """Independent oracle: enumerate all planar partial pairings directly."""
    total = n + m
    points = list(range(1, total + 1))

    def planar(pairs):
        for (a, b), (c, d) in combinations(pairs, 2):
            if a < c < b < d or c < a < d < b:
                return False
        return True

    def matchings(rest):
        if not rest:
            yield ()
            return
        a, tail = rest[0], rest[1:]
        if dilute:
            for sub in matchings(tail):
                yield sub
        for i, b in enumerate(tail):
            for sub in matchings(tail[:i] + tail[i + 1:]):
                yield ((a, b),) + sub

    count = 0
    for pairs in matchings(tuple(points)):
        if not dilute and 2 * len(pairs) != total:
            continue
        if planar(pairs):
            count += 1
    return count


def test_catalan_counts():
    for n in range(0, 7):
        assert len(enumerate_diagrams(n, n)) == catalan(n)


def test_hom_counts_match_brute_force():
    for n in range(0, 4):
        for m in range(0, 4):
            got = len(enumerate_diagrams(n, m))
            assert got == brute_force_count(n, m, dilute=False)


def test_dilute_counts_are_motzkin():
    for n in range(0, 4):
        for m in range(0, 4):
            got = len(enumerate_diagrams(n, m, dilute=True))
            assert got == motzkin(n + m)
            assert got == brute_force_count(n, m, dilute=True)


def test_parity_empty_hom():
    assert enumerate_diagrams(2, 3) == []
    assert enumerate_diagrams(0, 1) == []


def test_identity_and_e_compose():
    one = identity_diagram(3)
    ed = e_diagram(1, 3)
    assert one.compose(ed) == (ed, 0)
    assert ed.compose(ed) == (ed, 1)


def test_gluing_returns_the_cached_result():
    # the cache is keyed on the diagrams' values and stores the glued
    # (diagram, loops) itself, so a hit allocates nothing
    c, b = e_diagram(2, 5), e_diagram(3, 5)
    first = c.compose(b)
    hits = _compose_cached.cache_info().hits
    assert c.compose(b) is first
    assert _compose_cached.cache_info().hits == hits + 1
    assert Diagram.from_text(c.to_text()).compose(b) is first
    assert first == (Diagram.from_text("5x5:[(1,10),(2,3),(4,9),(5,6),(7,8)]"), 0)


@pytest.mark.parametrize("field", ["dst", "src", "link", "dilute"])
def test_diagram_is_an_immutable_value(field):
    # diagrams key the gluing cache and every Morphism's terms
    d = e_diagram(1, 2)
    with pytest.raises(AttributeError):
        setattr(d, field, getattr(identity_diagram(2), field))
    assert d == e_diagram(1, 2) and hash(d) == hash(e_diagram(1, 2))


def test_interface_mismatch():
    with pytest.raises(InterfaceMismatch):
        identity_diagram(2).compose(identity_diagram(3))


def test_composition_associative():
    rng = random.Random(7)
    sizes = [0, 1, 2, 3, 4]
    for _ in range(120):
        a, b, c, d = (rng.choice(sizes) for _ in range(4))
        if (a + b) % 2 or (b + c) % 2 or (c + d) % 2:
            continue
        fs = enumerate_diagrams(b, a)
        gs = enumerate_diagrams(c, b)
        hs = enumerate_diagrams(d, c)
        if not (fs and gs and hs):
            continue
        f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
        fg, fg_loops = f.compose(g)
        gh, gh_loops = g.compose(h)
        left, left_loops = fg.compose(h)
        right, right_loops = f.compose(gh)
        assert left == right
        assert fg_loops + left_loops == gh_loops + right_loops


def test_transpose_involution_and_antihomomorphism():
    rng = random.Random(3)
    for _ in range(60):
        n, m, p = rng.choice([1, 2, 3]), rng.choice([1, 3]), rng.choice([1, 3])
        if (n + m) % 2 or (m + p) % 2:
            continue
        cs = enumerate_diagrams(m, n)
        bs = enumerate_diagrams(p, m)
        if not cs or not bs:
            continue
        c, b = rng.choice(cs), rng.choice(bs)
        assert c.transpose().transpose() == c
        lhs, lhs_loops = c.compose(b)
        rhs, rhs_loops = b.transpose().compose(c.transpose())
        assert lhs.transpose() == rhs
        assert lhs_loops == rhs_loops


def test_text_round_trip():
    for n in range(0, 5):
        for m in range(0, 5):
            for dilute in (False, True):
                for d in enumerate_diagrams(n, m, dilute=dilute):
                    assert Diagram.from_text(d.to_text()) == d


def test_dilute_annihilation():
    vacant = Diagram.from_pairs(2, 2, [], dilute=True)
    full = identity_diagram(2, dilute=True)
    assert full.compose(vacant) is None
