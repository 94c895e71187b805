"""Diagram enumeration and composition."""

import math
import random
from itertools import combinations

import pytest

from tlcat.diagram import (
    MAX_NODES,
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


def test_enumeration_is_cached_but_returns_a_new_list():
    first = enumerate_diagrams(3, 3)
    first.clear()
    again = enumerate_diagrams(3, 3)
    assert again is not first and len(again) == catalan(3)
    assert enumerate_diagrams(n=3, m=3, dilute=False) == again


def test_parity_empty_hom():
    assert enumerate_diagrams(2, 3) == []
    assert enumerate_diagrams(0, 1) == []


def test_ordinary_enumeration_is_the_vacancy_free_dilute_one():
    # an ordinary diagram is a dilute one with every node occupied, and the
    # two enumerations share one loop and one order
    for n in range(0, 9):
        for m in range(0, 9 - n):
            ordinary = [d.pairs() for d in enumerate_diagrams(n, m)]
            full = [d.pairs() for d in enumerate_diagrams(n, m, dilute=True) if not d.vacancies()]
            assert ordinary == full, (n, m)


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


@pytest.mark.parametrize("text", [
    "2x2:[((1,4)),(2,3)]",
    "2x2:[(1,4)),((2,3)]",
    # a space inside a number does not join its digits into node 10
    "5x5:[(1,1 0),(2,3),(4,9),(5,6),(7,8)]",
    "2x2:[(1,4),(2,3),]", "2x2:[(1,4)(2,3)]", "2x2:(1,4),(2,3)", "x2:[]", "2x2e:[]", "",
])
def test_malformed_diagram_text_raises(text):
    with pytest.raises(ValueError):
        Diagram.from_text(text)


def test_diagram_text_allows_spaces_between_tokens():
    assert Diagram.from_text(" 2 x 2 d : [ ( 1 , 4 ) ] ") == Diagram.from_pairs(
        2, 2, [(1, 4)], dilute=True)


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


def test_gluing_errors_raise_through_the_cache_and_are_never_stored():
    # Diagram.compose is the cache itself, and its kernel checks the pair
    assert Diagram.compose is _compose_cached
    size = _compose_cached.cache_info().currsize
    pairs = (
        (identity_diagram(2), identity_diagram(3)),
        (identity_diagram(2), identity_diagram(2, dilute=True)),
        (identity_diagram(2, dilute=True), identity_diagram(2)),
    )
    for c, b in pairs:
        for _ in range(2):
            with pytest.raises(InterfaceMismatch):
                c.compose(b)
    assert _compose_cached.cache_info().currsize == size


def _nested(dst, src):
    """Nested arcs, node i to node total-1-i, built by the unchecked
    NamedTuple constructor with a tuple link, so past the byte limit."""
    total = dst + src
    return Diagram(dst, src, tuple(range(total - 1, -1, -1)))


def test_link_is_bytes_and_has_a_node_limit():
    d = Diagram.from_pairs(2, 2, [(1, 4)], dilute=True)
    assert d.link == bytes([3, 255, 255, 0]) and d.vacancies() == (2, 3)
    assert d.pairs() == ((1, 4),) and d.through == 1
    assert MAX_NODES == 255
    # the limit itself is fine, one node past it is not
    assert len(Diagram.from_pairs(255, 0, [], dilute=True).link) == 255
    edge = identity_diagram(127, dilute=True).tensor(Diagram.from_pairs(1, 0, [], dilute=True))
    assert (edge.dst, edge.src) == (128, 127)
    big_cups = Diagram.from_link(200, 0, range(199, -1, -1))
    big_caps = big_cups.transpose()
    over = (
        lambda: Diagram.from_pairs(256, 0, [], dilute=True),
        lambda: Diagram.from_text("128x128:[]"),
        lambda: Diagram.from_link(256, 0, [255] * 256),
        lambda: identity_diagram(128),
        lambda: identity_diagram(127).tensor(identity_diagram(1)),
        lambda: _nested(200, 100).transpose(),
        lambda: big_cups.compose(big_caps),
    )
    size = _compose_cached.cache_info().currsize
    for build in over:
        with pytest.raises(ValueError, match="at most 255 boundary nodes"):
            build()
    assert _compose_cached.cache_info().currsize == size
    assert big_caps.compose(big_cups) == (Diagram(0, 0, b""), 100)


@pytest.mark.parametrize("n, m, dilute", [(128, 128, False), (0, 256, True)])
def test_enumeration_past_the_node_limit_raises(n, m, dilute):
    # every enumerated diagram goes through the checked Diagram.from_link, so
    # the first one past MAX_NODES raises instead of packing a node index
    # that reads as VACANT
    with pytest.raises(ValueError, match="at most 255 boundary nodes, not 256"):
        enumerate_diagrams(n, m, dilute=dilute)


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
