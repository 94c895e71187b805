"""Morphism algebra details not covered by the relation suites."""

import copy
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlcat import braid, twist
from tlcat.diagram import (
    Diagram,
    InterfaceMismatch,
    _compose_cached,
    e_diagram,
    enumerate_diagrams,
    identity_diagram,
)
from tlcat.dilute import dilute_commutor, verify_dilute_braiding
from tlcat.integrable import (
    _boundary,
    _face_weights,
    face,
    transfer_matrix,
    verify_integrable_suite,
)
from tlcat.morphism import (
    GENERIC,
    CoeffDomain,
    Morphism,
    big_cup,
    crossing_word,
    cups,
    dilute_end2,
    domain_for,
    e,
    identity,
    on_strands,
    parse_morphism,
    t,
    t_inv,
)
from tlcat.scalar import Scalar, Specialization
from tlcat.fusion import FusedModule
from tlcat.standard import StandardModule, act, wenzl_jones


def test_tensor_drops_cancelled_terms(monkeypatch):
    # diagram tensor is injective, so force two products onto one diagram
    dom = domain_for(Specialization.rational(Fraction(5, 3)))
    a, b = enumerate_diagrams(2, 2)
    f = Morphism(2, 2, {a: Fraction(1), b: Fraction(-1)}, dom=dom)
    g = Morphism.from_diagram(a, dom)
    target = enumerate_diagrams(4, 4)[0]
    monkeypatch.setattr(Diagram, "tensor", lambda self, other: target)
    prod = f.tensor(g)
    assert prod.terms == {}
    assert prod.is_zero


def test_morphism_is_unhashable():
    # it defines equality on its terms and no hash, so it keys no cache
    with pytest.raises(TypeError):
        hash(e(1, 2))


def _shared_morphisms(cache, args):
    """The morphisms a cache hands out for args: one word, or face weights."""
    out = cache(*args)
    return [out] if isinstance(out, Morphism) else [w for _, w in out]


@pytest.mark.parametrize("field", ["dst", "src", "dilute", "dom", "terms"])
@pytest.mark.parametrize("cache, args", [
    (crossing_word, ((1, 2), 3, GENERIC, False, False, 0)),
    (_face_weights, ("dilute-IK",)),
])
def test_morphism_is_an_immutable_value(cache, args, field):
    # a cache hands one morphism to every caller, so no caller may change it
    point = domain_for(Specialization.rational(Fraction(5, 3)))
    for m in _shared_morphisms(cache, args):
        other = Morphism.zero(m.dst + 1, m.src + 1, not m.dilute, point)
        with pytest.raises(AttributeError):
            setattr(m, field, getattr(other, field))
    assert _shared_morphisms(cache, args) == _shared_morphisms(cache.__wrapped__, args)


def test_a_copy_is_rebuilt_through_the_constructor():
    m = t(1, 2, domain_for(Specialization.rational(Fraction(5, 3))), dilute=True)
    assert copy.copy(m) == m


def test_unchecked_tuple_builders_and_scalar_products_refuse():
    m = e(1, 3)
    builders = [lambda: m._replace(dst=7), lambda: Morphism._make(tuple(m))]
    if hasattr(copy, "replace"):
        builders.append(lambda: copy.replace(m, dst=7))
    for build in builders:
        with pytest.raises(TypeError):
            build()
    # * is composition only, and scale the one scalar multiple
    assert Morphism.__mul__ is Morphism.compose and m * m == m.compose(m)
    with pytest.raises(TypeError):
        2 * m


def test_every_domain_is_read_only(monkeypatch):
    # GENERIC and every domain_for result are shared by every morphism
    domains = [GENERIC] + [domain_for(Specialization.parse(spec))
                           for spec in ("rational:5/3", "root:2")]
    assert CoeffDomain._fields
    for dom in domains:
        for name in CoeffDomain._fields:
            value = getattr(dom, name)
            with pytest.raises(AttributeError):
                setattr(dom, name, None)
            with pytest.raises(AttributeError):
                delattr(dom, name)
            assert getattr(dom, name) is value
    # the class stays open to patching, as the planted-fault tests patch it
    monkeypatch.setattr(CoeffDomain, "beta_power", lambda self, k: self.one)
    assert GENERIC.beta_power(3) is GENERIC.one


@pytest.mark.parametrize("value", [
    Specialization.rational(Fraction(5, 3)),
    CoeffDomain(Specialization.rational(Fraction(5, 3))),
], ids=["Specialization", "CoeffDomain"])
def test_records_refuse_the_unchecked_tuple_builders(value):
    cls = type(value)
    builders = [lambda: value._replace(), lambda: cls._make(tuple(value))]
    if hasattr(copy, "replace"):
        builders.append(lambda: copy.replace(value))
    for build in builders:
        with pytest.raises(TypeError):
            build()
    # copy.copy rebuilds through the checked constructor
    assert copy.copy(value) == value and type(copy.copy(value)) is cls


def test_domain_for_is_a_bounded_cache():
    maxsize = domain_for.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0
    for k in range(maxsize + 1):
        dom = domain_for(Specialization.rational(Fraction(k + 2, 97)))
        assert domain_for(Specialization.rational(Fraction(k + 2, 97))) is dom
    assert domain_for.cache_info().currsize <= maxsize
    # an evicted domain is rebuilt equal, so morphisms over both still mix
    first = Specialization.rational(Fraction(2, 97))
    cached, rebuilt = domain_for(first), CoeffDomain(first)
    assert cached == rebuilt and hash(cached) == hash(rebuilt)
    assert e(1, 2, cached).compose(e(1, 2, rebuilt)) == e(1, 2, rebuilt).scale(rebuilt.beta)


def test_an_evicted_root_domain_mixes_with_its_rebuild():
    spec = Specialization.cyclotomic(12)
    old = domain_for(spec)
    domain_for.cache_clear()
    new = domain_for(spec)
    # the rebuilt domain has a field object of its own
    assert new.s_power(1).field is not old.s_power(1).field
    assert old.s_power(1) * new.s_power(-1) == 1 == new.one
    assert e(1, 2, old).compose(e(1, 2, new)) == e(1, 2, new).scale(old.beta)


def _built_morphisms():
    """One morphism from each builder and operation, by name."""
    dom = domain_for(Specialization.rational(Fraction(5, 3)))
    f, g = t(1, 3), e(2, 3)
    return {
        "compose": f.compose(g),
        "+": f + g,
        "-": f - g,
        "unary -": -f,
        "scale": f.scale(GENERIC.s_power(1)),
        "tensor": f.tensor(g),
        "transpose": cups(2).transpose(),
        "zero": Morphism.zero(2, 2),
        "from_diagram": Morphism.from_diagram(e_diagram(1, 2), dom),
        "identity": identity(3, dom=dom),
        "dilute identity": identity(2, True),
        "e": e(1, 2, dom),
        "t": t(1, 2, dom),
        "t_inv": t_inv(1, 2),
        "dilute t": t(1, 2, dilute=True),
        "dilute t_inv": t_inv(2, 3, dilute=True),
        "big_cup": big_cup(2),
        "cups": cups(2, dom),
        "dilute_end2": dilute_end2({"parallel": GENERIC.one, "vacant": GENERIC.one}),
        "parse_morphism": parse_morphism("2<-2 : [s^2] * 2x2:[(1,2),(3,4)]"),
        "face": face(1, 3, "dilute-IK")("u"),
        "wenzl_jones": wenzl_jones(3),
    }


@pytest.mark.parametrize("name", sorted(_built_morphisms()))
def test_every_morphism_is_read_only(name):
    m = _built_morphisms()[name]
    d = next(iter(m.terms), e_diagram(1, 2))
    with pytest.raises(TypeError):
        m.terms[d] = m.dom.one
    with pytest.raises(TypeError):
        del m.terms[d]
    assert m == _built_morphisms()[name]


def test_the_constructor_checks_its_terms():
    assert list(inspect.signature(Morphism).parameters) == ["dst", "src", "terms", "dilute", "dom"]
    e1, one2 = e_diagram(1, 2), identity_diagram(2)
    m = Morphism(2, 2, {e1: GENERIC.zero, one2: GENERIC.beta})
    assert m.terms == {one2: GENERIC.beta} and Morphism(2, 2, {e1: GENERIC.zero}).is_zero
    for foreign in (e_diagram(1, 3), identity_diagram(2, dilute=True)):
        with pytest.raises(ValueError, match="does not live in"):
            Morphism(2, 2, {foreign: GENERIC.one})
    # the constructor copies its dict: a later write to it changes nothing
    terms = {e1: GENERIC.one}
    m = Morphism(2, 2, terms)
    terms[one2] = GENERIC.one
    assert m == e(1, 2)


def test_the_ordinary_identity_is_the_all_occupied_dilute_term():
    for n in range(5):
        full = [(d.pairs(), c) for d, c in identity(n, True).terms.items() if not d.vacancies()]
        assert [(d.pairs(), c) for d, c in identity(n).terms.items()] == full
        assert len(identity(n, True).terms) == 2**n


class _CountingOne:
    """A unit coefficient that counts every multiplication it enters."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(other)
        return other

    __rmul__ = __mul__

    def __bool__(self):
        return True


def test_compose_skips_unit_factors():
    log = []
    # a private domain, not the interned one: its unit is swapped in by
    # building the tuple directly, past the constructor
    base = CoeffDomain(Specialization.rational(Fraction(5, 3)))
    fields = dict(zip(CoeffDomain._fields, base), one=_CountingOne(log))
    dom = tuple.__new__(CoeffDomain, fields.values())
    e1 = Morphism.from_diagram(e_diagram(1, 3), dom)
    e2 = Morphism.from_diagram(e_diagram(2, 3), dom)
    # no loop: the product of the two units is the unit itself
    prod = e1.compose(e2)
    ((d, c),) = prod.terms.items()
    assert c is dom.one
    assert (d, 0) == e_diagram(1, 3).compose(e_diagram(2, 3))
    # one loop: the coefficient is beta itself
    assert e1.compose(e1).terms == {e_diagram(1, 3): dom.beta}
    # a non-unit factor is taken as it is
    t1 = t(1, 3, dom)
    assert t1.compose(e1).terms == {e_diagram(1, 3): dom.s_power(2) + dom.s_power(-2) * dom.beta}
    # tensor skips the unit in the same way
    ((d, c),) = e1.tensor(e2).terms.items()
    assert c is dom.one
    assert d == e_diagram(1, 3).tensor(e_diagram(2, 3))
    i1 = identity_diagram(1)
    one1 = Morphism.from_diagram(i1, dom)
    assert one1.tensor(t1).terms == {i1.tensor(d): c for d, c in t1.terms.items()}
    assert t1.tensor(one1).terms == {d.tensor(i1): c for d, c in t1.terms.items()}
    # a dilute crossing placed on strands tensors with the dilute identity
    assert len(on_strands(t(1, 2, dom, dilute=True), 2, 3).terms) == 10
    assert log == []


def _bilinear_sum(f, g):
    """The plain bilinear extension of diagram gluing: one product per pair."""
    dom = f.dom
    out = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            glued = d1.compose(d2)
            if glued is None:
                continue
            d, loops = glued
            out[d] = out.get(d, dom.zero) + c1 * c2 * dom.beta_power(loops)
    return Morphism(f.dst, g.src, out, f.dilute, dom)


def _random_morphism(rng, dst, src, dilute, dom):
    diagrams = enumerate_diagrams(src, dst, dilute)
    terms = {}
    for d in rng.sample(diagrams, min(len(diagrams), 6)):
        k = rng.choice((0, 0, 1, 2, 3))
        terms[d] = dom.one if k == 0 else dom.s_power(rng.randint(-4, 4)) * k
    return Morphism(dst, src, terms, dilute, dom)


@pytest.mark.parametrize("spec", ["generic", "rational:5/3", "root:3"])
def test_compose_matches_the_bilinear_sum(spec):
    dom = domain_for(Specialization.parse(spec))
    rng = random.Random(spec)
    seen = {"loops": 0, "annihilated": 0}
    for dilute in (False, True):
        for dst, mid, src in ((2, 2, 2), (3, 3, 3), (1, 3, 1), (2, 4, 2), (4, 2, 2), (0, 4, 0)):
            for _ in range(3):
                f = _random_morphism(rng, dst, mid, dilute, dom)
                g = _random_morphism(rng, mid, src, dilute, dom)
                prod = f.compose(g)
                assert prod == _bilinear_sum(f, g)
                assert all(prod.terms.values())
                for d1 in f.terms:
                    for d2 in g.terms:
                        glued = d1.compose(d2)
                        seen["annihilated"] += glued is None
                        seen["loops"] += bool(glued and glued[1])
    assert seen["loops"] and seen["annihilated"]
    # e_1 (beta 1 - e_1): both right terms glue onto e_1, e_1 e_1 with a
    # loop, so their group sums to zero
    e1, one2 = e_diagram(1, 2), identity_diagram(2)
    left = Morphism(2, 2, {e1: dom.s_power(3) * 2}, dom=dom)
    right = Morphism(2, 2, {one2: dom.beta, e1: -dom.one}, dom=dom)
    assert left.compose(right).terms == {}
    assert _bilinear_sum(left, right).is_zero
    # a cancelling group beside a surviving one
    left = Morphism(2, 2, {e1: dom.s_power(1), one2: dom.s_power(-1)}, dom=dom)
    prod = left.compose(right)
    assert prod == _bilinear_sum(left, right)
    assert prod.terms == {one2: dom.s_power(-1) * dom.beta, e1: -dom.s_power(-1)}


def _pairwise_oracle(f, g):
    """f after g as the sum of c1 * c2 * beta^loops over every pair of
    terms, glued by the uncached kernel."""
    glue = _compose_cached.__wrapped__
    dom = f.dom
    out = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            glued = glue(d1, d2)
            if glued is None:
                continue
            d, loops = glued
            c = c1 * c2
            for _ in range(loops):
                c = c * dom.beta
            out[d] = out.get(d, dom.zero) + c
    return Morphism(f.dst, g.src, out, f.dilute, dom)


# (dst, mid, src): loops and, on dilute strands, annihilation, with up to
# 14 diagrams on a side; the last three dilute shapes have an empty shared
# column or an empty outer one, whose vacancy key is b""
_SHAPES = {False: ((3, 3, 3), (2, 4, 2), (4, 4, 4), (6, 2, 6)),
           True: ((2, 2, 2), (1, 3, 1), (3, 1, 3), (2, 2, 0), (2, 0, 2), (0, 2, 0), (0, 3, 1))}


@st.composite
def _operand(draw, dst, src, dilute, dom):
    pool = enumerate_diagrams(src, dst, dilute)
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    terms = {}
    for d in picks:
        k = draw(st.sampled_from((1, -1, 2, 3)))
        e = draw(st.integers(-4, 4))
        terms[d] = dom.one if (k, e) == (1, 0) else dom.s_power(e) * k
    return Morphism(dst, src, terms, dilute, dom)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(("generic", "rational:5/3", "root:3")), st.booleans())
def test_compose_matches_the_pairwise_oracle(data, spec, dilute):
    # 1-6 terms a side in either size order, so both operands take turns
    # being the side whose coefficients are factored out
    dom = domain_for(Specialization.parse(spec))
    dst, mid, src = data.draw(st.sampled_from(_SHAPES[dilute]))
    f = data.draw(_operand(dst, mid, dilute, dom))
    g = data.draw(_operand(mid, src, dilute, dom))
    prod = f.compose(g)
    assert prod == _pairwise_oracle(f, g)
    assert all(prod.terms.values())


def test_dilute_compose_sends_the_kernel_only_pairs_that_glue(compose_calls):
    # a dilute pair whose shared column has unequal vacancies is annihilated;
    # compose pairs the terms by those vacancies, so it never glues one
    verify_dilute_braiding(3, samples=10)
    verify_integrable_suite("dilute-IK")
    glue = _compose_cached.__wrapped__
    rng = random.Random(0)
    pairs = glued = 0
    for dst, mid, src in _SHAPES[True]:
        for _ in range(6):
            f = _random_morphism(rng, dst, mid, True, GENERIC)
            g = _random_morphism(rng, mid, src, True, GENERIC)
            before = len(compose_calls)
            # g^T f^T = (f g)^T glues the same pairs with the operands'
            # sides swapped, so the other operand is the outer one
            f.compose(g)
            g.transpose().compose(f.transpose())
            gluing = sum(glue(d1, d2) is not None for d1 in f.terms for d2 in g.terms)
            assert len(compose_calls) - before == 2 * gluing
            pairs += len(f.terms) * len(g.terms)
            glued += gluing
    assert 0 < glued < pairs
    assert compose_calls and None not in compose_calls


def test_transfer_product_multiplies_each_left_coefficient_once_per_result(monkeypatch):
    du = transfer_matrix(4, "ordinary", "u")
    dv = transfer_matrix(4, "ordinary", "v")
    left = {id(c) for c in du.terms.values() if c is not du.dom.one}
    pairs = {
        (d1, d1.compose(d2)[0]) for d1 in du.terms for d2 in dv.terms
    }
    assert len(pairs) == 64
    expected = _bilinear_sum(du, dv)
    calls = []
    mul = Scalar.__mul__

    def counting_mul(self, other):
        if id(self) in left or id(other) in left:
            calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    prod = du.compose(dv)
    monkeypatch.undo()
    assert 0 < len(calls) <= len(pairs)
    assert prod == expected


S0 = Fraction(19, 23)


def _dom():
    return domain_for(Specialization.rational(S0))


# per structural builder: the key of its crossing word, the positional
# call and two keyword forms of it
CALL_FORMS = {
    "commutor": (
        braid.commutor,
        lambda: (braid.crossing_indices(2, 1), 3, _dom(), False, False, 0),
        lambda f: f(2, 1, _dom(), False),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(s=1, r=2, dilute=False, dom=_dom()),
    ),
    "commutor_inverse": (
        braid.commutor_inverse,
        lambda: (braid.crossing_indices(2, 1)[::-1], 3, _dom(), False, True, 0),
        lambda f: f(2, 1, _dom(), False),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(r=2, s=1, dom=_dom(), dilute=False),
    ),
    "double_braiding": (
        braid.double_braiding,
        lambda: (braid.crossing_indices(1, 2) + braid.crossing_indices(2, 1),
                 3, _dom(), False, False, 0),
        lambda f: f(2, 1, _dom()),
        lambda f: f(2, 1, dom=_dom()),
        lambda f: f(n=1, m=2, dom=_dom()),
    ),
}
for _name, _key in (
    ("twist_element", lambda: (braid.crossing_indices(2, 1) * 3, 3, _dom(), False, False, 18)),
    ("twist_inverse", lambda: (braid.crossing_indices(2, 1)[::-1] * 3, 3, _dom(), False, True,
                               -18)),
):
    CALL_FORMS[_name] = (
        getattr(twist, _name),
        _key,
        lambda f: f(3, _dom()),
        lambda f: f(3, dom=_dom()),
        lambda f: f(n=3, dom=_dom()),
    )


@pytest.mark.parametrize("name", sorted(CALL_FORMS))
def test_structural_morphism_cache(name):
    builder, key, positional, *keyword_forms = CALL_FORMS[name]
    m = positional(builder)
    info = crossing_word.cache_info()
    assert isinstance(info.maxsize, int) and 0 < info.maxsize <= 256
    for form in keyword_forms:
        assert form(builder) is m
    after = crossing_word.cache_info()
    assert after.misses == info.misses
    assert after.hits == info.hits + len(keyword_forms)
    assert after.currsize == info.currsize
    # the builder's word is the cached crossing word of its key, equal to
    # the uncached one, and read-only
    assert crossing_word(*key()) is m
    assert m == crossing_word.__wrapped__(*key())
    d = next(iter(m.terms))
    with pytest.raises(TypeError):
        m.terms[d] = m.terms[d]
    with pytest.raises(TypeError):
        del m.terms[d]
    assert positional(builder) is m


def test_cached_builder_binds_without_inspect():
    before = crossing_word.cache_info()
    forms = (
        braid.commutor(2, 3),
        braid.commutor(r=2, s=3, dom=GENERIC),
        braid.commutor(2, 3, dilute=False),
    )
    assert all(m is forms[0] for m in forms)
    after = crossing_word.cache_info()
    # one entry for all three forms: at most one miss, the rest hits
    assert after.misses - before.misses <= 1
    assert after.currsize - before.currsize == after.misses - before.misses
    assert (after.hits + after.misses) - (before.hits + before.misses) == 3
    for call in (
        lambda: braid.commutor(2),
        lambda: braid.commutor(s=3),
        lambda: braid.commutor(2, 3, bogus=1),
        lambda: braid.commutor(2, 3, r=2),
        lambda: braid.commutor(2, 3, GENERIC, False, None),
    ):
        with pytest.raises(TypeError):
            call()
    assert crossing_word.cache_info().currsize == after.currsize
    # perfbench's tracer binds calls to the builder's own signature
    assert list(inspect.signature(braid.commutor).parameters) == [
        "r", "s", "dom", "dilute"]


def test_crossing_word_takes_no_keywords():
    # positional-only parameters: a word has one key form, and a keyword
    # call is refused before anything is stored
    size = crossing_word.cache_info().currsize
    for call in (
        lambda: crossing_word((1,), 2, GENERIC, False, False, s_exp=0),
        lambda: crossing_word(indices=(1,), n=2, dom=GENERIC, dilute=False,
                              inverse=False, s_exp=0),
    ):
        with pytest.raises(TypeError):
            call()
    assert crossing_word.cache_info().currsize == size


def test_suite_words_fit_the_cache_with_headroom():
    # the heaviest structural traffic of the CLI caps builds each word once
    # and evicts none, with half the cache to spare
    crossing_word.cache_clear()
    braid.verify_hexagons(6)
    braid.verify_hexagons(4, dilute=True)
    twist.verify_twist_suite(6)
    braid.verify_braiding_lemmas(6)
    info = crossing_word.cache_info()
    assert 0 < info.misses == info.currsize <= info.maxsize // 2


@pytest.mark.parametrize("spec", ["generic", "rational:5/3"])
def test_cups_is_the_tensor_power_of_the_cup(spec):
    dom = domain_for(Specialization.parse(spec))
    power = identity(0, dom=dom)
    for p in range(4):
        assert cups(p, dom) == power
        power = power.tensor(big_cup(1, dom))
    # the ordinary Yang-Baxter boundary is z^2
    assert _boundary("ordinary") == cups(2)


_FIVE_THIRDS = domain_for(Specialization.parse("rational:5/3"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: e(1, 3).compose(e(1, 2)), InterfaceMismatch, "compose: src 3 != dst 2"),
    (lambda: e(1, 2).compose(e(1, 2, _FIVE_THIRDS)), InterfaceMismatch,
     "compose: dilute flags or domains differ"),
    (lambda: identity(2).compose(identity(2, dilute=True)), InterfaceMismatch,
     "compose: dilute flags or domains differ"),
    (lambda: identity(2).tensor(identity(2, dilute=True)), InterfaceMismatch,
     "tensor: dilute flags or domains differ"),
    (lambda: FusedModule(StandardModule(1, 1), StandardModule(1, 1, _FIVE_THIRDS)), ValueError,
     "factor modules live over different coefficient domains"),
    (lambda: FusedModule(StandardModule(1, 1), StandardModule(1, 1)).monodromy_matrix("bogus"),
     ValueError, "unknown monodromy route 'bogus'"),
    (lambda: act(e(1, 3), StandardModule(4, 2)), ValueError, r"morphism 3<-3 is not in End\(4\)"),
], ids=["compose-shape", "compose-domain", "compose-family", "tensor-family",
        "fused-domains", "monodromy-route", "act-shape"])
def test_mismatched_operands_raise(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert caught.type is error


@pytest.mark.parametrize("call, size", [
    (lambda: braid.commutor(-1, 2), "-1"),
    (lambda: braid.commutor(2, -1), "-1"),
    (lambda: braid.commutor_inverse(-1, 2), "-1"),
    (lambda: braid.double_braiding(-1, 2), "-1"),
    (lambda: dilute_commutor(-2, 3), "-2"),
    (lambda: big_cup(-1), "-1"),
    (lambda: cups(-2), "-2"),
    (lambda: Morphism(-1, 2, {}), "-1"),
    (lambda: Morphism.zero(-1, 2), "-1"),
], ids=["commutor-r", "commutor-s", "commutor-inverse", "double-braiding",
        "dilute-commutor", "big-cup", "cups", "morphism", "zero"])
def test_negative_sizes_raise(call, size):
    # each of these once returned an identity or built a diagram of
    # negative side instead of refusing
    with pytest.raises(ValueError, match=f"negative .*{size}"):
        call()
