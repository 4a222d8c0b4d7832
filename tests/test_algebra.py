import copy
import gc
import pickle
import random
import sys
import weakref
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CORPUS,
    ElementSpan,
    FractionRowSpace,
    acyclic_multigraphs,
    build,
    cycles_oracle,
    dimension_oracle,
    element_mul_all_pairs,
    element_mul_fractions,
    element_sum_fractions,
    graph_texts,
    intern,
    load,
    monomial_id_space,
    multigraphs,
    normal_form_oracle,
    orthogonal_idempotent_family,
    random_acyclic_graph,
    random_element,
    raw_product_all_pairs,
    span,
    vertex_sum,
)

from lpakit.algebra import (
    AlgebraError,
    Element,
    GraphHasCycle,
    MixedGraphs,
    Monomial,
    MonomialTable,
    NotHereditary,
    RowSpace,
    basis_monomials,
    dimension,
    edge_element,
    edge_star_element,
    format_element,
    ideal_span,
    is_basis_monomial,
    make_path,
    monomial_element,
    monomial_key,
    monomial_mul,
    normal_form,
    paths_up_to,
    vertex_element,
    zero,
    _ideal_space,
)
from lpakit.classify import classify, hereditary_closure
from lpakit.graph import Graph, GraphError, UnknownVertex, parse_graph
from lpakit.laurent import LaurentMatrix, LaurentPoly
from lpakit.skew import bracket, bracket_space, _bracket_pass, _monomial_ids


# -- monomials and normal forms ---------------------------------------------------


def test_special_edges_are_lex_least(toeplitz, fork2):
    assert toeplitz.least_out_edge == {"v": "c"}
    assert fork2.least_out_edge == {"u": "e1"}


def test_special_edges_are_freed_with_their_graph():
    g = load("toeplitz")
    c = make_path(g, ["c"])
    assert normal_form(g, [(Monomial(c, c), Fraction(1))])  # rewrites at the special edge c
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_basis_monomial_test(fork2):
    u = make_path(fork2, "u")
    e1 = make_path(fork2, ["e1"])
    e2 = make_path(fork2, ["e2"])
    assert not is_basis_monomial(fork2, Monomial(e1, e1))  # both end in the rewrite edge
    assert is_basis_monomial(fork2, Monomial(e2, e2))
    assert is_basis_monomial(fork2, Monomial(e1, make_path(fork2, "w1")))  # q is a bare vertex
    assert is_basis_monomial(fork2, Monomial(u, u))


def test_path_and_monomial_records(toeplitz):
    v, ce, e = toeplitz.vertex_path("v"), toeplitz.path(["c", "e"]), toeplitz.path(["e"])
    assert len(v) == 0 and len(ce) == 2  # the edge count, not the field count
    assert str(v) == "v" and str(ce) == "c e"
    assert repr(ce) == "Path(source='v', target='w', edges=('c', 'e'))"
    m = Monomial(ce, e)
    assert str(m) == "c e . e^*" and m.degree == 3 and m.star() == Monomial(e, ce)
    assert repr(m) == (
        "Monomial(p=Path(source='v', target='w', edges=('c', 'e')), "
        "q=Path(source='v', target='w', edges=('e',)))"
    )
    for p in paths_up_to(toeplitz, 3):
        q = toeplitz.path(p.edges) if p.edges else toeplitz.vertex_path(p.source)
        assert q == p and hash(q) == hash(p)


def test_elements_survive_pickle_and_deepcopy(rng, toeplitz):
    for _ in range(10):
        x = random_element(toeplitz, rng)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and str(y) == str(x)


def test_defining_relations(toeplitz):
    v = vertex_element(toeplitz, "v")
    w = vertex_element(toeplitz, "w")
    c = edge_element(toeplitz, "c")
    e = edge_element(toeplitz, "e")
    cs = edge_star_element(toeplitz, "c")
    es = edge_star_element(toeplitz, "e")
    # vertices are orthogonal idempotents
    assert v * v == v and w * w == w and (v * w).is_zero()
    # edges compose with their endpoints
    assert v * c == c and c * v == c
    assert v * e == e and e * w == e
    # e^* f = delta r(e)
    assert cs * c == v and es * e == w
    assert (cs * e).is_zero() and (es * c).is_zero()
    # the vertex rewrite rule: v = c c^* + e e^*
    assert c * cs + e * es == v


def test_ck2_rewrite_in_fork(fork2):
    u = vertex_element(fork2, "u")
    e1, e2 = edge_element(fork2, "e1"), edge_element(fork2, "e2")
    assert e1 * e1.star() == u - e2 * e2.star()
    assert e1 * e1.star() + e2 * e2.star() == u


def test_monomial_mul_prefix_cases(toeplitz):
    c = edge_element(toeplitz, "c")
    e = edge_element(toeplitz, "e")
    ce = c * e
    assert str(ce) == "1 * c e . w^*"
    # q eats into p from the right: (ce)(e^*) = c restricted over w
    assert ce * e.star() == c * (e * e.star())
    # non-prefix overlap dies
    assert (e.star() * c).is_zero()


def test_normal_form_is_confluent_under_random_strategies(toeplitz, fork2):
    items = []
    for g in (toeplitz, fork2):
        for m in basis_monomials(g, 2):
            items.append((g, m))
    # build a messy non-basis combination and reduce it many ways
    g = toeplitz
    cpath = make_path(g, ["c"])
    cc = make_path(g, ["c", "c"])
    bad = Monomial(cc, cc)  # both sides end in the rewrite edge c
    baseline = normal_form(g, [(bad, Fraction(3)), (Monomial(cpath, cpath), Fraction(-1))])
    for seed in range(25):
        rng = random.Random(seed)
        again = normal_form_oracle(
            g,
            [(bad, Fraction(3)), (Monomial(cpath, cpath), Fraction(-1))],
            rng,
        )
        assert again == baseline


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.data())
def test_normal_form_agrees_with_random_rewriting_orders(g, data):
    paths = paths_up_to(g, 2)
    items = []
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.sampled_from(paths))
        q = data.draw(st.sampled_from([x for x in paths if x.target == p.target]))
        items.append((Monomial(p, q), Fraction(data.draw(st.integers(-3, 3)))))
    want = normal_form(g, items)
    assert all(is_basis_monomial(g, m) for m in want)
    assert list(normal_form_oracle(g, items).items()) == list(want.items())
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    assert normal_form_oracle(g, items, rng) == want


def test_normal_form_output_is_on_basis(rng, corpus):
    for g in (corpus["toeplitz"], corpus["balloon_core2"]):
        for _ in range(30):
            x = random_element(g, rng)
            y = random_element(g, rng)
            for m in (x * y).support():
                assert is_basis_monomial(g, m)


# -- element arithmetic --------------------------------------------------------------


def test_element_formatting(toeplitz):
    x = vertex_element(toeplitz, "v") - edge_element(toeplitz, "c").scale(Fraction(1, 2))
    assert format_element(x) == "1 * v . v^* + -1/2 * c . v^*"
    assert format_element(zero(toeplitz)) == "0"
    assert str(x) == format_element(x)


def test_scalar_action(toeplitz):
    c = edge_element(toeplitz, "c")
    assert 2 * c == c * 2 == c + c
    assert c.scale(0).is_zero()
    assert Fraction(1, 3) * (3 * c) == c


def test_star_laws(rng, corpus):
    for g in (corpus["toeplitz"], corpus["double_edge_cycle"]):
        for _ in range(40):
            x = random_element(g, rng)
            y = random_element(g, rng)
            assert x.star().star() == x
            assert (x + y).star() == x.star() + y.star()
            assert (x * y).star() == y.star() * x.star()


def test_associativity_and_distributivity(rng, corpus):
    for g in (corpus["toeplitz"], corpus["balloon_core2"], corpus["fork2"]):
        for _ in range(40):
            x = random_element(g, rng)
            y = random_element(g, rng)
            z = random_element(g, rng)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def test_vertex_sum_is_identity(rng, corpus):
    for g in corpus.values():
        one = vertex_sum(g)
        assert one * one == one
        for _ in range(10):
            x = random_element(g, rng)
            assert one * x == x and x * one == x


def test_mixed_graph_arithmetic_rejected(toeplitz, fork2):
    with pytest.raises(MixedGraphs):
        vertex_element(toeplitz, "v") + vertex_element(fork2, "u")
    with pytest.raises(MixedGraphs):
        vertex_element(toeplitz, "v") * vertex_element(fork2, "u")


def test_floats_and_foreign_operands_are_rejected(toeplitz):
    c = edge_element(toeplitz, "c")
    m = next(iter(c.terms))
    for inexact in (
        lambda: c.scale(0.1),
        lambda: c * 0.5,
        lambda: 0.5 * c,
        lambda: c + 1,
        lambda: c - 1,
        lambda: Element.from_terms(toeplitz, [(m, 0.5)]),
        lambda: normal_form(toeplitz, [(m, 0.5)]),
        lambda: LaurentPoly({0: 0.1}),
        lambda: LaurentPoly.one() * 0.5,
        lambda: LaurentPoly.one() + 1,
        lambda: LaurentPoly({1.5: 1}),
        lambda: LaurentPoly({Fraction(1): 1}),
        lambda: LaurentMatrix.identity(2) + 1,
        lambda: LaurentMatrix.identity(2) - 1,
        lambda: LaurentMatrix.identity(2) * 0.5,
        lambda: 0.5 * LaurentMatrix.identity(2),
        lambda: LaurentMatrix([[1]]),
        lambda: LaurentMatrix([[LaurentPoly.one(), 0.5], [LaurentPoly.zero(), LaurentPoly.one()]]),
    ):
        with pytest.raises(TypeError):
            inexact()


def test_elements_are_not_hashable(toeplitz):
    with pytest.raises(TypeError):
        hash(vertex_element(toeplitz, "v"))


def test_monomial_element_rejects_range_mismatch(fork2):
    with pytest.raises(AlgebraError):
        monomial_element(fork2, ["e1"], ["e2"])


def test_element_rewrites_its_term_map_onto_the_basis(toeplitz, corpus):
    c, e, v = make_path(toeplitz, ["c"]), make_path(toeplitz, ["e"]), toeplitz.vertex_path("v")
    cc = Monomial(c, c)  # c is special at v: c c^* = v v^* - e e^*
    x = Element(toeplitz, {cc: 1})
    assert x == edge_element(toeplitz, "c") * edge_star_element(toeplitz, "c")
    assert (x - Element.from_terms(toeplitz, [(cc, 1)])).is_zero()
    half = Fraction(1, 2)
    z = Element(toeplitz, {Monomial(v, v): half, cc: -half, Monomial(e, e): -half})
    assert z.is_zero() and z.den == 1
    # a map of basis monomials keeps its order
    for g in corpus.values():
        terms = {m: Fraction(k + 1, 3) for k, m in enumerate(reversed(basis_monomials(g, 2)))}
        assert list(Element(g, terms).terms.items()) == list(terms.items())


def test_monomials_whose_paths_end_apart_are_refused(toeplitz):
    # e v^* = e w v^* = 0 is no spanning monomial, as monomial_element says
    ev = Monomial(make_path(toeplitz, ["e"]), toeplitz.vertex_path("v"))
    with pytest.raises(AlgebraError, match="do not share their range"):
        Element(toeplitz, {ev: 1})
    with pytest.raises(AlgebraError, match="do not share their range"):
        Element.from_terms(toeplitz, [(ev, 1)])
    with pytest.raises(AlgebraError, match="do not share their range"):
        normal_form(toeplitz, [(ev, Fraction(1))])


def test_subtraction_names_minus_and_defers_to_the_right_operand(toeplitz):
    class Right:
        def __rsub__(self, left):
            return ("rsub", left)

    right = Right()
    for x in (edge_element(toeplitz, "c"), LaurentPoly.one(), LaurentMatrix.identity(2)):
        for foreign in (1, "a"):
            with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for -: "):
                x - foreign
        tag, left = x - right
        assert tag == "rsub" and left is x


def _cancelling_factors(g: Graph, m: Monomial) -> list[tuple[Element, Element]]:
    """Pairs x, y = m whose product has raw terms that cancel.  With m = r s^*
    and r = q u w for a nonempty u whose last edge is not special, q q^* and
    (q u)(q u)^* are basis monomials (when q is a vertex or ends with an edge
    that is not special) and both give the raw product q u w s^* with m."""
    def prefix(k):
        return make_path(g, list(m.p.edges[:k]) if k else m.p.source)

    out = []
    y = Element.from_terms(g, [(m, Fraction(1))])
    for i in range(len(m.p.edges)):
        q = prefix(i)
        if not is_basis_monomial(g, Monomial(q, q)):
            continue
        for j in range(i + 1, len(m.p.edges) + 1):
            qu = prefix(j)
            if is_basis_monomial(g, Monomial(qu, qu)):
                x = Element(g, {Monomial(q, q): Fraction(1), Monomial(qu, qu): Fraction(-1)})
                out.append((x, y))
    return out


def _assert_product_matches_the_all_pairs_oracle(x: Element, y: Element) -> None:
    got, want = x * y, element_mul_all_pairs(x, y)
    assert list(got.terms.items()) == list(want.terms.items())
    assert str(got) == str(want)


def _assert_product_matches_the_fraction_oracle(x: Element, y: Element) -> None:
    got = list((x * y).terms.items())
    assert got == list(element_mul_fractions(x, y).terms.items())
    assert all(type(c) is Fraction and c for _, c in got)


def _assert_sum_and_difference_match_the_fraction_oracle(x: Element, y: Element) -> None:
    for sign, got in ((1, x + y), (-1, x - y)):
        assert list(got.terms.items()) == list(element_sum_fractions(x, y, sign).items())


def test_product_with_cancelling_raw_terms_matches_the_oracle(corpus):
    cases = 0
    for g in corpus.values():
        for m in basis_monomials(g, 3):
            for x, y in _cancelling_factors(g, m):
                assert any(not c for c in raw_product_all_pairs(x, y).values())
                _assert_product_matches_the_all_pairs_oracle(x, y)
                x, y = x.scale(Fraction(-7, 999_983)), y.scale(Fraction(5, 6))
                _assert_product_matches_the_fraction_oracle(x, y)
                cases += 1
    assert cases > 100


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.data())
def test_product_matches_the_all_pairs_oracle(g, data):
    # terms are paired only when their paths can meet, and new sums are not
    # started at 0; the product's terms, in order, and its text must not move
    pool = basis_monomials(g, 3)
    coefficient = st.fractions(-3, 3, max_denominator=3)
    terms = st.lists(st.tuples(st.sampled_from(pool), coefficient), max_size=5)
    x = Element.from_terms(g, data.draw(terms))
    y = Element.from_terms(g, data.draw(terms))
    m = data.draw(st.sampled_from(pool))
    cancelling = _cancelling_factors(g, m)
    if cancelling and data.draw(st.booleans()):
        cx, cy = data.draw(st.sampled_from(cancelling))
        x, y = x + cx, y + cy
    _assert_product_matches_the_all_pairs_oracle(x, y)
    _assert_product_matches_the_all_pairs_oracle(y, x)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.data())
def test_product_matches_the_fraction_oracle(g, data):
    # the product on int numerators over d1 d2 against one Fraction product
    # per pair of terms, and the sum and difference against Fraction sums:
    # same terms, in the same order, all Fractions
    pool = basis_monomials(g, 3)
    coefficient = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    terms = st.lists(st.tuples(st.sampled_from(pool), coefficient), max_size=6)
    x = Element.from_terms(g, data.draw(terms))
    y = Element.from_terms(g, data.draw(terms))
    cancelling = _cancelling_factors(g, data.draw(st.sampled_from(pool)))
    if cancelling and data.draw(st.booleans()):
        cx, cy = data.draw(st.sampled_from(cancelling))
        x, y = x + cx.scale(data.draw(coefficient)), y + cy
    for a, b in ((x, y), (y, x), (x, zero(g)), (zero(g), y)):
        _assert_product_matches_the_fraction_oracle(a, b)
        _assert_sum_and_difference_match_the_fraction_oracle(a, b)
    _assert_sum_and_difference_match_the_fraction_oracle(x, x)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.data())
def test_difference_matches_the_sum_with_the_negation(g, data):
    # x - y subtracts in place: same terms, in the same order, as x + (-y),
    # on monomials that x and y share with cancelling and other coefficients
    pool = basis_monomials(g, 2)
    coefficient = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
    terms = st.lists(st.tuples(st.sampled_from(pool), coefficient), max_size=6)
    x = Element.from_terms(g, data.draw(terms))
    shared = []
    for m, c in x.terms.items():
        kind = data.draw(st.sampled_from(["cancel", "other", "absent"]))
        if kind != "absent":
            shared.append((m, c if kind == "cancel" else c + data.draw(coefficient)))
    y = Element.from_terms(g, data.draw(st.permutations(shared + data.draw(terms))))
    for a, b in ((x, y), (y, x), (x, x), (x, zero(g)), (zero(g), y)):
        got = list((a - b).terms.items())
        assert got == list((a + -b).terms.items())
        assert all(type(c) is Fraction and c for _, c in got)


def test_product_past_64_bit_denominators_is_exact(toeplitz):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    pool = basis_monomials(toeplitz, 4)
    assert len(pool) >= len(primes)
    # denominators the first 20 primes, so each operand's lcm passes 2**64
    x = Element.from_terms(toeplitz, [(m, Fraction(i + 1, d))
                                      for i, (m, d) in enumerate(zip(pool, primes))])
    y = Element.from_terms(toeplitz, [(m, Fraction(-1, d)) for m, d in zip(reversed(pool), primes)])
    for a in (x, y):
        assert lcm(*(c.denominator for c in a.terms.values())) > 2**64
    _assert_product_matches_the_fraction_oracle(x, y)
    _assert_product_matches_the_fraction_oracle(y, x)
    _assert_sum_and_difference_match_the_fraction_oracle(x, y)
    assert x * y == element_mul_all_pairs(x, y)
    assert any(c.denominator > 2**64 for c in (x * y).terms.values())


def _assert_canonical(x: Element) -> None:
    assert x.den > 0 and gcd(x.den, *x.nums.values()) == 1
    assert all(type(n) is int and n for n in x.nums.values())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graph_texts() | st.sampled_from([p.read_text() for p in sorted(CORPUS.glob("*.graph"))]),
       st.data())
def test_operators_keep_the_stored_form_canonical(text, data):
    # every operator leaves den > 0, gcd(den, *nums) == 1 and no zero
    # numerator, with denominators past 2**64; then == on the stored form is
    # == on the Fraction view.  Most generated texts do not parse, so the
    # corpus texts are drawn as well
    try:
        g = parse_graph(text)
    except GraphError:
        return
    pool = basis_monomials(g, 2)
    coefficient = st.builds(Fraction, st.integers(-2**70, 2**70),
                            st.integers(1, 12) | st.integers(2**64, 2**70))
    terms = st.lists(st.tuples(st.sampled_from(pool), coefficient), max_size=5)
    x = Element.from_terms(g, data.draw(terms))
    y = Element.from_terms(g, data.draw(terms))
    c = data.draw(st.integers(-3, 3) | coefficient)
    got = [x, y, x + y, x - y, y - x, x - x, -x, x * y, y * x, x.scale(c), c * x,
           x.star(), (x * y).star(), y.star() * x.star(), (x + y) - y]
    for z in got:
        _assert_canonical(z)
    for a in got:
        for b in got:
            assert (a == b) == (a.terms == b.terms)


def _fractions_module_calls(f) -> int:
    """The Python-level calls into the fractions module while f() runs.  On
    Python 3.12 and later Fraction arithmetic builds its results without
    Fraction.__new__, so every call into the module is counted, not only
    __new__."""
    fractions_file = sys.modules["fractions"].__file__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == fractions_file

    sys.setprofile(count)
    try:
        f()
    finally:
        sys.setprofile(None)
    return calls


def test_law_checks_make_no_fraction(corpus):
    # the three laws of the element-arithmetic benchmark, on seeded triples
    # of dense rational elements, run on ints only: no Fraction is built
    triples = []
    for name, g in sorted(corpus.items()):
        pool = basis_monomials(g, 3)
        rng = random.Random(f"1911:{name}")

        def element():
            return Element.from_terms(g, [
                (rng.choice(pool), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                for _ in range(4)])

        triples += [(element(), element(), element()) for _ in range(20)]
    laws = (
        lambda x, y, z: (x * y) * z == x * (y * z),
        lambda x, y, z: (x * y).star() == y.star() * x.star(),
        lambda x, y, z: bracket(x, y) == -bracket(y, x),
    )
    held = []
    assert _fractions_module_calls(lambda: held.extend(law(*t) for t in triples for law in laws)) == 0
    assert len(held) == 3 * len(triples) and all(held)
    assert _fractions_module_calls(lambda: str(triples[0][0])) > 0  # the count sees Fractions


def test_bracket_and_ideal_spans_make_no_fraction(corpus):
    # reduced rows stay int id vectors up to MonomialTable.element
    rows = []
    for name, g in sorted(corpus.items()):
        ws = hereditary_closure(g, [g.vertices[-1]])
        calls = _fractions_module_calls(
            lambda: rows.extend([*bracket_space(g, 3).basis, *ideal_span(g, ws, 3)]))
        assert calls == 0, name
    assert rows


def test_normal_form_of_int_items_has_fraction_coefficients(toeplitz, fork2):
    for g in (toeplitz, fork2):
        projections = [Monomial(make_path(g, [e]), make_path(g, [e])) for e in g.edge_map]
        for m in basis_monomials(g, 2) + projections:  # e e^* rewrites when e is special
            out = normal_form(g, [(m, 3), (m, -1)])
            assert out and all(type(c) is Fraction for c in out.values())
            assert list(out.items()) == list(normal_form(g, [(m, Fraction(2))]).items())


def test_monomial_mul_agrees_with_element_mul(rng, toeplitz):
    ms = basis_monomials(toeplitz, 2)
    for _ in range(60):
        m1 = ms[rng.randrange(len(ms))]
        m2 = ms[rng.randrange(len(ms))]
        via_elements = Element.from_terms(toeplitz, [(m1, Fraction(1))]) * Element.from_terms(
            toeplitz, [(m2, Fraction(1))]
        )
        assert monomial_mul(toeplitz, m1, m2) == via_elements


# -- bases and dimension ----------------------------------------------------------------


def test_paths_up_to(toeplitz, fork2):
    got = [str(p) for p in paths_up_to(toeplitz, 2)]
    assert got == ["v", "w", "c", "e", "c c", "c e"]
    # the search stops once a level is empty, far below the bound
    assert [str(p) for p in paths_up_to(fork2, 9)] == ["u", "w1", "w2", "e1", "e2"]


def test_loop_basis_low_degrees(loop):
    got = [str(m) for m in basis_monomials(loop, 2)]
    assert got == ["v . v^*", "v . c^*", "c . v^*", "v . c c^*", "c c . v^*"]


def test_basis_monomials_sorted_and_unique(corpus):
    for g in corpus.values():
        ms = basis_monomials(g, 3)
        keys = [monomial_key(m) for m in ms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def _assert_ids_follow_monomial_key(g, n) -> None:
    """MonomialTable ids list the basis monomials in monomial_key order, and
    k < star(k) exactly when m comes before m^* in that order."""
    table = MonomialTable(g)
    ms = basis_monomials(g, n)
    ids = [intern(table, m) for m in ms]
    assert all(a < b for a, b in zip(ids, ids[1:])), (g, n)
    for m, k in zip(ms, ids):
        assert (k < table.star(k)) == (monomial_key(m) < monomial_key(m.star())), (g, n, str(m))


def test_table_ids_follow_monomial_key_on_the_corpus(corpus):
    for g in corpus.values():
        for n in range(5):
            _assert_ids_follow_monomial_key(g, n)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 4))
@example(build(["v"]), 4)  # no edge, so the base B is 2
@example(build(["b", "d"], [("a", "b", "d"), ("c", "d", "b"), ("e", "b", "b")]), 4)  # a < b < c < d < e
def test_table_ids_follow_monomial_key(g, n):
    _assert_ids_follow_monomial_key(g, n)


def _code(g, p) -> int:
    """p's code written out: its source's rank among the vertex names, or
    the digits 1 and the ranks of its edges among the edge names, in base
    max(|V|, |E|, 2)."""
    if not p.edges:
        return sorted(g.vertices).index(p.source)
    base, names = max(len(g.vertices), len(g.edges), 2), sorted(g.edge_map)
    return sum(names.index(e) * base**i for i, e in enumerate(reversed(p.edges))) + base ** len(p.edges)


def _assert_ids_decode(g) -> None:
    """Every basis monomial m = p q^* of degree <= 4 comes back from its id
    on a table that never met it: _decode gives the codes of p and q and
    monomial gives m; star is an involution and gives the id of q p^*."""
    table, fresh = MonomialTable(g), MonomialTable(g)
    for m in basis_monomials(g, 4):
        k = intern(table, m)
        a, b, w = fresh._decode(k)
        assert (a, b) == (_code(g, m.p), _code(g, m.q)) and k == (w + a) * w + b, str(m)
        assert fresh.monomial(k) == (m.p, m.q), str(m)
        assert table.star(table.star(k)) == k, str(m)
        assert table.star(k) == intern(table, m.star()), str(m)


def test_ids_decode_and_star_round_trip(corpus):
    graphs = [
        *corpus.values(),
        build(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "c")]),  # |V| > |E|
        build(["v", "w"], [("e1", "v", "w"), ("e2", "v", "w"), ("c", "v", "v"), ("r", "w", "v")]),
        build(["v"]),  # no edge, so the base B is 2
    ]
    assert [len(g.vertices) > len(g.edges) for g in graphs[-3:]] == [True, False, True]
    for g in graphs:
        _assert_ids_decode(g)


def test_dimension_frozen_values(corpus):
    assert dimension(corpus["single_vertex"]) == 1
    assert dimension(corpus["fiber"]) == 4
    assert dimension(corpus["fork2"]) == 8
    assert dimension(corpus["fork3"]) == 12
    assert dimension(corpus["parallel_fork"]) == 9
    assert dimension(corpus["path2"]) == 9
    assert dimension(corpus["convergent"]) == 9


def test_dimension_matches_path_count_oracle(rng):
    for _ in range(120):
        g = random_acyclic_graph(rng)
        assert dimension(g) == dimension_oracle(g)
        # paths of an acyclic graph are at most |V| - 1 long
        assert dimension(g) == len(basis_monomials(g, 2 * (len(g.vertices) - 1)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(acyclic_multigraphs(max_vertices=8, max_edges=12) | multigraphs())
def test_dimension_matches_the_oracle_or_finds_the_cycle(g):
    # declaration order is random, so the pass cannot lean on it
    if cycles_oracle(g):
        with pytest.raises(GraphHasCycle):
            dimension(g)
    else:
        assert dimension(g) == dimension_oracle(g)


def test_dimension_reuses_the_cached_condensation(corpus, monkeypatch):
    graph_module = sys.modules["lpakit.graph"]
    tarjan, calls = graph_module._tarjan, []
    monkeypatch.setattr(graph_module, "_tarjan", lambda *args: calls.append(1) or tarjan(*args))
    g = load("convergent")
    assert dimension(g) == 9 and len(calls) == 1
    classify(g)
    assert dimension(g) == 9 and len(calls) == 1


def _diamond_chain(k: int) -> Graph:
    """v0 => v1 => ... => vk, each step a diamond through a_i and b_i."""
    vs, es = ["v0"], []
    for i in range(1, k + 1):
        vs += [f"a{i}", f"b{i}", f"v{i}"]
        es += [(f"x{i}", f"v{i - 1}", f"a{i}"), (f"y{i}", f"v{i - 1}", f"b{i}"),
               (f"z{i}", f"a{i}", f"v{i}"), (f"w{i}", f"b{i}", f"v{i}")]
    return Graph(vs, es)


def test_dimension_counts_paths_without_listing_them():
    # N(v_i) = 2 N(v_(i-1)) + 3 paths end at v_i, so 2^(k+2) - 3 at the sink
    for k in range(4):
        g = _diamond_chain(k)
        assert dimension(g) == (2 ** (k + 2) - 3) ** 2 == dimension_oracle(g)
    # 2^66 - 3 paths end at the sink: far too many to list
    assert dimension(_diamond_chain(64)) == (2 ** 66 - 3) ** 2


def test_dimension_rejects_cycles(toeplitz):
    with pytest.raises(GraphHasCycle):
        dimension(toeplitz)


# -- row reduction and spans ----------------------------------------------------------


def test_rowspace_rank_and_membership(fork2):
    e1 = edge_element(fork2, "e1")
    e2 = edge_element(fork2, "e2")
    space = span([e1 + e2, e1 - e2, e1 + e2])
    assert space.rank == 2
    assert space.contains(e1.terms) and space.contains(e2.terms)
    assert not space.contains(vertex_element(fork2, "u").terms)


def test_rowspace_reduced_rows_are_canonical(rng, toeplitz):
    xs = [random_element(toeplitz, rng) for _ in range(6)]
    a = span(xs)
    b = span(list(reversed(xs)))
    ra = [sorted(r.items(), key=lambda kv: monomial_key(kv[0])) for r in a.reduced_rows()]
    rb = [sorted(r.items(), key=lambda kv: monomial_key(kv[0])) for r in b.reduced_rows()]
    assert ra == rb  # insertion order cannot matter


def test_rowspace_matches_the_fraction_oracle(rng, corpus, fork2):
    # integer coefficients up to 3 give pivot rows with leads 2 and 3, so
    # the residue is scaled as well as reduced; one-term elements take
    # RowSpace.add's one-entry rule, with no pivot row at their id, the row
    # {k: 1} there or a longer row
    def check(g, adds, probes=()):
        fast, slow = ElementSpan(g), FractionRowSpace()
        for terms in adds:
            assert fast.add(terms) == slow.add(terms)
        assert fast.rank == slow.rank
        assert fast.reduced_rows() == slow.reduced_rows()
        for terms in probes:
            assert fast.contains(terms) == slow.contains(terms)
        return fast

    for name in ("toeplitz", "two_balloons", "parallel_fork"):
        g = corpus[name]
        for _ in range(10):
            xs = [random_element(g, rng, terms=rng.choice((1, 4))) for _ in range(8)]
            check(g, [x.terms for x in xs[:5]], [x.terms for x in xs[5:] + xs[:2]])
    e1, e2 = edge_element(fork2, "e1"), edge_element(fork2, "e2")
    [m1] = e1.terms
    assert check(fork2, [{m1: Fraction(0)}]).rank == 0
    assert check(fork2, [(e1 + e2).terms, {m1: Fraction(0)}]).rank == 1
    assert check(fork2, [{m1: Fraction(-2)}]).reduced_rows() == [e1.terms]
    assert check(fork2, [{m1: Fraction(3)}, {m1: Fraction(3)}, {m1: Fraction(-1)}]).rank == 1
    space = check(fork2, [(e1 + e2).terms, e1.terms])
    assert space.rank == 2
    assert space.reduced_rows() == [e1.terms, e2.terms]


def test_rowspace_reduces_against_a_pivot_with_lead_two(fork2):
    e1, e2 = edge_element(fork2, "e1"), edge_element(fork2, "e2")
    space = span([2 * e1 + e2, e1 + e2])
    assert space.rank == 2
    assert [dict(r) for r in space.reduced_rows()] == [e1.terms, e2.terms]
    assert not span([2 * e1 + e2]).contains(e1.terms)


def test_reduced_rows_leaves_the_space_as_it_was(corpus):
    g = corpus["loop_two_exits"]
    buckets = []  # the bracket pass's RowSpaces, one per bucket, on one table
    _bracket_pass(g, 2, visit=buckets.append)
    spaces = (*buckets, _ideal_space(MonomialTable(g), classify(g).core, 3))
    assert len(buckets) > 1 and all(space.table is buckets[0].table for space in buckets)
    for space in spaces:
        rank, pivots = space.rank, [(k, dict(row)) for k, row in space.pivots.items()]
        rows = space.reduced_rows()
        assert space.rank == rank == len(rows)
        assert [(k, dict(row)) for k, row in space.pivots.items()] == pivots
        assert space.reduced_rows() == rows
        # canonical rows: by pivot, primitive, a positive lead first, ids
        # increasing, and no other row's pivot
        leads = [next(iter(row.items())) for row in rows]
        assert [k for k, _ in leads] == sorted(space.pivots)
        for row, (k, lead) in zip(rows, leads):
            assert lead > 0 and gcd(*row.values()) == 1 and list(row) == sorted(row)
            assert not set(row) & space.pivots.keys() - {k}
    # the bracket pass leaves pivot columns in row tails for reduced_rows to clear
    assert any(k in space.pivots for space in buckets
               for p, row in space.pivots.items() for k in row if k != p)
    # bracket_space reduces each bucket in skew coordinates, then maps the
    # rows to monomial ids: those are the reduced rows of the mapped pivot rows
    mapped = []

    def check(space: RowSpace) -> None:
        got = [list(_monomial_ids(space.table, row).items()) for row in space.reduced_rows()]
        assert got == [list(row.items()) for row in monomial_id_space(space).reduced_rows()]
        mapped.append(len(got))

    for g in corpus.values():
        for n in range(4):
            _bracket_pass(g, n, visit=check)
    assert sum(mapped) > 100


def test_element_in_span(fork2):
    u = vertex_element(fork2, "u")
    e1, e2 = edge_element(fork2, "e1"), edge_element(fork2, "e2")
    assert span([u, e2 * e2.star()]).contains((e1 * e1.star()).terms)
    assert not span([u, e2]).contains(e1.terms)


# -- ideals -------------------------------------------------------------------------


def test_ideal_span_fiber_reaches_the_source(fiber):
    # ee^* rewrites to u, so the sink's ideal slice is the whole algebra
    rows = ideal_span(fiber, ["w"], 2)
    assert len(rows) == 4
    assert span(rows).contains(vertex_element(fiber, "u").terms)


def test_ideal_span_toeplitz_slice(toeplitz):
    rows = ideal_span(toeplitz, ["w"], 2)
    assert len(rows) == 6
    e = edge_element(toeplitz, "e")
    space = span(rows)
    assert space.contains(e.terms)
    assert space.contains((e * e.star()).terms)
    assert not space.contains(vertex_element(toeplitz, "v").terms)


def test_ideal_span_rejects_non_hereditary(toeplitz):
    with pytest.raises(NotHereditary):
        ideal_span(toeplitz, ["v"], 2)
    # a name that is no vertex is refused, as hereditary_closure refuses it
    for ws in (["typo"], ["w", "typo"]):
        with pytest.raises(UnknownVertex):
            ideal_span(toeplitz, ws, 2)


def test_ideal_slice_absorbs_products(rng, toeplitz):
    rows = ideal_span(toeplitz, ["w"], 4)
    space = span(rows)
    for _ in range(25):
        x = random_element(toeplitz, rng, degree=1, terms=2)
        for row in rows[:4]:
            prod = x * row
            if prod.degree() <= 4 and all(m.degree <= 4 for m in prod.support()):
                assert space.contains(prod.terms)


# -- idempotent families -----------------------------------------------------------------


def test_idempotent_family_toeplitz(toeplitz):
    fam = orthogonal_idempotent_family(toeplitz, ["w"], 1)
    assert [str(x) for x in fam] == ["1 * w . w^*", "1 * e . e^*", "1 * c e . c e^*"]
    for i, x in enumerate(fam):
        assert x * x == x
        for j, y in enumerate(fam):
            if i != j:
                assert (x * y).is_zero()


def test_idempotent_family_grows_with_depth(corpus):
    g = corpus["two_balloons"]
    fam = orthogonal_idempotent_family(g, ["w"], 2)
    # core sum plus (loop^j edge) projections for two balloons, j = 0..2
    assert len(fam) == 1 + 2 * 3
    for x in fam:
        assert x * x == x
