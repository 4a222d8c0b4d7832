import gc
import random
import weakref
from fractions import Fraction

import pytest

from helpers import (
    FractionRowSpace,
    dimension_oracle,
    load,
    normal_form_random_order,
    random_acyclic_graph,
    random_element,
    span,
)

from lpakit.algebra import (
    AlgebraError,
    Element,
    GraphHasCycle,
    MixedGraphs,
    Monomial,
    NotBalloonDecomposition,
    NotHereditary,
    all_paths,
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
    orthogonal_idempotent_family,
    paths_up_to,
    special_edges,
    vertex_element,
    vertex_sum,
    zero,
)


# -- monomials and normal forms ---------------------------------------------------


def test_special_edges_are_lex_least(toeplitz, fork2):
    assert special_edges(toeplitz) == {"v": "c"}
    assert special_edges(fork2) == {"u": "e1"}


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
        again = normal_form_random_order(
            g,
            [(bad, Fraction(3)), (Monomial(cpath, cpath), Fraction(-1))],
            rng,
        )
        assert again == baseline


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


def test_elements_are_not_hashable(toeplitz):
    with pytest.raises(TypeError):
        hash(vertex_element(toeplitz, "v"))


def test_monomial_element_rejects_range_mismatch(fork2):
    with pytest.raises(AlgebraError):
        monomial_element(fork2, ["e1"], ["e2"])


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


def test_paths_up_to(toeplitz):
    got = [str(p) for p in paths_up_to(toeplitz, 2)]
    assert got == ["v", "w", "c", "e", "c c", "c e"]


def test_all_paths_needs_acyclic(toeplitz, fork2):
    with pytest.raises(GraphHasCycle):
        all_paths(toeplitz)
    assert [str(p) for p in all_paths(fork2)] == ["u", "w1", "w2", "e1", "e2"]


def test_loop_basis_low_degrees(loop):
    got = [str(m) for m in basis_monomials(loop, 2)]
    assert got == ["v . v^*", "v . c^*", "c . v^*", "v . c c^*", "c c . v^*"]


def test_basis_monomials_sorted_and_unique(corpus):
    for g in corpus.values():
        ms = basis_monomials(g, 3)
        keys = [monomial_key(m) for m in ms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


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


def test_rowspace_matches_the_fraction_oracle(rng, corpus):
    # integer coefficients up to 3 give pivot rows with leads 2 and 3, so
    # the residue is scaled as well as reduced
    for name in ("toeplitz", "two_balloons", "parallel_fork"):
        g = corpus[name]
        for _ in range(10):
            xs = [random_element(g, rng, terms=4) for _ in range(8)]
            fast, slow = span(xs[:5]), FractionRowSpace()
            for x in xs[:5]:
                slow.add(x.terms)
            assert fast.rank == slow.rank
            assert fast.reduced_rows() == slow.reduced_rows()
            for x in xs[5:] + xs[:2]:
                assert fast.contains(x.terms) == slow.contains(x.terms)


def test_rowspace_reduces_against_a_pivot_with_lead_two(fork2):
    e1, e2 = edge_element(fork2, "e1"), edge_element(fork2, "e2")
    space = span([2 * e1 + e2, e1 + e2])
    assert space.rank == 2
    assert [dict(r) for r in space.reduced_rows()] == [e1.terms, e2.terms]
    assert not span([2 * e1 + e2]).contains(e1.terms)


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


def test_idempotent_family_needs_decomposition(fork2, toeplitz):
    with pytest.raises(NotBalloonDecomposition):
        orthogonal_idempotent_family(fork2, ["w1"], 1)
    with pytest.raises(NotBalloonDecomposition):
        orthogonal_idempotent_family(toeplitz, ["v"], 1)  # wrong core
