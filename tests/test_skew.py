import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    bracket_pass_oracle,
    containment_oracle,
    first_nonzero_bracket_oracle,
    ideal_space_oracle,
    multigraphs,
    random_element,
    random_graph,
    rows_as_elements,
    span,
)

from lpakit.algebra import (
    RowSpace,
    basis_monomials,
    edge_element,
    ideal_span,
    monomial_key,
    vertex_element,
    zero,
)
from lpakit.classify import hereditary_closure
from lpakit.skew import (
    NotAFiber,
    NotAlmostSimple,
    TableMismatch,
    bracket,
    bracket_in_ideal,
    bracket_space,
    fiber_m2_iso,
    first_nonzero_bracket,
    is_skew,
    lie_simplicity_evidence,
    skew_basis,
    skew_part,
)


# -- the skew slice ---------------------------------------------------------------


def test_skew_part_and_predicate(toeplitz, rng):
    for _ in range(30):
        x = random_element(toeplitz, rng)
        k = skew_part(x)
        assert is_skew(k)
        assert skew_part(k) == 2 * k  # already skew: x - x^* doubles
    assert is_skew(zero(toeplitz))
    assert not is_skew(vertex_element(toeplitz, "v"))


def test_skew_basis_spans_the_minus_one_eigenspace(corpus):
    # every basis monomial is either symmetric (p == q) or pairs off, so the
    # skew slice has one generator per orbit
    for g in (corpus["toeplitz"], corpus["fork2"], corpus["double_edge_cycle"]):
        n = 3
        ms = basis_monomials(g, n)
        sym = [m for m in ms if m.p == m.q]
        gens = skew_basis(g, n)
        assert len(gens) == (len(ms) - len(sym)) // 2
        for x in gens:
            assert is_skew(x)
            assert len(x.support()) == 2
            assert {abs(c) for c in x.terms.values()} == {Fraction(1)}


def test_skew_basis_of_vanishing_graphs_brackets_to_zero(corpus):
    for name in ("single_vertex", "fiber", "fork2", "fork3", "loop"):
        g = corpus[name]
        gens = skew_basis(g, 4)
        for a, b in itertools.combinations(gens, 2):
            assert bracket(a, b).is_zero(), name


def test_bracket_laws(rng, corpus):
    for g in (corpus["toeplitz"], corpus["balloon_core2"]):
        for _ in range(25):
            x = random_element(g, rng)
            y = random_element(g, rng)
            z = random_element(g, rng)
            assert bracket(x, x).is_zero()
            assert bracket(x, y) == -bracket(y, x)
            jac = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            assert jac.is_zero()
            assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)


def test_bracket_of_skews_is_skew(rng, toeplitz):
    for _ in range(30):
        a = skew_part(random_element(toeplitz, rng))
        b = skew_part(random_element(toeplitz, rng))
        assert is_skew(bracket(a, b))


# -- bracket spaces and witnesses ------------------------------------------------------


def test_bracket_space_dimensions_frozen(toeplitz, loop, corpus):
    assert bracket_space(toeplitz, 3).dimension == 11
    assert bracket_space(toeplitz, 4).dimension == 18
    assert bracket_space(loop, 8).dimension == 0
    assert bracket_space(corpus["fork3"], 6).dimension == 0
    assert bracket_space(corpus["parallel_fork"], 4).dimension == 3  # so(3)


def test_bracket_space_rows_live_in_bracket_span(toeplitz):
    bs = bracket_space(toeplitz, 2)
    gens = skew_basis(toeplitz, 2)
    raw = span(bracket(a, b) for a, b in itertools.combinations(gens, 2))
    assert bs.dimension == raw.rank
    for row in bs.basis:
        assert raw.contains(row.terms)


def test_first_nonzero_bracket_toeplitz(toeplitz):
    w = first_nonzero_bracket(toeplitz, 2)
    assert w is not None
    c = edge_element(toeplitz, "c")
    e = edge_element(toeplitz, "e")
    assert w.left == skew_part(c.star()) and w.right == skew_part(e.star())
    # [c^* - c, e^* - e] = ce - (ce)^*: the surviving terms are the two
    # composable products c.e and e^*.c^*
    ce = c * e
    assert w.value == ce - ce.star()
    assert bracket(w.left, w.right) == w.value


def test_first_nonzero_bracket_none_for_vanishing(corpus):
    assert first_nonzero_bracket(corpus["fork3"], 4) is None
    assert first_nonzero_bracket(corpus["loop"], 6) is None


def test_witness_and_rank_match_the_sort_all_pairs_oracle(corpus, rng):
    cases = [(name, g, n) for name, g in corpus.items() for n in range(5)]
    for k in range(25):
        g = random_graph(rng, max_vertices=5, max_edges=3)
        cases += [(f"random {k}", g, n) for n in range(3)]
    for name, g, n in cases:
        want = first_nonzero_bracket_oracle(g, n)
        bundle = lie_simplicity_evidence(g, n)
        assert first_nonzero_bracket(g, n) == want, (name, n)
        assert bundle.witness == want, (name, n)
        assert bracket_space(g, n).dimension == bundle.bracket_space_dimension, (name, n)
        if bundle.ideal_containment is not None:
            core = list(bundle.classification.core)
            assert bundle.ideal_containment == bracket_in_ideal(g, core, 2, 2), (name, n)


def _assert_matches_the_element_oracle(g, n) -> None:
    """The integer kernel against the Element and Fraction routes it
    replaced: rank, witness and containment of the evidence bundle, the
    reduced bracket space and an ideal slice."""
    space, witness, _ = bracket_pass_oracle(g, n)
    bundle = lie_simplicity_evidence(g, n)
    assert bundle.bracket_space_dimension == space.rank
    assert bundle.witness == witness
    cls = bundle.classification
    want = containment_oracle(g, list(cls.core), 2, 2) if cls.almost_simple else None
    assert bundle.ideal_containment == want
    assert bracket_space(g, n).basis == rows_as_elements(g, space)
    ws = hereditary_closure(g, [g.vertices[0]])
    assert ideal_span(g, ws, n) == list(rows_as_elements(g, ideal_space_oracle(g, ws, n)))


def test_integer_kernel_matches_the_oracle_on_the_corpus(corpus):
    for name, g in corpus.items():
        for n in range(5):
            _assert_matches_the_element_oracle(g, n)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=4), st.integers(0, 3))
def test_integer_kernel_matches_the_oracle(g, n):
    # the oracle multiplies Elements pair by pair, seconds for a slice of
    # 150 generators; the corpus cases above cover slices that large
    assume(len(skew_basis(g, n)) <= 80)
    _assert_matches_the_element_oracle(g, n)


def _bracket_matrix(g, n) -> list[list]:
    """One row per bracket of two skew generators, one column per monomial."""
    values = [bracket(a, b).terms for a, b in itertools.combinations(skew_basis(g, n), 2)]
    columns = sorted({m for v in values for m in v}, key=monomial_key)
    return [[v.get(m, 0) for m in columns] for v in values]


def test_rank_is_exact_against_sympy(corpus, rng):
    sympy = pytest.importorskip("sympy")
    cases = [(corpus["toeplitz"], n) for n in range(4)]
    cases += [(corpus["parallel_fork"], n) for n in range(5)]
    cases += [(random_graph(rng, max_vertices=3, max_edges=3), 2) for _ in range(4)]
    for g, n in cases:
        rows = _bracket_matrix(g, n)
        want = sympy.Matrix(rows).rank() if rows and rows[0] else 0
        assert lie_simplicity_evidence(g, n).bracket_space_dimension == want, (g, n)


def _count_calls(monkeypatch, calls: Counter, owner, attr: str) -> None:
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_evidence_bundle_evaluates_each_bracket_once(corpus, monkeypatch):
    calls = Counter()
    # the package re-exports classify(), which hides the submodule's name
    _count_calls(monkeypatch, calls, sys.modules["lpakit.skew"], "_generator_bracket")
    _count_calls(monkeypatch, calls, sys.modules["lpakit.skew"], "classify")
    _count_calls(monkeypatch, calls, sys.modules["lpakit.classify"], "classify")
    _count_calls(monkeypatch, calls, RowSpace, "reduced_rows")
    for name in ("toeplitz", "balloon_core2", "double_edge_cycle", "fork2", "fiber"):
        g = corpus[name]
        g2 = len(skew_basis(g, 2))
        for n in range(4):
            gn = len(skew_basis(g, n))
            calls.clear()
            bundle = lie_simplicity_evidence(g, n)
            want = gn * (gn - 1) // 2
            # the degree-2 probe reuses the main pass's brackets once n >= 2
            if bundle.classification.almost_simple and n < 2:
                want += g2 * (g2 - 1) // 2
            assert calls["_generator_bracket"] == want, (name, n)
            assert calls["classify"] == 1, (name, n)
            assert calls["reduced_rows"] == 0, (name, n)


def test_first_nonzero_bracket_stops_early(toeplitz, monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, sys.modules["lpakit.skew"], "_generator_bracket")
    gens = len(skew_basis(toeplitz, 4))
    assert first_nonzero_bracket(toeplitz, 4) is not None
    assert 0 < calls["_generator_bracket"] < gens * (gens - 1) // 2


def test_witness_exists_for_every_almost_simple_corpus_graph(corpus):
    from lpakit.classify import classify

    for name, g in corpus.items():
        if classify(g).almost_simple:
            assert first_nonzero_bracket(g, 2) is not None, name


# -- the 2x2 model ------------------------------------------------------------------


def test_fiber_m2_check_passes(fiber):
    chk = fiber_m2_iso(fiber, "e")
    assert chk.products_checked == 16 and chk.star_checked == 4
    # the source vertex has a single edge, so E11 collapses to it
    assert chk.images["E11"] == vertex_element(fiber, "u")
    assert chk.images["E22"] == vertex_element(fiber, "w")


def test_fiber_m2_check_inside_fork(fork2):
    chk = fiber_m2_iso(fork2, "e1")
    u = vertex_element(fork2, "u")
    e2 = edge_element(fork2, "e2")
    assert chk.images["E11"] == u - e2 * e2.star()


def test_fiber_m2_requires_a_fiber(toeplitz, corpus):
    with pytest.raises(NotAFiber):
        fiber_m2_iso(toeplitz, "e")  # source carries a loop
    with pytest.raises(NotAFiber):
        fiber_m2_iso(corpus["convergent"], "e1")  # sink shared


def test_fiber_m2_detects_broken_tables(fiber, monkeypatch):
    import lpakit.skew as skew_mod

    original = skew_mod.edge_star_element

    def sabotage(g, e):
        return original(g, e) * 2

    monkeypatch.setattr(skew_mod, "edge_star_element", sabotage)
    with pytest.raises(TableMismatch):
        skew_mod.fiber_m2_iso(fiber, "e")


# -- ideal containment and evidence -----------------------------------------------------


def test_bracket_in_ideal_on_positive_graphs(corpus):
    from lpakit.classify import classify

    for name in ("toeplitz", "two_balloons", "balloon_core2", "double_edge_cycle"):
        g = corpus[name]
        cls = classify(g)
        rep = bracket_in_ideal(g, list(cls.core), 2, 2)
        assert rep.contained, name
        assert rep.truncation == 2 and rep.slack == 2
        assert rep.bracket_dimension <= rep.ideal_rank


def test_bracket_in_ideal_rejects_negative_graphs(corpus):
    with pytest.raises(NotAlmostSimple):
        bracket_in_ideal(corpus["fork2"], ["w1"], 2)
    with pytest.raises(NotAlmostSimple):
        bracket_in_ideal(corpus["toeplitz"], ["v"], 2)  # wrong core


def test_evidence_bundle_positive(toeplitz):
    bundle = lie_simplicity_evidence(toeplitz, 3)
    assert bundle.classification.almost_simple
    assert bundle.truncation == 3
    assert bundle.algebra_dimension is None  # cycle: infinite dimensional
    assert bundle.bracket_space_dimension == 11
    assert not bundle.vanishing_family
    assert bundle.witness is not None
    assert bundle.ideal_containment is not None and bundle.ideal_containment.contained


def test_evidence_bundle_negative(corpus):
    bundle = lie_simplicity_evidence(corpus["fork2"], 3)
    assert not bundle.classification.almost_simple
    assert bundle.algebra_dimension == 8
    assert bundle.bracket_space_dimension == 0
    assert bundle.vanishing_family
    assert bundle.witness is None
    assert bundle.ideal_containment is None


def test_evidence_bundle_simple_but_not_almost_simple(corpus):
    # the lone fiber: simple graph, zero commutators
    bundle = lie_simplicity_evidence(corpus["fiber"], 3)
    assert bundle.classification.simple
    assert not bundle.classification.almost_simple
    assert bundle.bracket_space_dimension == 0
    assert bundle.vanishing_family
