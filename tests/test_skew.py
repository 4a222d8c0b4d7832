import itertools
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    acyclic_multigraphs,
    bracket_pass_oracle,
    build,
    containment_oracle,
    degree_ordered_pairs,
    dimension_oracle,
    first_nonzero_bracket_oracle,
    TupleTable,
    ideal_space_oracle,
    intern,
    is_skew,
    load,
    longest_path,
    meeting_pairs,
    multigraphs,
    path_counts,
    random_element,
    random_graph,
    rows_as_elements,
    single_space_bracket_pass,
    single_space_bracket_rows,
    single_space_containment,
    skew_basis_by_key,
    span,
    tuple_generator_bracket,
)

from lpakit.algebra import (
    MonomialTable,
    RowSpace,
    basis_monomials,
    edge_element,
    ideal_span,
    monomial_key,
    vertex_element,
    zero,
    _ideal_space,
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
    lie_simplicity_evidence,
    skew_basis,
    skew_part,
    _bracket_pass,
    _generator_bracket,
    _generators,
    _grades,
    _monomial_ids,
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 4))
def test_skew_basis_matches_the_key_route(g, n):
    got, want = skew_basis(g, n), skew_basis_by_key(g, n)
    assert got == want
    assert [list(x.terms.items()) for x in got] == [list(x.terms.items()) for x in want]
    assert [str(x) for x in got] == [str(x) for x in want]


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
            assert bundle.ideal_containment == bracket_in_ideal(g, 2, 2), (name, n)


def _grade(m) -> frozenset:
    """The sign grading of p q^*: s(p), s(q) and each edge of p and q,
    counted mod 2, as the set of names with odd count (vertex and edge
    names are pairwise distinct)."""
    counts = Counter((m.p.source, m.q.source) + m.p.edges + m.q.edges)
    return frozenset(x for x, k in counts.items() if k % 2)


def _assert_matches_the_element_oracle(g, n) -> None:
    """The integer kernel against the Element and Fraction routes it
    replaced: each bracket, rank, witness and containment of the evidence
    bundle, the reduced bracket space and an ideal slice.  Every bracket of
    two generators is keyed by lower ids k < star(k) only, taken to
    monomial ids it is the Element bracket, in increasing id order, and it
    is homogeneous of the sum of their grades."""
    table, gens = MonomialTable(g), skew_basis(g, n)
    grades = [_grade(next(iter(x.terms))) for x in gens]  # m and m^* agree
    records, normal = _generators(table, n), {}
    assert [x[0] for x in records] == _ids_in(table, gens)
    for i, j in degree_ordered_pairs(table, records):
        vec = _generator_bracket(table, records[i], records[j], normal)
        assert all(k < table.star(k) for k in vec), (i, j)
        ids = _monomial_ids(table, vec)
        assert ids == {intern(table, m): c for m, c in bracket(gens[i], gens[j]).terms.items()}, (i, j)
        assert list(ids) == sorted(ids), (i, j)
        want = grades[i] ^ grades[j]
        assert all(_grade(table.monomial(k)) == want for k in vec), (i, j)
    space, witness, _ = bracket_pass_oracle(g, n)
    bundle = lie_simplicity_evidence(g, n)
    assert bundle.bracket_space_dimension == space.rank
    assert bundle.witness == witness
    cls = bundle.classification
    want = containment_oracle(g, list(cls.core), 2, 2) if cls.almost_simple else None
    assert bundle.ideal_containment == want
    basis = bracket_space(g, n).basis
    assert basis == rows_as_elements(g, space)
    assert all(list(x.terms) == sorted(x.terms, key=monomial_key) for x in basis)
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


def _assert_matches_the_tuple_kernel(g, n) -> int:
    """_generator_bracket on codes against the tuple kernel it replaced
    (TupleTable, tuple_generator_bracket), vector by vector over every
    meeting pair of the degree-<=n slice; returns the largest id met.

    Among the mutants it catches is a rewrite step that shortens both
    paths to their source vertices once p has length 1, as if |p| = |q|
    there: from n = 2 on balloon_core2 and nine more corpus graphs."""
    table, oracle = MonomialTable(g), TupleTable(g)
    records = _generators(table, n)
    ks = [oracle.intern(m) for m in basis_monomials(g, n)]
    ks = [k for k in ks if k < oracle.star(k)]
    assert [x[0] for x in records] == ks
    stars = [(k, oracle.star(k)) for k in ks]
    top, normal = max(ks, default=0), {}
    for i, j in degree_ordered_pairs(table, records):
        vec = _generator_bracket(table, records[i], records[j], normal)
        assert vec == tuple_generator_bracket(oracle, stars[i], stars[j]), (i, j)
        top = max(top, *vec, 0)
    return top


def test_code_kernel_matches_the_tuple_kernel_on_the_corpus(corpus):
    for name, g in corpus.items():
        for n in range(6):
            _assert_matches_the_tuple_kernel(g, n)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.integers(0, 3))
def test_code_kernel_matches_the_tuple_kernel(g, n):
    assume(len(skew_basis(g, n)) <= 300)
    _assert_matches_the_tuple_kernel(g, n)


def test_code_kernel_matches_the_tuple_kernel_past_64_bits():
    # a 300-vertex cycle with an exit at each vertex: B = 600, so the ids
    # of degree 6 are near 2 (2 * 600^7)^2, past 2**128
    size = 300
    vertices = [f"c{i}" for i in range(size)] + [f"s{i}" for i in range(size)]
    edges = [(f"a{i}", f"c{i}", f"c{(i + 1) % size}") for i in range(size)]
    edges += [(f"x{i}", f"c{i}", f"s{i}") for i in range(size)]
    assert _assert_matches_the_tuple_kernel(build(vertices, edges), 3) > 2**128


def _assert_matches_the_single_space_pass(g, n) -> None:
    """The bucketed bracket pass against the single-RowSpace pass it
    replaced: the rank, the witness, the containment reports of the bundle
    and of bracket_in_ideal at slack 2 and at the conclusive slack n, and
    bracket_space's rows in their term order.
    Also each generator's grade in src against _grade."""
    space, witness, _ = single_space_bracket_pass(g, n)
    assert _bracket_pass(g, n)[0] == space.rank
    bundle = lie_simplicity_evidence(g, n)
    assert bundle.bracket_space_dimension == space.rank
    assert bundle.witness == witness
    if witness is not None:
        assert list(bundle.witness.value.terms.items()) == list(witness.value.terms.items())
    cls = bundle.classification
    if cls.almost_simple:
        core = list(cls.core)
        low = single_space_bracket_pass(g, n, 2)[2]
        assert bundle.ideal_containment == single_space_containment(core, low, 2, 2)
        assert bracket_in_ideal(g, n, 2) == single_space_containment(core, space, n, 2)
        assert bracket_in_ideal(g, n, n) == single_space_containment(core, space, n, n)
    else:
        assert bundle.ideal_containment is None
    got, want = bracket_space(g, n).basis, single_space_bracket_rows(g, n)
    assert [list(x.terms.items()) for x in got] == [list(x.terms.items()) for x in want]
    table = MonomialTable(g)
    gens = _generators(table, n)
    names = [*g.vertices, *g.edge_map]
    for x, grade in zip(gens, _grades(table, gens)):
        assert {y for b, y in enumerate(names) if grade >> b & 1} == _grade(table.monomial(x[0]))


def test_bucketed_pass_matches_the_single_space_pass_on_the_corpus(corpus):
    for name, g in corpus.items():
        for n in range(6):
            _assert_matches_the_single_space_pass(g, n)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=4, max_edges=5), st.integers(0, 3))
def test_bucketed_pass_matches_the_single_space_pass(g, n):
    assume(len(skew_basis(g, n)) <= 120)
    _assert_matches_the_single_space_pass(g, n)


def test_bracket_pass_memory_follows_the_largest_bucket(corpus):
    """On loop_two_exits at n=5 (41 780 meeting pairs in 32 grades, the
    largest with 4.5% of them) the traced peak of the pass was 15.5 MB with
    one MonomialTable and one RowSpace for all brackets, about 1.7 MB with
    one per bucket of grades, and is about 1.2 MB since brackets are
    evaluated on path codes.  The 6 MB bound leaves 5 times the measured
    peak and fails the single-space pass by 2.6 times."""
    g = corpus["loop_two_exits"]
    tracemalloc.start()
    try:
        rank = _bracket_pass(g, 5)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 18_853
    assert peak < 6_000_000


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


def _ids_in(table, gens) -> list[int]:
    """The id in table of each generator's monomial m (coefficient 1), which
    is how the bracket pass takes the generator.  A TupleTable also records
    the paths of each id, for its star and product."""
    ms = [m for x in gens for m, c in x.terms.items() if c > 0]
    if isinstance(table, TupleTable):
        return [table.intern(m) for m in ms]
    return [intern(table, m) for m in ms]


def _generator_index(g, gens) -> dict[int, int]:
    """Generator number by the id of its monomial m; ids do not depend on the
    table."""
    return {k: i for i, k in enumerate(_ids_in(MonomialTable(g), gens))}


def test_evidence_bundle_evaluates_each_bracket_once(corpus, monkeypatch):
    # exactly the pairs whose ends meet are evaluated, each once per pass:
    # every other pair brackets to 0 (test_skipped_pairs_have_four_vanishing_
    # products).  The bundle runs one pass at n and, on a positive verdict,
    # the containment probe's own pass at 2, below, at or above n.
    calls = Counter()
    passes = []
    skew_module = sys.modules["lpakit.skew"]
    generator_bracket, bracket_pass = skew_module._generator_bracket, skew_module._bracket_pass

    def recorded_pass(g, n, visit=None):
        passes.append((n, []))
        return bracket_pass(g, n, visit)

    def recorded(table, x, y, normal):
        passes[-1][1].append((x[0], y[0]))
        return generator_bracket(table, x, y, normal)

    monkeypatch.setattr(skew_module, "_bracket_pass", recorded_pass)
    monkeypatch.setattr(skew_module, "_generator_bracket", recorded)
    # the package re-exports classify(), which hides the submodule's name
    _count_calls(monkeypatch, calls, skew_module, "classify")
    _count_calls(monkeypatch, calls, sys.modules["lpakit.classify"], "classify")
    _count_calls(monkeypatch, calls, RowSpace, "reduced_rows")
    for name in ("toeplitz", "balloon_core2", "double_edge_cycle", "fork2", "fiber"):
        g = corpus[name]
        for n in range(4):
            calls.clear()
            passes.clear()
            bundle = lie_simplicity_evidence(g, n)
            want = [n, 2] if bundle.classification.almost_simple else [n]
            assert [d for d, _ in passes] == want, (name, n)
            for d, evaluated in passes:
                gens = skew_basis(g, d)
                index = _generator_index(g, gens)
                pairs = sorted((index[a], index[b]) for a, b in evaluated)
                assert pairs == meeting_pairs(gens), (name, n, d)
            assert calls["classify"] == 1, (name, n)
            assert calls["reduced_rows"] == 0, (name, n)


def test_bracket_pass_builds_one_witness(corpus, monkeypatch):
    # the witness is built once, after the walk, from the vector of the
    # least key, however many buckets lower the key on the way
    calls = Counter()
    _count_calls(monkeypatch, calls, sys.modules["lpakit.skew"], "_witness")
    for name, g in corpus.items():
        for n in range(2, 6):
            calls.clear()
            witness = _bracket_pass(g, n)[1]
            assert calls["_witness"] == (witness is not None), (name, n)


def test_evidence_bundle_adds_each_bracket_once(corpus, monkeypatch):
    # each bracket goes into one RowSpace of its bucket in each pass that
    # evaluates it: the bundle adds what the pass at n, on a positive
    # verdict the containment probe's pass at 2, and the degree-4 ideal
    # slice add, on toeplitz at n = 2, 6 + 6 + 15.  One-entry brackets are
    # taken without a residue and the rest are added shortest first, so
    # loop_two_exits at n = 4 computes 3 225 residues, for adds and
    # containment tests, where arrival order computed 7 689
    calls = Counter()
    _count_calls(monkeypatch, calls, RowSpace, "add")
    _count_calls(monkeypatch, calls, RowSpace, "_residue")
    cases = (("toeplitz", 2, 27), ("loop_two_exits", 2, 609))
    cases += (("toeplitz", 4, 62), ("loop_two_exits", 4, 7715))
    for name, n, want in cases:
        g = corpus[name]
        calls.clear()
        cls = lie_simplicity_evidence(g, n).classification
        assert calls["add"] == want, (name, n)
        if (name, n) == ("loop_two_exits", 4):
            assert calls["_residue"] == 3225
        calls.clear()
        _bracket_pass(g, n)
        if cls.almost_simple:
            _bracket_pass(g, 2)
            _ideal_space(MonomialTable(g), cls.core, 4)
        assert calls["add"] == want, (name, n)


def _assert_skipped_pairs_vanish(g, n) -> int:
    """Every generator pair that _pairs_by_grade leaves out has four raw
    products that vanish in the tuple kernel, so its bracket is 0; returns
    the number of pairs left out."""
    table, oracle, gens = MonomialTable(g), TupleTable(g), skew_basis(g, n)
    ks = _ids_in(oracle, gens)
    evaluated = set(degree_ordered_pairs(table, _generators(table, n)))
    ids = [(k, oracle.star(k)) for k in ks]
    skipped = 0
    for i, j in itertools.combinations(range(len(gens)), 2):
        if (i, j) not in evaluated:
            skipped += 1
            assert all(oracle.product(u, v) is None for u in ids[i] for v in ids[j]), (i, j)
    return skipped


def test_skipped_pairs_have_four_vanishing_products(corpus):
    skipped = sum(_assert_skipped_pairs_vanish(g, n) for g in corpus.values() for n in range(6))
    assert skipped > 10_000


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=7), st.integers(0, 4))
def test_skipped_pairs_have_four_vanishing_products_on_multigraphs(g, n):
    assume(len(skew_basis(g, n)) <= 150)
    _assert_skipped_pairs_vanish(g, n)


def test_evidence_bundle_runs_tarjan_once(monkeypatch):
    # classify and dimension read the one condensation cached on the graph
    calls = Counter()
    _count_calls(monkeypatch, calls, sys.modules["lpakit.graph"], "_tarjan")
    for name in ("toeplitz", "balloon_core2", "fork2", "fiber_plus_toeplitz", "convergent"):
        calls.clear()
        lie_simplicity_evidence(load(name), 2)
        assert calls["_tarjan"] == 1, name


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(acyclic_multigraphs())
def test_acyclic_bracket_space_is_a_sum_of_orthogonal_algebras(g):
    # L(g) is the sum over the sinks v of the N(v) x N(v) matrices, with the
    # transpose as involution, so [K, K] is the sum of so(N(v)) over the sinks
    # with N(v) >= 3; truncation 2 x (longest path) reaches every monomial
    assume(dimension_oracle(g) <= 64)
    count = path_counts(g)
    want = sum(n * (n - 1) // 2 for v, n in count.items() if g.is_sink(v) and n >= 3)
    assert lie_simplicity_evidence(g, 2 * longest_path(g)).bracket_space_dimension == want


def test_first_nonzero_bracket_stops_early(corpus, monkeypatch):
    # fewer brackets than the meeting pairs, so not a walk of all of them:
    # on loop_two_exits 1 of 7 252
    calls = Counter()
    _count_calls(monkeypatch, calls, sys.modules["lpakit.skew"], "_generator_bracket")
    for name in ("toeplitz", "loop_two_exits"):
        g = corpus[name]
        calls.clear()
        assert first_nonzero_bracket(g, 4) is not None, name
        assert 0 < calls["_generator_bracket"] < len(meeting_pairs(skew_basis(g, 4))), name


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


def test_bracket_in_ideal_on_positive_graphs(corpus, monkeypatch):
    # The ideal slice's rows are in monomial ids, so the brackets tested
    # against it must be too: skew there, each entry c at k matched by -c at
    # star(k).  Only the tested vectors show it, because each row of the
    # slice lies among the ids below star, above it or fixed by it, so a
    # bracket and its skew coordinates lie in the slice together.
    tested = []
    contains = RowSpace.contains

    def recorded(self, vec):
        tested.append((self.table, vec))
        return contains(self, vec)

    monkeypatch.setattr(RowSpace, "contains", recorded)
    for name in ("toeplitz", "two_balloons", "balloon_core2", "double_edge_cycle"):
        rep = bracket_in_ideal(corpus[name], 2, 2)
        assert rep.contained, name
        assert rep.truncation == 2 and rep.slack == 2
        assert rep.bracket_dimension <= rep.ideal_rank
    assert tested
    for table, vec in tested:
        assert all(vec.get(table.star(k)) == -c for k, c in vec.items())


def test_bracket_in_ideal_rejects_negative_graphs(corpus):
    with pytest.raises(NotAlmostSimple):
        bracket_in_ideal(corpus["fork2"], 2)


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
    assert bundle.classification.simplicity.simple
    assert not bundle.classification.almost_simple
    assert bundle.bracket_space_dimension == 0
    assert bundle.vanishing_family
