import json
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CORPUS,
    all_hs_subsets,
    almost_simple_oracle,
    block_graphs,
    build,
    census_classes,
    census_graph,
    classify_by_subgraph,
    decomposed_graphs,
    fiber_unit_edges_oracle,
    find_balloons,
    hs_closure_oracle,
    hs_closure_rescan,
    hs_oracle,
    is_fork_oracle,
    is_simple_per_vertex,
    is_vanishing_family_oracle,
    load,
    multigraphs,
    random_graph,
    saturated_closure_rescan,
    simple_oracle,
    smallest_hs_subset_by_intersection,
    star_graphs,
    validate_classification_by_remainder,
)

from lpakit.classify import (
    Classification,
    GraphTooLarge,
    SimplicityResult,
    classify,
    enumerate_hs_subsets,
    fiber_units,
    find_fibers,
    hereditary_closure,
    hs_closure,
    is_fork,
    is_hereditary,
    is_saturated,
    is_simple,
    is_vanishing_family,
    saturated_closure,
    smallest_hs_subset,
    validate_classification,
)
from lpakit.cli import main
from lpakit.graph import Edge, Graph


# -- closures -------------------------------------------------------------------


def test_hereditary_closure_follows_descendants(toeplitz):
    assert hereditary_closure(toeplitz, ["v"]) == ["v", "w"]
    assert hereditary_closure(toeplitz, ["w"]) == ["w"]


def test_saturated_closure_pulls_in_forced_vertices(fiber):
    # u emits only into {w}, so saturating {w} forces u
    assert saturated_closure(fiber, ["w"]) == ["u", "w"]


def test_closures_are_idempotent_and_monotone(corpus):
    for g in corpus.values():
        for v in g.vertices:
            cl = hs_closure(g, [v])
            assert v in cl
            assert hs_closure(g, cl) == cl
            assert is_hereditary(g, cl) and is_saturated(g, cl)


def test_hs_closure_matches_powerset_oracle(corpus):
    for name, g in corpus.items():
        for v in g.vertices:
            assert set(hs_closure(g, [v])) == hs_closure_oracle(g, [v]), (name, v)


def test_hs_closure_matches_oracle_on_random_graphs(rng):
    for _ in range(150):
        g = random_graph(rng, max_vertices=7)
        for v in g.vertices:
            assert set(hs_closure(g, [v])) == hs_closure_oracle(g, [v])


def test_predicates_match_oracle(rng):
    for _ in range(100):
        g = random_graph(rng, max_vertices=6)
        for s in all_hs_subsets(g):
            assert is_hereditary(g, s) and is_saturated(g, s)
        # and a scattering of non-members
        for v in g.vertices:
            sub = {v}
            assert (is_hereditary(g, sub) and is_saturated(g, sub)) == hs_oracle(g, sub)


def test_smallest_hs_subset(toeplitz):
    assert smallest_hs_subset(toeplitz) == ["w"]
    assert smallest_hs_subset(load("single_vertex")) == ["v"]
    # the doubled cycle has no proper subset and V is the smallest
    assert smallest_hs_subset(load("double_edge_cycle")) == ["a", "b"]


def test_smallest_hs_subset_matches_oracle_on_random_graphs(rng):
    for _ in range(150):
        g = random_graph(rng, max_vertices=7)
        nonempty = [s for s in all_hs_subsets(g) if s]  # V is always one
        least = [s for s in nonempty if all(s <= t for t in nonempty)]
        got = smallest_hs_subset(g)
        assert (set(got) if got is not None else None) == (set(least[0]) if least else None)


def test_enumerate_hs_subsets_toeplitz(toeplitz):
    assert enumerate_hs_subsets(toeplitz) == [("w",), ("v", "w")]


def test_enumerate_hs_subsets_matches_oracle(corpus):
    for name, g in corpus.items():
        got = {frozenset(s) for s in enumerate_hs_subsets(g)}
        want = {s for s in all_hs_subsets(g) if s}
        assert got == want, name


def test_enumerate_hs_subsets_size_gate():
    vs = [f"v{i}" for i in range(13)]
    with pytest.raises(GraphTooLarge):
        enumerate_hs_subsets(Graph(vs, []))


# -- simplicity -------------------------------------------------------------------


def test_is_simple_verdicts(corpus):
    want = {
        "single_vertex": True,
        "loop": False,
        "fiber": True,
        "fork2": False,
        "fork3": False,
        "parallel_fork": True,
        "toeplitz": False,
        "balloon_core2": False,
        "two_balloons": False,
        "stacked_balloons": False,
        "disconnected_twin": False,
        "loop_two_exits": True,
        "fiber_plus_toeplitz": False,
        "path2": True,
        "convergent": True,
        "double_edge_cycle": True,
    }
    got = {name: is_simple(g).simple for name, g in corpus.items()}
    assert got == want


def test_is_simple_certificates(toeplitz, loop):
    res = is_simple(toeplitz)
    assert not res.simple and set(res.proper_hs_subset) == {"w"}
    res = is_simple(loop)
    assert not res.simple and res.exitless_cycle == ("c",)


def test_is_simple_matches_oracle_on_random_graphs(rng):
    for _ in range(200):
        g = random_graph(rng, max_vertices=7)
        assert is_simple(g).simple == simple_oracle(g)


# -- the linear classifier against the per-vertex routes it replaced -----------------


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(multigraphs() | block_graphs(), st.data())
def test_classifier_matches_per_vertex_oracles(g, data):
    # whole results: the certificate subset or cycle, and the subset itself
    assert is_simple(g) == is_simple_per_vertex(g)
    assert smallest_hs_subset(g) == smallest_hs_subset_by_intersection(g)
    for v in g.vertices:
        assert hs_closure(g, [v]) == hs_closure_rescan(g, [v])
    xs = data.draw(st.lists(st.sampled_from(g.vertices), unique=True))
    assert saturated_closure(g, xs) == saturated_closure_rescan(g, xs)


def test_is_simple_splits_reachability_into_passes(rng, monkeypatch):
    # one upstream-most essential component per bitset pass
    monkeypatch.setattr(sys.modules["lpakit.classify"], "TOPS_PER_PASS", 1)
    for _ in range(200):
        g = random_graph(rng, max_vertices=8)
        assert is_simple(g) == is_simple_per_vertex(g)


def test_classifier_scales_without_recursion():
    # 2 x 10^4 vertices: far past the interpreter's recursion limit, and
    # hopeless for one closure per vertex
    n = 20_000
    vs = [f"v{i}" for i in range(n)]
    chain = [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]

    path = Graph(vs, chain)
    assert is_simple(path) == SimplicityResult()
    assert smallest_hs_subset(path) == vs
    cls = classify(path)
    assert cls.almost_simple and cls.core == tuple(vs)

    cycle = Graph(vs + ["out"], chain + [("back", vs[-1], vs[0]), ("exit", vs[0], "out")])
    assert is_simple(cycle) == SimplicityResult(proper_hs_subset=("out",))
    assert smallest_hs_subset(cycle) == ["out"]
    cls = classify(cycle)
    assert cls.failure_reason.detail == "proper hereditary-saturated subset ['out']"

    # every path vertex reaches both sinks, so only a sink's closure is proper
    fork = Graph(vs + ["a", "b"], chain + [("fa", vs[-1], "a"), ("fb", vs[-1], "b")])
    assert is_simple(fork) == SimplicityResult(proper_hs_subset=("a",))
    assert smallest_hs_subset(fork) is None
    cls = classify(fork)
    assert cls.failure_reason.detail == "proper hereditary-saturated subset ['a']"


# -- fibers, forks, balloons -------------------------------------------------------


def test_find_fibers(fiber, fork2, corpus):
    assert [e.name for e in find_fibers(fiber)] == ["e"]
    assert [e.name for e in find_fibers(fork2)] == ["e1", "e2"]
    assert find_fibers(corpus["convergent"]) == []  # shared sink: not unique
    assert find_fibers(corpus["toeplitz"]) == []  # looped source


def test_is_fork(fork2, corpus):
    assert is_fork(fork2)
    assert is_fork(corpus["parallel_fork"])
    assert is_fork(corpus["fiber"])  # one source, one sink: the smallest fork
    assert not is_fork(corpus["single_vertex"])  # too small
    assert not is_fork(corpus["convergent"])  # two sources
    assert not is_fork(corpus["path2"])  # middle vertex is neither


def test_find_balloons(toeplitz, corpus):
    assert find_balloons(toeplitz, ["w"]) == ["v"]
    assert find_balloons(corpus["two_balloons"], ["w"]) == ["p", "q"]
    assert find_balloons(corpus["balloon_core2"], ["a", "b"]) == ["p"]
    # b1 receives an edge from b2, so only b2 qualifies
    assert find_balloons(corpus["stacked_balloons"], ["w", "b1"]) == ["b2"]


def test_find_balloons_relabelling_invariance(toeplitz):
    # same shape, scrambled declaration order and names
    g = build(["sink", "hub"], [("loop0", "hub", "hub"), ("out", "hub", "sink")])
    assert find_balloons(g, ["sink"]) == ["hub"]


def test_fiber_units_and_detachment(corpus):
    g = corpus["fiber_plus_toeplitz"]
    assert fiber_units(g) == [Edge("e", "u", "w")]
    # the fork's hub keeps a second edge, so its fibers are not units
    assert fiber_units(corpus["fork2"]) == []


def test_fiber_units_match_oracle(rng):
    for _ in range(150):
        g = random_graph(rng, max_vertices=7)
        assert fiber_units(g) == fiber_unit_edges_oracle(g)


# -- the classifier ---------------------------------------------------------------


EXPECTED_ALMOST_SIMPLE = {
    "single_vertex": False,
    "loop": False,
    "fiber": False,
    "fork2": False,
    "fork3": False,
    "parallel_fork": True,
    "toeplitz": True,
    "balloon_core2": True,
    "two_balloons": True,
    "stacked_balloons": False,
    "disconnected_twin": False,
    "loop_two_exits": True,
    "fiber_plus_toeplitz": True,
    "path2": True,
    "convergent": True,
    "double_edge_cycle": True,
}


def test_classify_corpus_verdicts(corpus):
    got = {name: classify(g).almost_simple for name, g in corpus.items()}
    assert got == EXPECTED_ALMOST_SIMPLE


def test_classify_decompositions(corpus):
    cls = classify(corpus["toeplitz"])
    assert (cls.core, cls.balloons) == (("w",), ("v",))
    cls = classify(corpus["balloon_core2"])
    assert (cls.core, cls.balloons) == (("a", "b"), ("p",))
    cls = classify(corpus["two_balloons"])
    assert (cls.core, cls.balloons) == (("w",), ("p", "q"))
    cls = classify(corpus["path2"])
    assert (cls.core, cls.balloons) == (("u", "v", "w"), ())
    cls = classify(corpus["fiber_plus_toeplitz"])
    assert (cls.core, cls.balloons) == (("w2",), ("v2",))
    assert cls.fiber_units == (Edge("e", "u", "w"),)


def test_classify_failure_reasons(corpus):
    assert classify(corpus["fiber"]).failure_reason.kind == "empty_after_fiber_stripping"
    assert classify(corpus["single_vertex"]).failure_reason.kind == "trivial_remainder"
    assert classify(corpus["loop"]).failure_reason.kind == "core_not_simple"
    assert classify(corpus["stacked_balloons"]).failure_reason.kind == "core_not_simple"
    assert classify(corpus["fork2"]).failure_reason.kind == "core_not_simple"
    assert classify(corpus["toeplitz"]).failure_reason is None


def test_classify_warnings(corpus):
    warns = classify(corpus["disconnected_twin"]).warnings
    assert any("disconnected" in w for w in warns)
    warns = classify(corpus["fiber"]).warnings
    assert any("fiber units" in w for w in warns)
    warns = classify(corpus["single_vertex"]).warnings
    assert any("isolated vertex" in w for w in warns)
    assert classify(corpus["toeplitz"]).warnings == ()


DISCONNECTED = ("graph is disconnected; the decomposition is applied to the whole graph, "
                "component by component effects are not modelled")
DETACHED = ("fiber units are detached before decomposition; each contributes a 2x2 matrix "
            "block with zero commutators of skew elements")
ALL_DETACHED = "every vertex lies in a fiber unit; skew commutators all vanish"
ISOLATED = ("remainder is a single isolated vertex; its skew-symmetric part is zero, so the "
            "verdict is negative despite the trivially simple core")


@pytest.mark.parametrize("vertices, edges, kind, units, warnings", [
    (["u", "w", "x"], [("e", "u", "w")],
     "trivial_remainder", [("e", "u", "w")], (DISCONNECTED, DETACHED, ISOLATED)),
    # units come in edge order, not in the order of their vertices
    (["a1", "b1", "a2", "b2"], [("f2", "a2", "b2"), ("f1", "a1", "b1")],
     "empty_after_fiber_stripping", [("f2", "a2", "b2"), ("f1", "a1", "b1")],
     (DISCONNECTED, DETACHED, ALL_DETACHED)),
    (["u", "w", "x"], [("e", "u", "w"), ("c", "x", "x")],
     "core_not_simple", [("e", "u", "w")], (DISCONNECTED, DETACHED)),
    (["p", "s", "u", "w"], [("c", "p", "p"), ("e", "p", "s"), ("f", "u", "w")],
     None, [("f", "u", "w")], (DISCONNECTED, DETACHED)),
], ids=["fiber and isolated vertex", "two fibers reversed", "fiber and loop",
        "balloon over a sink and fiber"])
def test_classify_warnings_pinned(vertices, edges, kind, units, warnings):
    cls = classify(build(vertices, edges))
    assert (cls.failure_reason and cls.failure_reason.kind) == kind
    assert cls.almost_simple == (kind is None)
    assert cls.fiber_units == tuple(Edge(*u) for u in units)
    assert cls.warnings == warnings


def test_verdicts_store_no_derived_fields():
    stored = {f.name for cls in (Classification, SimplicityResult) for f in fields(cls)}
    assert not stored & {"almost_simple", "warnings", "simple"}


def test_classify_matches_definition_oracle_on_corpus(corpus):
    for name, g in corpus.items():
        assert classify(g).almost_simple == almost_simple_oracle(g), name


def test_classify_matches_definition_oracle_on_random_graphs(rng):
    for _ in range(250):
        g = random_graph(rng, max_vertices=7)
        assert classify(g).almost_simple == almost_simple_oracle(g)


def test_classify_prediction_tracks_verdict(capsys):
    # the report's prediction is the verdict itself, key and text line alike
    assert main(["classify", "--corpus", str(CORPUS), "--json", "--no-evidence"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["predicted_kk_simple"] == r["almost_simple"] for r in reports)
    assert main(["classify", "--corpus", str(CORPUS), "--no-evidence"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("predicted")]
    assert lines == [
        f"predicted skew-commutator simplicity: {'yes' if r['almost_simple'] else 'no'}"
        for r in reports
    ]


def test_validate_classification(corpus, rng):
    for name, g in corpus.items():
        assert validate_classification(g, classify(g)), name
    for _ in range(100):
        g = random_graph(rng, max_vertices=7)
        assert validate_classification(g, classify(g))


def _single_vertex_moves(cls: Classification):
    """cls with one vertex moved from the core to the balloons, or back."""
    for v in cls.core:
        yield replace(cls, core=tuple(x for x in cls.core if x != v), balloons=cls.balloons + (v,))
    for v in cls.balloons:
        yield replace(cls, core=cls.core + (v,), balloons=tuple(x for x in cls.balloons if x != v))


def test_validate_matches_the_remainder_route(rng):
    graphs = [census_graph(n, edges) for n, edges in census_classes()]
    graphs += [random_graph(rng, max_vertices=7) for _ in range(300)]
    for g in graphs:
        cls = classify(g)
        for c in [cls, *_single_vertex_moves(cls)]:
            assert validate_classification(g, c) == validate_classification_by_remainder(g, c), (g, c)


@pytest.mark.parametrize("name, change", [
    # the parts no longer cover the vertices
    ("toeplitz", {"balloons": ()}),
    # a unit whose edge is not a fiber, over the same two vertices
    ("fiber_plus_toeplitz", {"fiber_units": (Edge("c", "u", "w"),)}),
    # no core left
    ("toeplitz", {"core": (), "balloons": ("v", "w")}),
    # a balloon moved into the core, which is then not simple
    ("balloon_core2", {"core": ("a", "b", "p"), "balloons": ()}),
    # a simple core, but vertices that are not balloons over it called balloons
    ("convergent", {"core": ("w",), "balloons": ("u1", "u2")}),
], ids=["partition", "fiber unit", "empty core", "core not simple", "balloon set"])
def test_validate_rejects_each_broken_clause(corpus, name, change):
    g = corpus[name]
    cls = classify(g)
    assert cls.almost_simple and validate_classification(g, cls)
    assert not validate_classification(g, replace(cls, **change))


def test_validate_rejects_tampered_classification(toeplitz):
    cls = classify(toeplitz)
    bad = replace(cls, core=("v",), balloons=("w",))
    assert not validate_classification(toeplitz, bad)


# -- the vanishing family ------------------------------------------------------------


def test_vanishing_family_membership(corpus):
    want = {
        "single_vertex": True,
        "loop": True,
        "fiber": True,
        "fork2": True,
        "fork3": True,
        "parallel_fork": False,  # doubled edge brackets do not vanish
        "toeplitz": False,
        "convergent": False,  # shared sink
        "path2": False,
        "double_edge_cycle": False,
    }
    for name, expect in want.items():
        assert is_vanishing_family(corpus[name]) == expect, name


def test_vanishing_family_union_of_components():
    g = build(
        ["a", "u", "w1", "w2", "b"],
        [("c", "a", "a"), ("e1", "u", "w1"), ("e2", "u", "w2")],
    )
    assert is_vanishing_family(g)  # loop + fork + isolated vertex


def test_vanishing_family_members_never_classify_positive(corpus):
    for name, g in corpus.items():
        if is_vanishing_family(g):
            assert not classify(g).almost_simple, name


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(multigraphs(), star_graphs()))
def test_fork_and_vanishing_family_match_the_component_oracles(g):
    assert is_fork(g) == is_fork_oracle(g)
    assert is_vanishing_family(g) == is_vanishing_family_oracle(g)


def test_vanishing_family_on_many_components():
    n = 20_000
    vs = [f"c{i}" for i in range(n)] + ["u", "w1", "w2"]
    es = [(f"l{i}", f"c{i}", f"c{i}") for i in range(n)] + [("e1", "u", "w1"), ("e2", "u", "w2")]
    assert is_vanishing_family(build(vs, es))
    assert not is_vanishing_family(build(vs, es + [("x", "c0", "c1")]))


def test_shape_tests_build_no_throwaway_subgraphs(corpus, monkeypatch):
    calls = Counter()
    classify_module, graph_module = sys.modules["lpakit.classify"], sys.modules["lpakit.graph"]
    for owner, attr in ((Graph, "subgraph"), (classify_module, "weak_components"),
                        (graph_module, "_tarjan")):
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    for g in corpus.values():
        is_fork(g)
        is_vanishing_family(g)
    assert not calls
    for name in corpus:
        g = load(name)  # fresh, so no condensation is cached on it yet
        calls.clear()
        classify(g)
        # one condensation serves the graph and its core
        assert calls["subgraph"] == 0, name
        assert calls["_tarjan"] == 1, name


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.one_of(multigraphs(), block_graphs(), decomposed_graphs()))
def test_classify_matches_the_subgraph_route(g):
    assert classify(g) == classify_by_subgraph(g)
