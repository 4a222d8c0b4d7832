import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpakit
from helpers import (
    CORPUS,
    block_graphs,
    build,
    canon_cycles,
    cycles_oracle,
    enumerate_cycles_dfs,
    exitless_cycles_walk,
    graph_texts,
    load,
    multigraphs,
    parse_graph_two_pass,
    random_graph,
    serialize_graph,
    weak_components_rescan,
)

from lpakit.classify import hereditary_closure

from lpakit.graph import (
    NAME_RE,
    DuplicateName,
    Edge,
    EmptyGraph,
    Graph,
    GraphError,
    MalformedLine,
    TooManyCycles,
    UnknownVertex,
    condensation,
    enumerate_cycles,
    exitless_cycles,
    parse_graph,
    path_key,
    sinks,
    sources,
    weak_components,
)
from lpakit.graph import _LINE_RE


# -- parsing -------------------------------------------------------------------


def test_parse_round_trip():
    text = "vertex v\nvertex w\nedge c v v\nedge e v w\n"
    g = parse_graph(text)
    assert serialize_graph(g) == text
    assert parse_graph(serialize_graph(g)) == g


def test_parse_skips_comments_and_blank_lines():
    g = parse_graph("# a loop\n\nvertex v\n# more\nedge c v v\n")
    assert g.vertices == ("v",)
    assert [e.name for e in g.edges] == ["c"]


def test_parse_reports_offending_line_number():
    with pytest.raises(MalformedLine) as info:
        parse_graph("vertex v\nvertex w\nedg e v w\n")
    assert info.value.lineno == 3


def test_parse_breaks_lines_at_newlines_only():
    # str.splitlines would also break at \x0b and \x0c, and count a fourth line
    with pytest.raises(MalformedLine) as info:
        parse_graph("vertex a\nedge e a a\x0b\nvertex\n")
    assert info.value.lineno == 3
    for text in ("vertex a\x0cvertex b\n", "vertex a\u2028vertex b\n", "vertex a\x85vertex b\n"):
        with pytest.raises(MalformedLine) as info:
            parse_graph(text)
        assert info.value.lineno == 1
    # surrounding whitespace, a \r of a \r\n ending included, is still stripped
    g = parse_graph("vertex a\r\n\t edge e a a \x0b\r\n")
    assert g == build(["a"], [("e", "a", "a")])


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(graph_texts())
@example("vertex a\nvertex b\nedge e a b\nedge f b a\n")
@example("# only a comment\n\n")
@example("vertex a\nedge e a b\nedge e a a\nvertex b\n")
def test_parse_matches_the_two_pass_parser(text):
    assert _outcome(parse_graph, text) == _outcome(parse_graph_two_pass, text)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.text(st.characters(codec="utf-8"), max_size=6)
       | st.text("ab_09Zé٣ǅ -\n\t\r#", max_size=6))
def test_line_regex_accepts_a_token_exactly_when_name_re_does(tok):
    ok = bool(NAME_RE.match(tok))
    for line in (f"vertex {tok}", f"edge {tok} a b", f"edge e {tok} b", f"edge e a {tok}"):
        m = _LINE_RE.match(line)
        assert bool(m and m.lastindex) == ok, line


def test_parse_rejects_bad_names():
    with pytest.raises(MalformedLine):
        parse_graph("vertex a-b\n")
    with pytest.raises(MalformedLine):
        parse_graph("vertex v\nedge e! v v\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(MalformedLine) as info:
        parse_graph("vertex v\nedge e v\n")
    assert info.value.lineno == 2


def test_empty_input_rejected():
    with pytest.raises(EmptyGraph):
        parse_graph("# nothing\n")


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        parse_graph("vertex v\nvertex v\n")
    with pytest.raises(DuplicateName):
        parse_graph("vertex v\nedge v v v\n")  # edge reusing a vertex name
    with pytest.raises(DuplicateName):
        parse_graph("vertex v\nedge e v v\nedge e v v\n")


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownVertex):
        parse_graph("vertex v\nedge e v w\n")


def test_constructor_validates_its_arguments():
    # direct construction: parse_graph checks names and emptiness itself first
    with pytest.raises(MalformedLine, match="bad vertex name"):
        Graph(["a-b"], [])
    with pytest.raises(MalformedLine, match="bad edge name"):
        Graph(["v"], [("e!", "v", "v")])
    with pytest.raises(UnknownVertex, match="unknown source"):
        Graph(["v"], [("e", "w", "v")])
    with pytest.raises(EmptyGraph):
        Graph([], [])


# -- structure queries -----------------------------------------------------------


def test_out_and_in_edges_in_declaration_order():
    g = load("toeplitz")
    assert [e.name for e in g.out_edges("v")] == ["c", "e"]
    assert [e.name for e in g.in_edges("v")] == ["c"]
    assert g.is_sink("w") and not g.is_sink("v")
    assert g.is_source("v") is False  # the loop feeds it


def test_sources_sinks_components():
    g = load("fiber_plus_toeplitz")
    assert sources(g) == ["u"]
    assert sinks(g) == ["w", "w2"]
    assert weak_components(g) == [["u", "w"], ["v2", "w2"]]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(multigraphs())
def test_components_match_their_definitions(g):
    assert weak_components(g) == weak_components_rescan(g)
    comp = condensation(g)[0]
    below = {v: set(hereditary_closure(g, [v])) for v in g.vertices}
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            assert (comp[i] == comp[j]) == (v in below[u] and u in below[v])
    idx = g.vertex_index
    assert all(comp[idx[e.source]] >= comp[idx[e.target]] for e in g.edges)
    # the rest of the condensation: one successor per edge between two
    # components, and a cycle exactly where an edge stays inside one
    same, succ, cyclic = condensation(g)
    assert same == comp
    assert list(range(len(succ))) == sorted(set(comp))
    ends = [(comp[idx[e.source]], comp[idx[e.target]]) for e in g.edges]
    for c in range(len(succ)):
        assert sorted(succ[c]) == sorted(b for a, b in ends if a == c != b)
        assert cyclic[c] == any(a == b == c for a, b in ends)


def test_condensation_is_kept_on_its_graph_only():
    g = load("two_balloons")
    cond = condensation(g)
    assert condensation(g) is cond
    sub = g.subgraph(["q", "w"])
    assert sub._cond is None and condensation(sub) is not cond
    loaded = pickle.loads(pickle.dumps(g))
    assert loaded == g and loaded._cond is None
    assert condensation(loaded) == cond


def test_weak_components_with_thousands_of_components():
    rng = random.Random(4)
    vs = [f"v{i}" for i in range(5000)]
    es = [(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(2000)]
    rng.shuffle(vs)
    g = Graph(vs, es)
    comps = weak_components(g)
    assert len(comps) > 2000
    assert comps == weak_components_rescan(g)


def test_descendants_follow_edges():
    g = load("path2")
    assert hereditary_closure(g, ["u"]) == ["u", "v", "w"]
    assert hereditary_closure(g, ["w"]) == ["w"]


def test_subgraph_keeps_declaration_order():
    g = load("two_balloons")
    sub = g.subgraph(["q", "w"])
    assert sub.vertices == ("w", "q")
    assert [e.name for e in sub.edges] == ["cq", "g"]


def test_subgraph_unknown_vertex():
    g = load("loop")
    with pytest.raises(UnknownVertex):
        g.subgraph(["nope"])


def test_subgraph_on_no_vertices():
    with pytest.raises(EmptyGraph):
        load("loop").subgraph([])


def test_paths_and_keys():
    g = load("path2")
    p = g.path(["e1", "e2"])
    assert (p.source, p.target) == ("u", "w")
    assert len(p) == 2
    # vertex paths order before edge paths of any length
    assert path_key(g.vertex_path("w")) < path_key(p)
    with pytest.raises(UnknownVertex):
        g.vertex_path("zz")


def test_path_rejects_non_composable_edges():
    g = load("fork2")
    with pytest.raises(Exception):
        g.path(["e1", "e2"])  # e1 ends at w1, e2 starts at u


def test_edge_is_a_named_tuple_record():
    e = Edge("e", "a", "b")
    assert repr(e) == "Edge(name='e', source='a', target='b')"
    assert e == Edge("e", "a", "b") and hash(e) == hash(Edge("e", "a", "b"))
    assert e != Edge("e", "b", "a")
    assert (e.name, e.source, e.target) == ("e", "a", "b")


def test_pickled_graph_is_rebuilt_and_validated():
    g = load("toeplitz")
    loaded = pickle.loads(pickle.dumps(g))
    assert loaded == g and type(loaded.edges[0]) is Edge
    assert loaded.edge_map == g.edge_map and loaded.vertex_index == g.vertex_index
    g.vertices = g.vertices + g.vertices[:1]  # a state no constructor accepts
    with pytest.raises(DuplicateName):
        pickle.loads(pickle.dumps(g))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs())
def test_least_out_edge_keeps_its_items_and_order(g):
    # MonomialTable reads its special edges from this dict: sources in the
    # order of their first out-edge, each with its least out-edge name
    expect: dict[str, str] = {}
    for e in g.edges:
        expect.setdefault(e.source, min(f.name for f in g.out_edges(e.source)))
    assert list(g.least_out_edge.items()) == list(expect.items())


def test_graph_equality_is_structural():
    a = build(["v"], [("c", "v", "v")])
    b = parse_graph("vertex v\nedge c v v\n")
    assert a == b and hash(a) == hash(b)
    assert a != build(["v"])


_DUMP = """
import pickle, sys
from lpakit.graph import parse_graph
g = parse_graph(open(sys.argv[1]).read())
pickle.dump(g, open(sys.argv[2], "wb"))
"""

_LOAD = """
import pickle, sys
from lpakit.graph import parse_graph
loaded = pickle.load(open(sys.argv[2], "rb"))
fresh = parse_graph(open(sys.argv[1]).read())
assert hash(loaded) == hash(fresh), "hash"
assert len({loaded, fresh}) == 1, "set"
assert loaded.least_out_edge == fresh.least_out_edge, "cache"
"""


def test_pickled_graph_hashes_like_a_fresh_one_across_hash_seeds(tmp_path):
    src = str(Path(lpakit.__file__).resolve().parents[1])
    args = [str(CORPUS / "toeplitz.graph"), str(tmp_path / "g.pickle")]
    for seed, script in (("1", _DUMP), ("2", _LOAD)):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# -- cycles ------------------------------------------------------------------


def test_exitless_cycle_found_on_bare_loop():
    assert exitless_cycles(load("loop")) == [("c",)]


def test_exitless_cycles_empty_when_every_cycle_has_exit():
    for name in ("toeplitz", "double_edge_cycle", "loop_two_exits"):
        assert exitless_cycles(load(name)) == []


def test_exitless_two_cycle():
    g = build(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    assert exitless_cycles(g) == [("x", "y")]


def test_enumerate_cycles_counts_parallel_edges_separately():
    g = load("double_edge_cycle")
    got = set(enumerate_cycles(g, 10))
    assert got == {("x", "y"), ("z", "y")}


def test_enumerate_cycles_matches_oracle_on_corpus(corpus):
    for name, g in corpus.items():
        assert canon_cycles(enumerate_cycles(g, 10_000)) == cycles_oracle(g), name


def test_enumerate_cycles_matches_oracle_on_random_graphs(rng):
    for _ in range(150):
        g = random_graph(rng, max_vertices=6)
        assert canon_cycles(enumerate_cycles(g, 10_000)) == cycles_oracle(g)


def test_enumerate_cycles_cap():
    # complete-ish digraph has lots of cycles
    vs = [f"v{i}" for i in range(5)]
    es = []
    k = 0
    for a in vs:
        for b in vs:
            es.append((f"e{k}", a, b))
            k += 1
    g = Graph(vs, es)
    with pytest.raises(TooManyCycles):
        enumerate_cycles(g, 10)


def test_enumerate_cycles_needs_a_positive_cap():
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_cycles(load("loop"), 0)


def test_exitless_cycles_agree_with_filtered_enumeration(rng):
    for _ in range(100):
        g = random_graph(rng, max_vertices=6)
        allc = enumerate_cycles(g, 10_000)
        want = {
            c
            for c in allc
            if all(len(g.out_edges(g.edge_map[x].source)) == 1 for x in c)
        }
        assert set(exitless_cycles(g)) == want


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(multigraphs() | block_graphs())
def test_exitless_cycles_match_the_out_degree_walk(g):
    # the same cycles, in the same order and rotation
    assert exitless_cycles(g) == exitless_cycles_walk(g)


def test_exitless_cycles_list_each_cycle_from_its_least_vertex():
    g = build(["s", "b", "a", "c", "d"],
              [("x", "a", "b"), ("y", "b", "a"), ("z", "c", "d"), ("w", "d", "c"),
               ("l", "s", "s"), ("m", "s", "b")])
    assert exitless_cycles(g) == [("y", "x"), ("z", "w")]


def _cycles_or_cap(search, g, cap):
    try:
        return search(g, cap)
    except TooManyCycles:
        return TooManyCycles


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(multigraphs())
def test_enumerate_cycles_matches_the_recursive_search_exactly(g):
    # same cycles in the same order, and the same cap outcome
    for cap in (1, 3, 1000):
        assert _cycles_or_cap(enumerate_cycles, g, cap) == _cycles_or_cap(enumerate_cycles_dfs, g, cap)


def test_cycle_search_scales_without_recursion():
    # 2 x 10^4 vertices: far past the interpreter's recursion limit
    n = 20_000
    vs = [f"v{i}" for i in range(n)]
    ring = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    exits = [(f"x{i}", vs[i], "out") for i in range(0, n, 4)]
    (cycle,) = enumerate_cycles(Graph(vs + ["out"], ring + exits), 100)
    assert cycle == tuple(name for name, _, _ in ring)

    # 10^4 vertices of out-degree 2, most of them in one strongly connected
    # component
    rng = random.Random(6)
    n = 10_000
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{2 * i + j}", v, rng.choice(vs)) for i, v in enumerate(vs) for j in (0, 1)])
    ((_, giant),) = Counter(condensation(g)[0]).most_common(1)
    assert giant > n // 2
    with pytest.raises(TooManyCycles):
        enumerate_cycles(g, 100)
