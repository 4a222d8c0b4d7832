"""Finite directed multigraphs with named vertices and edges.

All query results come back in declaration order (the order vertices and
edges appear in the input), never in hash order, so that every downstream
computation is reproducible run to run.

The text format is line based:

    vertex NAME
    edge NAME SOURCE RANGE

Names match [A-Za-z0-9_]+, tokens are separated by single spaces, blank
lines and lines starting with '#' are ignored.  parse_graph/serialize_graph
round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphError(Exception):
    """Base class for graph construction and parsing errors."""


class EmptyGraph(GraphError):
    """A graph must have at least one vertex."""


class DuplicateName(GraphError):
    """Vertex and edge names must be pairwise distinct."""


class UnknownVertex(GraphError):
    """An edge endpoint (or a query argument) names no declared vertex."""


class MalformedLine(GraphError):
    """A line of graph text that does not parse; carries the line number."""

    def __init__(self, lineno: int, text: str, why: str):
        super().__init__(f"line {lineno}: {why}: {text!r}")
        self.lineno = lineno


class TooManyCycles(GraphError):
    """Cycle enumeration exceeded the caller's cap."""


@dataclass(frozen=True)
class Edge:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A directed path: either a single vertex (no edges) or a chain of edges.

    Both endpoints are stored so that source/target lookups never need the
    graph.  A length-0 path has source == target == the vertex.
    """

    source: str
    target: str
    edges: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return " ".join(self.edges) if self.edges else self.source


@dataclass(frozen=True)
class Cycle:
    """A closed path with pairwise distinct source vertices.

    vertices[i] is the source of edges[i]; canonical form starts at the
    vertex that was declared earliest.
    """

    edges: tuple[str, ...]
    vertices: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return " ".join(self.edges)


def path_key(p: Path) -> tuple:
    """Sort key: length first, then edge names (vertex name for length 0)."""
    return (len(p.edges), p.edges if p.edges else (p.source,))


class Graph:
    """An immutable finite directed multigraph.

    Vertices and edges keep their declaration order.  Construction validates
    that the vertex set is nonempty, names are well formed and pairwise
    distinct (edge names may not collide with vertex names either), and all
    edge endpoints are declared.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        vs = tuple(vertices)
        if not vs:
            raise EmptyGraph("a graph needs at least one vertex")
        seen: set[str] = set()
        for v in vs:
            if not NAME_RE.match(v):
                raise MalformedLine(0, v, "bad vertex name")
            if v in seen:
                raise DuplicateName(f"vertex {v!r} declared twice")
            seen.add(v)
        known = set(seen)

        es = []
        for name, src, dst in edges:
            if not NAME_RE.match(name):
                raise MalformedLine(0, name, "bad edge name")
            if name in seen:
                raise DuplicateName(f"name {name!r} declared twice")
            seen.add(name)
            if src not in known:
                raise UnknownVertex(f"edge {name!r}: unknown source {src!r}")
            if dst not in known:
                raise UnknownVertex(f"edge {name!r}: unknown range {dst!r}")
            es.append(Edge(name, src, dst))
        self._index(vs, tuple(es))

    def _index(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        """Build the lookup tables from vertices and edges already known to
        be valid."""
        self.vertices: tuple[str, ...] = vertices
        self.vertex_index: dict[str, int] = {v: i for i, v in enumerate(vertices)}
        self.edges: tuple[Edge, ...] = edges
        self.edge_map: dict[str, Edge] = {e.name: e for e in edges}

        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
            inc[e.target].append(e)
        self._out = {v: tuple(lst) for v, lst in out.items()}
        self._in = {v: tuple(lst) for v, lst in inc.items()}
        self._hash = hash((self.vertices, self.edges))

    # -- basic queries ----------------------------------------------------

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self._check_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self._check_vertex(v)
        return self._in[v]

    def is_sink(self, v: str) -> bool:
        """True when v emits no edge."""
        return not self.out_edges(v)

    def is_source(self, v: str) -> bool:
        """True when v receives no edge."""
        return not self.in_edges(v)

    def _check_vertex(self, v: str) -> None:
        if v not in self.vertex_index:
            raise UnknownVertex(f"unknown vertex {v!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- paths -------------------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        self._check_vertex(v)
        return Path(v, v)

    def path(self, edge_names: Sequence[str]) -> Path:
        """Build a path from consecutive edge names, validating the chaining."""
        if not edge_names:
            raise GraphError("empty edge list; use vertex_path for length 0")
        es = []
        for name in edge_names:
            if name not in self.edge_map:
                raise GraphError(f"unknown edge {name!r}")
            es.append(self.edge_map[name])
        for a, b in zip(es, es[1:]):
            if a.target != b.source:
                raise GraphError(f"edges {a.name!r} and {b.name!r} do not chain")
        return Path(es[0].source, es[-1].target, tuple(e.name for e in es))

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on the given vertices, declaration order preserved.

        Its names were validated when this graph was built, so the subgraph
        is indexed without validating them again.
        """
        keep_set = set(keep)
        for v in keep_set:
            self._check_vertex(v)
        if not keep_set:
            raise EmptyGraph("a graph needs at least one vertex")
        sub = Graph.__new__(Graph)
        sub._index(
            tuple(v for v in self.vertices if v in keep_set),
            tuple(e for e in self.edges if e.source in keep_set and e.target in keep_set),
        )
        return sub


# -- parsing and serialization -------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.  Raises MalformedLine with the
    offending 1-based line number, plus the Graph constructor's errors."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise MalformedLine(lineno, raw, "expected 'vertex NAME' or 'edge NAME SOURCE RANGE'")
        for tok in parts[1:]:
            if not NAME_RE.match(tok):
                raise MalformedLine(lineno, raw, f"bad name {tok!r}")
    if not vertices:
        raise EmptyGraph("no vertices declared")
    return Graph(vertices, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: one declaration per line, original order."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.source} {e.target}" for e in g.edges]
    return "\n".join(lines) + "\n"


# -- vertex-set queries ----------------------------------------------------


def sources(g: Graph) -> list[str]:
    """Vertices with no incoming edge, in declaration order."""
    return [v for v in g.vertices if g.is_source(v)]


def sinks(g: Graph) -> list[str]:
    """Vertices with no outgoing edge, in declaration order."""
    return [v for v in g.vertices if g.is_sink(v)]


def weak_components(g: Graph) -> list[list[str]]:
    """Weakly connected components; each component and the component list
    are ordered by declaration index."""
    seen: set[str] = set()
    comps: list[list[str]] = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for e in g._out[u]:
                if e.target not in seen:
                    seen.add(e.target)
                    comp.append(e.target)
                    frontier.append(e.target)
            for e in g._in[u]:
                if e.source not in seen:
                    seen.add(e.source)
                    comp.append(e.source)
                    frontier.append(e.source)
        comp.sort(key=g.vertex_index.__getitem__)
        comps.append(comp)
    return comps


def strong_components(g: Graph) -> list[int]:
    """The strongly connected component of each vertex, by declaration index.

    Tarjan's algorithm, with an explicit stack instead of recursion so that
    long paths do not exhaust the interpreter's stack.  Components are
    numbered in the order Tarjan completes them, which is reverse
    topological: an edge between two components runs from the higher number
    to the lower.
    """
    idx = g.vertex_index
    succ = [[idx[e.target] for e in g._out[v]] for v in g.vertices]
    n = len(succ)
    order = [-1] * n  # discovery number, -1 while unvisited
    low = [0] * n
    comp = [-1] * n  # -1 while unvisited or still on the Tarjan stack
    stack: list[int] = []
    visited = done = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, todo = calls[-1]
            for w in todo:
                if order[w] < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = done
                        if w == v:
                            break
                    done += 1
    return comp


# -- cycles -----------------------------------------------------------------


def _rotate_to_least(g: Graph, edge_names: list[str]) -> Cycle:
    verts = [g.edge_map[e].source for e in edge_names]
    k = min(range(len(verts)), key=lambda i: g.vertex_index[verts[i]])
    edge_names = edge_names[k:] + edge_names[:k]
    verts = verts[k:] + verts[:k]
    return Cycle(tuple(edge_names), tuple(verts))


def exitless_cycles(g: Graph) -> list[Cycle]:
    """Cycles none of whose vertices has an edge leaving the cycle.

    Every vertex on such a cycle has out-degree exactly 1, so it is enough
    to follow unique out-edges inside the out-degree-1 subgraph.  Linear
    time; no general cycle enumeration.
    """
    next_edge = {v: g._out[v][0] for v in g.vertices if len(g._out[v]) == 1}
    state: dict[str, int] = {}  # 0 in progress, 1 done
    out: list[Cycle] = []
    for start in g.vertices:
        if start not in next_edge or state.get(start) == 1:
            continue
        trail: list[str] = []
        pos: dict[str, int] = {}
        v = start
        while v in next_edge and state.get(v) != 1 and v not in pos:
            pos[v] = len(trail)
            trail.append(v)
            v = next_edge[v].target
        if v in pos:  # closed a new cycle
            cyc = trail[pos[v]:]
            out.append(_rotate_to_least(g, [next_edge[u].name for u in cyc]))
        for u in trail:
            state[u] = 1
    out.sort(key=lambda c: g.vertex_index[c.vertices[0]])
    return out


def enumerate_cycles(g: Graph, max_count: int) -> list[Cycle]:
    """All simple cycles (distinct source vertices; parallel edges give
    distinct cycles), each rotated to start at its least-declared vertex.

    Raises TooManyCycles as soon as more than max_count are found.
    """
    if max_count < 1:
        raise ValueError("max_count must be at least 1")
    out: list[Cycle] = []
    idx = g.vertex_index

    def dfs(start: str, v: str, edge_trail: list[str], visited: set[str]) -> None:
        for e in g._out[v]:
            if e.target == start:
                if len(out) >= max_count:
                    raise TooManyCycles(f"more than {max_count} cycles")
                cyc_edges = edge_trail + [e.name]
                verts = tuple(g.edge_map[x].source for x in cyc_edges)
                out.append(Cycle(tuple(cyc_edges), verts))
            elif e.target not in visited and idx[e.target] > idx[start]:
                visited.add(e.target)
                dfs(start, e.target, edge_trail + [e.name], visited)
                visited.remove(e.target)

    for start in g.vertices:
        dfs(start, start, [], {start})
    return out
