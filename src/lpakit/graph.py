"""Finite directed multigraphs with named vertices and edges.

All query results come back in declaration order (the order vertices and
edges appear in the input), never in hash order, so that every downstream
computation is reproducible run to run.

The text format is line based:

    vertex NAME
    edge NAME SOURCE RANGE

Names match [A-Za-z0-9_]+, tokens are separated by single spaces, blank
lines and lines starting with '#' are ignored.  Lines break at '\n' only;
surrounding whitespace, '\r' included, is stripped.
parse_graph reads it, and serialize_graph in tests/helpers.py writes it back.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

_NAME = "[A-Za-z0-9_]+"
NAME_RE = re.compile(_NAME + r"\Z")
# one stripped line: a vertex (group 1), an edge (groups 2-4), or a comment
# or blank line (no group)
_LINE_RE = re.compile(rf"(?:vertex ({_NAME})|edge ({_NAME}) ({_NAME}) ({_NAME})|#.*|)\Z")


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


class Edge(NamedTuple):
    """A named edge from source to target.  A tuple, so edges hash and
    compare in C, and the edges of a graph unzip into their name, source
    and target columns."""

    name: str
    source: str
    target: str


class Path(NamedTuple):
    """A directed path: either a single vertex (no edges) or a chain of edges.

    Both endpoints are stored so that source/target lookups never need the
    graph.  A length-0 path has source == target == the vertex.

    A tuple, so paths and the monomials built from them hash and compare in
    C.  len() is the edge count, not the field count, which breaks the
    generated _make and _replace: do not call them.
    """

    source: str
    target: str
    edges: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return " ".join(self.edges) if self.edges else self.source


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
        es = tuple(Edge(name, src, dst) for name, src, dst in edges)
        names_ok = all(map(NAME_RE.match, vs)) and all(NAME_RE.match(e.name) for e in es)
        self._check(vs, es, names_ok)

    def _check(self, vs: tuple[str, ...], es: tuple[Edge, ...], names_ok: bool) -> None:
        """Validate vertices and edges and index them; names_ok says that
        every name is known to match NAME_RE.

        Set sizes and superset tests decide whether all is well.  Only when
        it is not does the loop below run, to name the first offender in
        declaration order.
        """
        known = frozenset(vs)
        names, srcs, dsts = zip(*es) if es else ((), (), ())
        if (names_ok and vs and len(known.union(names)) == len(vs) + len(es)
                and known.issuperset(srcs) and known.issuperset(dsts)):
            self._index(vs, es, names)
            return
        if not vs:
            raise EmptyGraph("a graph needs at least one vertex")
        seen: set[str] = set()
        for v in vs:
            if not NAME_RE.match(v):
                raise MalformedLine(0, v, "bad vertex name")
            if v in seen:
                raise DuplicateName(f"vertex {v!r} declared twice")
            seen.add(v)
        for name, src, dst in es:
            if not NAME_RE.match(name):
                raise MalformedLine(0, name, "bad edge name")
            if name in seen:
                raise DuplicateName(f"name {name!r} declared twice")
            seen.add(name)
            if src not in known:
                raise UnknownVertex(f"edge {name!r}: unknown source {src!r}")
            if dst not in known:
                raise UnknownVertex(f"edge {name!r}: unknown range {dst!r}")
        raise AssertionError("no offender found in a graph that failed validation")

    def _index(self, vertices: tuple[str, ...], edges: tuple[Edge, ...],
               names: Iterable[str]) -> None:
        """Build the lookup tables from vertices and edges already known to
        be valid; names are the edge names, in order."""
        self.vertices: tuple[str, ...] = vertices
        self.vertex_index: dict[str, int] = dict(zip(vertices, range(len(vertices))))
        self.edges: tuple[Edge, ...] = edges
        self.edge_map: dict[str, Edge] = dict(zip(names, edges))

        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        # least_out_edge: the lexicographically least out-edge name of
        # every non-sink, the special edge of the path algebra's basis
        least: dict[str, str] = {}
        for e in self.edges:
            out[e.source].append(e)
            inc[e.target].append(e)
            f = least.get(e.source)
            if f is None or e.name < f:
                least[e.source] = e.name
        self._out = {v: tuple(lst) for v, lst in out.items()}
        self._in = {v: tuple(lst) for v, lst in inc.items()}
        self.least_out_edge: dict[str, str] = least
        # filled by condensation on first use
        self._cond: tuple | None = None

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
        return hash((self.vertices, self.edges))

    def __reduce__(self):
        # rebuilt from names on load, so the loaded graph is re-validated
        # and its lookup tables and condensation are not shipped
        return Graph, (self.vertices, [(e.name, e.source, e.target) for e in self.edges])

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
        es = tuple(e for e in self.edges if e.source in keep_set and e.target in keep_set)
        sub._index(tuple(v for v in self.vertices if v in keep_set), es, (e.name for e in es))
        return sub


# -- parsing and serialization -------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.  Raises MalformedLine with the
    offending 1-based line number, plus the Graph constructor's errors.

    Each stripped line is checked by one regex, which also reads its names,
    so no name is checked twice.  Only when a line fails does the
    line-by-line check run, to say which line and why.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for m in map(_LINE_RE.match, map(str.strip, text.split("\n"))):
        if m is None:
            raise _malformed(text)
        i = m.lastindex
        if i == 1:
            vertices.append(m[1])
        elif i:
            edges.append(m.group(2, 3, 4))
    if not vertices:
        raise EmptyGraph("no vertices declared")
    g = Graph.__new__(Graph)
    g._check(tuple(vertices), tuple(map(Edge._make, edges)), True)
    return g


def _malformed(text: str) -> MalformedLine:
    """The error for the first line of text that is neither blank, nor a
    comment, nor a well-formed declaration: the lines _LINE_RE rejects."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if not ((parts[0] == "vertex" and len(parts) == 2)
                or (parts[0] == "edge" and len(parts) == 4)):
            return MalformedLine(lineno, raw, "expected 'vertex NAME' or 'edge NAME SOURCE RANGE'")
        for tok in parts[1:]:
            if not NAME_RE.match(tok):
                return MalformedLine(lineno, raw, f"bad name {tok!r}")
    raise AssertionError("no malformed line in a text that failed to parse")


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


def condensation(g: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """The strongly connected components of g as a DAG: comp, succ, cyclic.

    comp[i] is the component of the i-th declared vertex.  Components are
    numbered in the order Tarjan completes them, which is reverse
    topological: an edge between two components runs from the higher
    number to the lower.  succ[c] lists the component at the far end of
    each edge leaving c, once per edge, and cyclic[c] says whether c carries
    a cycle (a loop included).  Computed once per graph, on first use, and
    kept on it: a function of the adjacency alone.
    """
    if g._cond is None:
        idx = g.vertex_index
        targets = [[idx[e.target] for e in g._out[v]] for v in g.vertices]
        comp = tuple(_tarjan(targets))
        succ: list[list[int]] = [[] for _ in range(max(comp) + 1)]
        cyclic = [False] * len(succ)
        for a, ts in zip(comp, targets):
            for t in ts:
                if comp[t] == a:
                    cyclic[a] = True
                else:
                    succ[a].append(comp[t])
        g._cond = comp, tuple(map(tuple, succ)), tuple(cyclic)
    return g._cond


def _tarjan(succ: list[list[int]], lo: int = 0) -> list[int]:
    """Tarjan's algorithm on the vertices lo..len(succ)-1 and the edges
    between them; vertices below lo get component -1.

    It keeps an explicit stack instead of recursing, so that long paths do
    not exhaust the interpreter's stack.  Roots and successors are taken in
    index order, and components are numbered as they complete.
    """
    n = len(succ)
    order = [-1] * n  # discovery number, -1 while unvisited
    low = [0] * n
    comp = [-1] * n  # -1 while unvisited or still on the Tarjan stack
    stack: list[int] = []
    visited = done = 0
    for root in range(lo, n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, todo = calls[-1]
            for w in todo:
                if w < lo:
                    continue
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


def exitless_cycles(g: Graph) -> list[tuple[str, ...]]:
    """Cycles none of whose vertices has an edge leaving the cycle, as
    edge-name tuples.

    Such a cycle is a whole strong component: one that carries a cycle and
    whose vertices each emit exactly one edge, which then stays inside it.
    Read off the cached condensation; each cycle is listed from its
    least-declared vertex, in declaration order of those vertices.
    """
    comp, _, cyclic = condensation(g)
    exitless = list(cyclic)
    for v, c in zip(g.vertices, comp):
        if len(g._out[v]) != 1:
            exitless[c] = False
    out: list[tuple[str, ...]] = []
    for start, c in zip(g.vertices, comp):
        if exitless[c]:
            exitless[c] = False
            walk = [g._out[start][0]]
            while walk[-1].target != start:
                walk.append(g._out[walk[-1].target][0])
            out.append(tuple(e.name for e in walk))
    return out


def enumerate_cycles(g: Graph, max_count: int) -> list[tuple[str, ...]]:
    """All simple cycles (distinct source vertices; parallel edges give
    distinct cycles) as edge-name tuples, each rotated to start at its
    least-declared vertex.

    Cycles are grouped by that start vertex, in declaration order; within a
    group they come in depth-first order, out-edges taken in declaration
    order.  Raises TooManyCycles when there are more than max_count.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975), run inside each
    strongly connected component, takes O((V + E)(C + 1)) time for C
    cycles, so the cap stops it within O((V + E) max_count).
    """
    if max_count < 1:
        raise ValueError("max_count must be at least 1")
    comp = condensation(g)[0]
    size = Counter(comp)
    members: dict[int, list[str]] = {}
    groups: list[tuple[int, list[tuple[str, ...]]]] = []
    left = max_count
    for i, (v, c) in enumerate(zip(g.vertices, comp)):
        if size[c] > 1:
            members.setdefault(c, []).append(v)
            continue
        found = [(e.name,) for e in g._out[v] if e.target == v]
        if found:
            if len(found) > left:
                raise TooManyCycles(f"more than {max_count} cycles")
            left -= len(found)
            groups.append((i, found))
    for vs in members.values():
        for start, found in _component_cycles(g, vs, left, max_count):
            left -= len(found)
            groups.append((g.vertex_index[start], found))
    groups.sort(key=lambda grp: grp[0])
    return [edges for _, found in groups for edges in found]


def _local_arcs(g: Graph, vs: list[str]) -> tuple[list[list[int]], list[list[str]]]:
    """The edges among vs, numbering vs by position: the targets and the
    names of each vertex's out-edges, in declaration order.  A function of
    its own so that the name map is freed before the search starts."""
    local = {v: i for i, v in enumerate(vs)}
    outs = [[e for e in g._out[v] if e.target in local] for v in vs]
    return [[local[e.target] for e in es] for es in outs], [[e.name for e in es] for es in outs]


def _component_cycles(g: Graph, vs: list[str], left: int,
                      max_count: int) -> list[tuple[str, list[tuple[str, ...]]]]:
    """Johnson's outer loop over one strongly connected component, whose
    vertices vs are in declaration order: the cycles of each start vertex,
    as edge-name tuples.  Raises TooManyCycles past `left` cycles in all.

    The next start is the least vertex, at or after the current one, that
    lies in a nontrivial component of the subgraph those vertices induce.
    """
    targets, names = _local_arcs(g, vs)
    n = len(vs)
    out: list[tuple[str, list[tuple[str, ...]]]] = []
    s = 0
    while s < n:
        comp = _tarjan(targets, s)
        size = Counter(comp)
        s = next((v for v in range(s, n) if size[comp[v]] > 1 or v in targets[v]), n)
        if s == n:
            break
        found = _circuits(targets, names, comp, s, left, max_count)
        left -= len(found)
        out.append((vs[s], found))
        s += 1
    return out


def _circuits(targets: list[list[int]], names: list[list[str]], comp: list[int],
              s: int, left: int, max_count: int) -> list[tuple[str, ...]]:
    """Johnson's blocking search for the cycles through s inside comp[s],
    on an explicit stack.  A vertex stays blocked while every path from it
    back to s meets the stack; blist[w] holds the vertices to unblock with w.

    The stack is kept as parallel lists of small ints, since on a large
    component it can hold every vertex.
    """
    k = comp[s]
    blocked = [False] * len(targets)
    blist: dict[int, list[int]] = {}
    found: list[tuple[str, ...]] = []
    path = [s]
    trail: list[str] = []  # the edge names along path
    next_edge = [0]  # per path vertex, the position of its next out-edge
    closed = [False]  # per path vertex, whether a cycle was found below it
    blocked[s] = True
    while path:
        v = path[-1]
        ts = targets[v]
        for i in range(next_edge[-1], len(ts)):
            w = ts[i]
            if w == s:
                if len(found) == left:
                    raise TooManyCycles(f"more than {max_count} cycles")
                trail.append(names[v][i])
                found.append(tuple(trail))
                trail.pop()
                closed[-1] = True
            elif comp[w] == k and not blocked[w]:
                next_edge[-1] = i + 1
                blocked[w] = True
                trail.append(names[v][i])
                path.append(w)
                next_edge.append(0)
                closed.append(False)
                break
        else:
            path.pop()
            next_edge.pop()
            if closed.pop():
                work = [v]
                while work:
                    u = work.pop()
                    if blocked[u]:
                        blocked[u] = False
                        work.extend(blist.pop(u, ()))
                if path:
                    closed[-1] = True
            else:
                for w in ts:
                    if comp[w] == k:
                        blist.setdefault(w, []).append(v)
            if path:
                trail.pop()
    return found
