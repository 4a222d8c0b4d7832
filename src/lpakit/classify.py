"""Structural classification of finite directed graphs.

The questions answered here are the graph-side counterparts of algebraic
facts about the associated path algebra:

* hereditary/saturated vertex subsets (they index the two-sided ideals),
* simplicity of the graph: no proper hereditary-saturated subset and no
  cycle without an exit,
* the almost-simple decomposition: after detaching fiber units, the
  remaining vertices split into a simple core and a set of balloons
  (a balloon is a vertex carrying a loop, whose only other edges point
  into the core and whose only incoming edge is its own loop).

classify() reports that decomposition when it exists; its verdict predicts
whether the commutator algebra of skew-symmetric elements is simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable

from .graph import Edge, Graph, condensation, exitless_cycles, sources, weak_components

HS_ENUM_LIMIT = 12
# Upstream-most essential components per reachability pass of is_simple: the
# bitsets of one pass take at most this many bits per component.
TOPS_PER_PASS = 4096


class ClassifyError(Exception):
    pass


class GraphTooLarge(ClassifyError):
    """Subset enumeration is gated to small vertex counts."""


# -- hereditary / saturated subsets -----------------------------------------


def _ordered(g: Graph, vs: Iterable[str]) -> list[str]:
    vset = set(vs)
    return [v for v in g.vertices if v in vset]


def is_hereditary(g: Graph, ws: Iterable[str]) -> bool:
    """Closed under moving along edges: source in W forces range in W."""
    wset = set(ws)
    return all(e.target in wset for e in g.edges if e.source in wset)


def is_saturated(g: Graph, ws: Iterable[str]) -> bool:
    """Every non-sink all of whose edge ranges lie in W already lies in W."""
    wset = set(ws)
    for v in g.vertices:
        if v in wset or g.is_sink(v):
            continue
        if all(e.target in wset for e in g.out_edges(v)):
            return False
    return True


def hereditary_closure(g: Graph, xs: Iterable[str]) -> list[str]:
    """Smallest hereditary superset: the union of descendant sets."""
    wset: set[str] = set()
    frontier = list(xs)
    for v in frontier:
        g._check_vertex(v)
    wset.update(frontier)
    while frontier:
        u = frontier.pop()
        for e in g.out_edges(u):
            if e.target not in wset:
                wset.add(e.target)
                frontier.append(e.target)
    return _ordered(g, wset)


def saturated_closure(g: Graph, xs: Iterable[str]) -> list[str]:
    """Least fixpoint of the saturation rule alone (no hereditary step).

    One worklist pass, O(V + E): each vertex outside W counts its out-edges
    not yet into W, and a vertex joins W when its count reaches zero.  Every
    member of W lowers the counts of its in-neighbours once.
    """
    wset = set(xs)
    for v in wset:
        g._check_vertex(v)
    missing: dict[str, int] = {}  # out-edges not yet into W, once touched
    work = list(wset)
    while work:
        u = work.pop()
        for e in g._in[u]:
            s = e.source
            if s in wset:
                continue
            left = missing.get(s, len(g._out[s])) - 1
            missing[s] = left
            if not left:
                wset.add(s)
                work.append(s)
    return _ordered(g, wset)


def hs_closure(g: Graph, xs: Iterable[str]) -> list[str]:
    """Smallest hereditary and saturated superset of xs.

    The hereditary closure, then the saturated closure of that.  Saturating
    a hereditary set keeps it hereditary: a vertex is only added once all
    its edges point into the set.  Both rules are forced for any
    hereditary-saturated superset, so the result is the intersection of
    all of them.

    A vertex u stays outside the closure exactly when a path avoiding the
    hereditary closure H leads from u to a sink or a cycle; a sink or cycle
    outside H is such a u itself, since H contains every descendant of its
    members.  So hs_closure({v}) is V exactly when v reaches every essential
    strongly connected component: every sink and every component that
    carries a cycle.  Both passes are linear.
    """
    return saturated_closure(g, hereditary_closure(g, xs))


def smallest_hs_subset(g: Graph) -> list[str] | None:
    """The least nonempty hereditary-saturated subset, or None.

    Every vertex reaches a terminal strongly connected component, one with
    no edge leaving it.  A nonempty hereditary-saturated W contains all
    descendants of its members, so it contains a whole terminal component.
    With two or more terminal components, the closures of two of them are
    disjoint and there is no least subset.  With exactly one, T, every such
    W contains hs_closure(T), which is hs_closure of any one vertex of T.
    """
    comp, succ, _ = condensation(g)
    terminal = [c for c, out in enumerate(succ) if not out]
    if len(terminal) > 1:
        return None
    return hs_closure(g, [g.vertices[comp.index(terminal[0])]])


def enumerate_hs_subsets(g: Graph) -> list[tuple[str, ...]]:
    """All nonempty proper-or-full subsets that are hereditary and saturated.

    Exponential by nature, so gated: graphs with more than HS_ENUM_LIMIT
    vertices raise GraphTooLarge.  Results are ordered by size, then by
    declaration order of their members.
    """
    n = len(g.vertices)
    if n > HS_ENUM_LIMIT:
        raise GraphTooLarge(f"{n} vertices exceeds the enumeration limit {HS_ENUM_LIMIT}")
    out = []
    for k in range(1, n + 1):
        for combo in combinations(g.vertices, k):
            if is_hereditary(g, combo) and is_saturated(g, combo):
                out.append(combo)
    return out


# -- simplicity ---------------------------------------------------------------


@dataclass(frozen=True)
class SimplicityResult:
    """is_simple's answer: a certificate of non-simplicity, or none."""

    proper_hs_subset: tuple[str, ...] | None = None
    exitless_cycle: tuple[str, ...] | None = None

    @property
    def simple(self) -> bool:
        return self.proper_hs_subset is None and self.exitless_cycle is None


def _unreaching_vertex(g: Graph, dropped: Collection[str] = ()) -> str | None:
    """The first declared vertex that misses some essential component of
    g's condensation: one that carries a cycle or has no successor.

    The vertices in dropped are left out, as if the question were asked of
    the subgraph on the others; each of them must be its own strong
    component and receive no edge from the others, which then reach one
    another exactly as they do in g.

    Reaching every essential component is the same as reaching every
    upstream-most one, which no other essential component reaches: each
    essential component lies below an upstream-most one.  So reachability is
    tracked as bitsets over the upstream-most components only, filled in
    successors first, TOPS_PER_PASS components per pass.
    """
    comp, succ, cyclic = condensation(g)
    essential = [c or not out for c, out in zip(cyclic, succ)]
    for v in dropped:
        essential[comp[g.vertex_index[v]]] = False
    reached = [False] * len(succ)  # reached from some other essential one
    for c in reversed(range(len(succ))):  # predecessors first
        if reached[c] or essential[c]:
            for d in succ[c]:
                reached[d] = True
    tops = [c for c in range(len(succ)) if essential[c] and not reached[c]]
    misses = [False] * len(succ)
    for lo in range(0, len(tops), TOPS_PER_PASS):
        bit = {c: 1 << i for i, c in enumerate(tops[lo:lo + TOPS_PER_PASS])}
        full = (1 << len(bit)) - 1
        reach = [0] * len(succ)
        for c, out in enumerate(succ):
            r = bit.get(c, 0)
            for d in out:
                r |= reach[d]
            reach[c] = r
            if r != full:
                misses[c] = True
    return next((v for v, c in zip(g.vertices, comp) if misses[c] and v not in dropped), None)


def _certificate(g: Graph, v: str | None) -> SimplicityResult:
    """is_simple's certificate, given the first vertex v that misses an
    essential component (None when there is none): hs_closure of v, or else
    the first cycle without an exit, or else simple.  With v taken from
    _unreaching_vertex(g, dropped) it is the subgraph's certificate, as long
    as no dropped vertex can be saturated into a closure or lie on a cycle
    without an exit."""
    if v is not None:
        return SimplicityResult(proper_hs_subset=tuple(hs_closure(g, [v])))
    bad = exitless_cycles(g)
    if bad:
        return SimplicityResult(exitless_cycle=bad[0])
    return SimplicityResult()


def is_simple(g: Graph) -> SimplicityResult:
    """Simplicity test with certificate.

    Simple means: no proper nonempty hereditary-saturated subset, and every
    cycle has an exit.  The first condition is equivalent to every singleton
    closure hs_closure({v}) being all of V, that is, to every vertex reaching
    every essential strongly connected component (see hs_closure).  That
    fails exactly when there are two or more essential components.  On
    failure the certificate is hs_closure of the first declared vertex that
    misses one, or else the first cycle without an exit.  Linear apart from
    the bitsets of _unreaching_vertex.
    """
    return _certificate(g, _unreaching_vertex(g))


# -- fibers, forks, balloons --------------------------------------------------


def _is_fiber(g: Graph, e: Edge) -> bool:
    """The fiber clause of find_fibers, for the one edge e."""
    return not g._in[e.source] and not g._out[e.target] and len(g._in[e.target]) == 1


def find_fibers(g: Graph) -> list[Edge]:
    """Edges e whose source receives nothing, whose range emits nothing,
    and whose range receives no edge other than e itself."""
    return [e for e in g.edges if _is_fiber(g, e)]


def is_fork(g: Graph) -> bool:
    """One connected component in which a single vertex emits everything:
    exactly one source vertex, every other vertex a sink, at least two
    vertices in total.  Connected follows: every other vertex receives an
    edge, and only the source emits."""
    srcs = sources(g)
    if len(g.vertices) < 2 or len(srcs) != 1:
        return False
    return all(g.is_sink(v) for v in g.vertices if v != srcs[0])


def _is_balloon(g: Graph, v: str) -> bool:
    """v carries exactly one loop, which is its only incoming edge, and
    emits at least one other edge.  Past fiber units, that other edge ends
    in the core: another such vertex would gain a second incoming edge, a
    unit's source receives nothing, and a unit's target receives only its
    fiber."""
    ins = g._in[v]
    return len(ins) == 1 and ins[0].source == v and len(g._out[v]) > 1


# -- fiber stripping ----------------------------------------------------------


def fiber_units(g: Graph) -> list[Edge]:
    """Fibers whose source emits nothing else.

    Such a unit, the edge with its source and target, touches no other
    edge: the source receives nothing and emits only the fiber, the target
    emits nothing and receives only the fiber.  Detaching units therefore
    never creates new fibers, and one pass is enough.
    """
    return [e for e in find_fibers(g) if len(g.out_edges(e.source)) == 1]


# -- the classifier -----------------------------------------------------------


@dataclass(frozen=True)
class FailureReason:
    kind: str
    detail: str


@dataclass(frozen=True)
class Classification:
    """classify's verdict.  Only the facts are stored; almost_simple and
    warnings follow from them."""

    core: tuple[str, ...]
    balloons: tuple[str, ...]
    fiber_units: tuple[Edge, ...]
    failure_reason: FailureReason | None
    simplicity: SimplicityResult
    components: tuple[tuple[str, ...], ...]

    @property
    def almost_simple(self) -> bool:
        return self.failure_reason is None

    @property
    def warnings(self) -> tuple[str, ...]:
        kind = self.failure_reason and self.failure_reason.kind
        return tuple(text for holds, text in (
            (len(self.components) > 1,
             "graph is disconnected; the decomposition is applied to the whole "
             "graph, component by component effects are not modelled"),
            (bool(self.fiber_units),
             "fiber units are detached before decomposition; each contributes a "
             "2x2 matrix block with zero commutators of skew elements"),
            (kind == "empty_after_fiber_stripping",
             "every vertex lies in a fiber unit; skew commutators all vanish"),
            (kind == "trivial_remainder",
             "remainder is a single isolated vertex; its skew-symmetric part is "
             "zero, so the verdict is negative despite the trivially simple core"),
        ) if holds)


def classify(g: Graph) -> Classification:
    """Decide the almost-simple decomposition.

    Pipeline: (1) detach fiber units; (2) the balloons are the remaining
    vertices that pass _is_balloon; (3) the rest is the core: check it is
    simple.  The verdict is also negative when nothing remains after
    stripping, or when the remainder is one isolated vertex (its
    skew-symmetric part is zero, so the commutator algebra cannot be simple).
    """
    comps = tuple(tuple(c) for c in weak_components(g))
    first = _unreaching_vertex(g)
    simplicity = _certificate(g, first)

    units = fiber_units(g)
    drop = {e.source for e in units} | {e.target for e in units}
    remainder = [v for v in g.vertices if v not in drop]
    balloons = [v for v in remainder if _is_balloon(g, v)]
    balloon_set = set(balloons)
    core = [v for v in remainder if v not in balloon_set]

    if not remainder:
        reason = FailureReason(
            "empty_after_fiber_stripping", "detaching fiber units removed every vertex")
    elif len(remainder) == 1 and g.is_sink(remainder[0]):
        reason = FailureReason(
            "trivial_remainder", "a single isolated vertex has no skew elements to generate anything")
    else:
        # core is never empty here: a balloon candidate needs a non-loop edge,
        # and whatever that edge hits has an incoming edge besides any loop.
        # The core is decided on g's condensation, without building it.  Each
        # balloon and fiber-unit vertex is its own strong component, and no
        # core vertex has an edge to one: a balloon receives only its loop, a
        # unit touches no other edge.  No closure of core vertices saturates
        # one in: a balloon's loop and a unit source's edge leave the closure,
        # and a unit target is a sink.  And a balloon's loop has an exit.  So
        # the core's certificate is g's whenever its first unreaching vertex
        # is g's.
        v = _unreaching_vertex(g, drop | balloon_set)
        core_result = simplicity if v == first else _certificate(g, v)
        reason = None if core_result.simple else FailureReason("core_not_simple", (
            f"proper hereditary-saturated subset {list(core_result.proper_hs_subset)}"
            if core_result.proper_hs_subset is not None
            else f"cycle without exit ({' '.join(core_result.exitless_cycle)})"
        ))
    return Classification(tuple(core), tuple(balloons), tuple(units), reason, simplicity, comps)


def validate_classification(g: Graph, cls: Classification) -> bool:
    """Re-derive a positive verdict from scratch, clause by clause.

    Used as a self-check by the command line tool: the decomposition parts
    must partition the vertices, each fiber unit must still satisfy the
    fiber clauses, the core subgraph must be simple, and each balloon must
    pass _is_balloon on g.
    """
    if not cls.almost_simple:
        return True
    parts: list[str] = list(cls.core) + list(cls.balloons)
    for e in cls.fiber_units:
        parts += [e.source, e.target]
    if sorted(parts) != sorted(g.vertices):
        return False
    if not set(cls.fiber_units) <= set(fiber_units(g)):
        return False
    if not cls.core or not is_simple(g.subgraph(cls.core)).simple:
        return False
    return all(_is_balloon(g, v) for v in cls.balloons)


# -- the vanishing family -----------------------------------------------------


def is_vanishing_family(g: Graph) -> bool:
    """True when every component is an isolated vertex, a single loop, or a
    fork whose sinks each receive exactly one edge.

    These are exactly the shapes on which every commutator of skew-symmetric
    elements vanishes: no two distinct edges are consecutive or share a
    range, so there is nothing to bracket.

    One pass over the edges: a loop must be its vertex's only out-edge, and
    any other edge must leave a vertex that receives nothing and enter a
    sink that receives only that edge.  A second edge into a loop's vertex
    breaks one of the two rules.
    """
    return all(len(g._out[e.source]) == 1 if e.source == e.target else _is_fiber(g, e)
               for e in g.edges)
