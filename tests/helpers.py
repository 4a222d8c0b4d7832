"""Brute-force oracles and builders shared by the test modules.

Everything here recomputes graph facts from first principles in the
plainest way available (powerset scans, exhaustive walks, counting
formulas), so the package code can be checked against independent
implementations on small inputs.
"""

from __future__ import annotations

import ast
import random
from dataclasses import replace
from fractions import Fraction
from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement, permutations
from math import lcm
from pathlib import Path

from hypothesis import strategies as st

from lpakit.algebra import (
    Element,
    Monomial,
    MonomialTable,
    NotHereditary,
    RowSpace,
    basis_monomials,
    is_basis_monomial,
    monomial_key,
    normal_form,
    paths_up_to,
    vertex_element,
    zero,
    _ideal_space,
    _raw_mul,
)
from lpakit.classify import (
    Classification,
    FailureReason,
    SimplicityResult,
    classify,
    fiber_units,
    hereditary_closure,
    is_hereditary,
    is_simple,
)
from lpakit.graph import (
    NAME_RE,
    DuplicateName,
    EmptyGraph,
    Graph,
    MalformedLine,
    TooManyCycles,
    UnknownVertex,
    exitless_cycles,
    parse_graph,
    weak_components,
)
from lpakit.graph import Path as GraphPath
from lpakit.laurent import CycleModel, InvalidDimension, LaurentMatrix, LaurentPoly
from lpakit.skew import (
    BracketWitness,
    ContainmentReport,
    bracket,
    skew_basis,
    _bracket_pass,
    _generator_bracket,
    _generators,
    _monomial_ids,
    _pairs_by_grade,
    _witness,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.graph"))


def load(name: str) -> Graph:
    return parse_graph((CORPUS / f"{name}.graph").read_text())


def build(vertices, edges=()) -> Graph:
    return Graph(list(vertices), [tuple(e) for e in edges])


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: one declaration per line, original order."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.source} {e.target}" for e in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph_two_pass(text: str) -> Graph:
    """The parser that parse_graph replaced, lines broken at '\\n': each
    token matched against NAME_RE on its line, then every name checked
    again, one at a time, as the constructor once did."""
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
    seen: set[str] = set()
    for v in vertices:
        if not NAME_RE.match(v):
            raise MalformedLine(0, v, "bad vertex name")
        if v in seen:
            raise DuplicateName(f"vertex {v!r} declared twice")
        seen.add(v)
    known = set(seen)
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
    return Graph(vertices, edges)


def intern(table: MonomialTable, m: Monomial) -> int:
    """The id of m in table: (w + a) w + b for the codes a, b of its paths,
    which must share their range, and the width w of its degree."""
    (a, la, _), (b, lb, _) = table._coded(m.p), table._coded(m.q)
    table._widen(la + lb)
    w = table._widths[la + lb]
    return (w + a) * w + b


class ElementSpan:
    """The package's integer RowSpace fed with Elements: each rational term
    map is scaled by the lcm of its denominators and keyed by the ids of the
    space's own MonomialTable."""

    def __init__(self, g: Graph):
        self.table = MonomialTable(g)
        self.space = RowSpace(self.table)

    def _ids(self, terms: dict) -> dict[int, int]:
        scale = lcm(*(Fraction(c).denominator for c in terms.values()))
        return {intern(self.table, m): int(c * scale) for m, c in terms.items()}

    def add(self, terms: dict) -> bool:
        return self.space.add(self._ids(terms))

    def contains(self, terms: dict) -> bool:
        return self.space.contains(self._ids(terms))

    @property
    def rank(self) -> int:
        return self.space.rank

    def reduced_rows(self) -> list[dict]:
        return fraction_rows(self.space)


def fraction_rows(space: RowSpace) -> list[dict[Monomial, Fraction]]:
    """The reduced rows of an integer RowSpace as rational rows with pivot
    coefficient 1, keyed by decoded monomials in increasing id order: each
    entry c of a row with lead L becomes Fraction(c, L)."""
    monomial = space.table.monomial
    rows = []
    for row in space.reduced_rows():
        lead = next(iter(row.values()))
        rows.append({monomial(k): Fraction(c, lead) for k, c in row.items()})
    return rows


def span(elements) -> ElementSpan:
    """The exact rational span of some elements of one graph, one
    RowSpace.add each."""
    elements = list(elements)
    space = ElementSpan(elements[0].graph)
    for x in elements:
        space.add(x.terms)
    return space


# -- hereditary-saturated subsets, by powerset scan ---------------------------


def hs_oracle(g: Graph, subset) -> bool:
    s = set(subset)
    for e in g.edges:
        if e.source in s and e.target not in s:
            return False  # not hereditary
    for v in g.vertices:
        outs = g.out_edges(v)
        if outs and v not in s and all(e.target in s for e in outs):
            return False  # not saturated
    return True


def all_hs_subsets(g: Graph) -> list[frozenset]:
    """Every hereditary and saturated subset, empty set and V included."""
    vs = list(g.vertices)
    out = []
    for k in range(len(vs) + 1):
        for combo in combinations(vs, k):
            if hs_oracle(g, combo):
                out.append(frozenset(combo))
    return out


def hs_closure_oracle(g: Graph, xs) -> frozenset:
    """Intersection of all hereditary-saturated supersets (V always is one)."""
    base = set(xs)
    acc = frozenset(g.vertices)
    for s in all_hs_subsets(g):
        if base <= s:
            acc &= s
    return acc


# -- the classifier, by per-vertex closures --------------------------------------
#
# The quadratic-to-cubic routes the linear classifier replaced: a saturation
# that rescans V until nothing changes, one closure per vertex for
# simplicity, and an intersection of every singleton closure.


def saturated_closure_rescan(g: Graph, xs) -> list[str]:
    wset = set(xs)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in wset or not g.out_edges(v):
                continue
            if all(e.target in wset for e in g.out_edges(v)):
                wset.add(v)
                changed = True
    return [v for v in g.vertices if v in wset]


def hs_closure_rescan(g: Graph, xs) -> list[str]:
    return saturated_closure_rescan(g, hereditary_closure(g, xs))


def is_simple_per_vertex(g: Graph) -> SimplicityResult:
    """Certificate: the closure of the first vertex whose closure is not V."""
    for v in g.vertices:
        cl = hs_closure_rescan(g, [v])
        if set(cl) != set(g.vertices):
            return SimplicityResult(proper_hs_subset=tuple(cl))
    bad = exitless_cycles(g)
    if bad:
        return SimplicityResult(exitless_cycle=bad[0])
    return SimplicityResult()


def smallest_hs_subset_by_intersection(g: Graph) -> list[str] | None:
    """The intersection of all singleton closures, when it is nonempty."""
    common = set(g.vertices)
    for v in g.vertices:
        common &= set(hs_closure_rescan(g, [v]))
    return [v for v in g.vertices if v in common] or None


def weak_components_rescan(g: Graph) -> list[list[str]]:
    """Each component listed by one scan of all of V."""
    seen: set[str] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in [e.target for e in g.out_edges(u)] + [e.source for e in g.in_edges(u)]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        comps.append([v for v in g.vertices if v in comp])
    return comps


# -- cycles, by exhaustive walks ----------------------------------------------


def _min_rotation(names) -> tuple:
    names = list(names)
    return min(tuple(names[i:] + names[:i]) for i in range(len(names)))


def cycles_oracle(g: Graph) -> set[tuple]:
    """All cycles with pairwise distinct vertices, as rotation-canonical
    edge-name tuples.  Each cycle is found once per vertex on it; the
    min-rotation form collapses the duplicates."""
    found: set[tuple] = set()

    def walk(start, here, visited, trail):
        for e in g.out_edges(here):
            if e.target == start:
                found.add(_min_rotation(trail + [e.name]))
            elif e.target not in visited:
                walk(start, e.target, visited | {e.target}, trail + [e.name])

    for v in g.vertices:
        walk(v, v, {v}, [])
    return found


def enumerate_cycles_dfs(g: Graph, max_count: int) -> list[tuple[str, ...]]:
    """enumerate_cycles by one recursive depth-first search per start
    vertex, through later-declared vertices only: the same cycles in the
    same order, and TooManyCycles exactly when there are more than
    max_count.  Recursion depth grows with the cycle length."""
    out: list[tuple[str, ...]] = []
    idx = g.vertex_index

    def dfs(start: str, v: str, edge_trail: list[str], visited: set[str]) -> None:
        for e in g.out_edges(v):
            if e.target == start:
                if len(out) >= max_count:
                    raise TooManyCycles(f"more than {max_count} cycles")
                out.append(tuple(edge_trail + [e.name]))
            elif e.target not in visited and idx[e.target] > idx[start]:
                visited.add(e.target)
                dfs(start, e.target, edge_trail + [e.name], visited)
                visited.remove(e.target)

    for start in g.vertices:
        dfs(start, start, [], {start})
    return out


def canon_cycles(cycles) -> set[tuple]:
    """Package cycles mapped to the oracle's min-rotation form."""
    return {_min_rotation(c) for c in cycles}


def exitless_cycle_exists_oracle(g: Graph) -> bool:
    for cyc in cycles_oracle(g):
        if all(len(g.out_edges(g.edge_map[e].source)) == 1 for e in cyc):
            return True
    return False


def exitless_cycles_walk(g: Graph) -> list[tuple[str, ...]]:
    """exitless_cycles by following unique out-edges inside the
    out-degree-1 subgraph: every vertex on a cycle without an exit has
    out-degree exactly 1.  Each cycle closed by a walk is rotated to start
    at its least-declared vertex, and the cycles are sorted by that vertex."""
    next_edge = {v: g.out_edges(v)[0] for v in g.vertices if len(g.out_edges(v)) == 1}
    done: set[str] = set()
    out: list[tuple[str, ...]] = []
    for start in g.vertices:
        if start not in next_edge or start in done:
            continue
        trail: list[str] = []
        pos: dict[str, int] = {}
        v = start
        while v in next_edge and v not in done and v not in pos:
            pos[v] = len(trail)
            trail.append(v)
            v = next_edge[v].target
        if v in pos:  # closed a new cycle
            verts = trail[pos[v]:]
            k = min(range(len(verts)), key=lambda i: g.vertex_index[verts[i]])
            verts = verts[k:] + verts[:k]
            out.append(tuple(next_edge[u].name for u in verts))
        done.update(trail)
    out.sort(key=lambda c: g.vertex_index[g.edge_map[c[0]].source])
    return out


def simple_oracle(g: Graph) -> bool:
    n = len(g.vertices)
    if any(0 < len(s) < n for s in all_hs_subsets(g)):
        return False
    return not exitless_cycle_exists_oracle(g)


# -- the decomposition, by definition chasing ----------------------------------


def balloon_oracle(g: Graph, v: str, wset) -> bool:
    outs = list(g.out_edges(v))
    loops = [e for e in outs if e.target == v]
    others = [e for e in outs if e.target != v]
    return (
        len(loops) == 1
        and len(others) >= 1
        and all(e.target in set(wset) for e in others)
        and list(g.in_edges(v)) == loops
    )


def find_balloons(g: Graph, ws) -> list[str]:
    """Vertices outside ws that are balloons over ws (balloon_oracle), in
    declaration order: classify's balloon test before it became the local
    predicate _is_balloon."""
    wset = set(ws)
    return [v for v in g.vertices if v not in wset and balloon_oracle(g, v, wset)]


def validate_classification_by_remainder(g: Graph, cls: Classification) -> bool:
    """validate_classification as it was before it re-derived on g: the
    balloons are checked over the core inside the subgraph on core and
    balloons, and the core's simplicity on a subgraph of that subgraph."""
    if not cls.almost_simple:
        return True
    parts: list[str] = list(cls.core) + list(cls.balloons)
    for e in cls.fiber_units:
        parts += [e.source, e.target]
    if sorted(parts) != sorted(g.vertices):
        return False
    if not set(cls.fiber_units) <= set(fiber_units(g)):
        return False
    keep = set(cls.core) | set(cls.balloons)
    if not keep or not cls.core:
        return False
    rem = g.subgraph(keep)
    if not is_simple(rem.subgraph(cls.core)).simple:
        return False
    return set(find_balloons(rem, cls.core)) == set(cls.balloons)


def fiber_unit_edges_oracle(g: Graph):
    out = []
    for e in g.edges:
        if (
            not g.in_edges(e.source)
            and len(g.out_edges(e.source)) == 1
            and not g.out_edges(e.target)
            and [x.name for x in g.in_edges(e.target)] == [e.name]
        ):
            out.append(e)
    return out


def almost_simple_oracle(g: Graph) -> bool:
    """Definition-chasing decision: strip the detached two-vertex units,
    then search every split of what is left into balloons plus a simple
    core.  A remainder that is empty or one bare vertex carries no skew
    elements, so those cases are negative outright."""
    units = fiber_unit_edges_oracle(g)
    drop = {e.source for e in units} | {e.target for e in units}
    keep = [v for v in g.vertices if v not in drop]
    if not keep:
        return False
    rem = g.subgraph(keep)
    if len(rem.vertices) == 1 and not rem.edges:
        return False
    vs = list(rem.vertices)
    for k in range(len(vs)):
        for balloons in combinations(vs, k):
            bset = set(balloons)
            core = [v for v in vs if v not in bset]
            if not core:
                continue
            if not all(balloon_oracle(rem, b, core) for b in balloons):
                continue
            if simple_oracle(rem.subgraph(core)):
                return True
    return False


def classify_by_subgraph(g: Graph) -> Classification:
    """classify with both simplicity verdicts taken the way it once took
    them: is_simple on g, and is_simple on a subgraph built on the core.
    The decomposition itself is classify's."""
    cls = classify(g)
    reason = cls.failure_reason
    if reason is None or reason.kind == "core_not_simple":
        core = is_simple(g.subgraph(cls.core))
        if core.simple:
            reason = None
        elif core.proper_hs_subset is not None:
            reason = FailureReason(
                "core_not_simple",
                f"proper hereditary-saturated subset {list(core.proper_hs_subset)}")
        else:
            reason = FailureReason("core_not_simple", f"cycle without exit ({' '.join(core.exitless_cycle)})")
    return replace(cls, failure_reason=reason, simplicity=is_simple(g))


def is_fork_oracle(g: Graph) -> bool:
    """is_fork with its connectivity test spelled out: one weak component,
    exactly one source, every other vertex a sink, two or more vertices."""
    if len(g.vertices) < 2 or len(weak_components(g)) != 1:
        return False
    srcs = [v for v in g.vertices if not g.in_edges(v)]
    return len(srcs) == 1 and all(not g.out_edges(v) for v in g.vertices if v != srcs[0])


def is_vanishing_family_oracle(g: Graph) -> bool:
    """is_vanishing_family component by component, on induced subgraphs: an
    isolated vertex, one loop, or a fork whose sinks each receive one edge."""
    for comp in weak_components(g):
        sub = g.subgraph(comp)
        if len(sub.vertices) == 1:
            if len(sub.out_edges(sub.vertices[0])) > 1:
                return False
        elif not is_fork_oracle(sub) or any(len(sub.in_edges(v)) > 1 for v in sub.vertices):
            return False
    return True


# -- dimension, by path counting ------------------------------------------------


def path_counts(g: Graph) -> dict[str, int]:
    """N(v), the number of paths ending at v, by memoised recursion over the
    in-edges; acyclic graphs only."""
    memo: dict[str, int] = {}

    def paths_to(v: str) -> int:
        if v not in memo:
            memo[v] = 1 + sum(paths_to(e.source) for e in g.in_edges(v))
        return memo[v]

    return {v: paths_to(v) for v in g.vertices}


def longest_path(g: Graph) -> int:
    """The number of edges on a longest path; acyclic graphs only."""
    memo: dict[str, int] = {}

    def ending_at(v: str) -> int:
        if v not in memo:
            memo[v] = max((1 + ending_at(e.source) for e in g.in_edges(v)), default=0)
        return memo[v]

    return max(ending_at(v) for v in g.vertices)


def dimension_oracle(g: Graph) -> int:
    """Count basis monomials by the path-pair formula.

    Monomials with range v pair off the N(v) paths ending at v, so they
    number N(v)^2.  Each non-sink v contributes exactly N(v)^2 excluded
    pairs: those whose two paths both continue through v's rewrite edge.
    Hence dim = sum_v N(v)^2 - sum_{v non-sink} N(v)^2, acyclic case only.
    """
    count = path_counts(g)
    total = sum(n ** 2 for n in count.values())
    excluded = sum(count[v] ** 2 for v in g.vertices if g.out_edges(v))
    return total - excluded


# -- rewriting and brackets, by the slow routes ---------------------------------


def normal_form_oracle(g: Graph, items, rng: random.Random | None = None) -> dict:
    """Rewrite onto the basis like normal_form, with every sum started at 0,
    as normal_form did before it stored new coefficients as they are.  With
    rng, each next work item is taken at random: the rewriting is confluent,
    so every order must agree with normal_form's last-in-first-out one.
    Without rng, the order is normal_form's, and so is the order of the
    result's terms."""
    out: dict = {}
    work = [(m, Fraction(c)) for m, c in items]
    while work:
        m, c = work.pop() if rng is None else work.pop(rng.randrange(len(work)))
        if not c:
            continue
        if is_basis_monomial(g, m):
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
            continue
        f = m.p.edges[-1]
        v = g.edge_map[f].source
        p1 = GraphPath(m.p.source, v, m.p.edges[:-1])
        q1 = GraphPath(m.q.source, v, m.q.edges[:-1])
        work.append((Monomial(p1, q1), c))
        for e in g.out_edges(v):
            if e.name != f:
                p2 = GraphPath(p1.source, e.target, p1.edges + (e.name,))
                q2 = GraphPath(q1.source, e.target, q1.edges + (e.name,))
                work.append((Monomial(p2, q2), -c))
    return out


def raw_product_all_pairs(x: Element, y: Element) -> dict:
    """The product of x and y before it is normalised, as Element.__mul__
    computed it before it paired each term only with the terms whose p
    starts where its q starts: _raw_mul on every pair of terms, with every
    sum started at 0.  Raw terms that cancel are kept, with coefficient 0."""
    raw: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            m = _raw_mul(m1, m2)
            if m is not None:
                raw[m] = raw.get(m, 0) + c1 * c2
    return raw


def element_mul_fractions(x: Element, y: Element) -> Element:
    """x * y as Element.__mul__ computed it before it worked on int
    numerators: each term paired only with the terms whose p starts where its
    q starts, _raw_mul on each such pair, one Fraction product per pair, and
    the raw sums rewritten on Fractions by normal_form_oracle, whose result
    keeps normal_form's order.  The element is built from that Fraction
    map, so no int route of the package rewrites or sums here."""
    by_source: dict = {}
    for item in y.terms.items():
        by_source.setdefault(item[0].p.source, []).append(item)
    raw: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in by_source.get(m1.q.source, ()):
            m = _raw_mul(m1, m2)
            if m is not None:
                acc = raw.get(m)
                raw[m] = c1 * c2 if acc is None else acc + c1 * c2
    return Element(x.graph, normal_form_oracle(x.graph, raw.items()))


def element_sum_fractions(x: Element, y: Element, sign: int = 1) -> dict:
    """The terms of x + sign * y as Element.__add__ and __sub__ computed them
    on Fractions before they worked on int numerators: the terms of x in
    order, then each term of y summed in place, new monomials appended and
    sums that cancel dropped."""
    terms = x.terms
    for m, c in y.terms.items():
        acc = terms.get(m, 0) + sign * c
        if acc:
            terms[m] = acc
        else:
            terms.pop(m, None)
    return terms


def element_mul_all_pairs(x: Element, y: Element) -> Element:
    """x * y by raw_product_all_pairs and normal_form_oracle."""
    return Element(x.graph, normal_form_oracle(x.graph, raw_product_all_pairs(x, y).items()))


def laurent_mul_zero_start(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f * g as LaurentPoly.__mul__ computed it before it stored new
    coefficients as they are: every sum started at 0."""
    out: dict = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return LaurentPoly(out)


class DenseLaurentMatrix:
    """LaurentMatrix as it was before it kept only its nonzero entries: a
    d x d grid of LaurentPolys, zero entries included."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.dim = len(self.rows)
        if any(len(r) != self.dim for r in self.rows):
            raise InvalidDimension("matrix is not square")

    @classmethod
    def zero(cls, d: int) -> "DenseLaurentMatrix":
        return cls([[LaurentPoly.zero()] * d for _ in range(d)])

    def _same_dim(self, other: "DenseLaurentMatrix") -> None:
        if self.dim != other.dim:
            raise InvalidDimension("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, DenseLaurentMatrix):
            return NotImplemented
        self._same_dim(other)
        return DenseLaurentMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        if not isinstance(other, DenseLaurentMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DenseLaurentMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DenseLaurentMatrix([[a * other for a in r] for r in self.rows])
        if not isinstance(other, DenseLaurentMatrix):
            return NotImplemented
        self._same_dim(other)
        d = self.dim
        out = [[LaurentPoly.zero() for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for k in range(d):
                a = self.rows[i][k]
                if a.is_zero():
                    continue
                for j in range(d):
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    out[i][j] = out[i][j] + a * b
        return DenseLaurentMatrix(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def star(self):
        d = self.dim
        return DenseLaurentMatrix(
            [[self.rows[j][i].subs_inverse() for j in range(d)] for i in range(d)]
        )

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseLaurentMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)
        return f"<LaurentMatrix {body}>"


def as_dense(m: LaurentMatrix) -> DenseLaurentMatrix:
    """m written out as a full grid."""
    d, zero_poly = m.dim, LaurentPoly.zero()
    return DenseLaurentMatrix([[m.entries.get((i, j), zero_poly) for j in range(d)] for i in range(d)])


def image_of_element_dense(model: CycleModel, x: Element) -> DenseLaurentMatrix:
    """image_of_element on the grids of the model's images, as it ran before
    LaurentMatrix kept only its nonzero entries."""
    images = {name: as_dense(m) for name, m in model.images.items()}

    def path_image(path) -> DenseLaurentMatrix:
        acc = images[path.edges[0] if path.edges else path.source]
        for name in path.edges[1:]:
            acc = acc * images[name]
        return acc

    total = DenseLaurentMatrix.zero(model.d)
    for m, c in x.terms.items():
        total = total + (path_image(m.p) * path_image(m.q).star()) * c
    return total


class TupleTable:
    """The tuple kernel that MonomialTable's code arithmetic replaced, with
    the same ids: a path is a tuple (source, *edge names), the paths of
    every id met are stored, a product slices and joins tuples and hashes
    them back into ids, and the rewrite step drops a tuple's last name."""

    def __init__(self, g: Graph):
        self.graph = g
        self._base = max(len(g.vertices), len(g.edges), 2)
        self._vertex_rank = {v: i for i, v in enumerate(sorted(g.vertices))}
        self._edge_rank = {name: i for i, name in enumerate(sorted(g.edge_map))}
        self._source = {e.name: e.source for e in g.edges}
        self._special = g.least_out_edge
        self._other_edges = {
            v: tuple(e.name for e in g.out_edges(v) if e.name != f)
            for v, f in self._special.items()
        }
        self._widths = [2 * self._base]
        self._paths: dict[int, tuple] = {}
        self._normal: dict[int, dict[int, int]] = {}

    def _code(self, p: tuple) -> int:
        if len(p) == 1:
            return self._vertex_rank[p[0]]
        code = 1
        for e in p[1:]:
            code = code * self._base + self._edge_rank[e]
        return code

    def id(self, p: tuple, q: tuple) -> int:
        d, widths = len(p) + len(q) - 2, self._widths
        while len(widths) <= d:
            widths.append(widths[-1] * self._base)
        w = widths[d]
        k = (w + self._code(p)) * w + self._code(q)
        self._paths.setdefault(k, (p, q))
        return k

    def intern(self, m: Monomial) -> int:
        return self.id((m.p.source,) + m.p.edges, (m.q.source,) + m.q.edges)

    def star(self, k: int) -> int:
        p, q = self._paths[k]
        return self.id(q, p)

    def normal_form(self, k: int) -> dict[int, int]:
        nf = self._normal.get(k)
        if nf is None:
            p, q = self._paths[k]
            f = p[-1]
            if len(p) == 1 or len(q) == 1 or q[-1] != f or self._special[self._source[f]] != f:
                return {k: 1}
            p1, q1 = p[:-1], q[:-1]
            nf = dict(self.normal_form(self.id(p1, q1)))
            for e in self._other_edges[self._source[f]]:
                nf[self.id(p1 + (e,), q1 + (e,))] = -1
            self._normal[k] = nf
        return nf

    def product(self, a: int, b: int) -> dict[int, int] | None:
        """The normal form of the product of monomials a and b, or None when
        the product vanishes (see _raw_mul)."""
        p1, q1 = self._paths[a]
        p2, q2 = self._paths[b]
        n1, n2 = len(q1), len(p2)
        if n1 <= n2:
            if p2[:n1] != q1:
                return None
            return self.normal_form(self.id(p1 + p2[n1:], q2))
        if q1[:n2] != p2:
            return None
        return self.normal_form(self.id(p1, q2 + q1[n2:]))


def tuple_generator_bracket(table: TupleTable, x: tuple[int, int], y: tuple[int, int]) -> dict[int, int]:
    """_generator_bracket on the tuple kernel, for x = (m, m^*) and
    y = (n, n^*): the four products of xy with their signs, less their
    stars, each term folded onto the lower of k and star(k)."""
    (a, sa), (b, sb) = x, y
    acc: dict[int, int] = {}
    for u, v, sign in ((a, b, 1), (a, sb, -1), (sa, b, -1), (sa, sb, 1)):
        nf = table.product(u, v)
        if nf:
            for k, c in nf.items():
                ks = table.star(k)
                if k < ks:
                    acc[k] = acc.get(k, 0) + sign * c
                elif ks < k:
                    acc[ks] = acc.get(ks, 0) - sign * c
    return {k: c for k, c in acc.items() if c}


def skew_basis_by_key(g: Graph, n: int) -> list[Element]:
    """The skew generators as skew_basis once built them: m - m^* for each
    basis monomial m != m^* that comes first in monomial_key order."""
    out = []
    for m in basis_monomials(g, n):
        ms = m.star()
        if m.p == m.q or monomial_key(ms) < monomial_key(m):
            continue
        out.append(Element(g, {m: Fraction(1), ms: Fraction(-1)}))
    return out


def ends_meet(x: Element, y: Element) -> bool:
    """Whether an end of skew generator x meets an end of y: a path p or q of
    x's monomials p q^* is a prefix of a path of y's, or the other way
    round.  Checked on every pair of ends, by walking the edges."""
    def ends(z):
        m = next(iter(z.terms))
        return (m.p, m.q)

    for a in ends(x):
        for b in ends(y):
            if a.source == b.source and all(e == f for e, f in zip(a.edges, b.edges)):
                return True
    return False


def meeting_pairs(gens: list[Element]) -> list[tuple[int, int]]:
    """Every pair i < j of skew generators whose ends meet."""
    return [(i, j) for i, j in combinations(range(len(gens)), 2) if ends_meet(gens[i], gens[j])]


def degree_ordered_pairs(table: MonomialTable, gens: list[tuple]) -> list[tuple[int, int]]:
    """The pairs of _pairs_by_grade for the generator records gens (listed
    by degree), sorted by total degree, then i, then j."""
    degs = [x[2] + x[5] for x in gens]
    flats = _pairs_by_grade(table, gens).values()
    pairs = [(i, j) for flat in flats for i, j in zip(flat[::2], flat[1::2])]
    return sorted(pairs, key=lambda ij: (degs[ij[0]] + degs[ij[1]], ij))


def first_nonzero_bracket_oracle(g: Graph, n: int) -> BracketWitness | None:
    """The first nonzero bracket of skew generators found by listing every
    pair, sorting on (total degree, i, j) and evaluating in that order."""
    gens = skew_basis(g, n)
    pairs = [
        (gens[i].degree() + gens[j].degree(), i, j)
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    pairs.sort()
    for _, i, j in pairs:
        val = bracket(gens[i], gens[j])
        if not val.is_zero():
            return BracketWitness(gens[i], gens[j], val)
    return None


# -- the bracket and ideal passes, over Monomial keys and Fractions ---------------
#
# The routes the integer core replaced: Gaussian elimination over rational
# vectors keyed by Monomial, with the pivot found by a min scan, and brackets
# evaluated as products of Elements.


class FractionRowSpace:
    """Incremental Gaussian elimination over sparse rational vectors keyed
    by monomials.  Rows are normalized to pivot coefficient 1, pivots are
    the least monomials of their rows, so reduction is canonical."""

    def __init__(self):
        self.pivots: dict[Monomial, dict[Monomial, Fraction]] = {}

    def _residue(self, vec: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        res = {m: Fraction(c) for m, c in vec.items() if c}
        out: dict[Monomial, Fraction] = {}
        while res:
            m = min(res, key=monomial_key)
            c = res.pop(m)
            if not c:
                continue
            row = self.pivots.get(m)
            if row is None:
                out[m] = c
                continue
            for m2, c2 in row.items():
                if m2 == m:
                    continue
                acc = res.get(m2, 0) - c * c2
                if acc:
                    res[m2] = acc
                else:
                    res.pop(m2, None)
        return out

    def add(self, vec: dict[Monomial, Fraction]) -> bool:
        res = self._residue(vec)
        if not res:
            return False
        pivot = min(res, key=monomial_key)
        lead = res[pivot]
        self.pivots[pivot] = {m: c / lead for m, c in res.items()}
        return True

    def contains(self, vec: dict[Monomial, Fraction]) -> bool:
        return not self._residue(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced_rows(self) -> list[dict[Monomial, Fraction]]:
        rows = []
        for pivot in sorted(self.pivots, key=monomial_key):
            row = self.pivots[pivot]
            tail = {m: c for m, c in row.items() if m != pivot}
            red = self._residue(tail)
            red[pivot] = Fraction(1)
            rows.append(red)
        return rows


def element_brackets(gens: list[Element]):
    """Every pair i < j of generators and their Element commutator, ordered
    by total degree, then i, then j."""
    degs = [x.degree() for x in gens]
    for t in range(2 * max(degs, default=0) + 1):
        for i, a in enumerate(degs):
            if 2 * a > t:
                break
            b = t - a
            for j in range(max(i + 1, bisect_left(degs, b)), bisect_right(degs, b)):
                yield BracketWitness(gens[i], gens[j], bracket(gens[i], gens[j]))


def bracket_pass_oracle(g: Graph, n: int, probe: int = -1):
    """Every bracket of the degree-<=n skew slice as an Element, in one
    FractionRowSpace; the first nonzero one; and the span of the brackets of
    generators of degree <= probe."""
    space, low, witness = FractionRowSpace(), FractionRowSpace(), None
    for w in element_brackets(skew_basis(g, n)):
        if witness is None and not w.value.is_zero():
            witness = w
        space.add(w.value.terms)
        if w.right.degree() <= probe:
            low.add(w.value.terms)
    return space, witness, low


def single_space_bracket_pass(g: Graph, n: int, probe: int = -1):
    """The bracket pass before it was split by grade: every bracket of the
    degree-<=n skew slice in one RowSpace on one MonomialTable, and the first
    nonzero one, in (total degree, i, j) order; the brackets of the
    degree-<=probe slice in a second RowSpace, which is the first one itself
    when both slices have the same generators."""
    table = MonomialTable(g)
    main, low_ids = _generators(table, n), _generators(table, probe)
    gens = max(main, low_ids, key=len)
    main_gens, low_gens = len(main), len(low_ids)
    space = RowSpace(table)
    low = space if low_gens == main_gens else RowSpace(table)
    witness, normal = None, {}
    for i, j in degree_ordered_pairs(table, gens):
        vec = _generator_bracket(table, gens[i], gens[j], normal)
        if not vec:
            continue
        if j < main_gens:
            if witness is None:
                witness = _witness(table, gens[i][0], gens[j][0], vec)
            space.add(vec)
        if low is not space and j < low_gens:
            low.add(vec)
    return space, witness, low


def monomial_id_space(space: RowSpace) -> RowSpace:
    """A RowSpace on space's table whose pivot rows are space's pivot rows,
    in skew coordinates, taken to monomial ids: _monomial_ids keeps each
    row's pivot, gcd and lead, so they are pivot rows of the span there."""
    full = RowSpace(space.table)
    full.pivots = {k: _monomial_ids(space.table, row) for k, row in space.pivots.items()}
    return full


def single_space_bracket_rows(g: Graph, n: int) -> tuple[Element, ...]:
    """bracket_space's basis from single_space_bracket_pass: the pivot rows
    taken to monomial ids in one RowSpace (monomial_id_space), fully reduced
    there and read as Fractions (rows_as_elements)."""
    return rows_as_elements(g, monomial_id_space(single_space_bracket_pass(g, n)[0]))


def single_space_containment(core, brackets: RowSpace, n: int, slack: int) -> ContainmentReport:
    """The containment report for the pivot rows of a single-space pass,
    against the ideal slice built on the same MonomialTable."""
    table = brackets.table
    ideal = _ideal_space(table, core, n + slack)
    ok = all(ideal.contains(_monomial_ids(table, row)) for row in brackets.pivots.values())
    return ContainmentReport(ok, brackets.rank, ideal.rank, n, slack)


def ideal_space_oracle(g: Graph, ws, n: int) -> FractionRowSpace:
    """The degree-<=n slice of the ideal of a hereditary subset, spanned by
    the normal forms of its monomials p q^*."""
    wset = set(ws)
    if not is_hereditary(g, list(wset)):
        raise NotHereditary(f"{sorted(wset)} is not hereditary")
    space = FractionRowSpace()
    paths = [p for p in paths_up_to(g, n) if p.target in wset]
    for p in paths:
        for q in paths:
            if p.target == q.target and len(p.edges) + len(q.edges) <= n:
                space.add(normal_form(g, [(Monomial(p, q), Fraction(1))]))
    return space


def containment_oracle(g: Graph, core, n: int, slack: int) -> ContainmentReport:
    brackets = bracket_pass_oracle(g, n)[0]
    ideal = ideal_space_oracle(g, core, n + slack)
    ok = all(ideal.contains(row) for row in brackets.pivots.values())
    return ContainmentReport(ok, brackets.rank, ideal.rank, n, slack)


def rows_as_elements(g: Graph, space) -> tuple[Element, ...]:
    """The reduced rows of a RowSpace (through fraction_rows) or of a
    FractionRowSpace, each built as an Element from its rational terms."""
    rows = fraction_rows(space) if isinstance(space, RowSpace) else space.reduced_rows()
    return tuple(Element(g, row) for row in rows)


def vertex_sum(g: Graph) -> Element:
    """The sum of all vertices: the multiplicative identity."""
    total = zero(g)
    for v in g.vertices:
        total = total + vertex_element(g, v)
    return total


def is_skew(x: Element) -> bool:
    """x is skew-symmetric: star(x) = -x."""
    return x.star() == -x


def orthogonal_idempotent_family(g: Graph, ws, k: int) -> list[Element]:
    """The family supporting the balloon decomposition over the core ws:
    the sum of the core vertices, then for every balloon over ws with loop
    c and every edge e from it into the core the elements (c^j e)(c^j e)^*
    for j = 0..k.  Pairwise products vanish and every member is idempotent
    when ws is the core of classify's decomposition."""
    wset = set(ws)
    u = zero(g)
    for v in g.vertices:
        if v in wset:
            u = u + vertex_element(g, v)
    family = [u]
    for v in find_balloons(g, wset):
        loop = next(e for e in g.out_edges(v) if e.target == v)
        into = [e for e in g.out_edges(v) if e.target in wset]
        for j in range(k + 1):
            for e in into:
                p = g.path([loop.name] * j + [e.name])
                family.append(Element.from_terms(g, [(Monomial(p, p), Fraction(1))]))
    return family


# -- the census of small graphs ----------------------------------------------------


def census_classes(max_vertices: int = 4, max_edges: int = 5) -> list[tuple[int, tuple]]:
    """Every isomorphism class of graphs with 1..max_vertices vertices and at
    most max_edges edges, loops, parallel edges and isolated vertices allowed,
    as (vertex count, canonical edges), sorted.  The canonical edges are the
    least sorted tuple of (source, target) index pairs over all vertex
    permutations."""
    classes = set()
    for n in range(1, max_vertices + 1):
        perms = list(permutations(range(n)))
        pairs = [(s, t) for s in range(n) for t in range(n)]
        for m in range(max_edges + 1):
            for edges in combinations_with_replacement(pairs, m):
                classes.add((n, min(tuple(sorted((p[s], p[t]) for s, t in edges)) for p in perms)))
    return sorted(classes)


def census_graph(n: int, edges) -> Graph:
    """A census class as a graph: vertices v0.. and edges e0.. in order."""
    return Graph([f"v{i}" for i in range(n)], [(f"e{j}", f"v{s}", f"v{t}") for j, (s, t) in enumerate(edges)])


def bracket_vectors(g: Graph, n: int):
    """The bracket pass's nonzero bracket vectors, in skew coordinates: every
    meeting generator pair of degree <= n, with one normal-form memo, as
    single_space_bracket_pass collects them."""
    table, normal = MonomialTable(g), {}
    gens = _generators(table, n)
    for flat in _pairs_by_grade(table, gens).values():
        for i, j in zip(flat[::2], flat[1::2]):
            vec = _generator_bracket(table, gens[i], gens[j], normal)
            if vec:
                yield vec


def rank_mod(vectors, p: int) -> int:
    """The rank over GF(p) of integer vectors {index: coefficient}, by
    elimination on the least index with monic pivot rows."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        row = {k: c % p for k, c in vec.items() if c % p}
        while row:
            k = min(row)
            pivot = pivots.get(k)
            if pivot is None:
                inv = pow(row[k], -1, p)
                pivots[k] = {j: c * inv % p for j, c in row.items()}
                break
            c = row[k]
            for j, d in pivot.items():
                x = (row.get(j, 0) - c * d) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


def census_line(n: int, edges) -> str:
    """One census row: vertex count, canonical edges, classify's verdict and
    failure kind, and the rank of the bracket pass at n = 2 over Q, mod 3
    and mod 5."""
    g = census_graph(n, edges)
    cls = classify(g)
    vecs = list(bracket_vectors(g, 2))
    return " ".join([
        str(n),
        ",".join(f"{s}>{t}" for s, t in edges) or "-",
        "yes" if cls.almost_simple else "no",
        cls.failure_reason.kind if cls.failure_reason else "-",
        str(_bracket_pass(g, 2)[0]),
        str(rank_mod(vecs, 3)),
        str(rank_mod(vecs, 5)),
    ])


# -- random instances ------------------------------------------------------------


def random_graph(rng: random.Random, max_vertices: int = 8, max_edges: int | None = None) -> Graph:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(1, n + 1)]
    m = rng.randint(0, n + 2 if max_edges is None else max_edges)
    es = [
        (f"e{j}", rng.choice(vs), rng.choice(vs))
        for j in range(1, m + 1)
    ]
    return Graph(vs, es)


def random_acyclic_graph(rng: random.Random, max_vertices: int = 5, max_edges: int = 6) -> Graph:
    n = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = []
    if n > 1:
        for j in range(1, rng.randint(0, max_edges) + 1):
            a, b = sorted(rng.sample(range(n), 2))
            es.append((f"e{j}", vs[a], vs[b]))
    return Graph(vs, es)


def random_element(g: Graph, rng: random.Random, degree: int = 2, terms: int = 3) -> Element:
    pool = basis_monomials(g, degree)
    x = zero(g)
    for _ in range(terms):
        m = pool[rng.randrange(len(pool))]
        x = x + Element.from_terms(g, [(m, Fraction(rng.randint(-3, 3)))])
    return x


@st.composite
def multigraphs(draw, max_vertices: int = 8, max_edges: int = 12) -> Graph:
    """Random multigraphs (loops and parallel edges allowed) in a random
    declaration order.  Failing cases shrink towards fewer vertices and
    edges."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=max_edges))
    order = draw(st.permutations(vs))
    return Graph(order, [(f"e{j}", vs[a], vs[b]) for j, (a, b) in enumerate(pairs)])


@st.composite
def acyclic_multigraphs(draw, max_vertices: int = 6, max_edges: int = 7) -> Graph:
    """Random acyclic multigraphs (parallel edges allowed, every edge from a
    lower to a higher vertex number) in a random declaration order."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = []
    if n > 1:
        ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        pairs = [sorted(ab) for ab in draw(st.lists(ends, max_size=max_edges))]
    order = draw(st.permutations(vs))
    return Graph(order, [(f"e{j}", vs[a], vs[b]) for j, (a, b) in enumerate(pairs)])


@st.composite
def star_graphs(draw) -> Graph:
    """Isolated vertices, loops and stars (a hub with edges to sinks,
    parallel edges allowed), plus up to two random edges: graphs at or near
    the fork and vanishing-family shapes, which few uniform random graphs
    have."""
    vs: list[str] = []
    es: list[tuple[str, str, str]] = []
    parts = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=3)
    for k, (kind, size) in enumerate(draw(parts)):
        vs.append(f"h{k}")
        if kind == 1:
            es.append((f"l{k}", f"h{k}", f"h{k}"))
        elif kind == 2:
            leaves = [f"s{k}_{i}" for i in range(size)]
            vs += leaves
            targets = leaves + draw(st.lists(st.sampled_from(leaves), max_size=2))
            es += [(f"f{k}_{j}", f"h{k}", w) for j, w in enumerate(targets)]
    ends = st.integers(0, len(vs) - 1)
    es += [(f"x{j}", vs[a], vs[b]) for j, (a, b) in enumerate(draw(st.lists(st.tuples(ends, ends), max_size=2)))]
    return Graph(draw(st.permutations(vs)), es)


@st.composite
def block_graphs(draw) -> Graph:
    """Cycles (loops among them), further vertices and sinks, joined by
    random edges that never leave a sink: graphs with several strongly
    connected components and many sinks, which few uniform random graphs
    have."""
    vs: list[str] = []
    es: list[tuple[str, str, str]] = []
    for k, size in enumerate(draw(st.lists(st.integers(1, 3), max_size=3))):
        ring = [f"c{k}_{i}" for i in range(size)]
        vs += ring
        es += [(f"r{k}_{i}", u, ring[(i + 1) % size]) for i, u in enumerate(ring)]
    vs += [f"t{i}" for i in range(draw(st.integers(0, 3)))]
    emitters = len(vs)
    vs += [f"s{i}" for i in range(draw(st.integers(0 if vs else 1, 6)))]
    if emitters:
        pairs = st.tuples(st.integers(0, emitters - 1), st.integers(0, len(vs) - 1))
        es += [(f"x{j}", vs[a], vs[b]) for j, (a, b) in enumerate(draw(st.lists(pairs, max_size=10)))]
    return Graph(draw(st.permutations(vs)), es)


@st.composite
def decomposed_graphs(draw) -> Graph:
    """A random core, up to three balloons over it (a loop and one or two
    edges into the core each), up to two fiber units, and maybe one stray
    edge anywhere, which can spoil a balloon or a unit: graphs from which
    classify strips something, which few uniform random graphs are."""
    core = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    ends = st.integers(0, len(core) - 1)
    es = [(f"x{j}", core[a], core[b])
          for j, (a, b) in enumerate(draw(st.lists(st.tuples(ends, ends), max_size=8)))]
    vs = list(core)
    for k in range(draw(st.integers(0, 3))):
        vs.append(f"b{k}")
        es.append((f"l{k}", f"b{k}", f"b{k}"))
        es += [(f"y{k}_{j}", f"b{k}", core[a])
               for j, a in enumerate(draw(st.lists(ends, min_size=1, max_size=2)))]
    for k in range(draw(st.integers(0, 2))):
        vs += [f"s{k}", f"t{k}"]
        es.append((f"f{k}", f"s{k}", f"t{k}"))
    if draw(st.booleans()):
        es.append(("z", draw(st.sampled_from(vs)), draw(st.sampled_from(vs))))
    return Graph(draw(st.permutations(vs)), draw(st.permutations(es)))


@st.composite
def graph_texts(draw) -> str:
    """Graph file texts: declarations of a few names, comments and blank
    lines, with whitespace that strip() removes ('\\r' of '\\r\\n' endings,
    tabs, non-breaking spaces, '\\x0b', '\\x0c') around some lines.  Up to
    two lines are then spoiled: a double space, tab or non-breaking space
    between tokens, a non-ASCII letter or digit, an empty or a hyphenated
    name, a missing or extra token, a misspelt keyword, or a character that
    str.splitlines breaks at in place of a newline.  Duplicate names,
    unknown endpoints and texts without vertices come up by chance."""
    names = st.sampled_from(["a", "b", "c", "v_1"])
    edge_names = st.sampled_from(["e", "f", "g", "h", "a"])
    lines: list[list[str]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["vertex"] * 3 + ["edge"] * 3 + ["#", ""]))
        if kind == "vertex":
            lines.append([kind, draw(names)])
        elif kind == "edge":
            lines.append([kind, draw(edge_names), draw(names), draw(names)])
        else:
            lines.append([kind])
    seps = [" "] * len(lines)
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        spoil = draw(st.sampled_from(["sep", "name", "drop", "add", "keyword", "break"]))
        if spoil == "sep":
            seps[i] = draw(st.sampled_from(["  ", "\t", "\xa0"]))
        elif spoil == "name" and len(lines[i]) > 1:
            j = draw(st.integers(1, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(["\u00e9", "\u0663", "\u01c5", "", "a-b"]))
        elif spoil == "drop" and len(lines[i]) > 1:
            lines[i].pop()
        elif spoil == "add":
            lines[i].append(draw(names))
        elif spoil == "keyword":
            lines[i][0] = draw(st.sampled_from(["edg", "Vertex", "vertex:"]))
        elif spoil == "break":
            ends[i] = draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))
    pads = st.sampled_from([""] * 8 + [" ", "\t", "\r", "\xa0", "\x0b", "\x0c"])
    return "".join(draw(pads) + sep.join(tokens) + draw(pads) + end
                   for tokens, sep, end in zip(lines, seps, ends))


# -- the size of src/ --------------------------------------------------------------

SOURCES = sorted((CORPUS.parent / "src" / "lpakit").glob("*.py"))
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_split(source: str) -> dict[str, int]:
    """The lines of a Python source, as wc -l counts them, split into code,
    docstring, comment and blank.  A docstring is the first statement of a
    module, class or function body when it is a string (ast), and all its
    lines are docstring lines but the blank ones; a comment line starts
    with "#" after its indentation; a blank line holds only white space,
    inside a docstring too; every other line is code."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    split = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(source.split("\n")[:-1], 1):  # wc -l counts newlines
        text = line.strip()
        if not text:
            split["blank"] += 1
        elif number in docstring_lines:
            split["docstring"] += 1
        elif text.startswith("#"):
            split["comment"] += 1
        else:
            split["code"] += 1
    return split


def src_line_split() -> dict[str, int]:
    """line_split summed over src/lpakit/*.py: the split of ROADMAP aim 2."""
    splits = [line_split(path.read_text()) for path in SOURCES]
    return {kind: sum(split[kind] for split in splits) for kind in splits[0]}
