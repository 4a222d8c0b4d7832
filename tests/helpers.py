"""Brute-force oracles and builders shared by the test modules.

Everything here recomputes graph facts from first principles in the
plainest way available (powerset scans, exhaustive walks, counting
formulas), so the package code can be checked against independent
implementations on small inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from bisect import bisect_left, bisect_right
from itertools import combinations
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
    zero,
)
from lpakit.classify import SimplicityResult, hereditary_closure, is_hereditary
from lpakit.graph import Graph, exitless_cycles, parse_graph
from lpakit.graph import Path as GraphPath
from lpakit.skew import BracketWitness, ContainmentReport, bracket, skew_basis

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.graph"))


def load(name: str) -> Graph:
    return parse_graph((CORPUS / f"{name}.graph").read_text())


def build(vertices, edges=()) -> Graph:
    return Graph(list(vertices), [tuple(e) for e in edges])


class ElementSpan:
    """The package's integer RowSpace fed with Elements: each rational term
    map is scaled by the lcm of its denominators and keyed by the ids of the
    space's own MonomialTable."""

    def __init__(self, g: Graph):
        self.table = MonomialTable(g)
        self.space = RowSpace(self.table)

    def _ids(self, terms: dict) -> dict[int, int]:
        scale = lcm(*(Fraction(c).denominator for c in terms.values()))
        return {self.table.intern(m): int(c * scale) for m, c in terms.items()}

    def add(self, terms: dict) -> bool:
        return self.space.add(self._ids(terms))

    def contains(self, terms: dict) -> bool:
        return self.space.contains(self._ids(terms))

    @property
    def rank(self) -> int:
        return self.space.rank

    def reduced_rows(self) -> list[dict]:
        return self.space.reduced_rows()


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
            return SimplicityResult(False, proper_hs_subset=tuple(cl))
    bad = exitless_cycles(g)
    if bad:
        return SimplicityResult(False, exitless_cycle=bad[0])
    return SimplicityResult(True)


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


def canon_cycles(cycles) -> set[tuple]:
    """Package cycles mapped to the oracle's min-rotation form."""
    return {_min_rotation(c.edges) for c in cycles}


def exitless_cycle_exists_oracle(g: Graph) -> bool:
    for cyc in cycles_oracle(g):
        if all(len(g.out_edges(g.edge_map[e].source)) == 1 for e in cyc):
            return True
    return False


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


# -- dimension, by path counting ------------------------------------------------


def dimension_oracle(g: Graph) -> int:
    """Count basis monomials by the path-pair formula.

    Monomials with range v pair off the P(v) paths ending at v, so they
    number P(v)^2.  Each non-sink v contributes exactly P(v)^2 excluded
    pairs: those whose two paths both continue through v's rewrite edge.
    Hence dim = sum_v P(v)^2 - sum_{v non-sink} P(v)^2, acyclic case only.
    """
    memo: dict[str, int] = {}

    def paths_to(v: str) -> int:
        if v not in memo:
            memo[v] = 1 + sum(paths_to(e.source) for e in g.in_edges(v))
        return memo[v]

    total = sum(paths_to(v) ** 2 for v in g.vertices)
    excluded = sum(paths_to(v) ** 2 for v in g.vertices if g.out_edges(v))
    return total - excluded


# -- rewriting and brackets, by the slow routes ---------------------------------


def normal_form_random_order(g: Graph, items, rng: random.Random) -> dict:
    """Rewrite onto the basis like normal_form, but take each next work item
    at random.  The rewriting is confluent, so every order must agree with
    normal_form's last-in-first-out one."""
    out: dict = {}
    work = [(m, Fraction(c)) for m, c in items]
    while work:
        m, c = work.pop(rng.randrange(len(work)))
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
    return tuple(Element(g, row) for row in space.reduced_rows())


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
