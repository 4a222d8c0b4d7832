"""Exact arithmetic in the path algebra of a finite directed graph.

The algebra is generated by the vertices, the edges, and a formal adjoint
e^* for every edge e, subject to

    (1)  v w           = v            if v == w, else 0
    (2)  s(e) e = e r(e) = e          (and the mirrored rules for e^*)
    (3)  e^* f          = r(e)        if e == f, else 0
    (4)  v               = sum of e e^* over edges e leaving v,
                                      for every non-sink v

It is spanned by monomials p q^* where p and q are paths with the same
range (vertices count as paths of length zero).  Relation (4) makes that
spanning set dependent; a basis is obtained by fixing, for every non-sink
v, its lexicographically least outgoing edge ("the special edge") and
discarding the monomials in which p and q both end with that edge.  Any
such monomial rewrites, by (4) applied at the junction, into one monomial
of degree two less plus same-degree monomials whose final edges are not
special; the rewriting therefore terminates, and since a monomial has at
most one reducible junction the result does not depend on the order in
which terms are processed.

Coefficients are exact rationals throughout; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, Path, path_key

Scalar = Fraction


class AlgebraError(Exception):
    pass


class MixedGraphs(AlgebraError):
    """Elements of path algebras over different graphs do not combine."""


class GraphHasCycle(AlgebraError):
    """The algebra is infinite dimensional over a graph with a cycle."""


class NotHereditary(AlgebraError):
    """Ideal spans are only computed for hereditary vertex subsets."""


class NotBalloonDecomposition(AlgebraError):
    """The idempotent family needs a verified balloon decomposition."""


@dataclass(frozen=True)
class Monomial:
    """A spanning monomial p q^*; both paths must share their range."""

    p: Path
    q: Path

    @property
    def degree(self) -> int:
        return len(self.p.edges) + len(self.q.edges)

    def star(self) -> "Monomial":
        return Monomial(self.q, self.p)

    def __str__(self) -> str:
        return f"{self.p} . {self.q}^*"


def monomial_key(m: Monomial) -> tuple:
    """Canonical order: total degree, then the two path keys."""
    return (m.degree, path_key(m.p), path_key(m.q))


def special_edges(g: Graph) -> dict[str, str]:
    """The lexicographically least outgoing edge name of every non-sink.

    Computed on first use and stored on the graph, so it is freed with it.
    """
    try:
        return g._special_edges
    except AttributeError:
        g._special_edges = {
            v: min(e.name for e in g.out_edges(v))
            for v in g.vertices
            if not g.is_sink(v)
        }
        return g._special_edges


def is_basis_monomial(g: Graph, m: Monomial) -> bool:
    """Basis test: p and q must not both end with the special edge of its
    source vertex (they trivially pass when either path is a vertex)."""
    if not m.p.edges or not m.q.edges:
        return True
    f = m.p.edges[-1]
    if f != m.q.edges[-1]:
        return True
    return special_edges(g)[g.edge_map[f].source] != f


def _shorten(g: Graph, p: Path) -> Path:
    last = g.edge_map[p.edges[-1]]
    return Path(p.source, last.source, p.edges[:-1])


def _extend(p: Path, edge_name: str, target: str) -> Path:
    return Path(p.source, target, p.edges + (edge_name,))


def normal_form(
    g: Graph,
    items: Iterable[tuple[Monomial, Scalar]],
) -> dict[Monomial, Scalar]:
    """Rewrite a linear combination of monomials onto the basis.

    Work items are taken last-in-first-out; the rewriting is confluent, so
    any order gives the same result.
    """
    out: dict[Monomial, Scalar] = {}
    work = [(m, Fraction(c)) for m, c in items]
    while work:
        m, c = work.pop()
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
        p1, q1 = _shorten(g, m.p), _shorten(g, m.q)
        work.append((Monomial(p1, q1), c))
        for e in g.out_edges(v):
            if e.name == f:
                continue
            work.append((Monomial(_extend(p1, e.name, e.target),
                                  _extend(q1, e.name, e.target)), -c))
    return out


class Element:
    """An element of the path algebra: a graph plus a finite rational
    combination of basis monomials.  The term map is treated as immutable;
    all operators build new elements."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Graph, terms: dict[Monomial, Scalar]):
        self.graph = graph
        self.terms = terms

    @classmethod
    def from_terms(cls, graph: Graph, items: Iterable[tuple[Monomial, Scalar]]) -> "Element":
        return cls(graph, normal_form(graph, items))

    def _same_graph(self, other: "Element") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise MixedGraphs("elements live over different graphs")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest monomial degree in the support; -1 for the zero element."""
        return max((m.degree for m in self.terms), default=-1)

    def support(self) -> list[Monomial]:
        return sorted(self.terms, key=monomial_key)

    def coeff(self, m: Monomial) -> Scalar:
        return self.terms.get(m, Fraction(0))

    def star(self) -> "Element":
        # The basis is closed under p q^* -> q p^*, so no renormalization.
        return Element(self.graph, {m.star(): c for m, c in self.terms.items()})

    def __add__(self, other: "Element") -> "Element":
        self._same_graph(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return Element(self.graph, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.graph, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = Fraction(c)
        if not c:
            return Element(self.graph, {})
        return Element(self.graph, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._same_graph(other)
        raw: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _raw_mul(m1, m2)
                if m is not None:
                    raw[m] = raw.get(m, 0) + c1 * c2
        return Element.from_terms(self.graph, raw.items())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.graph == other.graph and self.terms == other.terms

    def __hash__(self):
        raise TypeError("elements are not hashable; compare with ==")

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<Element {format_element(self)}>"


def format_element(x: Element) -> str:
    """Canonical text form: 'coeff * p . q^*' terms joined by ' + ',
    support in canonical monomial order, rationals as num/den."""
    if x.is_zero():
        return "0"
    return " + ".join(f"{x.terms[m]} * {m}" for m in x.support())


def _raw_mul(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two monomials before normalization: a single monomial or
    nothing.  (p1 q1^*)(p2 q2^*) collapses q1^* p2 to a path u when one of
    q1, p2 is a prefix of the other, and vanishes otherwise."""
    q1, p2 = m1.q, m2.p
    if q1.source != p2.source:
        return None
    a, b = q1.edges, p2.edges
    if len(a) <= len(b):
        if b[: len(a)] != a:
            return None
        u = b[len(a):]
        return Monomial(Path(m1.p.source, p2.target, m1.p.edges + u), m2.q)
    if a[: len(b)] != b:
        return None
    u = a[len(b):]
    return Monomial(m1.p, Path(m2.q.source, q1.target, m2.q.edges + u))


def monomial_mul(g: Graph, m1: Monomial, m2: Monomial) -> Element:
    """Normalized product of two monomials."""
    m = _raw_mul(m1, m2)
    return Element.from_terms(g, [] if m is None else [(m, Fraction(1))])


# -- element constructors ----------------------------------------------------


def make_path(g: Graph, spec: str | Sequence[str]) -> Path:
    """A vertex name gives the length-0 path; a sequence of edge names gives
    the composite path."""
    if isinstance(spec, str):
        return g.vertex_path(spec)
    return g.path(spec)


def monomial_element(g: Graph, p_spec, q_spec) -> Element:
    p, q = make_path(g, p_spec), make_path(g, q_spec)
    if p.target != q.target:
        raise AlgebraError(f"paths {p} and {q} do not share their range")
    return Element.from_terms(g, [(Monomial(p, q), Fraction(1))])


def zero(g: Graph) -> Element:
    return Element(g, {})

def vertex_element(g: Graph, v: str) -> Element:
    return monomial_element(g, v, v)

def edge_element(g: Graph, e: str) -> Element:
    t = g.edge_map[e].target
    return monomial_element(g, [e], t)

def edge_star_element(g: Graph, e: str) -> Element:
    return edge_element(g, e).star()

def vertex_sum(g: Graph) -> Element:
    """The sum of all vertices: the multiplicative identity."""
    total = zero(g)
    for v in g.vertices:
        total = total + vertex_element(g, v)
    return total


# -- bases and dimension ------------------------------------------------------


def paths_up_to(g: Graph, n: int) -> list[Path]:
    """Every path of length at most n, shortest first, deterministic."""
    level = [g.vertex_path(v) for v in g.vertices]
    out = list(level)
    for _ in range(n):
        nxt = []
        for p in level:
            for e in g.out_edges(p.target):
                nxt.append(_extend(p, e.name, e.target))
        out.extend(nxt)
        level = nxt
        if not level:
            break
    return out


def _is_acyclic(g: Graph) -> bool:
    indeg = {v: len(g.in_edges(v)) for v in g.vertices}
    ready = [v for v in g.vertices if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for e in g.out_edges(v):
            indeg[e.target] -= 1
            if indeg[e.target] == 0:
                ready.append(e.target)
    return seen == len(g.vertices)


def all_paths(g: Graph) -> list[Path]:
    """Every path of an acyclic graph (paths there are at most |V|-1 long)."""
    if not _is_acyclic(g):
        raise GraphHasCycle("infinitely many paths")
    return paths_up_to(g, max(len(g.vertices) - 1, 0))


def basis_monomials(g: Graph, n: int | None) -> list[Monomial]:
    """The basis monomials of total degree at most n, in canonical order.

    n=None means no bound and requires an acyclic graph.
    """
    paths = all_paths(g) if n is None else paths_up_to(g, n)
    by_range: dict[str, list[Path]] = {}
    for p in paths:
        by_range.setdefault(p.target, []).append(p)
    out = []
    for v in g.vertices:
        for p in by_range.get(v, ()):
            for q in by_range.get(v, ()):
                if n is not None and len(p.edges) + len(q.edges) > n:
                    continue
                m = Monomial(p, q)
                if is_basis_monomial(g, m):
                    out.append(m)
    out.sort(key=monomial_key)
    return out


def dimension(g: Graph) -> int:
    """Dimension of the whole algebra; defined only for acyclic graphs."""
    return len(basis_monomials(g, None))


# -- exact row reduction -------------------------------------------------------


class RowSpace:
    """Incremental Gaussian elimination over sparse rational vectors keyed
    by monomials.  Rows are normalized to pivot coefficient 1, pivots are
    the least monomials of their rows, so reduction is canonical."""

    def __init__(self):
        self.pivots: dict[Monomial, dict[Monomial, Scalar]] = {}

    def _residue(self, vec: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
        res = {m: Fraction(c) for m, c in vec.items() if c}
        out: dict[Monomial, Scalar] = {}
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

    def add(self, vec: dict[Monomial, Scalar]) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        res = self._residue(vec)
        if not res:
            return False
        pivot = min(res, key=monomial_key)
        lead = res[pivot]
        self.pivots[pivot] = {m: c / lead for m, c in res.items()}
        return True

    def contains(self, vec: dict[Monomial, Scalar]) -> bool:
        return not self._residue(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced_rows(self) -> list[dict[Monomial, Scalar]]:
        """The unique fully reduced basis, ordered by pivot monomial."""
        rows = []
        for pivot in sorted(self.pivots, key=monomial_key):
            row = self.pivots[pivot]
            tail = {m: c for m, c in row.items() if m != pivot}
            red = self._residue(tail)
            red[pivot] = Fraction(1)
            rows.append(red)
        return rows


# -- ideals and idempotents -----------------------------------------------------


def ideal_span(g: Graph, ws: Iterable[str], n: int) -> list[Element]:
    """Row-reduced basis of the degree-<=n slice of the ideal generated by a
    hereditary vertex subset: the span of every monomial p q^* whose common
    range lies in the subset (normalized, so relation (4) consequences such
    as a source vertex itself may enter the span)."""
    return [Element(g, row) for row in _ideal_space(g, ws, n).reduced_rows()]


def _ideal_space(g: Graph, ws: Iterable[str], n: int) -> RowSpace:
    """The RowSpace behind ideal_span, before its rows are fully reduced."""
    wlist = list(ws)
    from .classify import is_hereditary  # local import, no cycle at module load

    if not is_hereditary(g, wlist):
        raise NotHereditary(f"{sorted(set(wlist))} is not hereditary")
    wset = set(wlist)
    by_range: dict[str, list[Path]] = {}
    for p in paths_up_to(g, n):
        if p.target in wset:
            by_range.setdefault(p.target, []).append(p)
    space = RowSpace()
    for v in g.vertices:
        for p in by_range.get(v, ()):
            for q in by_range.get(v, ()):
                if len(p.edges) + len(q.edges) > n:
                    continue
                space.add(normal_form(g, [(Monomial(p, q), Fraction(1))]))
    return space


def orthogonal_idempotent_family(g: Graph, ws: Iterable[str], k: int) -> list[Element]:
    """The family supporting the balloon decomposition over the core ws:
    the sum of the core vertices, then for every balloon with loop c and
    every edge e from it into the core the elements (c^j e)(c^j e)^* for
    j = 0..k.  Pairwise products vanish and every member is idempotent."""
    from .classify import classify

    wlist = list(ws)
    cls = classify(g)
    if not cls.almost_simple or set(wlist) != set(cls.core):
        raise NotBalloonDecomposition(
            "the graph does not decompose into balloons over the given core"
        )
    u = zero(g)
    for v in cls.core:
        u = u + vertex_element(g, v)
    family = [u]
    wset = set(cls.core)
    for v in cls.balloons:
        loop = next(e for e in g.out_edges(v) if e.target == v)
        into = [e for e in g.out_edges(v) if e.target in wset]
        for j in range(k + 1):
            for e in into:
                p = g.path([loop.name] * j + [e.name])
                family.append(Element.from_terms(g, [(Monomial(p, p), Fraction(1))]))
    return family
