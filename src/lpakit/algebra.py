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

Coefficients are exact throughout; nothing here ever rounds.
Element carries Fraction coefficients.  The bracket and ideal passes run on
an integer core instead: a MonomialTable numbers the monomials of one call
with ids in canonical order and memoises their normal forms with int
coefficients, and RowSpace reduces int vectors over those ids without
fractions.  Fraction enters only where results cross back into Elements:
MonomialTable.element and RowSpace.reduced_rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
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


# -- the integer core ------------------------------------------------------------


class MonomialTable:
    """Integer ids for the monomials met by one computation over one graph.

    A path is a plain tuple (source, *edge names) and a monomial p q^* the
    pair of its paths.  Its id is an int whose order is monomial_key order:
    with B = max(|V|, |E|, 2), a vertex path's code is the rank of its name
    among the vertex names and an edge path's is the number with digits
    1, rank(e_1), ..., rank(e_L) in base B, so codes order by length and
    then by the names; a monomial of degree d with codes a, b gets
    (w + a) w + b with w = 2 B^(d+1), which exceeds every code of length
    <= d, so ids order by degree, then a, then b.

    Normal forms have int coefficients: rewriting a monomial only ever
    produces coefficients 1 and -1, so no Fraction is needed inside.
    Fractions enter at the Element boundary, in element and in
    RowSpace.reduced_rows.  A table grows with every monomial it meets; it
    belongs to the call that created it and to the RowSpaces built on it,
    and is never stored on the graph.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._base = max(len(g.vertices), len(g.edges), 2)
        self._vertex_rank = {v: i for i, v in enumerate(sorted(g.vertices))}
        self._edge_rank = {name: i for i, name in enumerate(sorted(g.edge_map))}
        self._source = {e.name: e.source for e in g.edges}
        self._target = {e.name: e.target for e in g.edges}
        self._special = special_edges(g)
        self._other_edges = {
            v: tuple(e.name for e in g.out_edges(v) if e.name != f)
            for v, f in self._special.items()
        }
        self._paths: dict[int, tuple] = {}
        self._codes: dict[tuple, int] = {}
        self._normal: dict[int, dict[int, int]] = {}
        self._path_objects: dict[tuple, Path] = {}

    def _code(self, p: tuple) -> int:
        code = self._codes.get(p)
        if code is None:
            if len(p) == 1:
                code = self._vertex_rank[p[0]]
            else:
                code = 1
                for e in p[1:]:
                    code = code * self._base + self._edge_rank[e]
            self._codes[p] = code
        return code

    def id(self, p: tuple, q: tuple) -> int:
        """The id of p q^*; the paths must share their range."""
        w = 2 * self._base ** (len(p) + len(q) - 1)
        k = (w + self._code(p)) * w + self._code(q)
        if k not in self._paths:
            self._paths[k] = (p, q)
        return k

    def star(self, k: int) -> int:
        """The id of (p q^*)^* = q p^*."""
        p, q = self._paths[k]
        return self.id(q, p)

    def intern(self, m: Monomial) -> int:
        return self.id((m.p.source,) + m.p.edges, (m.q.source,) + m.q.edges)

    def _path(self, p: tuple) -> Path:
        path = self._path_objects.get(p)
        if path is None:
            path = Path(p[0], self._target[p[-1]] if len(p) > 1 else p[0], p[1:])
            self._path_objects[p] = path
        return path

    def monomial(self, k: int) -> Monomial:
        p, q = self._paths[k]
        return Monomial(self._path(p), self._path(q))

    def element(self, vec: dict[int, int]) -> Element:
        return Element(self.graph, {self.monomial(k): Fraction(c) for k, c in vec.items()})

    def normal_form(self, k: int) -> dict[int, int]:
        """The basis expansion of monomial k; callers must not mutate it.

        A monomial whose paths both end with the special edge f of v is
        p1 q1^* minus p1 e (q1 e)^* over the other edges e leaving v, and
        those are basis monomials.  Only such expansions are memoised: a
        basis monomial's is {k: 1}, built afresh, which keeps the table small.
        """
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


class RowSpace:
    """Incremental fraction-free Gaussian elimination over sparse integer
    vectors keyed by the ids of one MonomialTable.

    Every pivot row is primitive (its entries have gcd 1), its pivot is its
    least id and its pivot coefficient is positive.  A residue is reduced in
    increasing id order, taken from a heap; a step against a pivot row with
    lead L scales the residue by L / gcd(L, c) only when L is not 1, so
    nothing is ever divided and the rank is exact (Bareiss 1968).
    """

    def __init__(self, table: MonomialTable):
        self.table = table
        self.pivots: dict[int, dict[int, int]] = {}

    def _residue(self, vec: dict[int, int]) -> dict[int, int]:
        """vec reduced against every pivot row, up to a positive factor; its
        ids come out in increasing order."""
        res = {k: c for k, c in vec.items() if c}
        heap = list(res)
        heapify(heap)
        pivots = self.pivots
        out: dict[int, int] = {}
        while heap:
            k = heappop(heap)
            c = res.get(k)
            if c is None:  # cancelled, or a second heap entry for k
                continue
            row = pivots.get(k)
            if row is None:
                out[k] = res.pop(k)
                continue
            lead = row[k]
            if lead != 1:
                g = gcd(c, lead)
                c //= g
                s = lead // g
                if s != 1:
                    for x in res:
                        res[x] *= s
                    for x in out:
                        out[x] *= s
            # the pivot's own entry cancels c; every other entry is above k
            for k2, c2 in row.items():
                acc = res.get(k2)
                if acc is None:
                    res[k2] = -c * c2
                    heappush(heap, k2)
                else:
                    acc -= c * c2
                    if acc:
                        res[k2] = acc
                    else:
                        del res[k2]
        return out

    def add(self, vec: dict[int, int]) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        res = self._residue(vec)
        if not res:
            return False
        pivot = next(iter(res))
        g = gcd(*res.values())
        if res[pivot] < 0:
            g = -g
        self.pivots[pivot] = {k: c // g for k, c in res.items()}
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self._residue(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced_rows(self) -> list[dict[Monomial, Scalar]]:
        """The unique fully reduced basis, ordered by pivot monomial, as
        rational rows with pivot coefficient 1.

        Rows are reduced from the highest pivot down, so every pivot column
        in a row's tail is cleared once, by a row that is already fully
        reduced and so brings in no further pivot column.
        """
        done: dict[int, dict[int, int]] = {}
        for pivot in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[pivot])
            for k in [k for k in row if k != pivot and k in done]:
                c = row.pop(k)
                other = done[k]
                lead = other[k]
                if lead != 1:
                    g = gcd(c, lead)
                    c //= g
                    s = lead // g
                    if s != 1:
                        for x in row:
                            row[x] *= s
                for k2, c2 in other.items():
                    if k2 != k:
                        acc = row.get(k2, 0) - c * c2
                        if acc:
                            row[k2] = acc
                        else:
                            row.pop(k2, None)
            g = gcd(*row.values())
            done[pivot] = {k: c // g for k, c in row.items()}
        monomial = self.table.monomial
        fractions: dict[tuple[int, int], Fraction] = {}
        rows = []
        for pivot in sorted(done):
            row = done[pivot]
            lead = row[pivot]
            out = {}
            for k, c in sorted(row.items()):
                x = fractions.get((c, lead))
                if x is None:
                    x = fractions[c, lead] = Fraction(c, lead)
                out[monomial(k)] = x
            rows.append(out)
        return rows


# -- ideals and idempotents -----------------------------------------------------


def ideal_span(g: Graph, ws: Iterable[str], n: int) -> list[Element]:
    """Row-reduced basis of the degree-<=n slice of the ideal generated by a
    hereditary vertex subset: the span of every monomial p q^* whose common
    range lies in the subset (normalized, so relation (4) consequences such
    as a source vertex itself may enter the span)."""
    return [Element(g, row) for row in _ideal_space(MonomialTable(g), ws, n).reduced_rows()]


def _ideal_space(table: MonomialTable, ws: Iterable[str], n: int) -> RowSpace:
    """The RowSpace behind ideal_span, before its rows are fully reduced,
    with its rows keyed by the ids of the given table."""
    g = table.graph
    wlist = list(ws)
    from .classify import is_hereditary  # local import, no cycle at module load

    if not is_hereditary(g, wlist):
        raise NotHereditary(f"{sorted(set(wlist))} is not hereditary")
    wset = set(wlist)
    by_range: dict[str, list[tuple]] = {}
    for p in paths_up_to(g, n):
        if p.target in wset:
            by_range.setdefault(p.target, []).append((p.source,) + p.edges)
    space = RowSpace(table)
    for v in g.vertices:
        for p in by_range.get(v, ()):
            for q in by_range.get(v, ()):
                if len(p) + len(q) - 2 > n:
                    continue
                space.add(table.normal_form(table.id(p, q)))
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
