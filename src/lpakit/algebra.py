"""Exact arithmetic in the path algebra of a finite directed graph.

The algebra is generated by the vertices, the edges, and a formal adjoint
e^* for every edge e, subject to

    (1)  v w           = v            if v == w, else 0
    (2)  s(e) e = e r(e) = e          (and the mirrored rules for e^*)
    (3)  e^* f          = r(e)        if e == f, else 0
    (4)  v               = sum of e e^* over edges e leaving v,
                                      for every non-sink v

It is spanned by monomials p q^* where p and q are paths with the same
range (vertices count as paths of length zero).  Where each rule lives:

* is_basis_monomial: the basis that relation (4) leaves;
* _rewrite: the rewriting onto it, for normal_form and Element;
* _raw_mul: the product of two monomials, zero unless q1 and p2 meet;
* Element: int numerators over one reduced denominator, on which every
  operator runs;
* MonomialTable and RowSpace: the integer core of the bracket and ideal
  passes, int id vectors built from path codes and reduced fraction-free,
  which only MonomialTable.element turns into Elements.

Coefficients are exact throughout; nothing here ever rounds.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from .classify import is_hereditary
from .graph import Graph, Path, condensation, path_key

Scalar = Fraction


def as_scalar(c) -> Scalar:
    """c as a Fraction.  Only int and Fraction are taken: a float would
    enter as its binary expansion (0.1 as 3602879701896397/2**55)."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients are int or Fraction, not {type(c).__name__}")


class AlgebraError(Exception):
    pass


class MixedGraphs(AlgebraError):
    """Elements of path algebras over different graphs do not combine."""


class GraphHasCycle(AlgebraError):
    """The algebra is infinite dimensional over a graph with a cycle."""


class NotHereditary(AlgebraError):
    """Ideal spans are only computed for hereditary vertex subsets."""


class Monomial(NamedTuple):
    """A spanning monomial p q^*; both paths must share their range.

    A tuple of two Path tuples, so Element term maps hash their keys in C.
    """

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


def is_basis_monomial(g: Graph, m: Monomial) -> bool:
    """Basis test, from relation (4): p and q must not both end with the
    special edge g.least_out_edge[v] of one vertex v, its least outgoing
    edge (they trivially pass when either path is a vertex)."""
    if not m.p.edges or not m.q.edges:
        return True
    f = m.p.edges[-1]
    if f != m.q.edges[-1]:
        return True
    return g.least_out_edge[g.edge_map[f].source] != f


def _extend(p: Path, edge_name: str, target: str) -> Path:
    return Path(p.source, target, p.edges + (edge_name,))


def _numerators(items: Iterable[tuple[Monomial, Scalar]]) -> tuple[list[tuple[Monomial, int]], int]:
    """items (int or Fraction coefficients, as_scalar) as int numerators
    over the lcm of their denominators, and that lcm.  A monomial whose
    paths end at different vertices is no spanning monomial (it is 0, as
    p q^* = p r(p) r(q) q^*), so it is refused as monomial_element does."""
    ratios = [(m, as_scalar(c).as_integer_ratio()) for m, c in items]
    for (p, q), _ in ratios:
        if p.target != q.target:
            raise AlgebraError(f"paths {p} and {q} do not share their range")
    den = lcm(*[d for _, (_, d) in ratios])
    return [(m, n * (den // d)) for m, (n, d) in ratios], den


def normal_form(
    g: Graph,
    items: Iterable[tuple[Monomial, Scalar]],
) -> dict[Monomial, Scalar]:
    """Rewrite a linear combination of monomials onto the basis (_rewrite)."""
    return Element.from_terms(g, items).terms


def _rewrite(g: Graph, work: list[tuple[Monomial, int]]) -> dict[Monomial, int]:
    """The rewriting for normal_form and Element, which consumes work, on
    int numerators over a denominator that the caller keeps.  A monomial
    off the basis (is_basis_monomial) ends with the special edge f of v on
    both sides; by relation (4) it becomes p1 q1^* minus p1 e (q1 e)^* over
    the other edges e leaving v, where p1 and q1 are its paths without f:
    one monomial of degree two less and basis monomials of the same degree,
    so the rewriting terminates.  A monomial has at most one reducible
    junction, so the order of the work items (last in, first out) does not
    change the result."""
    edge_map, least, out_edges = g.edge_map, g.least_out_edge, g._out
    out: dict[Monomial, int] = {}
    while work:
        m, c = work.pop()
        if not c:
            continue
        p, q = m
        if p.edges and q.edges and (f := p.edges[-1]) == q.edges[-1] \
                and least[v := edge_map[f].source] == f:
            p1, q1 = Path(p.source, v, p.edges[:-1]), Path(q.source, v, q.edges[:-1])
            work.append((Monomial(p1, q1), c))
            for e in out_edges[v]:
                if e.name != f:
                    work.append((Monomial(Path(p1.source, e.target, p1.edges + (e.name,)),
                                          Path(q1.source, e.target, q1.edges + (e.name,))), -c))
            continue
        acc = out.get(m)
        if acc is None:
            out[m] = c
        elif acc := acc + c:
            out[m] = acc
        else:
            del out[m]
    return out


class Element:
    """An element of the path algebra: a graph plus a finite rational
    combination of basis monomials, stored as int numerators nums over one
    denominator den.  The form is canonical (den > 0, gcd(den, *nums) == 1,
    no zero numerator), so == compares it; terms is the Fraction view.  An
    element is treated as immutable; all operators build new elements."""

    __slots__ = ("graph", "nums", "den")

    def __init__(self, graph: Graph, terms: dict[Monomial, Scalar]):
        """From a term map, rewritten onto the basis as from_terms does; the
        work list is reversed, since _rewrite pops from its end, so that a
        map of basis monomials keeps its order."""
        work, den = _numerators(terms.items())
        x = Element._of(graph, _rewrite(graph, work[::-1]), den)
        self.graph, self.nums, self.den = graph, x.nums, x.den

    @classmethod
    def _of(cls, graph: Graph, nums: dict[Monomial, int], den: int) -> "Element":
        """nums / den for zero-free nums and den > 0, reduced by one gcd."""
        x = cls.__new__(cls)
        x.graph = graph
        g = gcd(den, *nums.values())
        x.nums = nums if g == 1 else {m: n // g for m, n in nums.items()}
        x.den = den // g
        return x

    @classmethod
    def from_terms(cls, graph: Graph, items: Iterable[tuple[Monomial, Scalar]]) -> "Element":
        work, den = _numerators(items)
        return cls._of(graph, _rewrite(graph, work), den)

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """The coefficients as Fractions, built on each read."""
        return {m: Fraction(n, self.den) for m, n in self.nums.items()}

    def _same_graph(self, other: "Element") -> None:
        if self.graph is not other.graph and self.graph != other.graph:
            raise MixedGraphs("elements live over different graphs")

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Largest monomial degree in the support; -1 for the zero element."""
        return max((m.degree for m in self.nums), default=-1)

    def support(self) -> list[Monomial]:
        return sorted(self.nums, key=monomial_key)

    def star(self) -> "Element":
        # The basis is closed under p q^* -> q p^*, so no renormalization.
        return Element._of(self.graph, {m.star(): n for m, n in self.nums.items()}, self.den)

    def _combine(self, other: "Element", sign: int) -> "Element":
        """self + sign * other over the lcm of the two denominators."""
        self._same_graph(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        nums = {m: n * s for m, n in self.nums.items()} if s != 1 else dict(self.nums)
        for m, n in other.nums.items():
            if acc := nums.get(m, 0) + n * t:
                nums[m] = acc
            else:
                del nums[m]
        return Element._of(self.graph, nums, den)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Element":
        return Element._of(self.graph, {m: -n for m, n in self.nums.items()}, self.den)

    def scale(self, c) -> "Element":
        p, q = as_scalar(c).as_integer_ratio()
        if not p:
            return zero(self.graph)
        return Element._of(self.graph, {m: p * n for m, n in self.nums.items()}, q * self.den)

    def __mul__(self, other):
        """The product, on int numerators over den1 den2, reduced once.  m1 m2
        vanishes unless q1 and p2 meet (_raw_mul, inlined), and the raw sums
        are rewritten (_rewrite).  A right term is kept as the row (edges of
        p2, its length, its target, q2, numerator)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._same_graph(other)
        by_source: dict[str, list[tuple]] = {}
        for (p2, q2), n2 in other.nums.items():
            by_source.setdefault(p2.source, []).append((p2.edges, len(p2.edges), p2.target, q2, n2))
        raw: dict[Monomial, int] = {}
        for (p1, q1), n1 in self.nums.items():
            rows = by_source.get(q1.source)
            if rows is None:
                continue
            a = q1.edges
            la = len(a)
            for b, lb, target, q2, n2 in rows:
                if la == lb:
                    if a != b:
                        continue
                    m = Monomial(p1, q2)
                elif la < lb:
                    if b[:la] != a:
                        continue
                    m = Monomial(Path(p1.source, target, p1.edges + b[la:]), q2)
                else:
                    if a[:lb] != b:
                        continue
                    m = Monomial(p1, Path(q2.source, q1.target, q2.edges + a[lb:]))
                acc = raw.get(m)
                raw[m] = n1 * n2 if acc is None else acc + n1 * n2
        nums = _rewrite(self.graph, list(raw.items()))
        return Element._of(self.graph, nums, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.graph == other.graph and self.den == other.den and self.nums == other.nums

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
    return " + ".join(f"{Fraction(x.nums[m], x.den)} * {m}" for m in x.support())


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
    """Normalized product of two monomials, kept for verify_cycle_iso, which
    ran 12% slower through Element.__mul__ (ROADMAP, settled decisions)."""
    m = _raw_mul(m1, m2)
    return Element._of(g, {} if m is None else _rewrite(g, [(m, 1)]), 1)


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
    return Element._of(g, _rewrite(g, [(Monomial(p, q), 1)]), 1)


def zero(g: Graph) -> Element:
    return Element._of(g, {}, 1)

def vertex_element(g: Graph, v: str) -> Element:
    return monomial_element(g, v, v)

def edge_element(g: Graph, e: str) -> Element:
    t = g.edge_map[e].target
    return monomial_element(g, [e], t)

def edge_star_element(g: Graph, e: str) -> Element:
    return edge_element(g, e).star()


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


def _monomials_by_range(g: Graph, n: int, ranges: Container[str]) -> Iterator[Monomial]:
    """Every p q^* of degree at most n whose range lies in ranges, range by
    range in declaration order, then p and q in paths_up_to order."""
    by_range: dict[str, list[Path]] = {}
    for p in paths_up_to(g, n):
        if p.target in ranges:
            by_range.setdefault(p.target, []).append(p)
    for v in g.vertices:
        for p in by_range.get(v, ()):
            for q in by_range.get(v, ()):
                if len(p.edges) + len(q.edges) <= n:
                    yield Monomial(p, q)


def basis_monomials(g: Graph, n: int) -> list[Monomial]:
    """The basis monomials of total degree at most n, in canonical order."""
    ms = _monomials_by_range(g, n, g.vertex_index)
    return sorted((m for m in ms if is_basis_monomial(g, m)), key=monomial_key)


def dimension(g: Graph) -> int:
    """Dimension of the whole algebra; defined only for acyclic graphs.

    The sum of N(v)^2 over the sinks v, where N(v) counts the paths ending
    at v (the algebra is the direct sum of the N(v) x N(v) matrices: Abrams,
    Aranda Pino and Siles Molina, J. Pure Appl. Algebra 209, 2007).  In
    basis terms, the monomials with range v number N(v)^2, and at a non-sink v
    exactly N(v)^2 of them end with v's special edge on both sides.

    Read off g's cached condensation: a cyclic component raises
    GraphHasCycle, and otherwise every component is one vertex.  Walking the
    components in decreasing number puts predecessors first, so N(v) = 1 +
    the sum of N(s(e)) over the edges e into v is final when v is reached.
    """
    _, succ, cyclic = condensation(g)
    if any(cyclic):
        raise GraphHasCycle("infinitely many paths")
    count = [1] * len(succ)  # N of each component's one vertex
    for c in reversed(range(len(succ))):
        for d in succ[c]:
            count[d] += count[c]
    return sum(n * n for n, out in zip(count, succ) if not out)


# -- the integer core ------------------------------------------------------------


class MonomialTable:
    """Integer ids for the monomials met by one computation over one graph.

    Every path has an int code: with B = max(|V|, |E|, 2), a vertex path's
    is the rank of its name among the vertex names and an edge path's is
    the number with digits 1, rank(e_1), ..., rank(e_L) in base B, so codes
    of length L lie in [B^L, 2 B^L), no two paths share one, and codes order
    by length and then by the names.  A monomial p q^* of degree d with
    codes a, b has the id (w + a) w + b with w = 2 B^(d+1), which exceeds
    every code of length <= d, so ids order by degree, then a, then b, as
    monomial_key does, and the ids of degree d lie in [w^2, 2 w^2).

    The table works on codes and int coefficients: a product cuts and joins
    codes (skew._generator_bracket) and the rewrite rule drops digits
    (_expansion).  Ids are decoded (_decode) only where a vector leaves the
    integer core, in star, monomial and element, the one route from an id
    vector to an Element.  A table belongs to the call that made it and the
    RowSpaces built on it, and is never stored on the graph.
    Merging its rule with _raw_mul and normal_form, and dropping the
    decoded-path cache _path_objects, both measured slower (ROADMAP,
    settled decisions).
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._base = max(len(g.vertices), len(g.edges), 2)
        self._vertex_names = sorted(g.vertices)
        self._edge_names = sorted(g.edge_map)
        self._vertex_rank = {v: i for i, v in enumerate(self._vertex_names)}
        self._edge_rank = {name: i for i, name in enumerate(self._edge_names)}
        # by edge rank: None, or for the special edge f of v the ranks of
        # the other edges leaving v
        self._others: list[tuple[int, ...] | None] = [None] * len(g.edges)
        for v, f in g.least_out_edge.items():
            others = (self._edge_rank[e.name] for e in g.out_edges(v) if e.name != f)
            self._others[self._edge_rank[f]] = tuple(others)
        self._widths = [2 * self._base]  # w = 2 B^(d+1) for each degree d
        self._powers = [1]  # B^t
        self._path_objects: dict[int, Path] = {}

    def _widen(self, d: int) -> None:
        """Extend the widths up to degree d, and the powers of B with them."""
        widths, powers = self._widths, self._powers
        while len(widths) <= d:
            widths.append(widths[-1] * self._base)
            powers.append(powers[-1] * self._base)

    def _coded(self, p: Path) -> tuple[int, int, int]:
        """The code, length and source rank of p."""
        source = self._vertex_rank[p.source]
        code = 1 if p.edges else source
        for e in p.edges:
            code = code * self._base + self._edge_rank[e]
        return code, len(p.edges), source

    def _decode(self, k: int) -> tuple[int, int, int]:
        """The codes a, b and the width w of the id k = (w + a) w + b: the
        degree is the first whose 2 w^2 exceeds k, then divmod."""
        widths = self._widths
        while 2 * widths[-1] ** 2 <= k:
            self._widen(len(widths))
        w = widths[bisect_right(widths, k, key=lambda w: 2 * w * w)]
        a, b = divmod(k, w)
        return a - w, b, w

    def star(self, k: int) -> int:
        """The id of (p q^*)^* = q p^*: k's two codes swapped."""
        a, b, w = self._decode(k)
        return (w + b) * w + a

    def _path(self, code: int) -> Path:
        path = self._path_objects.get(code)
        if path is None:
            if code < self._base:
                v = self._vertex_names[code]
                path = Path(v, v, ())
            else:
                names, rest = [], code
                while rest >= self._base:  # down to the leading digit 1
                    rest, e = divmod(rest, self._base)
                    names.append(self._edge_names[e])
                names.reverse()
                edge_map = self.graph.edge_map
                path = Path(edge_map[names[0]].source, edge_map[names[-1]].target, tuple(names))
            self._path_objects[code] = path
        return path

    def monomial(self, k: int) -> Monomial:
        a, b, _ = self._decode(k)
        return Monomial(self._path(a), self._path(b))

    def element(self, vec: dict[int, int], den: int) -> Element:
        """vec / den for zero-free vec and den > 0 (Element._of)."""
        return Element._of(self.graph, {self.monomial(k): c for k, c in vec.items()}, den)

    def _expansion(self, a: int, la: int, sa: int, b: int, lb: int, sb: int) -> list[tuple]:
        """The basis expansion of p q^*, for p and q given by code, length
        and source rank (_coded), as terms (a, b, w, c), each standing for
        c times the monomial with codes a, b and width w.

        While p and q both end with the special edge f of v, p q^* is
        p1 q1^* minus p1 e (q1 e)^* over the other edges e leaving v, which
        are basis monomials: p1 and q1 drop their last digit, each on its
        own, and a path of length 1 becomes its source vertex.  The terms
        have distinct ids, and coefficients 1 and -1."""
        base, widths, others = self._base, self._widths, self._others
        terms = []
        while la and lb and (f := a % base) == b % base and (es := others[f]) is not None:
            a, la = (a // base, la - 1) if la > 1 else (sa, 0)
            b, lb = (b // base, lb - 1) if lb > 1 else (sb, 0)
            w = widths[la + lb + 2]
            ha, hb = (a if la else 1) * base, (b if lb else 1) * base
            terms += [(ha + e, hb + e, w, -1) for e in es]
        terms.append((a, b, widths[la + lb], 1))
        return terms

    def normal_form(self, m: Monomial) -> dict[int, int]:
        """The basis expansion of m as an id vector (_expansion)."""
        self._widen(m.degree)
        terms = self._expansion(*self._coded(m.p), *self._coded(m.q))
        return {(w + a) * w + b: c for a, b, w, c in terms}


class RowSpace:
    """Incremental fraction-free Gaussian elimination over sparse integer
    vectors keyed by the ids of one MonomialTable.

    Every pivot row is primitive (its entries have gcd 1), its pivot is its
    least id and its pivot coefficient is positive.  A residue is reduced in
    increasing id order, taken from a heap; a step against a pivot row with
    lead L scales the residue by L / gcd(L, c) only when L is not 1, so
    nothing is ever divided and the rank is exact (Bareiss 1968).

    A one-entry vector {k: c} with c != 0 is taken without elimination:
    with no pivot row at k it becomes the row {k: 1}, which is what the
    elimination would give, and against the row {k: 1} it adds nothing.
    Only against a longer pivot row at k is it reduced.
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
        if len(vec) == 1:
            [(k, c)] = vec.items()
            row = self.pivots.get(k)
            if not c or row is not None and len(row) == 1:
                return False
            if row is None:
                self.pivots[k] = {k: 1}
                return True
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

    def reduced_rows(self) -> list[dict[int, int]]:
        """The unique fully reduced basis as int id vectors, ordered by
        pivot: primitive rows that hold no other pivot, ids increasing from
        the pivot, whose coefficient, the lead, is positive.

        The pivot rows go, highest pivot first, into a fresh RowSpace on the
        same table.  Each row's entries lie at or above its pivot, so when it
        is added every pivot already there is above its own and is cleared
        from it, and no later, lower pivot occurs in it.  The fresh pivot
        rows are therefore fully reduced, and primitive with a positive
        lead, which fixes them.  This space is left as it was.
        """
        reduced = RowSpace(self.table)
        for pivot in sorted(self.pivots, reverse=True):
            reduced.add(self.pivots[pivot])
        return [reduced.pivots[pivot] for pivot in sorted(reduced.pivots)]


# -- ideals ---------------------------------------------------------------------


def ideal_span(g: Graph, ws: Iterable[str], n: int) -> list[Element]:
    """Row-reduced basis of the degree-<=n slice of the ideal generated by a
    hereditary vertex subset: the span of every monomial p q^* whose common
    range lies in the subset (normalized, so relation (4) consequences such
    as a source vertex itself may enter the span).  Each row is taken over
    its lead, for pivot coefficient 1."""
    table = MonomialTable(g)
    rows = _ideal_space(table, ws, n).reduced_rows()
    return [table.element(row, next(iter(row.values()))) for row in rows]


def _ideal_space(table: MonomialTable, ws: Iterable[str], n: int) -> RowSpace:
    """The RowSpace behind ideal_span, before its rows are fully reduced,
    with its rows keyed by the ids of the given table."""
    g = table.graph
    wlist = list(ws)
    for v in wlist:
        g._check_vertex(v)
    if not is_hereditary(g, wlist):
        raise NotHereditary(f"{sorted(set(wlist))} is not hereditary")
    space = RowSpace(table)
    for m in _monomials_by_range(g, n, set(wlist)):
        space.add(table.normal_form(m))
    return space
