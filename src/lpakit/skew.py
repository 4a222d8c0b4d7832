"""The Lie algebra of skew-symmetric elements.

The involution fixes vertices and swaps e with e^*.  An element x is skew
when star(x) = -x; the skew elements form a Lie algebra under the
commutator [a, b] = ab - ba.  This module computes truncated pictures of
the commutator space [K, K], on algebra's integer core:

* _generators: the skew generators of degree <= n, as records of
  MonomialTable ids and path codes (skew_basis gives them as Elements);
* _pairs_by_grade: the pairs whose bracket can be nonzero, by grade;
* _generator_bracket: one such bracket in skew coordinates;
* _bracket_pass: every pair once, a bucket of grades at a time, for
  bracket_space and _containment, the one containment test;
* _monomial_ids: a bracket in monomial ids, where it leaves the pass;
* first_nonzero_bracket: the first nonzero bracket in degree order;
* fiber_m2_iso: the 2x2 matrix-unit model carried by a fiber.

Everything is exact and finite; no function here claims to verify a
statement about the full infinite-dimensional algebra.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .algebra import (
    Element,
    GraphHasCycle,
    MonomialTable,
    RowSpace,
    basis_monomials,
    dimension,
    edge_element,
    edge_star_element,
    vertex_element,
    zero,
    _ideal_space,
)
from .classify import (
    Classification,
    classify,
    find_fibers,
    is_vanishing_family,
)
from .graph import Graph


class SkewError(Exception):
    pass


class NotAFiber(SkewError):
    """The 2x2 model is only available for a fiber edge."""


class TableMismatch(SkewError):
    """A product or star image disagreed with the matrix-unit table."""


class NotAlmostSimple(SkewError):
    """Ideal containment is stated against an almost-simple decomposition."""


def skew_part(x: Element) -> Element:
    """x - star(x), the canonical skew-symmetric part (up to the factor 2)."""
    return x - x.star()


def bracket(a: Element, b: Element) -> Element:
    return a * b - b * a


def _generators(table: MonomialTable, n: int) -> list[tuple]:
    """The record (k, code(p), |p|, src(p), code(q), |q|, src(q)) of each
    basis monomial m = p q^* of degree <= n with k < star(k), in id order:
    k is the id of m, its paths are given by code, length and source rank
    (MonomialTable._coded), and k < star(k) is code(p) < code(q).  Id
    order is monomial_key order (see MonomialTable), so this lists
    generators by degree.  The table's widths are widened to degree 2n,
    which the brackets of two generators reach."""
    table._widen(2 * n)
    records = []
    for m in basis_monomials(table.graph, n):
        p, q = table._coded(m.p), table._coded(m.q)
        if p[0] < q[0]:
            w = table._widths[p[1] + q[1]]
            records.append(((w + p[0]) * w + q[0], *p, *q))
    return records


def _generator(table: MonomialTable, k: int) -> Element:
    """The skew generator m - m^* for the id k of m: {k: 1} in skew coordinates."""
    return table.element(_monomial_ids(table, {k: 1}), 1)


def skew_basis(g: Graph, n: int) -> list[Element]:
    """Basis of the degree-<=n slice of the skew elements.

    star permutes the basis monomials, so the -1 eigenspace is spanned by
    m - m^* over the orbits {m, m^*} with m != m^*; each orbit is keyed by
    its canonically smaller member and listed in canonical order.
    """
    table = MonomialTable(g)
    return [_generator(table, x[0]) for x in _generators(table, n)]


@dataclass(frozen=True)
class BracketSpace:
    truncation: int
    basis: tuple[Element, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class BracketWitness:
    left: Element
    right: Element
    value: Element


def _generator_bracket(table: MonomialTable, x: tuple, y: tuple, normal: dict) -> dict[int, int]:
    """[m - m^*, n - n^*] in skew coordinates, for the generator records x
    of m and y of n (_generators): the coefficient c of k - k^* at each id
    k < star(k).

    Both generators are skew, so yx = (xy)^* and [x, y] = xy - (xy)^*: the
    four products of xy, summed with their signs, less their stars.  Each
    is a product p q^* . r s^* of paths given by code, length and source,
    computed on the codes alone: no path is built, sliced or hashed.  It is
    nonzero when q and r leave one vertex and one is a prefix of the other:
    the longer one's code, less its last t digits, is the shorter one's (t
    being the difference of their lengths).  Then q^* r is the longer one's
    last t digits, joined onto p when r is the longer, onto s otherwise.  A
    basis term is folded onto the lower of its id and its star's, as _fold
    does, and a non-basis one's folded expansion is kept in normal, the
    caller's memo of them by id, {k: {k': c}}.
    """
    base, powers, widths, others = table._base, table._powers, table._widths, table._others
    xp, xq, yr, ys = x[1:4], x[4:], y[1:4], y[4:]
    acc: dict[int, int] = {}
    for (pc, pl, ps), (qc, ql, qs), (rc, rl, rs), (sc, sl, ss), sign in (
        (xp, xq, yr, ys, 1), (xp, xq, ys, yr, -1), (xq, xp, yr, ys, -1), (xq, xp, ys, yr, 1),
    ):
        if qs != rs:
            continue
        if ql <= rl:
            t = rl - ql
            if ql and rc // powers[t] != qc:
                continue
            if t:
                pc, pl = (pc if pl else 1) * powers[t] + rc % powers[t], pl + t
        else:
            t = ql - rl
            if rl and qc // powers[t] != rc:
                continue
            sc, sl = (sc if sl else 1) * powers[t] + qc % powers[t], sl + t
        w = widths[pl + sl]
        # the first step of _expansion's basis test, inline
        if pl and sl and (f := pc % base) == sc % base and others[f] is not None:
            k = (w + pc) * w + sc
            nf = normal.get(k)
            if nf is None:
                nf = normal[k] = _fold(table._expansion(pc, pl, ps, sc, sl, ss))
            for k, c in nf.items():
                acc[k] = acc.get(k, 0) + sign * c
        elif pc < sc:
            k = (w + pc) * w + sc
            acc[k] = acc.get(k, 0) + sign
        elif sc < pc:
            k = (w + sc) * w + pc
            acc[k] = acc.get(k, 0) - sign
    return {k: c for k, c in acc.items() if c}


def _fold(terms: list[tuple]) -> dict[int, int]:
    """Expansion terms (a, b, w, c) (MonomialTable._expansion) in skew
    coordinates: c k, for k = (w + a) w + b, is c (k - k^*) when a < b and
    -c (k^* - k) when b < a, with k^* = (w + b) w + a; it cancels when
    a = b.  The terms have distinct ids, and no two are each other's star."""
    out = {}
    for a, b, w, c in terms:
        if a < b:
            out[(w + a) * w + b] = c
        elif b < a:
            out[(w + b) * w + a] = -c
    return out


def _monomial_ids(table: MonomialTable, vec: dict[int, int]) -> dict[int, int]:
    """A skew-coordinate vector as an id vector, {k: c, star(k): -c} for
    each entry, in increasing id order.  The map is linear and injective and
    keeps each vector's least id, so it keeps ranks and pivots.  It is used
    only where a vector leaves the bracket pass (the witness, the
    containment probe and bracket_space), and only there are ids decoded
    and Elements built."""
    star = table.star
    return dict(sorted([*vec.items(), *((star(k), -c) for k, c in vec.items())]))


def _prefixes(table: MonomialTable, code: int, length: int, source: int) -> list[int]:
    """The codes of a path's prefixes, from its source vertex to itself."""
    powers = table._powers
    return [source, *(code // powers[length - t] for t in range(1, length + 1))]


def _grades(table: MonomialTable, gens: list[tuple]) -> list[int]:
    """The grade of each generator m - m^*, given its record (_generators)
    with m = p q^*: s(p), s(q) and each edge of p and q, counted mod 2, as an
    int with bit b for the b-th name of the graph's vertices, then its edges
    (names are pairwise distinct).

    This grades L(g) mod 2, in the way the path length gives its Z-grading
    (Abrams, Ara and Siles Molina, Leavitt Path Algebras, ch. 2): every
    relation is homogeneous, since e e^* and v have grade 0, so a normal
    form keeps its monomial's grade; m and m^* have the same grade; and a
    nonzero product p q^* . r s^* has the sum of their grades.  So the
    bracket of two generators is homogeneous of the sum of their grades.
    """
    g, base = table.graph, table._base
    bit = {name: 1 << b for b, name in enumerate((*g.vertices, *g.edge_map))}
    vertex_bit = [bit[v] for v in table._vertex_names]
    edge_bit = [bit[e] for e in table._edge_names]
    grades = []
    for _, a, la, sa, b, lb, sb in gens:
        grade = vertex_bit[sa] ^ vertex_bit[sb]
        for code, length in ((a, la), (b, lb)):
            for _ in range(length):
                code, e = divmod(code, base)
                grade ^= edge_bit[e]
        grades.append(grade)
    return grades


def _pairs_by_grade(table: MonomialTable, gens: list[tuple]) -> dict[int, list[int]]:
    """Every pair i < j of generators whose ends meet, as flat lists
    i, j, i, j, ... ordered by i, then j, and keyed by hash(grade) of the
    pair's grade: the sum of the grades of i and j (_grades), which their
    bracket has.  A hash collision only puts two grades in one list.

    A product p q^* . r s^* vanishes unless q and r meet (_raw_mul), so a
    pair whose ends do not meet brackets to 0.  The ends of m - m^* with
    m = p q^* are the paths p and q.  Paths are keyed by their codes
    (_prefixes), which no two share.  The index lists, for each path, the
    generators that have it as an end and the generators that have an end
    beginning with it.  The records must come from _generators on this
    table, whose powers of the base _prefixes reads.
    """
    grades = _grades(table, gens)
    ends = [(_prefixes(table, *x[1:4]), _prefixes(table, *x[4:])) for x in gens]
    holders: dict[int, list[int]] = {}
    under: dict[int, list[int]] = {}
    for i, pair in enumerate(ends):
        for prefixes in pair:
            holders.setdefault(prefixes[-1], []).append(i)
            for code in prefixes:
                below = under.setdefault(code, [])
                if not below or below[-1] != i:  # p and q may share a prefix
                    below.append(i)
    by_grade: dict[int, list[int]] = {}
    for i, (pair, grade) in enumerate(zip(ends, grades)):
        js: set[int] = set()
        for prefixes in pair:
            js.update(under[prefixes[-1]])
            for code in prefixes[:-1]:
                js.update(holders.get(code, ()))
        for j in sorted(js):
            if j > i:
                by_grade.setdefault(hash(grade ^ grades[j]), []).extend((i, j))
    return by_grade


def _witness(table: MonomialTable, a: int, b: int, vec: dict[int, int]) -> BracketWitness:
    value = table.element(_monomial_ids(table, vec), 1)
    return BracketWitness(_generator(table, a), _generator(table, b), value)


def _bracket_pass(
    g: Graph, n: int, probe: int | None = None, visit: Callable[[RowSpace], object] | None = None,
) -> tuple[int, BracketWitness | None]:
    """The rank of the span of all brackets of the degree-<=n skew slice
    and its first nonzero bracket in (total degree, i, j) order.

    The pairs of _pairs_by_grade are walked on one MonomialTable a bucket
    of whole grades at a time, and within a grade by i, then j.  A bucket
    takes grades until it has as many pairs as there are generators (one
    grade per bucket measured no faster), and has one RowSpace and a memo
    of normal forms (_generator_bracket) of its own, so the pass holds the
    products and rows of one bucket at a time.  Every product of a pair has
    the pair's grade (_grades), so no memo entry is read across buckets,
    and brackets of different grades have disjoint supports, so the
    buckets' ranks add up.  The witness is built once, after the walk, from
    the vector of the least key.

    visit, when given, sees each bucket's RowSpace when it spans the
    bucket's degree-<=probe brackets (probe defaults to n).  The slices'
    generators are prefixes of one list (_generators lists by degree), so
    a bucket adds the pairs of the smaller slice (j below its generator
    count) first, then the rest, and its space spans each slice in turn.

    Within each of these two parts a one-entry bracket, which RowSpace.add
    takes without elimination, is added as it comes, and the others after
    the part's walk, shortest first in a stable sort, so that sparse rows
    take the pivots (Markowitz 1957).  The witness is read from each vector
    before it is added, and the span does not depend on the order.
    """
    probe = n if probe is None else probe
    table = MonomialTable(g)
    gens = _generators(table, max(n, probe))
    degs = [x[2] + x[5] for x in gens]
    main_gens, cut = bisect_right(degs, n), bisect_right(degs, min(n, probe))
    by_grade = _pairs_by_grade(table, gens)
    rank, best = 0, None
    while by_grade:
        walk: list[int] = []
        while by_grade and len(walk) < 2 * len(gens):
            walk += by_grade.popitem()[1]
        normal: dict[int, dict[int, int]] = {}
        space = RowSpace(table)
        for smaller in (True, False):
            # no pair is left for the second part when the slices agree
            pairs = iter(walk if smaller or cut < len(gens) else ())
            held: list[dict[int, int]] = []
            for i, j in zip(pairs, pairs):
                if (j < cut) != smaller:
                    continue
                vec = _generator_bracket(table, gens[i], gens[j], normal)
                if not vec:
                    continue
                if j < main_gens:  # and so i < main_gens
                    key = degs[i] + degs[j], i, j
                    if best is None or key < best[0]:
                        best = key, vec
                if len(vec) == 1:
                    space.add(vec)
                else:
                    held.append(vec)
            held.sort(key=len)
            for vec in held:
                space.add(vec)
            if (n <= probe) == smaller:
                rank += space.rank
            if visit is not None and (probe <= n) == smaller:
                visit(space)
    if best is None:
        return rank, None
    (_, i, j), vec = best
    return rank, _witness(table, gens[i][0], gens[j][0], vec)


def bracket_space(g: Graph, n: int) -> BracketSpace:
    """Row-reduced span of all pairwise brackets of the skew slice.

    Each bucket of the pass (_bracket_pass) is reduced in skew coordinates
    before it is dropped, and _monomial_ids takes its reduced rows to
    monomial ids.  That keeps each row's pivot, gcd and lead and adds
    entries only at ids star(k), never skew-coordinate ids and so never
    pivots, so by uniqueness the mapped rows are the reduced rows of the
    bucket's span in monomial ids.  Buckets have disjoint supports, so the
    reduced rows of all buckets, merged by pivot, are those of the span."""
    rows: list[tuple[int, Element]] = []

    def reduce(space: RowSpace) -> None:
        table = space.table
        for row in space.reduced_rows():
            pivot, lead = next(iter(row.items()))
            rows.append((pivot, table.element(_monomial_ids(table, row), lead)))

    _bracket_pass(g, n, visit=reduce)
    rows.sort(key=itemgetter(0))
    return BracketSpace(n, tuple(x for _, x in rows))


def first_nonzero_bracket(g: Graph, n: int) -> BracketWitness | None:
    """The first nonvanishing commutator of skew generators in (total degree,
    i, j) order: the pairs of _pairs_by_grade, sorted, evaluated on one table
    with one memo up to the first nonzero one."""
    table, normal = MonomialTable(g), {}
    gens = _generators(table, n)
    degs = [x[2] + x[5] for x in gens]
    pairs = sorted(
        (degs[i] + degs[j], i, j)
        for flat in _pairs_by_grade(table, gens).values()
        for i, j in zip(flat[::2], flat[1::2])
    )
    for _, i, j in pairs:
        vec = _generator_bracket(table, gens[i], gens[j], normal)
        if vec:
            return _witness(table, gens[i][0], gens[j][0], vec)
    return None


# -- the 2x2 model on a fiber ---------------------------------------------------


@dataclass(frozen=True)
class M2Check:
    edge: str
    images: dict[str, Element]
    products_checked: int
    star_checked: int


def fiber_m2_iso(g: Graph, edge_name: str) -> M2Check:
    """Verify that a fiber e spans a copy of the 2x2 matrices.

    The table is E11 -> ee^*, E12 -> e, E21 -> e^*, E22 -> r(e); all sixteen
    unit products and the star-transpose correspondence are checked as
    exact identities (TableMismatch on any failure).  Note ee^* is taken in
    normal form, so when e is its source's only edge E11 is the source
    vertex itself.
    """
    if edge_name not in {e.name for e in find_fibers(g)}:
        raise NotAFiber(f"{edge_name!r} is not a fiber edge")
    e = g.edge_map[edge_name]
    images = {
        "E11": edge_element(g, edge_name) * edge_star_element(g, edge_name),
        "E12": edge_element(g, edge_name),
        "E21": edge_star_element(g, edge_name),
        "E22": vertex_element(g, e.target),
    }
    units = ["E11", "E12", "E21", "E22"]
    products = 0
    for x in units:
        a, b = x[1], x[2]
        for y in units:
            c, d = y[1], y[2]
            want = images[f"E{a}{d}"] if b == c else zero(g)
            got = images[x] * images[y]
            if got != want:
                raise TableMismatch(f"{x} * {y}: got {got}, want {want}")
            products += 1
    stars = 0
    for x in units:
        transposed = f"E{x[2]}{x[1]}"
        if images[x].star() != images[transposed]:
            raise TableMismatch(f"star({x}) is not {transposed}")
        stars += 1
    return M2Check(edge_name, images, products, stars)


# -- ideal containment and the evidence bundle ----------------------------------


@dataclass(frozen=True)
class ContainmentReport:
    contained: bool
    bracket_dimension: int
    ideal_rank: int
    truncation: int
    slack: int


def bracket_in_ideal(g: Graph, n: int, slack: int = 2) -> ContainmentReport:
    """Check that the truncated bracket space lies in the ideal generated by
    the core of classify's almost-simple decomposition.

    The bracket space is taken at degree n, the ideal slice at n + slack;
    brackets of degree-n skews reach degree 2n, so callers should keep
    slack >= n for a conclusive check, as the evidence bundle's probe does
    with n = 2 and slack = 2 (_containment).
    """
    cls = classify(g)
    if not cls.almost_simple:
        raise NotAlmostSimple("the graph has no almost-simple decomposition")
    return _containment(g, n, cls.core, n, slack)[2]


def _containment(
    g: Graph, n: int, core, probe: int, slack: int,
) -> tuple[int, BracketWitness | None, ContainmentReport]:
    """The rank and witness of _bracket_pass(g, n), and whether its
    degree-<=probe brackets lie in the degree-<=probe+slack slice of the
    ideal of core, which must be the classifier's and so hereditary.

    The ideal slice is built once.  Each bucket's probe space is tested
    before the bucket is dropped: its pivot rows span it, so they are
    tested unreduced, in monomial ids as the ideal's rows are (ids agree
    across tables), and the buckets' probe ranks add up."""
    ideal = _ideal_space(MonomialTable(g), core, probe + slack)
    probe_rank, contained = 0, True

    def test(space: RowSpace) -> None:
        nonlocal probe_rank, contained
        probe_rank += space.rank
        rows = space.pivots.values()
        contained = contained and all(ideal.contains(_monomial_ids(space.table, r)) for r in rows)

    rank, witness = _bracket_pass(g, n, probe, test)
    return rank, witness, ContainmentReport(contained, probe_rank, ideal.rank, probe, slack)


@dataclass(frozen=True)
class EvidenceBundle:
    classification: Classification
    truncation: int
    algebra_dimension: int | None
    bracket_space_dimension: int
    vanishing_family: bool
    witness: BracketWitness | None
    ideal_containment: ContainmentReport | None


def lie_simplicity_evidence(g: Graph, n: int) -> EvidenceBundle:
    """Finite evidence for or against simplicity of the commutator algebra.

    Bundles the classifier verdict with the degree-<=n bracket-space
    dimension, the first nonzero bracket witness (when one exists), and,
    for a positive verdict, the standard ideal-containment probe at degree
    2 with slack 2.  For graphs in the vanishing family the bracket-space
    dimension being 0 is the whole story at this truncation.
    """
    cls = classify(g)
    try:
        dim = dimension(g)
    except GraphHasCycle:
        dim = None
    # the containment probe's degree-2 brackets come from the same pass
    if cls.almost_simple:
        rank, witness, containment = _containment(g, n, cls.core, 2, 2)
    else:
        (rank, witness), containment = _bracket_pass(g, n), None
    return EvidenceBundle(
        classification=cls,
        truncation=n,
        algebra_dimension=dim,
        bracket_space_dimension=rank,
        vanishing_family=is_vanishing_family(g),
        witness=witness,
        ideal_containment=containment,
    )
