"""The Lie algebra of skew-symmetric elements.

The involution fixes vertices and swaps e with e^*.  An element x is skew
when star(x) = -x; the skew elements form a Lie algebra under the
commutator [a, b] = ab - ba, and the objects of interest are truncated
pictures of the commutator space [K, K]:

* skew_basis: the degree-bounded slice of K has basis {m - m^* : m a basis
  monomial with p != q}, one per star-orbit,
* bracket_space: the row-reduced span of all pairwise commutators of that
  slice,
* containment of the bracket space in the ideal generated by the core of
  an almost-simple decomposition,
* the 2x2 matrix-unit model carried by a fiber.

One function, _pairs_by_grade, lists the generator pairs whose ends meet,
the only pairs whose bracket can be nonzero.  Every commutator that the
bracket space, the evidence bundle and the containment probe read comes
from one pass over them, _bracket_pass, which evaluates each pair once.
Containment is tested in one place, _containment: each bucket of the pass
against one ideal slice.  first_nonzero_bracket sorts the same pairs by
total degree and stops at the first nonzero one.

The generators and the pass run on algebra's integer core.  A generator
m - m^* is the id of m in a MonomialTable made for the call
(_generator_ids).  A bracket is an int vector in skew coordinates: its
entry c at an id k < star(k) stands for c (k - k^*) (_generator_bracket).
The algebra is graded mod 2 by the vertices and edges (_grades), a bracket
is homogeneous, and brackets of different grades have disjoint supports.
So the pass walks the pairs a bucket of whole grades at a time, each on a
MonomialTable and one fraction-free RowSpace of its own that are dropped
when the bucket is done: it holds the products and rows of one bucket, not
of the whole slice, and ranks add up over the buckets.  A bucket adds the
smaller of the bracket and probe slices first, so one space serves both.
Taking vectors to monomial ids (_monomial_ids) is linear, injective and
keeps each vector's least id, so it keeps ranks and pivots; it is done only
where a vector leaves the pass: the witness, the containment probe and
bracket_space.  Elements are built only for what is returned: skew_basis's
list, the witness and the reduced rows of bracket_space.

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


def _generator_ids(table: MonomialTable, n: int) -> list[int]:
    """The ids k of the basis monomials of degree <= n with k < star(k), in
    id order: one m of each star-orbit {m, m^*} with m != m^*, the smaller
    one.  Id order is monomial_key order (see MonomialTable), so this lists
    generators by degree."""
    ks = map(table.intern, basis_monomials(table.graph, n))
    return [k for k in ks if k < table.star(k)]


def _generator(table: MonomialTable, k: int) -> Element:
    """The skew generator m - m^* for the id k of m: {k: 1} in skew coordinates."""
    return table.element(_monomial_ids(table, {k: 1}))


def skew_basis(g: Graph, n: int) -> list[Element]:
    """Basis of the degree-<=n slice of the skew elements.

    star permutes the basis monomials, so the -1 eigenspace is spanned by
    m - m^* over the orbits {m, m^*} with m != m^*; each orbit is keyed by
    its canonically smaller member and listed in canonical order.
    """
    table = MonomialTable(g)
    return [_generator(table, k) for k in _generator_ids(table, n)]


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


def _generator_bracket(table: MonomialTable, x: tuple[int, int], y: tuple[int, int]) -> dict[int, int]:
    """[m - m^*, n - n^*] in skew coordinates, for x = (m, m^*) and
    y = (n, n^*): the coefficient of k - k^* at each id k < star(k).

    Both generators are skew, so yx = (xy)^* and [x, y] = xy - (xy)^*: the
    four raw monomial products of xy, summed with their signs, less their
    stars.  A term c k gives c (k - k^*) = -c (k^* - k), folded onto the
    lower id; a self-adjoint k cancels.
    """
    (a, sa), (b, sb) = x, y
    product, star = table.product, table.star
    acc: dict[int, int] = {}
    for u, v, sign in ((a, b, 1), (a, sb, -1), (sa, b, -1), (sa, sb, 1)):
        nf = product(u, v)
        if nf:
            for k, c in nf.items():
                ks = star(k)
                if k < ks:
                    acc[k] = acc.get(k, 0) + sign * c
                elif ks < k:
                    acc[ks] = acc.get(ks, 0) - sign * c
    return {k: c for k, c in acc.items() if c}


def _monomial_ids(table: MonomialTable, vec: dict[int, int]) -> dict[int, int]:
    """A skew-coordinate vector as an id vector, {k: c, star(k): -c} for
    each entry, in increasing id order."""
    star = table.star
    return dict(sorted([*vec.items(), *((star(k), -c) for k, c in vec.items())]))


def _grades(g: Graph, ends: list[tuple[tuple, tuple]]) -> list[int]:
    """The grade of each generator m - m^*, given the ends p, q of
    m = p q^*: s(p), s(q) and each edge of p and q, counted mod 2, as an
    int with bit b for the b-th name of the graph's vertices, then its edges
    (names are pairwise distinct).

    This grades L(g) mod 2, in the way the path length gives its Z-grading
    (Abrams, Ara and Siles Molina, Leavitt Path Algebras, ch. 2): every
    relation is homogeneous, since e e^* and v have grade 0, so a normal
    form keeps its monomial's grade; m and m^* have the same grade; and a
    nonzero product p q^* . r s^* has the sum of their grades.  So the
    bracket of two generators is homogeneous of the sum of their grades.
    """
    bit = {name: 1 << b for b, name in enumerate((*g.vertices, *g.edge_map))}
    grades = []
    for p, q in ends:
        grade = bit[p[0]] ^ bit[q[0]]
        for e in p[1:]:
            grade ^= bit[e]
        for e in q[1:]:
            grade ^= bit[e]
        grades.append(grade)
    return grades


def _pairs_by_grade(g: Graph, ends: list[tuple[tuple, tuple]]) -> dict[int, list[int]]:
    """Every pair i < j of generators whose ends meet, as flat lists
    i, j, i, j, ... ordered by i, then j, and keyed by hash(grade) of the
    pair's grade: the sum of the grades of i and j (_grades), which their
    bracket has.  A hash collision only puts two grades in one list.

    A product p q^* . r s^* vanishes unless q and r meet (_raw_mul), so a
    pair whose ends do not meet brackets to 0.  The ends of m - m^* with
    m = p q^* are the paths p and q, as tuples (source, *edge names); two
    paths meet when one is a prefix of the other.  The index lists, for each
    path, the generators that have it as an end and the generators that have
    an end beginning with it.
    """
    grades = _grades(g, ends)
    holders: dict[tuple, list[int]] = {}
    under: dict[tuple, list[int]] = {}
    for i, pair in enumerate(ends):
        for e in pair:
            holders.setdefault(e, []).append(i)
            for n in range(1, len(e) + 1):
                below = under.setdefault(e[:n], [])
                if not below or below[-1] != i:  # p and q may share a prefix
                    below.append(i)
    by_grade: dict[int, list[int]] = {}
    for i, (pair, grade) in enumerate(zip(ends, grades)):
        js: set[int] = set()
        for e in pair:
            js.update(under[e])
            for n in range(1, len(e)):
                js.update(holders.get(e[:n], ()))
        for j in sorted(js):
            if j > i:
                by_grade.setdefault(hash(grade ^ grades[j]), []).extend((i, j))
    return by_grade


def _witness(table: MonomialTable, a: int, b: int, vec: dict[int, int]) -> BracketWitness:
    value = table.element(_monomial_ids(table, vec))
    return BracketWitness(_generator(table, a), _generator(table, b), value)


def _bracket_pass(
    g: Graph, n: int, probe: int | None = None, visit: Callable[[RowSpace], object] | None = None,
) -> tuple[int, BracketWitness | None]:
    """The rank of the span of all brackets of the degree-<=n skew slice
    and its first nonzero bracket in (total degree, i, j) order.

    The pairs of _pairs_by_grade are walked a bucket of whole grades at a
    time, within a grade by i, then j.  Each bucket has a MonomialTable
    (table._fresh()) and one RowSpace of its own, both dropped when the
    bucket is done, so the pass holds the products and rows of one bucket at
    a time.  Brackets of different grades have disjoint supports, so the
    ranks of the buckets add up to the rank of the span.  Ids are arithmetic
    codes (MonomialTable), so they agree across tables.  A bucket takes
    grades until it has as many pairs as there are generators, so that
    entering every generator's paths in its table costs less than its walk.
    The bucket that holds a new least witness builds it on its table.

    visit, when given, sees each bucket's RowSpace when it spans the
    bucket's degree-<=probe brackets (probe defaults to n), and reads it
    then.  The slices' generators are prefixes of one list (_generator_ids
    lists by degree), and a pair is in a slice when its j is below that
    slice's generator count.  So a bucket adds the smaller slice's pairs
    first, then the rest, and its space spans each slice's brackets in turn.
    """
    probe = n if probe is None else probe
    table = MonomialTable(g)
    gens = _generator_ids(table, max(n, probe))
    ends = [table._paths[k] for k in gens]
    degs = [len(p) + len(q) - 2 for p, q in ends]
    main_gens, cut = bisect_right(degs, n), bisect_right(degs, min(n, probe))
    by_grade = _pairs_by_grade(g, ends)
    rank, best, witness = 0, None, None
    ids = [(k, table.star(k)) for k in gens]
    generator_paths = {k: table._paths[k] for pair in ids for k in pair}
    while by_grade:
        walk: list[int] = []
        while by_grade and len(walk) < 2 * len(gens):
            walk += by_grade.popitem()[1]
        bucket = table._fresh()
        bucket._paths.update(generator_paths)
        space = RowSpace(bucket)
        least = None
        for smaller in (True, False):
            # no pair is left for the second part when the slices agree
            pairs = iter(walk if smaller or cut < len(gens) else ())
            for i, j in zip(pairs, pairs):
                if (j < cut) != smaller:
                    continue
                vec = _generator_bracket(bucket, ids[i], ids[j])
                if not vec:
                    continue
                if j < main_gens:  # and so i < main_gens
                    key = degs[i] + degs[j], i, j
                    if best is None or key < best:
                        best, least = key, vec
                space.add(vec)
            if (n <= probe) == smaller:
                rank += space.rank
            if visit is not None and (probe <= n) == smaller:
                visit(space)
        if least is not None:
            _, i, j = best
            witness = _witness(bucket, gens[i], gens[j], least)
    return rank, witness


def bracket_space(g: Graph, n: int) -> BracketSpace:
    """Row-reduced span of all pairwise brackets of the skew slice.

    Each bucket of the pass (_bracket_pass) is reduced on its own table
    before it is dropped: _monomial_ids keeps each pivot row's pivot, gcd
    and positive lead, so the bucket's pivot rows become pivot rows of its
    span in monomial ids, whose reduced rows have the same pivots.  Buckets
    have disjoint supports, so the reduced rows of all buckets, merged by
    pivot, are the unique reduced rows of the whole span."""
    rows: list[tuple[int, dict]] = []

    def reduce(space: RowSpace) -> None:
        full = RowSpace(space.table)
        full.pivots = {k: _monomial_ids(space.table, row) for k, row in space.pivots.items()}
        rows.extend(zip(sorted(full.pivots), full.reduced_rows()))

    _bracket_pass(g, n, visit=reduce)
    rows.sort(key=itemgetter(0))
    return BracketSpace(n, tuple(Element(g, row) for _, row in rows))


def first_nonzero_bracket(g: Graph, n: int) -> BracketWitness | None:
    """The first nonvanishing commutator of skew generators in (total degree,
    i, j) order: the pairs of _pairs_by_grade, sorted, evaluated on one table
    up to the first nonzero one."""
    table = MonomialTable(g)
    gens = _generator_ids(table, n)
    ends = [table._paths[k] for k in gens]
    degs = [len(p) + len(q) - 2 for p, q in ends]
    pairs = sorted(
        (degs[i] + degs[j], i, j)
        for flat in _pairs_by_grade(g, ends).values()
        for i, j in zip(flat[::2], flat[1::2])
    )
    for _, i, j in pairs:
        a, b = gens[i], gens[j]
        vec = _generator_bracket(table, (a, table.star(a)), (b, table.star(b)))
        if vec:
            return _witness(table, a, b, vec)
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


def bracket_in_ideal(g: Graph, ws, n: int, slack: int = 2) -> ContainmentReport:
    """Check that the truncated bracket space lies in the ideal generated by
    the core of the almost-simple decomposition.

    The bracket space is taken at degree n, the ideal slice at n + slack;
    brackets of degree-n skews reach degree 2n, so callers should keep
    slack >= n for a conclusive check, as the evidence bundle's probe does
    with n = 2 and slack = 2.  Each bucket of the bracket pass is tested
    against one ideal slice before the bucket is dropped (_containment).
    """
    wlist = list(ws)
    cls = classify(g)
    if not cls.almost_simple:
        raise NotAlmostSimple("the graph has no almost-simple decomposition")
    if set(wlist) != set(cls.core):
        raise NotAlmostSimple(f"core is {list(cls.core)}, not {sorted(set(wlist))}")
    return _containment(g, n, wlist, n, slack)[2]


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
