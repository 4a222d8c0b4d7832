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
m - m^* is a record of the id of m = p q^* in a MonomialTable made for the
call and of the codes, lengths and sources of p and q (_generators).  A
bracket is an int vector in skew coordinates: its entry c at an id
k < star(k) stands for c (k - k^*).  It is computed on the codes, with no
path built, sliced or hashed (_generator_bracket).
The algebra is graded mod 2 by the vertices and edges (_grades), a bracket
is homogeneous, and brackets of different grades have disjoint supports.
So the pass walks the pairs a bucket of whole grades at a time on one
MonomialTable, each bucket with a fraction-free RowSpace and a memo of
normal forms of its own that are dropped when the bucket is done: it holds
the products and rows of one bucket, not of the whole slice, and ranks add
up over the buckets.  A bucket adds the smaller of the bracket and probe
slices first, so one space serves both.  Within each of these two parts a
one-entry bracket, which RowSpace takes without elimination, is added as
it comes, and the rest are added after the part's walk, shortest first:
63% of the nonzero brackets of the corpus at n = 5 have one entry, and a
longer row added first would take pivots that they then must clear.
Taking vectors to monomial ids (_monomial_ids) is linear, injective and
keeps each vector's least id, so it keeps ranks and pivots; it is done only
where a vector leaves the pass: the witness, the containment probe and
bracket_space, and only there are ids decoded.  Elements are built only for
what is returned: skew_basis's list, the witness and the reduced rows of
bracket_space.

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
    (MonomialTable._coded), and it is one m of each star-orbit {m, m^*}
    with m != m^*, the smaller one, which is the one with code(p) <
    code(q).  Id order is monomial_key order (see MonomialTable), so this
    lists generators by degree.  The table's widths are widened to degree
    2n, which the brackets of two generators reach."""
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
    return table.element(_monomial_ids(table, {k: 1}))


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


def _generator_bracket(table: MonomialTable, x: tuple, y: tuple) -> dict[int, int]:
    """[m - m^*, n - n^*] in skew coordinates, for the generator records x
    of m and y of n (_generators): the coefficient of k - k^* at each id
    k < star(k).

    Both generators are skew, so yx = (xy)^* and [x, y] = xy - (xy)^*: the
    four products of xy, summed with their signs, less their stars.  Each
    is a product p q^* . r s^* of paths given by code, length and source,
    and it is computed on the codes.  It is nonzero when q and r leave one
    vertex and one is a prefix of the other: the longer one's code, less
    its last t digits, is the shorter one's (t being the difference of
    their lengths).  Then q^* r is the longer one's last t digits, joined
    onto p when r is the longer, onto s otherwise.  A basis term is folded
    onto the lower of its id and its star's, as _fold does, and a non-basis
    one's folded expansion is kept in the table's memo, table._normal.
    """
    base, powers, widths = table._base, table._powers, table._widths
    others, normal = table._others, table._normal
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
    each entry, in increasing id order."""
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
    m = p q^* are the paths p and q; two paths meet when one is a prefix of
    the other.  Paths are keyed by their codes (_prefixes), which no two
    share.  The index lists, for each path, the generators that have it as
    an end and the generators that have an end beginning with it.  The
    records must come from _generators on this table, whose powers of the
    base _prefixes reads.
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
    value = table.element(_monomial_ids(table, vec))
    return BracketWitness(_generator(table, a), _generator(table, b), value)


def _bracket_pass(
    g: Graph, n: int, probe: int | None = None, visit: Callable[[RowSpace], object] | None = None,
) -> tuple[int, BracketWitness | None]:
    """The rank of the span of all brackets of the degree-<=n skew slice
    and its first nonzero bracket in (total degree, i, j) order.

    The pairs of _pairs_by_grade are walked a bucket of whole grades at a
    time, within a grade by i, then j, on one MonomialTable.  Each bucket
    has one RowSpace and starts the table's memo of normal forms
    (_generator_bracket) anew, so the pass holds the products and rows of
    one bucket at a time.  Every product of a pair has the pair's grade
    (_grades), so no memo entry is read across buckets, and brackets of
    different grades have disjoint supports, so the ranks of the buckets
    add up to the rank of the span.  The witness is built once, after the
    walk, from the vector of the least key.

    A bucket takes grades until it has as many pairs as there are
    generators.  One grade per bucket was no faster in interleaved runs on
    a shared 2-vCPU VM (Python 3.11): within 1.5% on the corpus evidence at
    n = 4 and 5, and 1-6% slower at n = 4 on a random graph of 300 vertices
    and 360 edges, whose pass has 15 526 grades.

    visit, when given, sees each bucket's RowSpace when it spans the
    bucket's degree-<=probe brackets (probe defaults to n), and reads it
    then.  The slices' generators are prefixes of one list (_generators
    lists by degree), and a pair is in a slice when its j is below that
    slice's generator count.  So a bucket adds the smaller slice's pairs
    first, then the rest, and its space spans each slice's brackets in turn.

    Within each of these two parts, a bracket with one entry goes to the
    space as it comes, and RowSpace.add takes it without elimination unless
    a longer row has its pivot there.  The others are held until the
    part's walk ends and are then added shortest first, in a stable sort,
    so that sparse rows take the pivots (the fill-in rule of Markowitz
    1957).  On the corpus at n = 5, 33 257 of the 52 753 nonzero brackets
    have one entry and 15 963 have two, and this order with the one-entry
    rule cut the residues computed from 53 690 to 20 117.  Holding the
    one-entry brackets too was no faster and took more memory.  The
    witness is read from each vector before it is added, and the span, so
    every rank and reduced row, does not depend on the order.
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
        table._normal = {}
        space = RowSpace(table)
        for smaller in (True, False):
            # no pair is left for the second part when the slices agree
            pairs = iter(walk if smaller or cut < len(gens) else ())
            held: list[dict[int, int]] = []
            for i, j in zip(pairs, pairs):
                if (j < cut) != smaller:
                    continue
                vec = _generator_bracket(table, gens[i], gens[j])
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

    Each bucket of the pass (_bracket_pass) is reduced on its own before it
    is dropped: _monomial_ids keeps each pivot row's pivot, gcd and
    positive lead, so the bucket's pivot rows become pivot rows of its span
    in monomial ids, whose reduced rows have the same pivots.  Buckets
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
    gens = _generators(table, n)
    degs = [x[2] + x[5] for x in gens]
    pairs = sorted(
        (degs[i] + degs[j], i, j)
        for flat in _pairs_by_grade(table, gens).values()
        for i, j in zip(flat[::2], flat[1::2])
    )
    for _, i, j in pairs:
        vec = _generator_bracket(table, gens[i], gens[j])
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
