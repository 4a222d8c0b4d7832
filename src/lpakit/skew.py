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

Every commutator of skew generators comes from one pass, _brackets, which
evaluates each pair once in order of total degree.  The bracket space, the
first nonzero bracket and the containment probe all read that pass, and the
evidence bundle takes its rank and its witness from a single run of it.

The pass runs on algebra's integer core.  A generator is the pair of ids of
m and m^* in a MonomialTable made for the call, a bracket is an int vector
over ids (_generator_bracket), and the vectors go into fraction-free
RowSpaces on the same table, as do the rows of the ideal slice that the
containment probe tests them against.  Elements are built only for what is
returned: the witness and the reduced rows of bracket_space.

Everything is exact and finite; no function here claims to verify a
statement about the full infinite-dimensional algebra.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebra import (
    Element,
    MonomialTable,
    RowSpace,
    basis_monomials,
    dimension,
    edge_element,
    edge_star_element,
    monomial_key,
    vertex_element,
    zero,
    _ideal_space,
    _is_acyclic,
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


def is_skew(x: Element) -> bool:
    return x.star() == -x


def bracket(a: Element, b: Element) -> Element:
    return a * b - b * a


def skew_basis(g: Graph, n: int) -> list[Element]:
    """Basis of the degree-<=n slice of the skew elements.

    star permutes the basis monomials, so the -1 eigenspace is spanned by
    m - m^* over the orbits {m, m^*} with m != m^*; each orbit is keyed by
    its canonically smaller member and listed in canonical order.
    """
    out = []
    for m in basis_monomials(g, n):
        ms = m.star()
        if m.p == m.q or monomial_key(ms) < monomial_key(m):
            continue
        out.append(Element(g, {m: Fraction(1), ms: Fraction(-1)}))
    return out


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
    """[m - m^*, n - n^*] as an id vector, for x = (m, m^*) and y = (n, n^*).

    Both generators are skew, so yx = (xy)^* and [x, y] = xy - (xy)^*: the
    four raw monomial products of xy, summed with their signs, and their
    stars.
    """
    (a, sa), (b, sb) = x, y
    product, star = table.product, table.star
    acc: dict[int, int] = {}
    for u, v, sign in ((a, b, 1), (a, sb, -1), (sa, b, -1), (sa, sb, 1)):
        nf = product(u, v)
        if nf:
            for k, c in nf.items():
                c *= sign
                acc[k] = acc.get(k, 0) + c
                k = star(k)
                acc[k] = acc.get(k, 0) - c
    return {k: c for k, c in acc.items() if c}


def _brackets(table: MonomialTable, gens: list[Element]) -> Iterator[tuple[int, int, dict[int, int]]]:
    """Every pair gens[i], gens[j] with i < j and the id vector of their
    commutator, each once, ordered by total degree, then i, then j.

    skew_basis lists generators by degree, so the pairs of total degree t
    are each i of degree a <= t/2 against the j > i of degree t - a.
    """
    ids = []
    for x in gens:
        m, ms = sorted(x.terms, key=x.terms.__getitem__, reverse=True)
        ids.append((table.intern(m), table.intern(ms)))
    degs = [x.degree() for x in gens]
    for t in range(2 * max(degs, default=0) + 1):
        for i, a in enumerate(degs):
            if 2 * a > t:
                break
            b = t - a
            for j in range(max(i + 1, bisect_left(degs, b)), bisect_right(degs, b)):
                yield i, j, _generator_bracket(table, ids[i], ids[j])


def _bracket_pass(g: Graph, n: int, probe: int = -1) -> tuple[RowSpace, BracketWitness | None, RowSpace]:
    """All brackets of the degree-<=n skew slice in one RowSpace, and the
    first nonzero one.

    The brackets of two generators of degree <= probe also go into a second
    RowSpace, which is the first one itself when probe >= n.  Those
    generators are the prefix skew_basis(g, probe), and the pairs among them
    come in the same order, so for probe <= n the second RowSpace is the
    first one of _bracket_pass(g, probe).  Both share one MonomialTable.
    """
    table = MonomialTable(g)
    space = RowSpace(table)
    low = space if probe >= n else RowSpace(table)
    gens = skew_basis(g, n)
    witness = None
    for i, j, vec in _brackets(table, gens):
        if not vec:
            continue
        if witness is None:
            witness = BracketWitness(gens[i], gens[j], table.element(vec))
        space.add(vec)
        if low is not space and gens[j].degree() <= probe:  # j's degree >= i's
            low.add(vec)
    return space, witness, low


def bracket_space(g: Graph, n: int) -> BracketSpace:
    """Row-reduced span of all pairwise brackets of the skew slice."""
    space = _bracket_pass(g, n)[0]
    rows = tuple(Element(g, row) for row in space.reduced_rows())
    return BracketSpace(n, rows)


def first_nonzero_bracket(g: Graph, n: int) -> BracketWitness | None:
    """The first nonvanishing commutator of skew generators, trying pairs of
    lowest total degree first."""
    table = MonomialTable(g)
    gens = skew_basis(g, n)
    for i, j, vec in _brackets(table, gens):
        if vec:
            return BracketWitness(gens[i], gens[j], table.element(vec))
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
    slack >= n for a conclusive check (the defaults n=2, slack=2 do).
    """
    wlist = list(ws)
    cls = classify(g)
    if not cls.almost_simple:
        raise NotAlmostSimple("the graph has no almost-simple decomposition")
    if set(wlist) != set(cls.core):
        raise NotAlmostSimple(f"core is {list(cls.core)}, not {sorted(set(wlist))}")
    return _containment(wlist, _bracket_pass(g, n)[0], n, slack)


def _containment(core: list[str], brackets: RowSpace, n: int, slack: int) -> ContainmentReport:
    """bracket_in_ideal for a core known to be the classifier's, which is
    hereditary: fiber units and balloons receive no edge from it, and for
    the brackets of the degree-<=n skew slice.  The pivot rows span the
    bracket space, so they are tested without reducing them, and the ideal's
    rows are built on the brackets' MonomialTable, so both are keyed by the
    same ids."""
    ideal = _ideal_space(brackets.table, core, n + slack)
    ok = all(ideal.contains(row) for row in brackets.pivots.values())
    return ContainmentReport(ok, brackets.rank, ideal.rank, n, slack)


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
    dim = dimension(g) if _is_acyclic(g) else None
    # the probe's degree-2 generators are a prefix of the degree-n ones, so
    # for n >= 2 the main pass evaluates the probe's brackets as well
    probe = 2 if cls.almost_simple and n >= 2 else -1
    space, witness, low = _bracket_pass(g, n, probe)
    containment = None
    if cls.almost_simple:
        if probe < 0:
            low = _bracket_pass(g, 2)[0]
        containment = _containment(list(cls.core), low, 2, 2)
    return EvidenceBundle(
        classification=cls,
        truncation=n,
        algebra_dimension=dim,
        bracket_space_dimension=space.rank,
        vanishing_family=is_vanishing_family(g),
        witness=witness,
        ideal_containment=containment,
    )
