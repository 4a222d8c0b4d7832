"""Laurent polynomials, matrices over them, and the cycle model.

The path algebra of a single cycle with d vertices is the d x d matrix
algebra over rational Laurent polynomials: vertex i maps to E_ii, the i-th
edge to E_{i,i+1} for i < d, and the closing edge to t * E_{d,1}.  Under
this map the involution of the path algebra becomes transpose combined
with t -> 1/t.  verify_cycle_iso checks all of this by direct computation
on generators and on small monomials.

The same matrix involution makes sense in dimension 2, where commutators
of skew matrices [[0, f], [-f(1/t), 0]] are diagonal; skew_commutator_diag
computes those diagonals and cross-checks them against the literal matrix
bracket.  vanish_order_at_1 measures divisibility by powers of (1 - t),
which filters the resulting ideals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Element, as_scalar, basis_monomials, monomial_mul
from .graph import Graph

PRODUCT_DEGREE = 3  # verify_cycle_iso multiplies basis monomials up to this degree


class LaurentError(Exception):
    pass


class InvalidDimension(LaurentError):
    pass


class RelationFailure(LaurentError):
    """An identity that should hold by construction failed to verify."""


class LaurentPoly:
    """A rational Laurent polynomial as a sparse exponent -> coefficient map.

    The constructor drops zero coefficients; the operators rely on it.  An
    exponent that is not an int raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                if type(k) is not int:
                    raise TypeError(f"exponents are int, not {type(k).__name__}")
                c = as_scalar(c)
                if c:
                    self.coeffs[k] = c

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: Fraction(1)})

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def subs_inverse(self) -> "LaurentPoly":
        """f(t) -> f(1/t)."""
        return LaurentPoly({-k: c for k, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc = out.get(k)
            out[k] = c if acc is None else acc + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({k: other * x for k, x in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                acc = out.get(k)
                out[k] = c1 * c2 if acc is None else acc + c1 * c2
        return LaurentPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only nonnegative powers")
        acc = LaurentPoly.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("Laurent polynomials are not hashable")

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{self.coeffs[k]}*t^{k}" for k in sorted(self.coeffs))

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


ONE_MINUS_T = LaurentPoly({0: Fraction(1), 1: Fraction(-1)})


def vanish_order_at_1(f: LaurentPoly):
    """The largest n such that (1 - t)^n divides f (t itself is a unit, so
    shifting exponents changes nothing).  The zero polynomial gets
    math.inf."""
    if f.is_zero():
        return math.inf
    lo, hi = min(f.coeffs), max(f.coeffs)
    coeffs = [f.coeffs.get(k, Fraction(0)) for k in range(lo, hi + 1)]
    order = 0
    while sum(coeffs) == 0:
        # exact synthetic division by (t - 1), ascending coefficients
        n = len(coeffs) - 1
        q = [Fraction(0)] * n
        b = Fraction(0)
        for k in range(n, 0, -1):
            b = coeffs[k] + b
            q[k - 1] = b
        coeffs = q
        order += 1
    return order


@dataclass(frozen=True)
class VanishingOrderIdeal:
    """The ideal of Laurent polynomials divisible by (1 - t)^order.

    These ideals are star-closed, nest downward as the order grows, and
    intersect to zero on polynomials of bounded support width.
    """

    order: int

    def contains(self, f: LaurentPoly) -> bool:
        return vanish_order_at_1(f) >= self.order

    def generator(self) -> LaurentPoly:
        return ONE_MINUS_T ** self.order


class LaurentMatrix:
    """A square matrix of Laurent polynomials, kept as its nonzero entries:
    `entries` maps (i, j), 0-based, to a nonzero LaurentPoly.  Only `_keep`
    drops zero entries and rejects a negative dim; the operators rely on it.
    An entry that is not a LaurentPoly raises TypeError."""

    __slots__ = ("dim", "entries")

    def __init__(self, rows: Iterable[Iterable[LaurentPoly]]):
        rows = [tuple(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise InvalidDimension("matrix is not square")
        for a in (a for r in rows for a in r):
            if not isinstance(a, LaurentPoly):
                raise TypeError(f"entries are LaurentPoly, not {type(a).__name__}")
        self._keep(len(rows), {(i, j): a for i, r in enumerate(rows) for j, a in enumerate(r)})

    def _keep(self, d: int, entries: dict[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        if d < 0:  # d = 0 is the 0 x 0 matrix, as LaurentMatrix([]) is
            raise InvalidDimension(f"dimension {d} is negative")
        self.dim = d
        self.entries = {ij: a for ij, a in entries.items() if a.coeffs}
        return self

    @classmethod
    def _of(cls, d: int, entries: dict[tuple[int, int], LaurentPoly]) -> "LaurentMatrix":
        return cls.__new__(cls)._keep(d, entries)

    @classmethod
    def zero(cls, d: int) -> "LaurentMatrix":
        return cls._of(d, {})

    @classmethod
    def identity(cls, d: int) -> "LaurentMatrix":
        return cls._of(d, {(i, i): LaurentPoly.one() for i in range(d)})

    @classmethod
    def unit(cls, d: int, i: int, j: int, poly: LaurentPoly | None = None) -> "LaurentMatrix":
        """poly * E_ij with 0-based indices 0 <= i, j < d (poly defaults to 1)."""
        if not (0 <= i < d and 0 <= j < d):
            raise InvalidDimension(f"E_{i},{j} is not a unit of a {d} x {d} matrix")
        poly = LaurentPoly.one() if poly is None else poly
        if not isinstance(poly, LaurentPoly):
            raise TypeError(f"entries are LaurentPoly, not {type(poly).__name__}")
        return cls._of(d, {(i, j): poly})

    def _same_dim(self, other: "LaurentMatrix") -> None:
        if self.dim != other.dim:
            raise InvalidDimension("dimension mismatch")

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._same_dim(other)
        out = dict(self.entries)
        for ij, b in other.entries.items():
            out[ij] = out[ij] + b if ij in out else b
        return LaurentMatrix._of(self.dim, out)

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix._of(self.dim, {ij: -a for ij, a in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentMatrix._of(self.dim, {ij: a * other for ij, a in self.entries.items()})
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        self._same_dim(other)
        right_rows: dict[int, list[tuple[int, LaurentPoly]]] = {}
        for (k, j), b in other.entries.items():
            right_rows.setdefault(k, []).append((j, b))
        out: dict[tuple[int, int], LaurentPoly] = {}
        for (i, k), a in self.entries.items():
            for j, b in right_rows.get(k, ()):
                out[i, j] = out[i, j] + a * b if (i, j) in out else a * b
        return LaurentMatrix._of(self.dim, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def star(self) -> "LaurentMatrix":
        """Transpose combined with t -> 1/t in every entry: the involution
        matching the path-algebra star under the cycle model."""
        flipped = {(j, i): a.subs_inverse() for (i, j), a in self.entries.items()}
        return LaurentMatrix._of(self.dim, flipped)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    def __repr__(self) -> str:
        zero, d = LaurentPoly.zero(), self.dim
        rows = ([self.entries.get((i, j), zero) for j in range(d)] for i in range(d))
        body = "; ".join("[" + ", ".join(str(a) for a in r) + "]" for r in rows)
        return f"<LaurentMatrix {body}>"


def skew_commutator_diag(f: LaurentPoly, g: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Diagonal of the commutator of the skew 2x2 matrices built from f and g.

    Returns (g(t)f(1/t) - f(t)g(1/t), f(t)g(1/t) - f(1/t)g(t)) and verifies
    the pair against the literal matrix bracket before returning it.
    """
    finv, ginv = f.subs_inverse(), g.subs_inverse()
    d11 = g * finv - f * ginv
    d22 = f * ginv - finv * g
    z = LaurentPoly.zero()
    a = LaurentMatrix([[z, f], [-finv, z]])
    b = LaurentMatrix([[z, g], [-ginv, z]])
    c = a * b - b * a
    expect = LaurentMatrix([[d11, z], [z, d22]])
    if c != expect:
        raise RelationFailure("skew commutator diagonal formula failed its cross-check")
    return d11, d22


# -- the cycle model --------------------------------------------------------------


@dataclass(frozen=True)
class CycleModel:
    d: int
    graph: Graph
    images: dict[str, LaurentMatrix]


def cycle_graph(d: int) -> Graph:
    """The standard cycle: vertices v1..vd, edge ei from vi to v(i+1 mod d)."""
    if d < 1:
        raise InvalidDimension("a cycle needs at least one vertex")
    vs = [f"v{i}" for i in range(1, d + 1)]
    es = [(f"e{i}", f"v{i}", f"v{i % d + 1}") for i in range(1, d + 1)]
    return Graph(vs, es)


def cycle_iso(d: int) -> CycleModel:
    """Generator assignment for the cycle: vi -> E_ii, ei -> E_{i,i+1}
    (i < d), and the closing edge ed -> t * E_{d,1}."""
    g = cycle_graph(d)
    images = {v: LaurentMatrix.unit(d, i, i) for i, v in enumerate(g.vertices)}
    for i, e in enumerate(g.edges[:-1]):
        images[e.name] = LaurentMatrix.unit(d, i, i + 1)
    images[g.edges[-1].name] = LaurentMatrix.unit(d, d - 1, 0, LaurentPoly.t())
    return CycleModel(d, g, images)


def image_of_element(model: CycleModel, x) -> LaurentMatrix:
    """Extend the generator assignment to an algebra element: a monomial
    p q^* maps to (the product over p) times the star of (the product
    over q).  The images are summed scaled by the int numerators of x and
    scaled once by 1/den."""
    d = model.d

    def path_image(path) -> LaurentMatrix:
        if not path.edges:
            return model.images[path.source]
        acc = model.images[path.edges[0]]
        for name in path.edges[1:]:
            acc = acc * model.images[name]
        return acc

    total = LaurentMatrix.zero(d)
    for m, n in x.nums.items():
        total = total + (path_image(m.p) * path_image(m.q).star()) * n
    return total if x.den == 1 else total * Fraction(1, x.den)


@dataclass(frozen=True)
class CycleIsoReport:
    d: int
    relation_checks: int
    product_checks: int


def verify_cycle_iso(d: int) -> CycleIsoReport:
    """Verify that the cycle assignment is a star-homomorphism.

    Checks the four defining relations on generators, the star
    correspondence, and multiplicativity on every pair of basis monomials
    of degree at most PRODUCT_DEGREE.  Raises RelationFailure on any
    mismatch.  Gated to 1 <= d <= 6; beyond that nothing new happens and
    the product table gets large.
    """
    if not 1 <= d <= 6:
        raise InvalidDimension("verification is gated to cycles of size 1..6")

    model = cycle_iso(d)
    g = model.graph
    checks = 0

    def want(cond: bool, what: str) -> None:
        nonlocal checks
        if not cond:
            raise RelationFailure(f"cycle model d={d}: {what}")
        checks += 1

    for a in g.vertices:
        for b in g.vertices:
            prod = model.images[a] * model.images[b]
            expect = model.images[a] if a == b else LaurentMatrix.zero(d)
            want(prod == expect, f"vertex product {a}*{b}")
    for e in g.edges:
        img = model.images[e.name]
        want(model.images[e.source] * img == img, f"s(e)e for {e.name}")
        want(img * model.images[e.target] == img, f"er(e) for {e.name}")
    for a in g.edges:
        for b in g.edges:
            prod = model.images[a.name].star() * model.images[b.name]
            expect = model.images[a.target] if a == b else LaurentMatrix.zero(d)
            want(prod == expect, f"e^*f for {a.name},{b.name}")
    for v in g.vertices:
        total = LaurentMatrix.zero(d)
        for e in g.out_edges(v):
            total = total + model.images[e.name] * model.images[e.name].star()
        want(total == model.images[v], f"vertex sum rule at {v}")

    monos = basis_monomials(g, PRODUCT_DEGREE)
    images = {}
    for m in monos:
        x = Element(g, {m: 1})
        images[m] = image_of_element(model, x)
        want(image_of_element(model, x.star()) == images[m].star(), f"star image of {m}")
    products = 0
    for m1 in monos:
        for m2 in monos:
            lhs = image_of_element(model, monomial_mul(g, m1, m2))
            rhs = images[m1] * images[m2]
            if lhs != rhs:
                raise RelationFailure(f"cycle model d={d}: product {m1} | {m2}")
            products += 1
    return CycleIsoReport(d, checks, products)
