import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DenseLaurentMatrix, as_dense, image_of_element_dense, laurent_mul_zero_start

from lpakit.algebra import Element, basis_monomials
from lpakit.laurent import (
    ONE_MINUS_T,
    InvalidDimension,
    LaurentMatrix,
    LaurentPoly,
    RelationFailure,
    VanishingOrderIdeal,
    cycle_graph,
    cycle_iso,
    image_of_element,
    skew_commutator_diag,
    vanish_order_at_1,
    verify_cycle_iso,
)


T = LaurentPoly.t


# -- polynomial arithmetic -----------------------------------------------------


def test_poly_basic_arithmetic():
    f = T(1) + T(-1)
    g = T(0) - T(1)
    assert f + g == T(-1) + LaurentPoly.one()
    assert f - f == LaurentPoly.zero()
    assert (f * g) == (g * f)
    assert 3 * f == f * 3 == f + f + f
    assert f ** 0 == LaurentPoly.one()
    assert f ** 3 == f * f * f


def test_poly_zero_and_equality():
    assert LaurentPoly.zero().is_zero()
    assert not ONE_MINUS_T.is_zero()
    assert T(2) - T(2) == LaurentPoly.zero()
    assert T(0) == LaurentPoly.one()


def test_poly_substitute_inverse():
    f = T(2) + 2 * T(0) + T(-1)
    assert f.subs_inverse() == T(-2) + 2 * T(0) + T(1)
    assert f.subs_inverse().subs_inverse() == f


def test_poly_product_with_inverse_substitution():
    # (1 - t)(1 - 1/t) = 2 - t - 1/t
    prod = ONE_MINUS_T * ONE_MINUS_T.subs_inverse()
    assert prod == 2 * T(0) - T(1) - T(-1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_poly_product_matches_the_zero_start_oracle(data):
    # exponents in a narrow range, so that products collect and cancel terms
    poly = st.dictionaries(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3), max_size=4)
    f, g = LaurentPoly(data.draw(poly)), LaurentPoly(data.draw(poly))
    got, want = f * g, laurent_mul_zero_start(f, g)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert str(got) == str(want)
    assert (f + g) - g == f


def test_poly_string_forms():
    assert str(LaurentPoly.zero()) == "0"
    assert str(2 * T(-1) - T(3)) == "2*t^-1 + -1*t^3"


def test_poly_not_hashable():
    with pytest.raises(TypeError):
        hash(T(1))


# -- vanishing order at t = 1 -----------------------------------------------------


def test_vanish_order_examples():
    assert vanish_order_at_1(LaurentPoly.one()) == 0
    assert vanish_order_at_1(T(5)) == 0  # t^5 is 1 at t=1
    assert vanish_order_at_1(T(1) - T(0)) == 1
    assert vanish_order_at_1(ONE_MINUS_T ** 2) == 2
    assert vanish_order_at_1(T(-3) * ONE_MINUS_T ** 4) == 4
    assert vanish_order_at_1(LaurentPoly.zero()) == math.inf


def test_vanish_order_additive_lower_bound():
    f = ONE_MINUS_T ** 2 + ONE_MINUS_T ** 3
    assert vanish_order_at_1(f) == 2
    g = ONE_MINUS_T ** 2 - ONE_MINUS_T ** 2
    assert vanish_order_at_1(g) == math.inf


def test_vanishing_order_ideals_nest():
    ideals = [VanishingOrderIdeal(n) for n in range(1, 6)]
    for n, ideal in enumerate(ideals, start=1):
        gen = ideal.generator()
        assert gen == ONE_MINUS_T ** n
        assert ideal.contains(gen)
        # deeper ideals sit inside shallower ones
        for m, other in enumerate(ideals, start=1):
            if m <= n:
                assert other.contains(gen)
            else:
                assert not other.contains(gen)


def test_bounded_support_meets_every_ideal_in_zero():
    # a nonzero polynomial has a finite vanishing order, so it drops out of
    # the chain eventually; only zero survives every ideal
    candidates = [ONE_MINUS_T ** 2, T(1) - T(-1), 3 * T(0)]
    for f in candidates:
        order = vanish_order_at_1(f)
        assert not VanishingOrderIdeal(order + 1).contains(f)
    zero = LaurentPoly.zero()
    assert all(VanishingOrderIdeal(n).contains(zero) for n in range(1, 10))


# -- matrices ------------------------------------------------------------------


def test_matrix_units_multiply_like_matrix_units():
    d = 3
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    prod = LaurentMatrix.unit(d, i, j) * LaurentMatrix.unit(d, k, l)
                    want = LaurentMatrix.unit(d, i, l) if j == k else LaurentMatrix.zero(d)
                    assert prod == want


def test_matrix_identity_and_scalars():
    eye = LaurentMatrix.identity(2)
    m = LaurentMatrix.unit(2, 0, 1, T(2))
    assert eye * m == m and m * eye == m
    assert 2 * m == m + m
    assert (m - m).is_zero()


def test_matrix_star_is_transpose_with_inverted_variable():
    m = LaurentMatrix.unit(2, 0, 1, T(1))
    s = m.star()
    assert s == LaurentMatrix.unit(2, 1, 0, T(-1))
    assert s.star() == m
    a = LaurentMatrix.unit(2, 0, 0, ONE_MINUS_T)
    b = LaurentMatrix.unit(2, 0, 1, T(3))
    assert (a * b).star() == b.star() * a.star()


def test_matrices_store_no_zero_entry():
    z = LaurentPoly.zero()
    for d in range(1, 4):
        assert LaurentMatrix([[z] * d for _ in range(d)]) == LaurentMatrix.zero(d)
        assert LaurentMatrix.unit(d, 0, d - 1, z).is_zero()
    m = LaurentMatrix([[T(1), ONE_MINUS_T], [z, T(-2)]])
    assert (m - m).entries == {}
    assert (m * 0).entries == {} and (0 * m).entries == {}
    # row (t, 1) against column (1, -t): the one entry's two terms cancel
    a = LaurentMatrix([[T(1), T(0)], [z, z]])
    b = LaurentMatrix([[T(0), z], [-T(1), z]])
    assert (a * b).entries == {}
    assert (a * m * b).entries == {(0, 0): T(3) - T(-1)}


@st.composite
def matrix_rows(draw, d: int):
    """d x d rows of Laurent polynomials, about a third of them zero."""
    poly = st.one_of(
        st.just({}),
        st.dictionaries(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=2), max_size=3),
    )
    return [[LaurentPoly(draw(poly)) for _ in range(d)] for _ in range(d)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4), st.data())
def test_sparse_matrices_agree_with_the_dense_oracle(d, data):
    rows = data.draw(matrix_rows(d))
    other = data.draw(st.one_of(st.just(rows), matrix_rows(d)))
    c = data.draw(st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)))
    a, b = LaurentMatrix(rows), LaurentMatrix(other)
    da, db = DenseLaurentMatrix(rows), DenseLaurentMatrix(other)
    pairs = [
        (a, da), (b, db), (a + b, da + db), (a - b, da - db), (-a, -da), (a * c, da * c),
        (c * a, c * da), (a * b, da * db), (b * a, db * da), (a.star(), da.star()),
    ]
    for got, want in pairs:
        assert as_dense(got) == want
        assert not any(p.is_zero() for p in got.entries.values())
        assert got.is_zero() == want.is_zero()
        assert repr(got) == repr(want)
    for (x, dx), (y, dy) in zip(pairs, pairs[1:] + pairs[:1]):
        assert (x == y) == (dx == dy)

    model = cycle_iso(d)
    pool = basis_monomials(model.graph, 3)
    terms = st.lists(st.tuples(st.sampled_from(pool), st.integers(-4, 4)), max_size=4)
    x = Element.from_terms(model.graph, data.draw(terms))
    assert as_dense(image_of_element(model, x)) == image_of_element_dense(model, x)


def test_matrix_dimension_mismatch():
    with pytest.raises(Exception):
        LaurentMatrix.identity(2) * LaurentMatrix.identity(3)


def test_matrix_dimension_and_unit_indices_are_checked():
    for build in (LaurentMatrix.zero, LaurentMatrix.identity, lambda d: LaurentMatrix.unit(d, 0, 0)):
        with pytest.raises(InvalidDimension):
            build(-1)
    empty = LaurentMatrix([])
    assert LaurentMatrix.zero(0) == LaurentMatrix.identity(0) == empty and empty.dim == 0
    for i, j in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(InvalidDimension):
            LaurentMatrix.unit(2, i, j)
    with pytest.raises(InvalidDimension):
        LaurentMatrix.unit(0, 0, 0)
    assert LaurentMatrix.unit(2, 1, 0, T(1)).entries == {(1, 0): T(1)}
    assert LaurentMatrix.unit(2, 1, 0, LaurentPoly.zero()) == LaurentMatrix.zero(2)
    with pytest.raises(TypeError):
        LaurentMatrix.unit(2, 0, 1, 3)


# -- skew commutators in the 2x2 model ----------------------------------------------


def test_skew_commutator_diag_values():
    d11, d22 = skew_commutator_diag(T(1), T(2))
    assert d11 == T(1) - T(-1)
    assert d22 == T(-1) - T(1)
    d11, d22 = skew_commutator_diag(ONE_MINUS_T, ONE_MINUS_T ** 2)
    assert d11 == -T(-2) + 2 * T(-1) - 2 * T(1) + T(2)
    assert d22 == -d11  # the two diagonal entries always cancel in trace


def test_skew_commutator_diag_antisymmetry():
    f, g = T(1) + T(0), ONE_MINUS_T ** 2
    d11, d22 = skew_commutator_diag(f, g)
    e11, e22 = skew_commutator_diag(g, f)
    assert e11 == -d11 and e22 == -d22


def test_skew_commutator_orders_accumulate():
    for n in range(1, 4):
        for m in range(n + 1, 5):
            d11, d22 = skew_commutator_diag(ONE_MINUS_T ** n, ONE_MINUS_T ** m)
            assert not d11.is_zero() and not d22.is_zero()
            assert vanish_order_at_1(d11) >= n + m
            assert VanishingOrderIdeal(n).contains(d11)
            assert VanishingOrderIdeal(m).contains(d11)


# -- cycle models --------------------------------------------------------------------


def test_cycle_graph_shape():
    g = cycle_graph(3)
    assert g.vertices == ("v1", "v2", "v3")
    assert [(e.name, e.source, e.target) for e in g.edges] == [
        ("e1", "v1", "v2"),
        ("e2", "v2", "v3"),
        ("e3", "v3", "v1"),
    ]


def test_cycle_iso_images():
    model = cycle_iso(2)
    assert model.images["v1"] == LaurentMatrix.unit(2, 0, 0)
    assert model.images["e1"] == LaurentMatrix.unit(2, 0, 1)
    # the closing edge carries the variable
    assert model.images["e2"] == LaurentMatrix.unit(2, 1, 0, T(1))


def test_image_of_element_is_linear_and_multiplicative(rng):
    from helpers import random_element

    model = cycle_iso(3)
    g = model.graph
    for _ in range(20):
        x = random_element(g, rng)
        y = random_element(g, rng)
        assert image_of_element(model, x + y) == image_of_element(model, x) + image_of_element(model, y)
        assert image_of_element(model, x * y) == image_of_element(model, x) * image_of_element(model, y)
        assert image_of_element(model, x.star()) == image_of_element(model, x).star()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4), st.data())
def test_products_map_to_products_of_laurent_images(d, data):
    model = cycle_iso(d)
    pool = basis_monomials(model.graph, 3)
    terms = st.lists(st.tuples(st.sampled_from(pool), st.integers(-4, 4)), min_size=1, max_size=4)
    x = Element.from_terms(model.graph, data.draw(terms))
    y = Element.from_terms(model.graph, data.draw(terms))
    assert image_of_element(model, x * y) == image_of_element(model, x) * image_of_element(model, y)


def test_verify_cycle_iso_all_small_dimensions():
    for d in range(1, 7):
        report = verify_cycle_iso(d)
        assert report.d == d
        assert report.relation_checks > 0
        assert report.product_checks > 0


def test_verify_cycle_iso_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        verify_cycle_iso(0)
    with pytest.raises(InvalidDimension):
        verify_cycle_iso(7)


def test_verify_cycle_iso_detects_broken_model(monkeypatch):
    import lpakit.laurent as laurent_mod

    good = cycle_iso(2)
    bad_images = dict(good.images)
    # send e1 to a diagonal unit: s(e)e still holds but er(e) breaks
    bad_images["e1"] = LaurentMatrix.unit(2, 0, 0)
    broken = laurent_mod.CycleModel(2, good.graph, bad_images)
    monkeypatch.setattr(laurent_mod, "cycle_iso", lambda d: broken)
    with pytest.raises(RelationFailure):
        laurent_mod.verify_cycle_iso(2)


def test_loop_skew_elements_commute(loop):
    # d = 1: the model is the Laurent ring itself, which is commutative,
    # so the bracket space of the loop graph is zero as deep as we look
    from lpakit.skew import bracket_space

    assert bracket_space(loop, 8).dimension == 0
