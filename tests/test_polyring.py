"""Homogeneous exact polynomials, invariant decompositions, MacWilliams."""

import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from amdesign.gf2core import (
    WeightDistribution,
    code_from_rows,
    dual,
    weight_distribution,
)
from amdesign.catalog import builtin
from amdesign.polyring import (
    HomPoly,
    SpanError,
    X,
    Y,
    gleason_basis,
    gleason_decompose,
    macwilliams_transform_classical,
    q8,
    vanishing_coefficient_search,
    weight_enumerator_poly,
)


def we(c):
    return weight_enumerator_poly(weight_distribution(c), c.n)


def test_arithmetic():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert ((X**2 + Y**2) ** 2).coeffs == (1, 0, 2, 0, 1)
    p = HomPoly(5, (0, 0, 5, 0, 0, 0))
    assert (p - p).is_zero
    assert (2 * X) == X * 2 == X + X
    with pytest.raises(ValueError):
        X + X**2
    with pytest.raises(ValueError):
        p - X
    with pytest.raises(ValueError):
        HomPoly(2, (1, 0))


def test_scalar_products_take_exact_scalars_only():
    p = X**2 - 3 * Y**2
    for scalar, coeffs in [(2, (2, 0, -6)), (True, (1, 0, -3)), (False, (0, 0, 0)),
                           (Fraction(1, 3), (Fraction(1, 3), 0, -1))]:
        assert (p * scalar).coeffs == coeffs == (scalar * p).coeffs
    assert [type(c) for c in (p * 2).coeffs] == [int, int, int]
    for inexact in (0.5, 2.0, Decimal("0.5"), Decimal(2)):
        assert p.__mul__(inexact) is NotImplemented
        with pytest.raises(TypeError):
            p * inexact
        with pytest.raises(TypeError):
            inexact * p


def test_substitutions():
    assert (X**2).substitute_sum_diff().coeffs == (1, 2, 1)
    assert (X * Y * (X**2 + Y**2)).divide_xy(1) == X**2 + Y**2
    with pytest.raises(ValueError):
        (X**2 + Y**2).divide_xy(1)
    assert str(X**2 - Y**2) == "x^2 - y^2"


@st.composite
def polys(draw, degree=None):
    """A HomPoly of degree 0..40, or of the given degree, with all-int or
    all-Fraction coefficients."""
    d = draw(st.integers(0, 40)) if degree is None else degree
    scalars = st.integers(-10**6, 10**6)
    if draw(st.booleans()):
        scalars = st.fractions(max_denominator=1000)
    return HomPoly(d, tuple(draw(st.lists(scalars, min_size=d + 1, max_size=d + 1))))


def _is_int_poly(p):
    return all(type(c) is int for c in p.coeffs)


@settings(max_examples=60, deadline=None, database=None)
@given(polys())
@example(HomPoly(0, (7,)))
@example(HomPoly(40, (1,) * 41))
@example(HomPoly(40, (0,) * 40 + (Fraction(-3, 7),)))
def test_sum_diff_matrix_matches_the_loop(p):
    image = p.substitute_sum_diff()
    assert image == oracles.substitute_sum_diff(p)
    assert _is_int_poly(image) == _is_int_poly(p)


@settings(max_examples=25, deadline=None, database=None)
@given(polys())
@example(HomPoly(40, tuple(range(-20, 21))))
def test_sum_diff_matrix_matches_sympy(p):
    # Set x = 1: p is homogeneous, so the coefficient of y^m in
    # sum_j c_j (1+y)^(d-j) (1-y)^j is that of x^(d-m) y^m in p(x+y, x-y).
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    d = p.degree
    expanded = sympy.Poly(0, y, domain="QQ")
    for j, c in enumerate(p.coeffs):
        term = sympy.Poly(1 + y, y, domain="QQ") ** (d - j) * sympy.Poly(1 - y, y) ** j
        expanded += term.mul_ground(sympy.Rational(c.numerator, c.denominator))
    want = [expanded.coeff_monomial(y**m) for m in range(d + 1)]
    assert p.substitute_sum_diff().coeffs == tuple(
        Fraction(int(w.p), int(w.q)) for w in want)


def test_q8_coefficients():
    assert q8().coeffs == (0, 1, 0, -7, 0, 7, 0, -1, 0)
    assert oracles.is_relatively_invariant(q8(), 1)


def test_gleason_basis_is_relatively_invariant():
    for t, n in [(0, 8), (0, 16), (1, 14), (2, 16), (3, 22)]:
        basis = gleason_basis(t, n)
        assert basis
        for b in basis:
            assert b.degree == n - 2 * t
            assert oracles.is_relatively_invariant(b, t)


def test_gleason_basis_errors():
    with pytest.raises(ValueError):
        gleason_basis(0, 7)
    with pytest.raises(ValueError):
        gleason_basis(-1, 8)
    with pytest.raises(ValueError):
        gleason_basis(1, 8)


def test_gleason_decompose_examples(type1):
    assert gleason_decompose(we(builtin("e8")), 0, 8) == [1, -4]
    assert gleason_decompose(we(type1), 0, 16) == [1, -8, 0]
    assert gleason_decompose(q8(), 1, 10) == [1]


def test_gleason_decompose_round_trip(type1):
    coords = gleason_decompose(we(type1), 0, 16)
    basis = gleason_basis(0, 16)
    total = HomPoly(16, (0,) * 17)
    for c, b in zip(coords, basis):
        total = total + c * b
    assert total == we(type1)


def test_gleason_decompose_outside_span():
    with pytest.raises(SpanError) as err:
        gleason_decompose(X**8 + Y**8, 0, 8)
    residual = err.value.residual
    assert not residual.is_zero
    basis = gleason_basis(0, 8)
    approx = HomPoly(8, (0,) * 9)
    for c, b in zip(err.value.partial, basis):
        approx = approx + c * b
    assert approx + residual == X**8 + Y**8


def test_gleason_decompose_degree_mismatch():
    with pytest.raises(ValueError):
        gleason_decompose(X**6, 0, 8)


def test_the_relative_invariance_oracle():
    assert oracles.is_relatively_invariant(X**2 + Y**2, 0)
    assert not oracles.is_relatively_invariant(X**2 - Y**2, 0)
    # Fixed by the sum-difference transform, but odd in y.
    assert not oracles.is_relatively_invariant(X**2 + 2 * X * Y - Y**2, 0)
    with pytest.raises(ValueError):
        oracles.is_relatively_invariant(X + Y, 0)


def test_vanishing_coefficient_search():
    # independent oracle: coefficient of z^i in (1+z)^2 (1-z)^alpha
    def coeff(alpha, i):
        return sum(
            comb(2, i - j) * (-1) ** j * comb(alpha, j)
            for j in range(alpha + 1)
            if 0 <= i - j <= 2
        )

    expected = [
        (a, i)
        for a in range(16)
        for i in range((a + 2) // 2 + 1)
        if coeff(a, i) == 0
    ]
    found = vanishing_coefficient_search(16)
    assert found == expected
    assert found == [(2, 1), (7, 3), (14, 6)]
    with pytest.raises(ValueError):
        vanishing_coefficient_search(0)


def test_weight_enumerator_poly():
    p = weight_enumerator_poly(WeightDistribution({0: 1, 2: 3}), 4)
    assert p == X**4 + 3 * X**2 * Y**2
    with pytest.raises(ValueError):
        weight_enumerator_poly(WeightDistribution({5: 1}), 4)


def test_macwilliams_examples(type1):
    e8 = builtin("e8")
    wd8 = weight_distribution(e8)
    assert macwilliams_transform_classical(wd8, 8, 4) == wd8
    wd16 = weight_distribution(type1)
    assert macwilliams_transform_classical(wd16, 16, 8) == wd16
    zero2 = WeightDistribution({0: 1})
    assert macwilliams_transform_classical(zero2, 2, 0).counts == {0: 1, 1: 2, 2: 1}


def test_macwilliams_matches_enumerated_dual():
    rng = random.Random(5)
    seen = 0
    while seen < 50:
        n = rng.randrange(2, 13)
        k = rng.randrange(0, n + 1)
        c = code_from_rows((rng.getrandbits(n) for _ in range(k)), n)
        wd = weight_distribution(c)
        assert macwilliams_transform_classical(wd, n, c.dimension) == \
            weight_distribution(dual(c))
        seen += 1


def test_macwilliams_involution():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(2, 11)
        c = code_from_rows((rng.getrandbits(n) for _ in range(n // 2)), n)
        wd = weight_distribution(c)
        once = macwilliams_transform_classical(wd, n, c.dimension)
        assert macwilliams_transform_classical(once, n, n - c.dimension) == wd


def test_macwilliams_input_validation():
    with pytest.raises(ValueError):
        macwilliams_transform_classical(WeightDistribution({0: 1, 1: 2}), 2, 0)
    with pytest.raises(ValueError):
        macwilliams_transform_classical(WeightDistribution({1: 1}), 2, 0)
    # x^4 + 3x^3y maps to 4x^4 + 10x^3y + ...: 10/4 at w = 1 is not an integer.
    with pytest.raises(ValueError, match="transform is not a weight distribution at w=1"):
        macwilliams_transform_classical(WeightDistribution({0: 1, 1: 3}), 4, 2)
    # x^2 + 3y^2 maps to 4x^2 - 4xy + 4y^2: -4/4 at w = 1 is a negative count.
    with pytest.raises(ValueError, match="transform is not a weight distribution at w=1"):
        macwilliams_transform_classical(WeightDistribution({0: 1, 2: 3}), 2, 2)


# sympy oracles for the invariant ring: each side is expanded by sympy from
# its closed form and compared with polyring coefficient by coefficient.


def _sympy_ring():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    q8 = x * y * (x**6 - 7 * x**4 * y**2 + 7 * x**2 * y**4 - y**6)
    return sympy, x, y, q8


def _top(t, n):
    """Half the degree left for (x^2+y^2)^a (x^2 y^2 (x^2-y^2)^2)^i."""
    return n // 2 - t - (4 if t % 2 else 0)


def _sympy_gleason_basis(t, n):
    """(x^2+y^2)^a (x^2 y^2 (x^2-y^2)^2)^i of degree n - 2t, times q8 for odd
    t, from the largest a down; None when the degree leaves no element."""
    sympy, x, y, q8 = _sympy_ring()
    top = _top(t, n)
    if top < 0:
        return None
    head = q8 if t % 2 else 1
    return [sympy.expand(head * (x**2 + y**2) ** (top - 4 * i)
                         * (x**2 * y**2 * (x**2 - y**2) ** 2) ** i)
            for i in range(top // 4 + 1)]


def _sympy_coeffs(expr, degree):
    """The coefficient of x^(degree-j) y^j of a homogeneous sympy expression,
    for j = 0..degree, as ints."""
    sympy, x, y, _ = _sympy_ring()
    poly = sympy.Poly(expr, x, y)
    return tuple(int(poly.coeff_monomial(x ** (degree - j) * y**j)) for j in range(degree + 1))


def _sympy_poly(p):
    """The HomPoly p in sympy's sparse ring of polynomials in x, y over QQ."""
    sympy = _sympy_ring()[0]
    ring, QQ = sympy.polys.rings.ring("x,y", sympy.QQ)[0], sympy.QQ
    return ring.from_dict({(p.degree - j, j): QQ(c.numerator, c.denominator)
                           for j, c in enumerate(p.coeffs)})


def _terms(p):
    """The nonzero terms of a HomPoly as {(x-degree, y-degree): Fraction}."""
    return {(p.degree - j, j): Fraction(c) for j, c in enumerate(p.coeffs) if c}


@st.composite
def same_degree_pairs(draw):
    p = draw(polys())
    return p, draw(polys(p.degree))


# Every operator of HomPoly is sympy's expansion, term by term and exactly.
@settings(max_examples=40, deadline=None, database=None)
@given(same_degree_pairs(),
       st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=1000)),
       st.integers(0, 3))
@example((HomPoly(0, (7,)), HomPoly(0, (Fraction(-1, 2),))), Fraction(2, 3), 3)
def test_operators_match_sympy(pair, k, e):
    p, q = pair
    d, sp, sq = p.degree, _sympy_poly(p), _sympy_poly(q)
    sk = _sympy_ring()[0].QQ(k.numerator, k.denominator)
    # sympy's ring refuses 0**0, which HomPoly, like Python's numbers, reads as 1.
    for got, want, degree in [(p + q, sp + sq, d), (p - q, sp - sq, d),
                              (p * q, sp * sq, 2 * d), (p * k, sp * sk, d),
                              (k * p, sk * sp, d),
                              (p**e, sp**e if e else sp.ring.one, e * d)]:
        assert got.degree == degree
        assert _terms(got) == {m: Fraction(c.numerator, c.denominator)
                               for m, c in want.items()}


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_gleason_basis_matches_sympy(t):
    for n in range(2, 33, 2):
        want = _sympy_gleason_basis(t, n)
        if want is None:
            with pytest.raises(ValueError, match="no basis elements"):
                gleason_basis(t, n)
            continue
        got = gleason_basis(t, n)
        assert [b.coeffs for b in got] == [_sympy_coeffs(w, n - 2 * t) for w in want]


# (t, n) -> the number of Gleason basis elements, for every nonempty basis.
_SPANS = {(t, n): _top(t, n) // 4 + 1
          for t in range(4) for n in range(2, 33, 2) if _top(t, n) >= 0}


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(sorted(_SPANS)).flatmap(lambda tn: st.tuples(
    st.just(tn), st.lists(st.integers(-50, 50), min_size=_SPANS[tn], max_size=_SPANS[tn]))))
def test_gleason_decompose_recovers_sympy_combinations(case):
    (t, n), coords = case
    sympy = _sympy_ring()[0]
    combination = sympy.expand(sum(c * b for c, b in zip(coords, _sympy_gleason_basis(t, n))))
    p = HomPoly(n - 2 * t, _sympy_coeffs(combination, n - 2 * t))
    assert gleason_decompose(p, t, n) == coords


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_gleason_basis_is_unitriangular_in_its_lowest_terms(t):
    for n in range(2, 49, 2):
        if _top(t, n) < 0:
            continue
        for i, b in enumerate(gleason_basis(t, n)):
            low = next(j for j, c in enumerate(b.coeffs) if c)
            assert (low, b.coeffs[low]) == (2 * i + t % 2, 1), (t, n, i)


def _decompose_or_span_error(decompose, p, t, n):
    try:
        return decompose(p, t, n), None
    except SpanError as err:
        return err.partial, err.residual


# (t, n) with a nonempty basis, even n <= 40 and t <= 4.
_SPANS_40 = sorted((t, n) for t in range(5) for n in range(2, 41, 2) if _top(t, n) >= 0)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_SPANS_40).flatmap(lambda tn: st.tuples(
    st.just(tn),
    st.lists(st.integers(-10**6, 10**6), min_size=_top(*tn) // 4 + 1,
             max_size=_top(*tn) // 4 + 1),
    st.dictionaries(st.integers(0, tn[1] - 2 * tn[0]), st.integers(-20, 20), max_size=3))))
@example(((0, 8), [1, 0], {8: 1}))
@example(((1, 10), [0], {0: 1}))
@example(((2, 4), [0], {0: 1}))
def test_gleason_decompose_matches_the_elimination_oracle(case):
    (t, n), coords, bump = case
    p = HomPoly(n - 2 * t, (0,) * (n - 2 * t + 1))
    for c, b in zip(coords, gleason_basis(t, n)):
        p = p + c * b
    p = HomPoly(p.degree, tuple(a + bump.get(j, 0) for j, a in enumerate(p.coeffs)))
    got, residual = _decompose_or_span_error(gleason_decompose, p, t, n)
    want, want_residual = _decompose_or_span_error(oracles.gleason_decompose, p, t, n)
    assert got == want
    assert all(type(c) is int for c in got)
    assert residual == want_residual
    if residual is not None:
        assert [str(c) for c in residual.coeffs] == [str(c) for c in want_residual.coeffs]
    elif not any(bump.values()):
        # A bump can stay in the span (at n = 2t every constant is in it).
        assert got == coords


def test_vanishing_coefficient_search_matches_sympy():
    sympy, x, y, _ = _sympy_ring()
    want = []
    for alpha in range(16):
        r = sympy.Poly((x**4 + 2 * x**2 * y**2 + y**4) * (x**2 - y**2) ** alpha, x, y)
        want += [(alpha, i) for i in range((alpha + 2) // 2 + 1)
                 if r.coeff_monomial(x ** (2 * alpha + 4 - 2 * i) * y ** (2 * i)) == 0]
    assert vanishing_coefficient_search(16) == want
