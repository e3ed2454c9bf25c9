"""Homogeneous exact polynomials and invariant decompositions."""

import operator
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from amdesign import gf2core, polyring
from amdesign.gf2core import weight_distribution
from amdesign.catalog import builtin
from amdesign.polyring import (
    HomPoly,
    SpanError,
    gleason_basis,
    gleason_decompose,
    vanishing_coefficient_search,
    weight_enumerator_poly,
)


def we(c):
    return weight_enumerator_poly(weight_distribution(c), c.n)


# q8 = xy(x^6 - 7x^4y^2 + 7x^2y^4 - y^6), the odd-character octic invariant.
Q8 = HomPoly(8, (0, 1, 0, -7, 0, 7, 0, -1, 0))
X8_PLUS_Y8 = HomPoly(8, (1, 0, 0, 0, 0, 0, 0, 0, 1))


def test_a_polynomial_has_no_arithmetic():
    # Callers combine coefficient vectors; HomPoly holds one.
    p = HomPoly(1, (1, 2))
    for a, b in [(p, p), (p, HomPoly(1, (1, 0))), (p, 2), (2, p),
                 (p, Fraction(1, 3)), (Fraction(1, 3), p)]:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(ValueError):
        HomPoly(2, (1, 0))


def test_substitutions():
    assert HomPoly(2, (1, 0, 0)).substitute_sum_diff().coeffs == (1, 2, 1)
    assert HomPoly(4, (0, 1, 0, 1, 0)).divide_xy(1) == HomPoly(2, (1, 0, 1))
    with pytest.raises(ValueError):
        HomPoly(2, (1, 0, 1)).divide_xy(1)
    assert str(HomPoly(2, (1, 0, -1))) == "x^2 - y^2"


@st.composite
def polys(draw, max_degree=40):
    """A HomPoly of degree 0..max_degree with all-int or all-Fraction
    coefficients."""
    d = draw(st.integers(0, max_degree))
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


# p(x+y, x-y) taken twice is p(2x, 2y) = 2^d p, far past the degrees above.
@settings(max_examples=20, deadline=None, database=None)
@given(polys(max_degree=300))
@example(HomPoly(300, (1,) * 301))
@example(HomPoly(300, (0,) * 300 + (Fraction(-3, 7),)))
def test_the_transform_twice_is_a_power_of_two(p):
    twice = p.substitute_sum_diff().substitute_sum_diff()
    assert twice.coeffs == tuple(c * (1 << p.degree) for c in p.coeffs)
    assert _is_int_poly(twice) == _is_int_poly(p)


def test_q8_coefficients():
    q8 = gleason_basis(1, 10)[0]
    assert q8 == Q8
    assert oracles.is_relatively_invariant(q8, 1)


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
    assert gleason_decompose(we(builtin("e8")), gleason_basis(0, 8)) == [1, -4]
    assert gleason_decompose(we(type1), gleason_basis(0, 16)) == [1, -8, 0]
    assert gleason_decompose(gleason_basis(1, 10)[0], gleason_basis(1, 10)) == [1]


def _combination(coords, basis):
    """The coefficients of sum_i coords[i] * basis[i]."""
    return tuple(sum(c * b.coeffs[j] for c, b in zip(coords, basis))
                 for j in range(basis[0].degree + 1))


def test_gleason_decompose_round_trip(type1):
    basis = gleason_basis(0, 16)
    coords = gleason_decompose(we(type1), basis)
    assert _combination(coords, basis) == we(type1).coeffs


def test_gleason_decompose_outside_span():
    basis = gleason_basis(0, 8)
    with pytest.raises(SpanError) as err:
        gleason_decompose(X8_PLUS_Y8, basis)
    residual = err.value.residual
    assert not residual.is_zero
    approx = _combination(err.value.partial, basis)
    assert tuple(map(operator.add, approx, residual.coeffs)) == X8_PLUS_Y8.coeffs


def test_gleason_decompose_degree_mismatch():
    with pytest.raises(ValueError):
        gleason_decompose(HomPoly(6, (1, 0, 0, 0, 0, 0, 0)), gleason_basis(0, 8))


def test_the_relative_invariance_oracle():
    assert oracles.is_relatively_invariant(HomPoly(2, (1, 0, 1)), 0)
    assert not oracles.is_relatively_invariant(HomPoly(2, (1, 0, -1)), 0)
    # Fixed by the sum-difference transform, but odd in y.
    assert not oracles.is_relatively_invariant(HomPoly(2, (1, 2, -1)), 0)
    with pytest.raises(ValueError):
        oracles.is_relatively_invariant(HomPoly(1, (1, 1)), 0)


def test_vanishing_coefficient_search():
    # independent oracle: coefficient of z^i in (1+z)^2 (1-z)^alpha
    def coeff(alpha, i):
        return sum(
            comb(2, i - j) * (-1) ** j * comb(alpha, j)
            for j in range(max(0, i - 2), i + 1)
        )

    expected = [
        (a, i)
        for a in range(256)
        for i in range((a + 2) // 2 + 1)
        if coeff(a, i) == 0
    ]
    found = vanishing_coefficient_search(256)
    assert found == expected
    assert vanishing_coefficient_search(16) == [(2, 1), (7, 3), (14, 6)]
    with pytest.raises(ValueError):
        vanishing_coefficient_search(0)


def test_weight_enumerator_poly():
    p = weight_enumerator_poly({0: 1, 2: 3}, 4)
    assert p == HomPoly(4, (1, 0, 3, 0, 0))
    with pytest.raises(ValueError, match="weight exceeds the stated length"):
        weight_enumerator_poly({5: 1}, 4)
    # A negative weight would index the coefficients from the top.
    with pytest.raises(ValueError, match="nonnegative"):
        weight_enumerator_poly({0: 1, -1: 3}, 4)


def test_the_traced_transform_name_is_the_gf2core_transform():
    assert polyring.macwilliams_transform_classical is gf2core.macwilliams


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
    terms = sympy.Poly(expr, x, y).as_dict()
    return tuple(int(terms.get((degree - j, j), 0)) for j in range(degree + 1))


@pytest.mark.parametrize("t", range(6))
def test_gleason_basis_matches_sympy(t):
    for n in range(2, 65, 2):
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
    assert gleason_decompose(p, gleason_basis(t, n)) == coords


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_gleason_basis_is_unitriangular_in_its_lowest_terms(t):
    for n in range(2, 301, 2):
        if _top(t, n) < 0:
            continue
        for i, b in enumerate(gleason_basis(t, n)):
            low = next(j for j, c in enumerate(b.coeffs) if c)
            assert (low, b.coeffs[low]) == (2 * i + t % 2, 1), (t, n, i)


def _decompose_or_span_error(decompose, p, *args):
    try:
        return decompose(p, *args), None
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
    combination = _combination(coords, gleason_basis(t, n))
    p = HomPoly(n - 2 * t, tuple(a + bump.get(j, 0) for j, a in enumerate(combination)))
    got, residual = _decompose_or_span_error(gleason_decompose, p, gleason_basis(t, n))
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


def test_the_sum_diff_cache_holds_one_degree():
    # A command transforms one degree; 21 degrees up to 300 once held 30 MiB.
    for d in range(0, 301, 15):
        HomPoly(d, (1,) * (d + 1)).substitute_sum_diff()
    info = polyring._sum_diff_columns.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
