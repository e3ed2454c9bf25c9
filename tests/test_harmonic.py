"""Discrete harmonic functions, harmonic enumerators, Bachoc transform."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from amdesign import ratlin
from amdesign.gf2core import (
    EnumerationGuardError,
    code_from_rows,
    dual,
    weight_distribution,
)
from amdesign.catalog import builtin
from amdesign.harmonic import (
    DIMENSION_DIGITS_GUARD,
    HarmonicFunction,
    bachoc_transform,
    delsarte_design_check,
    harm_basis,
    harm_dimension,
    harmonic_weight_enumerator,
    zcf,
)
from amdesign.polyring import HomPoly, weight_enumerator_poly


def mask(*points):
    return sum(1 << (p - 1) for p in points)


def dense(f):
    """f's values on the k-subsets of 1..n, in lexicographic order."""
    values = oracles.expand(f)
    return [values.get(mask(*z), 0) for z in combinations(range(1, f.n + 1), f.k)]


def subset_sum(f, points):
    """The sum of f's values over the k-subsets of points."""
    values = oracles.expand(f)
    return sum(values.get(mask(*z), 0) for z in combinations(points, f.k))


def inclusion_matrix(n, k):
    """The C(n,k-1) x C(n,k) inclusion matrix, columns in lexicographic order
    of the k-subsets: Harm_k(n) is its kernel for k >= 1."""
    cols = list(combinations(range(1, n + 1), k))
    rows = list(combinations(range(1, n + 1), k - 1))
    return [[int(set(y) <= set(z)) for z in cols] for y in rows]


def is_harmonic(f, matrix):
    values = dense(f)
    return f.k == 0 or all(
        sum(a * v for a, v in zip(row, values)) == 0 for row in matrix)


def test_harmonic_function_validation():
    with pytest.raises(ValueError, match="overlap"):
        HarmonicFunction(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="overlap"):
        HarmonicFunction(4, ((3, 3),))
    with pytest.raises(ValueError, match="point 4 is outside 1..3"):
        HarmonicFunction(3, ((1, 4),))
    with pytest.raises(ValueError, match="point 0 is outside 1..3"):
        HarmonicFunction(3, ((0, 1),))
    f = HarmonicFunction(3, [[1, 2]])
    assert (f.pairs, f.k) == (((1, 2),), 1)
    assert oracles.expand(f) == {mask(2): 1, mask(1): -1}
    assert HarmonicFunction(3, ()).k == 0


def test_harm_dimension():
    assert harm_dimension(4, 1) == 3
    assert harm_dimension(16, 2) == 104
    assert harm_dimension(5, 0) == 1
    for n, k in [(4, 1), (5, 2), (6, 2), (6, 3)]:
        assert harm_dimension(n, k) == comb(n, k) - comb(n, k - 1)
        assert len(harm_basis(n, k)) == harm_dimension(n, k)
    for n, k in [(4, 3), (4, 4), (5, 3), (7, 4), (1, 1)]:
        assert harm_dimension(n, k) == 0
        assert harm_basis(n, k) == ()
    for n, k in [(3, 5), (4, -1), (0, 1)]:
        with pytest.raises(ValueError):
            harm_dimension(n, k)


def test_harm_dimension_guard_edge_is_exact():
    # At k = 2 the dimension is n(n-3)/2; edge is the least n where it has
    # more than DIMENSION_DIGITS_GUARD digits.
    limit = 10**DIMENSION_DIGITS_GUARD
    edge = (3 + isqrt(9 + 8 * limit)) // 2
    while edge * (edge - 3) // 2 < limit:
        edge += 1
    assert harm_dimension(edge - 1, 2) == (edge - 1) * (edge - 4) // 2 < limit
    with pytest.raises(EnumerationGuardError, match="dimension guard of 4300 decimal"):
        harm_dimension(edge, 2)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(2, 40_000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n // 2) | st.integers(1, 1500))))
def test_harm_dimension_refuses_exactly_the_dimensions_past_the_guard(case):
    # Most draws trip the bound checked before C(n, k) is computed; either
    # way the refusal must match the exact digit count.
    n, k = case
    k = min(k, n // 2)
    dim = comb(n, k) - comb(n, k - 1)
    if dim < 10**DIMENSION_DIGITS_GUARD:
        assert harm_dimension(n, k) == dim
    else:
        with pytest.raises(EnumerationGuardError):
            harm_dimension(n, k)


def test_harm_basis_is_harmonic_and_independent():
    basis = harm_basis(6, 2)
    matrix = inclusion_matrix(6, 2)
    assert all(is_harmonic(f, matrix) for f in basis)
    # independence: the value matrix has full rank over the rationals
    rows = [dense(f) for f in basis]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                scale = Fraction(rows[i][col], lead)
                rows[i] = [a - scale * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    assert rank == len(basis)


def _nullspace_oracle(n, k):
    """Harm_k(n) by rational elimination: the kernel of the C(n,k-1) x C(n,k)
    inclusion matrix, columns in lexicographic order of the k-subsets."""
    if k == 0:
        return [[1]]
    return ratlin.nullspace(inclusion_matrix(n, k))


@pytest.mark.parametrize("n, k", [
    (1, 0), (4, 0), (2, 1), (5, 1), (4, 2), (5, 2), (6, 2), (7, 3), (6, 3),
    (8, 3), (8, 4), (4, 3), (5, 3), (5, 5), (9, 4),
])
def test_polytabloids_span_the_nullspace(n, k):
    basis = harm_basis(n, k)
    dim = harm_dimension(n, k)
    assert len(basis) == dim
    matrix = inclusion_matrix(n, k) if k else []
    assert all(is_harmonic(f, matrix) for f in basis)
    values = [dense(f) for f in basis]
    kernel = _nullspace_oracle(n, k)
    assert len(kernel) == dim
    assert len(ratlin.rref(values)[1]) == dim
    assert len(ratlin.rref(values + kernel)[1]) == dim


def test_second_rows_are_standard_and_in_lexicographic_order():
    # Harm_2(5): second rows 24 25 34 35 45, whose i-th points pair with the
    # i-th smallest points outside them: 13 13 12 12 12.
    assert [f.pairs for f in harm_basis(5, 2)] == [
        ((1, 2), (3, 4)), ((1, 2), (3, 5)), ((1, 3), (2, 4)), ((1, 3), (2, 5)),
        ((1, 4), (2, 5))]


@pytest.mark.parametrize("blocks, n", [
    ([(1, 1, 2)], 5),
    ([(1, 2, 3), (2, 4, 4)], 5),
    ([(0, 1, 2)], 5),
    ([(1, 2, 6)], 5),
    ([(1, 2, 3), (3, 4, 20)], 16),
])
def test_delsarte_rejects_bad_points(blocks, n):
    with pytest.raises(ValueError):
        delsarte_design_check(blocks, n, 1)


@st.composite
def functions_and_blocks(draw):
    n = draw(st.integers(1, 9))
    f = draw(st.sampled_from(harm_basis(n, draw(st.integers(0, n // 2)))))
    block = draw(st.sets(st.integers(1, n)))
    return f, sorted(block)


@settings(max_examples=200, deadline=None)
@given(functions_and_blocks())
def test_tilde_is_the_sum_over_k_subsets(case):
    f, block = case
    assert f.tilde(block) == subset_sum(f, block)


def test_harm_basis_guard():
    with pytest.raises(EnumerationGuardError):
        harm_basis(30, 5)
    with pytest.raises(ValueError):
        harm_basis(4, 5)


def test_tilde():
    f = harm_basis(4, 1)[0]  # e_2 - e_1
    assert (f.tilde((2,)), f.tilde((1, 3)), f.tilde((3, 4))) == (1, -1, 0)
    assert f.tilde((1, 2, 3, 4)) == 0
    two = harm_basis(5, 2)[0]
    assert two.tilde((1, 3, 4, 5)) == subset_sum(two, (1, 3, 4, 5))


def test_degree_zero_gives_classical_enumerator(type1):
    const = harm_basis(16, 0)[0]
    assert harmonic_weight_enumerator(type1, const) == \
        weight_enumerator_poly(weight_distribution(type1), 16)
    assert zcf(type1, const) == harmonic_weight_enumerator(type1, const)


def test_degree_one_enumerators_vanish(type1):
    i2 = builtin("i2")
    for f in harm_basis(2, 1):
        assert harmonic_weight_enumerator(i2, f).is_zero
    for f in harm_basis(16, 1):
        w = harmonic_weight_enumerator(type1, f)
        assert w.is_zero
        assert zcf(type1, f) == HomPoly(14, (0,) * 15)


def test_enumerator_length_mismatch():
    with pytest.raises(ValueError):
        harmonic_weight_enumerator(builtin("e8"), harm_basis(4, 1)[0])


def test_zcf_degree():
    e8 = builtin("e8")
    for f in harm_basis(8, 1):
        assert zcf(e8, f).degree == 6


def test_bachoc_transform_examples():
    e8 = builtin("e8")
    const = harm_basis(8, 0)[0]
    z = zcf(e8, const)
    assert bachoc_transform(z, 0, e8.size, 8) == z
    assert bachoc_transform(HomPoly(6, (0,) * 7), 1, 16, 8).is_zero
    # -2 * z(x+y, x-y) / code_size: a Fraction only where the division leaves one.
    assert bachoc_transform(HomPoly(0, (1,)), 1, 4, 2).coeffs == (Fraction(-1, 2),)
    assert type(bachoc_transform(HomPoly(0, (1,)), 1, 2, 2).coeffs[0]) is int
    with pytest.raises(ValueError):
        bachoc_transform(z, 1, e8.size, 8)
    with pytest.raises(ValueError):
        bachoc_transform(z, 0, 0, 8)


def test_bachoc_identity_random_codes():
    rng = random.Random(9)
    checked = 0
    while checked < 12:
        n = rng.choice((6, 8, 10))
        k = rng.randrange(1, 5)
        c = code_from_rows((rng.getrandbits(n) for _ in range(k)), n)
        d = dual(c)
        deg = rng.randrange(0, 3)
        basis = harm_basis(n, deg)
        f = basis[rng.randrange(len(basis))]
        image = bachoc_transform(zcf(c, f), deg, c.size, n)
        assert image == zcf(d, f)
        assert all(type(x) is int for x in image.coeffs)
        checked += 1


def test_delsarte_design_check():
    # every k-subset block multiset taken in full is a t-design for t <= k
    blocks = list(combinations(range(1, 6), 3))
    assert delsarte_design_check(blocks, 5, 2)
    assert delsarte_design_check(blocks, 5, 3)
    with pytest.raises(ValueError):
        delsarte_design_check([], 5, 1)
    with pytest.raises(ValueError):
        delsarte_design_check([(1, 2), (1, 2, 3)], 5, 1)
    with pytest.raises(ValueError):
        delsarte_design_check([(1, 2)], 5, 3)


def test_delsarte_on_support_designs(type1, c6):
    assert delsarte_design_check(c6.blocks, 16, 2)
    assert not delsarte_design_check(c6.blocks, 16, 3)
    unbalanced = [(1, 2), (1, 3)]
    assert not delsarte_design_check(unbalanced, 3, 1)
