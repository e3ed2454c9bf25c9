"""Discrete harmonic functions on k-subsets and harmonic weight enumerators.

The functions are the standard polytabloids of shape (n-k, k), each stored
as its k column pairs (a_i, b_i): its tilde on a point set B is
prod_i (1_B(b_i) - 1_B(a_i)).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import designs, polyring
from .gf2core import BinaryCode, EnumerationGuardError, Record, _weight_leaves

__all__ = [
    "SUBSET_GUARD",
    "DIMENSION_DIGITS_GUARD",
    "HarmonicFunction",
    "harm_dimension",
    "harm_basis",
    "harmonic_weight_enumerator",
    "harmonic_weight_enumerators",
    "zcf",
    "bachoc_transform",
    "delsarte_design_check",
]

# Harmonic-space computations are refused when C(n, k) exceeds this.
SUBSET_GUARD = 20_000

# harm_dimension refuses a dimension of more decimal digits than this, the most
# Python prints of an int by default, or than the interpreter's lower limit.
DIMENSION_DIGITS_GUARD = 4300


class HarmonicFunction(Record):
    """The polytabloid on the k-subsets of {1..n} with column pairs
    (a_i, b_i), k = len(pairs): +-1 on each k-subset that meets every pair
    once, with sign (-1)^(number of a_i taken), and 0 elsewhere. The pairs
    are disjoint."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = tuple((a, b) for a, b in pairs)
        points = [p for pair in pairs for p in pair]
        for p in points:
            if not 1 <= p <= n:
                raise ValueError(f"point {p} is outside 1..{n}")
        if len(set(points)) != len(points):
            raise ValueError("the column pairs overlap")
        self._set(n, pairs)

    @property
    def k(self) -> int:
        return len(self.pairs)

    def tilde(self, points: Iterable[int]) -> int:
        """Sum of the function over all k-subsets of the given point set."""
        block = set(points)
        value = 1
        for a, b in self.pairs:
            value *= (b in block) - (a in block)
        return value


def _fold_sums(
    incidence: Sequence[int], masks: Sequence[int], fs: Sequence[HarmonicFunction]
) -> list[list[int]]:
    """The sum of f~ over the items of each mask, per f in fs, where
    incidence[p] (p = 1..n) is the bitset of the items that contain point p.
    f's pairs fold the incidence into the items that meet every pair once,
    on which f~ is +-1, and those of them that take an odd number of the
    a_i, on which it is -1. The sum over a mask S is therefore
    popcount(S & meet) - 2 * popcount(S & odd)."""
    sums = []
    for f in fs:
        meet, odd = -1, 0  # all ones: the product over no pairs
        for a, b in f.pairs:
            ca = incidence[a]
            meet &= ca ^ incidence[b]
            odd = (odd ^ ca) & meet
        sums.append([(s & meet).bit_count() - 2 * (s & odd).bit_count() for s in masks])
    return sums


def harm_dimension(n: int, k: int) -> int:
    """dim Harm_k(n): C(n,k) - C(n,k-1) for k <= n/2, 1 at k = 0, and 0 for
    n/2 < k <= n. A dimension of more than DIMENSION_DIGITS_GUARD decimal
    digits, or than sys.get_int_max_str_digits() when lower, raises
    EnumerationGuardError."""
    if k < 0 or k > n:
        raise ValueError("k out of range")
    if 2 * k > n:
        return 0
    if not k:
        return 1
    # The dimension is C(n,k) (n-2k+1)/(n-k+1) >= (n//k)^k / (n+1), so a
    # dimension that this bound already puts past the guard is refused before
    # C(n,k) is computed (C(10^6, 5*10^5) takes seconds).
    digits = min(DIMENSION_DIGITS_GUARD, sys.get_int_max_str_digits() or DIMENSION_DIGITS_GUARD)
    limit = 10 ** digits
    if k * ((n // k).bit_length() - 1) < (limit * (n + 1)).bit_length():
        dim = comb(n, k) - comb(n, k - 1)
        if dim < limit:
            return dim
    raise EnumerationGuardError(
        f"dim Harm_{k}({n}) exceeds the dimension guard of "
        f"{digits} decimal digits")


@lru_cache(maxsize=None)
def harm_basis(n: int, k: int) -> tuple[HarmonicFunction, ...]:
    """Basis of the harmonic space Harm_k(n): the standard polytabloids of
    shape (n-k, k), one per second row b_1 < ... < b_k with b_i >= 2i, in
    lexicographic order of the row.

    Column i pairs b_i with a_i, the i-th smallest point outside the row
    (a_i < b_i). The polytabloid is harmonic: its sum over the k-subsets
    that cover any (k-1)-subset is 0, because that subset misses some pair
    and the two ways of completing it there cancel. The polytabloids are
    independent and span the harmonic space (James, LNM 682, the standard
    basis of the Specht module S^(n-k,k)).
    """
    if k < 0 or k > n:
        raise ValueError("k out of range")
    if comb(n, k) > SUBSET_GUARD:
        raise EnumerationGuardError(
            f"C({n},{k}) exceeds the subset guard {SUBSET_GUARD}"
        )
    basis = []
    for row in combinations(range(1, n + 1), k):
        if any(b < 2 * i for i, b in enumerate(row, 1)):
            continue
        outside = [p for p in range(1, n + 1) if p not in row]
        basis.append(HarmonicFunction(n, zip(outside, row)))
    return tuple(basis)


def harmonic_weight_enumerator(c: BinaryCode, f: HarmonicFunction) -> polyring.HomPoly:
    """Sum over codewords of f~(support) x^(n-wt) y^wt."""
    return polyring.HomPoly(c.n, tuple(harmonic_weight_enumerators(c, (f,))[0]))


def harmonic_weight_enumerators(
    c: BinaryCode, fs: Sequence[HarmonicFunction]
) -> list[list[int]]:
    """The coefficients of y^0..y^n of the harmonic weight enumerator of c
    for each f in fs, from one pass over the weight leaves: per bit-sliced
    chunk, the coefficient of y^w is the sum of f~ over leaf w. A word with
    f~ nonzero holds one point of each of f's k pairs, so only the leaves
    k <= w <= n - k of the least k in fs are read."""
    for f in fs:
        if f.n != c.n:
            raise ValueError("code length and function ground set differ")
    if not fs:
        return []
    k = min(f.k for f in fs)
    coeffs = [[0] * (c.n + 1) for _ in fs]
    for _, _, columns, leaves in _weight_leaves(c):
        for out, sums in zip(coeffs, _fold_sums([0, *columns], leaves[k:c.n - k + 1], fs)):
            for w, s in enumerate(sums, k):
                out[w] += s
    return coeffs


def zcf(c: BinaryCode, f: HarmonicFunction) -> polyring.HomPoly:
    """The harmonic enumerator with its forced (xy)^k factor divided out."""
    enum = harmonic_weight_enumerator(c, f)
    return enum.divide_xy(f.k)


def bachoc_transform(
    z: polyring.HomPoly, k: int, code_size: int, n: int
) -> polyring.HomPoly:
    """Image of a degree n-2k quotient enumerator under the dual transform
    (-1)^k (2^k / code_size) z(x+y, x-y); the radical-2 scaling folds into an
    exact power of two because the two half-degree exponents cancel. The
    integer image is divided by code_size coefficient by coefficient, so a
    coefficient is a Fraction only where code_size does not divide it."""
    if k < 0 or code_size < 1:
        raise ValueError("bad transform parameters")
    if z.degree != n - 2 * k:
        raise ValueError(f"expected degree {n - 2 * k}, got {z.degree}")
    if n % 2:
        raise ValueError("odd length: the 2-power exponents are not integral")
    scale, coeffs = (-1) ** k << k, []
    for c in z.substitute_sum_diff().coeffs:
        c *= scale
        q, r = divmod(c, code_size)
        if r:
            from fractions import Fraction

            q = Fraction(c, code_size)
        coeffs.append(q)
    return polyring.HomPoly(z.degree, tuple(coeffs))


def delsarte_design_check(d: designs.Design, t: int) -> bool:
    """Design test through harmonic spaces: the blocks of d form a t-design
    exactly when sum_b f~(b) vanishes for every f in harm_basis(d.v, k),
    k = 1..t. The sums are folded from the b-bit point masks of d (bit i for
    block i, so repeated blocks keep their multiplicity)."""
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    incidence, every_block = designs._incidence(d.v, d.blocks), [(1 << d.b) - 1]
    for k in range(1, t + 1):
        if any(s for (s,) in _fold_sums(incidence, every_block, harm_basis(d.v, k))):
            return False
    return True
