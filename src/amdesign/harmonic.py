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

from . import polyring
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


def _fold(pairs: Sequence[tuple[int, int]], columns: Sequence[int]) -> tuple[int, int]:
    """f~ on a set of items, where columns[p-1] is the bitset of the items
    that contain point p: the items that meet every pair once, on which f~
    is +-1, and those of them that take an odd number of the a_i, on which
    it is -1. The sum of f~ over a bitset S of items is therefore
    popcount(S & meet) - 2 * popcount(S & odd)."""
    meet, odd = -1, 0  # all ones: the product over no pairs
    for a, b in pairs:
        ca = columns[a - 1]
        meet &= ca ^ columns[b - 1]
        odd = (odd ^ ca) & meet
    return meet, odd


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
    return harmonic_weight_enumerators(c, (f,))[0]


def harmonic_weight_enumerators(
    c: BinaryCode, fs: Sequence[HarmonicFunction]
) -> list[polyring.HomPoly]:
    """The harmonic weight enumerator of c for each f in fs, from one pass
    over the weight leaves. Per bit-sliced chunk, f's pairs fold the chunk's
    columns into the words where f~ is nonzero and those where it is -1; the
    coefficient of y^w reads both sets ANDed with leaf w. A word with f~
    nonzero holds one point of each of f's k pairs, so only the leaves
    k <= w <= n - k are read."""
    for f in fs:
        if f.n != c.n:
            raise ValueError("code length and function ground set differ")
    if not fs:
        return []
    coeffs = [[0] * (c.n + 1) for _ in fs]
    for _, _, columns, leaves in _weight_leaves(c):
        live = [(w, leaf) for w, leaf in enumerate(leaves) if leaf]
        for f, out in zip(fs, coeffs):
            meet, odd = _fold(f.pairs, columns)
            k = f.k
            for w, leaf in live:
                if k <= w <= c.n - k:
                    out[w] += (leaf & meet).bit_count() - 2 * (leaf & odd).bit_count()
    return [polyring.HomPoly(c.n, tuple(out)) for out in coeffs]


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
    scaled = z.substitute_sum_diff() * ((-1) ** k * (1 << k))
    coeffs = []
    for c in scaled.coeffs:
        q, r = divmod(c, code_size)
        if r:
            from fractions import Fraction

            q = Fraction(c, code_size)
        coeffs.append(q)
    return polyring.HomPoly(z.degree, tuple(coeffs))


def delsarte_design_check(
    blocks: Sequence[Sequence[int]], n: int, t: int
) -> bool:
    """Design test through harmonic spaces: the block multiset is a t-design
    exactly when sum_b f~(b) vanishes for every f in harm_basis(n, k), k=1..t.

    Each point gets a b-bit incidence mask (bit i for block i, so repeated
    blocks keep their multiplicity); f's pairs fold those masks into the
    blocks where f~ is nonzero and those where it is -1, and sum_b f~(b)
    vanishes when the first set has twice as many blocks as the second."""
    if not blocks:
        raise ValueError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must share one size")
    (m,) = sizes
    if m > n:
        raise ValueError("block size exceeds the ground set")
    if t < 0 or t > m:
        raise ValueError("t out of range")
    for b in blocks:
        if len(set(b)) != m:
            raise ValueError(f"block {list(b)} repeats a point")
        if not all(1 <= p <= n for p in b):
            raise ValueError(f"block {list(b)} has a point outside 1..{n}")
    incidence = [0] * n
    for i, b in enumerate(blocks):
        for p in b:
            incidence[p - 1] |= 1 << i
    for k in range(1, t + 1):
        for f in harm_basis(n, k):
            meet, odd = _fold(f.pairs, incidence)
            if meet.bit_count() != 2 * odd.bit_count():
                return False
    return True
