"""Discrete harmonic functions on k-subsets and harmonic weight enumerators.

A function on the k-subsets of {1..n} is stored sparsely as
{point mask: value}, with bit p-1 set for point p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .gf2core import BinaryCode, EnumerationGuardError, Record, _weight_leaves, support
from .polyring import HomPoly

__all__ = [
    "SUBSET_GUARD",
    "HarmonicFunction",
    "gamma",
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


def _mask(points: Iterable[int]) -> int:
    return sum(1 << (p - 1) for p in points)


class HarmonicFunction(Record):
    """An exact-valued function on the k-subsets of {1..n}.

    ``terms`` maps the point mask of each k-subset with a nonzero value to
    that value; absent subsets are 0. Instances returned by harm_basis lie in
    the kernel of gamma; the constructor itself accepts any values so that
    gamma images and linear combinations are represented the same way.
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: Mapping[int, int | Fraction]) -> None:
        if k < 0 or k > n:
            raise ValueError("k out of range")
        for m in terms:
            if not 0 <= m < 1 << n or m.bit_count() != k:
                raise ValueError(f"mask {m:#x} is not a {k}-subset of 1..{n}")
        self._set(n, k, MappingProxyType({m: v for m, v in terms.items() if v}))

    def value_on(self, subset: Sequence[int]) -> int | Fraction:
        if len(subset) != self.k:
            raise ValueError("subset has the wrong size")
        return self.terms.get(_mask(subset), 0)

    def tilde(self, points: Iterable[int]) -> int | Fraction:
        """Sum of the function over all k-subsets of the given point set."""
        block = _mask(points)
        return sum(v for m, v in self.terms.items() if m & block == m)

    def is_harmonic(self) -> bool:
        return self.k == 0 or not gamma(self).terms

    def __add__(self, other: "HarmonicFunction") -> "HarmonicFunction":
        if not isinstance(other, HarmonicFunction):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("domain mismatch")
        out = dict(self.terms)
        for m, v in other.terms.items():
            out[m] = out.get(m, 0) + v
        return HarmonicFunction(self.n, self.k, out)

    def __mul__(self, scalar: int | Fraction) -> "HarmonicFunction":
        return HarmonicFunction(
            self.n, self.k, {m: v * scalar for m, v in self.terms.items()})

    __rmul__ = __mul__


def gamma(f: HarmonicFunction) -> HarmonicFunction:
    """Down-shift operator: (gamma f)(y) = sum of f over k-subsets covering y."""
    if f.k == 0:
        raise ValueError("gamma is undefined below degree 1")
    out: dict[int, int | Fraction] = {}
    for z, val in f.terms.items():
        rest = z
        while rest:
            bit = rest & -rest
            rest ^= bit
            out[z ^ bit] = out.get(z ^ bit, 0) + val
    return HarmonicFunction(f.n, f.k - 1, out)


def harm_dimension(n: int, k: int) -> int:
    """dim Harm_k(n): C(n,k) - C(n,k-1) for k <= n/2, 1 at k = 0, and 0 for
    n/2 < k <= n."""
    if k < 0 or k > n:
        raise ValueError("k out of range")
    if 2 * k > n:
        return 0
    return comb(n, k) - comb(n, k - 1) if k else 1


@lru_cache(maxsize=None)
def harm_basis(n: int, k: int) -> tuple[HarmonicFunction, ...]:
    """Basis of the harmonic space Harm_k(n): the standard polytabloids of
    shape (n-k, k), one per second row b_1 < ... < b_k with b_i >= 2i, in
    lexicographic order of the row.

    Column i pairs b_i with a_i, the i-th smallest point outside the row
    (a_i < b_i). The polytabloid is +-1 on each k-subset that meets every
    pair once, with sign (-1)^(number of a_i taken), and 0 elsewhere; so its
    tilde on a block B is prod_i (1_B(b_i) - 1_B(a_i)). Gamma kills it,
    because each (k-1)-subset misses some pair and the two ways of completing
    it there cancel; the polytabloids are independent and span the kernel
    (James, LNM 682, the standard basis of the Specht module S^(n-k,k)).
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
        terms = {0: 1}
        for a, b in zip(outside, row):
            terms = {m | bit: s * v for m, v in terms.items()
                     for bit, s in ((1 << (b - 1), 1), (1 << (a - 1), -1))}
        basis.append(HarmonicFunction(n, k, terms))
    return tuple(basis)


def harmonic_weight_enumerator(c: BinaryCode, f: HarmonicFunction) -> HomPoly:
    """Sum over codewords of f~(support) x^(n-wt) y^wt."""
    return harmonic_weight_enumerators(c, (f,))[0]


def harmonic_weight_enumerators(
    c: BinaryCode, fs: Sequence[HarmonicFunction]
) -> list[HomPoly]:
    """The harmonic weight enumerator of c for each f in fs, from one pass
    over the weight leaves. The coefficient of y^w sums v * |weight-w words
    containing m| over the terms (m, v) of f; per bit-sliced chunk, the
    popcount of leaf w ANDed with m's columns, counted once per mask."""
    for f in fs:
        if f.n != c.n:
            raise ValueError("code length and function ground set differ")
    if not fs:
        return []
    coeffs = [[0] * (c.n + 1) for _ in fs]
    for _, _, columns, leaves in _weight_leaves(c):
        live = [(w, leaf) for w, leaf in enumerate(leaves) if leaf]
        counts: dict[int, list[tuple[int, int]]] = {}
        for f, out in zip(fs, coeffs):
            for m, v in f.terms.items():
                if m not in counts:
                    cover = -1  # all ones: the AND over no points
                    for p in support(m):
                        cover &= columns[p - 1]
                    counts[m] = [(w, (leaf & cover).bit_count()) for w, leaf in live]
                for w, a in counts[m]:
                    out[w] += v * a
    return [HomPoly(c.n, tuple(out)) for out in coeffs]


def zcf(c: BinaryCode, f: HarmonicFunction) -> HomPoly:
    """The harmonic enumerator with its forced (xy)^k factor divided out."""
    enum = harmonic_weight_enumerator(c, f)
    return enum.divide_xy(f.k)


def bachoc_transform(z: HomPoly, k: int, code_size: int, n: int) -> HomPoly:
    """Image of a degree n-2k quotient enumerator under the dual transform
    (-1)^k (2^k / code_size) z(x+y, x-y); the radical-2 scaling folds into an
    exact power of two because the two half-degree exponents cancel."""
    if k < 0 or code_size < 1:
        raise ValueError("bad transform parameters")
    if z.degree != n - 2 * k:
        raise ValueError(f"expected degree {n - 2 * k}, got {z.degree}")
    if n % 2:
        raise ValueError("odd length: the 2-power exponents are not integral")
    scale = Fraction((-1) ** k * (1 << k), code_size)
    return z.substitute_sum_diff() * scale


def delsarte_design_check(
    blocks: Sequence[Sequence[int]], n: int, t: int
) -> bool:
    """Design test through harmonic spaces: the block multiset is a t-design
    exactly when sum_b f~(b) vanishes for every f in harm_basis(n, k), k=1..t.

    Each point gets a b-bit incidence mask (bit i for block i, so repeated
    blocks keep their multiplicity), and sum_b f~(b) is the sum over the
    terms (m, v) of f of v times the popcount of the AND of m's masks."""
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
    incidence = [0] * (n + 1)
    for i, b in enumerate(blocks):
        for p in b:
            incidence[p] |= 1 << i
    for k in range(1, t + 1):
        for f in harm_basis(n, k):
            total = 0
            for m, v in f.terms.items():
                cover = -1  # all ones: the AND over no points
                for p in support(m):
                    cover &= incidence[p]
                total += v * cover.bit_count()
            if total:
                return False
    return True
