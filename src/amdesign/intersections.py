"""The block-intersection system of a design: the coverage numbers lambda_i,
intersection profiles, self-orthogonality and the nonnegative integer
solutions of the block-count linear system."""

from __future__ import annotations

from math import comb, prod
from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .gf2core import Record, SearchBudgetError

if TYPE_CHECKING:
    from fractions import Fraction

    from .designs import Design

__all__ = [
    "lambda_i",
    "IntersectionProfile",
    "intersection_profile",
    "is_self_orthogonal_design",
    "MENDELSOHN_NODE_BUDGET",
    "mendelsohn_solve",
]


def _block_mask(block: Sequence[int]) -> int:
    mask = 0
    for p in block:
        mask |= 1 << (p - 1)
    return mask


def lambda_i(t: int, v: int, k: int, lam: int, i: int) -> int | Fraction:
    """Coverage of an i-subset in a t-(v,k,lam) design, lam * C(v-i, t-i) /
    C(k-i, t-i): an int, or a Fraction where the division leaves a remainder."""
    if not 0 <= i <= t:
        raise ValueError("i out of range")
    if not 0 < k <= v:
        raise ValueError("bad parameters")
    if t > k:
        raise ValueError("t exceeds the block size")
    q, r = divmod(lam * comb(v - i, t - i), comb(k - i, t - i))
    if not r:
        return q
    from fractions import Fraction

    return Fraction(lam * comb(v - i, t - i), comb(k - i, t - i))


class IntersectionProfile(Record):
    """Counts m_i of blocks meeting a reference block in exactly i points."""

    __slots__ = ("k", "counts")

    def __init__(self, k: int, counts: tuple[int, ...]) -> None:
        if len(counts) != k + 1:
            raise ValueError("profile must have k+1 entries")
        self._set(k, counts)

    def as_dict(self) -> dict[int, int]:
        return {i: m for i, m in enumerate(self.counts) if m}


def intersection_profile(d: Design, block_index: int) -> IntersectionProfile:
    """Intersection counts of every block different (as a set) from the
    reference block; the counts sum to b minus the reference multiplicity."""
    if not 0 <= block_index < d.b:
        raise ValueError("block index out of range")
    ref = d.blocks[block_index]
    ref_mask = _block_mask(ref)
    counts = [0] * (d.k + 1)
    for other in d.blocks:
        if other == ref:
            continue
        counts[(_block_mask(other) & ref_mask).bit_count()] += 1
    return IntersectionProfile(d.k, tuple(counts))


def is_self_orthogonal_design(d: Design) -> bool:
    """True when every pairwise block intersection is congruent to k mod 2."""
    masks = [_block_mask(b) for b in d.blocks]
    parity = d.k % 2
    return all(
        (masks[i] & masks[j]).bit_count() % 2 == parity
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )


# mendelsohn_solve gives up after this many nodes of its search tree.
MENDELSOHN_NODE_BUDGET = 250_000


def _inverse_weights(points: Sequence[int]) -> list[tuple[list[int], int]]:
    """(w_a, N_a(i_a)) for each distinct point i_a, N_a(x) = prod_{b != a} (x - i_b):
    the solution of sum_a C(i_a, j) x_a = r_j, j < s = len(points), is
    x_a = sum_j w_a[j] r_j / N_a(i_a), where by Newton's forward formula w_a[j] is
    (Delta^j N_a)(0) = sum_{m <= j} (-1)^(j-m) C(j, m) N_a(m)."""
    s, weights = len(points), []
    for a, i_a in enumerate(points):
        others = points[:a] + points[a + 1:]
        values = [prod(m - i_b for i_b in others) for m in range(s)]
        weights.append(([sum((-1) ** (j - m) * comb(j, m) * values[m] for m in range(j + 1))
                         for j in range(s)], prod(i_a - i_b for i_b in others)))
    return weights


def mendelsohn_solve(
    t: int,
    v: int,
    k: int,
    lam: int,
    m: int,
    allowed_i: Iterable[int],
    fixed: Mapping[int, int] | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """Nonnegative integer solutions (n_i) of the block-count system

        sum_i C(i, j) n_i = lambda_j C(m, j)   for j = 0..t,

    with i restricted to allowed_i and optional fixed assignments. The last
    s = min(#free, t + 1) free unknowns are solved in integers from rows
    0..s-1 (over distinct i, [C(i, j)] is invertible, with the closed-form
    inverse of _inverse_weights) and the other rows are checked; the
    earlier free unknowns are searched over 0..lambda_0, each loop stopping
    once a partial row sum exceeds its total. Solutions come back
    in lexicographic order as tuples aligned with sorted(allowed_i); pass
    ``limit`` to stop after that many. A search that visits more than
    MENDELSOHN_NODE_BUDGET nodes raises SearchBudgetError.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not 0 <= m <= v:
        raise ValueError(f"m must lie in 0..{v}")
    allowed = sorted(set(allowed_i))
    if not allowed:
        raise ValueError("allowed_i is empty")
    if allowed[0] < 0 or allowed[-1] > min(k, m):
        raise ValueError("allowed intersections must lie in 0..min(k, m)")
    lambdas = []
    for j in range(t + 1):
        lj = lambda_i(t, v, k, lam, j)
        if lj.denominator != 1:
            raise ValueError(f"lambda_{j} = {lj} is not an integer")
        lambdas.append(int(lj))
    rhs = [lambdas[j] * comb(m, j) for j in range(t + 1)]
    fixed = dict(fixed or {})
    for i in fixed:
        if i not in allowed:
            raise ValueError(f"fixed index {i} is not an allowed intersection size "
                             f"({', '.join(map(str, allowed))})")
    if any(val < 0 for val in fixed.values()):
        raise ValueError("fixed values must be nonnegative")
    coeff = [[comb(i, j) for j in range(t + 1)] for i in allowed]
    if t >= 2:
        # Rows 0..2 fix sum_i (i - a)(i - a - 1) n_i, and every term is >= 0
        # at integer i: one more row that bounds the search like the others.
        a = rhs[1] // rhs[0] if rhs[0] else 0
        rhs.append(2 * rhs[2] - 2 * a * rhs[1] + a * (a + 1) * rhs[0])
        for i, row in zip(allowed, coeff):
            row.append((i - a) * (i - a - 1))
    free = [idx for idx, i in enumerate(allowed) if i not in fixed]
    s = min(len(free), t + 1)
    searched, solved = free[:len(free) - s], free[len(free) - s:]
    weights = _inverse_weights([allowed[idx] for idx in solved])
    solutions: list[tuple[int, ...]] = []
    assignment = [fixed.get(i, 0) for i in allowed]
    nodes = 0

    def extend(depth: int, partial: list[int]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > MENDELSOHN_NODE_BUDGET:
            raise SearchBudgetError(
                f"the block-count search exceeds {MENDELSOHN_NODE_BUDGET} nodes")
        if limit is not None and len(solutions) >= limit:
            return
        if depth == len(searched):
            rest = [r - p for r, p in zip(rhs, partial)]
            x = [divmod(sum(map(mul, w, rest)), den) for w, den in weights]
            # A zero remainder makes a quotient exact, whatever the sign of den.
            if any(r or val < 0 for val, r in x) or any(
                sum(coeff[idx][j] * val for idx, (val, _) in zip(solved, x)) != rest[j]
                for j in range(s, t + 1)
            ):
                return
            for idx, (val, _) in zip(solved, x):
                assignment[idx] = val
            solutions.append(tuple(assignment))
            return
        idx = searched[depth]
        for val in range(lambdas[0] + 1):
            nxt = [p + c * val for p, c in zip(partial, coeff[idx])]
            if any(n > r for n, r in zip(nxt, rhs)):
                break
            assignment[idx] = val
            extend(depth + 1, nxt)

    extend(0, [sum(c[j] * val for c, val in zip(coeff, assignment)) for j in range(len(rhs))])
    return solutions
