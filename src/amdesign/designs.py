"""Block designs as multisets: t-design counting, support designs of codes,
intersection numbers, and the block-count linear system."""

from __future__ import annotations

import json
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import ratlin
from .gf2core import (BinaryCode, EnumerationGuardError, Record, SearchBudgetError,
                      code_from_rows, codewords_of_weight, support)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Design",
    "support_design",
    "union",
    "is_t_design",
    "t_design_violation",
    "design_strength",
    "complement_design",
    "DESIGN_GUARD",
    "lambda_i",
    "IntersectionProfile",
    "intersection_profile",
    "is_self_orthogonal_design",
    "MENDELSOHN_NODE_BUDGET",
    "mendelsohn_solve",
    "code_from_design",
    "format_design",
    "read_design_file",
]


class Design(Record):
    """A multiset of equal-size blocks on the point set {1..v}.

    Blocks are stored sorted (each block internally and the block list), so
    equality is multiset equality. A block given as a sorted tuple of plain
    ints is stored as it is, so a design built from such tuples holds each
    block once.
    """

    __slots__ = ("v", "blocks")

    def __init__(self, v: int, blocks: Sequence[Sequence[int]]) -> None:
        if not _is_int(v):
            raise ValueError("point count must be an integer")
        if v < 1:
            raise ValueError("point count must be positive")
        if not blocks:
            raise ValueError("a design needs at least one block")
        norm = []
        size = None
        for block in blocks:
            if _INT_ONLY.issuperset(map(type, block)):
                b = tuple(sorted(block))
                if type(block) is tuple and b == block:
                    b = block
            else:
                # The slow path admits int subclasses other than bool, stored
                # as plain ints so that format_design prints them as numbers.
                if not all(map(_is_int, block)):
                    raise ValueError("block points must be integers")
                b = tuple(sorted(map(int, block)))
            if len(set(b)) != len(b):
                raise ValueError("block has a repeated point")
            if size is None:
                size = len(b)
            elif len(b) != size:
                raise ValueError("blocks must share one size")
            if not b or b[0] < 1 or b[-1] > v:
                raise ValueError("block point out of range")
            norm.append(b)
        norm.sort()
        self._set(int(v), tuple(norm))

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def b(self) -> int:
        return len(self.blocks)


_INT_ONLY = frozenset({int})


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _block_mask(block: Sequence[int]) -> int:
    mask = 0
    for p in block:
        mask |= 1 << (p - 1)
    return mask


def support_design(c: BinaryCode, w: int) -> Design:
    """Design whose blocks are the supports of the weight-w codewords."""
    if w < 1 or w > c.n:
        raise ValueError("weight out of range")
    words = codewords_of_weight(c, w)
    if not words:
        raise ValueError(f"no codewords of weight {w}")
    return Design(c.n, tuple(support(word) for word in words))


def union(d1: Design, d2: Design) -> Design:
    """Multiset union; repeated blocks keep their multiplicity."""
    if d1.v != d2.v:
        raise ValueError("point-set mismatch")
    if d1.k != d2.k:
        raise ValueError("block-size mismatch")
    return Design(d1.v, d1.blocks + d2.blocks)


# t-design checks are refused when C(v, t) exceeds this, and complements when
# v*b does: the check walks C(v, t) t-subsets with a list of v masks, and the
# complement holds up to v*b points.
DESIGN_GUARD = 2_000_000


def _t_design_check(
    d: Design, t: int
) -> tuple[int | None, tuple[tuple[int, ...], int, tuple[int, ...], int] | None]:
    """(lambda, violation) from one walk: exactly one of the two is None.

    Each point gets a b-bit incidence mask (bit i for block i), and the cover
    of a t-subset is the popcount of the AND of its points' masks. The
    t-subsets are walked in lexicographic order, each prefix's AND shared by
    the subsets below it, until one's cover differs from the first subset's.
    That pair is the violation, the witness of t_design_violation: the
    lexicographically first t-subset with its cover, then the first t-subset
    after it whose cover differs. C(v, t) above DESIGN_GUARD raises
    EnumerationGuardError before anything is allocated."""
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    if t == 0:
        return d.b, None
    v = d.v
    if comb(v, t) > DESIGN_GUARD:
        raise EnumerationGuardError(
            f"C({v},{t}) exceeds the design guard {DESIGN_GUARD}")
    incidence = [0] * (v + 1)
    for i, block in enumerate(d.blocks):
        for p in block:
            incidence[p] |= 1 << i
    every_block = (1 << d.b) - 1
    first = tuple(range(1, t + 1))
    cover = every_block
    for p in first:
        cover &= incidence[p]
    lam = cover.bit_count()

    def differing(prefix: tuple[int, ...], cover: int, start: int):
        # The first t-subset extending prefix by points >= start whose
        # cover is not lam, with that cover; None when there is none.
        if len(prefix) == t - 1:
            for q in range(start, v + 1):
                count = (cover & incidence[q]).bit_count()
                if count != lam:
                    return prefix + (q,), count
            return None
        for q in range(start, v - t + len(prefix) + 2):
            found = differing(prefix + (q,), cover & incidence[q], q + 1)
            if found is not None:
                return found
        return None

    found = differing((), every_block, 1)
    if found is None:
        return lam, None
    return None, (first, lam, *found)


def is_t_design(d: Design, t: int) -> int | None:
    """The constant t-subset coverage count, or None when coverage varies."""
    return _t_design_check(d, t)[0]


def t_design_violation(
    d: Design, t: int
) -> tuple[tuple[int, ...], int, tuple[int, ...], int] | None:
    """First pair of t-subsets with differing coverage, or None for a design."""
    return _t_design_check(d, t)[1]


def design_strength(d: Design, t_max: int) -> int:
    """Largest t <= t_max for which the blocks form a t-design; 0 if none."""
    if t_max < 0 or t_max > d.k:
        raise ValueError("t_max out of range")
    strength = 0
    for t in range(1, t_max + 1):
        if is_t_design(d, t) is None:
            break
        strength = t
    return strength


def complement_design(d: Design) -> Design:
    """Blockwise complement inside the same point set; v*b above DESIGN_GUARD
    raises EnumerationGuardError."""
    if d.k == d.v:
        raise ValueError("complement blocks would be empty")
    if d.v * d.b > DESIGN_GUARD:
        raise EnumerationGuardError(
            f"v*b = {d.v * d.b} exceeds the design guard {DESIGN_GUARD}")
    full = set(range(1, d.v + 1))
    return Design(d.v, tuple(tuple(sorted(full - set(b))) for b in d.blocks))


def lambda_i(t: int, v: int, k: int, lam: int, i: int) -> Fraction:
    """Coverage of an i-subset in a t-(v,k,lam) design:
    lam * C(v-i, t-i) / C(k-i, t-i)."""
    if not 0 <= i <= t:
        raise ValueError("i out of range")
    if not 0 < k <= v:
        raise ValueError("bad parameters")
    if t > k:
        raise ValueError("t exceeds the block size")
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
    s = min(#free, t + 1) free unknowns are solved exactly from rows 0..s-1
    (over distinct i, [C(i, j)] is a Vandermonde matrix up to row
    operations, so it is invertible) and the other rows are checked; the
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
    if any(i not in allowed for i in fixed):
        raise ValueError("fixed index outside allowed_i")
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
    # inverse[j] is column j of the inverse of [C(i, j)] over the solved i, j < s.
    inverse = [ratlin.solve_columns([coeff[idx][:s] for idx in solved],
                                    [int(r == j) for r in range(s)])[0]
               for j in range(s)]
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
            x = [sum(col[a] * rest[j] for j, col in enumerate(inverse)) for a in range(s)]
            if any(val < 0 or val.denominator != 1 for val in x) or any(
                sum(coeff[idx][j] * val for idx, val in zip(solved, x)) != rest[j]
                for j in range(s, t + 1)
            ):
                return
            for idx, val in zip(solved, x):
                assignment[idx] = int(val)
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


def code_from_design(d: Design) -> BinaryCode:
    """GF(2) span of the block characteristic vectors."""
    return code_from_rows((_block_mask(b) for b in d.blocks), d.v)


def format_design(d: Design) -> str:
    """The design JSON {"v": v, "blocks": [[...], ...]} in json.dumps's
    default spacing, joined from one string per block instead of the
    encoder's chunk per number and separator."""
    return f'{{"v": {d.v}, "blocks": [' + ", ".join(map(str, map(list, d.blocks))) + "]}"


def _json_blocks(obj) -> list:
    """The block list of design JSON, once its shape is checked."""
    if not isinstance(obj, Mapping) or "v" not in obj or "blocks" not in obj:
        raise ValueError("design JSON needs 'v' and 'blocks'")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("design JSON 'blocks' must be a list of lists")
    return blocks


def read_design_file(path: str | Path) -> Design:
    try:
        obj = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("design JSON nests too deeply") from None
    blocks = _json_blocks(obj)
    # The parsed object is not shared: each block list becomes a tuple in
    # place, which Design keeps when it is sorted, so no block is held twice.
    for i, block in enumerate(blocks):
        blocks[i] = tuple(block)
    return Design(obj["v"], blocks)
