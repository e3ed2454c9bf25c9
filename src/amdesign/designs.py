"""Block designs as multisets: t-design counting, support designs of codes,
complements, the code a design spans and the design JSON reader. Intersection
numbers and the block-count linear system live in ``amdesign.intersections``
and are re-exported here."""

from __future__ import annotations

import json
from math import comb
from pathlib import Path
from typing import Mapping, Sequence

from .gf2core import (BinaryCode, EnumerationGuardError, Record, code_from_rows,
                      codewords_of_weight, support)
from .intersections import (MENDELSOHN_NODE_BUDGET, IntersectionProfile, _block_mask,
                            intersection_profile, is_self_orthogonal_design, lambda_i,
                            mendelsohn_solve)

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
                # as plain ints so that design JSON prints them as numbers.
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
    """(lambda, violation) from one walk of the b-bit point masks (bit i for
    block i): exactly one of the two is None. C(v, t) above DESIGN_GUARD
    raises EnumerationGuardError before anything is allocated."""
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    if t == 0:
        return d.b, None
    _walk_guard(d.v, t)
    return _cover_walk(_incidence(d), t, (1 << d.b) - 1)


def _incidence(d: Design) -> list[int]:
    """The b-bit point masks of d: bit i of [p] is set when block i holds
    point p, 1 <= p <= v."""
    incidence = [0] * (d.v + 1)
    for i, block in enumerate(d.blocks):
        for p in block:
            incidence[p] |= 1 << i
    return incidence


def _walk_guard(v: int, t: int) -> None:
    if comb(v, t) > DESIGN_GUARD:
        raise EnumerationGuardError(
            f"C({v},{t}) exceeds the design guard {DESIGN_GUARD}")


def _cover_walk(incidence: Sequence[int], t: int, every_block: int) -> tuple:
    """(lambda, violation) of the blocks at the bits of every_block, where
    incidence[p] holds the blocks on point p, 1 <= p <= v, and 1 <= t <= v.

    The cover of a t-subset is the popcount of the AND of every_block with
    its points' masks. The t-subsets are walked in lexicographic order, each
    prefix's AND shared by the subsets below it, until one's cover differs
    from the first subset's. That pair is the violation, the witness of
    t_design_violation: the lexicographically first t-subset with its cover,
    then the first t-subset after it whose cover differs."""
    v = len(incidence) - 1
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


def code_from_design(d: Design) -> BinaryCode:
    """GF(2) span of the block characteristic vectors."""
    return code_from_rows((_block_mask(b) for b in d.blocks), d.v)


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
