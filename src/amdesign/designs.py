"""Block designs as multisets: t-design counting, support designs of codes,
intersection numbers, and the block-count linear system."""

from __future__ import annotations

import json
from math import comb, prod
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .gf2core import (BinaryCode, EnumerationGuardError, Record, SearchBudgetError,
                      code_from_rows, codewords_of_weight, is_self_orthogonal, support)

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
    "intersection_profile",
    "is_self_orthogonal_design",
    "MENDELSOHN_NODE_BUDGET",
    "mendelsohn_solve",
    "code_from_design",
    "read_design_file",
    "design_json",
]


class Design(Record):
    """A multiset of equal-size blocks on the point set {1..v}.

    Blocks are stored sorted (each block internally and the block list), so
    equality is multiset equality. A block is bytes when v <= 255 (a third
    of a tuple's memory), else a tuple of plain ints.
    """

    __slots__ = ("v", "blocks")

    def __init__(self, v: int, blocks: Iterable[Iterable[int]]) -> None:
        # Checked before int(v), which a malformed point count would break.
        kind = bytes if _is_int(v) and v <= 255 else tuple
        blocks = tuple(sorted(map(kind, _checked_blocks(v, blocks))))
        self._set(int(v), blocks)

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def b(self) -> int:
        return len(self.blocks)


_INT_ONLY = frozenset({int})


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checked_blocks(v, blocks: Iterable[Iterable[int]]) -> Iterator[list[int]]:
    """Each block of a design on the points 1..v as a sorted list of plain
    ints. The first rule broken raises its ValueError: an integer point
    count, a positive one; then per block integer points, no point twice,
    the first block's size and points in 1..v; then a block at all."""
    if not _is_int(v):
        raise ValueError("point count must be an integer")
    if v < 1:
        raise ValueError("point count must be positive")
    size = None
    for block in blocks:
        if _INT_ONLY.issuperset(map(type, block)):
            b = sorted(block)
        # Int subclasses but bool become plain ints, which JSON prints as numbers.
        elif all(map(_is_int, block)):
            b = sorted(map(int, block))
        else:
            raise ValueError("block points must be integers")
        if len(set(b)) != len(b):
            raise ValueError("block has a repeated point")
        if size is None:
            size = len(b)
        elif len(b) != size:
            raise ValueError("blocks must share one size")
        if not b or b[0] < 1 or b[-1] > v:
            raise ValueError("block point out of range")
        yield b
    if size is None:
        raise ValueError("a design needs at least one block")


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
    return Design(c.n, map(support, words))


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


def _blocks_check(d: Design, t: int) -> tuple:
    """(lambda, violation) of the blocks of d at strength t: exactly one of
    the two is None. C(v, t) above DESIGN_GUARD raises EnumerationGuardError
    before the blocks are read."""
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    if t == 0:
        return d.b, None
    _walk_guard(d.v, t)
    return _cover_walk(_incidence(d.v, d.blocks), t, (1 << d.b) - 1)


def _incidence(v: int, blocks: Iterable[Sequence[int]]) -> list[int]:
    """The point masks of validated blocks on the points 1..v: bit i of [p]
    is set when block i holds point p."""
    incidence = [0] * (v + 1)
    for i, block in enumerate(blocks):
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
    return _blocks_check(d, t)[0]


def t_design_violation(
    d: Design, t: int
) -> tuple[tuple[int, ...], int, tuple[int, ...], int] | None:
    """First pair of t-subsets with differing coverage, or None for a design."""
    return _blocks_check(d, t)[1]


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
    return Design(d.v, (full.difference(x) for x in d.blocks))


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


def intersection_profile(d: Design, block_index: int) -> dict[int, int]:
    """{i: m_i} for each i with m_i > 0, i ascending: m_i blocks different
    (as a set) from the reference block meet it in exactly i points. The
    counts sum to b minus the reference multiplicity."""
    if not 0 <= block_index < d.b:
        raise ValueError("block index out of range")
    ref = d.blocks[block_index]
    points = set(ref)
    counts = [0] * (d.k + 1)
    for other in d.blocks:
        if other == ref:
            continue
        counts[len(points.intersection(other))] += 1
    return {i: m for i, m in enumerate(counts) if m}


def is_self_orthogonal_design(d: Design) -> bool:
    """True when every two blocks meet in k mod 2 points: when the blocks,
    with k mod 2 at point v + 1, span a self-orthogonal code."""
    parity = (d.k & 1) << d.v
    return is_self_orthogonal(code_from_rows((_block_mask(b) | parity for b in d.blocks), d.v + 1))


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


def code_from_design(d: Design) -> BinaryCode:
    """GF(2) span of the block characteristic vectors."""
    return code_from_rows((_block_mask(b) for b in d.blocks), d.v)


def design_json(v: int, blocks):
    """The design's JSON and a newline, as json.dumps spaces it, by block:
    the layout that _scan_design reads."""
    yield f'{{"v": {v}, "blocks": ['
    sep = ""
    for block in blocks:
        yield f"{sep}{list(block)}"
        sep = ", "
    yield "]}\n"


def _read_blocks(path: str | Path) -> tuple[object, list]:
    """The point count and the block list of a design JSON file, once its
    shape is checked; neither is validated. A block is bytes when
    _scan_design reads the file, else a list from json.loads."""
    text = Path(path).read_text()
    found = _scan_design(text)
    if found is not None:
        return found
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("design JSON nests too deeply") from None
    if not isinstance(obj, Mapping) or "v" not in obj or "blocks" not in obj:
        raise ValueError("design JSON needs 'v' and 'blocks'")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("design JSON 'blocks' must be a list of lists")
    return obj["v"], blocks


def _scan_design(text: str) -> tuple[object, list[bytes]] | None:
    """(v, blocks) of the text design_json and json.dumps write, read block
    by block with json's scanner, each block kept as bytes: a quarter of the
    memory of the list json.loads makes of it, and json.loads holds every
    list at once. None, for json.loads to read the text, unless it is
    '{"v": ' and a value, ', "blocks": [', lists of ints in 0..255 joined
    by ', ', then ']}' and JSON whitespace."""
    if not text.startswith('{"v": '):
        return None
    scan, blocks, sep = json.JSONDecoder().scan_once, [], ""
    try:
        v, i = scan(text, 6)
        if not text.startswith(', "blocks": [', i):
            return None
        i += 13
        while not text.startswith("]}", i):
            if not text.startswith(sep, i):
                return None
            block, i = scan(text, i + len(sep))
            if type(block) is not list or not _INT_ONLY.issuperset(map(type, block)):
                return None
            blocks.append(bytes(block))
            sep = ", "
    except (StopIteration, ValueError, RecursionError):
        return None
    if json.decoder.WHITESPACE.match(text, i + 2).end() != len(text):
        return None
    return v, blocks


def read_design_file(path: str | Path) -> Design:
    return Design(*_read_blocks(path))
