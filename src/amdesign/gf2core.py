"""Binary linear codes over GF(2) stored as bit-packed reduced generator bases.

The value types, the code algebra, the Gray-code walk and generator text I/O
live in ``amdesign.gf2base`` and are re-exported here; this module holds the
sliced enumeration of a code's words by weight and what is built on it."""

from __future__ import annotations

from typing import Iterator

from .gf2base import (ENUMERATION_GUARD_K, BinaryCode, EnumerationGuardError,
                      PreconditionError, Record, SearchBudgetError, WeightDistribution,
                      _check_guard, code_from_rows, code_from_strings, dual, exact_json,
                      format_generator, iter_codewords, pack_row, parse_generator_text,
                      read_generator_file, row_to_string, support)

__all__ = [
    "ENUMERATION_GUARD_K",
    "EXTREMAL",
    "NEAR_EXTREMAL",
    "NEITHER",
    "NOT_APPLICABLE",
    "EnumerationGuardError",
    "PreconditionError",
    "SearchBudgetError",
    "Record",
    "exact_json",
    "BinaryCode",
    "WeightDistribution",
    "CodeClass",
    "pack_row",
    "row_to_string",
    "support",
    "code_from_rows",
    "code_from_strings",
    "dual",
    "iter_codewords",
    "weight_distribution",
    "minimum_distance",
    "codewords_of_weight",
    "is_even",
    "is_doubly_even",
    "is_self_orthogonal",
    "mallows_sloane",
    "classify",
    "doubly_even_subcode",
    "parse_generator_text",
    "format_generator",
    "read_generator_file",
]

EXTREMAL = "extremal"
NEAR_EXTREMAL = "near_extremal"
NEITHER = "neither"
NOT_APPLICABLE = "not_applicable"


# _weight_leaves bit-slices this many basis rows into one chunk of 2^16-bit columns.
_SLICE_K = 16


def _row_pattern(r: int, size: int) -> int:
    """The size-bit integer whose bit i is bit r of i."""
    block, width = ((1 << (1 << r)) - 1) << (1 << r), 2 << r
    while width < size:
        block |= block << width
        width <<= 1
    return block


def _weight_leaves(c: BinaryCode) -> Iterator[tuple[tuple[int, ...], int, list, list]]:
    """The code as bit-sliced chunks split by word weight (guard: k <= 28).

    The first m = min(k, 16) basis rows span a chunk of 2^m words. Column j
    of the chunk is one 2^m-bit integer whose bit i is coordinate j of the
    word sum of the rows picked by the bits of i. The code is the chunk
    translated by each word of the span of the remaining rows; those offsets
    come from one Gray walk of 2^(k-m) words, and an offset complements the
    columns where it has a 1. A ripple-carry adder over the n columns gives
    the binary planes of every word's weight, and splitting the chunk by the
    planes gives leaf w, the 2^m-bit set of chunk words of weight w.

    Yields (head rows, offset, columns, leaves[0..n]) per chunk.
    """
    _check_guard(c.dimension)
    head, tail = c.basis[:_SLICE_K], c.basis[_SLICE_K:]
    size = 1 << len(head)
    full = (1 << size) - 1
    base = [0] * c.n
    for r, row in enumerate(head):
        pattern = _row_pattern(r, size)
        for j in support(row):
            base[j - 1] ^= pattern
    for offset in iter_codewords(BinaryCode(c.n, tail)):
        columns = [col ^ full if (offset >> j) & 1 else col for j, col in enumerate(base)]
        planes: list[int] = []
        for carry in columns:
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        # Split by the planes, highest first.
        leaves = [full]
        for plane in reversed(planes):
            split = []
            for leaf in leaves:
                high = leaf & plane
                split += (leaf ^ high, high)
            leaves = split
        yield head, offset, columns, (leaves + [0] * c.n)[:c.n + 1]


def _leaf_words(head: tuple[int, ...], offset: int, leaf: int) -> Iterator[int]:
    """The chunk words at the set bits of a leaf; low[i] is the sum of the
    rows of head[:8] picked by the bits of i, high[i] that of head[8:]."""
    low, high = [0], [0]
    for r, row in enumerate(head):
        span = low if r < 8 else high
        span += [x ^ row for x in span]
    bits = f"{leaf:b}"[::-1]
    i = bits.find("1")
    while i >= 0:
        yield low[i & 255] ^ high[i >> 8] ^ offset
        i = bits.find("1", i + 1)


def weight_distribution(c: BinaryCode) -> WeightDistribution:
    """Weight distribution by bit-sliced counting: the popcounts of the
    weight leaves of every chunk (guard: k <= 28)."""
    counts = [0] * (c.n + 1)
    for _, _, _, leaves in _weight_leaves(c):
        for w, leaf in enumerate(leaves):
            counts[w] += leaf.bit_count()
    return WeightDistribution({w: a for w, a in enumerate(counts) if a})


def minimum_distance(c: BinaryCode) -> int:
    """Smallest nonzero codeword weight; the zero code has none."""
    return weight_distribution(c).min_nonzero()


def codewords_of_weight(c: BinaryCode, w: int) -> list[int]:
    """All codewords of Hamming weight w, ascending as integers."""
    if w < 0 or w > c.n:
        raise ValueError("weight out of range")
    return sorted(x for head, offset, _, leaves in _weight_leaves(c)
                  for x in _leaf_words(head, offset, leaves[w]))


def is_even(c: BinaryCode) -> bool:
    # Weight parity is additive over GF(2), so only the basis needs checking.
    return all(row.bit_count() % 2 == 0 for row in c.basis)


def is_self_orthogonal(c: BinaryCode) -> bool:
    rows = c.basis
    return all(
        (rows[i] & rows[j]).bit_count() % 2 == 0
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def is_doubly_even(c: BinaryCode) -> bool:
    # wt(x+y) = wt(x) + wt(y) - 2|x&y|, so divisibility by 4 propagates from a
    # basis of weight-0 mod 4 rows with pairwise even intersections.
    return all(row.bit_count() % 4 == 0 for row in c.basis) and is_self_orthogonal(c)


def mallows_sloane(n: int, d: int) -> str:
    """Placement of an even formally self-dual [n, n/2, d] code against the
    bound d <= 2*floor(n/8) + 2: extremal at the bound, near-extremal two below.
    """
    if n < 2 or n % 2:
        raise ValueError("length must be a positive even integer")
    if d < 2 or d % 2:
        raise ValueError("minimum distance must be a positive even integer")
    bound = 2 * (n // 8) + 2
    if d > bound:
        raise ValueError(f"distance {d} exceeds the bound {bound} for length {n}")
    if d == bound:
        return EXTREMAL
    if d == bound - 2:
        return NEAR_EXTREMAL
    return NEITHER


class CodeClass(Record):
    __slots__ = ("even", "doubly_even", "self_orthogonal", "self_dual",
                 "formally_self_dual", "type_one", "type_two", "extremality")

    def __init__(self, even: bool, doubly_even: bool, self_orthogonal: bool,
                 self_dual: bool, formally_self_dual: bool, type_one: bool,
                 type_two: bool, extremality: str) -> None:
        self._set(even, doubly_even, self_orthogonal, self_dual,
                  formally_self_dual, type_one, type_two, extremality)


def classify(c: BinaryCode) -> CodeClass:
    """Structural flags plus extremality placement for even fsd codes."""
    even = is_even(c)
    doubly = is_doubly_even(c)
    self_orth = is_self_orthogonal(c)
    self_dual = self_orth and 2 * c.dimension == c.n
    # |C| = |C^perp| is necessary, and spares enumerating a large dual.
    fsd = self_dual or (2 * c.dimension == c.n
                        and weight_distribution(c) == weight_distribution(dual(c)))
    if even and fsd:
        extremality = mallows_sloane(c.n, minimum_distance(c))
    else:
        extremality = NOT_APPLICABLE
    return CodeClass(
        even=even,
        doubly_even=doubly,
        self_orthogonal=self_orth,
        self_dual=self_dual,
        formally_self_dual=fsd,
        type_one=self_dual and not doubly,
        type_two=self_dual and doubly,
        extremality=extremality,
    )


def doubly_even_subcode(c: BinaryCode) -> BinaryCode:
    """Subcode W of the words with weight divisible by 4; requires an even code.

    For an even self-orthogonal code this is the whole code or an index-2
    subcode. For even codes where the weight-0 mod 4 words are not closed
    under addition a ValueError is raised.
    """
    if not is_even(c):
        raise ValueError("code is not even")
    if is_doubly_even(c):
        return c
    count, picks = 0, []
    for j, (head, offset, _, leaves) in enumerate(_weight_leaves(c)):
        leaf = sum(leaves[::4])  # disjoint leaves: sum is OR
        count += leaf.bit_count()
        # If W is a subspace, it is spanned by the first chunk's lowest word
        # at each top index bit and by one word of each later chunk.
        cuts = [1 << b for b in range(len(head) + 1)] if j == 0 else [1 << len(head)]
        mask = 0
        for lo, hi in zip([0] + cuts, cuts):
            part = leaf & ((1 << hi) - (1 << lo))
            mask |= part & -part
        picks += _leaf_words(head, offset, mask)
    # The picks lie in W, so their span S is W exactly when |S| = |W| and
    # every word of S is doubly even.
    sub = code_from_rows(picks, c.n)
    if sub.size != count or not is_doubly_even(sub):
        raise ValueError("the doubly-even words do not form a subcode")
    return sub
