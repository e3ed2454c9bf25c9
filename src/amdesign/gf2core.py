"""Binary linear codes over GF(2) stored as bit-packed reduced generator bases."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

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

# Full enumeration of 2^k codewords is refused above this dimension.
ENUMERATION_GUARD_K = 28

EXTREMAL = "extremal"
NEAR_EXTREMAL = "near_extremal"
NEITHER = "neither"
NOT_APPLICABLE = "not_applicable"


class EnumerationGuardError(Exception):
    """An operation would exceed the desk-scale enumeration guard."""


class SearchBudgetError(Exception):
    """A randomized search ran out of its iteration budget."""


class PreconditionError(ValueError):
    """A scenario's hypotheses do not hold for the given input."""


class Record:
    """An immutable value: the fields are the names in ``__slots__``, which
    the subclass's ``__init__`` sets once through ``_set``. Equality and the
    hash go by the fields; instances of different classes never compare equal.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def fields(self) -> dict:
        """Field name -> value, in declaration order."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self.fields().items())
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()


def exact_json(value):
    """Recursively convert witness values to JSON-native data, rendering
    integers and rationals (numbers.Rational, such as Fraction) as strings
    so reports diff bit-exactly."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {str(k): exact_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact_json(v) for v in value]
    import numbers

    if isinstance(value, numbers.Rational):
        return str(value)
    raise TypeError(f"cannot serialize witness of type {type(value).__name__}")


def pack_row(bits: str | Iterable[int]) -> int:
    """Pack '0'/'1' characters (or 0/1 ints) into a bitset; position 0 is bit 0."""
    row = 0
    for i, b in enumerate(bits):
        if b in ("1", 1):
            row |= 1 << i
        elif b not in ("0", 0):
            raise ValueError(f"invalid bit {b!r}")
    return row


def row_to_string(row: int, n: int) -> str:
    return "".join("1" if (row >> i) & 1 else "0" for i in range(n))


def support(word: int) -> tuple[int, ...]:
    """1-based coordinates of the nonzero positions of a bitset."""
    pts = []
    while word:
        low = word & -word
        pts.append(low.bit_length())
        word ^= low
    return tuple(pts)


def _rref(rows: Iterable[int]) -> list[int]:
    # Reduced row echelon form over GF(2); each row's pivot is its lowest set bit
    # and appears in no other row, so the sorted result is canonical.
    reduced: list[int] = []
    for row in rows:
        for r in reduced:
            if row & (r & -r):
                row ^= r
        if row:
            low = row & -row
            for i, r in enumerate(reduced):
                if r & low:
                    reduced[i] = r ^ row
            reduced.append(row)
    reduced.sort(key=lambda r: r & -r)
    return reduced


class BinaryCode(Record):
    """A binary linear code; the stored basis is the canonical reduced form.

    Any row set passed in is reduced on construction, so two values describing
    the same subspace of GF(2)^n compare equal.
    """

    __slots__ = ("n", "basis")

    def __init__(self, n: int, basis: tuple[int, ...] = ()) -> None:
        if n < 1:
            raise ValueError("code length must be positive")
        for row in basis:
            if row < 0 or row >> n:
                raise ValueError("generator row does not fit the code length")
        self._set(n, tuple(_rref(basis)))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << len(self.basis)


def code_from_rows(rows: Iterable[int], n: int) -> BinaryCode:
    """Code spanned by bit-packed rows inside GF(2)^n."""
    return BinaryCode(n, tuple(rows))


def code_from_strings(rows: Iterable[str]) -> BinaryCode:
    """Code spanned by '0'/'1' strings; all rows must share one length."""
    rows = list(rows)
    if not rows:
        raise ValueError("no generator rows given")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged row lengths")
    if n == 0:
        raise ValueError("code length must be positive")
    return BinaryCode(n, tuple(pack_row(r) for r in rows))


def dual(c: BinaryCode) -> BinaryCode:
    """Orthogonal complement under the standard inner product."""
    pivots = [(row & -row).bit_length() - 1 for row in c.basis]
    pivot_set = set(pivots)
    rows = []
    for free in range(c.n):
        if free in pivot_set:
            continue
        v = 1 << free
        for p, row in zip(pivots, c.basis):
            if (row >> free) & 1:
                v |= 1 << p
        rows.append(v)
    return BinaryCode(c.n, tuple(rows))


def _check_guard(k: int) -> None:
    if k > ENUMERATION_GUARD_K:
        raise EnumerationGuardError(
            f"dimension {k} exceeds the enumeration guard "
            f"k <= {ENUMERATION_GUARD_K}"
        )


def iter_codewords(c: BinaryCode) -> Iterator[int]:
    """All 2^k codewords in Gray-code order, one basis XOR per step."""
    _check_guard(c.dimension)
    word = 0
    yield word
    for m in range(1, 1 << c.dimension):
        word ^= c.basis[(m & -m).bit_length() - 1]
        yield word


class WeightDistribution(Record):
    """Exact codeword counts by Hamming weight, weights ascending; zero counts dropped."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int]) -> None:
        clean: dict[int, int] = {}
        for w in sorted(counts):
            a = counts[w]
            if w < 0 or a < 0:
                raise ValueError("weights and counts must be nonnegative")
            if a:
                clean[int(w)] = int(a)
        self._set(clean)

    def count(self, w: int) -> int:
        return self.counts.get(w, 0)

    def min_nonzero(self) -> int:
        weights = [w for w in self.counts if w]
        if not weights:
            raise ValueError("the zero code has no minimum distance")
        return min(weights)


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

    The first m = min(k, 16) basis rows span a chunk of 2^m words: bit i of
    column j is coordinate j of the sum of the rows picked by the bits of i.
    The code is the chunk translated by each offset in the span of the other
    rows, met by one Gray walk; a step adds one row to the offset and so
    complements the columns on its support. Leaf w is the 2^m-bit set of
    chunk words of weight w (see _chunk_leaves).

    Yields (head rows, offset, columns, leaves[0..n]) per chunk. columns is
    one list, updated in place, and leaves is emptied before the next chunk
    is built: a consumer copies what it keeps.
    """
    _check_guard(c.dimension)
    head, tail = c.basis[:_SLICE_K], c.basis[_SLICE_K:]
    size = 1 << len(head)
    full = (1 << size) - 1
    columns, previous = [0] * c.n, 0
    for r, row in enumerate(head):
        pattern = _row_pattern(r, size)
        for j in support(row):
            columns[j - 1] ^= pattern
    for offset in iter_codewords(BinaryCode(c.n, tail)):
        for j in support(offset ^ previous):
            columns[j - 1] ^= full
        previous = offset
        leaves = _chunk_leaves(columns, full)
        yield head, offset, columns, leaves
        leaves.clear()


def _chunk_leaves(columns: list[int], full: int) -> list[int]:
    """Leaves 0..n of a chunk of n columns, the words of the chunk being the
    bits of full: a ripple-carry adder over the columns gives the binary
    planes of every word's weight, and splitting the chunk by the planes
    gives leaf w, the words of weight w."""
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
    # Split by the planes, highest first, each plane and leaf dropped once used.
    leaves = [full]
    while planes:
        plane = planes.pop()
        split = []
        while leaves:
            leaf = leaves.pop()
            high = leaf & plane
            split += (high, leaf ^ high)
        split.reverse()
        leaves = split
    return (leaves + [0] * len(columns))[:len(columns) + 1]


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


def classify(c: BinaryCode, wd: WeightDistribution | None = None) -> CodeClass:
    """Structural flags plus extremality placement for even fsd codes; wd,
    when the caller has it, is c's weight distribution and spares a walk."""
    even = is_even(c)
    doubly = is_doubly_even(c)
    self_orth = is_self_orthogonal(c)
    self_dual = self_orth and 2 * c.dimension == c.n
    # |C| = |C^perp| is necessary, and spares enumerating a large dual.
    fsd = self_dual or (2 * c.dimension == c.n
                        and (wd or weight_distribution(c)) == weight_distribution(dual(c)))
    if even and fsd:
        extremality = mallows_sloane(c.n, wd.min_nonzero() if wd else minimum_distance(c))
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


def parse_generator_text(text: str) -> BinaryCode:
    """Parse a generator matrix: '0'/'1' rows, '#' comments, blank lines skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ValueError("no generator rows found")
    return code_from_strings(rows)


def format_generator(c: BinaryCode) -> str:
    return "".join(row_to_string(row, c.n) + "\n" for row in c.basis)


def read_generator_file(path: str | Path) -> BinaryCode:
    return parse_generator_text(Path(path).read_text())
