"""Binary linear codes over GF(2) stored as bit-packed reduced generator
bases: the value base ``Record``, the errors, the code algebra, the Gray-code
walk of a code's words and generator text I/O. ``amdesign.gf2core`` builds
the sliced enumeration on these and re-exports every name."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "ENUMERATION_GUARD_K",
    "EnumerationGuardError",
    "PreconditionError",
    "SearchBudgetError",
    "Record",
    "exact_json",
    "BinaryCode",
    "WeightDistribution",
    "pack_row",
    "row_to_string",
    "support",
    "code_from_rows",
    "code_from_strings",
    "dual",
    "iter_codewords",
    "parse_generator_text",
    "format_generator",
    "read_generator_file",
]

# Full enumeration of 2^k codewords is refused above this dimension.
ENUMERATION_GUARD_K = 28


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
    """Exact codeword counts by Hamming weight; zero counts are dropped."""

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
