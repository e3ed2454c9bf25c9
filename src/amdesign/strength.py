"""The verifiers' report envelope, and the support designs of a code read
off its weight slices: the strength profile and the 1-design counts."""

from __future__ import annotations

from typing import Sequence

# designs is a lazy layer (see amdesign/__init__.py), called through the
# module so that importing this module does not load it.
from . import designs
from .gf2core import BinaryCode, Record, _weight_leaves, exact_json

__all__ = [
    "StrengthProfile",
    "VerificationReport",
    "report",
    "strength_profile",
]


class VerificationReport(Record):
    """Outcome of one scenario: verdict plus exact witness values."""

    __slots__ = ("scenario", "passed", "witnesses")

    def __init__(self, scenario: str, passed: bool, witnesses: dict) -> None:
        self._set(scenario, passed, witnesses)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def report(scenario: str, passed: bool, witnesses: dict) -> VerificationReport:
    return VerificationReport(scenario, passed, exact_json(witnesses))


class StrengthProfile(Record):
    """Design strength of every nonempty support design C_w, 0 < w < n."""

    __slots__ = ("per_weight",)

    def __init__(self, per_weight: dict) -> None:
        self._set(per_weight)

    @property
    def delta(self) -> int:
        return min(self.per_weight.values())

    @property
    def s(self) -> int:
        return max(self.per_weight.values())


def _slices(codes: Sequence[BinaryCode]) -> tuple[list[int], list[int]]:
    """(incidence, leaves) of the words of the codes, one bit per word: the
    chunks of _weight_leaves, code after code, each above the last. Bit i of
    incidence[p] (p = 1..n) is set when word i holds point p, and leaves[w]
    holds the words of weight w, so that incidence[p] & leaves[w] is the mask
    of point p in the union of the codes' support designs C_w."""
    rows, widths = [[] for _ in range(2 * codes[0].n + 1)], []
    for c in codes:
        for head, _, columns, leaves in _weight_leaves(c):
            widths.append(((1 << len(head)) + 7) >> 3)
            for row, x in zip(rows, columns + leaves):
                row.append(x)
    # Joined as bytes, in one pass per mask; a chunk of fewer than 8 words
    # is padded with zero bits, which lie in no leaf.
    masks = [int.from_bytes(b"".join(x.to_bytes(width, "little")
                                     for x, width in zip(row, widths)), "little")
             for row in rows]
    return [0] + masks[:codes[0].n], masks[codes[0].n:]


def _slice_check(incidence: list[int], leaf: int, t: int):
    """designs._t_design_check of the support design held by leaf, 1 <= t <= w."""
    designs._walk_guard(len(incidence) - 1, t)
    return designs._cover_walk(incidence, t, leaf)


def strength_profile(c: BinaryCode, t_cap: int) -> StrengthProfile:
    """Strength of each C_w up to min(t_cap, w): a block of size w bounds t."""
    incidence, leaves = _slices([c])
    per = {}
    for w in range(1, c.n):
        if leaves[w]:
            if t_cap < 0:
                raise ValueError("t_max out of range")
            per[w] = 0
            for t in range(1, min(t_cap, w) + 1):
                if _slice_check(incidence, leaves[w], t)[0] is None:
                    break
                per[w] = t
    if not per:
        raise ValueError("no weights strictly between 0 and n")
    return StrengthProfile(per)


def _counting_route(incidence: list[int], leaves: list[int]) -> tuple[dict, tuple | None]:
    """lambda_1 of the union of the sliced codes' support designs C_w for
    each w, 0 < w < n, where it has a block (None where it is no 1-design),
    and the first failing weight with its violation."""
    lambdas, first_violation = {}, None
    for w in range(1, len(incidence) - 1):
        if leaves[w]:
            lambdas[w], violation = _slice_check(incidence, leaves[w], 1)
            if violation and first_violation is None:
                first_violation = (w, violation)
    return lambdas, first_violation
