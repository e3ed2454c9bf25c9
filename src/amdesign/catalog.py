"""Named reference codes, direct sums, randomized searches, and the pinned
code store."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Callable

from .gf2core import (
    BinaryCode,
    Record,
    SearchBudgetError,
    WeightDistribution,
    _check_guard,
    code_from_rows,
    code_from_strings,
    dual,
    format_generator,
    mallows_sloane,
    parse_generator_text,
    weight_distribution,
)

__all__ = [
    "SearchConfig",
    "SearchBudgetError",
    "BUILTIN_NAMES",
    "builtin",
    "direct_sum",
    "search_type_i_16",
    "search_even_fsd",
    "data_dir",
    "load_code",
    "save_code",
    "pinned_type_i_16",
    "pinned_even_fsd_16",
]


class SearchConfig(Record):
    __slots__ = ("seed", "max_iterations")

    def __init__(self, seed: int = 0, max_iterations: int = 1_000_000) -> None:
        if max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        self._set(seed, max_iterations)


def _i2() -> BinaryCode:
    return code_from_strings(["11"])


def _d4() -> BinaryCode:
    return code_from_strings(["1100", "0011"])


def _e8() -> BinaryCode:
    # first-order Reed-Muller generator of the [8,4,4] extended Hamming code
    return code_from_strings(
        ["11111111", "00001111", "00110011", "01010101"]
    )


_ATOMS: dict[str, Callable[[], BinaryCode]] = {"i2": _i2, "d4": _d4, "e8": _e8}

BUILTIN_NAMES = tuple(sorted(_ATOMS))


def direct_sum(a: BinaryCode, b: BinaryCode) -> BinaryCode:
    """Coordinate-disjoint sum; dimensions and lengths add."""
    rows = list(a.basis) + [row << a.n for row in b.basis]
    return code_from_rows(rows, a.n + b.n)


def builtin(name: str) -> BinaryCode:
    """Named construction; '+' composes direct sums, e.g. 'd4+d4'."""
    parts = [p.strip() for p in name.split("+")]
    if not all(parts):
        raise ValueError(f"malformed builtin name {name!r}")
    codes = []
    for part in parts:
        if part not in _ATOMS:
            raise ValueError(f"unknown builtin code {part!r}")
        codes.append(_ATOMS[part]())
    out = codes[0]
    for c in codes[1:]:
        out = direct_sum(out, c)
    return out


def _orthonormal_rows(rng: random.Random, m: int) -> list[int] | None:
    """Random rows r_1..r_m of GF(2)^m with r_i.r_j = delta_ij, or None."""
    rows: list[int] = []
    for _ in range(m):
        if rows:
            perp = dual(code_from_rows(rows, m)).basis
        else:
            perp = tuple(1 << i for i in range(m))
        candidate = None
        for _ in range(32):
            pick = rng.getrandbits(len(perp))
            x = 0
            for i, r in enumerate(perp):
                if (pick >> i) & 1:
                    x ^= r
            if x.bit_count() % 2 == 1:
                candidate = x
                break
        if candidate is None:
            return None
        rows.append(candidate)
    return rows


def search_type_i_16(cfg: SearchConfig = SearchConfig()) -> tuple[BinaryCode, WeightDistribution]:
    """Randomized search for a near-extremal Type I [16,8,4] code: the hit and its spectrum.

    Candidates are generator matrices [I | A] with A having orthonormal rows
    over GF(2), which forces self-duality; candidates are filtered for minimum
    distance 4 and a weight not divisible by 4. Deterministic given the seed.
    """
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_iterations):
        a_rows = _orthonormal_rows(rng, 8)
        if a_rows is None:
            continue
        rows = [(1 << i) | (a << 8) for i, a in enumerate(a_rows)]
        c = code_from_rows(rows, 16)
        wd = weight_distribution(c)
        if wd.min_nonzero() != 4:
            continue
        if all(w % 4 == 0 for w in wd.counts):
            continue
        return c, wd
    raise SearchBudgetError(
        f"no Type I [16,8,4] code found in {cfg.max_iterations} iterations"
    )


def search_even_fsd(n: int, d: int,
                    cfg: SearchConfig = SearchConfig()) -> tuple[BinaryCode, WeightDistribution]:
    """Randomized search for an even formally self-dual [n, n/2, d] code that
    is not self-dual: the hit and its spectrum.

    Candidates are systematic generator matrices [I | A] whose rows are
    repaired to even weight; each survivor's spectrum is compared exactly with
    its dual's. Deterministic given the seed. An (n, d) that no such code
    has (odd, or above the Mallows-Sloane bound) is refused before searching.

    A hit contains the all-ones word (it is even, and so is its dual, which
    has its spectrum), and in [I | A] form that word is the sum of all rows:
    a candidate whose A rows do not XOR to all ones is dropped uncounted.
    """
    mallows_sloane(n, d)
    half = n // 2
    if cfg.max_iterations:
        # weight_distribution's guard, checked up front: almost no candidate
        # passes the filter to trip it.
        _check_guard(half)
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_iterations):
        a_rows, total = [], 0
        for _ in range(half):
            a = rng.getrandbits(half)
            if a.bit_count() % 2 == 0:
                a ^= 1 << rng.randrange(half)
            a_rows.append(a)
            total ^= a
        if total != (1 << half) - 1:
            continue
        rows = [(1 << i) | (a << half) for i, a in enumerate(a_rows)]
        c = code_from_rows(rows, n)
        wd = weight_distribution(c)
        if wd.min_nonzero() != d:
            continue
        cd = dual(c)
        if c == cd:
            continue
        if wd != weight_distribution(cd):
            continue
        return c, wd
    raise SearchBudgetError(
        f"no even formally self-dual [{n},{half},{d}] code found in "
        f"{cfg.max_iterations} iterations"
    )


def data_dir() -> Path:
    """Directory of pinned generator matrices; AMDESIGN_DATA overrides it."""
    env = os.environ.get("AMDESIGN_DATA")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _index_path() -> Path:
    return data_dir() / "index.json"


def _read_index() -> dict:
    """The store's index, {name: {"file": FILE, ...}}; ValueError naming the
    index file when it has another shape."""
    path = _index_path()
    if not path.exists():
        return {}
    try:
        index = json.loads(path.read_text())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if not (isinstance(index, dict) and all(
            isinstance(entry, dict) and isinstance(entry.get("file"), str)
            for entry in index.values())):
        raise ValueError(f'{path}: expected {{name: {{"file": FILE, ...}}, ...}}')
    return index


def load_code(name: str) -> BinaryCode:
    entry = _read_index().get(name)
    if entry is None:
        raise KeyError(f"no stored code named {name!r}")
    return parse_generator_text((data_dir() / entry["file"]).read_text())


def save_code(name: str, c: BinaryCode, provenance: dict) -> None:
    """Pin a code under the data directory and record its provenance."""
    root = data_dir()
    root.mkdir(parents=True, exist_ok=True)
    fname = f"{name}.gm"
    (root / fname).write_text(format_generator(c))
    index = _read_index()
    index[name] = {"file": fname, "provenance": provenance}
    _index_path().write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


def pinned_type_i_16() -> BinaryCode:
    """The stored Type I [16,8,4] code (`search type1-16`, seed 0)."""
    return load_code("type1_16")


def pinned_even_fsd_16() -> BinaryCode:
    """The stored even fsd non-self-dual [16,8,4] code (`search fsd`, seed 0)."""
    return load_code("fsd_16")
