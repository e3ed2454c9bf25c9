"""The benchmark's own exact arithmetic, kept apart from amdesign so that the
outputs it checks are recomputed by independent code.

Words are bit-packed ints with coordinate i in bit i; design points are
1-based, as in amdesign's JSON formats.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb

# Extended binary Golay code generator polynomial g(x) = 1+x^2+x^4+x^5+x^6+x^10+x^11
# (MacWilliams-Sloane, ch. 2 and 16).
GOLAY_POLY_EXPONENTS = (0, 2, 4, 5, 6, 10, 11)
GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def parse_rows(text: str) -> list[int]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(sum(1 << i for i, ch in enumerate(line) if ch == "1"))
    return rows


def format_rows(rows: list[int], n: int) -> str:
    return "".join(
        "".join("1" if (r >> i) & 1 else "0" for i in range(n)) + "\n" for r in rows
    )


def rref(rows: list[int]) -> list[int]:
    """Reduced echelon basis over GF(2); each pivot is the row's lowest bit."""
    out: list[int] = []
    for row in rows:
        for r in out:
            if row & (r & -r):
                row ^= r
        if row:
            low = row & -row
            out = [r ^ row if r & low else r for r in out]
            out.append(row)
    return sorted(out, key=lambda r: r & -r)


def dual_rows(rows: list[int], n: int) -> list[int]:
    basis = rref(rows)
    pivots = [(r & -r).bit_length() - 1 for r in basis]
    out = []
    for free in range(n):
        if free in pivots:
            continue
        v = 1 << free
        for p, r in zip(pivots, basis):
            if (r >> free) & 1:
                v |= 1 << p
        out.append(v)
    return out


def codewords(rows: list[int]) -> list[int]:
    words = [0]
    for r in rref(rows):
        words += [w ^ r for w in words]
    return words


def weight_distribution(rows: list[int]) -> dict[int, int]:
    return dict(sorted(Counter(w.bit_count() for w in codewords(rows)).items()))


def macwilliams(wd: dict[int, int], n: int) -> dict[int, int]:
    """Dual distribution by Krawtchouk polynomials; raises if not integral."""
    size = sum(wd.values())
    out = {}
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))
            for i, a in wd.items()
        )
        if total % size:
            raise ValueError("MacWilliams transform is not integral")
        if total:
            out[j] = total // size
    return out


def permute_word(word: int, perm: list[int]) -> int:
    out = 0
    for i, j in enumerate(perm):
        if (word >> i) & 1:
            out |= 1 << j
    return out


def golay_rows() -> list[int]:
    """Extended Golay [24,12,8]: the 12 shifts of g(x) in length 23, each
    extended by an overall parity bit."""
    g = sum(1 << e for e in GOLAY_POLY_EXPONENTS)
    rows = []
    for s in range(12):
        r = g << s
        rows.append(r | ((r.bit_count() & 1) << 23))
    return rows


def support(word: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(word.bit_length()) if (word >> i) & 1)


def support_blocks(rows: list[int], w: int) -> list[tuple[int, ...]]:
    return sorted(support(x) for x in codewords(rows) if x.bit_count() == w)


def coverage(blocks, t: int) -> Counter:
    """Number of blocks containing each t-subset (subsets covered zero times
    are absent)."""
    counts: Counter = Counter()
    for b in blocks:
        counts.update(combinations(sorted(b), t))
    return counts


def design_lambda(blocks, v: int, t: int) -> int | None:
    counts = coverage(blocks, t)
    values = set(counts.values())
    if len(counts) == comb(v, t) and len(values) == 1:
        return values.pop()
    return None


def strength(blocks, v: int, t_cap: int) -> int:
    s = 0
    for t in range(1, t_cap + 1):
        if design_lambda(blocks, v, t) is None:
            break
        s = t
    return s


def covered(blocks, pts) -> int:
    pts = set(pts)
    return sum(1 for b in blocks if pts <= set(b))


def intersection_profile(blocks, index: int) -> dict[int, int]:
    ref = set(blocks[index])
    prof = Counter(len(ref & set(b)) for i, b in enumerate(blocks) if i != index)
    prof[len(ref)] += 1
    return dict(prof)


# Homogeneous polynomials in x, y of degree d are coefficient lists c with
# c[j] the coefficient of x^(d-j) y^j.


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def gleason_invariants(n: int) -> list[list[int]]:
    """(x^2+y^2)^(n/2-4i) (x^2 y^2 (x^2-y^2)^2)^i, the t = 0 Gleason basis."""
    s = [1, 0, 1]
    u = poly_mul([0, 0, 1, 0, 0], poly_pow([1, 0, -1], 2))
    top = n // 2
    return [poly_mul(poly_pow(s, top - 4 * i), poly_pow(u, i)) for i in range(top // 4 + 1)]


def lemma41_pairs(alpha_max: int) -> list[list[int]]:
    """(alpha, i) where (1+z)^2 (1-z)^alpha has a zero z^i coefficient,
    0 <= i <= (alpha+2)/2, by binomial convolution."""
    pairs = []
    for a in range(alpha_max):
        for i in range((a + 2) // 2 + 1):
            c = sum(comb(2, s) * comb(a, i - s) * (-1) ** (i - s) for s in range(min(i, 2) + 1))
            if c == 0:
                pairs.append([a, i])
    return pairs
