"""Reference implementations kept as test oracles for optimized library paths.

The t-design checks below are the original C(v,t)*b coverage scan: every
t-subset of the point set is tested against every block, in lexicographic
order. coverage_counts is the per-block count that replaced it: a Counter
over the C(k,t) t-subsets of each block. amdesign.designs walks the t-subsets
through per-point block-incidence bitsets instead, and must agree with these
exactly, witnesses included.

weight_distribution is the Gray walk that gf2core's bit-sliced count
replaced: one codeword per step, one weight tally per codeword.
"""

from collections import Counter
from itertools import combinations

from amdesign.gf2core import WeightDistribution, iter_codewords


def weight_distribution(c):
    counts = [0] * (c.n + 1)
    for word in iter_codewords(c):
        counts[word.bit_count()] += 1
    return WeightDistribution({w: a for w, a in enumerate(counts) if a})


def _mask(points):
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


def coverage_scan(d, t):
    masks = [_mask(b) for b in d.blocks]
    for pts in combinations(range(1, d.v + 1), t):
        m = _mask(pts)
        yield pts, sum(1 for bm in masks if bm & m == m)


def is_t_design(d, t):
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    lam = None
    for _, count in coverage_scan(d, t):
        if lam is None:
            lam = count
        elif count != lam:
            return None
    return lam


def t_design_violation(d, t):
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    first = None
    for pts, count in coverage_scan(d, t):
        if first is None:
            first = (pts, count)
        elif count != first[1]:
            return (first[0], first[1], pts, count)
    return None


def design_strength(d, t_max):
    if t_max < 0 or t_max > d.k:
        raise ValueError("t_max out of range")
    strength = 0
    for t in range(1, t_max + 1):
        if is_t_design(d, t) is None:
            break
        strength = t
    return strength


def coverage_counts(d, t):
    """How many blocks contain each t-subset, keyed by the subset's point
    mask (bit p-1 for point p); a missing key counts 0."""
    if t < 0 or t > d.k:
        raise ValueError("t out of range")
    counts = Counter()
    for block in d.blocks:
        counts.update(map(sum, combinations([1 << (p - 1) for p in block], t)))
    return counts
