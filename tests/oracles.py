"""Reference implementations kept as test oracles for optimized library paths.

The t-design checks below are the original C(v,t)*b coverage scan: every
t-subset of the point set is tested against every block, in lexicographic
order. amdesign.designs counts the C(k,t) t-subsets of each block instead,
and must agree with these exactly, witnesses included.
"""

from itertools import combinations


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
