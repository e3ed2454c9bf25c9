"""Reference implementations kept as test oracles for optimized library paths.

The t-design checks below are the original C(v,t)*b coverage scan: every
t-subset of the point set is tested against every block, in lexicographic
order. coverage_counts is the per-block count that replaced it: a Counter
over the C(k,t) t-subsets of each block. amdesign.designs walks the t-subsets
through per-point block-incidence bitsets instead, and must agree with these
exactly, witnesses included.

weight_distribution, codewords_of_weight, doubly_even_subcode and
harmonic_weight_enumerator are the Gray walks that gf2core's bit-sliced
weight leaves replaced: one codeword per step, and for the enumerator one
tilde of the word's support per codeword. delsarte_design_check is the
harmonic design test that summed one tilde per block per basis function;
amdesign.harmonic folds each function's column pairs over per-point
incidence bitsets instead.

expand is the {point mask: +-1} table of a polytabloid's values on the
k-subsets of its points, which amdesign.harmonic stored for every basis
function before it kept only the column pairs.

mendelsohn_solve is the search that tried every value 0..lambda_0 for each
free unknown, the last one included; amdesign.designs solves the last t+1
free unknowns from the system instead.

search_even_fsd is the search that counted the spectrum of every candidate;
amdesign.catalog first drops every candidate that does not contain the
all-ones word, which every hit contains.

substitute_sum_diff expands p(x+y, x-y) by summing binomial products afresh
for every coefficient of every polynomial; HomPoly.substitute_sum_diff
multiplies by one cached integer matrix per degree instead.

design_blocks is the validation loop of Design that tested every point with
a Python-level isinstance call; Design tests the points' types in one set
operation and falls back to the per-point test only for a block holding
something other than a plain int.

gleason_decompose is the coordinate solve that handed the whole system of
basis columns to ratlin's rational Gaussian elimination; amdesign.polyring
reads the coordinates off the basis's unitriangular lowest terms by integer
forward substitution instead, and must give the same coordinates, the same
SpanError.partial and the same residual.

design_to_json is the design as a JSON object for json.dumps, whose C
encoder keeps one string chunk per number and separator; format_design
joins one string per block into the same text.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

from amdesign import gf2core, ratlin
from amdesign.catalog import SearchBudgetError, SearchConfig
from amdesign.gf2core import (
    WeightDistribution, code_from_rows, dual, is_doubly_even, is_even, iter_codewords,
    mallows_sloane, support)
from amdesign.designs import lambda_i
from amdesign.harmonic import harm_basis
from amdesign.polyring import HomPoly, SpanError, gleason_basis


def weight_distribution(c):
    counts = [0] * (c.n + 1)
    for word in iter_codewords(c):
        counts[word.bit_count()] += 1
    return WeightDistribution({w: a for w, a in enumerate(counts) if a})


def codewords_of_weight(c, w):
    if w < 0 or w > c.n:
        raise ValueError("weight out of range")
    return sorted(x for x in iter_codewords(c) if x.bit_count() == w)


def doubly_even_subcode(c):
    if not is_even(c):
        raise ValueError("code is not even")
    if is_doubly_even(c):
        return c
    words = [w for w in iter_codewords(c) if w.bit_count() % 4 == 0]
    sub = code_from_rows(words, c.n)
    if sub.size != len(words):
        raise ValueError("the doubly-even words do not form a subcode")
    return sub


def harmonic_weight_enumerator(c, f):
    if f.n != c.n:
        raise ValueError("code length and function ground set differ")
    coeffs = [0] * (c.n + 1)
    for word in iter_codewords(c):
        w = word.bit_count()
        if w < f.k:
            continue
        coeffs[w] += f.tilde(support(word))
    return HomPoly(c.n, tuple(coeffs))


def substitute_sum_diff(p):
    d = p.degree
    out = [0] * (d + 1)
    for j, cj in enumerate(p.coeffs):
        if not cj:
            continue
        a = d - j
        for m in range(d + 1):
            s = 0
            for r in range(max(0, m - j), min(a, m) + 1):
                s += comb(a, r) * comb(j, m - r) * (-1) ** (m - r)
            if s:
                out[m] += cj * s
    return HomPoly(d, tuple(out))


def gleason_decompose(p, t, n):
    if p.degree != n - 2 * t:
        raise ValueError(f"expected degree {n - 2 * t}, got {p.degree}")
    basis = gleason_basis(t, n)
    x, consistent = ratlin.solve_columns([b.coeffs for b in basis], p.coeffs)
    if not consistent:
        approx = HomPoly(p.degree, (0,) * (p.degree + 1))
        for c, b in zip(x, basis):
            approx = approx + c * b
        raise SpanError("polynomial is outside the basis span", x, p - approx)
    return x


def expand(f):
    """f's nonzero values by the point mask of their k-subset (bit p-1 for
    point p): one subset per choice of one point from each column pair, with
    sign (-1)^(number of a_i taken)."""
    terms = {0: 1}
    for a, b in f.pairs:
        terms = {m | bit: s * v for m, v in terms.items()
                 for bit, s in ((1 << (b - 1), 1), (1 << (a - 1), -1))}
    return terms


def delsarte_design_check(blocks, n, t):
    if not blocks:
        raise ValueError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must share one size")
    (m,) = sizes
    if m > n:
        raise ValueError("block size exceeds the ground set")
    if t < 0 or t > m:
        raise ValueError("t out of range")
    for b in blocks:
        if len(set(b)) != m:
            raise ValueError(f"block {list(b)} repeats a point")
        if not all(1 <= p <= n for p in b):
            raise ValueError(f"block {list(b)} has a point outside 1..{n}")
    for k in range(1, t + 1):
        for f in harm_basis(n, k):
            if sum(f.tilde(b) for b in blocks):
                return False
    return True


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def design_blocks(v, blocks):
    """(v, sorted blocks) of Design(v, blocks), or its ValueError."""
    if not _is_int(v):
        raise ValueError("point count must be an integer")
    if v < 1:
        raise ValueError("point count must be positive")
    if not blocks:
        raise ValueError("a design needs at least one block")
    norm = []
    size = None
    for block in blocks:
        if not all(_is_int(p) for p in block):
            raise ValueError("block points must be integers")
        b = tuple(sorted(block))
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
    return v, tuple(norm)


def design_to_json(d):
    return {"v": d.v, "blocks": [list(b) for b in d.blocks]}


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


def mendelsohn_solve(t, v, k, lam, m, allowed_i, fixed=None, limit=None):
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
    if any(i not in allowed for i in fixed):
        raise ValueError("fixed index outside allowed_i")
    if any(val < 0 for val in fixed.values()):
        raise ValueError("fixed values must be nonnegative")
    coeff = {i: [comb(i, j) for j in range(t + 1)] for i in allowed}
    solutions = []
    assignment = [0] * len(allowed)

    def extend(idx, partial):
        if limit is not None and len(solutions) >= limit:
            return
        if idx == len(allowed):
            if partial == rhs:
                solutions.append(tuple(assignment))
            return
        i = allowed[idx]
        ci = coeff[i]
        if i in fixed:
            lo = hi = fixed[i]
        else:
            lo, hi = 0, lambdas[0]
        for val in range(lo, hi + 1):
            nxt = [partial[j] + ci[j] * val for j in range(t + 1)]
            if any(nxt[j] > rhs[j] for j in range(t + 1)):
                break
            assignment[idx] = val
            extend(idx + 1, nxt)
        assignment[idx] = 0

    extend(0, [0] * (t + 1))
    return solutions


def search_even_fsd(n, d, cfg=SearchConfig()):
    mallows_sloane(n, d)
    half = n // 2
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_iterations):
        a_rows = []
        for _ in range(half):
            a = rng.getrandbits(half)
            if a.bit_count() % 2 == 0:
                a ^= 1 << rng.randrange(half)
            a_rows.append(a)
        rows = [(1 << i) | (a << half) for i, a in enumerate(a_rows)]
        c = code_from_rows(rows, n)
        wd = gf2core.weight_distribution(c)
        if wd.min_nonzero() != d:
            continue
        cd = dual(c)
        if c == cd:
            continue
        if wd != gf2core.weight_distribution(cd):
            continue
        return c
    raise SearchBudgetError(
        f"no even formally self-dual [{n},{half},{d}] code found in "
        f"{cfg.max_iterations} iterations"
    )
