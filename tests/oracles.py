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

is_relatively_invariant is the invariance test of the Gleason basis:
2^(-deg/2) p(x+y, x-y) = (-1)^t p and p(x, -y) = (-1)^t p, the second read
off the coefficients, since p(x, -y) negates each odd power of y.

read_design_file is the reader that parsed the whole file with json.loads,
one list per block; amdesign.designs scans the file block by block into
bytes, and hands the text to json.loads only when the scan refuses it.
run_check is `design check` as it read the file into a Design and walked
the sorted blocks with _t_design_check, its blocks validated by
design_blocks; amdesign.designs checks the scanned blocks where they lie
and sets them into the point masks in file order instead, and must print
the same stdout and stderr with the same exit code.

design_to_json is the design as a JSON object for json.dumps, whose C
encoder keeps one string chunk per number and separator; format_design
joins one string per block into the same text, which `design from-code` and
`design complement` stream one block at a time.

strength_profile and thm_1_1_counting_route build every support design C_w
as a Design (the union of the codes' for the formally self-dual branch) and
walk it; amdesign.verify reads the point masks off the weight slices
instead, and must give the same strengths, lambdas, witnesses and errors.

classify is the classification that proved a self-dual code formally
self-dual by enumerating it and its dual, the same code, and then walked it a
third time for d; gf2core.classify takes a self-dual code as formally
self-dual and compares spectra only for other codes of dimension n/2.

verify_cor_1_5 is the Corollary 1.5 check that built C0 with
gf2core.doubly_even_subcode, its own walk of the code, and sliced C0 for its
spectrum and strengths; amdesign.verify reads C0's words, spectrum and
support designs off the slice of the code instead, keeping the words of
weight 0 mod 4.

assmus_mattson_witnesses and transform_mismatches are the Assmus-Mattson
criterion and the Bachoc transform check that walked dual(c) even when it is
c; amdesign reads a self-dual code's spectrum and harmonic enumerators once.

is_self_orthogonal_design is the test that scanned every pair of blocks for
an intersection of k mod 2 points, b^2/2 pairs; amdesign.designs tests
instead that the block vectors, each with k mod 2 at a point v + 1, span a
self-orthogonal code, over a basis of at most v + 1 rows.

extended_qr is the extended quadratic-residue code of a prime p = +-1
(mod 8), the length-32 code of which holds 2^16 words. permuted moves a
code's coordinates. biplane is the 2-(16,6,2) biplane, and bent_design a
2-(16,6,8) design built from it that is not self-orthogonal.
"""

import json
import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

from amdesign import designs, gf2core, ratlin, verify
from amdesign.catalog import SearchBudgetError, SearchConfig
from amdesign.commands import print_payload
from amdesign.gf2core import (
    WeightDistribution, code_from_rows, dual, exact_json, is_doubly_even, is_even,
    iter_codewords, mallows_sloane, support)
from amdesign.designs import lambda_i
from amdesign.harmonic import bachoc_transform, harm_basis
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


def is_relatively_invariant(p, t):
    if p.degree % 2:
        raise ValueError("degree must be even")
    sign = (-1) ** t
    return (p.substitute_sum_diff() == p * (sign << (p.degree // 2))
            and not any(c for j, c in enumerate(p.coeffs) if (j + t) % 2))


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


def read_design_file(path):
    try:
        obj = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("design JSON nests too deeply") from None
    if not isinstance(obj, dict) or "v" not in obj or "blocks" not in obj:
        raise ValueError("design JSON needs 'v' and 'blocks'")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("design JSON 'blocks' must be a list of lists")
    return design_blocks(obj["v"], blocks)


def run_check(args):
    d = designs.Design(*read_design_file(args.design))
    lam, violation = designs._t_design_check(d, args.t)
    payload = {"v": d.v, "k": d.k, "b": d.b, "t": args.t,
               "lambda": lam, "violation": None}
    lines = [f"v={d.v} k={d.k} b={d.b}"]
    if lam is None:
        payload["violation"] = exact_json(violation)
        pts1, c1, pts2, c2 = violation
        lines.append(f"not a {args.t}-design: {pts1} covered {c1} times, "
                     f"{pts2} covered {c2} times")
    else:
        lines.append(f"{args.t}-design with lambda = {lam}")
    print_payload(args, payload, lines)
    return 0 if lam is not None else 1


def design_to_json(d):
    return {"v": d.v, "blocks": [list(b) for b in d.blocks]}


def format_design(d):
    return f'{{"v": {d.v}, "blocks": [' + ", ".join(map(str, map(list, d.blocks))) + "]}"


def strength_profile(c, t_cap):
    """The per-weight strengths of verify.strength_profile."""
    wd = weight_distribution(c)
    per = {}
    for w in sorted(wd.counts):
        if 0 < w < c.n:
            per[w] = designs.design_strength(designs.support_design(c, w), min(t_cap, w))
    if not per:
        raise ValueError("no weights strictly between 0 and n")
    return per


def thm_1_1_counting_route(codes):
    """(lambda_1 per weight, first (weight, violation)) of the union of the
    codes' support designs C_w, for each 0 < w < n where it has a block."""
    lambdas, first_violation = {}, None
    spectra = [weight_distribution(c).counts for c in codes]
    for w in range(1, codes[0].n):
        found = [designs.support_design(c, w) for c, a in zip(codes, spectra) if w in a]
        if not found:
            continue
        d = found[0]
        for e in found[1:]:
            d = designs.union(d, e)
        lambdas[w], violation = designs._t_design_check(d, 1)
        if violation and first_violation is None:
            first_violation = (w, violation)
    return lambdas, first_violation


def classify(c):
    even = is_even(c)
    doubly = is_doubly_even(c)
    self_orth = gf2core.is_self_orthogonal(c)
    self_dual = self_orth and 2 * c.dimension == c.n
    # |C| = |C^perp| is necessary, and spares enumerating a large dual.
    fsd = (2 * c.dimension == c.n
           and gf2core.weight_distribution(c) == gf2core.weight_distribution(dual(c)))
    if even and fsd and c.dimension > 0:
        extremality = mallows_sloane(c.n, gf2core.minimum_distance(c))
    else:
        extremality = gf2core.NOT_APPLICABLE
    return gf2core.CodeClass(
        even=even,
        doubly_even=doubly,
        self_orthogonal=self_orth,
        self_dual=self_dual,
        formally_self_dual=fsd,
        type_one=self_dual and not doubly,
        type_two=self_dual and doubly,
        extremality=extremality,
    )


def verify_cor_1_5(c):
    verify._require_type1_16(c)
    c0 = gf2core.doubly_even_subcode(c)
    c0_dual = dual(c0)
    incidence0, leaves0 = verify._slices([c0])
    wd0 = WeightDistribution(dict(enumerate(map(int.bit_count, leaves0))))
    prof0 = verify._profile(incidence0, leaves0, 3)
    prof1 = verify.strength_profile(c0_dual, 3)
    checks = {
        "subcode_dimension": c0.dimension == 7,
        "subcode_doubly_even": all(w % 4 == 0 for w in wd0.counts),
        "dual_dimension": c0_dual.dimension == 9,
        "dual_minimum_distance": min(prof1.per_weight) == 4,
        "dual_strength_exceeds_guarantee": all(
            prof1.per_weight.get(w, 0) >= 2 for w in (6, 10)
        ),
    }
    return verify.report("cor1.5", all(checks.values()), {
        "checks": checks,
        "subcode_weight_distribution": wd0.counts,
        "subcode_strengths": prof0.per_weight,
        "dual_strengths": prof1.per_weight,
    })


def assmus_mattson_witnesses(c, t):
    """The witnesses of verify.assmus_mattson_check(c, t), 1 <= t < d."""
    wd, dual_wd = weight_distribution(c), weight_distribution(dual(c))
    d, d_dual = wd.min_nonzero(), dual_wd.min_nonzero()
    small = [w for w in sorted(wd.counts) if 0 < w <= c.n - t]
    witnesses = {
        "t": t,
        "length": c.n,
        "dimension": c.dimension,
        "minimum_distance": d,
        "dual_minimum_distance": d_dual,
        "nonzero_weights_at_most_n_minus_t": small,
        "weight_count": len(small),
        "bound": d_dual - t,
        "applicable": len(small) <= d_dual - t,
    }
    if witnesses["applicable"]:
        witnesses["promised_code_weights"] = [u for u in sorted(wd.counts)
                                              if d <= u <= c.n - t]
        witnesses["promised_dual_weights"] = [w for w in sorted(dual_wd.counts)
                                              if d_dual <= w]
    return witnesses


def transform_mismatches(c, k):
    """The indices f of harm_basis(n, k) at which the Bachoc image of c's
    quotient enumerator Z_{C,f} differs from Z_{C-perp,f}."""
    def quotients(code):
        return [harmonic_weight_enumerator(code, f).divide_xy(k) for f in basis]

    basis = harm_basis(c.n, k)
    images = [bachoc_transform(z, k, c.size, c.n) for z in quotients(c)]
    return [i for i, (image, z) in enumerate(zip(images, quotients(dual(c)))) if image != z]


def extended_qr(p):
    """The span of the cyclic shifts of the non-residue indicator of Z_p, or
    of its complement, whichever has dimension (p+1)/2, with a parity bit."""
    residues = {x * x % p for x in range(1, p)}
    nonresidues = sum(1 << x for x in range(1, p) if x not in residues)
    full = (1 << p) - 1
    for g in (nonresidues, nonresidues ^ full):
        c = code_from_rows((((g << s) | (g >> (p - s))) & full for s in range(p)), p)
        if c.dimension == (p + 1) // 2:
            return code_from_rows([r | (r.bit_count() & 1) << p for r in c.basis], p + 1)
    raise ValueError(f"no extended QR code for p = {p}")


def permuted(c, perm):
    """c with coordinate i moved to perm[i]."""
    return code_from_rows([sum((row >> i & 1) << p for i, p in enumerate(perm))
                           for row in c.basis], c.n)


def biplane():
    """The blocks of the 2-(16,6,2) biplane of translates of the difference
    set {0,1,2,4,8,15} in Z_2^4 (point p is the group element p - 1)."""
    return [tuple((x ^ s) + 1 for s in (0, 1, 2, 4, 8, 15)) for x in range(16)]


def bent_design():
    """A 2-(16,6,8) design that is not self-orthogonal: the biplane taken
    twice as is and twice with points 1 and 2 swapped. A swap preserves
    the 2-design property, and the union of the two copies has blocks
    meeting in an odd number of points."""
    blocks = biplane()
    swapped = [tuple({1: 2, 2: 1}.get(p, p) for p in block) for block in blocks]
    return designs.Design(16, tuple(2 * blocks + 2 * swapped))


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


def is_self_orthogonal_design(d):
    masks, parity = [_mask(b) for b in d.blocks], d.k % 2
    return all((masks[i] & masks[j]).bit_count() % 2 == parity
               for i in range(len(masks)) for j in range(i + 1, len(masks)))


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
