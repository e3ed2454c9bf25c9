"""Scenario verifiers: structured pass/fail reports for the design-theoretic
properties of near-extremal self-dual and formally self-dual codes."""

from __future__ import annotations

from typing import Sequence

# designs and harmonic are lazy layers (see amdesign/__init__.py), called
# through the module so that a scenario loads only the layers it runs.
from . import designs, harmonic
from .gf2core import (
    NEAR_EXTREMAL,
    BinaryCode,
    EnumerationGuardError,
    PreconditionError,
    Record,
    WeightDistribution,
    _weight_leaves,
    classify,
    code_from_rows,
    dual,
    exact_json,
    is_doubly_even,
    support,
    weight_distribution,
)

__all__ = [
    "PreconditionError",
    "StrengthProfile",
    "VerificationReport",
    "assmus_mattson_check",
    "exact_json",
    "strength_profile",
    "verify_cor_1_5",
    "verify_thm_1_1",
    "verify_thm_1_2_fsd",
    "verify_thm_1_2_type1",
    "verify_thm_1_4_pipeline",
]


class VerificationReport(Record):
    """Outcome of one scenario: verdict plus witnesses, rendered by exact_json."""

    __slots__ = ("scenario", "passed", "witnesses")

    def __init__(self, scenario: str, passed: bool, witnesses: dict) -> None:
        self._set(scenario, passed, exact_json(witnesses))

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


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


def strength_profile(c: BinaryCode, t_cap: int) -> StrengthProfile:
    """Strength of each C_w up to min(t_cap, w): a block of size w bounds t."""
    # Only a code whose basis is empty or the all-ones word alone has no
    # weight strictly between 0 and n: any other is refused before slicing.
    if t_cap < 0 and c.basis not in ((), ((1 << c.n) - 1,)):
        raise ValueError("t_max out of range")
    return _profile(*_slices([c]), t_cap)


def _profile(incidence: list[int], leaves: list[int], t_cap: int) -> StrengthProfile:
    """strength_profile of the sliced code."""
    per = {}
    for w in range(1, len(incidence) - 1):
        if leaves[w]:
            per[w] = 0
            for t in range(1, min(t_cap, w) + 1):
                designs._walk_guard(len(incidence) - 1, t)
                if designs._cover_walk(incidence, t, leaves[w])[0] is None:
                    break
                per[w] = t
    if not per:
        raise ValueError("no weights strictly between 0 and n")
    return StrengthProfile(per)


def _words(incidence: list[int], mask: int):
    """The words at the bits of a mask: word i has point p when bit i of
    incidence[p] is set."""
    while mask:
        bit = mask & -mask
        yield sum(1 << p - 1 for p in range(1, len(incidence)) if incidence[p] & bit)
        mask ^= bit


def _leaf_design(incidence: list[int], leaf: int) -> designs.Design:
    """The support design of the words at the bits of a nonzero leaf."""
    return designs.Design(len(incidence) - 1, list(map(support, _words(incidence, leaf))))


def _counting_route(incidence: list[int], leaves: list[int]) -> tuple[dict, tuple | None]:
    """lambda_1 of the union of the sliced codes' support designs C_w for
    each w, 0 < w < n, where it has a block (None where it is no 1-design),
    and the first failing weight with its violation."""
    lambdas, first_violation = {}, None
    for w in range(1, len(incidence) - 1):
        if leaves[w]:
            designs._walk_guard(len(incidence) - 1, 1)
            lambdas[w], violation = designs._cover_walk(incidence, 1, leaves[w])
            if violation and first_violation is None:
                first_violation = (w, violation)
    return lambdas, first_violation


def assmus_mattson_check(c: BinaryCode, t: int) -> VerificationReport:
    """Hypothesis test for the classical weight-count criterion: at most
    d_dual - t nonzero weights of C are <= n - t. A pass lists the weights
    whose support designs the criterion promises to be t-designs."""
    if t < 1:
        raise PreconditionError("t must be at least 1")
    wd = weight_distribution(c)
    d = wd.min_nonzero()
    if t >= d:
        raise PreconditionError("t must be less than the minimum distance")
    # A self-dual code is its own dual: its spectrum is read once.
    dual_code = dual(c)
    dual_wd = wd if dual_code == c else weight_distribution(dual_code)
    d_dual = dual_wd.min_nonzero()
    small = [w for w in wd.counts if 0 < w <= c.n - t]
    applicable = len(small) <= d_dual - t
    witnesses = {
        "t": t,
        "length": c.n,
        "dimension": c.dimension,
        "minimum_distance": d,
        "dual_minimum_distance": d_dual,
        "nonzero_weights_at_most_n_minus_t": small,
        "weight_count": len(small),
        "bound": d_dual - t,
        "applicable": applicable,
    }
    if applicable:
        witnesses["promised_code_weights"] = [
            u for u in wd.counts if d <= u <= c.n - t
        ]
        witnesses["promised_dual_weights"] = [
            w for w in dual_wd.counts if d_dual <= w <= c.n
        ]
    return VerificationReport("am", applicable, witnesses)


def verify_thm_1_1(c: BinaryCode) -> VerificationReport:
    """All support designs (self-dual input) or all unions C_w + dual_w
    (formally self-dual input) are 1-designs, cross-checked by the vanishing
    of the degree-1 harmonic weight enumerators."""
    if c.n % 8 != 0:
        raise PreconditionError("length must be divisible by 8")
    # Spares classify a walk for d; it reads no spectrum unless 2k = n.
    cls = classify(c, weight_distribution(c) if 2 * c.dimension == c.n else None)
    if cls.extremality != NEAR_EXTREMAL:
        raise PreconditionError("code is not near-extremal")
    # Both routes read one slice of the words of the code, and of its dual
    # in the formally self-dual branch.
    slices = _slices([c] if cls.self_dual else [c, dual(c)])
    lambdas, first_violation = _counting_route(*slices)
    counting_ok = first_violation is None
    sums = harmonic._fold_sums(*slices, harmonic.harm_basis(c.n, 1))
    nonzero = [idx for idx, row in enumerate(sums) if any(row)]
    harmonic_ok = not nonzero

    witnesses = {
        "branch": "self_dual" if cls.self_dual else "formally_self_dual",
        "lambda_1_per_weight": lambdas,
        "counting_route": counting_ok,
        "harmonic_route": harmonic_ok,
    }
    if first_violation:
        witnesses["violation_weight"], witnesses["violation"] = first_violation
    if nonzero:
        witnesses["nonzero_enumerator_indices"] = nonzero
    return VerificationReport("thm1.1", counting_ok and harmonic_ok, witnesses)


def _require_type1_16(c: BinaryCode) -> tuple[list[int], list[int]]:
    """The slice of c, once c is checked to be a near-extremal Type I code of
    length 16; classify reads d off the slice's spectrum."""
    if c.n != 16:
        raise PreconditionError("length must be 16")
    incidence, leaves = _slices([c])
    cls = classify(c, WeightDistribution(dict(enumerate(map(int.bit_count, leaves)))))
    if not cls.type_one:
        raise PreconditionError("code is not Type I")
    if cls.extremality != NEAR_EXTREMAL:
        raise PreconditionError("code is not near-extremal")
    return incidence, leaves


def verify_thm_1_2_type1(
    c: BinaryCode, c6: designs.Design | None = None
) -> VerificationReport:
    """C_6 is a 2-(16,6,8) design (counting and harmonic routes), C_10 is its
    complement, and the strength gap delta=1 < s=2 sits exactly at w in
    {6, 10}. A substitute block multiset may be supplied for mutation tests."""
    # A near-extremal Type I code of length 16 has words of weight 6 and 10:
    # with d = 4, a self-dual code without them would be doubly even.
    incidence, leaves = _require_type1_16(c)
    if c6 is None:
        c6 = _leaf_design(incidence, leaves[6])
    elif c6.v != c.n:
        raise PreconditionError(f"substitute design has v={c6.v}, not 16")
    elif c6.k < 2:
        raise PreconditionError(f"substitute design has k={c6.k}; a 2-design needs k >= 2")
    lam, violation = designs._t_design_check(c6, 2)
    counting_ok = lam == 8
    delsarte_ok = harmonic.delsarte_design_check(c6, 2)
    complement_ok = designs.complement_design(c6) == _leaf_design(incidence, leaves[10])
    prof = _profile(incidence, leaves, 3)
    gap_weights = [w for w, t in prof.per_weight.items() if t >= 2]
    profile_ok = prof.delta == 1 and prof.s == 2 and gap_weights == [6, 10]
    passed = counting_ok and delsarte_ok and complement_ok and profile_ok
    witnesses = {
        "lambda_2": lam,
        "block_count": c6.b,
        "counting_route": counting_ok,
        "harmonic_route": delsarte_ok,
        "complement_matches": complement_ok,
        "strengths": prof.per_weight,
        "delta": prof.delta,
        "s": prof.s,
        "strength_2_weights": gap_weights,
    }
    if not counting_ok:
        witnesses["violation"] = violation
    return VerificationReport("thm1.2-1", passed, witnesses)


def verify_thm_1_2_fsd(c: BinaryCode) -> VerificationReport:
    """Unions C_w + dual_w at w in {6, 10} are 2-designs for near-extremal
    even formally self-dual codes of length 16 (counting and harmonic routes)."""
    if c.n == 64:
        raise EnumerationGuardError(
            "weight-slice enumeration required for length-64 unions"
        )
    if c.n != 16:
        raise PreconditionError("length must be 16")
    cls = classify(c)
    if not (cls.even and cls.formally_self_dual):
        raise PreconditionError("code is not even formally self-dual")
    if cls.extremality != NEAR_EXTREMAL:
        raise PreconditionError("code is not near-extremal")
    wd = weight_distribution(c)
    if not (wd.count(6) and wd.count(10)):
        raise PreconditionError(
            "no weight-6 or weight-10 words: the union designs are empty"
        )
    dual_code = dual(c)
    lambdas, harmonic_ok = {}, True
    witnesses = {"self_dual": cls.self_dual}
    for w in (6, 10):
        u = designs.union(designs.support_design(c, w),
                          designs.support_design(dual_code, w))
        lam, violation = designs._t_design_check(u, 2)
        lambdas[w] = lam
        harmonic_ok = harmonic.delsarte_design_check(u, 2) and harmonic_ok
        if lam is None and "violation" not in witnesses:
            witnesses["violation_weight"] = w
            witnesses["violation"] = violation
    counting_ok = None not in lambdas.values()
    witnesses["lambda_2_per_weight"] = lambdas
    witnesses["counting_route"] = counting_ok
    witnesses["harmonic_route"] = harmonic_ok
    return VerificationReport("thm1.2-2", counting_ok and harmonic_ok, witnesses)


def verify_thm_1_4_pipeline(d: designs.Design) -> VerificationReport:
    """Uniqueness pipeline: a self-orthogonal 2-(16,6,8) design generates the
    near-extremal Type I [16,8,4] code and is recovered as its C_6."""
    if d.v != 16:
        raise PreconditionError("points: expected v = 16")
    if d.k != 6:
        raise PreconditionError("block size: expected k = 6")
    if designs.is_t_design(d, 2) != 8:
        raise PreconditionError("2-design: expected lambda = 8")
    if not designs.is_self_orthogonal_design(d):
        raise PreconditionError("self-orthogonality: odd block intersection found")

    c = designs.code_from_design(d)
    wd = weight_distribution(c)
    word_count = sum(wd.count(w) for w in (0, 6, 10, 16))
    cls = classify(c, wd)
    dual_wd = wd if cls.self_dual else weight_distribution(dual(c))
    steps = {
        "even_self_orthogonal": cls.even and cls.self_orthogonal,
        "dual_minimum_distance": dual_wd.min_nonzero() == 4,
        "count_bound": word_count > 2**7,
        "self_dual": cls.self_dual,
        # Near-extremal at length 16 means d = 4.
        "classification": cls.type_one and cls.extremality == NEAR_EXTREMAL,
        # Every block of d is a weight-6 word of c = span(d), so d is C_6 as
        # a multiset exactly when it repeats no block and has A_6 blocks.
        "support_design_match": len(set(d.blocks)) == d.b == wd.count(6),
    }
    passed = all(steps.values())
    witnesses = {
        "steps": steps,
        "dimension": c.dimension,
        "weight_distribution": wd.counts,
        "counted_words_0_6_10_16": word_count,
    }
    if not passed:
        witnesses["failing_step"] = next(name for name, ok in steps.items() if not ok)
    return VerificationReport("thm1.4", passed, witnesses)


def verify_cor_1_5(c: BinaryCode) -> VerificationReport:
    """The doubly-even subcode C0 of the Type I [16,8,4] code has a [16,9,4]
    dual whose weight-6 and weight-10 support designs are 2-designs, beating
    the t=1 guarantee of the classical criterion."""
    # C0's words are the words of c of weight 0 mod 4, so C0_w = C_w at
    # those weights: C0's spectrum and support designs are read off c's slice.
    incidence, leaves = _require_type1_16(c)
    leaves0 = [leaf if w % 4 == 0 else 0 for w, leaf in enumerate(leaves)]
    wd0 = WeightDistribution(dict(enumerate(map(int.bit_count, leaves0))))
    prof0 = _profile(incidence, leaves0, 3)
    c0 = code_from_rows(_words(incidence, sum(leaves0)), c.n)
    c0_dual = dual(c0)
    prof1 = strength_profile(c0_dual, 3)
    checks = {
        "subcode_dimension": c0.dimension == 7,
        # The words span a doubly-even code of their own number: a subcode.
        "subcode_doubly_even": is_doubly_even(c0) and c0.size == sum(wd0.counts.values()),
        "dual_dimension": c0_dual.dimension == 9,
        "dual_minimum_distance": min(prof1.per_weight) == 4,
        "dual_strength_exceeds_guarantee": all(
            prof1.per_weight.get(w, 0) >= 2 for w in (6, 10)
        ),
    }
    passed = all(checks.values())
    witnesses = {
        "checks": checks,
        "subcode_weight_distribution": wd0.counts,
        "subcode_strengths": prof0.per_weight,
        "dual_strengths": prof1.per_weight,
    }
    return VerificationReport("cor1.5", passed, witnesses)
