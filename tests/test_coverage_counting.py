"""The incidence-bitset t-design walk against the C(v,t)*b scan and the
per-block t-subset count it replaced, the same walk over the weight slices
against the walk of the support designs built as Designs, and the
incidence-bitset Delsarte test against the per-block tilde sum."""

from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from amdesign import designs, harmonic, verify
from amdesign.catalog import builtin, load_code
from amdesign.designs import (
    Design,
    design_strength,
    is_t_design,
    support_design,
    t_design_violation,
)
from amdesign.gf2core import EnumerationGuardError, code_from_rows, dual
from amdesign.harmonic import delsarte_design_check, harm_basis

SETTINGS = settings(max_examples=300, deadline=None, database=None)


@st.composite
def small_designs(draw):
    v = draw(st.integers(1, 10))
    k = draw(st.integers(1, v))
    block = st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True)
    blocks = draw(st.lists(block, min_size=1, max_size=12))
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=4))  # repeats
    return Design(v, tuple(map(tuple, blocks)))


def one_point_swap(d, data):
    i = data.draw(st.integers(0, d.b - 1))
    block = d.blocks[i]
    out = data.draw(st.sampled_from(block))
    into = data.draw(st.sampled_from([p for p in range(1, d.v + 1) if p not in block]))
    swapped = tuple(sorted(set(block) - {out} | {into}))
    return Design(d.v, d.blocks[:i] + (swapped,) + d.blocks[i + 1:])


def assert_matches_oracle(d, ts):
    for t in ts:
        assert is_t_design(d, t) == oracles.is_t_design(d, t)
        assert t_design_violation(d, t) == oracles.t_design_violation(d, t)
    assert design_strength(d, max(ts)) == oracles.design_strength(d, max(ts))


@SETTINGS
@given(small_designs())
def test_random_designs_match_the_scan(d):
    assert_matches_oracle(d, range(d.k + 1))


@SETTINGS
@given(small_designs(), st.data())
def test_counts_sum_to_b_times_c_k_t(d, data):
    t = data.draw(st.integers(0, d.k))
    counts = oracles.coverage_counts(d, t)
    assert sum(counts.values()) == d.b * comb(d.k, t)
    assert len(counts) <= min(comb(d.v, t), d.b * comb(d.k, t))
    assert all(mask.bit_count() == t for mask in counts)


@SETTINGS
@given(small_designs(), st.data())
def test_walk_agrees_with_the_per_block_count(d, data):
    t = data.draw(st.integers(0, d.k))
    counts = oracles.coverage_counts(d, t)
    covers = set(counts.values()) | ({0} if len(counts) < comb(d.v, t) else set())
    assert is_t_design(d, t) == (covers.pop() if len(covers) == 1 else None)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_c6_mutants_match_the_scan(c6, data):
    mutant = one_point_swap(c6, data)
    assert_matches_oracle(mutant, range(4))
    assert is_t_design(mutant, 2) is None


def test_golay_support_designs(golay):
    c8 = support_design(golay, 8)
    c12 = support_design(golay, 12)
    assert (c8.b, c12.b) == (759, 2576)
    assert is_t_design(c8, 5) == 1
    assert is_t_design(c12, 5) == 48
    assert t_design_violation(c8, 5) is None
    assert is_t_design(c8, 6) is None
    pts1, c1, pts2, c2 = t_design_violation(c8, 6)
    covers = lambda pts: sum(1 for b in c8.blocks if set(pts) <= set(b))
    assert pts1 == (1, 2, 3, 4, 5, 6) and c1 != c2
    assert (covers(pts1), covers(pts2)) == (c1, c2)
    assert design_strength(c8, 8) == 5


def one_point_swaps(monkeypatch):
    """Patch verify._slices so that in C_6 and C_10 one block swaps its lowest
    point for the lowest point outside it; the returned dict holds the last
    mutated C_w, as a Design, under w."""
    real = verify._slices
    broken = {}

    def with_mutants(codes):
        incidence, leaves = real(codes)
        points = range(1, len(incidence))
        for w in (6, 10):
            bit = leaves[w] & -leaves[w]
            block = [p for p in points if incidence[p] & bit]
            into = min(set(points) - set(block))
            incidence[block[0]] ^= bit
            incidence[into] ^= bit
            words = [1 << i for i in range(leaves[w].bit_length()) if leaves[w] >> i & 1]
            broken[w] = Design(len(points), tuple(
                tuple(p for p in points if incidence[p] & word) for word in words))
        return incidence, leaves

    monkeypatch.setattr(verify, "_slices", with_mutants)
    return broken


def test_thm_1_1_reports_the_first_failing_weight(type1, monkeypatch):
    broken = one_point_swaps(monkeypatch)
    rep = verify.verify_thm_1_1(type1)
    assert rep["verdict"] == "fail"
    assert rep["witnesses"]["lambda_1_per_weight"]["6"] is None
    assert rep["witnesses"]["lambda_1_per_weight"]["10"] is None
    assert rep["witnesses"]["violation_weight"] == "6"
    assert rep["witnesses"]["violation"] == verify.exact_json(
        oracles.t_design_violation(broken[6], 1))


def test_thm_1_2_type1_reads_c6_and_c10_off_the_slice(type1, monkeypatch):
    # The code's own C_6 is the slice's: the report equals that of the
    # mutated C_6 given as a substitute, checked against the same C_10.
    broken = one_point_swaps(monkeypatch)
    own = verify.verify_thm_1_2_type1(type1)
    assert own == verify.verify_thm_1_2_type1(type1, broken[6])
    assert own["verdict"] == "fail"
    assert own["witnesses"]["lambda_2"] is None


def outcome(call, guard):
    """call()'s value, or the type and message of its error, with
    designs.DESIGN_GUARD set to guard."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "DESIGN_GUARD", guard)
        try:
            return call()
        except (ValueError, EnumerationGuardError) as err:
            return type(err), str(err)


@st.composite
def small_codes(draw, max_n=20, max_k=10):
    """A random [n, k] code, n <= max_n, whose dual has dimension at most
    max_k when union is drawn, so that both fit the Design walk."""
    union = draw(st.booleans())
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(max(0, n - max_k) if union else 0, min(n, max_k)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    return code_from_rows(rows, n), union


# A guard below C(n, t) refuses the walk at that t.
GUARDS = st.sampled_from([designs.DESIGN_GUARD, 3, 20, 200, 2000])
# k = 17 takes two chunks of the weight slices.
TWO_CHUNKS = code_from_rows([(1 << i) | (0b11 << i % 2 + 17) for i in range(17)], 20)
# k = 18 takes four, at the offsets 0, r0, r0^r1, r1: the columns on r0
# are flipped at the second offset and flipped back at the fourth.
FOUR_CHUNKS = code_from_rows([(1 << i) | (0b11 << i % 2 + 18) for i in range(18)], 21)


@settings(max_examples=150, deadline=None, database=None)
@given(small_codes(), st.integers(-1, 4), GUARDS)
@example((load_code("type1_16"), False), 3, designs.DESIGN_GUARD)
@example((builtin("e8+e8"), False), 4, designs.DESIGN_GUARD)
@example((builtin("e8+e8"), False), 4, 200)
@example((code_from_rows([], 4), False), 2, designs.DESIGN_GUARD)
@example((TWO_CHUNKS, False), 2, designs.DESIGN_GUARD)
@example((FOUR_CHUNKS, False), 2, designs.DESIGN_GUARD)
def test_strength_profile_matches_the_design_walk(code, t_cap, guard):
    c, _ = code
    assert (outcome(lambda: verify.strength_profile(c, t_cap), guard)
            == outcome(lambda: oracles.strength_profile(c, t_cap), guard))


@pytest.mark.parametrize("rows, n, message", [
    ([1 << i for i in range(20)], 20, "t_max out of range"),
    ([], 20, "no weights strictly between 0 and n"),
    ([(1 << 20) - 1], 20, "no weights strictly between 0 and n"),
], ids=["k=20", "zero-code", "all-ones"])
def test_strength_profile_refuses_a_negative_cap_before_slicing(monkeypatch, rows, n, message):
    """A code with a weight strictly between 0 and n is refused at entry; one
    without it is sliced, which at k <= 1 is one or two words."""
    walked = []
    real = verify._weight_leaves

    def counted(c):
        walked.append(c)
        return real(c)

    monkeypatch.setattr(verify, "_weight_leaves", counted)
    c = code_from_rows(rows, n)
    with pytest.raises(ValueError) as err:
        verify.strength_profile(c, -1)
    assert (str(err.value), walked) == (message, [] if c.dimension > 1 else [c])


@settings(max_examples=150, deadline=None, database=None)
@given(small_codes(), GUARDS)
@example((load_code("type1_16"), False), designs.DESIGN_GUARD)
@example((load_code("fsd_16"), True), designs.DESIGN_GUARD)
@example((load_code("fsd_16"), True), 3)
@example((TWO_CHUNKS, True), designs.DESIGN_GUARD)
@example((FOUR_CHUNKS, True), designs.DESIGN_GUARD)
def test_thm_1_1_counting_route_matches_the_design_walk(code, guard):
    c, union = code
    codes = [c, dual(c)] if union else [c]
    assert (outcome(lambda: verify._counting_route(*verify._slices(codes)), guard)
            == outcome(lambda: oracles.thm_1_1_counting_route(codes), guard))


@settings(max_examples=150, deadline=None, database=None)
@given(small_codes(), st.integers(0, 2))
@example((load_code("fsd_16"), True), 1)
@example((TWO_CHUNKS, False), 1)
@example((TWO_CHUNKS, True), 2)
@example((FOUR_CHUNKS, True), 2)
def test_thm_1_1_harmonic_sums_over_the_slice_match_the_enumerators(code, k):
    """The sums of f~ per weight that thm1.1 folds from the one slice of the
    code, joined with its dual in the union branch, are the harmonic weight
    enumerators of the codes, one tilde per codeword, added together. The
    oracle walks each code once per function, so three functions are
    checked: the first, the middle and the last of the basis."""
    c, union = code
    codes = [c, dual(c)] if union else [c]
    basis = harm_basis(c.n, min(k, c.n))
    fs = [basis[i] for i in sorted({0, len(basis) // 2, len(basis) - 1})] if basis else []
    added = [[sum(column) for column in
              zip(*(oracles.harmonic_weight_enumerator(x, f).coeffs for x in codes))]
             for f in fs]
    assert harmonic._fold_sums(*verify._slices(codes), fs) == added


def test_the_counting_route_reads_each_code_once(monkeypatch):
    fsd16 = load_code("fsd_16")
    real, walked = verify._weight_leaves, []

    def counted(c):
        walked.append(c)
        return real(c)

    monkeypatch.setattr(verify, "_weight_leaves", counted)
    lambdas, violation = verify._counting_route(*verify._slices([fsd16, dual(fsd16)]))
    assert walked == [fsd16, dual(fsd16)]
    assert violation is None and lambdas == {4: 6, 6: 48, 8: 102, 10: 80, 12: 18}


def assert_delsarte_matches_oracle(blocks, n, t):
    """The check on Design(n, blocks) against the tilde sum over the raw
    blocks: a block list the oracle refuses is refused by Design, and a t
    out of range for good blocks by the check."""
    try:
        expected = oracles.delsarte_design_check(blocks, n, t)
    except ValueError as err:
        try:
            d = Design(n, blocks)
        except ValueError:
            return
        assert str(err) == "t out of range"
        with pytest.raises(ValueError, match="t out of range"):
            delsarte_design_check(d, t)
    else:
        assert delsarte_design_check(Design(n, blocks), t) == expected


@SETTINGS
@given(small_designs(), st.integers(1, 3))
def test_delsarte_matches_the_tilde_sum(d, t):
    assert_delsarte_matches_oracle(d.blocks, d.v, t)
    if t <= d.k:
        assert delsarte_design_check(d, t) == (is_t_design(d, t) is not None)


@settings(max_examples=30, deadline=None, database=None)
@given(st.data(), st.integers(1, 3))
def test_delsarte_on_c6_mutants_matches_the_tilde_sum(c6, data, t):
    assert_delsarte_matches_oracle(one_point_swap(c6, data).blocks, 16, t)
    assert_delsarte_matches_oracle(c6.blocks + one_point_swap(c6, data).blocks[:5], 16, t)


@pytest.mark.parametrize("blocks, n, t", [
    ([], 5, 1),
    ([(1, 2), (1, 2, 3)], 5, 1),
    ([(1, 2, 3, 4, 5, 6)], 5, 1),
    ([(1, 2)], 5, 3),
    ([(1, 1, 2)], 5, 1),
    ([(1, 2, 3), (0, 1, 2)], 5, 1),
    ([(1, 2, 3), (3, 4, 20)], 16, 1),
    ([(1, 2), (1, 2), (3, 4), (3, 4)], 4, 1),
    ([(1, 2), (1, 2), (3, 4)], 4, 1),
])
def test_delsarte_edge_cases_match_the_tilde_sum(blocks, n, t):
    assert_delsarte_matches_oracle(blocks, n, t)
