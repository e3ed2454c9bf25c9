"""The incidence-bitset t-design walk against the C(v,t)*b scan and the
per-block t-subset count it replaced, and the incidence-bitset Delsarte test
against the per-block tilde sum."""

import re

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from amdesign import designs, verify
from amdesign.designs import (
    Design,
    design_strength,
    is_t_design,
    support_design,
    t_design_violation,
)
from amdesign.harmonic import delsarte_design_check

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


def test_thm_1_1_reports_the_first_failing_weight(type1, monkeypatch):
    real = designs.support_design
    broken = {}

    def with_mutants(c, w):
        d = real(c, w)
        if w in (6, 10):
            block = d.blocks[0]
            into = min(set(range(1, d.v + 1)) - set(block))
            d = broken[w] = Design(d.v, ((into,) + block[1:],) + d.blocks[1:])
        return d

    monkeypatch.setattr(designs, "support_design", with_mutants)
    rep = verify.verify_thm_1_1(type1)
    assert not rep.passed
    assert rep.witnesses["lambda_1_per_weight"]["6"] is None
    assert rep.witnesses["lambda_1_per_weight"]["10"] is None
    assert rep.witnesses["violation_weight"] == "6"
    assert rep.witnesses["violation"] == verify.exact_json(
        oracles.t_design_violation(broken[6], 1))


def assert_delsarte_matches_oracle(blocks, n, t):
    try:
        expected = oracles.delsarte_design_check(blocks, n, t)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            delsarte_design_check(blocks, n, t)
    else:
        assert delsarte_design_check(blocks, n, t) == expected


@SETTINGS
@given(small_designs(), st.integers(1, 3))
def test_delsarte_matches_the_tilde_sum(d, t):
    assert_delsarte_matches_oracle(d.blocks, d.v, t)
    if t <= d.k:
        assert delsarte_design_check(d.blocks, d.v, t) == (is_t_design(d, t) is not None)


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
