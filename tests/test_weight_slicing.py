"""The bit-sliced weight count against the Gray walk it replaced."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from amdesign import gf2core
from amdesign.gf2core import code_from_rows, dual, weight_distribution
from amdesign.polyring import macwilliams_transform_classical


def random_code(seed, n, k, all_ones=False):
    """A random [n, k] code; its first generator is the all-ones word when asked."""
    rng = random.Random(seed)
    c = code_from_rows([(1 << n) - 1] if all_ones else [], n)
    while c.dimension < k:
        c = code_from_rows(c.basis + (rng.getrandbits(n),), n)
    return c


@st.composite
def codes(draw):
    n = draw(st.integers(1, 48))
    k = draw(st.integers(0, min(n, 20)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    if rows and draw(st.booleans()):
        rows[0] = (1 << n) - 1
    return code_from_rows(rows, n)


@settings(max_examples=80, deadline=None, database=None)
@given(codes())
@example(random_code(1, 15, 15))
@example(random_code(2, 16, 16, all_ones=True))
@example(random_code(3, 17, 17, all_ones=True))
@example(random_code(4, 48, 15, all_ones=True))
@example(random_code(5, 48, 16))
@example(random_code(6, 48, 17))
@example(code_from_rows([(1 << 48) - 1], 48))
def test_random_codes_match_the_walk(c):
    assert weight_distribution(c) == oracles.weight_distribution(c)


@pytest.mark.parametrize("k", [20, 21, 22, 23, 24])
def test_dual_spectrum_is_the_macwilliams_transform(k):
    # The walk is too slow here; MacWilliams checks the count on both sides.
    c = random_code(k, 44, k, all_ones=k % 2 == 0)
    wd, dual_wd = weight_distribution(c), weight_distribution(dual(c))
    assert wd.total() == 1 << k and dual_wd.total() == 1 << (44 - k)
    assert dual_wd == macwilliams_transform_classical(wd, 44, k)


@pytest.mark.parametrize("k", [8, 16, 20, 24])
def test_one_walk_of_the_offsets_per_call(monkeypatch, k):
    real = gf2core.iter_codewords
    walks, words = [], []

    def counted(c):
        walks.append(c.dimension)
        for word in real(c):
            words.append(word)
            yield word

    monkeypatch.setattr(gf2core, "iter_codewords", counted)
    weight_distribution(random_code(k, 40, k))
    assert len(walks) == 1
    assert len(words) == 1 << max(0, k - 16)
