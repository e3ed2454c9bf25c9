"""The bit-sliced weight leaves against the Gray walks they replaced: the
weight count, the words of one weight, the doubly-even subcode and the
harmonic weight enumerators."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from amdesign import gf2core
from amdesign.catalog import builtin
from amdesign.gf2core import (
    code_from_rows, code_from_strings, codewords_of_weight, doubly_even_subcode, dual,
    macwilliams, support, weight_distribution)
from amdesign.harmonic import (
    harm_basis, harmonic_weight_enumerator, harmonic_weight_enumerators)


def random_code(seed, n, k, all_ones=False, even=False):
    """A random [n, k] code; its first generator is the all-ones word when
    asked, and every generator has even weight when asked."""
    rng = random.Random(seed)
    c = code_from_rows([(1 << n) - 1] if all_ones else [], n)
    while c.dimension < k:
        row = rng.getrandbits(n)
        c = code_from_rows(c.basis + (row ^ (even and row.bit_count() & 1),), n)
    return c


@st.composite
def codes(draw, max_n=48, max_k=20):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, min(n, max_k)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    if rows and draw(st.booleans()):
        rows[0] = (1 << n) - 1
    return code_from_rows(rows, n)


def evened(c):
    """The code spanned by c's generators with their parity bit cleared."""
    return code_from_rows([r ^ (r.bit_count() & 1) for r in c.basis], c.n)


def some_functions(n, seed):
    """A random basis function of each Harm_k(n), k = 0..3, that has one."""
    rng = random.Random(seed)
    bases = [harm_basis(n, k) for k in range(min(n, 3) + 1)]
    return [rng.choice(basis) for basis in bases if basis]


# Two chunks: k = 16 fills one, k = 17 takes a second offset.
TWO_CHUNKS = [random_code(7, 18, 16), random_code(8, 18, 17, all_ones=True),
              random_code(9, 20, 17, even=True)]
# Four chunks: k = 18 walks the offsets 0, r0, r0^r1, r1, so the columns on
# r0 are flipped at the second offset and flipped back at the fourth.
FOUR_CHUNKS = random_code(10, 20, 18)


@settings(max_examples=80, deadline=None, database=None)
@given(codes())
@example(random_code(1, 15, 15))
@example(random_code(2, 16, 16, all_ones=True))
@example(random_code(3, 17, 17, all_ones=True))
@example(random_code(4, 48, 15, all_ones=True))
@example(random_code(5, 48, 16))
@example(random_code(6, 48, 17))
@example(FOUR_CHUNKS)
@example(code_from_rows([(1 << 48) - 1], 48))
def test_random_codes_match_the_walk(c):
    assert weight_distribution(c) == oracles.weight_distribution(c)


@pytest.mark.parametrize("k", [20, 21, 22, 23, 24])
def test_dual_spectrum_is_the_macwilliams_transform(k):
    # The walk is too slow here; MacWilliams checks the count on both sides.
    c = random_code(k, 44, k, all_ones=k % 2 == 0)
    wd, dual_wd = weight_distribution(c), weight_distribution(dual(c))
    assert sum(wd.values()) == 1 << k
    assert sum(dual_wd.values()) == 1 << (44 - k)
    assert dual_wd == macwilliams(wd, 44, k)


@settings(max_examples=60, deadline=None, database=None)
@given(codes(max_k=12))
@example(TWO_CHUNKS[0])
@example(TWO_CHUNKS[1])
@example(FOUR_CHUNKS)
def test_words_of_each_weight_match_the_walk(c):
    for w in range(c.n + 1):
        assert codewords_of_weight(c, w) == oracles.codewords_of_weight(c, w)


# span{11110000, 10001110}: the two weight-4 rows meet once, so their sum
# has weight 6 and the weight-0 mod 4 words are not closed under addition.
NOT_CLOSED = code_from_strings(["11110000", "10001110"])


@settings(max_examples=60, deadline=None, database=None)
@given(codes(max_k=12).map(evened))
@example(NOT_CLOSED)
@example(code_from_strings(["10"]))
@example(evened(TWO_CHUNKS[0]))
@example(TWO_CHUNKS[2])
def test_doubly_even_subcode_matches_the_walk(c):
    assert_subcode_matches_the_walk(c)


def assert_subcode_matches_the_walk(c):
    try:
        expected = oracles.doubly_even_subcode(c)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            doubly_even_subcode(c)
    else:
        assert doubly_even_subcode(c) == expected


@st.composite
def self_orthogonal_sums(draw, max_n=36):
    """A direct sum of i2, d4 and e8 (an even self-orthogonal code, so its
    doubly-even words are closed) under a coordinate permutation, and in
    some draws with one generator replaced by a random even word."""
    parts = draw(st.lists(st.sampled_from(["i2", "d4", "e8"]), min_size=1, max_size=8))
    c = permuted(builtin("+".join(parts)), draw(st.randoms()))
    assume(c.n <= max_n)
    rows = list(c.basis)
    if draw(st.booleans()):
        row = draw(st.integers(1, (1 << c.n) - 1))
        rows[draw(st.integers(0, len(rows) - 1))] = row ^ (row.bit_count() & 1)
    return code_from_rows(rows, c.n)


def permuted(c, rng):
    perm = list(range(c.n))
    rng.shuffle(perm)
    return code_from_rows([sum(1 << perm[p - 1] for p in support(r)) for r in c.basis], c.n)


# k = 17 and 18: the closed subcodes span two and four chunks.
@settings(max_examples=40, deadline=None, database=None)
@given(self_orthogonal_sums(max_n=24))
@example(builtin("i2+" * 17 + "i2"))
@example(permuted(builtin("i2+" * 17 + "i2"), random.Random(1)))
@example(permuted(builtin("e8+d4+d4+d4+i2+i2+i2+i2+i2+i2"), random.Random(2)))
@example(code_from_rows(builtin("i2+" * 16 + "i2").basis[:-1] + (0b111100 << 28,), 34))
def test_doubly_even_subcode_of_self_orthogonal_sums_matches_the_walk(c):
    assert_subcode_matches_the_walk(c)


@settings(max_examples=40, deadline=None, database=None)
@given(codes(max_n=14, max_k=10), st.integers(0, 2**32))
@example(TWO_CHUNKS[0], 1)
@example(TWO_CHUNKS[1], 2)
@example(TWO_CHUNKS[2], 3)
@example(FOUR_CHUNKS, 4)
def test_harmonic_enumerators_match_the_walk(c, seed):
    fs = some_functions(c.n, seed)
    for f in fs:
        enum = harmonic_weight_enumerator(c, f)
        assert enum == oracles.harmonic_weight_enumerator(c, f)
        assert all(type(x) is int for x in enum.coeffs)
    assert harmonic_weight_enumerators(c, fs) == [
        list(harmonic_weight_enumerator(c, f).coeffs) for f in fs]


def test_enumerators_of_no_functions_need_no_walk():
    # Above the enumeration guard: a walk would raise.
    assert harmonic_weight_enumerators(random_code(0, 40, 30), ()) == []


def _subcode(c):
    try:
        doubly_even_subcode(c)
    except ValueError:
        pass  # a random even code's weight-0 mod 4 words rarely close


CONSUMERS = {
    "weight_distribution": weight_distribution,
    "codewords_of_weight": lambda c: codewords_of_weight(c, 10),
    "doubly_even_subcode": _subcode,
    "harmonic_weight_enumerator": lambda c: harmonic_weight_enumerator(
        c, harm_basis(c.n, 2)[-1]),
    "harmonic_weight_enumerators": lambda c: harmonic_weight_enumerators(
        c, harm_basis(c.n, 1)[:4] + harm_basis(c.n, 2)[:4]),
}


@pytest.mark.parametrize("consumer, k, n", [
    pytest.param(name, k, 40, id=str(k) if name == "weight_distribution" else f"{name}-{k}")
    for name in CONSUMERS for k in (8, 16, 20, 24)] + [
    pytest.param("weight_distribution", 24, 48, id="24-n48")])
def test_one_walk_of_the_offsets_per_call(monkeypatch, consumer, k, n):
    real = gf2core.iter_codewords
    walks, words = [], []

    def counted(c):
        walks.append(c.dimension)
        for word in real(c):
            words.append(word)
            yield word

    monkeypatch.setattr(gf2core, "iter_codewords", counted)
    # doubly_even_subcode walks only an even code that is not doubly even.
    CONSUMERS[consumer](random_code(k, n, k, even=consumer == "doubly_even_subcode"))
    assert len(walks) == 1
    # weight_distribution of a code with 2k > n walks its dual.
    walked = n - k if consumer == "weight_distribution" and 2 * k > n else k
    assert len(words) == 1 << max(0, walked - 16)


def test_weight_distribution_builds_one_chunk_at_a_time():
    """weight_distribution of a [40,20] code, traced in a new interpreter:
    its 16 chunks share one list of 40 columns of 2^16 bits (about 8 KiB
    each), flipped in place, and each chunk's 41 leaves are freed before the
    next are built. It peaks at 591 KiB; two chunks alive at once peaked at
    1149, and a new column list per chunk beside the first chunk's at 686."""
    script = ("import sys, tracemalloc\n"
              "from amdesign.gf2core import code_from_rows, weight_distribution\n"
              "c = code_from_rows(map(int, sys.argv[1:]), 40)\n"
              "tracemalloc.start()\n"
              "weight_distribution(c)\n"
              "print(tracemalloc.get_traced_memory()[1])\n")
    c = random_code(40, 40, 20)
    assert c.dimension == 20
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script, *map(str, c.basis)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 640 << 10
