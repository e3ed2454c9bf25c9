"""Bitset code arithmetic: construction, duals, weights, classification."""

import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from amdesign.gf2core import (
    ENUMERATION_GUARD_K,
    EXTREMAL,
    NEAR_EXTREMAL,
    NEITHER,
    NOT_APPLICABLE,
    BinaryCode,
    EnumerationGuardError,
    WeightDistribution,
    classify,
    code_from_rows,
    code_from_strings,
    codewords_of_weight,
    doubly_even_subcode,
    dual,
    format_generator,
    is_doubly_even,
    is_even,
    is_self_orthogonal,
    iter_codewords,
    mallows_sloane,
    minimum_distance,
    pack_row,
    parse_generator_text,
    read_generator_file,
    row_to_string,
    support,
    weight_distribution,
)
from amdesign.catalog import builtin, load_code

TYPE1_WD = {0: 1, 4: 12, 6: 64, 8: 102, 10: 64, 12: 12, 16: 1}
E8_WD = {0: 1, 4: 14, 8: 1}
D4D4_WD = {0: 1, 2: 4, 4: 6, 6: 4, 8: 1}


def random_code(rng, n_max=16):
    n = rng.randrange(1, n_max + 1)
    k = rng.randrange(0, n + 1)
    return code_from_rows((rng.getrandbits(n) for _ in range(k)), n)


def test_pack_row_and_back():
    assert pack_row("0110") == 0b0110
    assert pack_row([1, 0, 1]) == 0b101
    assert row_to_string(0b0110, 4) == "0110"
    assert row_to_string(0, 3) == "000"
    with pytest.raises(ValueError):
        pack_row("01x0")


def test_support_is_one_based():
    assert support(0b101001) == (1, 4, 6)
    assert support(0) == ()
    assert support(pack_row("0001")) == (4,)


def test_code_from_rows_is_canonical():
    c1 = code_from_strings(["1100", "0110"])
    c2 = code_from_strings(["1010", "0110"])
    assert c1 == c2
    assert c1.dimension == 2
    dependent = code_from_strings(["110", "011", "101"])
    assert dependent.dimension == 2
    assert code_from_rows([0, 0], 5).dimension == 0


def test_code_validation():
    with pytest.raises(ValueError):
        BinaryCode(0)
    with pytest.raises(ValueError):
        code_from_rows([0b100], 2)
    with pytest.raises(ValueError):
        code_from_strings([])
    with pytest.raises(ValueError):
        code_from_strings(["10", "011"])


def test_dual_examples(type1):
    d4 = builtin("d4")
    assert dual(d4) == d4
    whole = code_from_rows([1, 2, 4], 3)
    assert dual(whole).dimension == 0
    assert dual(type1) == type1


def test_dual_involution_and_dimension_law():
    rng = random.Random(11)
    for _ in range(25):
        c = random_code(rng)
        cd = dual(c)
        assert c.dimension + cd.dimension == c.n
        assert dual(cd) == c
        for row in c.basis:
            assert all((row & r).bit_count() % 2 == 0 for r in cd.basis)


def test_regenerated_spanning_sets_compare_equal():
    rng = random.Random(7)
    for _ in range(20):
        c = random_code(rng, n_max=12)
        rows = list(c.basis)
        for _ in range(4):
            pick = rng.getrandbits(len(rows)) if rows else 0
            word = 0
            for i, r in enumerate(rows):
                if (pick >> i) & 1:
                    word ^= r
            rows.append(word)
        rng.shuffle(rows)
        assert code_from_rows(rows, c.n) == c


def test_iter_codewords_gray_order():
    d4 = builtin("d4")
    words = list(iter_codewords(d4))
    assert len(words) == d4.size
    assert sorted(words) == [0b0000, 0b0011, 0b1100, 0b1111]
    for prev, cur in zip(words, words[1:]):
        assert (prev ^ cur) in d4.basis


def test_enumeration_guard():
    big = code_from_rows([1 << i for i in range(ENUMERATION_GUARD_K + 1)],
                         ENUMERATION_GUARD_K + 1)
    with pytest.raises(EnumerationGuardError):
        list(iter_codewords(big))
    with pytest.raises(EnumerationGuardError):
        weight_distribution(big)


def test_weight_distribution_examples(type1):
    assert weight_distribution(BinaryCode(4)).counts == {0: 1}
    assert weight_distribution(builtin("e8")).counts == E8_WD
    assert weight_distribution(builtin("d4+d4")).counts == D4D4_WD
    assert weight_distribution(type1).counts == TYPE1_WD


def test_weight_distribution_methods(type1):
    wd = weight_distribution(type1)
    assert sum(wd.counts.values()) == type1.size
    assert wd.count(6) == 64
    assert wd.count(5) == 0
    assert wd.min_nonzero() == 4
    with pytest.raises(ValueError):
        weight_distribution(BinaryCode(4)).min_nonzero()


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.integers(0, 64), st.integers(0, 2**70))
       .flatmap(lambda d: st.permutations(list(d.items()))))
def test_weight_distribution_stores_ascending_weights_without_zeros(items):
    # The spectrum readers iterate counts as stored, with no sort of their own.
    expected = [(w, a) for w, a in sorted(items) if a]
    wd = WeightDistribution(dict(items))
    assert list(wd.counts.items()) == expected
    assert list(pickle.loads(pickle.dumps(wd)).counts.items()) == expected


def test_minimum_distance(type1):
    assert minimum_distance(builtin("d4")) == 2
    assert minimum_distance(builtin("e8")) == 4
    assert minimum_distance(type1) == 4
    with pytest.raises(ValueError):
        minimum_distance(BinaryCode(4))


def test_codewords_of_weight(type1):
    words = codewords_of_weight(type1, 6)
    assert len(words) == 64
    assert all(w.bit_count() == 6 for w in words)
    assert words == sorted(words)
    assert codewords_of_weight(type1, 0) == [0]
    assert codewords_of_weight(type1, 5) == []
    pairs = codewords_of_weight(builtin("d4+d4"), 2)
    assert [support(w) for w in pairs] == [(1, 2), (3, 4), (5, 6), (7, 8)]
    with pytest.raises(ValueError):
        codewords_of_weight(type1, 17)


def test_parity_predicates(type1):
    e8 = builtin("e8")
    assert is_even(e8) and is_doubly_even(e8) and is_self_orthogonal(e8)
    assert is_even(type1) and is_self_orthogonal(type1)
    assert not is_doubly_even(type1)
    assert not is_even(code_from_strings(["10"]))


def test_mallows_sloane_bound():
    assert mallows_sloane(8, 4) == EXTREMAL
    assert mallows_sloane(16, 4) == NEAR_EXTREMAL
    assert mallows_sloane(8, 2) == NEAR_EXTREMAL
    assert mallows_sloane(48, 12) == NEAR_EXTREMAL
    assert mallows_sloane(16, 2) == NEITHER
    with pytest.raises(ValueError):
        mallows_sloane(8, 6)
    with pytest.raises(ValueError):
        mallows_sloane(7, 2)
    with pytest.raises(ValueError):
        mallows_sloane(8, 3)


def test_classify_examples(type1):
    e8 = classify(builtin("e8"))
    assert e8.type_two and not e8.type_one
    assert e8.self_dual and e8.doubly_even
    assert e8.extremality == EXTREMAL

    dd = classify(builtin("d4+d4"))
    assert dd.type_one and not dd.type_two
    assert dd.extremality == NEAR_EXTREMAL

    t1 = classify(type1)
    assert t1.type_one and t1.self_dual and t1.even and not t1.doubly_even
    assert t1.formally_self_dual
    assert t1.extremality == NEAR_EXTREMAL

    odd = classify(code_from_strings(["10"]))
    assert not odd.even
    assert odd.extremality == NOT_APPLICABLE


@st.composite
def codes_to_classify(draw):
    """A random code of length <= 20, or a self-dual or formally self-dual
    one with its coordinates permuted: a direct sum of i2, d4 and e8, or a
    stored length-16 code."""
    kind = draw(st.sampled_from(["random", "sum", "stored"]))
    if kind == "random":
        n = draw(st.integers(1, 20))
        return code_from_rows(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n)), n)
    if kind == "sum":
        parts = draw(st.lists(st.sampled_from(["i2", "d4", "e8"]), min_size=1, max_size=10))
        while sum(int(part[1]) for part in parts) > 20:
            parts.pop()
        c = builtin("+".join(parts))
    else:
        c = load_code(draw(st.sampled_from(["type1_16", "fsd_16"])))
    return oracles.permuted(c, draw(st.permutations(range(c.n))))


@settings(max_examples=300, deadline=None, database=None)
@given(codes_to_classify())
@example(load_code("type1_16"))
@example(load_code("fsd_16"))
@example(builtin("e8+e8+e8+e8"))
@example(code_from_rows([], 4))
def test_classify_matches_the_three_walk_oracle(c):
    assert classify(c) == oracles.classify(c)


def test_doubly_even_subcode(type1):
    e8 = builtin("e8")
    assert doubly_even_subcode(e8) == e8
    sub = doubly_even_subcode(builtin("d4"))
    assert sub == code_from_strings(["1111"])
    t0 = doubly_even_subcode(type1)
    assert t0.dimension == 7
    assert weight_distribution(t0).counts == {0: 1, 4: 12, 8: 102, 12: 12, 16: 1}
    assert code_from_rows(t0.basis + type1.basis, 16) == type1
    with pytest.raises(ValueError):
        doubly_even_subcode(code_from_strings(["10"]))
    # The rows meet once, so their sum has weight 6: not closed.
    with pytest.raises(ValueError, match="do not form a subcode"):
        doubly_even_subcode(code_from_strings(["11110000", "10001110"]))


def test_self_dual_is_even():
    rng = random.Random(3)
    for _ in range(30):
        c = random_code(rng, n_max=12)
        cls = classify(c)
        if cls.self_dual:
            assert cls.even
            assert dual(c) == c


def test_generator_text_round_trip(tmp_path, type1):
    path = tmp_path / "c.gm"
    path.write_text(format_generator(type1))
    assert read_generator_file(path) == type1
    text = "# comment\n\n 1100 \n0011\n"
    assert parse_generator_text(text) == builtin("d4")
    assert format_generator(builtin("d4")).count("\n") == 2
    with pytest.raises(ValueError):
        parse_generator_text("# only a comment\n")
    with pytest.raises(ValueError):
        parse_generator_text("10\n011\n")
