"""Bitset code arithmetic: construction, duals, weights, classification."""

import contextlib
import io
import json
import random
from functools import cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from amdesign.gf2core import (
    ENUMERATION_GUARD_K,
    EXTREMAL,
    NEAR_EXTREMAL,
    NEITHER,
    NOT_APPLICABLE,
    BinaryCode,
    _krawtchouk,
    EnumerationGuardError,
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
    macwilliams,
    mallows_sloane,
    min_nonzero,
    minimum_distance,
    parse_generator_text,
    read_generator_file,
    support,
    weight_distribution,
)
from amdesign.catalog import builtin, load_code
from amdesign.cli import run

TYPE1_WD = {0: 1, 4: 12, 6: 64, 8: 102, 10: 64, 12: 12, 16: 1}
E8_WD = {0: 1, 4: 14, 8: 1}
D4D4_WD = {0: 1, 2: 4, 4: 6, 6: 4, 8: 1}


def random_code(rng, n_max=16):
    n = rng.randrange(1, n_max + 1)
    k = rng.randrange(0, n + 1)
    return code_from_rows((rng.getrandbits(n) for _ in range(k)), n)


def test_generator_rows_read_and_write_character_i_as_bit_i():
    c = code_from_strings(["0110", "1000"])
    assert c.basis == (0b0001, 0b0110)
    assert format_generator(c) == "1000\n0110\n"
    assert format_generator(code_from_rows([0], 3)) == ""
    with pytest.raises(ValueError, match="^invalid bit 'x'$"):
        code_from_strings(["0110", "01x0"])


def test_support_is_one_based():
    assert support(0b101001) == (1, 4, 6)
    assert support(0) == ()
    assert support(code_from_strings(["0001"]).basis[0]) == (4,)


def _code_or_message(read, arg):
    try:
        return read(arg)
    except ValueError as err:
        return str(err)


# Characters int(s, 2) would read or skip that a generator row must refuse:
# '_' separators, a sign, a '0b' prefix and a non-ASCII zero.
_ROW_CHARS = "01x2_+-b\u0660"

# Row lists of one length n, each row of '0'/'1' or of any of those
# characters, and rows of any length up to 8 among them.
_ROW_LISTS = st.integers(0, 8).flatmap(lambda n: st.lists(
    st.text("01", min_size=n, max_size=n) | st.text(_ROW_CHARS, min_size=n, max_size=n)
    | st.text(_ROW_CHARS, max_size=8), max_size=5))


@given(_ROW_LISTS)
@example([])
@example(["", ""])
@example(["10", "011"])
@example(["0b1"])
@example(["1_0", "1x0"])
@settings(max_examples=300, deadline=None)
def test_generator_rows_read_as_the_per_character_oracle(rows):
    # The same code, or the same message. The text reader skips empty lines
    # and refuses a text with no rows before any row is checked.
    assert (_code_or_message(code_from_strings, rows)
            == _code_or_message(oracles.code_from_strings, rows))
    text = "".join(r + "\n" for r in rows)
    kept = [r for r in rows if r]
    expected = (_code_or_message(oracles.code_from_strings, kept) if kept
                else "no generator rows found")
    assert _code_or_message(parse_generator_text, text) == expected


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 2**n - 1), max_size=6))))
@settings(max_examples=200, deadline=None)
def test_generator_rows_write_as_the_per_character_oracle(case):
    c = code_from_rows(case[1], case[0])
    assert format_generator(c) == oracles.format_generator(c)
    assert code_from_strings(format_generator(c).split() or ["0" * c.n]) == c


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
    k = ENUMERATION_GUARD_K + 1
    big = code_from_rows([1 << i for i in range(k)], k)
    with pytest.raises(EnumerationGuardError):
        list(iter_codewords(big))
    # [2k, k]: the code and its dual both exceed the guard.
    with pytest.raises(EnumerationGuardError):
        weight_distribution(code_from_rows([(1 | 1 << k) << i for i in range(k)], 2 * k))


def test_weight_distribution_examples(type1):
    assert weight_distribution(BinaryCode(4)) == {0: 1}
    assert weight_distribution(builtin("e8")) == E8_WD
    assert weight_distribution(builtin("d4+d4")) == D4D4_WD
    assert weight_distribution(type1) == TYPE1_WD


def test_weight_distribution_methods(type1):
    wd = weight_distribution(type1)
    assert sum(wd.values()) == type1.size
    assert wd[6] == 64
    assert 5 not in wd
    assert min_nonzero(wd) == 4
    with pytest.raises(ValueError, match="^the zero code has no minimum distance$"):
        min_nonzero(weight_distribution(BinaryCode(4)))


def test_macwilliams_examples(type1):
    e8 = builtin("e8")
    wd8 = weight_distribution(e8)
    assert macwilliams(wd8, 8, 4) == wd8
    wd16 = weight_distribution(type1)
    assert macwilliams(wd16, 16, 8) == wd16
    assert macwilliams({0: 1}, 2, 0) == {0: 1, 1: 2, 2: 1}


def test_macwilliams_matches_enumerated_dual():
    rng = random.Random(5)
    seen = 0
    while seen < 50:
        n = rng.randrange(2, 13)
        k = rng.randrange(0, n + 1)
        c = code_from_rows((rng.getrandbits(n) for _ in range(k)), n)
        wd = weight_distribution(c)
        assert macwilliams(wd, n, c.dimension) == weight_distribution(dual(c))
        seen += 1


def test_macwilliams_involution():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(2, 11)
        c = code_from_rows((rng.getrandbits(n) for _ in range(n // 2)), n)
        wd = weight_distribution(c)
        once = macwilliams(wd, n, c.dimension)
        assert macwilliams(once, n, n - c.dimension) == wd


def test_a_krawtchouk_prefix_is_the_full_rows_prefix():
    for n in range(41):
        for i in range(n + 1):
            row = _krawtchouk(n, i)
            assert len(row) == n + 1
            for length in range(n + 3):
                assert _krawtchouk(n, i, length) == row[:length]


def test_macwilliams_input_validation():
    with pytest.raises(ValueError, match="does not sum to 2"):
        macwilliams({0: 1, 1: 2}, 2, 0)
    with pytest.raises(ValueError, match="count the zero word once"):
        macwilliams({1: 1}, 2, 0)
    # x^4 + 3x^3y maps to 4x^4 + 10x^3y + ...: 10/4 at w = 1 is not an integer.
    with pytest.raises(ValueError, match="transform is not a weight distribution at w=1"):
        macwilliams({0: 1, 1: 3}, 4, 2)
    # x^2 + 3y^2 maps to 4x^2 - 4xy + 4y^2: -4/4 at w = 1 is a negative count.
    with pytest.raises(ValueError, match="transform is not a weight distribution at w=1"):
        macwilliams({0: 1, 2: 3}, 2, 2)
    # The sign is checked first: each of these also fails a later check.
    for wd in ({-1: 1}, {0: 1, 2: -1}, {0: 1, -2: 1, 2: 2}):
        with pytest.raises(ValueError, match="^weights and counts must be nonnegative$"):
            macwilliams(wd, 4, 1)


@st.composite
def codes_of_length_at_most_20(draw):
    """A code spanned by k random rows of length n <= 20, k <= min(n, 14)."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(0, min(n, 14)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    return code_from_rows(rows, n)


@settings(max_examples=100, deadline=None, database=None)
@given(codes_of_length_at_most_20(), st.randoms(use_true_random=False),
       st.sets(st.integers(0, 20)))
def test_weight_distribution_stores_ascending_weights_without_zeros(c, rnd, zeros):
    # The spectrum readers iterate counts as stored, with no sort of their
    # own, whatever the order and zero counts of the spectrum macwilliams reads.
    wd = weight_distribution(c)
    items = [*wd.items(), *((w, 0) for w in zeros if w <= c.n and w not in wd)]
    rnd.shuffle(items)
    dual_wd = macwilliams(dict(items), c.n, c.dimension)
    assert dual_wd == macwilliams(wd, c.n, c.dimension)
    for spectrum in (wd, dual_wd):
        assert list(spectrum.items()) == [(w, a) for w, a in sorted(spectrum.items()) if a]


@settings(max_examples=150, deadline=None, database=None)
@given(codes_of_length_at_most_20())
@example(code_from_rows([], 20))
@example(code_from_rows([1 << i for i in range(14)], 20))
@example(builtin("e8+d4+i2"))
def test_macwilliams_is_the_walked_dual_and_the_enumerator_oracle(c):
    wd = weight_distribution(c)
    dual_wd = macwilliams(wd, c.n, c.dimension)
    assert dual_wd == weight_distribution(dual(c))
    assert dual_wd == oracles.macwilliams(wd, c.n, c.dimension)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 20).flatmap(lambda n: st.lists(
    st.integers(0, (1 << n) - 1), min_size=n // 2 + 1, max_size=n).map(
        lambda rows: code_from_rows(rows, n))))
@example(code_from_rows([1 << i for i in range(20)], 20))
def test_a_high_rate_spectrum_is_the_word_by_word_count(c):
    assume(2 * c.dimension > c.n)
    assert weight_distribution(c) == oracles.weight_distribution(c)


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
    assert e8["type_two"] and not e8["type_one"]
    assert e8["self_dual"] and e8["doubly_even"]
    assert e8["extremality"] == EXTREMAL

    dd = classify(builtin("d4+d4"))
    assert dd["type_one"] and not dd["type_two"]
    assert dd["extremality"] == NEAR_EXTREMAL

    t1 = classify(type1)
    assert t1["type_one"] and t1["self_dual"] and t1["even"] and not t1["doubly_even"]
    assert t1["formally_self_dual"]
    assert t1["extremality"] == NEAR_EXTREMAL

    odd = classify(code_from_strings(["10"]))
    assert not odd["even"]
    assert odd["extremality"] == NOT_APPLICABLE

    assert list(classify(builtin("i2")).items()) == [
        ("even", True), ("doubly_even", False), ("self_orthogonal", True),
        ("self_dual", True), ("formally_self_dual", True), ("type_one", True),
        ("type_two", False), ("extremality", EXTREMAL)]


@cache
def info_class_keys():
    """The keys of `code info --format json`'s class block, in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["code", "info", "-b", "type1_16", "--format", "json"]) == 0
    return list(json.loads(out.getvalue())["class"])


@settings(max_examples=150, deadline=None, database=None)
@given(codes_of_length_at_most_20())
@example(code_from_rows([], 20))
@example(code_from_rows([1 << i for i in range(14)], 20))
@example(builtin("e8+d4+i2"))
@example(builtin("e8+e8"))
def test_spectra_and_classes_are_plain_dicts(c):
    # The spectrum readers iterate a spectrum as returned, with no sort of
    # their own, and code info prints the class as classify orders it.
    wd = weight_distribution(c)
    dual_wd = macwilliams(wd, c.n, c.dimension)
    expected = oracles.weight_distribution(c)
    for spectrum, oracle in ((wd, expected),
                             (dual_wd, oracles.macwilliams(expected, c.n, c.dimension))):
        assert type(spectrum) is dict and spectrum == oracle
        assert list(spectrum) == sorted(spectrum) and all(spectrum.values())
    for cls in (classify(c), classify(c, wd)):
        assert type(cls) is dict and list(cls) == info_class_keys()


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
    assert list(classify(c).items()) == list(oracles.classify(c).items())


def test_doubly_even_subcode(type1):
    e8 = builtin("e8")
    assert doubly_even_subcode(e8) == e8
    sub = doubly_even_subcode(builtin("d4"))
    assert sub == code_from_strings(["1111"])
    t0 = doubly_even_subcode(type1)
    assert t0.dimension == 7
    assert weight_distribution(t0) == {0: 1, 4: 12, 8: 102, 12: 12, 16: 1}
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
        if cls["self_dual"]:
            assert cls["even"]
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
