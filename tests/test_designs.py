"""Block multisets: design tests, complements, intersections, Mendelsohn."""

import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import format_design

from amdesign import ratlin
from amdesign.catalog import builtin, load_code
from amdesign.cli import run
from amdesign.designs import (
    DESIGN_GUARD,
    Design,
    _inverse_weights,
    _scan_design,
    code_from_design,
    complement_design,
    design_json,
    design_strength,
    intersection_profile,
    is_self_orthogonal_design,
    is_t_design,
    lambda_i,
    mendelsohn_solve,
    read_design_file,
    support_design,
    t_design_violation,
    union,
)
from amdesign.gf2core import EnumerationGuardError, code_from_rows, format_generator
from amdesign.harmonic import delsarte_design_check


def complete_design(v, k):
    return Design(v, tuple(combinations(range(1, v + 1), k)))


def test_design_validation():
    with pytest.raises(ValueError):
        Design(0, ((1,),))
    with pytest.raises(ValueError):
        Design(4, ())
    with pytest.raises(ValueError):
        Design(4, ((1, 1),))
    with pytest.raises(ValueError):
        Design(4, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        Design(4, ((3, 5),))


@pytest.mark.parametrize("v", [None, 4.0, "4"])
def test_design_refuses_a_point_count_that_is_not_an_integer(v):
    # The blocks are checked before int(v), which would raise TypeError on
    # None and accept 4.0 and "4".
    blocks = [] if v is None else [[1]]
    with pytest.raises(ValueError, match="^point count must be an integer$"):
        Design(v, blocks)


class Point(IntEnum):
    ONE = 1
    TWO = 2
    NINE = 9


# Points Design rejects or ranges it rejects, drawn for about half of the
# collections so that the other half can pass every check.
_ODD_POINTS = st.one_of(
    st.integers(-1, 0), st.integers(10, 11), st.booleans(),
    st.floats(allow_nan=False, min_value=-1, max_value=9),
    st.text(max_size=2), st.lists(st.integers(1, 4), max_size=2),
)


@st.composite
def design_inputs(draw):
    """(v, blocks): blocks as lists or tuples, of one size or mixed sizes,
    empty ones included, with plain or IntEnum points and, for some, odd
    ones; v is mostly a valid count, and for some draws the points reach v+1."""
    v = draw(st.sampled_from([*range(1, 10)] * 3 + [-1, 0, True, Point.NINE, 9.0]))
    top = v if type(v) is int and v > 0 else 9
    top += draw(st.integers(0, 1))
    good = st.one_of(st.integers(1, top), st.sampled_from([p for p in Point if p <= top]))
    point = st.one_of(good, _ODD_POINTS) if draw(st.booleans()) else good
    # Under str, as under ==, an IntEnum member is its value.
    distinct = str if draw(st.booleans()) else None
    k = draw(st.integers(1, min(4, top)))
    size = st.integers(0, min(5, top)) if draw(st.booleans()) else st.just(k)
    block = size.flatmap(
        lambda m: st.lists(point, min_size=m, max_size=m, unique_by=distinct))
    empty = draw(st.sampled_from([False] * 7 + [True]))
    blocks = draw(st.lists(st.one_of(block, block.map(tuple)), min_size=1 - empty,
                           max_size=0 if empty else 6))
    return v, tuple(blocks) if draw(st.booleans()) else blocks


def _validated(build):
    try:
        return "ok", build()
    except ValueError as err:
        return "error", str(err)


@settings(max_examples=400, deadline=None, database=None)
@given(design_inputs())
def test_design_validation_matches_the_oracle(tmp_path_factory, inputs):
    v, blocks = inputs
    expected = _validated(lambda: oracles.design_blocks(v, blocks))
    # The same input through a file: JSON writes an IntEnum as its value, and
    # read_design_file turns each parsed list into a tuple before Design.
    path = tmp_path_factory.getbasetemp() / "oracle_design.json"
    path.write_text(json.dumps({"v": v, "blocks": blocks}))
    for build in (lambda: Design(v, blocks), lambda: read_design_file(path)):
        got = _validated(build)
        if expected[0] == "error":
            assert got == expected
        else:
            d = got[1]
            assert (d.v, tuple(map(tuple, d.blocks))) == expected[1]
            # Points are stored as plain ints, whatever int type they came in.
            assert type(d.v) is int
            assert all(type(p) is int for block in d.blocks for p in block)
            assert {type(block) for block in d.blocks} == {bytes if d.v <= 255 else tuple}


def test_design_stores_sorted_blocks_as_bytes_up_to_255_points():
    d = Design(9, [(9, 1, 2), [1, 2, 9]])
    assert d.blocks == (b"\x01\x02\x09", b"\x01\x02\x09")
    assert Design(9, [(Point.ONE, Point.NINE, Point.TWO)]).blocks == (b"\x01\x02\x09",)
    d = Design(256, [(256, 1, 2), (3, 2, 1)])
    assert d.blocks == ((1, 2, 3), (1, 2, 256))


def test_a_design_stores_int_subclass_points_as_plain_ints():
    for v in (9, 300):
        d = Design(Point.NINE if v == 9 else v, [(2, 3, 4), (Point.NINE, Point.ONE, Point.TWO)])
        assert type(d.v) is int and tuple(map(tuple, d.blocks)) == ((1, 2, 9), (2, 3, 4))
        assert [type(p) for block in d.blocks for p in block] == [int] * 6


@st.composite
def _shuffled_blocks(draw, v=st.integers(1, 255)):
    """A point count drawn from v and blocks of one size on its points, in
    any order, at times repeated."""
    v = draw(v)
    k = draw(st.integers(1, v))
    block = st.permutations(range(1, v + 1)).map(lambda points: points[:k])
    blocks = draw(st.lists(block, min_size=1, max_size=6))
    return v, blocks + draw(st.lists(st.sampled_from(blocks), max_size=3))


# Design stores what the oracle validates, as bytes up to v = 255 and as
# tuples past it.
@settings(max_examples=200, deadline=None, database=None)
@given(design=_shuffled_blocks(st.integers(1, 300) | st.integers(250, 260)))
@example(design=(255, [[255, 1], [2, 3], [1, 255]]))
@example(design=(256, [[256, 1], [2, 3], [1, 256]]))
def test_design_stores_the_oracle_blocks_in_the_form_its_point_count_picks(design):
    v, blocks = design
    d = Design(v, blocks)
    assert (d.v, tuple(map(tuple, d.blocks))) == oracles.design_blocks(v, blocks)
    assert {type(block) for block in d.blocks} == {bytes if v <= 255 else tuple}


@pytest.mark.parametrize("v", [255, 256])
def test_a_design_of_either_block_form_round_trips(v):
    d = Design(v, [(v, 1), (2, 3)])
    for again in (pickle.loads(pickle.dumps(d)), eval(repr(d), {"Design": Design})):
        assert again == d and list(map(type, again.blocks)) == list(map(type, d.blocks))


def _traced(expr, golay, setup=""):
    """(peak, retained) bytes traced while a new interpreter evaluates expr,
    with support_design, read_design_file and the code golay in scope, after
    running the untraced statement setup. In a test process, the free lists
    hold the tuples of earlier tests, and a block built from them is not
    traced."""
    script = ("import sys, tracemalloc\n"
              "from amdesign.designs import read_design_file, support_design\n"
              "from amdesign.gf2core import code_from_rows\n"
              "golay = code_from_rows(map(int, sys.argv[3:]), 24)\n"
              "exec(sys.argv[2])\n"
              "call = eval('lambda: ' + sys.argv[1])\n"
              "tracemalloc.start()\n"
              "kept = call()\n"
              "current, peak = tracemalloc.get_traced_memory()\n"
              "print(peak, current)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script, expr, setup,
                          *map(str, golay.basis)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    return tuple(map(int, out.split()))


def test_a_design_holds_its_blocks_once(tmp_path, golay):
    # Golay C_12: 2576 blocks of 12 points. As bytes the design keeps 149 KiB
    # and peaks at 275; as tuples it kept 378 and peaked at 594.
    peak, retained = _traced("support_design(golay, 12)", golay)
    assert peak < 600 << 10 and retained <= 400 << 10
    path = tmp_path / "c12.json"
    path.write_text(format_design(support_design(golay, 12)) + "\n")
    # Scanned as bytes and stored as bytes, the blocks peak at 302 KiB; made
    # tuples, 487; json.loads' lists alone took 600, lists and tuples 870.
    peak, _ = _traced(f"read_design_file({str(path)!r})", golay)
    assert peak < 700 << 10


@st.composite
def designs(draw):
    v = draw(st.integers(1, 12))
    k = draw(st.integers(1, v))
    points = st.sampled_from([*range(1, v + 1), *(p for p in Point if p <= v)])
    block = st.lists(points, min_size=k, max_size=k, unique_by=int)
    return Design(v, draw(st.lists(block, min_size=1, max_size=8)))


@settings(max_examples=200, deadline=None, database=None)
@given(designs())
def test_the_design_encoder_is_the_json_encoding(d):
    assert "".join(design_json(d.v, d.blocks)) == json.dumps(oracles.design_to_json(d)) + "\n"
    assert format_design(d) == json.dumps(oracles.design_to_json(d))


# The texts of a design that the writers make, and other layouts of it.
_LAYOUTS = {
    "design_json": lambda v, blocks: "".join(design_json(v, blocks)),
    "json.dumps": lambda v, blocks: json.dumps({"v": v, "blocks": blocks}),
    "indent=2": lambda v, blocks: json.dumps({"v": v, "blocks": blocks}, indent=2),
    "compact": lambda v, blocks: json.dumps({"v": v, "blocks": blocks}, separators=(",", ":")),
    "blocks first": lambda v, blocks: json.dumps({"blocks": blocks, "v": v}),
    "repeated key": lambda v, blocks: f'{{"v": 0, "v": {v}, "blocks": {blocks}}}',
    "no-break space": lambda v, blocks: "".join(design_json(v, blocks)) + "\u00a0",
}


# _scan_design reads exactly the text that design_json and json.dumps write
# and leaves every other text to json.loads.
@settings(max_examples=200, deadline=None, database=None)
@given(design=_shuffled_blocks(), layout=st.sampled_from(["design_json", "json.dumps"]))
@example(design=(3, [[1, 2], [2, 3], [1, 2]]), layout="indent=2")
@example(design=(3, [[1, 2], [2, 3], [1, 2]]), layout="compact")
@example(design=(3, [[1, 2], [2, 3], [1, 2]]), layout="blocks first")
@example(design=(3, [[1, 2], [2, 3], [1, 2]]), layout="repeated key")
@example(design=(3, [[1, 2], [2, 3], [1, 2]]), layout="no-break space")
@example(design=(256, [[1, 256], [2, 3]]), layout="design_json")
@example(design=(256, [[1, 256], [2, 3]]), layout="json.dumps")
def test_the_design_scanner_reads_exactly_what_the_writers_write(design, layout):
    v, blocks = design
    found = _scan_design(_LAYOUTS[layout](v, blocks))
    if layout in ("design_json", "json.dumps") and max(map(max, blocks)) < 256:
        assert found == (v, [bytes(b) for b in blocks])
    else:
        assert found is None


def _traced_command(argv):
    """(exit code, tracemalloc peak) of amdesign.cli.run(argv) in a new
    interpreter, once the CLI and the design commands are compiled."""
    script = ("import os, sys, tracemalloc\n"
              "import amdesign.cli, amdesign.commands, amdesign.designs\n"
              "amdesign.commands.run_check, amdesign.designs.Design\n"
              "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
              "tracemalloc.start()\n"
              "rc = amdesign.cli.run(sys.argv[1:])\n"
              "current, peak = tracemalloc.get_traced_memory()\n"
              "print(rc, peak, file=out)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    return tuple(map(int, out.split()))


def test_design_from_code_streams_its_blocks(tmp_path, golay):
    """design from-code --w 12 on the Golay code holds one Design, the
    support design of its 2576 words with each block as 12 bytes, and writes
    it a block at a time, not as the 117 KB text: it peaks at 289 KiB."""
    path = tmp_path / "golay.gm"
    path.write_text(format_generator(golay))
    rc, peak = _traced_command(["design", "from-code", "-g", str(path), "--w", "12"])
    assert rc == 0 and peak < 400 << 10


def test_design_check_streams_its_blocks(tmp_path, golay):
    """design check --t 5 on Golay C_12 holds the 117 KB text and each block
    as 12 bytes, as scanned and in the Design, and peaks at 308 KiB, not
    json.loads' 2576 lists (about 480 KiB)."""
    path = tmp_path / "c12.json"
    path.write_text(format_design(support_design(golay, 12)) + "\n")
    rc, peak = _traced_command(["design", "check", "-d", str(path), "--t", "5"])
    assert rc == 0 and peak < 400 << 10


def test_design_complement_holds_its_blocks_as_bytes(tmp_path, golay):
    """design complement on Golay C_12 holds the Design of the file and that
    of its complement, each block as 12 bytes, and peaks at 308 KiB. With
    tuple complements it peaked at 554, and with two Designs of tuples at
    788."""
    path = tmp_path / "c12.json"
    path.write_text(format_design(support_design(golay, 12)) + "\n")
    rc, peak = _traced_command(["design", "complement", "-d", str(path)])
    assert rc == 0 and peak < 680 << 10


# rep300 is the [300,1] repetition code, whose one block is a tuple.
@pytest.mark.parametrize("name", ["golay", "type1", "i2+d4+e8", "rep300"])
def test_design_from_code_is_the_support_design_at_every_weight(request, tmp_path, capsys,
                                                                   name):
    if name == "rep300":
        c = code_from_rows([(1 << 300) - 1], 300)
    else:
        c = request.getfixturevalue(name) if name in ("golay", "type1") else builtin(name)
    path = tmp_path / "code.gm"
    path.write_text(format_generator(c))
    for w in range(-1, c.n + 2):
        rc = run(["design", "from-code", "-g", str(path), "--w", str(w)])
        try:
            expected = (0, format_design(support_design(c, w)) + "\n", "")
        except ValueError as err:
            expected = (2, "", f"error: {err}\n")
        assert (rc, *capsys.readouterr()) == expected, w


def test_design_is_a_sorted_multiset():
    d1 = Design(5, ((3, 1, 2), (4, 5, 1)))
    d2 = Design(5, ((1, 4, 5), (1, 2, 3)))
    assert d1 == d2
    assert tuple(d1.blocks[0]) == (1, 2, 3)
    doubled = Design(5, ((1, 2, 3), (1, 2, 3)))
    assert doubled.b == 2
    assert doubled != Design(5, ((1, 2, 3),))
    assert d1.k == 3 and d1.b == 2


def test_support_design(type1, c6):
    assert c6.v == 16 and c6.k == 6 and c6.b == 64
    d4 = builtin("d4")
    pairs = support_design(d4, 2)
    assert tuple(map(tuple, pairs.blocks)) == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        support_design(d4, 3)
    with pytest.raises(ValueError):
        support_design(d4, 0)


def test_union():
    a = Design(5, ((1, 2),))
    b = Design(5, ((1, 2), (3, 4)))
    u = union(a, b)
    assert u.b == 3
    assert u.blocks.count(bytes((1, 2))) == 2
    with pytest.raises(ValueError):
        union(a, Design(6, ((1, 2),)))
    with pytest.raises(ValueError):
        union(a, Design(5, ((1, 2, 3),)))


def test_is_t_design(c6):
    assert is_t_design(c6, 2) == 8
    assert is_t_design(c6, 1) == 24
    assert is_t_design(c6, 0) == 64
    assert is_t_design(c6, 3) is None
    for v, k, t in [(6, 3, 2), (7, 3, 3)]:
        d = complete_design(v, k)
        assert is_t_design(d, t) == comb(v - t, k - t)
    with pytest.raises(ValueError):
        is_t_design(c6, -1)
    with pytest.raises(ValueError):
        is_t_design(c6, 7)


def test_is_t_design_weight_four(type1):
    c4 = support_design(type1, 4)
    assert is_t_design(c4, 1) == 3
    assert is_t_design(c4, 2) is None


def test_t_design_violation(type1):
    c4 = support_design(type1, 4)
    pts1, c1, pts2, c2 = t_design_violation(c4, 2)
    assert c1 != c2
    assert len(pts1) == len(pts2) == 2
    covers = lambda pts: sum(1 for b in c4.blocks if set(pts) <= set(b))
    assert covers(pts1) == c1 and covers(pts2) == c2
    assert t_design_violation(support_design(type1, 6), 2) is None
    with pytest.raises(ValueError):
        t_design_violation(c4, 5)


def test_design_strength(type1, c6):
    assert design_strength(c6, 6) == 2
    assert design_strength(support_design(type1, 4), 3) == 1
    assert design_strength(Design(5, ((1, 2, 3),)), 3) == 0
    assert design_strength(complete_design(6, 3), 3) == 3
    assert design_strength(c6, 1) == 1  # cap respected


def test_complement_design(type1, c6):
    c10 = support_design(type1, 10)
    assert complement_design(c6) == c10
    assert complement_design(c10) == c6
    assert is_t_design(c10, 2) == 24
    one = Design(4, ((1, 3),))
    assert complement_design(one) == Design(4, ((2, 4),))


def test_design_guard(golay):
    # Golay C_8 at t = 5 walks C(24, 5) = 42504 subsets, inside the guard.
    assert is_t_design(support_design(golay, 8), 5) == 1
    huge = Design(10**10, ((1,), (10**10,)))
    with pytest.raises(EnumerationGuardError, match="design guard"):
        is_t_design(huge, 1)
    assert is_t_design(huge, 0) == 2
    with pytest.raises(EnumerationGuardError, match="design guard"):
        complement_design(huge)
    wide = Design(DESIGN_GUARD + 1, ((1,),))
    with pytest.raises(EnumerationGuardError):
        complement_design(wide)


def test_lambda_i():
    assert lambda_i(2, 16, 6, 8, 0) == 64
    assert lambda_i(2, 16, 6, 8, 1) == 24
    assert lambda_i(2, 16, 6, 8, 2) == 8
    assert lambda_i(2, 8, 3, 1, 1) == Fraction(7, 2)
    assert type(lambda_i(2, 8, 3, 1, 1)) is Fraction
    # An integral value is an int: no Fraction is made.
    assert [type(lambda_i(2, 16, 6, 8, i)) for i in range(3)] == [int] * 3
    with pytest.raises(ValueError):
        lambda_i(2, 16, 6, 8, 3)
    with pytest.raises(ValueError):
        lambda_i(4, 16, 3, 8, 0)


def test_lambda_i_matches_counting(c6):
    # in an actual 2-(16,6,8) design every i-subset is covered lambda_i times
    rng = random.Random(1)
    for i in (0, 1, 2):
        expected = lambda_i(2, 16, 6, 8, i)
        for _ in range(5):
            pts = set(rng.sample(range(1, 17), i))
            cover = sum(1 for b in c6.blocks if pts <= set(b))
            assert cover == expected


def test_intersection_profile(c6):
    for idx in (0, 17, 63):
        prof = intersection_profile(c6, idx)
        assert prof == {0: 3, 2: 51, 4: 9}
        assert sum(prof.values()) == 63
    single = intersection_profile(Design(5, ((1, 2, 3), (3, 4, 5))), 0)
    assert single == {1: 1}
    with pytest.raises(ValueError):
        intersection_profile(c6, 64)


def test_intersection_profile_skips_copies_of_reference():
    doubled = Design(6, ((1, 2, 3), (1, 2, 3), (4, 5, 6)))
    prof = intersection_profile(doubled, 0)
    assert prof == {0: 1}


@st.composite
def designs_with_repeats(draw):
    """A design on plain or IntEnum points with some blocks given again,
    each copy with its points in another order."""
    v = draw(st.integers(1, 12))
    k = draw(st.integers(1, v))
    points = st.sampled_from([*range(1, v + 1), *(p for p in Point if p <= v)])
    blocks = draw(st.lists(st.lists(points, min_size=k, max_size=k, unique_by=int),
                           min_size=1, max_size=8))
    copies = draw(st.lists(st.sampled_from(blocks).flatmap(st.permutations), max_size=6))
    return Design(v, blocks + copies)


@settings(max_examples=200, deadline=None, database=None)
@given(designs_with_repeats())
def test_intersection_profile_is_the_brute_force_count(d):
    for index, ref in enumerate(d.blocks):
        want = Counter(len(set(ref) & set(other)) for other in d.blocks
                       if set(other) != set(ref))
        prof = intersection_profile(d, index)
        assert prof == want and list(prof) == sorted(want)
    for index in (-1, d.b):
        with pytest.raises(ValueError, match="block index out of range"):
            intersection_profile(d, index)


def test_is_self_orthogonal_design(c6):
    assert is_self_orthogonal_design(c6)
    assert is_self_orthogonal_design(Design(6, ((1, 2, 3, 4, 5, 6),)))
    assert not is_self_orthogonal_design(complete_design(4, 2))


FANO = Design(7, ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7), (1, 3, 7)))


# The span of the block vectors, each with k mod 2 at point v + 1, against
# the scan of every pair of blocks. The Fano plane's lines meet once, so
# its blocks alone span no self-orthogonal code: it catches a lost parity.
@settings(max_examples=300, deadline=None, database=None)
@given(designs_with_repeats())
@example(support_design(load_code("type1_16"), 6))
@example(oracles.bent_design())
@example(FANO)
def test_self_orthogonality_is_the_pairwise_scan(d):
    assert is_self_orthogonal_design(d) == oracles.is_self_orthogonal_design(d)


# ratlin's rational elimination is the reference for the inverse of [C(i, j)]
# that mendelsohn_solve reads off its solved nodes' Lagrange polynomials.
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(
    lambda s: st.tuples(st.lists(st.integers(0, 19), min_size=s, max_size=s, unique=True),
                        st.lists(st.integers(-10**6, 10**6), min_size=s, max_size=s))))
def test_inverse_weights_match_the_elimination_oracle(system):
    points, rest = system
    s = len(points)
    want, consistent = ratlin.solve_columns(
        [[comb(i, j) for j in range(s)] for i in points], rest)
    assert consistent
    assert [Fraction(sum(map(mul, w, rest)), den)
            for w, den in _inverse_weights(points)] == want


def test_mendelsohn_unique_solution():
    sols = mendelsohn_solve(2, 16, 6, 8, 6, (0, 2, 4, 6), fixed={6: 1})
    assert sols == [(3, 51, 9, 1)]


def test_mendelsohn_t0_counts_compositions():
    # with t=0 the system only fixes the block count; n_i sum to lambda_0
    sols = mendelsohn_solve(0, 8, 3, 4, 3, (0, 1, 2, 3))
    lam0 = int(lambda_i(0, 8, 3, 4, 0))
    assert len(sols) == comb(lam0 + 3, 3)
    assert all(sum(s) == lam0 for s in sols)


def test_mendelsohn_infeasible_and_errors():
    assert mendelsohn_solve(2, 16, 6, 8, 6, (0,), fixed=None) == []
    with pytest.raises(ValueError):
        mendelsohn_solve(2, 8, 3, 1, 3, (0, 1, 2, 3))  # lambda_1 = 7/2
    with pytest.raises(ValueError):
        mendelsohn_solve(2, 16, 6, 8, 6, ())
    with pytest.raises(ValueError):
        mendelsohn_solve(2, 16, 6, 8, 6, (0, 9))
    with pytest.raises(ValueError):
        mendelsohn_solve(2, 16, 6, 8, 6, (0, 2), fixed={4: 1})
    with pytest.raises(ValueError):
        mendelsohn_solve(2, 16, 6, 8, 6, (0, 2), fixed={2: -1})


def test_mendelsohn_limit():
    sols = mendelsohn_solve(0, 8, 3, 4, 3, (0, 1, 2, 3), limit=5)
    assert len(sols) == 5


@st.composite
def block_count_systems(draw):
    """Small t <= 3 systems, mostly with integral lambda_j; some allowed
    indices above m and some negative fixed values reach the errors."""
    t = draw(st.integers(0, 3))
    k = draw(st.integers(max(t, 1), 7))
    v = draw(st.integers(k, k + 5))
    m = draw(st.integers(0, k))
    base = lcm(*(comb(k - j, t - j) for j in range(t + 1)))
    lam = draw(st.sampled_from([base, 2 * base]) | st.integers(0, 6))
    assume(lam * comb(v, t) <= 40 * comb(k, t))  # lambda_0 <= 40: the oracle is slow
    top = draw(st.sampled_from((m, m, m, m + 1)))
    allowed = draw(st.lists(st.integers(0, top), min_size=1, max_size=5, unique=True))
    fixed = draw(st.dictionaries(st.sampled_from(allowed), st.integers(-1, 8), max_size=3))
    limit = draw(st.none() | st.integers(0, 4))
    return t, v, k, lam, m, allowed, fixed, limit


def _outcome(solve, system):
    t, v, k, lam, m, allowed, fixed, limit = system
    try:
        return solve(t, v, k, lam, m, allowed, fixed, limit=limit)
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None, database=None)
@given(block_count_systems())
# Exactly t+1 free unknowns: all of them are solved, none searched.
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {6: 1}, None))
@example((0, 8, 3, 3, 3, [0, 1], {1: 5}, None))  # the j = 0 row asks n_0 = -2
@example((3, 8, 4, 1, 4, [0, 1, 2, 3], {}, None))
@example((1, 6, 3, 2, 3, [0, 1, 2], {1: 1}, None))  # n_2 = 5/2
# More than t+1: the first ones are searched.
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {}, 3))
@example((0, 8, 3, 4, 3, [0, 1, 2, 3], {}, 5))
@example((1, 8, 4, 3, 4, [0, 1, 2, 3, 4], {}, None))
# Fewer than t+1: a square subsystem is solved and the other rows checked.
@example((1, 6, 3, 2, 3, [0, 3], {3: 1}, None))
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {4: 9, 6: 1}, None))
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {4: 8, 6: 1}, None))  # the j = 2 row fails
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {0: 3, 4: 9, 6: 1}, None))
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {0: 3, 2: 51, 4: 9, 6: 1}, None))
@example((2, 16, 6, 8, 6, [0, 2, 4, 6], {0: 3, 2: 50, 4: 9, 6: 1}, None))
# The second-moment row stops a loop that rows 0..t let run on: the Fano
# plane relative to a block, and the 3-(8,4,1) design.
@example((2, 7, 3, 1, 3, [0, 1, 2, 3], {}, None))
@example((3, 8, 4, 1, 4, [0, 1, 2, 3, 4], {}, None))
def test_mendelsohn_matches_the_full_search(system):
    assert _outcome(mendelsohn_solve, system) == _outcome(oracles.mendelsohn_solve, system)


def test_code_from_design(type1, c6):
    c = code_from_design(c6)
    assert c.n == 16 and c.dimension == 8
    assert c == type1
    tiny = code_from_design(Design(2, ((1, 2),)))
    assert tiny.basis == (0b11,)
    c4 = code_from_design(support_design(type1, 4))
    assert c4.dimension == 6


def test_delsarte_agrees_with_counting_on_random_multisets():
    rng = random.Random(13)
    agreements = 0
    while agreements < 40:
        v = rng.randrange(4, 9)
        k = rng.randrange(2, v)
        t = rng.randrange(1, min(k, 3) + 1)
        b = rng.randrange(2, 9)
        blocks = tuple(
            tuple(sorted(rng.sample(range(1, v + 1), k))) for _ in range(b)
        )
        d = Design(v, blocks)
        counted = is_t_design(d, t) is not None
        assert delsarte_design_check(d, t) == counted
        agreements += 1


def test_design_json_round_trip(tmp_path, c6):
    path = tmp_path / "c6.json"
    for d in (c6, Design(5, ((1, 2), (1, 2)))):
        path.write_text(format_design(d) + "\n")
        assert read_design_file(path) == d
    path.write_text(json.dumps({"v": 5}))
    with pytest.raises(ValueError):
        read_design_file(path)


def test_bent_design_is_a_2_design_with_odd_intersections(bent_design, c6):
    assert bent_design.v == 16 and bent_design.k == 6 and bent_design.b == 64
    assert is_t_design(bent_design, 2) == 8
    assert not is_self_orthogonal_design(bent_design)
    assert bent_design != c6
