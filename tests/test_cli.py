"""Command-line behavior: payloads, exit codes, JSON round-trips."""

import atexit
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from oracles import format_design

from amdesign import gf2core, polyring, verify
from amdesign.catalog import builtin, load_code
from amdesign.cli import run
from amdesign.designs import Design, support_design
from amdesign.gf2core import (
    code_from_rows, dual, exact_json, format_generator, minimum_distance)
from amdesign.polyring import _GLEASON_LENGTH_GUARD, ALPHA_MAX_GUARD, gleason_basis


@pytest.fixture()
def type1_file(tmp_path, type1):
    path = tmp_path / "type1.gm"
    path.write_text(format_generator(type1))
    return str(path)


@pytest.fixture()
def c6_file(tmp_path, c6):
    path = tmp_path / "c6.json"
    path.write_text(format_design(c6) + "\n")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    return code, json.loads(capsys.readouterr().out)


def test_code_info_json(capsys, type1_file):
    code, payload = run_json(capsys, [
        "code", "info", "-g", type1_file, "--format", "json"])
    assert code == 0
    assert payload["length"] == 16
    assert payload["dimension"] == 8
    assert payload["minimum_distance"] == 4
    assert payload["class"]["type_one"] is True
    assert payload["weight_distribution"]["6"] == 64


def test_code_info_builtin_and_pinned(capsys):
    assert run(["code", "info", "-b", "d4+d4"]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, [
        "code", "info", "-b", "type1_16", "--format", "json"])
    assert code == 0
    assert payload["class"]["self_dual"] is True


def test_pinned_codes_come_only_from_the_store(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("AMDESIGN_DATA", str(tmp_path))
    assert run(["code", "info", "-b", "type1_16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no stored code named 'type1_16'\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_SHAPE = 'expected {name: {"file": FILE, ...}, ...}'


# A list, an entry that is not an object, an entry without its file, no JSON,
# and JSON nested past the parser's recursion limit.
@pytest.mark.parametrize("index, message", [
    ("[]", _SHAPE), ('{"x": 5}', _SHAPE), ('{"x": {}}', _SHAPE),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    pytest.param("[" * 100_000, "maximum recursion depth exceeded while decoding a JSON "
                 "array from a unicode string", id="nested"),
])
def test_a_malformed_store_index_is_a_usage_error(capsys, tmp_path, monkeypatch, index,
                                                  message):
    monkeypatch.setenv("AMDESIGN_DATA", str(tmp_path))
    (tmp_path / "index.json").write_text(index)
    assert run(["code", "info", "-b", "x"]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'index.json'}: {message}\n")


def test_unknown_code_name_is_usage_error(capsys):
    assert run(["code", "info", "-b", "zz"]) == 2
    assert capsys.readouterr().err == "error: no stored code named 'zz'\n"
    # A stored name is stripped, as a builtin's is, before the store is read.
    assert run(["code", "info", "-b", " zz "]) == 2
    assert capsys.readouterr() == ("", "error: no stored code named 'zz'\n")


# A "+" makes a name a direct sum of builtins, which the store never holds.
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, message", [
    ("e8+", "malformed builtin name 'e8+'"),
    ("+e8", "malformed builtin name '+e8'"),
    ("e8++d4", "malformed builtin name 'e8++d4'"),
    ("e8+foo", "unknown builtin code 'foo'"),
])
def test_a_malformed_direct_sum_names_its_fault(capsys, fmt, name, message):
    assert run(["code", "info", "-b", name, "--format", fmt]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_spaced_direct_sum_reads_as_the_builtin(capsys):
    # A single builtin, or a stored name, is spaced as a direct sum's parts are.
    for spaced, name in (("e8 + d4", "e8+d4"), (" e8 ", "e8"), (" type1_16 ", "type1_16")):
        assert run(["code", "info", "-b", spaced]) == 0
        out = capsys.readouterr()
        assert run(["code", "info", "-b", name]) == 0
        assert capsys.readouterr() == out


@pytest.mark.parametrize("argv", [
    ["code", "info", "-b", "d4", "--seed", "1"],
    ["verify", "thm1.1", "-b", "type1_16", "--seed", "1"],
    ["design", "check", "-d", "x.json", "--t", "2", "--seed", "1"],
    ["design", "from-code", "-b", "d4", "--w", "2", "--format", "json"],
    ["design", "complement", "-d", "x.json", "--format", "text"],
], ids=["seed-code-info", "seed-verify", "seed-design-check", "format-from-code",
        "format-complement"])
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --" in captured.err
    assert captured.out == ""


def test_generator_and_builtin_together_are_usage_error(capsys, type1_file):
    assert run(["code", "info", "-g", type1_file, "-b", "type1_16"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pass either -g FILE or -b NAME, not both\n"
    assert captured.out == ""


def test_code_requires_input(capsys):
    assert run(["code", "info"]) == 2
    assert "a code is required" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert run(["code", "info", "-g", "/nonexistent/x.gm"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors():
    assert run(["code", "bogus"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_verify_pass_and_fail_exit_codes(capsys, type1_file, tmp_path, c6):
    assert run(["verify", "thm1.2-1", "-g", type1_file]) == 0
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text(format_design(Design(c6.v, c6.blocks[1:])) + "\n")
    assert run(["verify", "thm1.2-1", "-g", type1_file,
                "-d", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "verdict: fail" in out


def _profile_report(c):
    per = verify.strength_profile(c, 3)
    return verify.report("profile", True,
                         {"per_weight": per, "delta": min(per.values()), "s": max(per.values())})


# Each scenario's argv ("@name" stands for the path that fixture name gives)
# and the report its verifier returns on the same input.
@pytest.mark.parametrize("argv, expected", [
    pytest.param(["am", "-b", "type1_16", "--t", "1"],
                 lambda fixture: verify.assmus_mattson_check(fixture("type1"), 1), id="am"),
    pytest.param(["thm1.1", "-b", "type1_16"],
                 lambda fixture: verify.verify_thm_1_1(fixture("type1")), id="thm1.1"),
    pytest.param(["thm1.1", "-b", "fsd_16"],
                 lambda fixture: verify.verify_thm_1_1(fixture("fsd16")), id="thm1.1-fsd"),
    pytest.param(["thm1.2-1", "-g", "@type1_file"],
                 lambda fixture: verify.verify_thm_1_2_type1(fixture("type1")), id="thm1.2-1"),
    pytest.param(["thm1.2-2", "-b", "fsd_16"],
                 lambda fixture: verify.verify_thm_1_2_fsd(fixture("fsd16")), id="thm1.2-2"),
    pytest.param(["thm1.4", "-d", "@c6_file"],
                 lambda fixture: verify.verify_thm_1_4_pipeline(fixture("c6")), id="thm1.4"),
    pytest.param(["cor1.5", "-b", "type1_16"],
                 lambda fixture: verify.verify_cor_1_5(fixture("type1")), id="cor1.5"),
    pytest.param(["profile", "-b", "type1_16"],
                 lambda fixture: _profile_report(fixture("type1")), id="profile"),
])
def test_verify_json_round_trips(capsys, request, argv, expected):
    fixture = request.getfixturevalue
    argv = [fixture(a[1:]) if a.startswith("@") else a for a in argv]
    code, payload = run_json(capsys, ["verify", *argv, "--format", "json"])
    assert "timings" in payload and "total_ms" in payload["timings"]
    payload.pop("timings")
    rep = expected(fixture)
    assert payload == rep
    # am at t = 1 fails on type1_16: the exit-1 path.
    assert code == {"pass": 0, "fail": 1}[rep["verdict"]]


def test_verify_precondition_is_usage_error(capsys):
    assert run(["verify", "thm1.2-1", "-b", "e8+e8"]) == 2
    assert "error:" in capsys.readouterr().err
    for t in ("0", "-1"):
        assert run(["verify", "am", "-b", "type1_16", "--t", t]) == 2
        assert "t must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("v", [12, 17, 20])
def test_substitute_design_must_live_on_16_points(capsys, tmp_path, c6, v):
    path = tmp_path / "c6.json"
    blocks = c6.blocks if v > 16 else (tuple(range(1, 7)), tuple(range(7, 13)))
    path.write_text(format_design(Design(v, blocks)) + "\n")
    assert run(["verify", "thm1.2-1", "-b", "type1_16", "-d", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"v={v}, not 16" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_substitute_design_needs_blocks_of_two_points(capsys, tmp_path, fmt):
    # Refused before the 2-design check, which would name a t never given.
    path = tmp_path / "k1.json"
    path.write_text('{"v": 16, "blocks": [[1], [2]]}\n')
    argv = ["verify", "thm1.2-1", "-b", "type1_16", "-d", str(path), "--format", fmt]
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", "error: substitute design has k=1; a 2-design needs k >= 2\n")


def test_code_info_skips_the_dual_when_2k_is_not_n(capsys, tmp_path):
    # Four disjoint blocks of ten; the dual has 2^36 words, beyond the guard.
    thin = tmp_path / "n40k4.gm"
    thin.write_text("".join("0" * (10 * i) + "1" * 10 + "0" * (30 - 10 * i) + "\n"
                            for i in range(4)))
    code, payload = run_json(capsys, ["code", "info", "-g", str(thin),
                                      "--format", "json"])
    assert code == 0
    assert payload["dimension"] == 4
    assert payload["class"]["formally_self_dual"] is False
    assert payload["weight_distribution"] == {
        str(10 * j): comb(4, j) for j in range(5)}
    # The [30,29] even-weight code: its spectrum is read off its [30,1] dual.
    wide = tmp_path / "n30k29.gm"
    wide.write_text("".join("0" * i + "11" + "0" * (28 - i) + "\n"
                            for i in range(29)))
    code, payload = run_json(capsys, ["code", "info", "-g", str(wide), "--format", "json"])
    assert code == 0
    assert payload["weight_distribution"] == {str(w): comb(30, w) for w in range(0, 31, 2)}
    # A [58,29] code and its dual are both beyond the guard.
    square = tmp_path / "n58k29.gm"
    square.write_text("".join("0" * i + "1" + "0" * 28 + "1" + "0" * (28 - i) + "\n"
                              for i in range(29)))
    assert run(["code", "info", "-g", str(square)]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_verify_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "n64.gm"
    big.write_text("1" * 64 + "\n")
    assert run(["verify", "thm1.2-2", "-g", str(big)]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_design_check(capsys, c6_file, tmp_path):
    code, payload = run_json(capsys, [
        "design", "check", "-d", c6_file, "--t", "2", "--format", "json"])
    assert code == 0
    assert payload["lambda"] == 8
    assert payload["violation"] is None
    lopsided = tmp_path / "bad.json"
    lopsided.write_text(format_design(Design(4, ((1, 2), (1, 3)))) + "\n")
    code, payload = run_json(capsys, [
        "design", "check", "-d", str(lopsided), "--t", "1",
        "--format", "json"])
    assert code == 1
    assert payload["violation"] is not None


def test_design_from_code_and_complement(capsys, type1_file, type1, tmp_path):
    code = run(["design", "from-code", "-g", type1_file, "--w", "6"])
    assert code == 0
    blocks = json.loads(capsys.readouterr().out)
    assert len(blocks["blocks"]) == 64
    d6 = tmp_path / "d6.json"
    d6.write_text(json.dumps(blocks))
    assert run(["design", "complement", "-d", str(d6)]) == 0
    comp = json.loads(capsys.readouterr().out)
    expected = support_design(type1, 10)
    assert Design(comp["v"], tuple(tuple(b) for b in comp["blocks"])) == expected


def test_design_intersections(capsys, c6_file):
    code, payload = run_json(capsys, [
        "design", "intersections", "-d", c6_file, "--format", "json"])
    assert code == 0
    assert payload["profile"] == {"0": 3, "2": 51, "4": 9}


def test_design_mendelsohn(capsys):
    code, payload = run_json(capsys, [
        "design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6",
        "--lam", "8", "--m", "6", "--allowed", "0,2,4,6",
        "--fixed", "6=1", "--format", "json"])
    assert code == 0
    assert payload["solutions"] == [[3, 51, 9, 1]]
    assert payload["lambda_j"] == ["64", "24", "8"]


def test_harmonic_commands(capsys, type1_file):
    code, payload = run_json(capsys, [
        "harmonic", "basis-dim", "--n", "16", "--k", "2", "--format", "json"])
    assert code == 0 and payload["dimension"] == 104
    assert run(["harmonic", "basis-dim", "--n", "16", "--k", "2"]) == 0
    assert capsys.readouterr().out == "104\n"
    code, payload = run_json(capsys, [
        "harmonic", "basis-dim", "--n", "4", "--k", "3", "--format", "json"])
    assert code == 0 and payload["dimension"] == 0
    code, payload = run_json(capsys, [
        "harmonic", "wenum", "-g", type1_file, "--k", "1", "--index", "3",
        "--format", "json"])
    assert code == 0 and payload["zero"] is True
    assert run(["harmonic", "transform-check", "-b", "e8", "--k", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, rc, passes", [
    # A self-dual code is its own dual: one pass.
    (["harmonic", "transform-check", "-b", "e8+e8", "--k", "2"], 0, 1),
    (["harmonic", "transform-check", "-b", "fsd_16", "--k", "1"], 0, 2),
    # Harm_9(16) is empty: refused, with no pass over either code.
    (["harmonic", "transform-check", "-b", "d4+d4+e8", "--k", "9"], 2, 0),
], ids=["transform-check", "transform-check-fsd", "transform-check-empty-basis"])
def test_harmonic_enumerators_slice_each_code_once(monkeypatch, capsys, argv, rc, passes):
    """Every basis function's enumerator of a code comes from one pass over
    its weight leaves: one for the code, and one for the dual where it is
    another code. verify thm1.1's walks are pinned in tests/test_verify.py."""
    import amdesign.harmonic as harmonic

    real, codes = harmonic._weight_leaves, []

    def counted(c):
        codes.append(c)
        return real(c)

    monkeypatch.setattr(harmonic, "_weight_leaves", counted)
    assert run(argv) == rc
    capsys.readouterr()
    assert len(codes) == passes


def test_transform_check_refuses_an_unreadable_dual_before_any_transform(
        monkeypatch, capsys, tmp_path):
    # The [40,1] repetition code's dual has dimension 39: its guard exits 3
    # before a single enumerator of the code is transformed.
    import amdesign.harmonic as harmonic

    def refuse(*args):
        raise AssertionError("transformed")

    monkeypatch.setattr(harmonic, "bachoc_transform", refuse)
    path = tmp_path / "rep40.gm"
    path.write_text("1" * 40 + "\n")
    assert run(["harmonic", "transform-check", "-g", str(path), "--k", "1"]) == 3
    assert capsys.readouterr() == (
        "", "resource guard: dimension 39 exceeds the enumeration guard k <= 28\n")


@st.composite
def permuted_sums(draw):
    """A direct sum of i2, d4 and e8 of length at most 16 with its
    coordinates permuted, self-dual, or not in the draws that replace one
    generator by a random word or drop one."""
    parts = draw(st.lists(st.sampled_from(["i2", "d4", "e8"]), min_size=1, max_size=8))
    while sum(int(part[1]) for part in parts) > 16:
        parts.pop()
    c = builtin("+".join(parts))
    rows = list(oracles.permuted(c, draw(st.permutations(range(c.n)))).basis)
    change, at = draw(st.sampled_from(["none", "replace", "drop"])), draw(st.integers(0, 7))
    if change == "replace":
        rows[at % len(rows)] = draw(st.integers(1, (1 << c.n) - 1))
    elif change == "drop" and len(rows) > 1:
        del rows[at % len(rows)]
    return code_from_rows(rows, c.n)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=permuted_sums(), t=st.integers(1, 3), k=st.integers(1, 2))
@example(c=load_code("fsd_16"), t=1, k=2)
@example(c=builtin("e8+e8"), t=3, k=2)
def test_am_and_transform_check_match_a_walk_of_the_dual(capsys, tmp_path, c, t, k):
    """am reads the dual's spectrum off the code's, and transform-check reads
    a code equal to its dual once; the results are those of an explicit walk
    of dual(c), self-dual or not."""
    path = tmp_path / "c.gm"
    path.write_text(format_generator(c))
    if t < minimum_distance(c):
        code, rep = run_json(capsys, ["verify", "am", "-g", str(path), "--t", str(t),
                                      "--format", "json"])
        witnesses = oracles.assmus_mattson_witnesses(c, t)
        assert rep["witnesses"] == exact_json(witnesses)
        assert code == (0 if witnesses["applicable"] else 1)
    if 2 * k <= c.n:
        code, payload = run_json(capsys, ["harmonic", "transform-check", "-g", str(path),
                                          "--k", str(k), "--format", "json"])
        assert payload["mismatches"] == oracles.transform_mismatches(c, k)
        assert code == (1 if payload["mismatches"] else 0)


# RM(1,6): the all-ones word and the 6 coordinate functions on 64 points.
RM_1_6 = code_from_rows(
    [(1 << 64) - 1] + [sum(1 << x for x in range(64) if x >> i & 1) for i in range(6)], 64)


def test_am_reads_rm_1_6_whose_dual_no_walk_reaches(capsys, tmp_path):
    """RM(1,6), the [64,7,32] code of the all-ones word and the 6 coordinate
    functions on 64 points: its dual RM(4,6) has dimension 57, past the
    enumeration guard, and d = 4, so by Assmus-Mattson C_32 holds 3-designs."""
    c = RM_1_6
    path = tmp_path / "rm1_6.gm"
    path.write_text(format_generator(c))
    code, rep = run_json(capsys, ["verify", "am", "-g", str(path), "--t", "3",
                                  "--format", "json"])
    witnesses = rep["witnesses"]
    assert code == 0
    assert (witnesses["dual_minimum_distance"], witnesses["bound"]) == ("4", "1")
    assert witnesses["promised_code_weights"] == ["32"]
    assert run(["verify", "am", "-g", str(path), "--t", "4"]) == 1
    wd = gf2core.weight_distribution(c)
    dual_wd = gf2core.macwilliams(wd, 64, 7)
    assert dual_wd == oracles.macwilliams(wd, 64, 7)
    # The weight-4 words of the extended Hamming code RM(4,6): 64*63*62/24.
    assert dual_wd[4] == 10416


def test_rm_4_6_is_read_off_its_dual(capsys, tmp_path):
    """RM(4,6), the [64,57,4] dual of RM(1,6): its spectrum is the transform
    of its dual's 2^7 words, though its own 2^57 are past the guard."""
    path = tmp_path / "rm4_6.gm"
    path.write_text(format_generator(dual(RM_1_6)))
    for command in ("info", "weights"):
        code, payload = run_json(capsys, ["code", command, "-g", str(path), "--format", "json"])
        assert code == 0
        assert payload["weight_distribution"]["4"] == 10416
    code, rep = run_json(capsys, ["verify", "am", "-g", str(path), "--t", "3",
                                  "--format", "json"])
    assert (code, rep["verdict"]) == (0, "pass")
    assert (rep["witnesses"]["dimension"], rep["witnesses"]["dual_minimum_distance"]) == (
        "57", "32")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_basis_dim_past_the_digit_guard_exits_3(capsys, fmt):
    assert run(["harmonic", "basis-dim", "--n", "100000", "--k", "50000",
                "--format", fmt]) == 3
    assert capsys.readouterr() == ("", "resource guard: dim Harm_50000(100000) exceeds "
                                       "the dimension guard of 4300 decimal digits\n")


def python(*args, **env):
    """Run a new interpreter with PYTHONPATH at src/, capturing its output.

    PYTHONUNBUFFERED is dropped, so stdout is block-buffered into the pipe as
    for any user, and what is left in the buffer is written at exit."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_digit_guard_follows_the_interpreters_limit(fmt):
    # With a 640-digit int-to-str limit, dim Harm_1000(3000) (828 digits) cannot
    # print, and the guard refuses it instead of the conversion failing.
    argv = ["harmonic", "basis-dim", "--n", "3000", "--k", "1000", "--format", fmt]
    done = python("-m", "amdesign.cli", *argv, PYTHONINTMAXSTRDIGITS="640")
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "resource guard: dim Harm_1000(3000) exceeds the dimension guard of "
               "640 decimal digits\n")


# Exit codes 0-3, text and JSON; from-code on the Golay code prints ~117 KB,
# more than a pipe buffer holds, so a process that lost output at exit shows.
_ENTRY_ARGVS = {
    "info": ["code", "info", "-b", "type1_16"],
    "verify-json": ["verify", "thm1.1", "-b", "type1_16", "--format", "json"],
    "golay-12": ["design", "from-code", "-g", "{golay}", "--w", "12"],
    "fail": ["verify", "thm1.2-1", "-g", "{type1}", "-d", "{broken}"],
    "fail-json": ["verify", "thm1.2-1", "-g", "{type1}", "-d", "{broken}",
                  "--format", "json"],
    "usage": ["code", "bogus"],
    "unknown-code": ["code", "info", "-b", "nosuch", "--format", "json"],
    "guard": ["harmonic", "basis-dim", "--n", "100000", "--k", "50000"],
    "guard-json": ["harmonic", "basis-dim", "--n", "100000", "--k", "50000",
                   "--format", "json"],
}


@pytest.mark.parametrize("argv", _ENTRY_ARGVS.values(), ids=_ENTRY_ARGVS)
def test_the_process_entry_matches_run(capsys, monkeypatch, tmp_path, type1, c6,
                                       golay, argv):
    files = {"type1": tmp_path / "type1.gm", "golay": tmp_path / "golay.gm",
             "broken": tmp_path / "broken.json"}
    files["type1"].write_text(format_generator(type1))
    files["golay"].write_text(format_generator(golay))
    files["broken"].write_text(format_design(Design(c6.v, c6.blocks[1:])) + "\n")
    argv = [arg.format(**files) for arg in argv]
    # argparse wraps usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    code = run(argv)
    out, err = capsys.readouterr()
    done = python("-m", "amdesign.cli", *argv, COLUMNS="80")
    untimed = lambda text: re.sub(r'"total_ms": \S+', '"total_ms": _', text)
    assert (done.returncode, untimed(done.stdout), done.stderr) == (
        code, untimed(out), err)


# Exits 0, 1, 2 and 3 through cli.main, each with its output ahead of an
# exit hook's line.
_EXIT_ARGVS = {
    "info": ["code", "info", "-b", "type1_16"],
    "mutant": ["design", "check", "-d", "{mutant}", "--t", "2"],
    "unknown-code": ["code", "info", "-b", "missing"],
    "budget": ["search", "fsd", "--max-iterations", "0"],
}


@pytest.mark.parametrize("argv, code", zip(_EXIT_ARGVS.values(), range(4)), ids=_EXIT_ARGVS)
def test_only_the_process_entry_ends_the_process(capsys, tmp_path, c6, argv, code):
    mutant = tmp_path / "mutant.json"
    mutant.write_text(format_design(Design(c6.v, c6.blocks[1:])) + "\n")
    argv = [arg.format(mutant=mutant) for arg in argv]
    hooks, frozen = atexit._ncallbacks(), gc.get_freeze_count()
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert (atexit._ncallbacks(), gc.get_freeze_count()) == (hooks, frozen)
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'exit hook')\n"
              f"sys.argv = ['amdesign', *{argv!r}]\n"
              "runpy.run_module('amdesign.cli', run_name='__main__')\n")
    done = python("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (code, out + "exit hook\n", err)


def run_closed(argv, streams, unbuffered=False):
    """Run amdesign with each of the named streams ("stdout", "stderr") on a
    pipe whose reader is gone; the others are captured."""
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    pipes = {name: write if name in streams else subprocess.PIPE
             for name in ("stdout", "stderr")}
    try:
        return subprocess.run([sys.executable, "-m", "amdesign.cli", *argv], **pipes,
                              text=True, env=env)
    finally:
        os.close(write)


# Output that fits the stdout buffer fails when it is flushed; more than that
# (~15 KB of blocks) fails in the command's own print.
@pytest.mark.parametrize("argv", [["code", "info", "-b", "type1_16", "--format", "json"],
                                  ["design", "from-code", "-b", "e8+e8+e8", "--w", "8"]],
                         ids=["small", "large"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_2_with_one_error(argv, unbuffered):
    done = run_closed(argv, ("stdout",), unbuffered)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 32] Broken pipe\n")
    # With stderr closed too, the error is lost but the exit code is kept.
    assert run_closed(argv, ("stdout", "stderr"), unbuffered).returncode == 2


@pytest.mark.parametrize("argv, code", [
    (["code", "info", "-b", "missing"], 2),
    (["harmonic", "basis-dim", "--n", "100000", "--k", "50000"], 3),
    (["code", "info", "--bogus"], 2),
], ids=["error", "resource-guard", "usage"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stderr_keeps_the_exit_code(argv, code, unbuffered):
    done = run_closed(argv, ("stderr",), unbuffered)
    assert (done.returncode, done.stdout) == (code, "")


@pytest.mark.parametrize("n, k", [(3, 5), (4, -1)])
def test_basis_dim_out_of_range_is_usage_error(capsys, n, k):
    assert run(["harmonic", "basis-dim", "--n", str(n), "--k", str(k)]) == 2
    assert "k out of range" in capsys.readouterr().err


def test_poly_gleason(capsys, type1_file):
    code, payload = run_json(capsys, [
        "poly", "gleason", "-g", type1_file, "--format", "json"])
    assert code == 0
    assert payload["in_span"] is True
    assert payload["coefficients"] == ["1", "-8", "0"]


def test_poly_gleason_refuses_a_negative_t(capsys):
    # Refused before the harmonic basis is built, which would name its own k.
    assert run(["poly", "gleason", "-b", "e8", "--t", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: t must be nonnegative\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("index", ["99", "-1"])
def test_poly_gleason_refuses_an_index_past_the_classical_enumerator(capsys, fmt, index):
    # At t = 0 the one basis function is the constant, as for harmonic wenum --k 0.
    for argv in (["poly", "gleason", "--t", "0"], ["harmonic", "wenum", "--k", "0"]):
        assert run([*argv, "-b", "type1_16", "--index", index, "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "", "error: index out of range: Harm_0(16) has 1 basis functions\n")


@pytest.mark.parametrize("t", [3, 5])
def test_poly_gleason_refuses_a_t_with_no_basis(capsys, t):
    # Refused before --index is read: Harm_5(8) has no function to index.
    assert run(["poly", "gleason", "-b", "e8", "--t", str(t)]) == 2
    assert capsys.readouterr() == ("", f"error: no basis elements exist for t={t}, n=8\n")


@pytest.mark.parametrize("t", [0, 1])
def test_poly_gleason_refuses_a_length_past_its_guard(monkeypatch, capsys, tmp_path, t):
    # On the [n,1] repetition code: two past the guard (the next even length)
    # exits 3 before any Krawtchouk row of the basis is computed.
    path = tmp_path / "rep.gm"
    path.write_text("1" * (_GLEASON_LENGTH_GUARD + 2) + "\n")
    with monkeypatch.context() as patch:
        patch.setattr(polyring, "_krawtchouk", None)
        assert run(["poly", "gleason", "-g", str(path), "--t", str(t)]) == 3
    assert capsys.readouterr() == ("", f"resource guard: length {_GLEASON_LENGTH_GUARD + 2} "
                                       f"exceeds the Gleason basis guard {_GLEASON_LENGTH_GUARD}\n")
    # At the guard the command runs: at t = 0 the enumerator x^n + y^n is
    # outside the invariant span, at t = 1 the harmonic one is inside it.
    path.write_text("1" * _GLEASON_LENGTH_GUARD + "\n")
    assert run(["poly", "gleason", "-g", str(path), "--t", str(t)]) == (1, 0)[t]
    assert capsys.readouterr().err == ""


def test_verify_am_refuses_a_length_past_the_macwilliams_guard(monkeypatch, capsys, tmp_path):
    # The dual of the [n,1] repetition code has 2k > n, so its spectrum is the
    # MacWilliams transform of the code's: one past the guard exits 3 before
    # any Krawtchouk row of the transform is computed.
    guard = gf2core._MACWILLIAMS_LENGTH_GUARD
    path = tmp_path / "rep.gm"
    path.write_text("1" * (guard + 1) + "\n")

    def no_row(*args):
        raise AssertionError("a Krawtchouk row was built")

    with monkeypatch.context() as patch:
        patch.setattr(gf2core, "_krawtchouk", no_row)
        assert run(["verify", "am", "-g", str(path), "--t", "1"]) == 3
    assert capsys.readouterr() == ("", f"resource guard: length {guard + 1} exceeds "
                                       f"the MacWilliams transform guard {guard}\n")
    path.write_text("1" * guard + "\n")
    assert run(["verify", "am", "-g", str(path), "--t", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_poly_gleason_refuses_a_length_past_its_guard_before_a_word_is_read(
        monkeypatch, capsys, tmp_path):
    # A random [302,24] code at t = 0: the guard fires before the 2^24 words
    # of its weight enumerator are walked.
    rng = random.Random(302)
    path = tmp_path / "big.gm"
    path.write_text(format_generator(code_from_rows(
        [rng.getrandbits(302) for _ in range(24)], 302)))

    def no_walk(c):
        raise AssertionError("a codeword was read")

    monkeypatch.setattr(gf2core, "iter_codewords", no_walk)
    assert run(["poly", "gleason", "-g", str(path), "--t", "0"]) == 3
    assert capsys.readouterr() == ("", "resource guard: length 302 exceeds the Gleason "
                                       f"basis guard {_GLEASON_LENGTH_GUARD}\n")


@pytest.mark.parametrize("t", [0, 1])
def test_poly_gleason_builds_one_gleason_basis(monkeypatch, t):
    calls = []

    def counted(*args):
        calls.append(args)
        return gleason_basis(*args)

    monkeypatch.setattr(polyring, "gleason_basis", counted)
    assert run(["poly", "gleason", "-b", "type1_16", "--t", str(t)]) == 0
    assert calls == [(t, 16)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_harmonic_wenum_refuses_a_k_with_no_basis(capsys, fmt):
    # Refused before --index is read: Harm_5(8) has no function to index.
    assert run(["harmonic", "wenum", "-b", "e8", "--k", "5", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", "error: no basis functions exist for k=5, n=8\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_harmonic_transform_check_refuses_a_k_with_no_basis(monkeypatch, capsys, fmt):
    # Harm_5(8) is empty, as for wenum: refused before the dual is built.
    import amdesign.commands as commands

    duals = []
    monkeypatch.setattr(commands, "dual", duals.append)
    assert run(["harmonic", "transform-check", "-b", "e8", "--k", "5", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", "error: no basis functions exist for k=5, n=8\n")
    assert duals == []


# An odd length is an input error: a [59,29] code exited 3 at the walk's
# guard, and a small odd-length code was walked, with its dual, first.
@pytest.mark.parametrize("n, k", [(59, 29), (7, 3)])
def test_harmonic_transform_check_refuses_an_odd_length_before_a_word_is_read(
        monkeypatch, capsys, tmp_path, n, k):
    rng = random.Random(n)
    path = tmp_path / "odd.gm"
    path.write_text(format_generator(code_from_rows(
        [rng.getrandbits(n) for _ in range(k)], n)))

    def no_walk(c):
        raise AssertionError("a codeword was read")

    monkeypatch.setattr(gf2core, "iter_codewords", no_walk)
    assert run(["harmonic", "transform-check", "-g", str(path), "--k", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: odd length: the 2-power exponents are not integral\n")


def test_poly_lemma41(capsys):
    code, payload = run_json(capsys, [
        "poly", "lemma4.1", "--format", "json"])
    assert code == 0
    assert payload["pairs"] == [[2, 1], [7, 3], [14, 6]]


def _full_row_scan(alpha_max):
    """The Lemma 4.1 scan as it read whole Krawtchouk rows."""
    pairs = []
    for alpha in range(alpha_max):
        row = gf2core._krawtchouk(alpha + 2, alpha)
        pairs += ((alpha, i) for i in range((alpha + 2) // 2 + 1) if not row[i])
    return pairs


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("alpha_max", [1, 16, 256, 1024])
def test_poly_lemma41_prints_what_whole_rows_give(capsys, monkeypatch, alpha_max, fmt):
    argv = ["poly", "lemma4.1", "--alpha-max", str(alpha_max), "--format", fmt]
    assert run(argv) == 0
    prefixes = capsys.readouterr()
    monkeypatch.setattr(polyring, "vanishing_coefficient_search", _full_row_scan)
    assert run(argv) == 0
    assert capsys.readouterr() == prefixes


def test_poly_lemma41_refuses_an_oversize_alpha_max(capsys):
    # The scan's cost is cubic in --alpha-max: 1024 takes about 0.16 s.
    for alpha_max in (ALPHA_MAX_GUARD + 1, 10**9):
        assert run(["poly", "lemma4.1", "--alpha-max", str(alpha_max)]) == 3
        assert capsys.readouterr() == (
            "", f"resource guard: alpha_max {alpha_max} exceeds the guard 1024\n")


def test_search_commands_deterministic(capsys):
    assert run(["search", "type1-16", "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["weight_distribution"]["6"] == 64
    assert run(["search", "type1-16", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == first
    assert run(["search", "fsd", "--n", "8", "--d", "2"]) == 0
    capsys.readouterr()


def test_search_budget_guard(capsys):
    assert run(["search", "type1-16", "--max-iterations", "1"]) == 3
    assert "resource guard" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "fsd", "--max-iterations", "-5"],
    ["search", "type1-16", "--max-iterations", "-1"],
])
def test_negative_search_budget_is_usage_error(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: max_iterations must be nonnegative\n"
    assert run([*argv[:-1], "0"]) == 3
    assert "found in 0 iterations" in capsys.readouterr().err


def test_a_negative_search_budget_is_refused_before_the_length(capsys):
    assert run(["search", "fsd", "--n", "3", "--max-iterations", "-1"]) == 2
    assert capsys.readouterr().err == "error: max_iterations must be nonnegative\n"
    assert run(["search", "fsd", "--n", "3", "--max-iterations", "0"]) == 2
    assert capsys.readouterr().err == "error: length must be a positive even integer\n"


MENDELSOHN = ["design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6",
              "--lam", "8", "--m", "6", "--allowed", "0,2,4,6"]


def test_mendelsohn_search_budget_exits_3(capsys, monkeypatch):
    import amdesign.designs as designs

    # The paper's system solves at the root; freeing n_6 takes 10 nodes.
    monkeypatch.setattr(designs, "MENDELSOHN_NODE_BUDGET", 4)
    assert run(MENDELSOHN + ["--fixed", "6=1"]) == 0
    capsys.readouterr()
    assert run(MENDELSOHN) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource guard: the block-count search exceeds 4 nodes\n"
    assert captured.out == ""


@pytest.mark.parametrize("extra, message", [
    (["--limit", "-1"], "limit must be nonnegative"),
    (["--t", "-1"], "t must be nonnegative"),
    (["--fixed", "6=1", "--fixed", "6=3"], "--fixed gives n_6 twice"),
    (["--allowed", "0,2,2,4,6", "--fixed", "6=1"], "--allowed gives 2 twice"),
    (["--fixed", "6"], "--fixed expects I=N, got '6'"),
    (["--allowed", "0,x"], "--allowed expects I,J,..., got '0,x'"),
    (["--lam", "-8"], "lambda must be nonnegative"),
    (["--m", "99"], "m must lie in 0..16"),
    (["--fixed", "7=1"], "fixed index 7 is not an allowed intersection size (0, 2, 4, 6)"),
])
def test_mendelsohn_bad_input_is_usage_error(capsys, extra, message):
    assert run(MENDELSOHN + extra) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_verify_thm_1_4_rejects_a_non_self_orthogonal_design(capsys, tmp_path,
                                                             bent_design):
    path = tmp_path / "bent.json"
    path.write_text(format_design(bent_design) + "\n")
    assert run(["verify", "thm1.4", "-d", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: self-orthogonality: odd block intersection found\n")


def test_search_fsd_beyond_the_enumeration_guard(capsys):
    # Almost no candidate at n = 64 passes the all-ones filter, so the guard
    # is checked before the first draw, as the first spectrum once tripped it.
    assert run(["search", "fsd", "--n", "64", "--d", "4"]) == 3
    assert capsys.readouterr().err == (
        "resource guard: dimension 32 exceeds the enumeration guard k <= 28\n")
    assert run(["search", "fsd", "--n", "64", "--d", "4", "--max-iterations", "0"]) == 3
    assert capsys.readouterr().err == (
        "resource guard: no even formally self-dual [64,32,4] code found in 0 iterations\n")


def test_code_weights_text(capsys, type1_file):
    assert run(["code", "weights", "-g", type1_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0 1"
    assert "6 64" in lines


@pytest.mark.parametrize("body", [
    {"v": 16, "blocks": [["1", "2"], [3, 4]]},   # string points
    {"v": 16, "blocks": [[1.0, 2], [3, 4]]},     # float points
    {"v": 16, "blocks": [[True, 2], [3, 4]]},    # bool points
    {"v": 16, "blocks": [[1, 2], 3]},            # a block that is not a list
    {"v": 16, "blocks": [1, 2]},                 # blocks that are not lists
    {"v": 16, "blocks": {"1": [1, 2]}},          # 'blocks' not a list
    {"v": "16", "blocks": [[1, 2], [3, 4]]},     # string point count
    {"v": True, "blocks": [[1]]},                # bool point count
    [16, [[1, 2]]],                              # not an object
])
def test_malformed_design_file_is_input_error(capsys, tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert run(["design", "check", "-d", str(path), "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["check", "--t", "1"], ["complement"]])
def test_a_null_point_count_with_no_blocks_is_input_error(capsys, tmp_path, command):
    # The point count is checked before the blocks, and before int() reads it.
    path = tmp_path / "null.json"
    path.write_text('{"v": null, "blocks": []}')
    assert run(["design", command[0], "-d", str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error: point count must be an integer\n")


def test_deeply_nested_design_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run(["design", "check", "-d", str(path), "--t", "1"]) == 2
    assert capsys.readouterr() == ("", "error: design JSON nests too deeply\n")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_POINT = st.integers(-1, 18) | st.integers(1, 16) | _JSON
# Design-shaped objects, either key possibly missing: a v, and blocks that
# are lists of points, other JSON values, or not a list at all.
_DESIGN_OBJECTS = st.fixed_dictionaries({}, optional={
    "v": st.integers(-1, 18) | st.integers(4, 16) | _JSON,
    "blocks": st.lists(st.lists(_POINT, max_size=5) | _JSON, max_size=8) | _JSON,
})


@st.composite
def _designs_one_point_off(draw):
    """A valid design object, or one with a point replaced by any value."""
    v = draw(st.integers(2, 10))
    k = draw(st.integers(1, v))
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True),
                           min_size=1, max_size=8))
    if draw(st.booleans()):
        block = draw(st.sampled_from(blocks))
        block[draw(st.integers(0, k - 1))] = draw(_POINT)
    return {"v": v, "blocks": blocks}


_DESIGN_FILES = st.one_of(
    st.text(max_size=20),                                   # mostly not JSON
    st.binary(max_size=12),                                 # mostly not UTF-8
    _JSON.map(json.dumps),                                  # any top level
    _DESIGN_OBJECTS.map(json.dumps),
    _designs_one_point_off().map(json.dumps),
    _DESIGN_OBJECTS.map(json.dumps).flatmap(                # cut off
        lambda text: st.integers(0, len(text)).map(lambda i: text[:i])),
)


@pytest.mark.parametrize("command", [["check", "--t", "2"], ["complement"]])
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_DESIGN_FILES)
def test_malformed_design_files_keep_the_exit_code_contract(capsys, tmp_path, command, body):
    path = tmp_path / "design.json"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    code = run(["design", command[0], "-d", str(path), *command[1:]])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and "Traceback" not in err
    elif command[0] == "check":
        verdict = out.splitlines()[-1]
        assert err == "" and verdict.startswith("2-design" if code == 0 else "not a 2-design")
    else:
        assert code == 0 and err == ""
        assert json.loads(out)["v"] == json.loads(path.read_text())["v"]


@st.composite
def _shuffled_designs(draw):
    """A valid design object with its blocks, and the points of each, in any
    order and some blocks repeated; for half of them, one point of one block
    swapped for any point of 1..v, a repeated one included."""
    v = draw(st.integers(2, 8))
    k = draw(st.integers(1, v))
    subsets = list(combinations(range(1, v + 1), k))
    if draw(st.booleans()):
        # Every k-subset, once or twice: a t-design for every t <= k.
        blocks = subsets * draw(st.integers(1, 2))
    else:
        blocks = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=10))
    blocks = [list(draw(st.permutations(block))) for block in draw(st.permutations(blocks))]
    if draw(st.booleans()):
        draw(st.sampled_from(blocks))[draw(st.integers(0, k - 1))] = draw(st.integers(1, v))
    return {"v": v, "blocks": blocks}


def _matches_the_oracles(monkeypatch, capsys, lines):
    """Each (argv, command function, oracle) of lines prints the same stdout
    and stderr, with the same exit code, as with the oracle in its place."""
    import amdesign.commands as commands

    for argv, name, oracle in lines:
        got = (run(argv), *capsys.readouterr())
        with monkeypatch.context() as patch:
            patch.setattr(commands, name, oracle)
            assert got == (run(argv), *capsys.readouterr()), argv


def _check_matches_the_oracle(monkeypatch, capsys, path):
    _matches_the_oracles(monkeypatch, capsys, [
        (["design", "check", "-d", str(path), "--t", str(t), "--format", fmt],
         "run_check", oracles.run_check)
        for t in range(4) for fmt in ("text", "json")])


def _complement_and_intersections_match_the_oracles(monkeypatch, capsys, path):
    _matches_the_oracles(monkeypatch, capsys, [
        (["design", "complement", "-d", str(path)], "run_complement", oracles.run_complement),
        *((["design", "intersections", "-d", str(path), *block, "--format", fmt],
           "run_intersections", oracles.run_intersections)
          for block in ([], ["--block", "0"], ["--block", "2"]) for fmt in ("text", "json"))])


def _write(path, body):
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    return path


def _on_oracle_bodies(test):
    """test as a hypothesis test of design file bodies for the commands and
    their whole-file oracles: any text, and valid designs shuffled, with
    repeated blocks and one-point swaps."""
    for blocks in ([[2, 1], [4, 3], [1, 2], [3, 3]],
                   [[4, 3], [2, 1], [3, 1], [4, 2], [1, 4], [3, 2],
                    [2, 4], [4, 1], [1, 3], [2, 3], [1, 2], [3, 4]]):
        test = example(body=json.dumps({"v": 4, "blocks": blocks}))(test)
    bodies = st.one_of(_DESIGN_FILES, _shuffled_designs().map(json.dumps))
    return settings(max_examples=300, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(
        given(body=bodies)(test))


@_on_oracle_bodies
def test_design_check_prints_what_the_design_oracle_prints(monkeypatch, capsys, tmp_path,
                                                           body):
    _check_matches_the_oracle(monkeypatch, capsys, _write(tmp_path / "design.json", body))


@_on_oracle_bodies
def test_design_complement_and_intersections_print_what_their_oracles_print(
        monkeypatch, capsys, tmp_path, body):
    _complement_and_intersections_match_the_oracles(
        monkeypatch, capsys, _write(tmp_path / "design.json", body))


_ODD_TEXTS = [
    '{"blocks": [[2, 1], [1, 3], [3, 2]], "v": 3}',            # 'blocks' first
    '{"v": 9, "blocks": [[1, 2], [2, 3], [1, 3]], "v": 3}',     # a repeated key: the last wins
    ' \n{ "v" :3 ,"blocks":[ [ 1 ,2 ],[2,3\t],\r\n[3, 1] ] }\n',  # JSON whitespace
    '{"v": 3, "blocks": [], "x": [[[1]]]}',                     # no block
    '{"v": 300, "blocks": [[1, 300], [2, 300]]}',              # a point past 255
    '{"v": 3, "blocks": [[1, true], [2, 3]]}',                 # a bool point
    '{"v": 3, "blocks": [[1, 2.0], [2, 3]]}',                  # a float point
    '{"v": 3, "blocks": [[1, 2], [1, [2]]]}',                  # a nested list
    '{"v": 3, "blocks": [[1, 2], 3]}',                         # a block that is not a list
    '{"v": 3, "blocks": {"0": [1, 2]}}',                       # blocks that are not a list
    '{"v": 3, "blocks": 0[1, 2]]}',                            # no opening bracket
    '{"v": 3, "blocks": [[1, 2]]} []',                         # extra data
    '{"v": 3, "blocks": [[1, 2], ]}',                          # a trailing comma
    '{"v": 3, "blocks": [[1, 2]], }',                          # a trailing comma
    '{}',                                                      # no key
    '{"v": 3, "blocks": [[1, 2]]',                             # cut off
    '\ufeff{"v": 3, "blocks": [[1, 2]]}',                      # a byte order mark
    '{"v": 3}',                                                # no blocks
    '[3, [[1, 2]]]',                                           # not an object
    '{"v": 3, "blocks": [[1, 2]], "x": ' + "[" * 100_000 + "}",  # nested too deep
    json.dumps({"v": 3, "blocks": [[2, 1], [1, 3], [3, 2]]}, indent=2),
    json.dumps({"v": 3, "blocks": [[2, 1], [1, 3], [3, 2]]}, separators=(",", ":")),
    '{"v": 3, "blocks": [[2, 1], [1, 3], [3, 2]]}\u00a0',      # a no-break space after it
]


@pytest.mark.parametrize("body", _ODD_TEXTS)
def test_design_check_reads_any_text_as_json_loads_does(monkeypatch, capsys, tmp_path, body):
    _check_matches_the_oracle(monkeypatch, capsys, _write(tmp_path / "design.json", body))


@pytest.mark.parametrize("body", _ODD_TEXTS)
def test_design_complement_and_intersections_read_any_text_as_json_loads_does(
        monkeypatch, capsys, tmp_path, body):
    _complement_and_intersections_match_the_oracles(
        monkeypatch, capsys, _write(tmp_path / "design.json", body))


@pytest.mark.parametrize("command", [["check", "--t", "1"], ["complement"]])
@pytest.mark.parametrize("point", [1, 10**10])
def test_a_huge_point_count_exits_3_before_allocating(capsys, tmp_path, command, point):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 10**10, "blocks": [[point]]}))
    assert run(["design", command[0], "-d", str(path), *command[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource guard: ")
    # Every block is checked before the guard: a bad later block is an input error.
    path.write_text(json.dumps({"v": 10**10, "blocks": [[point], [True]]}))
    assert run(["design", command[0], "-d", str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error: block points must be integers\n")


def test_verify_profile_text_and_json(capsys):
    assert run(["verify", "profile", "-b", "type1_16", "--t-cap", "3"]) == 0
    assert capsys.readouterr().out == (
        "per weight: 4:1 6:2 8:1 10:2 12:1\ndelta = 1, s = 2\n")
    code, payload = run_json(capsys, [
        "verify", "profile", "-b", "type1_16", "--t-cap", "3", "--format", "json"])
    assert code == 0
    assert list(payload) == ["scenario", "verdict", "witnesses", "timings"]
    assert payload["scenario"] == "profile" and payload["verdict"] == "pass"
    assert payload["witnesses"] == {
        "per_weight": {"4": "1", "6": "2", "8": "1", "10": "2", "12": "1"},
        "delta": "1", "s": "2"}


def test_verify_profile_caps_t_at_each_block_size(capsys):
    # C_4 has blocks of size 4, so a cap of 5 tests it only up to t = 4.
    outputs = []
    for cap in ("4", "5"):
        code, payload = run_json(capsys, [
            "verify", "profile", "-b", "type1_16", "--t-cap", cap, "--format", "json"])
        assert code == 0
        outputs.append(payload["witnesses"])
    assert outputs[0] == outputs[1]
    assert run(["verify", "profile", "-b", "type1_16", "--t-cap", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --t-cap must be nonnegative\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_profile_refuses_a_negative_cap_before_slicing(capsys, fmt):
    # k = 32 is past the enumeration guard: a slice of it would exit 3.
    assert run(["verify", "profile", "-b", "+".join(["e8"] * 8), "--t-cap", "-1",
                "--format", fmt]) == 2
    assert capsys.readouterr() == ("", "error: --t-cap must be nonnegative\n")


@pytest.mark.parametrize("argv", [
    ["--n", "16", "--d", "3", "--max-iterations", "50"],   # odd distance
    ["--d", "8"],                                          # above 2*floor(16/8)+2 = 6
    ["--n", "8", "--d", "4"],                              # e8, self-dual, alone
])
def test_search_fsd_refuses_impossible_distances(capsys, argv):
    assert run(["search", "fsd", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _readme_command_lines():
    """The shell words of each line of the sh block under README's
    '## Command line', a '\\'-continued line joined to the next and '#'
    comments dropped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    return [words for words in lines if words]


def test_the_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # Run in order, as a reader pastes them: a '>' redirect writes the file
    # that the later lines read.
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) == 11 and all(words[0] == "amdesign" for words in lines)
    for words in lines:
        argv, target = words[1:], None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        assert run(argv) == 0, " ".join(words)
        out = capsys.readouterr().out
        if target:
            (tmp_path / target).write_text(out)
