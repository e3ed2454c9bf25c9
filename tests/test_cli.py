"""Command-line behavior: payloads, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from amdesign.cli import run
from amdesign.designs import Design, format_design, support_design
from amdesign.gf2core import format_generator
from amdesign.polyring import ALPHA_MAX_GUARD
from amdesign.verify import verify_thm_1_2_type1


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


def test_unknown_code_name_is_usage_error(capsys):
    assert run(["code", "info", "-b", "zz"]) == 2
    assert capsys.readouterr().err == "error: no stored code named 'zz'\n"


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


def test_verify_json_round_trips(capsys, type1_file, type1):
    code, payload = run_json(capsys, [
        "verify", "thm1.2-1", "-g", type1_file, "--format", "json"])
    assert code == 0
    assert "timings" in payload and "total_ms" in payload["timings"]
    payload.pop("timings")
    assert payload == verify_thm_1_2_type1(type1).to_dict()


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
    wide = tmp_path / "n30k29.gm"
    wide.write_text("".join("0" * i + "11" + "0" * (28 - i) + "\n"
                            for i in range(29)))
    assert run(["code", "info", "-g", str(wide)]) == 3
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


@pytest.mark.parametrize("argv, passes", [
    (["harmonic", "transform-check", "-b", "e8+e8", "--k", "2"], 2),
    (["harmonic", "transform-check", "-b", "d4+d4+e8", "--k", "9"], 0),
    (["verify", "thm1.1", "-b", "type1_16"], 1),
    (["verify", "thm1.1", "-b", "fsd_16"], 2),
], ids=["transform-check", "transform-check-empty-basis", "thm1.1-type1", "thm1.1-fsd"])
def test_harmonic_enumerators_slice_each_code_once(monkeypatch, capsys, argv, passes):
    """Every basis function's enumerator of a code comes from one pass over
    its weight leaves: one for the code, one for the dual where it is read."""
    import amdesign.harmonic as harmonic

    real, codes = harmonic._weight_leaves, []

    def counted(c):
        codes.append(c)
        return real(c)

    monkeypatch.setattr(harmonic, "_weight_leaves", counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(codes) == passes


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_basis_dim_past_the_digit_guard_exits_3(capsys, fmt):
    assert run(["harmonic", "basis-dim", "--n", "100000", "--k", "50000",
                "--format", fmt]) == 3
    assert capsys.readouterr() == ("", "resource guard: dim Harm_50000(100000) exceeds "
                                       "the dimension guard of 4300 decimal digits\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_digit_guard_follows_the_interpreters_limit(fmt):
    # With a 640-digit int-to-str limit, dim Harm_1000(3000) (828 digits) cannot
    # print, and the guard refuses it instead of the conversion failing.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS="640")
    argv = ["harmonic", "basis-dim", "--n", "3000", "--k", "1000", "--format", fmt]
    done = subprocess.run([sys.executable, "-m", "amdesign.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "resource guard: dim Harm_1000(3000) exceeds the dimension guard of "
               "640 decimal digits\n")


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


def test_poly_lemma41(capsys):
    code, payload = run_json(capsys, [
        "poly", "lemma4.1", "--format", "json"])
    assert code == 0
    assert payload["pairs"] == [[2, 1], [7, 3], [14, 6]]


def test_poly_lemma41_refuses_an_oversize_alpha_max(capsys):
    # The scan's cost is cubic in --alpha-max: 1024 takes about half a second.
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


@pytest.mark.parametrize("command", [["check", "--t", "1"], ["complement"]])
@pytest.mark.parametrize("point", [1, 10**10])
def test_a_huge_point_count_exits_3_before_allocating(capsys, tmp_path, command, point):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 10**10, "blocks": [[point]]}))
    assert run(["design", command[0], "-d", str(path), *command[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource guard: ")


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
    assert "t_max out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "16", "--d", "3", "--max-iterations", "50"],   # odd distance
    ["--d", "8"],                                          # above 2*floor(16/8)+2 = 6
])
def test_search_fsd_refuses_impossible_distances(capsys, argv):
    assert run(["search", "fsd", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
