"""The exit-code contract under fuzzed input: 0 verified, 1 property
violated, 2 input or usage error, 3 resource guard, and never a traceback.
Generator files and the integer arguments of the harmonic, poly and verify
commands are drawn at random and run in-process through cli.run; the draws
are kept small so that the existing guards, not timeouts, bound the work."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from amdesign.cli import run
from amdesign.polyring import ALPHA_MAX_GUARD

_FIXTURE_OK = [HealthCheck.function_scoped_fixture]
_FORMAT = st.sampled_from(["text", "json"])
_CODES = st.sampled_from(["e8", "d4+d4", "i2+i2+d4", "d4+e8", "type1_16", "fsd_16"])


def _check(argv, fmt, code, out, err):
    """The contract for one run: the exit code, its stream, and for exit 1
    in JSON the failure field that explains it."""
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "" and "error: " in err, (argv, out, err)
    elif code == 3:
        assert out == "" and err.startswith("resource guard: "), (argv, out, err)
    else:
        assert err == "", (argv, err)
    if code == 1 and fmt == "json":
        payload = json.loads(out)
        assert (payload.get("verdict") == "fail" or payload.get("in_span") is False
                or payload.get("mismatches")), (argv, payload)


def _run(capsys, argv, fmt):
    if fmt is not None:
        argv = argv + ["--format", fmt]
    code = run(argv)
    out, err = capsys.readouterr()
    _check(argv, fmt, code, out, err)
    return code


@st.composite
def _generator_texts(draw):
    """Rows of one length with, at random, a dependent row, a bad bit, a
    ragged row, comments and blank lines."""
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.text("01", min_size=n, max_size=n), min_size=0, max_size=5))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append("".join("1" if x != y else "0" for x, y in zip(a, b)))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from(["2", "x", " ", "-", "1 0", "", "\t", "é"]))
        rows[i] = rows[i][:j] + bad + rows[i][j + 1:]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i] + draw(st.sampled_from(["0", "1", "01"]))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "# comment", "  ", "#0101"]), max_size=1))
        lines.append(row)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


_GENERATOR_FILES = st.one_of(
    _generator_texts(),
    st.text(st.sampled_from("01#\n x2"), max_size=30),
    st.binary(max_size=12),
)

# The commands that read a generator file, each with the integer options it
# takes, drawn from ranges that stay desk-sized on a length-10 code.
_CODE_COMMANDS = st.one_of(
    st.sampled_from([["code", "info"], ["code", "dual"], ["code", "weights"],
                     ["code", "subcode"], ["verify", "thm1.1"], ["verify", "thm1.2-1"],
                     ["verify", "thm1.2-2"], ["verify", "cor1.5"]]),
    st.integers(-1, 11).map(lambda w: ["design", "from-code", "--w", str(w)]),
    st.integers(-1, 6).map(lambda k: ["harmonic", "wenum", "--k", str(k)]),
    st.integers(-1, 6).map(lambda k: ["harmonic", "transform-check", "--k", str(k)]),
    st.integers(-1, 6).map(lambda t: ["poly", "gleason", "--t", str(t)]),
    st.integers(-1, 6).map(lambda t: ["verify", "am", "--t", str(t)]),
    st.integers(-1, 6).map(lambda t: ["verify", "profile", "--t-cap", str(t)]),
)


@settings(max_examples=250, deadline=None, database=None, suppress_health_check=_FIXTURE_OK)
@given(body=_GENERATOR_FILES, command=_CODE_COMMANDS, fmt=_FORMAT)
def test_generator_files_keep_the_exit_code_contract(capsys, tmp_path, body, command, fmt):
    path = tmp_path / "code.gm"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    takes_format = command[:2] != ["design", "from-code"]
    _run(capsys, [*command[:2], "-g", str(path), *command[2:]], fmt if takes_format else None)


_SMALL = st.integers(-3, 40)


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=_FIXTURE_OK)
@given(n=_SMALL | st.integers(-3, 200_000), k=_SMALL | st.integers(-3, 100_000), fmt=_FORMAT)
def test_basis_dim_arguments_keep_the_exit_code_contract(capsys, n, k, fmt):
    _run(capsys, ["harmonic", "basis-dim", "--n", str(n), "--k", str(k)], fmt)


# Integer options of the commands that read a code, over the builtin and
# stored codes of length 8 to 16.
_CODE_ARGUMENTS = st.one_of(
    st.tuples(st.just(["harmonic", "wenum"]), st.fixed_dictionaries(
        {"--k": _SMALL, "--index": st.integers(-3, 3) | st.integers(-3, 2000)})),
    st.tuples(st.just(["harmonic", "transform-check"]),
              st.fixed_dictionaries({"--k": st.integers(-3, 4) | _SMALL})),
    st.tuples(st.just(["poly", "gleason"]), st.fixed_dictionaries(
        {"--t": st.integers(-3, 4) | _SMALL, "--index": st.integers(-3, 3) | _SMALL})),
    st.tuples(st.just(["verify", "am"]), st.fixed_dictionaries({"--t": _SMALL})),
    st.tuples(st.just(["verify", "profile"]), st.fixed_dictionaries({"--t-cap": _SMALL})),
)


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=_FIXTURE_OK)
@given(code=_CODES, command=_CODE_ARGUMENTS, fmt=_FORMAT)
def test_code_arguments_keep_the_exit_code_contract(capsys, code, command, fmt):
    words, options = command
    if words == ["harmonic", "transform-check"] and code in ("type1_16", "fsd_16"):
        code = "e8"  # every Harm_k(16) enumerator of a code and its dual: not desk-sized
    argv = [*words, "-b", code]
    for flag, value in options.items():
        argv += [flag, str(value)]
    _run(capsys, argv, fmt)


@settings(max_examples=60, deadline=None, database=None, suppress_health_check=_FIXTURE_OK)
@given(alpha_max=st.integers(-3, 64) | st.integers(ALPHA_MAX_GUARD + 1, 10**9), fmt=_FORMAT)
def test_lemma41_arguments_keep_the_exit_code_contract(capsys, alpha_max, fmt):
    _run(capsys, ["poly", "lemma4.1", "--alpha-max", str(alpha_max)], fmt)


# The design commands that read a file, each with its exit code on a point
# count far beyond any mask or guard: nothing of size v may be built.
@pytest.mark.parametrize("command, fmt, code", [
    (["check", "--t", "1"], "text", 3), (["check", "--t", "1"], "json", 3),
    (["complement"], None, 3),
    (["intersections"], "text", 0), (["intersections"], "json", 0),
])
def test_design_files_with_a_huge_point_count_keep_the_exit_code_contract(
        capsys, tmp_path, command, fmt, code):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 10**20, "blocks": [[1], [10**20]]}))
    assert _run(capsys, ["design", command[0], "-d", str(path), *command[1:]], fmt) == code
