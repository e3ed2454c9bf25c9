"""The table-driven parser and the import cost of the command line: the table
parser gives argparse's namespace or leaves argv to argparse, a well-formed
command loads no argparse, help and usage errors print as before, dispatch
looks the command up by name in amdesign.commands, the import pulls in no
dataclass machinery, only a command that divides imports fractions, an
install holds every package and the console script, every module's
__all__ names only defined names, no unit compiled is too large to compile
cheaply, and a command compiles one command body and compiles argparse's
parser builder only for what the table parser leaves to argparse."""

import importlib
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import amdesign
import amdesign.cli as cli
import amdesign.commands as commands

SRC = Path(__file__).resolve().parent.parent / "src"

BRANCHES = [(group, name) for group, (_, table) in cli._COMMANDS.items()
            for name in table]


def _value(flags, keywords):
    if keywords.get("action") == "append":
        return ["2=1"]
    if "choices" in keywords:
        return [keywords["choices"][-1]]
    if keywords.get("type") is int:
        return ["3"]
    return ["0,2" if flags == "--allowed" else "x.file"]


def _argvs(group, name):
    """The required options only, then every option with its last flag."""
    options = cli._COMMANDS[group][1][name][1]
    required = [group, name]
    every = [group, name]
    for flags, keywords in options:
        value = [flags.split()[-1]] + _value(flags, keywords)
        every += value
        if keywords.get("required"):
            required += value
    return required, every


def test_the_table_covers_every_command_function():
    named = {func for _, table in cli._COMMANDS.values() for func, _ in table.values()}
    assert named == {n for n in vars(commands) if n.startswith("run_")}
    assert len(BRANCHES) == 23
    # cli holds one command function: the dispatcher to amdesign.commands.
    assert [n for n in vars(cli) if n.startswith("_cmd_")] == ["_cmd_group"]


# argparse's parser of the whole table, the reference of cli._parse.
PARSER = cli._build_parser()


def _oracle(argv):
    """cli._parse(argv) is None or exactly argparse's namespace for argv."""
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv)), argv
    return args


# cli._parse reads the one branch that argv names in the table.
@pytest.mark.parametrize("group, name", BRANCHES, ids=["-".join(b) for b in BRANCHES])
def test_one_branch_parses_as_the_whole_table(group, name):
    for argv in _argvs(group, name):
        args = _oracle(argv)
        assert args is not None, argv
        assert (args.command, args.subcommand) == (group, name)
        assert callable(getattr(commands, args.func))


@pytest.mark.parametrize("argv", [
    ["code", "info", "--bogus"],
    ["code", "info", "-b", "d4", "extra"],
    ["code", "weights", "--format", "xml"],
    ["design", "check", "-d", "x.json"],
    ["design", "mendelsohn", "--t", "two"],
    ["verify", "am", "-b", "d4"],
    ["poly", "lemma4.1", "--alpha-max"],
])
def test_one_branch_reports_errors_as_the_whole_table(capsys, argv):
    assert cli._parse(argv) is None
    assert cli.run(argv) == 2
    reported = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        PARSER.parse_args(argv)
    assert (exc.value.code, capsys.readouterr()) == (2, reported)
    assert reported.out == "" and reported.err.startswith("usage: amdesign ")


@pytest.mark.parametrize("argv", [
    ["code", "info", "--builtin=d4"],
    ["code", "info", "--built", "d4"],
    ["code", "info", "-bd4"],
])
def test_other_spellings_still_work_through_argparse(capsys, argv):
    assert cli._parse(argv) is None
    assert cli.run(argv) == 0
    out = capsys.readouterr()
    assert cli.run(["code", "info", "-b", "d4"]) == 0
    assert out == capsys.readouterr()


_FLAGS = sorted({flag for _, table in cli._COMMANDS.values()
                 for _, options in table.values()
                 for flags, _ in options for flag in flags.split()})
# Tokens argparse reads in other ways than a flag and its value: help,
# abbreviations, "=", "--", attached short values; and values that start with
# "-" or hold non-ASCII digits, spaces or underscores.
_ODD = st.sampled_from(
    ["-h", "--help", "--", "-", "--bogus", "-x", "-bd4", "-gx.file", "--format=json",
     "--t=2", "--builtin=d4", "-b=d4", *(flag[:-1] for flag in _FLAGS if len(flag) > 3)])
_INTS = st.sampled_from(["3", "0", "-1", "-12", "+4", " 5", "1_0", "٣", "-٣"])
_VALUES = _INTS | st.sampled_from(
    ["16", "²", "-²", "-.5", "-1.5", "-5\n", "", "two", "json", "text", "xml", "d4", "e8",
     "0,2", "2=1", "x.file", "code", "info", "-b", "--t"]) | st.text(max_size=3)


def _pairs(options):
    """A flag of the branch and a value of its kind."""
    return st.one_of([
        st.tuples(st.sampled_from(spec.split()),
                  st.sampled_from(keywords["choices"]) if "choices" in keywords
                  else _INTS | st.integers(-99, 99).map(str) if keywords.get("type")
                  else _VALUES)
        for spec, keywords in options])


@st.composite
def _argvs_near_the_table(draw):
    """A group and subcommand (at times a near miss), then pairs of a flag and
    a value, mostly of the branch and of the flag's kind, at times after the
    branch's required options, and at times with an odd token put in."""
    group, name = draw(st.sampled_from(BRANCHES))
    head = draw(st.sampled_from([[group, name]] * 8 + [[group], [], [name, group],
                                                        [group, "nope"], ["nope", name]]))
    options = cli._COMMANDS[group][1][name][1]
    anything = st.tuples(st.sampled_from(_FLAGS) | _ODD, _VALUES)
    pairs = draw(st.lists(_pairs(options) | _pairs(options) | anything, max_size=5))
    if draw(st.booleans()):
        required = _argvs(group, name)[0][2:]
        pairs = draw(st.permutations(list(zip(required[::2], required[1::2])) + pairs))
    argv = head + [token for pair in pairs for token in pair]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_ODD | _VALUES))
    return argv


# "²" is a digit to str.isdigit but not to argparse's negative-number pattern.
@settings(max_examples=400, deadline=None, database=None)
@given(_argvs_near_the_table())
@example(["code", "info", "-b", "-²"])
@example(["code", "info", "-b", "-٣"])
@example(["harmonic", "basis-dim", "--n", "-٣", "--k", "1"])
def test_the_table_parser_agrees_with_argparse(argv):
    _oracle(argv)


def test_a_well_formed_command_loads_no_argparse():
    script = ("import sys; before = set(sys.modules); from amdesign.cli import run; "
              "code = run(['code', 'info', '-b', 'd4', '--format', 'json']); "
              "added = set(sys.modules) - before; "
              "print(code, sorted({'argparse', 'gettext', 'locale'} & added), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stderr
    assert err == "0 []\n"


_TOP_HELP = """\
usage: amdesign [-h] {code,design,harmonic,poly,search,verify} ...

Exact tooling for binary codes, harmonic enumerators, and the block designs
they support.

positional arguments:
  {code,design,harmonic,poly,search,verify}
    code                code-level operations
    design              design-level operations
    harmonic            harmonic-function operations
    poly                invariant-polynomial operations
    search              randomized seeded code searches
    verify              theorem scenarios

options:
  -h, --help            show this help message and exit
"""
_CODE_HELP = """\
usage: amdesign code [-h] {info,dual,weights,subcode} ...

positional arguments:
  {info,dual,weights,subcode}

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("argv, out", [(["--help"], _TOP_HELP),
                                       (["code", "--help"], _CODE_HELP)])
def test_help_prints_as_before(monkeypatch, capsys, argv, out):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == 0
    assert capsys.readouterr() == (out, "")


def test_top_level_help_lists_every_group(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: amdesign [-h] {code,design,harmonic,poly,search,verify} ...")
    for group, (help_text, _) in cli._COMMANDS.items():
        assert f"\n    {group:<20}{help_text}\n" in out


@pytest.mark.parametrize("group", cli._COMMANDS)
def test_group_help_lists_every_subcommand(monkeypatch, capsys, group):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run([group, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: amdesign {group} [-h]")
    assert f"\n  {{{','.join(cli._COMMANDS[group][1])}}}\n" in out


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["code"], "the following arguments are required: subcommand"),
    (["code", "nope"], "argument subcommand: invalid choice: 'nope'"),
    (["design", "check", "-d", "x.json"], "the following arguments are required: --t"),
    (["harmonic", "basis-dim", "--n", "4"], "the following arguments are required: --k"),
])
def test_unknown_names_and_missing_options_exit_2(capsys, argv, message):
    assert cli.run(argv) == 2
    assert message in capsys.readouterr().err


_TOP_USAGE = "usage: amdesign [-h] {code,design,harmonic,poly,search,verify} ..."
_CODE_USAGE = "usage: amdesign code [-h] {info,dual,weights,subcode} ..."


# The usage line and the whole error, but for the list of choices, whose
# quoting differs between Python versions.
@pytest.mark.parametrize("argv, usage, error", [
    ([], _TOP_USAGE, "amdesign: error: the following arguments are required: command"),
    (["nope"], _TOP_USAGE, "amdesign: error: argument command: invalid choice: 'nope' ("),
    (["code"], _CODE_USAGE,
     "amdesign code: error: the following arguments are required: subcommand"),
    (["code", "nope"], _CODE_USAGE,
     "amdesign code: error: argument subcommand: invalid choice: 'nope' ("),
    (["design", "check", "-d", "x.json"],
     "usage: amdesign design check [-h] [--format {text,json}] -d FILE --t T",
     "amdesign design check: error: the following arguments are required: --t"),
    (["harmonic", "basis-dim", "--n", "4"],
     "usage: amdesign harmonic basis-dim [-h] [--format {text,json}] --n N --k K",
     "amdesign harmonic basis-dim: error: the following arguments are required: --k"),
])
def test_usage_errors_print_as_before(monkeypatch, capsys, argv, usage, error):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    lines = err.split("\n")
    assert (out, len(lines), lines[0], lines[-1]) == ("", 3, usage, "")
    assert lines[1] == error if error[-1] != "(" else lines[1].startswith(error)


def test_run_dispatches_by_name(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(commands, "run_info", lambda args: calls.append(args.builtin) or 5)
    assert cli.run(["code", "info", "-b", "d4"]) == 5
    assert calls == ["d4"]
    monkeypatch.setattr(sys, "argv", ["amdesign", "code", "info", "-b", "e8"])
    assert cli.run() == 5
    assert calls == ["d4", "e8"]
    # run() reads the dispatcher itself when it runs, as the tracing shim needs.
    monkeypatch.setattr(cli, "_cmd_group", lambda args: 7)
    assert cli.run(["code", "info", "-b", "d4"]) == 7
    assert capsys.readouterr().out == ""


def test_import_loads_no_dataclass_machinery():
    script = ("import json, sys; before = set(sys.modules); import amdesign.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = set(json.loads(out))
    assert "amdesign.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_no_source_module_imports_dataclasses():
    for path in (SRC / "amdesign").rglob("*.py"):
        assert "dataclasses" not in path.read_text(), path.name


def test_an_install_holds_every_source_directory_and_the_console_script():
    # The tests import from src/, so only this shows a package the install misses.
    setuptools = pytest.importorskip("setuptools")
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    (where,) = project["tool"]["setuptools"]["packages"]["find"]["where"]
    packages = setuptools.find_packages(str(SRC.parent / where))
    assert {SRC.joinpath(*name.split(".")) for name in packages} == {
        path.parent for path in (SRC / "amdesign").rglob("*.py")}
    module, _, function = project["project"]["scripts"]["amdesign"].partition(":")
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("name", [*amdesign._LAYERS, "cli"])
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"amdesign.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# Compiling holds about 450 B per significant token of the unit compiled, and
# the largest unit sets a short command's peak memory. Without a bytecode
# cache amdesign._RunLoader compiles each lazy module in the runs of
# amdesign._runs: the runs of other statements at import, each def that is a
# run of its own when it is first called. The package and cli, which
# `python -m` compiles as __main__, are compiled whole. The package, about
# 860 tokens, bounds the cap below.
TOKEN_CAP = 900
_LAYOUT_TOKENS = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                  tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_LAZY = [*amdesign._LAYERS, "commands"]
_WHOLE = ["__init__.py", "cli.py"]


def test_no_compile_unit_exceeds_the_token_cap():
    package = SRC / "amdesign"
    units = {}
    for name in _LAZY:
        source = (package / f"{name}.py").read_bytes()
        for i, (def_name, start, end) in enumerate(amdesign._runs(source)):
            units[f"{name} {def_name or f'run {i}'}"] = source[start:end]
    units.update((name, (package / name).read_bytes()) for name in _WHOLE)
    assert len(units) > len(_LAZY) + len(_WHOLE)
    assert len(_LAZY) + len(_WHOLE) == len(list(package.rglob("*.py")))
    assert "designs mendelsohn_solve" in units and "commands run 1" in units
    over = {}
    for unit, source in units.items():
        count = sum(tok.type not in _LAYOUT_TOKENS
                    for tok in tokenize.tokenize(io.BytesIO(source).readline))
        if count > TOKEN_CAP:
            over[unit] = count
    assert over == {}


# Runs a command and prints its exit code, the bytes of source of the package
# it compiled, each unit counted from its first line, not from the newlines
# before it, and how many units compiled hold catalog's searches, its store
# reader, a command body and the argparse builder.
_COMPILED = """
import builtins, sys
package, units, real = sys.argv[1], [], builtins.compile


def counting(source, filename, *args, **kwargs):
    if str(filename).startswith(package):
        units.append(source.lstrip(b"\\n"))
    return real(source, filename, *args, **kwargs)


builtins.compile = counting
from amdesign.cli import run

code = run(sys.argv[2:])
builtins.compile = real
print(code, sum(map(len, units)),
      *(sum(key in unit for unit in units)
        for key in (b"def search_", b"def load_code(", b"def run_", b"def _build_parser(")),
      file=sys.stderr)
"""
# The most bytes of source each command may compile with no bytecode cache:
# the package, cli, the runs of the modules it loads and the defs it calls.
# Each cap sits a little above its line's figure, so a change that makes a
# command compile more shows here; CHANGES.md keeps the history of the
# figures. In the order below, the lines compile 31,190, 45,176, 28,364,
# 30,051, 46,447, 42,000 and 25,894 B.
_COMPILED_BYTES = {
    "code info -b type1_16": 32_700,
    "verify thm1.1 -b type1_16": 46_950,
    "design check -d c12.json --t 5": 30_100,
    "search fsd": 30_600,
    "verify thm1.2-1 -b type1_16": 51_950,
    "verify thm1.4 -d c6.json": 43_250,
    "design complement -d c6.json": 27_700,
}


def _compiled(cwd, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(cwd / "no-cache"))
    err = subprocess.run([sys.executable, "-c", _COMPILED, str(SRC / "amdesign"), *argv],
                         env=env, cwd=cwd, capture_output=True, text=True, check=True).stderr
    assert not any(cwd.rglob("*.pyc"))
    return tuple(map(int, err.rstrip("\n").rsplit("\n", 1)[-1].split()))


@pytest.mark.parametrize("line", _COMPILED_BYTES)
def test_a_command_compiles_at_most_its_bytes(tmp_path, golay, c6, line):
    from oracles import format_design

    from amdesign.designs import support_design

    (tmp_path / "c12.json").write_text(format_design(support_design(golay, 12)) + "\n")
    (tmp_path / "c6.json").write_text(format_design(c6) + "\n")
    code, compiled, *_ = _compiled(tmp_path, line.split())
    assert code == 0 and compiled <= _COMPILED_BYTES[line], compiled


def test_code_info_compiles_no_search(tmp_path):
    # -b NAME reads catalog's store and compiles neither search.
    assert _compiled(tmp_path, ["code", "info", "-b", "type1_16"])[2:4] == (0, 1)


# A well-formed command line compiles the one command body it runs and not
# the argparse builder; help and usage errors, and the spellings only
# argparse reads, build the parser.
@pytest.mark.parametrize("line, code, bodies, parsers", [
    ("code info -b type1_16", 0, 1, 0),
    ("verify thm1.1 -b type1_16", 0, 1, 0),
    ("search fsd", 0, 1, 0),
    ("harmonic basis-dim --n 16 --k 2", 0, 1, 0),
    ("poly lemma4.1 --alpha-max 8", 0, 1, 0),
    ("code info --bogus", 2, 0, 1),
    ("code info --builtin=d4", 0, 1, 1),
])
def test_a_command_compiles_one_body_and_argparse_only_off_the_table(
        tmp_path, line, code, bodies, parsers):
    rc, _, _, _, *counts = _compiled(tmp_path, line.split())
    assert (rc, *counts) == (code, bodies, parsers)


# Commands that build no Fraction, and commands that divide.
_EXACT_INT = [
    ["code", "info", "-b", "type1_16"],
    ["design", "check", "-d", "c6.json", "--t", "2"],
    ["design", "from-code", "-b", "type1_16", "--w", "6"],
    ["verify", "am", "-b", "e8", "--t", "3"],
    ["verify", "thm1.1", "-b", "type1_16"],
    ["verify", "thm1.2-1", "-b", "type1_16"],
    ["harmonic", "basis-dim", "--n", "16", "--k", "2"],
    ["harmonic", "transform-check", "-b", "type1_16", "--k", "1"],
    ["poly", "gleason", "-b", "type1_16"],
    ["poly", "gleason", "-b", "type1_16", "--t", "1"],
    ["poly", "gleason", "-g", "open.gm"],
    ["design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6", "--lam", "8",
     "--m", "6", "--allowed", "0,2,4,6", "--fixed", "6=1"],
]
# lambda_0 = 8 * 16 / 6 = 64/3: a usage error, exit 2.
_DIVIDING = [
    ["design", "mendelsohn", "--t", "1", "--v", "16", "--k", "6", "--lam", "8",
     "--m", "0", "--allowed", "0"],
]


@pytest.fixture(scope="module")
def c6_dir(tmp_path_factory, c6):
    from oracles import format_design

    path = tmp_path_factory.mktemp("startup")
    (path / "c6.json").write_text(format_design(c6) + "\n")
    # An enumerator x^4 + x^2y^2 outside the span of (x^2+y^2)^2: exit 1.
    (path / "open.gm").write_text("1100\n")
    return path


@pytest.mark.parametrize("argv", _EXACT_INT + _DIVIDING, ids=" ".join)
def test_fractions_load_only_where_a_fraction_is_made(c6_dir, argv):
    script = ("import sys; from amdesign.cli import run; code = run(sys.argv[1:]); "
              "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)), "
              "file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=c6_dir,
                         capture_output=True, text=True, check=True).stderr
    *messages, last = err.rstrip("\n").split("\n")
    code, loaded = last.split(" ", 1)
    if argv in _DIVIDING:
        assert (code, messages) == ("2", ["error: lambda_0 = 64/3 is not an integer"])
        assert "fractions" in loaded
    else:
        assert (code, messages) == ("1" if "open.gm" in argv else "0", [])
        assert loaded == "[]"
