"""The table-driven parser and the import cost of the command line: a parser
built for one branch parses as the whole table does, help lists every name,
dispatch looks the command up by name, the import pulls in no
dataclass machinery, only a command that divides imports fractions, and
every module's __all__ names only defined names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amdesign
import amdesign.cli as cli

SRC = Path(__file__).resolve().parent.parent / "src"

BRANCHES = [(group, name) for group, (_, commands) in cli._COMMANDS.items()
            for name in commands]


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
    named = {func for _, commands in cli._COMMANDS.values() for func, _ in commands.values()}
    defined = {n for n in vars(cli) if n.startswith("_cmd_")}
    assert named == defined
    assert len(BRANCHES) == 23


@pytest.mark.parametrize("group, name", BRANCHES, ids="-".join)
def test_one_branch_parses_as_the_whole_table(group, name):
    for argv in _argvs(group, name):
        partial = cli._build_parser(argv)
        assert list(partial._subparsers._group_actions[0].choices) == [group]
        args = partial.parse_args(argv)
        assert args == cli._build_parser([]).parse_args(argv)
        assert (args.command, args.subcommand) == (group, name)
        assert callable(getattr(cli, args.func))


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
    outputs = []
    for parser in (cli._build_parser(argv), cli._build_parser([])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        outputs.append((exc.value.code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2 and "usage: " in outputs[0][1].err


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


def test_run_dispatches_by_name(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_cmd_code_info", lambda args: calls.append(args.builtin) or 5)
    assert cli.run(["code", "info", "-b", "d4"]) == 5
    assert calls == ["d4"]
    monkeypatch.setattr(sys, "argv", ["amdesign", "code", "info", "-b", "e8"])
    assert cli.run() == 5
    assert calls == ["d4", "e8"]
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
    for path in (SRC / "amdesign").glob("*.py"):
        assert "dataclasses" not in path.read_text(), path.name


@pytest.mark.parametrize("name", [*amdesign._LAYERS, "cli"])
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"amdesign.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


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
]
_DIVIDING = [
    ["design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6", "--lam", "8",
     "--m", "6", "--allowed", "0,2,4,6", "--fixed", "6=1"],
    ["poly", "gleason", "-b", "type1_16"],
]


@pytest.fixture(scope="module")
def c6_dir(tmp_path_factory, c6):
    from amdesign.designs import format_design

    path = tmp_path_factory.mktemp("startup")
    (path / "c6.json").write_text(format_design(c6) + "\n")
    return path


@pytest.mark.parametrize("argv", _EXACT_INT + _DIVIDING, ids=" ".join)
def test_fractions_load_only_where_a_fraction_is_made(c6_dir, argv):
    script = ("import sys; from amdesign.cli import run; code = run(sys.argv[1:]); "
              "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)), "
              "file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=c6_dir,
                         capture_output=True, text=True, check=True).stderr
    code, loaded = err.rstrip("\n").split(" ", 1)
    assert code == "0"
    if argv in _DIVIDING:
        assert "fractions" in loaded
    else:
        assert loaded == "[]"
