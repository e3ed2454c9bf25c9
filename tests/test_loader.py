"""amdesign._RunLoader, which compiles a module that has no bytecode cache in
runs of whole top-level statements, and a def that is a run of its own on its
first call: the runs define what the whole file does, at the file's own line
numbers and with its __future__ flags; a def, once called, is the whole
file's def (a generator def calls it, holding no generator code) and the
same object it was before the call; a rebinding of its
name survives that call; a syntax error reads as the whole file's; and where
the bytecode cache is written, modules are compiled whole once and then read
from the cache."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from importlib.machinery import SourceFileLoader
from pathlib import Path

import pytest

import amdesign
import amdesign.commands

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "amdesign"
_LAZY = [*amdesign._LAYERS, "commands"]


def _path(name):
    return PACKAGE / f"{name}.py"


@pytest.fixture
def no_cache(monkeypatch, tmp_path):
    """No bytecode is read or written: the cache prefix is an empty directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path / "cache"))


def _load(loader_class, name, path):
    spec = importlib.util.spec_from_file_location(name, path,
                                                  loader=loader_class(name, str(path)))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _refuse_whole_files(monkeypatch):
    """Makes the default loader's exec_module, which _RunLoader falls back
    to, fail, so that a module loads only from its runs."""
    def whole(self, module):
        raise AssertionError(f"{self.path} was compiled whole")

    monkeypatch.setattr(SourceFileLoader, "exec_module", whole)


def _deferred(name):
    """The names of the module's defs that are compiled on their first call."""
    return [run[0] for run in amdesign._runs(_path(name).read_bytes()) if run[0]]


def _first_call(f):
    """Calls f with a keyword no function of the package takes: the call
    compiles a deferred def, then fails as the def's own call fails, before
    its body runs."""
    with pytest.raises(TypeError, match="_no_such_keyword"):
        f(_no_such_keyword=None)


def _lines(code):
    """The lines that code's instructions run on, in order, each run of one
    line once."""
    lines = [line for _, _, line in code.co_lines()]
    return [line for i, line in enumerate(lines) if i == 0 or lines[i - 1] != line]


_CUT = [name for name in _LAZY if len(amdesign._runs(_path(name).read_bytes())) > 1]


def _sections():
    """amdesign.commands's deferred defs in file order, cut into sections:
    "commands.common", the parser builder and the helpers the command groups
    share, then a "commands.<group>" section for each group of the table,
    ending at the group's last command function."""
    defs, table = _deferred("commands"), amdesign.commands._COMMANDS
    ends = [max(defs.index(f) for f, _ in group.values()) + 1 for _, group in table.values()]
    first = min(defs.index(f) for f, _ in next(iter(table.values()))[1].values())
    cuts = [0, first, *ends]
    assert cuts == sorted(set(cuts)) and cuts[-1] == len(defs)
    names = ["commands.common", *(f"commands.{group}" for group in table)]
    return {name: defs[a:b] for name, a, b in zip(names, cuts, cuts[1:])}


# The cases of the tests that load one module both ways: each layer, and each
# section of amdesign.commands, checked on its own defs.
_SECTIONS = _sections()
_CASES = [*amdesign._LAYERS, *_SECTIONS]


def _module_and_defs(case):
    """The module a case loads and the deferred defs it checks."""
    if case in _SECTIONS:
        return "commands", _SECTIONS[case]
    return case, _deferred(case)


def test_the_runs_are_the_source_at_its_own_lines():
    assert _CUT == _LAZY
    for name in _LAZY:
        source = _path(name).read_bytes()
        runs = amdesign._runs(source)
        assert runs[0][1] == 0 and runs[-1][2] == len(source)
        assert all(a[2] == b[1] for a, b in zip(runs, runs[1:]))
        for def_name, start, end in runs:
            text = source[start:end]
            if def_name is not None:
                assert text.startswith(f"def {def_name}(".encode())
            # A run is cut only at a column-0 line after a blank line.
            assert start == 0 or source[start - 2:start] == b"\n\n"
        # Eager runs are filled up to _RUN_BYTES before the next one starts.
        assert all(b[2] - a[1] > amdesign._RUN_BYTES for a, b in zip(runs, runs[1:])
                   if a[0] is b[0] is None)
        at = amdesign._at_its_lines(source, runs[-1][1], runs[-1][2])
        assert at.count(b"\n") == source.count(b"\n")


def test_a_constant_after_a_def_leaves_the_def_deferred():
    assert {"union", "is_self_orthogonal_design"} <= set(_deferred("designs"))
    # Decorated defs and classes are compiled at import.
    assert "harm_basis" not in _deferred("harmonic")
    assert "Design" not in _deferred("designs")
    # A def followed by a statement on the next line is not alone; a def's
    # own comment lines, blank lines and closing ")" keep it alone.
    source = (b"def f():\n    pass\nX = 1\n\n\ndef g(\n    x,\n) -> int:\n# note\n\n"
              b"    return x\n\n\n@d\ndef h():\n    pass\n")
    assert [run[0] for run in amdesign._runs(source)] == [None, "g", None]


def test_the_sections_of_commands_cover_its_defs():
    assert [def_name for defs in _SECTIONS.values() for def_name in defs] == (
        _deferred("commands"))
    assert all(_SECTIONS.values())


@pytest.mark.parametrize("name", _CASES)
def test_the_runs_of_a_module_define_what_the_whole_file_does(no_cache, monkeypatch, name):
    name, defs = _module_and_defs(name)
    whole = _load(SourceFileLoader, f"amdesign.{name}", _path(name))
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, f"amdesign.{name}", _path(name))
    assert sorted(vars(cut)) == sorted(vars(whole))
    assert (getattr(cut, "__all__", None), cut.__doc__) == (
        getattr(whole, "__all__", None), whole.__doc__)
    # The defs are bound in the file's order, in either load.
    assert [n for n in vars(cut) if n in defs] == [n for n in vars(whole) if n in defs] == defs


# The co_flags bit of a generator's code (CO_GENERATOR): Python 3.13
# deprecates moving such code onto a plain function, as the placeholder of a
# deferred def is.
_GENERATOR = 0x20


@pytest.mark.parametrize("name", _CASES)
def test_a_deferred_def_once_called_is_the_whole_files(no_cache, monkeypatch, name):
    name, deferred = _module_and_defs(name)
    whole = _load(SourceFileLoader, f"amdesign.{name}", _path(name))
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, f"amdesign.{name}", _path(name))
    assert deferred
    for def_name in deferred:
        f, g = getattr(cut, def_name), getattr(whole, def_name)
        _first_call(f)
        assert getattr(cut, def_name) is f
        assert (f.__name__, f.__qualname__, f.__module__) == (g.__name__, g.__qualname__,
                                                             g.__module__)
        # A generator def's placeholder keeps its plain code and calls the
        # compiled function, which holds the code the checks below read.
        called = f
        if g.__code__.co_flags & _GENERATOR:
            assert f.__code__ is amdesign._placeholder.__code__
            called = f.__kwdefaults__["_deferred"]
        # The bytecode may differ: a call of an attribute of a module the
        # file imports compiles to LOAD_METHOD outside the importing unit.
        assert _lines(called.__code__) == _lines(g.__code__)
        assert (called.__kwdefaults__, f.__doc__, f.__annotations__, f.__dict__) == (
            g.__kwdefaults__, g.__doc__, g.__annotations__, g.__dict__)
        assert called.__defaults__ == g.__defaults__


def test_no_placeholder_holds_generator_code(no_cache, monkeypatch):
    _refuse_whole_files(monkeypatch)
    generators = []
    for name in _LAZY:
        cut = _load(amdesign._RunLoader, f"amdesign.{name}", _path(name))
        for def_name in _deferred(name):
            f = getattr(cut, def_name)
            _first_call(f)
            assert not f.__code__.co_flags & _GENERATOR, def_name
            if f.__code__ is amdesign._placeholder.__code__:
                generators.append(def_name)
            if def_name == "iter_codewords":
                words = list(f(cut.BinaryCode(4, (3, 12))))
    assert {"iter_codewords", "_weight_leaves", "_leaf_words", "_checked_blocks",
            "design_json", "_words"} <= set(generators)
    assert words == [0, 3, 15, 12]


def test_a_function_in_a_later_run_keeps_its_lines_and_source(no_cache, monkeypatch):
    whole = _load(SourceFileLoader, "amdesign.designs", _path("designs"))
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, "amdesign.designs", _path("designs"))
    assert "mendelsohn_solve" in _deferred("designs")
    f, g = cut.mendelsohn_solve, whole.mendelsohn_solve
    _first_call(f)
    assert cut.mendelsohn_solve is f
    assert f.__code__.co_firstlineno == g.__code__.co_firstlineno > 1
    assert list(f.__code__.co_lines()) == list(g.__code__.co_lines())
    assert inspect.getsource(f) == inspect.getsource(g)


_TWO_DEFS = '"""Doc."""\n\n\ndef f():\n    return "f"\n\n\ndef g():\n    return f()\n'


@pytest.mark.parametrize("via", ["a copy", "the defining module"])
def test_a_rebinding_survives_the_first_call(no_cache, monkeypatch, tmp_path, via):
    path = tmp_path / "two.py"
    path.write_text(_TWO_DEFS)
    assert [run[0] for run in amdesign._runs(path.read_bytes())] == [None, "f", "g"]
    _refuse_whole_files(monkeypatch)
    module = _load(amdesign._RunLoader, "two", path)
    copy = module.f

    def wrapper():
        return "wrapped " + copy()

    module.f = wrapper
    if via == "a copy":
        assert copy() == "f"
    else:
        assert module.g() == "wrapped f"
    assert module.f is wrapper and copy.__code__.co_name == "f"
    assert module.g() == "wrapped f"


def _module_of_runs(tmp_path, tail):
    """A module file whose tail is a run of its own, after a docstring, the
    annotations __future__ import and a function of about _RUN_BYTES bytes."""
    body = "".join(f"    x{i} = {i}\n" for i in range(amdesign._RUN_BYTES // 12))
    path = tmp_path / "runs.py"
    path.write_text(f'"""Doc."""\n\nfrom __future__ import annotations\n\n\n'
                    f"def early():\n{body}    return x0\n\n\n{tail}")
    source = path.read_bytes()
    runs = amdesign._runs(source)
    assert [run[0] for run in runs[:2]] == [None, "early"]
    assert source[runs[2][1]:] == tail.encode()
    return path


def test_a_later_run_keeps_the_future_flags_and_its_decorators(no_cache, monkeypatch,
                                                                tmp_path):
    path = _module_of_runs(tmp_path, "@(lambda f: f)\n@(\n    lambda f: f)\n"
                                     "def late(x: Undefined) -> Missing:\n    return x\n\n\n"
                                     "def later(x: Undefined) -> Missing:\n    return x\n")
    whole = _load(SourceFileLoader, "runs", path)
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, "runs", path)
    assert [run[0] for run in amdesign._runs(path.read_bytes())][2:] == [None, "later"]
    assert cut.later(1) == 1
    for name in ("late", "later"):
        f, g = getattr(cut, name), getattr(whole, name)
        # Evaluated, the annotations would raise NameError.
        assert f.__annotations__ == {"x": "Undefined", "return": "Missing"}
        assert f.__code__.co_firstlineno == g.__code__.co_firstlineno
        assert inspect.getsource(f) == inspect.getsource(g)


def _error(call):
    with pytest.raises(SyntaxError) as err:
        call()
    e = err.value
    return type(e), e.msg, e.filename, e.lineno, e.offset, e.text


def test_a_syntax_error_reads_as_the_default_loaders(no_cache, tmp_path):
    # In a def compiled on its first call, the error comes at that call; in
    # a run compiled at import, at import.
    for tail, deferred in [("def broken(:\n    pass\n", True),
                           ("@(lambda f: f)\ndef broken(:\n    pass\n", False)]:
        path = _module_of_runs(tmp_path, tail)
        default = _error(lambda: _load(SourceFileLoader, "runs", path))
        assert default[3] == len(path.read_text().splitlines()) - 1
        if deferred:
            module = _load(amdesign._RunLoader, "runs", path)
            assert _error(module.broken) == default
        else:
            assert _error(lambda: _load(amdesign._RunLoader, "runs", path)) == default


# Runs a command, recording each compile of a file of the package as (file,
# first line) and each call as (file, first line of the function's code).
_COMPILES = """
import builtins, json, sys

compiled, called, real = [], set(), builtins.compile


def counting(source, filename, *args, **kwargs):
    lines = source[:len(source) - len(source.lstrip(b"\\n"))].count(b"\\n")
    compiled.append([str(filename), lines + 1])
    return real(source, filename, *args, **kwargs)


def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


builtins.compile = counting
sys.setprofile(profile)
from amdesign.cli import run

code = run(sys.argv[1:])
sys.setprofile(None)
builtins.compile = real
print(json.dumps([code, compiled, sorted(called)]), file=sys.stderr)
"""
_COMMAND = ["code", "info", "-b", "type1_16"]
# The modules the command runs, past the package and cli.
_RAN = ["gf2core", "catalog", "commands"]


def _run(env):
    """stdout of the command, the compiles of files of the package as
    (file, first line), and the first lines of the package's functions that
    ran, by file."""
    proc = subprocess.run([sys.executable, "-c", _COMPILES, *_COMMAND], env=env,
                          capture_output=True, check=True)
    code, compiled, called = json.loads(proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])
    assert code == 0

    def relative(f):
        return Path(f).relative_to(PACKAGE).as_posix()

    return (proc.stdout,
            Counter((relative(f), line) for f, line in compiled if f.startswith(str(PACKAGE))),
            {(relative(f), line) for f, line in called if f.startswith(str(PACKAGE))})


def _env(cache, write):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def test_without_a_cache_a_command_compiles_its_modules_in_runs(tmp_path):
    _, compiled, called = _run(_env(tmp_path, write=False))
    expected = Counter({("__init__.py", 1): 1, ("cli.py", 1): 1})
    deferred = 0
    for name in _RAN:
        file, source = f"{name}.py", _path(name).read_bytes()
        for def_name, start, _ in amdesign._runs(source):
            first = (file, source.count(b"\n", 0, start) + 1)
            if def_name is None:
                expected[first] += 1
            elif (file, source.count(b"\n", 0, source.index(b"def ", start)) + 1) in called:
                expected[first] += 1
                deferred += 1
    assert compiled == expected
    assert deferred > 0
    assert not any((tmp_path).rglob("*.pyc"))


def test_the_run_that_writes_the_cache_compiles_whole_files(tmp_path):
    first, compiled, _ = _run(_env(tmp_path, write=True))
    assert set(compiled.values()) == {1}
    assert {file for file, _ in compiled} == {"__init__.py", "cli.py",
                                              *(f"{name}.py" for name in _RAN)}
    assert {line for _, line in compiled} == {1}
    assert any(tmp_path.rglob("gf2core.*.pyc"))
    second, compiled, _ = _run(_env(tmp_path, write=True))
    assert (second, compiled) == (first, Counter())
    assert second.startswith(b"length: 16\n")
