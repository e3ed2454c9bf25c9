"""amdesign._RunLoader, which compiles a module that has no bytecode cache in
runs of whole top-level statements: the runs define what the whole file
does, at the file's own line numbers and with its __future__ flags; a syntax
error reads as the whole file's; and where the bytecode cache is written,
modules are compiled whole once and then read from the cache."""

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

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "amdesign"
_LAZY = [*amdesign._LAYERS, *(f"commands.{name}" for name in amdesign._COMMAND_MODULES)]


def _path(name):
    return PACKAGE / f"{name.replace('.', '/')}.py"


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


_CUT = [name for name in _LAZY if len(amdesign._runs(_path(name).read_bytes())) > 1]


def test_the_runs_are_the_source_at_its_own_lines():
    assert {"gf2core", "designs", "verify", "polyring"} <= set(_CUT)
    for name in _LAZY:
        source = _path(name).read_bytes()
        offset = 0
        # A run is the newlines before its first line, then the source from
        # there: a def, class or decorator line after the first run.
        for run in amdesign._runs(source):
            text = run.lstrip(b"\n")
            assert source.startswith(text, offset)
            assert len(run) - len(text) == source.count(b"\n", 0, offset)
            offset += len(text)
        assert offset == len(source)


@pytest.mark.parametrize("name", _CUT)
def test_the_runs_of_a_module_define_what_the_whole_file_does(no_cache, monkeypatch, name):
    whole = _load(SourceFileLoader, f"amdesign.{name}", _path(name))
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, f"amdesign.{name}", _path(name))
    assert sorted(vars(cut)) == sorted(vars(whole))
    assert (cut.__all__, cut.__doc__) == (whole.__all__, whole.__doc__)


def test_a_function_in_a_later_run_keeps_its_lines_and_source(no_cache, monkeypatch):
    whole = _load(SourceFileLoader, "amdesign.designs", _path("designs"))
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, "amdesign.designs", _path("designs"))
    first_run = amdesign._runs(_path("designs").read_bytes())[0]
    f, g = cut.mendelsohn_solve, whole.mendelsohn_solve
    assert f.__code__.co_firstlineno == g.__code__.co_firstlineno > first_run.count(b"\n")
    assert list(f.__code__.co_lines()) == list(g.__code__.co_lines())
    assert inspect.getsource(f) == inspect.getsource(g)


def _module_of_runs(tmp_path, tail):
    """A module file whose tail is a run of its own, after a docstring, the
    annotations __future__ import and a function of about _RUN_BYTES bytes."""
    body = "".join(f"    x{i} = {i}\n" for i in range(amdesign._RUN_BYTES // 12))
    path = tmp_path / "runs.py"
    path.write_text(f'"""Doc."""\n\nfrom __future__ import annotations\n\n\n'
                    f"def early():\n{body}    return x0\n\n\n{tail}")
    runs = amdesign._runs(path.read_bytes())
    assert len(runs) == 3 and runs[-1].endswith(b"\n\n" + tail.encode())
    return path


def test_a_later_run_keeps_the_future_flags_and_its_decorators(no_cache, monkeypatch,
                                                                tmp_path):
    path = _module_of_runs(tmp_path, "@(lambda f: f)\n@(\n    lambda f: f)\n"
                                     "def late(x: Undefined) -> Missing:\n    return x\n")
    whole = _load(SourceFileLoader, "runs", path)
    _refuse_whole_files(monkeypatch)
    cut = _load(amdesign._RunLoader, "runs", path)
    # Evaluated, the annotations would raise NameError.
    assert cut.late.__annotations__ == {"x": "Undefined", "return": "Missing"}
    assert cut.late.__code__.co_firstlineno == whole.late.__code__.co_firstlineno
    assert inspect.getsource(cut.late) == inspect.getsource(whole.late)


def test_a_syntax_error_reads_as_the_default_loaders(no_cache, tmp_path):
    path = _module_of_runs(tmp_path, "def broken(:\n    pass\n")
    errors = []
    for loader_class in (SourceFileLoader, amdesign._RunLoader):
        with pytest.raises(SyntaxError) as err:
            _load(loader_class, "runs", path)
        e = err.value
        errors.append((type(e), e.msg, e.filename, e.lineno, e.offset, e.text))
    assert errors[0] == errors[1]
    assert errors[0][3] == len(path.read_text().splitlines()) - 1


_COMPILES = """
import builtins, json, sys

compiled, real = [], builtins.compile


def counting(source, filename, *args, **kwargs):
    compiled.append(str(filename))
    return real(source, filename, *args, **kwargs)


builtins.compile = counting
from amdesign.cli import run

code = run(sys.argv[1:])
builtins.compile = real
print(json.dumps([code, compiled]), file=sys.stderr)
"""
_COMMAND = ["code", "info", "-b", "type1_16"]
# The modules the command runs, past the package and cli.
_RAN = ["gf2core", "catalog", "commands.code", "commands.common"]


def _run(env):
    """stdout of the command, and how often each file of the package was
    compiled."""
    proc = subprocess.run([sys.executable, "-c", _COMPILES, *_COMMAND], env=env,
                          capture_output=True, check=True)
    code, compiled = json.loads(proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])
    assert code == 0
    return proc.stdout, Counter(Path(f).relative_to(PACKAGE).as_posix() for f in compiled
                                if f.startswith(str(PACKAGE)))


def _env(cache, write):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def test_without_a_cache_a_command_compiles_its_modules_in_runs(tmp_path):
    _, compiled = _run(_env(tmp_path, write=False))
    expected = Counter({"__init__.py": 1, "commands/__init__.py": 1, "cli.py": 1})
    for name in _RAN:
        expected[_path(name).relative_to(PACKAGE).as_posix()] = len(
            amdesign._runs(_path(name).read_bytes()))
    assert compiled == expected
    assert not any((tmp_path).rglob("*.pyc"))


def test_the_run_that_writes_the_cache_compiles_whole_files(tmp_path):
    first, compiled = _run(_env(tmp_path, write=True))
    assert set(compiled.values()) == {1}
    assert set(compiled) == {"__init__.py", "commands/__init__.py", "cli.py",
                             *(_path(name).relative_to(PACKAGE).as_posix() for name in _RAN)}
    assert any(tmp_path.rglob("gf2core.*.pyc"))
    second, compiled = _run(_env(tmp_path, write=True))
    assert (second, compiled) == (first, Counter())
    assert second.startswith(b"length: 16\n")
