"""The names the benchmark's tracing shim rebinds, the late lookup of
verifiers in the CLI that its per-verifier counts rely on, and the modules a
command loads: every layer the shim reads and every command group is
registered by the import of the CLI, but only the layers the command runs and
its own group are executed. Reads bench/ only."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import format_design

import amdesign.cli
import amdesign.verify

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_shim", ROOT / "bench" / "shim.py")
shim = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shim)


def test_every_traced_name_exists():
    for layer, names in shim.LAYERS.items():
        module = importlib.import_module(f"amdesign.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"amdesign.{layer}.{name}"
    for layer, cls_name, name in shim.METHODS:
        cls = getattr(importlib.import_module(f"amdesign.{layer}"), cls_name)
        assert callable(cls.__dict__.get(name)), f"{cls_name}.{name}"
    assert callable(importlib.import_module("amdesign.gf2core").iter_codewords)
    # The shim counts basis builds by the cache misses of harm_basis.
    assert callable(importlib.import_module("amdesign.harmonic").harm_basis.cache_info)
    assert [n for n in vars(amdesign.cli) if n.startswith(shim.CLI_COMMAND_PREFIX)]


def test_cli_looks_verifiers_up_when_the_command_runs(monkeypatch, capsys):
    calls = []
    real = amdesign.verify.verify_thm_1_2_fsd

    def patched(c):
        calls.append(c.n)
        return real(c)

    monkeypatch.setattr(amdesign.verify, "verify_thm_1_2_fsd", patched)
    assert amdesign.cli.run(["verify", "thm1.2-2", "-b", "fsd_16"]) == 0
    capsys.readouterr()
    assert calls == [16]


# A lazily registered module is a module subclass until its first attribute
# read executes it; type() reads no attribute.
_LAYERS_SCRIPT = """
import contextlib, io, json, sys, types

def executed():
    return sorted(n for n, m in sys.modules.items()
                  if n.startswith("amdesign.") and type(m) is types.ModuleType)

import amdesign.cli
registered = sorted(n for n in sys.modules if n.startswith("amdesign."))
imported = executed()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = amdesign.cli.run(sys.argv[1:])
    print(json.dumps([rc, registered, executed()]))
else:
    print(json.dumps([registered, imported]))
"""
# What the import of the CLI executes: the package of the command groups is
# run to find its modules, but no group module and no layer beyond gf2core.
_IMPORTED = ["amdesign.cli", "amdesign.commands", "amdesign.gf2core"]


def _run_layers_script(cwd, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _LAYERS_SCRIPT, *argv], env=env,
                         cwd=cwd, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_importing_the_cli_runs_no_command_group(tmp_path):
    registered, imported = _run_layers_script(tmp_path, [])
    assert set(registered) >= {f"amdesign.commands.{name}"
                               for name in (*amdesign.cli._COMMANDS, "common")}
    assert imported == _IMPORTED


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, c6):
    root = tmp_path_factory.mktemp("layers")
    (root / "e8.gm").write_text("11111111\n00001111\n00110011\n01010101\n")
    # pair {1, 2} is covered once, pair {1, 4} never
    (root / "mutant.json").write_text(json.dumps({"v": 4, "blocks": [[1, 2], [1, 3]]}))
    for name in ("type1_16", "fsd_16"):
        (root / f"{name}.gm").write_text(
            (ROOT / "src" / "amdesign" / "data" / f"{name}.gm").read_text())
    (root / "c6.json").write_text(format_design(c6) + "\n")
    return root


# Each case runs the import's modules, the helpers the groups share, its own
# group and the layers listed.
_LAYER_CASES = [
    (["code", "info", "-g", "e8.gm"], 0, []),
    (["search", "fsd"], 0, ["catalog"]),
    (["design", "check", "-d", "mutant.json", "--t", "2"], 1, ["designs"]),
    # the support design is streamed from the code's words, with no Design
    (["design", "from-code", "-g", "e8.gm", "--w", "4"], 0, []),
    (["verify", "am", "-g", "e8.gm", "--t", "1"], 0, ["verify"]),
    # harmonic enumerators are integer rows: no HomPoly, so no polyring
    (["verify", "thm1.1", "-g", "type1_16.gm"], 0, ["designs", "harmonic", "verify"]),
    (["verify", "thm1.2-1", "-g", "type1_16.gm"], 0, ["designs", "harmonic", "verify"]),
    (["harmonic", "basis-dim", "--n", "16", "--k", "2"], 0, ["harmonic"]),
    (["poly", "gleason", "-g", "e8.gm"], 0, ["polyring"]),
    # the paper's block-count system is solved in integers, without ratlin
    (["design", "mendelsohn", "--t", "2", "--v", "16", "--k", "6", "--lam", "8", "--m", "6",
      "--allowed", "0,2,4,6", "--fixed", "6=1"], 0, ["designs"]),
    (["code", "dual", "-g", "e8.gm"], 0, []),
    (["code", "weights", "-g", "type1_16.gm"], 0, []),
    (["code", "subcode", "-g", "type1_16.gm"], 0, []),
    (["design", "complement", "-d", "c6.json"], 0, ["designs"]),
    (["design", "intersections", "-d", "c6.json"], 0, ["designs"]),
    (["harmonic", "wenum", "-g", "type1_16.gm", "--k", "2", "--index", "3"], 0,
     ["harmonic", "polyring"]),
    (["harmonic", "transform-check", "-g", "e8.gm", "--k", "1"], 0, ["harmonic", "polyring"]),
    (["poly", "lemma4.1", "--alpha-max", "8"], 0, ["polyring"]),
    (["search", "type1-16"], 0, ["catalog"]),
    # these four verifiers take no harmonic route
    (["verify", "thm1.2-2", "-g", "fsd_16.gm"], 0, ["designs", "verify"]),
    (["verify", "thm1.4", "-d", "c6.json"], 0, ["designs", "verify"]),
    (["verify", "cor1.5", "-g", "type1_16.gm"], 0, ["designs", "verify"]),
    (["verify", "profile", "-g", "type1_16.gm"], 0, ["designs", "verify"]),
]


def test_the_layer_cases_cover_every_subcommand():
    assert sorted((argv[0], argv[1]) for argv, _, _ in _LAYER_CASES) == sorted(
        (group, name) for group, (_, table) in amdesign.cli._COMMANDS.items() for name in table)


@pytest.mark.parametrize("argv, rc, layers", _LAYER_CASES, ids=[
    "code-info", "search-fsd", "design-check-violation", "design-from-code", "verify-am",
    "verify-thm1.1", "verify-thm1.2-1", "harmonic-basis-dim", "poly-gleason", "design-mendelsohn",
    "code-dual", "code-weights", "code-subcode", "design-complement", "design-intersections",
    "harmonic-wenum", "harmonic-transform-check", "poly-lemma4.1", "search-type1-16",
    "verify-thm1.2-2", "verify-thm1.4", "verify-cor1.5", "verify-profile"])
def test_a_command_executes_only_the_layers_it_runs(inputs, argv, rc, layers):
    got_rc, registered, executed = _run_layers_script(inputs, argv)
    assert set(registered) >= {f"amdesign.{layer}" for layer in shim.LAYERS}
    expected = _IMPORTED + [f"amdesign.commands.{argv[0]}", "amdesign.commands.common"]
    assert (got_rc, executed) == (rc, sorted(expected + [f"amdesign.{n}" for n in layers]))
