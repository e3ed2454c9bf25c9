"""The names the benchmark's tracing shim rebinds, the late lookup of
verifiers in the CLI that its per-verifier counts rely on, and the layers a
command loads: every layer the shim reads is registered by the import of the
CLI, but only those the command runs are executed. Reads bench/ only."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# A lazily registered layer is a module subclass until its first attribute
# read executes it; type() reads no attribute.
_LAYERS_SCRIPT = """
import contextlib, io, json, sys, types
import amdesign.cli
registered = sorted(n for n in sys.modules if n.startswith("amdesign."))
with contextlib.redirect_stdout(io.StringIO()):
    rc = amdesign.cli.run(sys.argv[1:])
executed = sorted(n.split(".")[1] for n, m in sys.modules.items()
                  if n.startswith("amdesign.") and n != "amdesign.cli"
                  and type(m) is types.ModuleType)
print(json.dumps([rc, registered, executed]))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("layers")
    (root / "e8.gm").write_text("11111111\n00001111\n00110011\n01010101\n")
    # pair {1, 2} is covered once, pair {1, 4} never
    (root / "mutant.json").write_text(json.dumps({"v": 4, "blocks": [[1, 2], [1, 3]]}))
    (root / "type1_16.gm").write_text(
        (ROOT / "src" / "amdesign" / "data" / "type1_16.gm").read_text())
    return root


@pytest.mark.parametrize("argv, rc, executed", [
    (["code", "info", "-g", "e8.gm"], 0, ["gf2core"]),
    (["search", "fsd"], 0, ["catalog", "gf2core"]),
    (["design", "check", "-d", "mutant.json", "--t", "2"], 1, ["designs", "gf2core"]),
    (["design", "from-code", "-g", "e8.gm", "--w", "4"], 0, ["designs", "gf2core"]),
    (["verify", "am", "-g", "e8.gm", "--t", "1"], 0, ["gf2core", "verify"]),
    # harmonic loads polyring only when it builds an enumerator
    (["verify", "thm1.2-1", "-g", "type1_16.gm"], 0,
     ["designs", "gf2core", "harmonic", "verify"]),
    (["harmonic", "basis-dim", "--n", "16", "--k", "2"], 0, ["gf2core", "harmonic"]),
    (["poly", "gleason", "-g", "e8.gm"], 0, ["gf2core", "polyring"]),
], ids=["code-info", "search-fsd", "design-check-violation", "design-from-code", "verify-am",
        "verify-thm1.2-1", "harmonic-basis-dim", "poly-gleason"])
def test_a_command_executes_only_the_layers_it_runs(inputs, argv, rc, executed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _LAYERS_SCRIPT, *argv], env=env,
                         cwd=inputs, capture_output=True, text=True, check=True).stdout
    got_rc, registered, got_executed = json.loads(out)
    assert set(registered) >= {f"amdesign.{layer}" for layer in shim.LAYERS}
    assert (got_rc, got_executed) == (rc, executed)
