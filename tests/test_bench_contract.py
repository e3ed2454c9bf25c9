"""The names the benchmark's tracing shim rebinds, and the late lookup of
verifiers in the CLI that its per-verifier counts rely on. Reads bench/ only."""

import importlib
import importlib.util
from pathlib import Path

import amdesign.cli

_SPEC = importlib.util.spec_from_file_location(
    "bench_shim", Path(__file__).resolve().parent.parent / "bench" / "shim.py")
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
    assert [n for n in vars(amdesign.cli) if n.startswith(shim.CLI_COMMAND_PREFIX)]


def test_cli_looks_verifiers_up_when_the_command_runs(monkeypatch, capsys):
    calls = []
    real = amdesign.cli.verify_thm_1_2_fsd

    def patched(c):
        calls.append(c.n)
        return real(c)

    monkeypatch.setattr(amdesign.cli, "verify_thm_1_2_fsd", patched)
    assert amdesign.cli.run(["verify", "thm1.2-2", "-b", "fsd_16"]) == 0
    capsys.readouterr()
    assert calls == [16]
