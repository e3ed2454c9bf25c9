"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import exact
import run
import shim

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("rows, n", [
    (exact.parse_rows((ROOT / "src/amdesign/data/type1_16.gm").read_text()), 16),
    (exact.parse_rows((ROOT / "src/amdesign/data/fsd_16.gm").read_text()), 16),
    (exact.golay_rows(), 24),
])
def test_coordinate_permutation_preserves_weight_distribution(rows, n):
    rng = random.Random(7)
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [exact.permute_word(r, perm) for r in rows]
        assert permuted != rows
        assert exact.weight_distribution(permuted) == exact.weight_distribution(rows)


def test_golay_code_has_the_known_distribution():
    assert exact.weight_distribution(exact.golay_rows()) == exact.GOLAY_WEIGHTS
    assert exact.macwilliams(exact.GOLAY_WEIGHTS, 24) == exact.GOLAY_WEIGHTS


def _bindings():
    import amdesign.cli  # noqa: F401

    out = {}
    for name, mod in sys.modules.items():
        if name == "amdesign" or name.startswith("amdesign."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    import amdesign.harmonic as harmonic
    import amdesign.polyring as polyring
    for cls in (harmonic.HarmonicFunction, polyring.HomPoly):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_shim_rebinds_every_copy_and_restores_it(capsys):
    import amdesign.catalog
    import amdesign.cli
    import amdesign.gf2core
    import amdesign.verify

    before = _bindings()
    tracer = shim.Tracer()
    saved = shim.install(tracer)
    try:
        for mod in (amdesign.gf2core, amdesign.catalog, amdesign.verify, amdesign.cli):
            assert mod.weight_distribution is not before[(mod.__name__, "weight_distribution")]
        assert amdesign.cli.run(["verify", "thm1.2-2", "-b", "fsd_16"]) == 0
    finally:
        shim.restore(saved)
    capsys.readouterr()
    assert _bindings() == before
    metrics = shim.command_metrics(tracer.spans, "thm1.2-2")
    assert metrics["verify.thm1.2-2.walks"] == 8
    assert metrics["gf2core.walks"] == metrics["verify.thm1.2-2.walks"]


def test_metric_names_are_declared_and_well_formed():
    declared = _declared()
    e2e = [m["name"] for m in declared["end_to_end"]]
    layer = [m["name"] for m in declared["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == run.per_layer_names()
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in declared["workloads"]] == list(run.workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_are_the_declared_ones(trace):
    declared = _declared()
    group = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench/run.py"), "--workload", "fresh", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared[group]]
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_invariant_outputs_do_not_depend_on_the_seed(workload):
    a = run.run_workload(workload, 11, 0.0, trace=False)
    b = run.run_workload(workload, 12, 0.0, trace=False)
    assert a["failed"] == b["failed"] == 0, a["summary"]["errors"] + b["summary"]["errors"]
    assert a["summary"]["invariants"] == b["summary"]["invariants"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper16", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
