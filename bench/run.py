#!/usr/bin/env python3
"""Benchmark for the amdesign command line.

    python3 bench/run.py --workload {paper16,scale,fresh,all}
                         --seed N --seconds S --trace {0,1}

Runs the workload's commands as ``python -m amdesign.cli ...`` subprocesses
with PYTHONPATH=src, one at a time (a closed loop with one client), checks
every output, and prints the metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with times calibrated for the host's speed
(see HostSpeed); with --trace 1 every command also runs once more through
bench/shim.py, and the metrics are the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import shim
import workloads
from workloads import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WARMUP = ["harmonic", "basis-dim", "--n", "16", "--k", "2"]
STARTUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150.0
# The host's CPU speed shifts by up to 2x from one second to the next, and the
# share of slow time differs from run to run (see README). End-to-end times
# are therefore calibrated: multiplied by REFERENCE_PROBE_S over the mean time
# of a fixed probe loop that runs between commands, about once per
# PROBE_EVERY_S of command time. REFERENCE_PROBE_S is the probe's time in the
# fast state of the host where the benchmark was written.
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0027
# The number of passes in a run is --seconds over this nominal pass time, so
# a run does the same work, and reports the same percentile, on any host.
NOMINAL_PASS_S = {"paper16": 5.0, "scale": 6.0, "fresh": 1.5}
TAIL_LADDER = (99, 95, 90, 80, 75, 60, 50)

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {"cli.startup_ms": "ms", "cli.import_ms": "ms", "cli.overhead_ms": "ms",
                   "host.probe_ms": "ms",
                   "trace.overhead_ratio": "ratio", "src.lines": "lines"}


def per_layer_names() -> list[str]:
    names = ["cli.startup_ms", "cli.import_ms", "cli.overhead_ms",
             "gf2core.walks", "gf2core.words_visited", "gf2core.self_s"]
    for key in workloads.VERIFY_KEYS:
        names += [f"verify.{key}.walks", f"verify.{key}.s"]
    names += ["designs.scans", "designs.subset_tests", "designs.self_s",
              "harmonic.basis_builds", "harmonic.basis_s", "harmonic.tilde_calls",
              "harmonic.self_s", "ratlin.eliminations", "ratlin.cells", "ratlin.self_s",
              "polyring.sum_diff_calls", "polyring.self_s",
              "catalog.candidates", "catalog.self_s", "trace.overhead_ratio", "src.lines",
              "host.probe_ms"]
    return names


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _probe_loop() -> None:
    """Fixed pure-Python work of the kind amdesign does: bit masks, tuple
    hashing and Fraction sums."""
    acc = Fraction(0)
    seen = {}
    for z in combinations(range(1, 15), 4):
        mask = 0
        for p in z:
            mask |= 1 << p
        seen[z] = mask.bit_count()
        acc += Fraction(mask & 255, 7)


class HostSpeed:
    """Probe timings taken between commands."""

    def __init__(self):
        self.samples: list[float] = []
        _probe_loop()

    def sample(self, command_s: float) -> None:
        for _ in range(max(2, round(command_s / PROBE_EVERY_S))):
            start = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Calibrated time = measured time * factor."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


class Runner:
    """Runs commands one at a time through bench/launch.py and judges their
    outputs."""

    def __init__(self):
        self.errors: list[str] = []
        self.speed = HostSpeed()
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=COMMAND_TIMEOUT_S)
        else:
            # Stops the launcher and the command it may be waiting on.
            os.killpg(self.launcher.pid, signal.SIGKILL)
            self.launcher.wait()

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, int, int, str]:
        """Run to exit; returns (seconds, exit code, max RSS in KiB, stderr)."""
        err_path = stdout.with_name("stderr.txt")
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(err_path),
                   "cwd": str(ROOT), "timeout": COMMAND_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        r = json.loads(reply)
        return r["seconds"], r["rc"], r["maxrss_kib"], err_path.read_text()

    def run(self, cmd: workloads.Command, workdir: Path, spans: Path | None = None):
        """Returns (seconds, max RSS KiB, invariant or None when the command failed)."""
        if spans is None:
            prog = [sys.executable, "-m", "amdesign.cli"]
        else:
            prog = [sys.executable, str(HERE / "shim.py"), str(spans), "--"]
        out_path = cmd.stdout_path or workdir / "stdout.txt"
        seconds, rc, rss, err = self.spawn(prog + cmd.argv, out_path)
        self.speed.sample(seconds)
        label = " ".join(cmd.argv)
        try:
            if "Traceback" in err:
                raise CheckError("traceback on stderr")
            if rc != cmd.expect_rc:
                raise CheckError(f"exit code {rc}, expected {cmd.expect_rc}")
            return seconds, rss, cmd.check(out_path.read_text(), err)
        except (CheckError, LookupError, TypeError, ValueError) as exc:
            self.errors.append(f"{label}: {exc}")
            return seconds, rss, None


def set_up(name: str, seed: int, workdir: Path, runner: Runner):
    """Writes the inputs and reference answers, and runs one warm-up command.
    Returns (seconds, workdir, next_pass)."""
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    next_pass = workloads.BUILDERS[name](workdir, ROOT, random.Random(f"{name}:{seed}"))
    warm_s, rc, _, err = runner.spawn([sys.executable, "-m", "amdesign.cli", *WARMUP],
                                      workdir / "stdout.txt")
    if rc != 0:
        raise RuntimeError(f"warm-up command failed with exit code {rc}: {err.strip()}")
    seconds = time.perf_counter() - start
    runner.speed.sample(warm_s)
    return seconds, workdir, next_pass


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest percentile in TAIL_LADDER with at least ten samples above
    it; the maximum when there are too few samples for any."""
    n = len(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if n > 1 else []
    for pct in TAIL_LADDER:
        if cuts and n - sum(1 for x in latencies if x <= cuts[pct - 1]) >= 10:
            return pct, cuts[pct - 1]
    return 100, max(latencies)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        with Runner() as runner:
            return _run_workload(name, seed, seconds, trace, run_dir, runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it


def _run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
                  runner: Runner) -> dict:
    setup_s, workdir, next_pass = set_up(name, seed, run_dir / "0", runner)
    setups = [setup_s]
    passes = max(1, round(seconds / NOMINAL_PASS_S[name] / (2 if trace else 1)))

    attempted = 0
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    layer_passes: list[dict] = []
    rss = 0
    invariants = None
    startup = []
    if trace:
        for _ in range(STARTUP_SAMPLES):
            startup.append(runner.spawn([sys.executable, "-m", "amdesign.cli", *WARMUP],
                                        workdir / "stdout.txt")[0])
    for _ in range(passes):
        commands = next_pass()
        pass_invariants, times = [], []
        for cmd in commands:
            secs, kib, inv = runner.run(cmd, workdir)
            attempted += 1
            times.append(secs)
            rss = max(rss, kib)
            pass_invariants.append(inv)
        untraced.append(times)
        if invariants is None:
            invariants = pass_invariants
        if trace:
            times, records = [], []
            for i, cmd in enumerate(commands):
                spans_path = workdir / f"spans{i}.json"
                secs, _, inv = runner.run(cmd, workdir, spans_path)
                attempted += 1
                times.append(secs)
                if inv is not None:
                    head, spans = shim.read_spans(spans_path)
                    records.append((cmd.key, secs, head, spans))
            traced.append(times)
            layer_passes.append(pass_layers(records))
        # Set-up (inputs, reference answers, one warm-up command) is repeated
        # after every pass in a throwaway directory, so that its median spans
        # the same stretch of host time as the passes.
        setup_s, extra, _ = set_up(name, seed, run_dir / str(len(setups)), runner)
        setups.append(setup_s)
        shutil.rmtree(extra)

    latencies = [t for times in untraced for t in times]
    wall = statistics.median(sum(times) for times in untraced)
    pct, tail_s = tail(latencies)
    summary = {
        "workload": name, "seed": seed, "passes": passes, "commands": len(latencies),
        "tail_pct": pct, "tail_beyond": sum(1 for x in latencies if x > tail_s),
        "invariants": hashlib.sha256(json.dumps(invariants).encode()).hexdigest(),
        "errors": runner.errors,
        "probe_ms": statistics.fmean(runner.speed.samples) * 1000.0,
        "probes": len(runner.speed.samples),
    }
    if trace:
        metrics = {}
        for key in layer_passes[0]:
            values = [p[key] for p in layer_passes]
            # A count stays a count: the lower median is one pass's value.
            ints = all(isinstance(v, int) for v in values)
            metrics[key] = (statistics.median_low if ints else statistics.median)(values)
        metrics["cli.startup_ms"] = statistics.median(startup) * 1000.0
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(t) for t in traced) / wall)
        metrics["src.lines"] = src_lines()
        metrics["host.probe_ms"] = summary["probe_ms"]
        names = per_layer_names()
    else:
        f = runner.speed.factor()
        metrics = {
            "wall_s": wall * f,
            # Each command is first reduced to its median over the passes, so
            # that noise reordering the samples of two commands of similar cost
            # does not move the statistic from one command to the other.
            "op_p50_ms": statistics.median(
                statistics.median(col) for col in zip(*untraced)) * 1000.0 * f,
            "op_tail_ms": tail_s * 1000.0 * f,
            "peak_rss_mb": rss / 1024.0,
            "setup_s": statistics.median(setups) * f,
        }
        names = list(END_TO_END)
    failed = len(runner.errors)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names},
        "summary": summary,
    }


def pass_layers(records) -> dict:
    """Per-layer metrics of one traced pass: counts and self times summed
    over its commands, verify.* from the keyed commands, CLI costs as the
    median over commands."""
    out = shim.command_metrics([], None)
    del out["dispatch_s"]
    for key in workloads.VERIFY_KEYS:
        out[f"verify.{key}.walks"], out[f"verify.{key}.s"] = 0, 0.0
    imports, overheads = [], []
    for key, wall, head, spans in records:
        per = shim.command_metrics(spans, key)
        dispatch = per.pop("dispatch_s")
        for k, v in per.items():
            out[k] = v if k.startswith("verify.") else out[k] + v
        imports.append(head["import_s"])
        overheads.append(wall - dispatch - head["shim_s"])
    # Both read 0 only when every traced command of the pass failed.
    out["cli.import_ms"] = statistics.median(imports or [0.0]) * 1000.0
    out["cli.overhead_ms"] = statistics.median(overheads or [0.0]) * 1000.0
    return out


def report(result: dict) -> None:
    s = result["summary"]
    print(f"workload {s['workload']}  seed {s['seed']}  passes {s['passes']}  "
          f"commands {s['commands']}  invariants {s['invariants'][:16]}")
    print(f"  host probe {s['probe_ms']:.3f} ms mean of {s['probes']}; end-to-end times are "
          f"scaled by {REFERENCE_PROBE_S * 1000:.3f} ms / {s['probe_ms']:.3f} ms")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{s['tail_pct']} of {s['commands']} samples, {s['tail_beyond']} beyond)"
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.4f}"
        print(f"  {name:28s} {value:>14} {m['unit']}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':28s} {rate:14.4f} ({result['failed']}/{result['attempted']})")
    for line in s["errors"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amdesign" / "cli.py").is_file():
        print(f"error: no amdesign source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    final = results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
