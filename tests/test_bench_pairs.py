"""tools/bench_pairs.py's summary of paired bench runs, fed canned result
lines; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "speed", "unit": "ops", "better": "higher", "bound": 0.1}]


def _result(wall, speed, failed=0):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "speed": {"value": speed, "unit": "ops"}}}


def test_the_summary_gives_medians_quartiles_wins_and_the_bound():
    parent = [_result(w, 100.0) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [_result(w, s) for w, s in ((0.9, 80), (2.1, 80), (2.5, 95), (3.9, 85), (4.0, 120))]
    head, wall, speed = bench_pairs.summarize(parent, change, _END_TO_END)
    assert head == "5 pairs; failed operations: parent 0/50, change 0/50; all correct: True"
    assert wall.split() == ["wall_s", "parent", "3.0000", "[2.0000,", "4.0000]", "change",
                            "2.5000", "[2.1000,", "3.9000]", "s", "-16.7%", "wins", "4/5",
                            "within", "bound", "0.25"]
    # Higher is better: 85 is 15% under 100, past a bound of 0.1.
    assert speed.split()[6:] == ["85.0000", "[80.0000,", "95.0000]", "ops", "-15.0%",
                                 "wins", "1/5", "WORSE", "than", "bound", "0.1"]


@pytest.mark.parametrize("new, verdict", [(1.25, "within"), (1.26, "WORSE")])
def test_a_lower_is_better_metric_is_worse_past_its_bound(new, verdict):
    _, wall, _ = bench_pairs.summarize([_result(1.0, 1.0)], [_result(new, 1.0, failed=1)],
                                       _END_TO_END)
    assert f"wins 0/1  {verdict}" in wall


def test_failures_and_correctness_are_counted_per_side():
    head = bench_pairs.summarize([_result(1.0, 1.0)] * 2, [_result(1.0, 1.0, failed=3)] * 2,
                                 _END_TO_END)[0]
    assert head == "2 pairs; failed operations: parent 0/20, change 6/20; all correct: False"


def test_pairs_alternate_and_each_has_its_own_seed(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "wall_s", '
                                           '"unit": "s", "better": "lower", "bound": 0.25}]}')
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return _result(1.0 if root == parent else 0.5, 1.0)

    monkeypatch.setattr(bench_pairs, "run_bench", fake)
    assert bench_pairs.main([str(parent), str(change), "--workload", "fresh",
                             "--pairs", "3", "--seconds", "2"]) == 0
    assert calls == [("parent", "fresh", 1, 2.0), ("change", "fresh", 1, 2.0),
                     ("change", "fresh", 2, 2.0), ("parent", "fresh", 2, 2.0),
                     ("parent", "fresh", 3, 2.0), ("change", "fresh", 3, 2.0)]
    out = capsys.readouterr().out
    assert "wall_s" in out and "wins 3/3  within bound 0.25" in out
    assert out.endswith("\ngain shown on: wall_s\n")


def test_a_gain_is_shown_on_every_metric_that_wins_nine_tenths_past_the_spread():
    parent = [_result(2.0, 100.0) for _ in range(10)]
    change = [_result(1.0, 120.0) for _ in range(10)]
    assert bench_pairs.shown_gains(parent, change, _END_TO_END) == "gain shown on: wall_s, speed"


# Against a steady parent at 2.0: a tie is no win, so 8 wins and 2 ties show no gain.
@pytest.mark.parametrize("walls, shown", [([1.0] * 9 + [3.0], "wall_s"),
                                          ([1.0] * 9 + [2.0], "wall_s"),
                                          ([1.0] * 8 + [3.0] * 2, "none"),
                                          ([1.0] * 8 + [2.0] * 2, "none")])
def test_a_gain_needs_nine_wins_of_ten(walls, shown):
    parent = [_result(2.0, 1.0) for _ in range(10)]
    change = [_result(w, 1.0) for w in walls]
    assert bench_pairs.shown_gains(parent, change, _END_TO_END) == f"gain shown on: {shown}"


def test_a_gain_needs_a_difference_past_the_parents_spread():
    # The parent's quartiles are 3.25 and 7.75: every pair won by 1 is no gain.
    parent = [_result(w, 1.0) for w in range(1, 11)]
    change = [_result(w - 1, 1.0) for w in range(1, 11)]
    assert bench_pairs.shown_gains(parent, change, _END_TO_END) == "gain shown on: none"
    change = [_result(w - 5, 1.0) for w in range(1, 11)]
    assert bench_pairs.shown_gains(parent, change, _END_TO_END) == "gain shown on: wall_s"
