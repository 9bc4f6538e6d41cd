"""Smoke test of the benchmark itself, on reduced inputs (F3, F4, F5).

    python3 -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
for every workload with and without tracing, that a corrupted output is
counted as a failed operation, and how times are scaled to the reference
speed.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = dict(
    workloads.LADDER,
    verify=("F3", "F4", "F5"),
    classes=("F5",),
    scan_ii1=(("F4", "tsv"), ("F5", "json")),
    scan_full=(("F3", "III"),),
    iso=(("F3", 2, 2), ("F4", 2, 2), ("F5", 2, 2)),
    test=(("F5", "sim1"), ("F5", "sim5"), ("F4", "sim2"), ("F4", "sim3"), ("F8", "sim4")),
    rationals=2,
    f2x_sim3=2,
    bounded=4,
    reps=(("F4", "sim2"), ("F5", "sim1")),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    report = run.measure(workload, 1, 0, trace, SMALL)
    run.print_report(report, trace)
    result = last_json_line(capsys.readouterr().out)

    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_output_is_counted_in_error_rate(monkeypatch):
    real_spawn = run.spawn

    def corrupting_spawn(ctx, cmd, timeout):
        rc, seconds, rss, stdout = real_spawn(ctx, cmd, timeout)
        if cmd[-4:] == ["--field", "F4", "--format", "json"]:
            stdout = stdout.replace('"verdict": "pass"', '"verdict": "fail"')
        return rc, seconds, rss, stdout

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    report = run.measure("verify-ladder", 1, 0, False, SMALL)

    assert report["failed"] == 1, report["failures"]
    assert report["error_rate"] == 1 / report["attempted"]
    assert "verdict 'fail'" in report["failures"][0]


def test_times_are_scaled_by_the_reference_loop_around_them():
    n = run.refclock.NOMINAL_S
    # loop timed before operations 0 and 2 and after the last one
    refs = [[0, n], [2, 2 * n], [3, n]]
    assert run.scale_times([1.0, 1.0, 3.0], refs) == pytest.approx([2 / 3, 2 / 3, 2.0])
    assert run.scale_times([1.0, 4.0], [[0, n], [1, n], [2, n]]) == pytest.approx([1.0, 4.0])
    # a worker that failed timed no loop: the one after the pass is used
    assert run.scale_times([1.0], [[1, 2 * n]]) == pytest.approx([0.5])


@pytest.mark.parametrize("workload", ["verify-ladder", "queries"])
def test_a_pass_skips_the_operations_that_would_end_after_the_deadline(workload, tmp_path):
    ops = workloads.build(workload, 1, SMALL)
    expect = [1e9 if i % 2 else 0.0 for i in range(len(ops))]
    ctx = run.Context(tmp_path)
    p = run.run_pass(ctx, workload, ops, False, time.perf_counter() + 1e6, expect)

    assert [r["op"] for r in p["results"]] == list(range(0, len(ops), 2))
    assert len(p["times"]) == len(p["results"])
    assert run.check_pass(ops, p["results"], {}) == []
