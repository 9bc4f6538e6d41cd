"""Records the benchmark's reference outputs and seed-commit baseline.

    python3 perfbench/record.py

Run from the root of a checkout of the commit the benchmark is defined
against.  It writes two files next to this script:

* expected.json: for every operation of every workload at the default
  seed, the sha256 of its stdout and its exit code.  run.py compares
  every operation whose argv is recorded here, at any seed.
* baseline.json: the stage and end-to-end timings of the ROADMAP
  baseline table (verify on F9, F16, F17; the type-II1 scan on F16,
  F17, F25), each the median of three runs, beside the table's values.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run

ROADMAP = {  # seconds, from the ROADMAP baseline table (Python 3.11.7, 2 cores)
    "verify F9": {"end_to_end": 0.24, "orbit_partition": 0.23, "scan": 0.01},
    "verify F16": {"end_to_end": 3.4, "orbit_partition": 3.1, "scan": 0.21},
    "verify F17": {"end_to_end": 4.9, "orbit_partition": 4.4, "scan": 0.40},
    "enumerate F25": {"scan": 2.3},
}
REPEATS = 3


def record_expected(ctx) -> dict:
    import workloads

    ops = {}
    for workload in workloads.WORKLOADS:
        for_seed = workloads.build(workload, workloads.DEFAULT_SEED)
        result = run.run_pass(ctx, workload, for_seed, trace=False)
        for op, res in zip(for_seed, result["results"]):
            ops[json.dumps(op["argv"])] = {
                "sha256": hashlib.sha256(res["stdout"].encode()).hexdigest(),
                "exit": res["rc"]}
    return ops


def record_baseline(ctx) -> dict:
    from tracer import aggregate

    rows = {}
    for name, argv in (("verify F9", ["verify", "--field", "F9", "--format", "json"]),
                       ("verify F16", ["verify", "--field", "F16", "--format", "json"]),
                       ("verify F17", ["verify", "--field", "F17", "--format", "json"]),
                       ("enumerate F25", ["enumerate", "--type", "II1", "--field", "F25"])):
        ends, parts, scans = [], [], []
        for _ in range(REPEATS):
            ends.append(run.spawn(ctx, [sys.executable, "-m", "endoclass", *argv], run.OP_TIMEOUT)[1])
            _, spans, _, _ = run.run_worker(ctx, [argv], True, run.OP_TIMEOUT)
            layer = aggregate(spans)
            parts.append(layer["classify.iso_classes.s"])
            scans.append(layer["classify.enumerate_type_ii1.s"])
        row = {"end_to_end": statistics.median(ends), "scan": statistics.median(scans)}
        if name.startswith("verify"):
            row["orbit_partition"] = statistics.median(parts)
        rows[name] = {"measured_s": row, "roadmap_s": ROADMAP[name]}
    return rows


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=run.ROOT).stdout.strip() or "unknown"
    sys.path.insert(0, str(run.SRC))
    tmp = run.OUT / f"record-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ctx = run.Context(tmp)
        expected = {"seed_commit": commit, "ops": record_expected(ctx)}
        (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        baseline = {
            "seed_commit": commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "note": "medians of 3 runs; stage times are span times from tracer.py, "
                    "end-to-end times are `python -m endoclass` wall times",
            "rows": record_baseline(ctx),
        }
        (run.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
