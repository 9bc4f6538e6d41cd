"""The endoclass benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it runs the endoclass found
under ./src.  The workload (see workloads.py) is repeated in passes for
--seconds; the last passes run only the operations expected to end
within them.  Every output is checked.  The last line of stdout is one
JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:

    wall_s        wall time of one pass over the workload's operations: the
                  sum over the operations of each one's median over passes
    setup_s       median time of a fresh interpreter importing endoclass and
                  building the lookup tables of the workload's fields
    peak_rss_mb   largest resident set of any process the workload ran
    query_p50_ms  median over the operations of each one's median latency
    query_p90_ms  90th percentile (inclusive) of the same per-operation latencies

Every time is scaled to the fixed reference speed of refclock.py, because
the speed of the shared host drifts by more than the bounds: the reference
loop is timed before each operation (on queries, between operations at
most REF_INTERVAL apart) and after the last, and each operation's time is
multiplied by refclock.NOMINAL_S over the mean of the loop times just
before and after it.  The loop's own time is not part of any measured
time.  The raw pass times and the speed factors are printed on the lines
above the JSON one.

With --trace 1 each pass is run once untraced and once with the spans of
tracer.py recorded, and the metrics are the per-layer sums of one traced
pass (median over passes, times scaled as above) plus the tracing
overhead.  The spans are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 4          # set-up samples taken before each pass
REF_INTERVAL = 1.0     # seconds between reference-loop samples in a worker
OP_TIMEOUT = 60        # seconds for one operation run as its own process
QUERY_TIMEOUT = 20     # seconds for one in-process operation
WORKER_TIMEOUT = 150   # seconds for a whole in-process pass

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "query_p50_ms": "ms", "query_p90_ms": "ms"}

SETUP_CODE = ("import sys, endoclass\n"
              "from endoclass.fields import field_from_spec\n"
              "for spec in sys.argv[1:]:\n"
              "    field_from_spec(spec).tables()\n")


class Context:
    """Scratch directory and child environment shared by one run."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        # the size guard must not depend on the caller's environment
        self.env = {k: v for k, v in os.environ.items() if k != "ENDOCLASS_MAX_Q"}
        self.env["PYTHONPATH"] = str(SRC)
        self.counter = 0

    def path(self, suffix: str) -> Path:
        self.counter += 1
        return self.tmp / f"{self.counter}.{suffix}"


def spawn(ctx: Context, cmd: list[str], timeout: float):
    """Run cmd to completion; (exit code, seconds, peak RSS in MB, stdout)."""
    out_path = ctx.path("out")
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, env=ctx.env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text()
    out_path.unlink()
    return proc.returncode, seconds, usage.ru_maxrss / 1024, stdout


def run_worker(ctx: Context, argvs, trace: bool, timeout: float, ref_interval=None,
               budget=None, expect=None):
    """Run argvs in one worker process; (results, spans, peak RSS in MB,
    reference-loop times).  With ref_interval the worker times the
    reference loop between operations, at most that many seconds apart.
    With a budget in seconds it skips every operation that `expect`
    (seconds per operation) says would end after the budget."""
    job, result = ctx.path("job"), ctx.path("result")
    job.write_text(json.dumps({"src": str(SRC), "argv": argvs, "trace": trace,
                               "timeout": QUERY_TIMEOUT, "ref_interval": ref_interval,
                               "budget": budget, "expect": expect}))
    rc, seconds, rss, _ = spawn(ctx, [sys.executable, str(BENCH / "worker.py"), str(job), str(result)],
                                timeout)
    if rc != 0 or not result.exists():
        return [{"op": i, "rc": None, "stdout": "", "seconds": seconds,
                 "error": f"worker exited {rc}"} for i in range(len(argvs))], [], rss, []
    data = json.loads(result.read_text())
    job.unlink()
    result.unlink()
    return data["results"], data["spans"], rss, data["refs"]


def run_pass(ctx: Context, workload: str, ops, trace: bool, deadline=None, expect=None,
             order=None) -> dict:
    """One pass over the workload's operations, in order, or in the order of
    the indices in `order`.  With a deadline (a time.perf_counter() value)
    the pass skips every operation that `expect` (seconds per operation)
    says would end after it.  Each result names its operation's index as "op"."""
    from workloads import SUBPROCESS_WORKLOADS

    order = list(range(len(ops))) if order is None else order
    results, spans, refs, rss = [], [], [], 0.0
    if workload in SUBPROCESS_WORKLOADS:
        for i in order:
            op = ops[i]
            if deadline is not None and time.perf_counter() + expect[i] > deadline:
                continue
            refs.append([len(results), refclock.sample()])
            if trace:
                res, sp, op_rss, _ = run_worker(ctx, [op["argv"]], True, OP_TIMEOUT)
                spans.append(sp)
                results.extend(dict(r, op=i) for r in res)
            else:
                rc, seconds, op_rss, stdout = spawn(
                    ctx, [sys.executable, "-m", "endoclass", *op["argv"]], OP_TIMEOUT)
                results.append({"op": i, "rc": rc, "stdout": stdout, "seconds": seconds,
                                "error": None if rc >= 0 else f"killed by signal {-rc}"})
            rss = max(rss, op_rss)
    else:
        budget = None if deadline is None else deadline - time.perf_counter()
        res, sp, rss, refs = run_worker(ctx, [ops[i]["argv"] for i in order], trace, WORKER_TIMEOUT,
                                        REF_INTERVAL, budget,
                                        None if expect is None else [expect[i] for i in order])
        results.extend(dict(r, op=order[r["op"]]) for r in res)
        spans.append(sp)
    refs.append([len(results), refclock.sample()])
    raw = [r["seconds"] for r in results]
    times = scale_times(raw, refs)
    return {"raw": raw, "times": times, "scale": sum(times) / sum(raw) if raw else 1.0, "refs": refs,
            "results": results, "rss": rss, "spans": merge_spans(spans)}


def scale_times(seconds, refs) -> list[float]:
    """Scale each operation's time to the reference speed of refclock.py.

    refs holds [i, loop time] pairs in order, i being the number of
    operations run before the loop was timed (len(seconds) for the last
    one, timed after every operation).  An operation is scaled by NOMINAL_S
    over the mean of the loop times just before and just after it.
    """
    if refs[0][0] != 0:  # a worker that failed or ran nothing timed no loop
        refs = [[0, refs[-1][1]]] + list(refs)
    scaled, j = [], 0
    for i, t in enumerate(seconds):
        while refs[j + 1][0] <= i:
            j += 1
        scaled.append(t * 2 * refclock.NOMINAL_S / (refs[j][1] + refs[j + 1][1]))
    return scaled


def merge_spans(span_lists):
    """Concatenate per-process span lists, shifting parent indices."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            s = list(s)
            if s[3] >= 0:
                s[3] += base
            merged.append(s)
    return merged


def check_pass(ops, results, expected: dict) -> list[str]:
    """Messages for every operation whose output is wrong; `expected` maps
    json.dumps(argv) to the recorded stdout sha256 and exit code."""
    from workloads import check

    failures = []
    for res in results:
        op = ops[res["op"]]
        argv = " ".join(op["argv"])
        if res["error"] is not None or res["rc"] is None:
            failures.append(f"{argv}: {res['error']}")
            continue
        want = expected.get(json.dumps(op["argv"]))
        if want is not None:
            digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
            if digest != want["sha256"] or res["rc"] != want["exit"]:
                failures.append(f"{argv}: stdout sha256 {digest[:12]} exit {res['rc']}, "
                                f"recorded {want['sha256'][:12]} exit {want['exit']}")
                continue
        problem = check(op, res["rc"], res["stdout"])
        if problem:
            failures.append(f"{argv}: {problem}")
    return failures


def measure_setup(ctx: Context, fields) -> list[float]:
    samples = []
    for _ in range(SETUP_REPS):
        rc, seconds, _, _ = spawn(ctx, [sys.executable, "-c", SETUP_CODE, *fields], OP_TIMEOUT)
        if rc != 0:
            raise RuntimeError(f"set-up of {fields} exited {rc}")
        samples.append(seconds)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, ladder=None) -> dict:
    """Run the workload for `seconds` and return the result object."""
    import workloads
    from tracer import aggregate

    ladder = ladder or workloads.LADDER
    ops = workloads.build(workload, seed, ladder)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    with open(BENCH / "expected.json") as fh:
        expected = json.load(fh)["ops"]
    try:
        ctx = Context(tmp)
        fields = workloads.setup_fields(workload, ladder)
        setup, plain, traced, failures = [], [], [], []
        deadline = time.perf_counter() + seconds
        last = 0.0
        # a new round starts only if it is likely to end within `seconds`
        while not plain or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            # set-up samples spread over the run, not bunched at its start,
            # and scaled like the operations of a pass
            before = refclock.sample()
            raw_setup = measure_setup(ctx, fields)
            plain.append(run_pass(ctx, workload, ops, trace=False))
            setup += scale_times(raw_setup, [[0, before], [len(raw_setup), plain[-1]["refs"][0][1]]])
            failures += check_pass(ops, plain[-1]["results"], expected)
            if trace:
                traced.append(run_pass(ctx, workload, ops, trace=True))
                failures += check_pass(ops, traced[-1]["results"], expected)
            last = time.perf_counter() - t0
        if not trace:
            # the rest of the time goes to further passes that run only the
            # operations still expected to end before the deadline (as long
            # as in the first pass, plus one reference-loop sample), those
            # with the fewest timings first and, among them, the longest
            expect = [t + 2 * refclock.NOMINAL_S for t in plain[0]["raw"]]
            while time.perf_counter() + min(expect) <= deadline:
                counts = [len(t) for t in op_samples(plain)]
                order = sorted(range(len(ops)), key=lambda i: (counts[i], -expect[i]))
                extra = run_pass(ctx, workload, ops, False, deadline, expect, order)
                if not extra["results"]:
                    break
                plain.append(extra)
                failures += check_pass(ops, extra["results"], expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p["results"]) for p in passes)
    latencies = op_times(plain)
    wall = sum(latencies)
    report = {
        "workload": workload, "seed": seed, "passes": len(plain), "operations": len(ops),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "error_rate": len(failures) / attempted,
        "setup_samples": setup, "latency_samples": sum(len(p["results"]) for p in plain),
        "pass_walls": [sum(p["raw"]) for p in plain],
        "pass_scales": [p["scale"] for p in plain],
    }
    if not trace:
        report["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["rss"] for p in plain),
            # percentiles over the operations of the same per-operation
            # medians, so that one slow pass moves them no more than wall_s
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        }
        return report

    from tracer import LAYER_UNITS

    layers = [aggregate(p["spans"]) for p in traced]
    for p, layer in zip(traced, layers):
        layer["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in p["results"])
        layer["classify.iso_classes.share_of_wall"] = layer["classify.iso_classes.s"] / sum(p["raw"])
        for name in layer:
            if LAYER_UNITS[name] == "s":
                layer[name] *= p["scale"]
    # median_low keeps counts whole: it is the value of one traced pass
    metrics = {name: statistics.median_low(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = sum(op_times(traced)) / wall
    report["metrics"] = metrics
    name = f"spans-{workload}-seed{seed}.json"
    (OUT / name).write_text(json.dumps([p["spans"] for p in traced]))
    report["spans_file"] = str(Path(".bench_out") / name)
    return report


def op_samples(passes) -> list[list[float]]:
    """Each operation's scaled times over the passes that ran it; the first
    pass ran every operation."""
    per_op = [[] for _ in passes[0]["results"]]
    for p in passes:
        for res, t in zip(p["results"], p["times"]):
            per_op[res["op"]].append(t)
    return per_op


def op_times(passes) -> list[float]:
    """Each operation's median scaled time over the passes that ran it."""
    return [statistics.median(times) for times in op_samples(passes)]


def print_report(report: dict, trace: bool) -> None:
    from tracer import LAYER_UNITS

    print(f"workload {report['workload']} seed {report['seed']}: passes {report['passes']} "
          f"(the last ones run only the operations that fit before the deadline), "
          f"operations per pass {report['operations']}, closed loop, one client")
    for msg in report["failures"][:10]:
        print(f"FAILED {msg}")
    metrics = report["metrics"]
    if not trace:
        walls = " ".join(f"{w:.2f}" for w in report["pass_walls"])
        scales = " ".join(f"{s:.3f}" for s in report["pass_scales"])
        print(f"  wall_s        {metrics['wall_s']:.4f} s  (sum of per-operation medians over "
              f"{report['passes']} passes, scaled to the reference speed)")
        print(f"                raw pass walls {walls} s; speed factors {scales}")
        print(f"  setup_s       {metrics['setup_s']:.4f} s  "
              f"(median of {len(report['setup_samples'])} fresh interpreters)")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB")
        print(f"  error_rate    {report['error_rate']:.4f} ratio  "
              f"({report['failed']} of {report['attempted']} operations)")
        print(f"  query_p50_ms  {metrics['query_p50_ms']:.3f} ms  "
              f"(over {report['operations']} per-operation medians of "
              f"{report['latency_samples']} timings)")
        print(f"  query_p90_ms  {metrics['query_p90_ms']:.3f} ms")
    else:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:.6g} {LAYER_UNITS[name]}")
        print(f"  spans written to {report['spans_file']}")
    units = LAYER_UNITS if trace else UNITS
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "endoclass" / "__init__.py").is_file():
        print(f"perfbench: no endoclass sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import endoclass
    if Path(endoclass.__file__).resolve().parent != (SRC / "endoclass").resolve():
        print(f"perfbench: imported endoclass from {endoclass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    report = measure(args.workload, seed, args.seconds, bool(args.trace))
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
