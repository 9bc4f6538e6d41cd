"""Runs endoclass.cli.main on a list of argv lists inside one process.

    python perfbench/worker.py JOB_FILE RESULT_FILE

JOB_FILE is JSON: {"src": path of the endoclass sources, "argv": [[...], ...],
"trace": bool, "timeout": seconds per operation, "ref_interval": seconds
or null, "budget": seconds or null, "expect": [seconds per operation] or
null}.  Each operation's stdout is captured; an exception or a timeout
is recorded as the operation's error.  With "budget" the worker skips
every operation that "expect" says would end after the budget; each
result names its operation's index as "op".  With "trace" the spans of
tracer.Recorder are kept in memory and written, with the results, once at
the end.  With "ref_interval" the reference loop of refclock.py is timed
before the first operation and then between operations whenever that
many seconds have gone by since it was last timed; "refs" in the result
holds [number of results before it, loop time] pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time

import refclock


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout("operation timed out")


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import endoclass.cli

    recorder = None
    if job["trace"]:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)

    signal.signal(signal.SIGALRM, _alarm)
    results, refs = [], []
    ref_interval = job.get("ref_interval")
    last_ref = None
    start = time.perf_counter()
    for op, argv in enumerate(job["argv"]):
        if job.get("budget") is not None and \
                time.perf_counter() - start + job["expect"][op] > job["budget"]:
            continue
        if ref_interval is not None and (last_ref is None
                                         or time.perf_counter() - last_ref >= ref_interval):
            refs.append([len(results), refclock.sample()])
            last_ref = time.perf_counter()
        if recorder:
            recorder.op = op
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, job["timeout"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = endoclass.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append({"op": op, "rc": rc, "stdout": out.getvalue(),
                        "seconds": time.perf_counter() - t0, "error": error})

    with open(result_path, "w") as fh:
        json.dump({"results": results, "spans": recorder.spans if recorder else [],
                   "refs": refs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
