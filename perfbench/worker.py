"""One benchmark process: set up a workload, repeat its round, check every op.

Started by run.py with BLAS pinned to one thread.  Modes:

* ``setup`` - import bvlorentz and write the inputs, then stop; run.py
  times several of these to get the median set-up time;
* ``run`` - the same set-up, then a closed loop (one client, one op at a
  time) that repeats the round until ``--seconds`` have passed, and at
  least twice; the last round may stop part-way, except in a traced run;
* ``smoke`` - the small round of the workload, once.

The last line of stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np


#: every input runs at least twice, so each run compares digests of a repeat
MIN_ROUNDS = 2


def _run_op(cli, op) -> tuple[int, float, float, str]:
    """Run one CLI invocation in-process; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a stopped benchmark
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
    return rc, elapsed, cpu, err.getvalue()


@functools.cache
def _probe_input() -> np.ndarray:
    return np.random.default_rng(0).random(400_000)  # 3 MB


def host_probe() -> float:
    """Seconds of a fixed numpy workload that does not touch bvlorentz.

    Run after every op, it measures how fast the host is at that moment;
    run.py scales the op times by it (see README.md, "Host drift").
    """
    values = _probe_input()
    start = time.perf_counter()
    for _ in range(4):
        np.sort(values)
        np.abs(np.diff(values)).sum()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "smoke"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and op outputs")
    parser.add_argument("--trace-out", help="JSON lines file for the spans")
    args = parser.parse_args(argv)

    import benchenv

    benchenv.use_source_tree()
    from bvlorentz import cli  # import time is part of set-up

    import checks
    from workloads import WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    rnd = WORKLOADS[args.workload](args.seed, work, small=args.mode == "smoke")
    setup_end = time.monotonic()
    result = {"setup_end_monotonic": setup_end, "inputs": rnd.inputs}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []        # per op: kind, seconds, problems
    digests = {}    # op kind -> digests of its first run
    min_ops = len(rnd.ops) * (1 if args.mode == "smoke" else MIN_ROUNDS)
    begin = time.perf_counter()
    for op in itertools.cycle(rnd.ops):
        # a traced run ends on a whole round, so its per-op counts repeat exactly
        whole = len(ops) % len(rnd.ops) == 0
        if len(ops) >= min_ops and (whole or not tracer) and (
            args.mode == "smoke" or time.perf_counter() - begin >= args.seconds
        ):
            break
        shutil.rmtree(op.out, ignore_errors=True)
        Path(op.out).mkdir(parents=True)
        if tracer:
            tracer.op = len(ops)
        rc, seconds, cpu, stderr = _run_op(cli, op)
        problems = checks.check(op, rc, stderr)
        got = checks.digests(op.out)
        if digests.setdefault(op.kind, got) != got:
            problems.append("outputs differ from an earlier run of the same input")
        ops.append({"kind": op.kind, "seconds": seconds, "cpu_seconds": cpu,
                    "probe_seconds": host_probe(), "problems": problems})

    result.update(
        rounds=len(ops) / len(rnd.ops),
        ops=ops,
        digests=digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        libraries=benchenv.library_record(),
    )
    if tracer:
        tracer.uninstall()
        from tracer import summarize

        layers, coverage = summarize(tracer.spans, len(ops))
        result["layers"] = layers
        result["coverage"] = {"min": min(coverage), "median": statistics.median(coverage)} if coverage else None
        result["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
