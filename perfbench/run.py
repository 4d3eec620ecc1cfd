"""Benchmark of the bvlorentz command line: two workloads, end to end and per layer.

    python3 perfbench/run.py --workload small-grids --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload large-grids --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --sweep

A run drives ``bvlorentz.cli.main`` in-process in a fresh worker process
with BLAS pinned to one thread: one client, one op at a time, repeating
the workload's round of ops until ``--seconds`` have passed.  Every op's
outputs are checked.  Times are taken per op kind first (the median of its
repeats), so every kind weighs the same however many of its ops fit, and
are scaled by a host-speed probe run after every op.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; results, digests and spans
are also kept under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchenv
from benchenv import HERE, OUT, ROOT, WORK
from workloads import WORKLOADS

#: set-up is timed this many times per run, each in a fresh process
SETUP_SAMPLES = 3
#: a run must end within 180 s; leave room for the parent's own work
DEADLINE_S = 170.0
#: op_p90_ms is reported only from this many ops on
P90_MIN_OPS = 100
#: Host-probe time the reported times are scaled to, about its median on the
#: 2-vCPU Intel Xeon (2.1 GHz) the benchmark was written on.  Only ratios of
#: runs matter, so the value merely keeps the figures near seconds as timed.
PROBE_REFERENCE_S = 0.020


class BenchError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, work: Path, timeout: float, *, seconds=0.0,
            trace=0, trace_out=None) -> tuple[dict, float]:
    """Run worker.py; returns its JSON and the seconds from spawn to end of set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=benchenv.pinned_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} did not finish in {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    doc = json.loads(lines[-1])
    return doc, doc["setup_end_monotonic"] - spawned


def _remove(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # missing, or another run still uses it
        pass


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(doc: dict, ops_per_s: float) -> dict:
    from tracer import LAYER_METRICS

    layers = doc.get("layers", {})
    coverage = doc.get("coverage") or {"min": 0.0}
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.ops_per_s":
            value = ops_per_s
        elif name == "trace.child_coverage_min":
            value = coverage["min"]
        else:
            value = layers.get(name, 0.0)
        metrics[name] = _metric(value, unit)
    return metrics


def _per_kind_times(ops: list) -> tuple[float, float, int]:
    """ops_per_s, the median op time and the number of op kinds, as timed.

    Each kind's time is the median of its repeats, so every kind weighs the
    same and a round cut short at the end of the run does not tilt the mix.
    ops_per_s is the number of kinds over the sum of their times, the rate
    of one round at typical speed; the median op time is the median of them.
    """
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["seconds"])
    typical = [statistics.median(t) for t in by_kind.values()]
    return len(typical) / sum(typical), statistics.median(typical), len(typical)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    run_dir = WORK / f"{workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{workload}-seed{seed}.jsonl" if trace else None
    setup_samples = []
    try:
        if not trace:
            for k in range(SETUP_SAMPLES - 1):
                work = run_dir / f"setup{k}"
                _, spent = _worker("setup", workload, seed, work, deadline - time.monotonic())
                setup_samples.append(spent)
                shutil.rmtree(work, ignore_errors=True)
        doc, spent = _worker("run", workload, seed, run_dir / "run", deadline - time.monotonic(),
                             seconds=seconds, trace=trace, trace_out=trace_out)
        setup_samples.append(spent)
    finally:
        _remove(run_dir)

    times = [op["seconds"] for op in doc["ops"]]
    failures = [op for op in doc["ops"] if op["problems"]]
    ops_per_s, op_p50_s, kinds = _per_kind_times(doc["ops"])
    setup_s = statistics.median(setup_samples)
    # The host's speed drifts over minutes; every reported time is scaled by
    # the probe run after each op, to what it would be at the reference speed.
    slowdown = statistics.median(op["probe_seconds"] for op in doc["ops"]) / PROBE_REFERENCE_S
    if trace:
        metrics = _layer_metrics(doc, ops_per_s * slowdown)
    else:
        metrics = {
            "ops_per_s": _metric(ops_per_s * slowdown, "op/s"),
            "op_p50_ms": _metric(op_p50_s * 1000.0 / slowdown, "ms"),
            "setup_s": _metric(setup_s / slowdown, "s"),
            "peak_rss_mb": _metric(doc["peak_rss_mb"], "MiB"),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": doc["rounds"],
        "op_kinds": kinds,
        "host_slowdown": slowdown,
        "as_timed": {"ops_per_s": ops_per_s, "op_p50_ms": op_p50_s * 1000.0, "setup_s": setup_s},
        "ops": doc["ops"],
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        "digests": doc["digests"],
        "coverage": doc.get("coverage"),
        "spans": doc.get("spans"),
        "environment": {**benchenv.host_record(), **doc["libraries"], "workload_seed": seed,
                        "inputs": doc["inputs"]},
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"record": record, "times": times, "failures": failures}


def _report(result: dict) -> None:
    rec = result["record"]
    times = result["times"]
    n = len(times)
    print(f"workload {rec['workload']}, seed {rec['seed']}: {n} ops in {rec['rounds']:.2f} rounds, "
          f"{len(result['failures'])} failed")
    print(f"  host slowdown {rec['host_slowdown']:.4f} (median probe / {PROBE_REFERENCE_S} s); "
          "times below are scaled by it, as timed: "
          + ", ".join(f"{k} {v:.6g}" for k, v in rec["as_timed"].items()))
    for name, m in rec["metrics"].items():
        note = ""
        if name == "op_p50_ms":
            note = f"  (median over {rec['op_kinds']} op kinds of each kind's median, from {n} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(rec['setup_samples_s'])} set-ups)"
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    if not rec["trace"]:
        if n >= P90_MIN_OPS:
            ordered = sorted(times)
            p90 = ordered[min(n - 1, int(0.9 * n))] * 1000.0
            print(f"  {'op_p90_ms':<48} {p90:>14.6g} ms")
        else:
            print(f"  op_p90_ms: not reported, {n} ops < {P90_MIN_OPS}")
        print(f"  fail_ratio: {len(result['failures'])}/{n}")
    else:
        cov = rec["coverage"]
        if cov and cov["min"] < 0.9:
            print(f"  warning: direct children of cli.main cover only {cov['min']:.1%} of an op")
    for op in result["failures"]:
        print(f"  FAILED {op['kind']}: {'; '.join(op['problems'])}")
    print("environment: " + json.dumps(rec["environment"], sort_keys=True))


def smoke() -> int:
    failed = 0
    run_dir = WORK / f"smoke-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    try:
        for workload in WORKLOADS:
            doc, spent = _worker("smoke", workload, 1, run_dir / workload, deadline - time.monotonic())
            problems = [p for op in doc["ops"] for p in op["problems"]]
            failed += bool(problems)
            secs = sum(op["seconds"] for op in doc["ops"])
            print(f"{workload:<22} {'ok' if not problems else 'FAILED'}  op {secs:.2f} s, set-up {spent:.2f} s"
                  + ("".join(f"\n  {p}" for p in problems)))
    finally:
        _remove(run_dir)
    print(json.dumps({"correct": failed == 0, "attempted": len(WORKLOADS), "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def sweep() -> int:
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "sweep.py")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=benchenv.pinned_env(), cwd=ROOT, text=True,
                          timeout=1800)
    if proc.returncode != 0:
        print(f"error: sweep exited with {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["environment"] = {**benchenv.host_record(), **doc.pop("libraries")}
    (OUT / "sweep.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for row in doc["rows"]:
        print(f"{row['case']:<44} {row['size']:>10} {row['unit']:<6} {row['seconds']:>9.3f} s  {row.get('note', '')}")
    for fam, exp in doc["exponents"].items():
        steps = ", ".join(f"{x:.2f}" for x in exp["steps"])
        print(f"exponent {fam:<36} {exp['fit']:.2f}  (per size step: {steps})")
    for item in doc["omitted"]:
        print(f"omitted: {item}")
    print(f"written to {OUT / 'sweep.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small op per workload, checked")
    parser.add_argument("--sweep", action="store_true", help="one-shot size sweep of the baseline table")
    args = parser.parse_args(argv)

    if not (benchenv.SRC / "bvlorentz" / "cli.py").is_file():
        print(f"error: no bvlorentz sources under {benchenv.SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.sweep:
            return sweep()
        if not args.workload:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _report(result)
    rec = result["record"]
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": len(result["times"]),
        "failed": len(result["failures"]),
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
