"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import benchenv
import run
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def test_smoke_mode_passes_its_output_checks():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last == {"correct": True, "attempted": len(WORKLOADS), "failed": 0, "metrics": {}}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-grids", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_op_times_weigh_every_kind_the_same():
    # a run cut short leaves kind "a" with one more repeat than kinds "b" and "c"
    ops = [{"kind": k, "seconds": t}
           for k, t in (("a", 1.0), ("b", 3.0), ("c", 0.5), ("a", 1.2), ("b", 2.0), ("c", 0.7), ("a", 0.2))]
    ops_per_s, p50, kinds = run._per_kind_times(ops)
    assert kinds == 3
    assert ops_per_s == 3 / (1.0 + 2.5 + 0.6)
    assert p50 == 1.0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


def test_tracer_wraps_every_binding_and_books_self_time():
    benchenv.use_source_tree()
    from bvlorentz import bv, corpus, grid, profiles
    from bvlorentz.grid import GridFunction

    originals = (grid.from_sampler, corpus.from_sampler, profiles.from_sampler, bv.total_variation_on)
    t = tracer.Tracer()
    t.install()
    try:
        assert grid.from_sampler is corpus.from_sampler is profiles.from_sampler
        assert grid.from_sampler is not originals[0]
        t.op = 0
        u = GridFunction(2, 2, (0, 0), (4, 4), np.arange(16.0).reshape(4, 4))
        bv.bv_norm(u)
    finally:
        t.uninstall()
    assert (grid.from_sampler, corpus.from_sampler, profiles.from_sampler, bv.total_variation_on) == originals

    spans = {s[1]: s for s in t.spans}
    tv_on = spans["bv.total_variation_on"]
    region = [s for s in t.spans if s[1] == "grid.Region.contains_points"]
    assert len(region) == 2  # one under total_variation_on, one under l1_norm_on
    assert any(s[4] == tv_on[0] for s in region)
    child = next(s for s in region if s[4] == tv_on[0])
    assert tv_on[6] <= (tv_on[3] - tv_on[2]) - (child[3] - child[2]) + 1e-9
    layers, _ = tracer.summarize(t.spans, 1)
    assert layers["grid.Region.contains_points.points"] == 36 + 16  # padded box, then the box
