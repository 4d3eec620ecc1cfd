"""Span tracer that wraps each layer's public functions from outside the package.

``install()`` replaces every listed function in every ``bvlorentz`` module
namespace that binds it (``box_mass`` is bound in ``grid``, ``multiscale``
and ``profiles``; ``from_sampler`` in ``grid``, ``corpus``, ``profiles`` and
the package itself), and wraps listed methods on their classes.  Nothing in
``src/`` changes.  A span records its name, start, end, parent span and op
id, plus exact work counts taken from argument or result sizes.  Spans stay
in memory until the run writes them out as JSON lines.

Self time is a span's duration minus the time its direct children cover.
The tracer's own counting (hashing a sort's input, reading a file size) is
booked to the child, so it never inflates the parent's self time.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "bvlorentz"


# -- counters: (args, kwargs, result) -> {name: count} ---------------------------

def _result_cells(args, kwargs, result):
    return {"cells": result.cell_count}


def _first_arg_cells(args, kwargs, result):
    return {"cells": args[0].cell_count}


def _region_points(args, kwargs, result):
    # method: args[0] is the region, args[1] the (points, dim) array
    return {"points": int(np.atleast_2d(args[1]).shape[0])}


def _radii_points(args, kwargs, result):
    # method: args[0] is the radial function, args[1] the radii, any shape
    return {"points": int(np.size(args[1]))}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _sort_input(args, kwargs, result):
    values = np.ascontiguousarray(args[0] if args else kwargs["values"], dtype=np.float64)
    measures = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["measures"], dtype=np.float64)
    h = hashlib.blake2b(digest_size=16)
    h.update(values.tobytes())
    h.update(measures.tobytes())
    return {"values": int(values.size), "source": h.hexdigest()}


def _cluster_cache_filled(args, kwargs):
    return {"hits": int(args[0]._cluster_cache is not None)}


def _extraction_outcome(args, kwargs, result):
    return {f"outcome.{result.terminated_by}": 1}


#: (module, attribute, counter before the call, counter after it).  The
#: attribute is a function, or Class.method for a method.
TARGETS = (
    ("grid", "from_sampler", None, _result_cells),
    ("grid", "box_mass", None, None),
    ("grid", "resample_to", None, _result_cells),
    ("grid", "Region.contains_points", None, _region_points),
    ("grid", "load_grid", None, _loaded_bytes),
    ("grid", "save_grid", None, _saved_bytes),
    ("grid", "GridFunction.value_measure_pairs", None, None),
    ("grid", "GridFunction.l1_norm", None, None),
    ("rearrange", "step_from_pairs", None, _sort_input),
    ("rearrange", "lorentz_norm", None, None),
    ("rearrange", "lebesgue_norm", None, None),
    ("bv", "total_variation", None, _first_arg_cells),
    ("bv", "total_variation_on", None, None),
    ("bv", "l1_norm_on", None, None),
    ("bv", "lattice_tv_sum", None, _first_arg_cells),
    ("bv", "compose_scalar", None, None),
    ("group", "act", None, _result_cells),
    ("group", "isometry_defect", None, None),
    ("radial", "to_grid", None, _result_cells),
    ("radial", "RadialStep.evaluate", None, _radii_points),
    ("multiscale", "DyadicSum.clusters", _cluster_cache_filled, None),
    ("multiscale", "DyadicSum.materialize", None, _result_cells),
    ("layers", "layer_energy_audit", None, None),
    ("profiles", "extract_profiles", None, _extraction_outcome),
    ("profiles", "load_sequence", None, None),
    ("profiles", "save_decomposition", None, None),
    ("profiles", "remainder_lorentz", None, None),
    ("counterexample", "dvanishing_probe", None, None),
    ("counterexample", "run_counterexample", None, None),
    ("corpus", "corpus_grids", None, None),
    ("cli", "main", None, None),
)

ROOT_SPAN = "cli.main"
EXTRACT_SPAN = "profiles.extract_profiles"
MATERIALIZE_SPAN = "multiscale.DyadicSum.materialize"
SORT_SPAN = "rearrange.step_from_pairs"
CLUSTERS_SPAN = "multiscale.DyadicSum.clusters"
#: extract_profiles materializes the last three aligned elements once per pass
TAIL_LENGTH = 3


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s, counts, error)
        self.op: int | None = None
        self._stack: list[list] = []  # open spans: [id, seconds covered by children]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        importlib.import_module(PACKAGE)
        for modname, _, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{modname}")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for modname, attr, before, after in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, name, before, after))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- recording --------------------------------------------------------------
    def _wrap(self, fn, name, before, after):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            counts = before(args, kwargs) if before else {}
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                end = clock()
                stack.pop()
                tracer._record(frame, name, start, end, parent, counts, type(err).__name__, entered)
                raise
            end = clock()
            stack.pop()
            if after:
                counts.update(after(args, kwargs, result))
            tracer._record(frame, name, start, end, parent, counts, None, entered)
            return result

        return traced

    def _record(self, frame, name, start, end, parent, counts, error, entered) -> None:
        self.spans.append(
            (frame[0], name, start, end, None if parent is None else parent[0],
             self.op, (end - start) - frame[1], counts, error)
        )
        if parent is not None:
            # the parent is covered from our entry to now, counting included
            parent[1] += time.perf_counter() - entered

    # -- output -----------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, self_s, counts, error in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                       "op": op, "self_s": self_s}
                if counts:
                    rec["counts"] = counts
                if error:
                    rec["error"] = error
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def summarize(spans: list[tuple], n_ops: int) -> tuple[dict, list[float]]:
    """Per-op means of every layer counter, and each op's child coverage.

    Coverage is the share of an op's ``cli.main`` span that its direct child
    spans cover, the tracer's counting inside them included; a low value
    means a hot layer is missing from TARGETS.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    materialize_under = defaultdict(int)
    sources_per_op = defaultdict(set)
    sorts = 0
    coverage = []
    for sid, name, start, end, parent, op, own, cnt, error in spans:
        calls[name] += 1
        self_s[name] += own
        for key, value in cnt.items():
            if key != "source":
                counts[f"{name}.{key}"] += value
        if name == SORT_SPAN:
            sorts += 1
            sources_per_op[op].add(cnt["source"])
        if name == MATERIALIZE_SPAN and parent is not None:
            materialize_under[parent] += 1
        if name == EXTRACT_SPAN and error == "NonConvergentSubsequenceError":
            counts[f"{EXTRACT_SPAN}.outcome.refused"] += 1
        if name == ROOT_SPAN and end > start:
            coverage.append(1.0 - own / (end - start))
    for sid, name, *_ in spans:
        if name == EXTRACT_SPAN:
            counts[f"{EXTRACT_SPAN}.passes"] += materialize_under[sid] // TAIL_LENGTH

    n = max(1, n_ops)
    out = {}
    for name in set(calls):
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_ms"] = self_s[name] * 1000.0 / n
    for key, value in counts.items():
        out[key] = value / n
    distinct = sum(len(s) for s in sources_per_op.values())
    out["rearrange.sorts_per_function"] = sorts / distinct if distinct else 0.0
    cluster_calls = calls.get(CLUSTERS_SPAN, 0)
    out[f"{CLUSTERS_SPAN}.hit_ratio"] = (
        counts.get(f"{CLUSTERS_SPAN}.hits", 0.0) / cluster_calls if cluster_calls else 0.0
    )
    return out, coverage


#: Per-layer metrics of a traced run: (name, unit, better).  Each is a per-op
#: mean over the run's ops, except the two ratios, which are pooled.
LAYER_METRICS = (
    ("grid.from_sampler.self_ms", "ms", "lower"),
    ("grid.from_sampler.cells", "count", "lower"),
    ("grid.box_mass.calls", "count", "lower"),
    ("grid.box_mass.self_ms", "ms", "lower"),
    ("grid.resample_to.calls", "count", "lower"),
    ("grid.resample_to.cells", "count", "lower"),
    ("grid.resample_to.self_ms", "ms", "lower"),
    ("grid.Region.contains_points.points", "count", "lower"),
    ("grid.Region.contains_points.self_ms", "ms", "lower"),
    ("grid.load_grid.bytes", "B", "lower"),
    ("grid.load_grid.self_ms", "ms", "lower"),
    ("grid.save_grid.bytes", "B", "lower"),
    ("grid.save_grid.self_ms", "ms", "lower"),
    ("grid.GridFunction.value_measure_pairs.self_ms", "ms", "lower"),
    ("grid.GridFunction.l1_norm.self_ms", "ms", "lower"),
    ("rearrange.step_from_pairs.calls", "count", "lower"),
    ("rearrange.step_from_pairs.values", "count", "lower"),
    ("rearrange.step_from_pairs.self_ms", "ms", "lower"),
    ("rearrange.lorentz_norm.calls", "count", "lower"),
    ("rearrange.lorentz_norm.self_ms", "ms", "lower"),
    ("rearrange.lebesgue_norm.self_ms", "ms", "lower"),
    ("rearrange.sorts_per_function", "1", "lower"),
    ("bv.total_variation.calls", "count", "lower"),
    ("bv.total_variation.cells", "count", "lower"),
    ("bv.total_variation.self_ms", "ms", "lower"),
    ("bv.total_variation_on.self_ms", "ms", "lower"),
    ("bv.l1_norm_on.self_ms", "ms", "lower"),
    ("bv.lattice_tv_sum.cells", "count", "lower"),
    ("bv.lattice_tv_sum.self_ms", "ms", "lower"),
    ("bv.compose_scalar.self_ms", "ms", "lower"),
    ("group.act.calls", "count", "lower"),
    ("group.act.cells", "count", "lower"),
    ("group.act.self_ms", "ms", "lower"),
    ("group.isometry_defect.self_ms", "ms", "lower"),
    ("radial.to_grid.cells", "count", "lower"),
    ("radial.to_grid.self_ms", "ms", "lower"),
    ("radial.RadialStep.evaluate.points", "count", "lower"),
    ("radial.RadialStep.evaluate.self_ms", "ms", "lower"),
    ("multiscale.DyadicSum.clusters.calls", "count", "lower"),
    ("multiscale.DyadicSum.clusters.hit_ratio", "1", "higher"),
    ("multiscale.DyadicSum.clusters.self_ms", "ms", "lower"),
    ("multiscale.DyadicSum.materialize.cells", "count", "lower"),
    ("multiscale.DyadicSum.materialize.self_ms", "ms", "lower"),
    ("layers.layer_energy_audit.self_ms", "ms", "lower"),
    ("profiles.extract_profiles.self_ms", "ms", "lower"),
    ("profiles.extract_profiles.passes", "count", "lower"),
    ("profiles.extract_profiles.outcome.epsilon", "count", "higher"),
    ("profiles.extract_profiles.outcome.max_profiles", "count", "higher"),
    ("profiles.extract_profiles.outcome.refused", "count", "lower"),
    ("profiles.load_sequence.self_ms", "ms", "lower"),
    ("profiles.save_decomposition.self_ms", "ms", "lower"),
    ("profiles.remainder_lorentz.self_ms", "ms", "lower"),
    ("counterexample.dvanishing_probe.self_ms", "ms", "lower"),
    ("counterexample.run_counterexample.self_ms", "ms", "lower"),
    ("corpus.corpus_grids.calls", "count", "lower"),
    ("corpus.corpus_grids.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    # the traced run's own throughput; ops_per_s of the untraced run minus
    # this is the tracing overhead
    ("trace.ops_per_s", "op/s", "higher"),
    # least share of an op's cli.main span covered by its direct children
    ("trace.child_coverage_min", "1", "higher"),
)
