"""One-shot size sweep: re-measures the baseline table and fits cost exponents.

Not part of the repeated benchmark runs; it takes a few minutes.  Run it
through ``python3 perfbench/run.py --sweep``, which pins BLAS to one thread
and writes ``.perfbench_out/sweep.json``.

Each family is timed at two or three sizes and the log-log slope of time
against size is reported: 1 means linear in the cells touched, 2 quadratic.
Cases under a second are timed three times and the median kept.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import benchenv

REPEAT_BELOW_S = 1.0
OMITTED = [
    "staircase extraction k = 8 (about 389 s in the baseline table) is left out",
]


def _time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    first = time.perf_counter() - start
    if first >= REPEAT_BELOW_S:
        return first, value
    samples = [first]
    for _ in range(2):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), value


def _exponents(points: list[tuple[float, float]]) -> dict:
    """Least-squares log-log slope over all sizes, and the slope of each size step."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(sec) for _, sec in points]
    steps = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    return {"fit": float(np.polyfit(xs, ys, 1)[0]), "steps": steps}


def main() -> int:
    benchenv.use_source_tree()
    from bvlorentz import cli
    from bvlorentz.bv import lattice_tv_sum, total_variation
    from bvlorentz.grid import GridFunction
    from bvlorentz.profiles import NonConvergentSubsequenceError, extract_profiles, staircase_sequence, tent_bump
    from bvlorentz.rearrange import LorentzIndex, lorentz_norm

    from workloads import smooth_field

    rows = []
    families: dict[str, list] = {}

    def add(family, case, size, unit, seconds, note=""):
        rows.append({"family": family, "case": case, "size": size, "unit": unit, "seconds": seconds, "note": note})
        families.setdefault(family, []).append((size, seconds))

    for k in (5, 6, 7):
        seq = staircase_sequence((k - 2, k - 1, k))
        cells = max(t.u.cell_count for s in seq for t in s.terms)

        def extract(seq=seq):
            try:
                return extract_profiles(seq, epsilon=12.0).terminated_by
            except NonConvergentSubsequenceError:
                return "refused"

        seconds, outcome = _time(extract)
        add("staircase_extraction", f"staircase extraction k={k}", cells, "cells", seconds, f"finest element; {outcome}")

    rng = np.random.default_rng(0)
    for n in (1024, 2048):
        u = GridFunction(2, 10, (-n // 2,) * 2, (n, n), smooth_field(rng, 2, n))
        seconds, _ = _time(lambda: lattice_tv_sum(u))
        add("lattice_tv_sum", f"lattice_tv_sum {n}x{n}", u.cell_count, "cells", seconds)
        seconds, _ = _time(lambda: total_variation(u))
        add("total_variation", f"total_variation {n}x{n}", u.cell_count, "cells", seconds)
        indices = [LorentzIndex(2.0, q) for q in (1.0, 1.5, 2.0, float("inf"))]
        seconds, _ = _time(lambda: [lorentz_norm(u, idx) for idx in indices])
        add("lorentz_norms", f"four Lorentz norms {n}x{n}", u.cell_count, "cells", seconds)

    for level in (7, 8):
        seconds, u = _time(lambda: tent_bump(2, level))
        add("from_sampler", f"from_sampler level {level}", u.cell_count, "cells", seconds)

    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        for count in (25, 100):
            argv = ["audit", "--count", str(count), "--dims", "1,2,3", "--out", str(Path(tmp) / "audit.json")]
            with contextlib.redirect_stdout(io.StringIO()):
                seconds, rc = _time(lambda: cli.main(argv))
            add("audit", f"audit --count {count} --dims 1,2,3", count, "count", seconds, f"exit {rc}")

    exponents = {family: _exponents(points) for family, points in families.items()}
    print(json.dumps({
        "rows": rows,
        "exponents": exponents,
        "omitted": OMITTED,
        "libraries": benchenv.library_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
