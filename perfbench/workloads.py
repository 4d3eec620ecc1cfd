"""The two workloads: inputs made from the seed, and one round of ops.

A workload's set-up writes its inputs under a work directory and returns a
*round*: the ordered list of CLI invocations the closed loop repeats.  Each
op has a *kind*, one per distinct input, and the metrics are taken per kind
first, so every kind weighs the same however many of its ops fit in a run.

A workload is made of parts, one per CLI subcommand; their ops are mixed in
a seeded order.  Why each workload exists (see README.md for the layer
table):

* ``small-grids`` - the ``audit`` part pushes many small grids through
  every invariant suite (per-cell sampling, variation, group action and
  re-sorts on tiny functions); the ``decompose`` part is the only one that
  reaches ``profiles`` and ``multiscale`` (cube search, window
  materialization, sequence files).  Both are bound by Python-level loops.
* ``large-grids`` - the ``norms`` part handles one large function per op (a
  4M-value sort, TV over the whole grid, region passes and a 32 MB read),
  the opposite use of ``rearrange`` and ``bv`` from ``audit``; the
  ``counterexample`` part is the paper's headline family, the mass-capture
  probe through ``RadialStep.evaluate``.  Both are bound by numpy passes
  over large arrays.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its outputs must show."""

    kind: str       # one kind per distinct input; repeats must give equal digests
    argv: tuple     # arguments of bvlorentz.cli.main
    out: str        # directory the op writes; emptied before every run of the op
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Round:
    ops: tuple
    inputs: dict    # op kind -> size record of its input


# -- small-grids: the audit part ----------------------------------------------

#: Corpus seeds of one round.  The cost of one audit ranges from 0.7 s to 7 s
#: with its corpus seed (the 3-D bump width sets the from_sampler cell
#: count), so a corpus drawn from the benchmark seed would move ops_per_s
#: several-fold between seeds.  The corpus is therefore fixed (7 is the CLI
#: default) and the benchmark seed orders the round and picks the op that
#: carries the negative control.
AUDIT_POOL = (7, 8, 9, 10, 11)


def audit_round(seed: int, work: Path, small: bool = False) -> Round:
    rng = np.random.default_rng(seed)
    out = work / "out-audit"
    if small:
        argv = ("audit", "--seed", "7", "--count", "2", "--dims", "1,2", "--out", str(out / "audit.json"))
        op = Op("audit-small", argv, str(out), {"exit": 0, "failed_suites": []})
        return Round((op,), {"audit-small": {"corpus_seed": 7, "count": 2, "dims": [1, 2]}})
    order = [int(s) for s in rng.permutation(AUDIT_POOL)]
    negative = int(rng.integers(len(order)))
    ops = []
    inputs = {}
    for i, s in enumerate(order):
        argv = ["audit", "--seed", str(s), "--count", "5", "--dims", "1,2,3"]
        kind = f"audit-seed{s}"
        expect = {"exit": 0, "failed_suites": []}
        if i == negative:
            argv += ["--negative-control", "broken-chi"]
            kind += "-broken-chi"
            expect = {"exit": 1, "failed_suites": ["chain_rule"]}
        odir = out / kind
        argv += ["--out", str(odir / "audit.json")]
        ops.append(Op(kind, tuple(argv), str(odir), expect))
        inputs[kind] = {"corpus_seed": s, "count": 5, "dims": [1, 2, 3]}
    return Round(tuple(ops), inputs)


# -- small-grids: the decompose part ---------------------------------------------

def _scaled(seq, c: float):
    """Every term's grid multiplied by c; the planted outcome does not depend on c."""
    from bvlorentz.grid import GridFunction
    from bvlorentz.multiscale import DyadicSum, Term

    out = []
    for s in seq:
        terms = tuple(
            Term(t.coeff, t.g, GridFunction(t.u.dim, t.u.level, t.u.origin, t.u.extents, t.u.values * c))
            for t in s.terms
        )
        out.append(DyadicSum(s.dim, terms))
    return out


def _sequence_cells(seq) -> dict:
    per_element = [sum(t.u.cell_count for t in s.terms) for s in seq]
    return {"elements": len(seq), "cells": sum(per_element), "finest_element_cells": max(per_element)}


def decompose_round(seed: int, work: Path, small: bool = False) -> Round:
    from bvlorentz import profiles as prof

    rng = np.random.default_rng(seed)
    # heights of the planted bumps, in 1/64 steps so the products stay short
    scale = [float(x) / 64.0 for x in rng.integers(48, 81, 3)]
    planted = {"exit": 0, "profiles": 2, "terminated_by": "epsilon"}
    refusal = {"exit": 1, "refused": True, "cauchy_tol": 0.05}
    if small:
        seqs = {"planted-L3": _scaled(prof.two_profile_sequence(range(1, 9), level=3), scale[0])}
        kinds = [("planted-L3", "planted-L3", "0.1", planted)]
    else:
        seqs = {
            "planted-L6": _scaled(prof.two_profile_sequence(range(1, 9), level=6), scale[0]),
            "planted-L5": _scaled(prof.two_profile_sequence(range(1, 9), level=5), scale[1]),
            # the staircase is not rescaled: epsilon 12 equals the variation
            # of its n = 4 element, so scaling it up would cross the threshold
            "staircase": prof.staircase_sequence((4, 5, 6)),
            "planted-near": _scaled(prof.two_profile_sequence(range(1, 5)), scale[2]),
        }
        kinds = [
            ("planted-L6", "planted-L6", "0.1", planted),
            ("planted-L5", "planted-L5", "0.1", planted),
            ("staircase-eps12", "staircase", "12", {"exit": 0, "profiles": 0, "terminated_by": "epsilon"}),
            ("staircase-eps2", "staircase", "2", refusal),
            ("planted-near-refused", "planted-near", "0.1", refusal),
        ]
    inputs = {}
    for name, seq in seqs.items():
        prof.save_sequence(str(work / "seq" / name), seq)
    ops = []
    for kind, seq_name, eps, expect in kinds:
        odir = work / "out-decompose" / kind
        argv = ("decompose", "--input", str(work / "seq" / seq_name), "--epsilon", eps, "--out-dir", str(odir))
        ops.append(Op(kind, argv, str(odir), expect))
        inputs[kind] = _sequence_cells(seqs[seq_name])
    order = rng.permutation(len(ops))
    return Round(tuple(ops[i] for i in order), inputs)


# -- large-grids: the norms part -------------------------------------------------

def smooth_field(rng, dim: int, n: int) -> np.ndarray:
    """Sum of six Gaussians on (-1, 1)^dim, rounded to 2^-19 (1.5 to 1.7 million values at 2048^2)."""
    axis = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    mesh = np.meshgrid(*([axis] * dim), indexing="ij", sparse=True)
    f = np.zeros((n,) * dim)
    for _ in range(6):
        c = rng.uniform(-0.6, 0.6, dim)
        w = rng.uniform(0.15, 0.5)
        a = rng.uniform(0.5, 2.0)
        r2 = sum((m - ci) ** 2 for m, ci in zip(mesh, c))
        f += a * np.exp(-r2 / (2.0 * w * w))
    return np.round(f * 2.0**19) / 2.0**19


def _sparse_field(rng, n: int, blocks: int, side: int) -> np.ndarray:
    """Zero except ``blocks`` seeded squares of ``side`` cells (about 1% support)."""
    f = np.zeros((n, n))
    for _ in range(blocks):
        i, j = rng.integers(0, n - side, 2)
        f[i : i + side, j : j + side] = rng.uniform(0.5, 3.0)
    return f


def _lebesgue(values: np.ndarray, cell_measure: float, p: float) -> float:
    """Plain numpy L^p norm, independent of the rearrangement code."""
    return float((np.sum(np.abs(values) ** p) * cell_measure) ** (1.0 / p))


def norms_round(seed: int, work: Path, small: bool = False) -> Round:
    from bvlorentz.grid import GridFunction, save_grid
    from bvlorentz.radial import staircase, to_grid

    rng = np.random.default_rng(seed)
    if small:
        n2, n3, lv2, lv3 = 64, 16, 5, 3
    else:
        n2, n3, lv2, lv3 = 2048, 128, 10, 6
    side = max(1, int(round(n2 * 0.0225)))
    grids = {
        "smooth2d": GridFunction(2, lv2, (-n2 // 2,) * 2, (n2, n2), smooth_field(rng, 2, n2)),
        "staircase2d": to_grid(staircase(2, int(rng.integers(6, 10))), level=lv2),
        "smooth3d": GridFunction(3, lv3, (-n3 // 2,) * 3, (n3,) * 3, smooth_field(rng, 3, n3)),
        "sparse2d": GridFunction(2, lv2, (-n2 // 2,) * 2, (n2, n2), _sparse_field(rng, n2, 20, side)),
    }
    if small:
        grids = {"smooth2d": grids["smooth2d"]}
    ops = []
    inputs = {}
    os.makedirs(work / "grids", exist_ok=True)
    for name, u in grids.items():
        path = work / "grids" / f"{name}.grid"
        save_grid(u, path)
        # 2-D: L^{2,2} = L^2; 3-D: L^{3/2,3/2} = L^{3/2}
        key, q_key, p = ("p2", "q2", 2.0) if u.dim == 2 else ("pcrit", "q1.5", 1.5)
        odir = work / "out-norms" / name
        expect = {
            "exit": 0,
            "cells": u.cell_count,
            "identity": [key, q_key],
            "lebesgue": _lebesgue(u.values, u.cell_measure, p),
        }
        argv = ("norms", "--input", str(path), "--out", str(odir / "norms.json"))
        ops.append(Op(name, argv, str(odir), expect))
        inputs[name] = {
            "dim": u.dim,
            "cells": u.cell_count,
            "support_cells": int(np.count_nonzero(u.values)),
            "bytes": path.stat().st_size,
        }
    order = rng.permutation(len(ops))
    return Round(tuple(ops[i] for i in order), inputs)


# -- large-grids: the counterexample part -------------------------------------------

def counterexample_round(seed: int, work: Path, small: bool = False) -> Round:
    rng = np.random.default_rng(seed)
    # two second indices strictly between 1 and 2 join the fixed 1 and 2
    mid = sorted(float(q) for q in rng.choice(np.arange(110, 195, 5), 2, replace=False) / 100.0)
    q_list = ",".join(f"{q:g}" for q in [1.0] + mid + [2.0])
    cases = [(2, 6, 5)] if small else [(2, 12, 9), (3, 12, 6)]
    ops = []
    inputs = {}
    for dim, n_max, quad in cases:
        kind = f"dim{dim}-quad{quad}"
        odir = work / "out-counterexample" / kind
        argv = (
            "counterexample", "--dim", str(dim), "--n-max", str(n_max),
            "--quad-level", str(quad), "--q-list", q_list, "--out-dir", str(odir),
        )
        ops.append(Op(kind, argv, str(odir), {"exit": 0}))
        inputs[kind] = {
            "dim": dim,
            "n_max": n_max,
            "q_list": q_list,
            # n_max staircases times n_max aligned elements, one quadrature each
            "probe_points": n_max * n_max * (2**quad) ** dim,
        }
    if rng.integers(2):
        ops.reverse()
    return Round(tuple(ops), inputs)


def _mixed(*parts):
    """A workload whose round holds every part's round, in one seeded order."""

    def build(seed: int, work: Path, small: bool = False) -> Round:
        rounds = [part(seed, work, small) for part in parts]
        ops = [op for r in rounds for op in r.ops]
        inputs = {kind: size for r in rounds for kind, size in r.inputs.items()}
        order = np.random.default_rng(seed).permutation(len(ops))
        return Round(tuple(ops[i] for i in order), inputs)

    return build


WORKLOADS = {
    "small-grids": _mixed(audit_round, decompose_round),
    "large-grids": _mixed(norms_round, counterexample_round),
}
