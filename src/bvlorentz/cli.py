"""Command line front end.

Four subcommands: ``norms`` prints the norm table of a saved grid,
``counterexample`` reproduces the concentration family report,
``decompose`` runs profile extraction on a saved sequence directory, and
``audit`` sweeps the invariant suites over a seeded corpus.

Every command accepts ``--config FILE`` (JSON, keys matching the long flag
names with dashes turned into underscores); explicit flags override the
config, which overrides built-in defaults.  Outputs are byte-identical
across runs: keys sorted, no timestamps, floats through the JSON shortest
representation.  Exit codes: 0 success, 1 failed validation or audit,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bv
from . import counterexample as cx
from . import layers
from . import profiles as prof
from .corpus import corpus_elements, corpus_grids, corpus_steps
from .grid import GridFunction, MemoryGuardError, load_grid, support_measure
from .group import isometry_defect
from .rearrange import (
    LorentzIndex,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
    lorentz_norm_weak,
    step_from_pairs,
)

SCHEMA_VERSION = 1

_DEFAULTS: dict[str, dict] = {
    "norms": {"input": None, "q_list": "1,1.5,2,inf", "out": None},
    "counterexample": {
        "dim": 2,
        "n_max": 12,
        "q_list": "1,1.2,1.5,2",
        "quad_level": 9,
        "probe": True,
        "out_dir": ".",
    },
    "decompose": {
        "input": None,
        "epsilon": None,
        "max_profiles": 8,
        "scale_window": 10,
        "window_radius": 4,
        "cauchy_tol": 0.05,
        "stride": 1,
        "profile_level": None,
        "delta": 0.1,
        "separation_floor": 1.0,
        "out_dir": ".",
    },
    "audit": {
        "seed": 7,
        "dims": "2",
        "count": 25,
        "negative_control": "none",
        "out": None,
    },
}


class _UsageError(Exception):
    pass


def _merge(args: argparse.Namespace, command: str) -> dict:
    cfg = dict(_DEFAULTS[command])
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        bad = sorted(set(loaded) - set(cfg))
        if bad:
            raise _UsageError(f"unknown config keys for {command}: {', '.join(bad)}")
        cfg.update(loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_floats(text: str) -> list[float]:
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(float("inf") if tok in ("inf", "Inf") else float(tok))
    if not out:
        raise _UsageError(f"empty number list: {text!r}")
    return out


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# -- norms ---------------------------------------------------------------------

def cmd_norms(cfg: dict) -> int:
    if not cfg["input"]:
        raise _UsageError("norms: --input is required")
    u = load_grid(cfg["input"])
    vals, meas = u.value_measure_pairs()
    step = step_from_pairs(vals, meas)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": os.path.basename(str(cfg["input"])),
        "dim": u.dim,
        "level": u.level,
        "cells": u.cell_count,
        "support_measure": support_measure(u),
        "tv": bv.total_variation(u),
        "bv_norm": bv.bv_norm(u),
        "l1": u.l1_norm(),
        "sup": u.sup_norm(),
        "lebesgue": {
            "p1": u.l1_norm(),
            "p2": 0.0 if step is None else lebesgue_norm(step, 2.0),
        },
    }
    if u.dim >= 2:
        p = critical_exponent(u.dim)
        doc["critical_exponent"] = p
        doc["lebesgue"]["pcrit"] = 0.0 if step is None else lebesgue_norm(step, p)
        table = {}
        for q in _parse_floats(cfg["q_list"]):
            key = "qinf" if q == float("inf") else f"q{q:g}"
            table[key] = 0.0 if step is None else lorentz_norm(step, LorentzIndex(p, q))
        doc["lorentz_critical"] = table
    _emit(doc, cfg["out"])
    return 0


# -- counterexample ---------------------------------------------------------------

def cmd_counterexample(cfg: dict) -> int:
    qs = tuple(_parse_floats(cfg["q_list"]))
    rep = cx.run_counterexample(int(cfg["dim"]), int(cfg["n_max"]), qs)
    outdir = str(cfg["out_dir"])
    os.makedirs(outdir, exist_ok=True)
    _write_text("\n".join(rep.csv_lines()) + "\n", os.path.join(outdir, "counterexample.csv"))
    _emit(rep.to_dict(), os.path.join(outdir, "counterexample.json"))
    _write_text(
        cx.gnuplot_script("counterexample.csv", qs),
        os.path.join(outdir, "counterexample.plt"),
    )
    ok = rep.ok
    if cfg["probe"]:
        probe = cx.dvanishing_probe(
            int(cfg["dim"]),
            tuple(range(1, int(cfg["n_max"]) + 1)),
            quad_level=int(cfg["quad_level"]),
        )
        _emit(probe.to_dict(), os.path.join(outdir, "probe.json"))
        ok = ok and cx.probe_ok(probe)
        print(
            f"probe: best captured mass fits n^{probe.fit_exponent:.3f} "
            f"(target {cx.PROBE_FIT_TARGET} +/- {cx.PROBE_FIT_TOL})"
        )
    print(f"counterexample: {len(rep.rows)} rows, invariants {'ok' if rep.ok else 'FAILED'}")
    return 0 if ok else 1


# -- decompose ---------------------------------------------------------------------

def cmd_decompose(cfg: dict) -> int:
    if not cfg["input"]:
        raise _UsageError("decompose: --input is required")
    if cfg["epsilon"] is None:
        raise _UsageError("decompose: --epsilon is required")
    seq = prof.load_sequence(str(cfg["input"]))
    try:
        decomp = prof.extract_profiles(
            seq,
            epsilon=float(cfg["epsilon"]),
            max_profiles=int(cfg["max_profiles"]),
            scale_window=int(cfg["scale_window"]),
            window_radius=int(cfg["window_radius"]),
            cauchy_tol=float(cfg["cauchy_tol"]),
            stride=int(cfg["stride"]),
            profile_level=None if cfg["profile_level"] is None else int(cfg["profile_level"]),
        )
    except prof.NonConvergentSubsequenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    energy = prof.energy_audit(decomp, float(cfg["delta"]))
    sep = prof.separation_check(decomp, float(cfg["separation_floor"]))
    outdir = str(cfg["out_dir"])
    os.makedirs(outdir, exist_ok=True)
    prof.save_decomposition(outdir, decomp)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "energy": energy.to_dict(),
        "separation": sep.to_dict(),
        "ok": energy.ok and sep.ok,
    }
    if decomp.dim >= 2:
        doc["remainder_lorentz_critical"] = prof.remainder_lorentz(
            decomp, critical_exponent(decomp.dim), (1.0, 2.0)
        )
    _emit(doc, os.path.join(outdir, "audits.json"))
    print(
        f"decompose: {len(decomp.profiles)} profiles, terminated by "
        f"{decomp.terminated_by}, audits {'ok' if doc['ok'] else 'FAILED'}"
    )
    return 0 if doc["ok"] else 1


# -- audit -----------------------------------------------------------------------

def _plateau_fixture(dim: int) -> GridFunction:
    # sits entirely on the identity plateau of chi: any understated chi bound
    # below 1 must flag it
    arr = np.zeros((8,) * dim)
    arr[(slice(0, 4),) * dim] = 1.5
    arr[(slice(2, 4),) * dim] = 2.0
    return GridFunction(dim, 2, (0,) * dim, (8,) * dim, arr)


def _suite_rearrangement(seed: int, count: int) -> dict:
    worst = 0.0
    checked = 0
    for step in corpus_steps(seed, count):
        for p, q in ((2.0, 1.0), (2.0, 2.0), (1.5, 1.5), (3.0, 2.0)):
            a = lorentz_norm(step, LorentzIndex(p, q))
            b = lorentz_norm_symmetrization(step, LorentzIndex(p, q), dim=2)
            worst = max(worst, abs(a - b) / a)
        same = lorentz_norm(step, LorentzIndex(2.0, 2.0))
        ref = lebesgue_norm(step, 2.0)
        worst = max(worst, abs(same - ref) / ref)
        checked += 1
    return {"count": checked, "worst_rel_dev": worst, "tolerance": 1e-10, "ok": worst <= 1e-10}


def _suite_isometry(seed: int, dims: list[int], count: int) -> dict:
    worst = 0.0
    checked = 0
    for d in dims:
        grids = corpus_grids(seed, d, count)
        els = corpus_elements(seed + 1, d, count)
        for u, g in zip(grids, els):
            worst = max(worst, isometry_defect(g, u, "bv"))
            if d >= 2:
                p = critical_exponent(d)
                for q in (1.0, p, float("inf")):
                    worst = max(worst, isometry_defect(g, u, ("lorentz", p, q)))
            checked += 1
    return {"count": checked, "worst_defect": worst, "tolerance": 1e-12, "ok": worst <= 1e-12}


def _suite_lattice(seed: int, dims: list[int], count: int) -> dict:
    ok = True
    checked = 0
    worst = 0.0
    for d in dims:
        for u in corpus_grids(seed + 2, d, count):
            rep = bv.lattice_tv_sum(u)
            ok = ok and rep.ok
            if rep.splitting_bound > 0:
                worst = max(worst, rep.sum_per_cube / rep.splitting_bound)
            checked += 1
    return {"count": checked, "worst_fraction_of_bound": worst, "ok": ok}


def _suite_chain_rule(seed: int, dims: list[int], count: int, negative: str) -> dict:
    chi = layers.chi_function(layers.build_profile(2))
    if negative == "broken-chi":
        chi = bv.ScalarC1(chi.fn, chi.derivative_bound * 0.3, "chi-broken")
    half = bv.ScalarC1(lambda t: 0.5 * t, 0.5, "half")
    squash = bv.ScalarC1(np.tanh, 1.0, "squash")
    violations: list[str] = []
    checked = 0
    for d in dims:
        samples = corpus_grids(seed + 3, d, count) + [_plateau_fixture(d)]
        for u in samples:
            for phi in (chi, half, squash):
                _, rep = bv.compose_scalar(phi, u)
                if not rep.ok:
                    violations.append(phi.name)
                checked += 1
    return {"count": checked, "violations": sorted(set(violations)), "ok": not violations}


def _suite_layers(seed: int, count: int) -> dict:
    ok = True
    checked = 0
    worst = 0.0
    for u in corpus_grids(seed + 4, 2, count):
        audit = layers.layer_energy_audit(u)
        ok = ok and audit.ok
        if audit.tv_total > 0:
            worst = max(worst, audit.band_tv_sum / audit.tv_total)
        checked += 1
    return {"count": checked, "worst_band_factor": worst, "ok": ok}


def _suite_nesting(seed: int, count: int) -> dict:
    # second-index monotonicity holds with constant one only for q1 <= p
    # (indicators break it otherwise), so only those pairs are asserted
    ok = True
    checked = 0
    for step in corpus_steps(seed + 5, count):
        for p in (1.5, 2.0):
            n1 = lorentz_norm(step, LorentzIndex(p, 1.0))
            n2 = lorentz_norm(step, LorentzIndex(p, 2.0))
            ninf = lorentz_norm_weak(step, p)
            ok = ok and n2 <= n1 * (1.0 + 1e-12) and ninf <= n1 * (1.0 + 1e-12)
            if p >= 2.0:
                ok = ok and ninf <= n2 * (1.0 + 1e-12)
            checked += 1
    return {"count": checked, "ok": ok}


def cmd_audit(cfg: dict) -> int:
    seed = int(cfg["seed"])
    count = int(cfg["count"])
    dims = [int(x) for x in str(cfg["dims"]).split(",")]
    negative = str(cfg["negative_control"])
    suites = {
        "rearrangement_equality": _suite_rearrangement(seed, count),
        "group_isometry": _suite_isometry(seed, dims, count),
        "lattice_splitting": _suite_lattice(seed, dims, count),
        "chain_rule": _suite_chain_rule(seed, dims, count, negative),
        "truncation_layers": _suite_layers(seed, count),
        "lorentz_nesting": _suite_nesting(seed, count),
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "dims": dims,
        "count": count,
        "negative_control": negative,
        "suites": suites,
        "ok": all(s["ok"] for s in suites.values()),
    }
    _emit(doc, cfg["out"])
    failed = sorted(name for name, s in suites.items() if not s["ok"])
    if failed:
        print(f"audit: FAILED suites: {', '.join(failed)}", file=sys.stderr)
    else:
        print(f"audit: {len(suites)} suites ok")
    return 0 if doc["ok"] else 1


# -- wiring ------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its keys")
    sp.add_argument(
        "--threads",
        type=int,
        help="accepted for interface stability; computations are single-threaded",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlorentz",
        description="numerical laboratory for concentration analysis on dyadic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("norms", help="norm table of a saved grid function")
    sp.add_argument("--input", help="path to a .grid file")
    sp.add_argument("--q-list", dest="q_list", help="comma list of second indices (inf allowed)")
    sp.add_argument("--out", help="output JSON path (default: stdout)")
    _add_common(sp)

    sp = sub.add_parser("counterexample", help="concentration family report and probe")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.add_argument("--q-list", dest="q_list")
    sp.add_argument("--quad-level", dest="quad_level", type=int)
    sp.add_argument("--probe", action=argparse.BooleanOptionalAction, default=None)
    sp.add_argument("--out-dir", dest="out_dir")
    _add_common(sp)

    sp = sub.add_parser("decompose", help="profile extraction on a saved sequence")
    sp.add_argument("--input", help="sequence directory (manifest.json + .grid files)")
    sp.add_argument("--epsilon", type=float, help="profile size threshold (variation)")
    sp.add_argument("--max-profiles", dest="max_profiles", type=int)
    sp.add_argument("--scale-window", dest="scale_window", type=int)
    sp.add_argument("--window-radius", dest="window_radius", type=int)
    sp.add_argument("--cauchy-tol", dest="cauchy_tol", type=float)
    sp.add_argument("--stride", type=int)
    sp.add_argument("--profile-level", dest="profile_level", type=int)
    sp.add_argument("--delta", type=float, help="allowed pile-up in the energy audit")
    sp.add_argument("--separation-floor", dest="separation_floor", type=float)
    sp.add_argument("--out-dir", dest="out_dir")
    _add_common(sp)

    sp = sub.add_parser("audit", help="invariant suites over a seeded corpus")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dims", help="comma list of dimensions, e.g. 1,2")
    sp.add_argument("--count", type=int)
    sp.add_argument(
        "--negative-control",
        dest="negative_control",
        choices=("none", "broken-chi"),
        help="broken-chi understates the layer derivative bound; exactly the "
        "chain_rule suite must then fail",
    )
    sp.add_argument("--out", help="output JSON path (default: stdout)")
    _add_common(sp)

    return parser


_COMMANDS = {
    "norms": cmd_norms,
    "counterexample": cmd_counterexample,
    "decompose": cmd_decompose,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args, args.command)
        return _COMMANDS[args.command](cfg)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, MemoryGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
