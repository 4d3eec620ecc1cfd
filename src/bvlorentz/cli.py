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
2 refused input: an ``InputError`` (a bad argument or input file, or an
input whose norms overflow a double: no JSON output ever holds NaN or
infinity), a ``MemoryGuardError`` or an ``OSError``.  Each library entry
point checks its own arguments; this module checks only what it parses.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bv
from . import counterexample as cx
from . import layers
from . import profiles as prof
from .corpus import corpus_elements, corpus_grids, corpus_steps
from .grid import GridFunction, InputError, MemoryGuardError, _json_text, load_grid
from .group import isometry_defect
from .rearrange import (
    LorentzIndex,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
    lorentz_norm_weak,
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


def _merge(args: argparse.Namespace, command: str) -> dict:
    cfg = dict(_DEFAULTS[command])
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as err:
                raise InputError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise InputError(f"config {path} must hold a JSON object")
        bad = sorted(set(loaded) - set(cfg))
        if bad:
            raise InputError(f"unknown config keys for {command}: {', '.join(bad)}")
        for key, value in loaded.items():  # a value passes where its text passes the flag's type
            if key in args.flag_bools:
                if type(value) is not bool:
                    raise InputError(f"{command}: config key {key!r} must be true or false, got {value!r}")
                continue
            typ = args.flag_types.get(key, str)  # a flag without a type takes text
            try:
                if value is not None or cfg[key] is not None:
                    loaded[key] = typ(str(value))
            except ValueError:
                why = f"config key {key!r} must be {typ.__name__}, got {value!r}"
                raise InputError(f"{command}: {why}") from None
            choices = args.flag_choices.get(key)
            if choices is not None and loaded[key] not in choices:
                why = f"config key {key!r} must be one of {', '.join(map(repr, choices))}, got {value!r}"
                raise InputError(f"{command}: {why}")
        cfg.update(loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_q_list(command: str, text: str) -> list[float]:
    """Second indices from a comma list; each must be a number q > 0 (inf allowed)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            q = float(tok)
        except ValueError:
            q = float("nan")
        if not q > 0:
            raise InputError(f"{command}: --q-list entries must be positive numbers, got {tok!r}")
        out.append(q)
    if not out:
        raise InputError(f"{command}: empty --q-list: {text!r}")
    return out


def _first_non_finite(doc: dict, prefix: str = "") -> str | None:
    """Dotted key of the first float in ``doc`` that is NaN or infinite."""
    for key, value in doc.items():
        if isinstance(value, dict):
            found = _first_non_finite(value, f"{prefix}{key}.")
            if found:
                return found
        elif isinstance(value, float) and not math.isfinite(value):
            return prefix + key
    return None


def _emit(doc: dict, path: str | None) -> None:
    text = _json_text(doc, path or "stdout")
    if path:
        _write_text(text, path)
    else:
        sys.stdout.write(text)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# -- norms ---------------------------------------------------------------------

def cmd_norms(cfg: dict) -> int:
    if not cfg["input"]:
        raise InputError("norms: --input is required")
    qs = _parse_q_list("norms", cfg["q_list"])
    u = load_grid(cfg["input"])
    step = u.rearrangement
    tv = bv.total_variation(u)
    l1 = u.l1_norm()
    p2 = 0.0 if step is None else lebesgue_norm(step, 2.0)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": os.path.basename(cfg["input"]),
        "dim": u.dim,
        "level": u.level,
        "cells": u.cell_count,
        "support_measure": 0.0 if step is None else step.total_measure,
        "tv": tv,
        "l1": l1,
        # bv.bv_norm(u) over the full region, without recomputing both terms
        "bv_norm": tv + l1,
        # the rearrangement leads with max |u|
        "sup": 0.0 if step is None else float(step.values[0]),
        "lebesgue": {"p1": l1, "p2": p2},
    }
    if u.dim >= 2:
        p = critical_exponent(u.dim)
        doc["critical_exponent"] = p
        # in 2-D the critical exponent is 2: pcrit is the p2 norm
        doc["lebesgue"]["pcrit"] = p2 if p == 2.0 or step is None else lebesgue_norm(step, p)
        table = {}
        for q in qs:
            key = "qinf" if q == float("inf") else f"q{q:g}"
            table[key] = 0.0 if step is None else lorentz_norm(step, LorentzIndex(p, q))
        doc["lorentz_critical"] = table
    bad = _first_non_finite(doc)
    if bad:
        raise InputError(f"norms: {bad} of {cfg['input']} overflows a double")
    _emit(doc, cfg["out"])
    return 0


# -- counterexample ---------------------------------------------------------------

def cmd_counterexample(cfg: dict) -> int:
    qs = tuple(_parse_q_list("counterexample", cfg["q_list"]))
    dim, n_max = cfg["dim"], cfg["n_max"]
    rep = cx.run_counterexample(dim, n_max, qs)
    ok = rep.ok
    probe = None
    if cfg["probe"]:
        # before any file is written: an oversized quadrature leaves no partial output
        probe = cx.dvanishing_probe(dim, tuple(range(1, n_max + 1)), quad_level=cfg["quad_level"])
        ok = ok and cx.probe_ok(probe)
    # every output is serialized before any file is written
    texts = {
        "counterexample.csv": "\n".join(rep.csv_lines()) + "\n",
        "counterexample.json": _json_text(rep.to_dict(), "counterexample.json"),
        "counterexample.plt": cx.gnuplot_script("counterexample.csv", qs),
    }
    if probe is not None:
        texts["probe.json"] = _json_text(probe.to_dict(), "probe.json")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    for name, text in texts.items():
        _write_text(text, os.path.join(cfg["out_dir"], name))
    if probe is not None:
        print(
            f"probe: best captured mass fits n^{probe.fit_exponent:.3f} "
            f"(target {cx.PROBE_FIT_TARGET} +/- {cx.PROBE_FIT_TOL})"
        )
    print(f"counterexample: {len(rep.rows)} rows, invariants {'ok' if rep.ok else 'FAILED'}")
    return 0 if ok else 1


# -- decompose ---------------------------------------------------------------------

def cmd_decompose(cfg: dict) -> int:
    if not cfg["input"]:
        raise InputError("decompose: --input is required")
    if cfg["epsilon"] is None:
        raise InputError("decompose: --epsilon is required")
    # the audits' thresholds first: a failed extraction must not hide a bad one
    prof._check_threshold("delta", cfg["delta"])
    prof._check_threshold("separation floor", cfg["separation_floor"])
    seq = prof.load_sequence(cfg["input"])
    keys = ("epsilon", "max_profiles", "scale_window", "window_radius", "cauchy_tol", "stride",
            "profile_level")
    try:
        decomp = prof.extract_profiles(seq, **{key: cfg[key] for key in keys})
    except prof.NonConvergentSubsequenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    energy = prof.energy_audit(decomp, cfg["delta"])
    sep = prof.separation_check(decomp, cfg["separation_floor"])
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
    text = _json_text(doc, "audits.json")  # both JSON files are checked before either is written
    prof.save_decomposition(cfg["out_dir"], decomp)
    _write_text(text, os.path.join(cfg["out_dir"], "audits.json"))
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
    seed, count = cfg["seed"], cfg["count"]
    if seed < 0:
        raise InputError(f"audit: --seed must be at least 0, got {seed}")
    if count < 1:
        raise InputError(f"audit: --count must be at least 1, got {count}")
    dims = [tok.strip() for tok in cfg["dims"].split(",")]
    for tok in dims:
        if tok not in ("1", "2", "3"):
            raise InputError(f"audit: --dims entries must be 1, 2 or 3, got {tok!r}")
    dims = [int(tok) for tok in dims]
    negative = cfg["negative_control"]
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
    sp.set_defaults(
        flag_types={a.dest: a.type for a in sp._actions if a.type is not None},
        flag_choices={a.dest: a.choices for a in sp._actions if a.choices is not None},
        flag_bools={a.dest for a in sp._actions if isinstance(a, argparse.BooleanOptionalAction)},
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
    except (InputError, MemoryGuardError, OSError) as err:  # faults of the arguments or input files
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
