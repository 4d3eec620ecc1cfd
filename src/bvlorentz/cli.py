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
import functools
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
from .grid import GridFunction, InputError, MemoryGuardError, _json_text, _write_files, load_grid
from .group import isometry_defects
from .rearrange import (
    LorentzIndex,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
    lorentz_norm_weak,
)

SCHEMA_VERSION = 1

def _merge(args: argparse.Namespace, command: str) -> dict:
    flags = _COMMANDS[command][2]
    cfg = {dest: default for dest, _, default, _ in flags}
    path = args.config
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
        types = {dest: typ for dest, typ, _, _ in flags}
        for key, value in loaded.items():  # a value passes where its text passes the flag's type
            typ = types[key]
            if typ is bool:
                if type(value) is not bool:
                    raise InputError(f"{command}: config key {key!r} must be true or false, got {value!r}")
                continue
            choices = typ if isinstance(typ, tuple) else None
            typ = str if choices else typ
            try:
                if value is not None:
                    loaded[key] = typ(str(value))
                elif cfg[key] is not None and choices is None:  # null keeps a null default only
                    raise ValueError
            except ValueError:
                why = f"config key {key!r} must be {typ.__name__}, got {value!r}"
                raise InputError(f"{command}: {why}") from None
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
    """Second indices from a comma list; each must be a number q > 0 (inf allowed).

    Outputs name each q by its ``{q:g}`` text, so two distinct values with
    the same text are refused; a repeated value is allowed.
    """
    out = []
    named = {}  # {q:g} text -> (token, q) of its first entry
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
        first, q_first = named.setdefault(f"{q:g}", (tok, q))
        if q != q_first:
            raise InputError(
                f"{command}: --q-list entries {first!r} and {tok!r} are distinct values "
                f"that both print as q{q:g}"
            )
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
    if path:  # written here, not through _write_files: a missing parent directory is refused
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- norms ---------------------------------------------------------------------

def cmd_norms(cfg: dict) -> int:
    if not cfg["input"]:
        raise InputError("norms: --input is required")
    qs = _parse_q_list("norms", cfg["q_list"])
    u = load_grid(cfg["input"])
    p = critical_exponent(u.dim) if u.dim >= 2 else None
    # one key per q: a repeated q keeps its first place and its one value
    keys = {f"q{q:g}": q for q in qs}
    # L1 comes from the leaf pass over |u| that precedes the sort; each norm
    # of a zero u is 0.0
    step = u.rearrangement
    l1 = u.l1_norm()
    p2 = lebesgue_norm(u, 2.0)
    lebesgue = {"p2": p2}
    critical = {}
    if p is not None:
        # in 2-D the critical exponent is 2: pcrit is the p2 norm
        lebesgue["pcrit"] = p2 if p == 2.0 else lebesgue_norm(u, p)
        table = {key: lorentz_norm(u, LorentzIndex(p, q)) for key, q in keys.items()}
        critical = {"critical_exponent": p, "lorentz_critical": table}
    tv = bv.total_variation(u)
    # keys in the order the overflow check names the first bad one
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
        "lebesgue": {"p1": l1, **lebesgue},
        **critical,
    }
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
    files = {
        "counterexample.csv": "\n".join(rep.csv_lines()) + "\n",
        "counterexample.json": rep.to_dict(),
        "counterexample.plt": cx.gnuplot_script("counterexample.csv", qs),
    }
    if probe is not None:
        files["probe.json"] = probe.to_dict()
    _write_files(cfg["out_dir"], files)
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
    _write_files(cfg["out_dir"], {"audits.json": text})
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


# relative deviation between the two forms of a Lorentz norm; isometry defect
_REL_DEV_TOL, _DEFECT_TOL = 1e-10, 1e-12


def _fold(checks) -> tuple[int, float, list[str]]:
    """Count ``checks``, take their largest value from 0.0 and sort the names
    of the failed ones.  Each suite yields one (value, ok, name) check per
    sample it counts: a tolerance check fails on a NaN deviation, and a suite
    that reports no worst value yields 0.0."""
    count, worst, failed = 0, 0.0, set()
    for value, ok, name in checks:
        count += 1
        worst = max(worst, value)
        if not ok:
            failed.add(name)
    return count, worst, sorted(failed)


def _rearrangement_checks(seed: int, count: int):
    for i, step in enumerate(corpus_steps(seed, count)):
        devs = []
        for p, q in ((2.0, 1.0), (2.0, 2.0), (1.5, 1.5), (3.0, 2.0)):
            a = lorentz_norm(step, LorentzIndex(p, q))
            b = lorentz_norm_symmetrization(step, LorentzIndex(p, q), dim=2)
            devs.append(abs(a - b) / a)
        same = lorentz_norm(step, LorentzIndex(2.0, 2.0))
        ref = lebesgue_norm(step, 2.0)
        devs.append(abs(same - ref) / ref)
        yield max(devs), all(dev <= _REL_DEV_TOL for dev in devs), f"step {i}"


def _isometry_checks(seed: int, dims: list[int], count: int):
    for d in dims:
        grids = corpus_grids(seed, d, count)
        els = corpus_elements(seed + 1, d, count)
        norm_ids = ["bv"]
        if d >= 2:
            p = critical_exponent(d)
            norm_ids += [("lorentz", p, q) for q in (1.0, p, float("inf"))]
        for i, (u, g) in enumerate(zip(grids, els)):
            defects = isometry_defects(g, u, norm_ids)
            yield max(defects), all(x <= _DEFECT_TOL for x in defects), f"{d}-D grid {i}"


def _lattice_checks(seed: int, dims: list[int], count: int):
    for d in dims:
        for i, u in enumerate(corpus_grids(seed + 2, d, count)):
            rep = bv.lattice_tv_sum(u)
            fraction = rep.sum_per_cube / rep.splitting_bound if rep.splitting_bound > 0 else 0.0
            yield fraction, rep.ok, f"{d}-D grid {i}"


def _chain_rule_checks(seed: int, dims: list[int], count: int, negative: str):
    chi = layers.chi_function(layers.build_profile(2))
    if negative == "broken-chi":
        chi = bv.ScalarC1(chi.fn, chi.derivative_bound * 0.3, "chi-broken")
    half = bv.ScalarC1(lambda t: 0.5 * t, 0.5, "half")
    squash = bv.ScalarC1(np.tanh, 1.0, "squash")
    for d in dims:
        for u in corpus_grids(seed + 3, d, count) + [_plateau_fixture(d)]:
            for phi in (chi, half, squash):
                _, rep = bv.compose_scalar(phi, u)
                yield 0.0, rep.ok, phi.name


def _layer_checks(seed: int, count: int):
    for i, u in enumerate(corpus_grids(seed + 4, 2, count)):
        audit = layers.layer_energy_audit(u)
        factor = audit.band_tv_sum / audit.tv_total if audit.tv_total > 0 else 0.0
        yield factor, audit.ok, f"grid {i}"


def _nesting_checks(seed: int, count: int):
    # second-index monotonicity holds with constant one only for q1 <= p
    # (indicators break it otherwise), so only those pairs are asserted
    slack = 1.0 + 1e-12
    for i, step in enumerate(corpus_steps(seed + 5, count)):
        for p in (1.5, 2.0):
            n1 = lorentz_norm(step, LorentzIndex(p, 1.0))
            n2 = lorentz_norm(step, LorentzIndex(p, 2.0))
            ninf = lorentz_norm_weak(step, p)
            ok = n2 <= n1 * slack and ninf <= n1 * slack and (p < 2.0 or ninf <= n2 * slack)
            yield 0.0, ok, f"step {i} p={p:g}"


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
    suites = {}
    n, worst, failed = _fold(_rearrangement_checks(seed, count))
    suites["rearrangement_equality"] = {"count": n, "worst_rel_dev": worst, "ok": not failed,
                                        "tolerance": _REL_DEV_TOL}
    n, worst, failed = _fold(_isometry_checks(seed, dims, count))
    suites["group_isometry"] = {"count": n, "worst_defect": worst, "ok": not failed,
                                "tolerance": _DEFECT_TOL}
    n, worst, failed = _fold(_lattice_checks(seed, dims, count))
    suites["lattice_splitting"] = {"count": n, "worst_fraction_of_bound": worst, "ok": not failed}
    n, _, failed = _fold(_chain_rule_checks(seed, dims, count, negative))
    suites["chain_rule"] = {"count": n, "violations": failed, "ok": not failed}
    n, worst, failed = _fold(_layer_checks(seed, count))
    suites["truncation_layers"] = {"count": n, "worst_band_factor": worst, "ok": not failed}
    n, _, failed = _fold(_nesting_checks(seed, count))
    suites["lorentz_nesting"] = {"count": n, "ok": not failed}
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

# per subcommand: its handler, its help and its flags as (dest, type, default,
# help); a bool type is a --x/--no-x switch and a tuple lists the choices.  The
# parser, the --config keys and the defaults all come from this one table.
_COMMANDS: dict[str, tuple] = {
    "norms": (cmd_norms, "norm table of a saved grid function", (
        ("input", str, None, "path to a .grid file"),
        ("q_list", str, "1,1.5,2,inf", "comma list of second indices (inf allowed)"),
        ("out", str, None, "output JSON path (default: stdout)"),
    )),
    "counterexample": (cmd_counterexample, "concentration family report and probe", (
        ("dim", int, 2, None),
        ("n_max", int, 12, None),
        ("q_list", str, "1,1.2,1.5,2", None),
        ("quad_level", int, 9, None),
        ("probe", bool, True, None),
        ("out_dir", str, ".", None),
    )),
    "decompose": (cmd_decompose, "profile extraction on a saved sequence", (
        ("input", str, None, "sequence directory (manifest.json + .grid files)"),
        ("epsilon", float, None, "profile size threshold (variation)"),
        ("max_profiles", int, 8, None),
        ("scale_window", int, 10, None),
        ("window_radius", int, 4, None),
        ("cauchy_tol", float, 0.05, None),
        ("stride", int, 1, None),
        ("profile_level", int, None, None),
        ("delta", float, 0.1, "allowed pile-up in the energy audit"),
        ("separation_floor", float, 1.0, None),
        ("out_dir", str, ".", None),
    )),
    "audit": (cmd_audit, "invariant suites over a seeded corpus", (
        ("seed", int, 7, None),
        ("dims", str, "2", "comma list of dimensions, e.g. 1,2"),
        ("count", int, 25, None),
        ("negative_control", ("none", "broken-chi"), "none", "broken-chi understates the layer "
         "derivative bound; exactly the chain_rule suite must then fail"),
        ("out", str, None, "output JSON path (default: stdout)"),
    )),
}
# every subcommand also takes this one; it is no --config key
_COMMON = (
    ("config", str, None, "JSON config file; flags override its keys"),
)


@functools.cache  # once per process: each add_argument reads the terminal size
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlorentz",
        description="numerical laboratory for concentration analysis on dyadic grids",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=about, allow_abbrev=False)
        for dest, typ, _, text in flags + _COMMON:
            if typ is bool:
                kw = {"action": argparse.BooleanOptionalAction}
            elif isinstance(typ, tuple):
                kw = {"choices": typ}
            else:  # int or float; a text flag keeps argparse's untyped string
                kw = {"type": None if typ is str else typ}
            sp.add_argument("--" + dest.replace("_", "-"), help=text, **kw)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args, args.command)
        return _COMMANDS[args.command][0](cfg)
    except (InputError, MemoryGuardError, OSError) as err:  # faults of the arguments or input files
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
