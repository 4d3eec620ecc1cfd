"""Command line interface: exit codes, config precedence, determinism."""
import argparse
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz import bv, cli
from bvlorentz import rearrange
from bvlorentz import counterexample as cx
from bvlorentz.cli import main
from bvlorentz.corpus import corpus_grids
from bvlorentz.grid import _LEAF_CELLS, _SLAB_CELLS, GridFunction, InputError, load_grid, save_grid
from bvlorentz.group import DyadicVector, GroupElement
from bvlorentz.multiscale import DyadicSum, Term
from bvlorentz.profiles import load_sequence, save_sequence, two_profile_sequence
from bvlorentz.rearrange import (
    LorentzIndex,
    StepFunction,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_weak,
)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture()
def saved_grid(tmp_path, checker2d):
    p = tmp_path / "u.grid"
    save_grid(checker2d, p)
    return p


# -- norms -------------------------------------------------------------------

def test_norms_writes_table(tmp_path, saved_grid):
    out = tmp_path / "norms.json"
    rc = main(["norms", "--input", str(saved_grid), "--out", str(out)])
    assert rc == 0
    doc = _read(out)
    assert doc["schema_version"] == 1
    assert doc["dim"] == 2 and doc["cells"] == 16
    assert doc["critical_exponent"] == 2.0
    assert set(doc["lorentz_critical"]) == {"q1", "q1.5", "q2", "qinf"}
    assert doc["lebesgue"]["p2"] == pytest.approx(doc["lorentz_critical"]["q2"], rel=1e-12)
    assert doc["tv"] > 0


def test_norms_stdout_default(saved_grid, capsys):
    rc = main(["norms", "--input", str(saved_grid), "--q-list", "1,2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["lorentz_critical"]) == {"q1", "q2"}


def test_norms_missing_input_is_usage_error(capsys):
    assert main(["norms"]) == 2
    assert "required" in capsys.readouterr().err


def test_norms_missing_file(tmp_path, capsys):
    assert main(["norms", "--input", str(tmp_path / "nope.grid")]) == 2


def test_norms_truncated_grid_is_usage_error(tmp_path, capsys):
    p = tmp_path / "u.grid"
    save_grid(GridFunction(2, 3, (0, 0), (8, 8), np.ones((8, 8))), p)
    p.write_bytes(p.read_bytes()[:200])
    assert main(["norms", "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}: payload is 144 bytes, extents (8, 8) need 512\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_norms_non_finite_grid_is_usage_error(tmp_path, capsys, bad):
    p = tmp_path / "u.grid"
    save_grid(GridFunction(2, 3, (0, 0), (8, 8), np.ones((8, 8))), p)
    p.write_bytes(p.read_bytes()[:-8] + np.array(bad, dtype="<f8").tobytes())
    assert main(["norms", "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}: values must be finite: 1 of 64 cells hold NaN or inf\n"


@pytest.mark.parametrize(
    "u",
    [u for d in (1, 2, 3) for u in corpus_grids(5, d, 4)]
    + [GridFunction(2, 3, (0, 0), (8, 8), np.zeros((8, 8)))],
)
def test_norms_bv_norm_equals_library(tmp_path, u):
    p, out = tmp_path / "u.grid", tmp_path / "norms.json"
    save_grid(u, p)
    assert main(["norms", "--input", str(p), "--out", str(out)]) == 0
    doc = _read(out)
    assert doc["bv_norm"] == bv.bv_norm(u)
    assert doc["tv"] == bv.total_variation(u) and doc["l1"] == doc["lebesgue"]["p1"] == u.l1_norm()


def test_norms_bv_norm_equals_library_checker(tmp_path, saved_grid, checker2d):
    out = tmp_path / "norms.json"
    assert main(["norms", "--input", str(saved_grid), "--out", str(out)]) == 0
    assert _read(out)["bv_norm"] == bv.bv_norm(checker2d)


def _assert_refused(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "q_list, token", [("abc", "abc"), ("-1", "-1"), ("1,0", "0"), ("2,nan", "nan")]
)
def test_norms_bad_q_list_is_usage_error(tmp_path, saved_grid, capsys, q_list, token):
    out = tmp_path / "n.json"
    argv = ["norms", "--input", str(saved_grid), "--q-list", q_list, "--out", str(out)]
    _assert_refused(
        capsys, argv, f"norms: --q-list entries must be positive numbers, got {token!r}"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "q_list, first, second, key",
    [("1.0000001,1.0000002", "1.0000001", "1.0000002", "q1"), ("2,1.5,2.0000001", "2", "2.0000001", "q2")],
)
@pytest.mark.parametrize("command", ["norms", "counterexample"])
def test_q_keys_that_collide_are_refused_without_output(
    tmp_path, saved_grid, capsys, command, q_list, first, second, key
):
    # both values would be written under one key (norms) or column (counterexample)
    out = tmp_path / "out"
    if command == "norms":
        argv = ["norms", "--input", str(saved_grid), "--out", str(out)]
    else:
        argv = ["counterexample", "--n-max", "3", "--no-probe", "--out-dir", str(out)]
    message = (
        f"{command}: --q-list entries {first!r} and {second!r} are distinct values "
        f"that both print as {key}"
    )
    _assert_refused(capsys, argv + ["--q-list", q_list], message)
    assert not out.exists()


def test_q_list_keeps_identical_repeats():
    text = "2,inf,0.5,2,inf,1,2.0,2e0"
    inf = float("inf")
    assert cli._parse_q_list("norms", text) == [2.0, inf, 0.5, 2.0, inf, 1.0, 2.0, 2.0]


_OVERFLOWS = pytest.mark.parametrize(
    "dim, level, values, key",
    [
        # |values| sum past the largest double; the TV (7.68e+307) stays finite
        (2, -6, [[1e305, -1e305], [0.0, 1e305]], "l1"),
        # the TV itself overflows
        (3, -6, np.where(np.indices((2, 2, 2)).sum(axis=0) % 2, 1e305, -1e305), "tv"),
    ],
)


def _save_overflowing(tmp_path, dim, level, values):
    p = tmp_path / "big.grid"
    vals = np.asarray(values, dtype=float)
    save_grid(GridFunction(dim, level, (0,) * dim, vals.shape, vals), p)
    return p


@_OVERFLOWS
def test_norms_overflow_is_refused_without_output(tmp_path, capsys, dim, level, values, key):
    p = _save_overflowing(tmp_path, dim, level, values)
    out = tmp_path / "n.json"
    with np.errstate(over="ignore"):
        _assert_refused(
            capsys,
            ["norms", "--input", str(p), "--out", str(out)],
            f"norms: {key} of {p} overflows a double",
        )
    assert not out.exists()


def test_norms_of_a_support_past_a_double_is_refused_with_one_line(tmp_path, capsys):
    # the lowest admissible 3-D level: 512 cells of measure 2^1020 gave NaN
    # norms, three RuntimeWarnings and then a refusal of support_measure
    p = _save_overflowing(tmp_path, 3, -340, np.ones((8, 8, 8)))
    out = tmp_path / "n.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_refused(
            capsys,
            ["norms", "--input", str(p), "--out", str(out)],
            "the support measure of 512 nonzero cells of measure 2^1020 overflows a double",
        )
    assert not out.exists()


def test_norms_keeps_the_callers_errstate(tmp_path, capsys, monkeypatch):
    # a multiply overflows before the per-face pass and before each Lorentz
    # norm: each must see the caller's over="ignore", or the overflow warning
    # is raised there as an error.  The L1 sum overflows (the TV, 2.5e304,
    # does not), so the refusal names l1
    real_tv, real_lorentz = bv.total_variation, cli.lorentz_norm

    def overflowing_tv(u):
        np.multiply(np.full(2, 1e300), 1e300)
        return real_tv(u)

    def overflowing_lorentz(u, idx):
        np.multiply(np.full(2, 1e300), 1e300)
        return real_lorentz(u, idx)

    monkeypatch.setattr(cli.bv, "total_variation", overflowing_tv)
    monkeypatch.setattr(cli, "lorentz_norm", overflowing_lorentz)
    p = _save_overflowing(tmp_path, 2, 10, np.full((64, 64), 1e305))
    out = tmp_path / "n.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            _assert_refused(
                capsys,
                ["norms", "--input", str(p), "--out", str(out)],
                f"norms: l1 of {p} overflows a double",
            )
    assert not out.exists()


def _former_lebesgue_norm(s: StepFunction, p: float) -> float:
    """The former full-array ``lebesgue_norm`` of a step (finite p)."""
    core = np.sum(s.normalized_values ** p * (s.measures / s.total_measure))
    return float(s.values[0]) * s.total_measure ** (1.0 / p) * float(core) ** (1.0 / p)


def _former_core(s: StepFunction, p: float, q: float) -> float:
    """The former full-array power sum of ``lorentz_norm``."""
    tau = s.normalized_cumulative
    return float(np.sum(s.normalized_values ** q * (p / q) * np.diff(tau ** (q / p))))


def _former_lorentz_norm(s: StepFunction, p: float, q: float) -> float:
    """The former full-array ``lorentz_norm`` of a step, weak norm included."""
    vmax, tmax = float(s.values[0]), s.total_measure
    if math.isinf(q):
        tau = s.normalized_cumulative[1:]
        return vmax * tmax ** (1.0 / p) * float(np.max(s.normalized_values * tau ** (1.0 / p)))
    if p / q == math.inf:
        return math.inf
    core = _former_core(s, p, q)
    if core < sys.float_info.min:
        log_core_q = rearrange._log_core_over_q(s.normalized_values, s.normalized_cumulative, p, q)
    else:
        try:
            return vmax * tmax ** (1.0 / p) * core ** (1.0 / q)
        except OverflowError:
            log_core_q = math.log(core) / q
    return rearrange._exp_or_inf(math.log(vmax) + math.log(tmax) / p + log_core_q)


def _former_norms(cfg: dict) -> int:
    """The former ``cmd_norms``: each power sum over full arrays."""
    qs = cli._parse_q_list("norms", cfg["q_list"])
    u = load_grid(cfg["input"])
    step = u.rearrangement
    tv = bv.total_variation(u)
    l1 = u.l1_norm()
    p2 = 0.0 if step is None else _former_lebesgue_norm(step, 2.0)
    doc: dict = {
        "schema_version": cli.SCHEMA_VERSION,
        "input": os.path.basename(cfg["input"]),
        "dim": u.dim,
        "level": u.level,
        "cells": u.cell_count,
        "support_measure": 0.0 if step is None else step.total_measure,
        "tv": tv,
        "l1": l1,
        "bv_norm": tv + l1,
        "sup": 0.0 if step is None else float(step.values[0]),
        "lebesgue": {"p1": l1, "p2": p2},
    }
    if u.dim >= 2:
        p = critical_exponent(u.dim)
        doc["critical_exponent"] = p
        doc["lebesgue"]["pcrit"] = p2 if p == 2.0 or step is None else _former_lebesgue_norm(step, p)
        table = {}
        for q in qs:
            key = "qinf" if q == float("inf") else f"q{q:g}"
            table[key] = 0.0 if step is None else _former_lorentz_norm(step, p, q)
        doc["lorentz_critical"] = table
    bad = cli._first_non_finite(doc)
    if bad:
        raise InputError(f"norms: {bad} of {cfg['input']} overflows a double")
    cli._emit(doc, cfg["out"])
    return 0


def _distinct_step(n: int, seed: int) -> StepFunction:
    """n chunks of distinct values in (0.5, 1.5] on measures of 1 to 8 cells."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(2 * n) + 0.5)[::-1]
    values = values[np.flatnonzero(np.diff(values, prepend=2.0))][:n]
    assert values.size == n
    return StepFunction(values, rng.integers(1, 9, n) * 2.0**-10)


_B = rearrange._BLOCK_CHUNKS


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_blocked_norms_equal_the_former_full_array_expressions(n, p):
    # q = p; a q that sends every term under the smallest normal double, so
    # the norm is summed in logs; a q so small that core ** (1 / q) raises
    # OverflowError; and the Lebesgue and weak norms
    s = _distinct_step(n, n)
    big, tiny = 2e4, 1e-3
    assert _former_core(s, p, big) < sys.float_info.min
    with pytest.raises(OverflowError):
        _former_core(s, p, tiny) ** (1.0 / tiny)
    for q in (p, big, tiny, 1.0, 3.0, math.inf):
        assert lorentz_norm(s, LorentzIndex(p, q)) == _former_lorentz_norm(s, p, q), q
    assert lorentz_norm_weak(s, p) == _former_lorentz_norm(s, p, math.inf)
    for r in (p, 1.0, 2.0, 0.5, 3):
        assert lebesgue_norm(s, r) == _former_lebesgue_norm(s, r), r


@pytest.mark.parametrize("norm", ["q1", "q3", "p1.5"])
def test_power_sums_hold_one_chunk_array_and_one_block(norm):
    # beside the step's own caches, a norm holds one array of the chunks'
    # length (n + 1 for the Lorentz measure factors), one block of powers
    # and at most 64 KiB of small objects; the former full-array sums held
    # two or three chunk arrays
    n = 200_000
    s = _distinct_step(n, 9)
    s.normalized_values, s.normalized_cumulative, s.total_measure
    if norm == "p1.5":
        peak = _peak(lebesgue_norm, s, 1.5)
    else:
        peak = _peak(lorentz_norm, s, LorentzIndex(1.5, float(norm[1:])))
    assert peak <= (n + 1) * 8 + _B * 8 + (64 << 10)


def _smooth_256():
    x = (np.arange(256) + 0.5) / 256 - 0.5
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    return GridFunction(2, 8, (-128, -128), (256, 256), np.where(r2 < 0.2, np.cos(9 * r2), 0.0))


@pytest.mark.parametrize(
    "u",
    [u for d in (1, 2, 3) for u in corpus_grids(11, d, 3)]
    + [GridFunction(3, 2, (0, 0, 0), (4, 4, 4), np.zeros((4, 4, 4))), _smooth_256()],
)
@pytest.mark.parametrize("q_list", [None, "2,inf,0.5,2,inf,1"])
def test_norms_writes_the_former_bytes(tmp_path, u, q_list):
    p = tmp_path / "u.grid"
    save_grid(u, p)
    cfg = {"input": str(p), "q_list": q_list or "1,1.5,2,inf", "out": str(tmp_path / "former.json")}
    assert _former_norms(cfg) == 0
    argv = ["norms", "--input", str(p), "--out", str(tmp_path / "norms.json")]
    assert main(argv + (["--q-list", q_list] if q_list else [])) == 0
    assert (tmp_path / "norms.json").read_bytes() == (tmp_path / "former.json").read_bytes()


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "dim, n, levels", [(2, 512, 4), (2, 512, None), (3, 64, None)], ids=["4", "None", "3d-None"]
)
def test_norms_holds_at_most_one_padded_field_more(tmp_path, dim, n, levels):
    # the per-face pass holds the streamed variation's leaf buffer and the
    # kernel's buffers of the padded rows a leaf meets and of its scratch: no
    # padded per-face array.  It runs after the sort, beside the rearrangement; few distinct
    # values make the rearrangement short, and distinct values a long norm
    # table
    vals = np.random.default_rng(5).random((n,) * dim) + 0.5
    if levels:
        vals = np.ceil(vals * levels)
    p = tmp_path / "u.grid"
    save_grid(GridFunction(dim, 9, (-n // 2,) * dim, (n,) * dim, vals), p)
    cfg = {"input": str(p), "q_list": "1,1.5,2,inf", "out": str(tmp_path / "former.json")}
    argv = ["norms", "--input", str(p), "--out", str(tmp_path / "norms.json")]
    main(argv)  # first-call allocations stay out of both peaks
    former = _peak(_former_norms, cfg)
    peak = _peak(main, argv)
    row_cells = (n + 2) ** (dim - 1)  # one padded axis-0 row
    faces = (_LEAF_CELLS + row_cells + 2 * (_SLAB_CELLS + row_cells)) * 8
    assert peak <= former + faces
    assert (tmp_path / "norms.json").read_bytes() == (tmp_path / "former.json").read_bytes()


def test_emit_refuses_non_finite_output(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(InputError, match="overflows a double"):
        cli._emit({"a": {"b": float("inf")}}, str(out))
    assert not out.exists()


# -- config precedence ---------------------------------------------------------

def test_flags_override_config_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 3, "quad_level": 5, "probe": False}))
    d1 = tmp_path / "a"
    rc = main(
        ["counterexample", "--config", str(cfg), "--n-max", "5", "--out-dir", str(d1)]
    )
    assert rc == 0
    doc = _read(d1 / "counterexample.json")
    assert len(doc["rows"]) == 5  # flag wins over config's 3 (and default 12)
    assert not (d1 / "probe.json").exists()  # config's probe=False kept
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 3}))
    rc = main(["counterexample", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["counterexample", "--config", str(tmp_path / "absent.json")])
    assert rc == 2


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_max": 3,')
    assert main(["counterexample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} is not valid JSON: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    cfg.write_text("[3]")
    _assert_refused(
        capsys, ["audit", "--config", str(cfg)], f"config {cfg} must hold a JSON object"
    )


def test_parser_is_built_once_per_process(monkeypatch, saved_grid, tmp_path):
    cli._build_parser()
    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "add_argument",
        lambda self, *a, **kw: added.append(a) or add_argument(self, *a, **kw),
    )
    for _ in range(2):
        assert main(["norms", "--input", str(saved_grid), "--out", str(tmp_path / "n.json")]) == 0
    assert added == []
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("columns", [None, "60"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in sorted(cli._COMMANDS)),
        [],
        ["nope"],
        ["counterexample", "--dim", "x"],
        ["audit", "--negative-control", "x"],
        ["counterexample", "--probe", "1"],
        # an abbreviated flag is refused, as the config key "out" is
        ["counterexample", "--no-pro", "--out", "DIR"],
    ],
)
def test_cached_parser_prints_what_a_fresh_one_prints(monkeypatch, capsys, columns, argv):
    # the help width is read when the text is formatted, not when the
    # parser is built: a parser built at another width prints the same
    cli._build_parser()
    if columns:
        monkeypatch.setenv("COLUMNS", columns)

    def run(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    fresh = run(cli._build_parser.__wrapped__())
    assert fresh[0] == (0 if "--help" in argv else 2)
    assert run(cli._build_parser()) == fresh
    assert run(cli._build_parser()) == fresh


# every int and float flag that a --config file may set, per subcommand
_TYPED_KEYS = [
    ("counterexample", "dim", "int"),
    ("counterexample", "n_max", "int"),
    ("counterexample", "quad_level", "int"),
    ("decompose", "epsilon", "float"),
    ("decompose", "max_profiles", "int"),
    ("decompose", "scale_window", "int"),
    ("decompose", "window_radius", "int"),
    ("decompose", "cauchy_tol", "float"),
    ("decompose", "stride", "int"),
    ("decompose", "profile_level", "int"),
    ("decompose", "delta", "float"),
    ("decompose", "separation_floor", "float"),
    ("audit", "seed", "int"),
    ("audit", "count", "int"),
]


def _actions(command: str) -> list:
    """The built parser's actions of ``command``, in declaration order."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


def test_typed_keys_cover_every_int_and_float_flag():
    declared = []
    for command, (_, _, flags) in cli._COMMANDS.items():
        keys = {dest for dest, *_ in flags}
        declared += [(command, a.dest, a.type.__name__) for a in _actions(command)
                     if a.type is not None and a.dest in keys]
    assert sorted(declared) == sorted(_TYPED_KEYS)


# the defaults and flags as declared before one table in cli held them
_FORMER_DEFAULTS = {
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
# per subcommand: (option strings, type, choices) of each flag, in order
_FORMER_FLAGS = {
    "norms": [(("--input",), None, None), (("--q-list",), None, None), (("--out",), None, None)],
    "counterexample": [
        (("--dim",), int, None),
        (("--n-max",), int, None),
        (("--q-list",), None, None),
        (("--quad-level",), int, None),
        (("--probe", "--no-probe"), None, None),
        (("--out-dir",), None, None),
    ],
    "decompose": [
        (("--input",), None, None),
        (("--epsilon",), float, None),
        (("--max-profiles",), int, None),
        (("--scale-window",), int, None),
        (("--window-radius",), int, None),
        (("--cauchy-tol",), float, None),
        (("--stride",), int, None),
        (("--profile-level",), int, None),
        (("--delta",), float, None),
        (("--separation-floor",), float, None),
        (("--out-dir",), None, None),
    ],
    "audit": [
        (("--seed",), int, None),
        (("--dims",), None, None),
        (("--count",), int, None),
        (("--negative-control",), None, ("none", "broken-chi")),
        (("--out",), None, None),
    ],
}
_FORMER_COMMON = [(("--config",), None, None)]


@pytest.mark.parametrize("command", sorted(_FORMER_DEFAULTS))
def test_table_keeps_the_former_defaults_and_flags(command):
    args = cli._build_parser().parse_args([command])
    assert cli._merge(args, command) == _FORMER_DEFAULTS[command]
    declared = [(tuple(a.option_strings), a.type, a.choices) for a in _actions(command)]
    assert declared == _FORMER_FLAGS[command] + _FORMER_COMMON
    assert sorted(cli._COMMANDS) == sorted(_FORMER_DEFAULTS)


@pytest.mark.parametrize("value", ["abc", [1], True, {"a": 1}])
@pytest.mark.parametrize("command, key, type_name", _TYPED_KEYS)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, key, type_name, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    _assert_refused(
        capsys,
        [command, "--config", str(cfg)],
        f"{command}: config key {key!r} must be {type_name}, got {value!r}",
    )


@pytest.mark.parametrize("value", [2.5, "2.5", "1e3", None])
def test_config_int_refuses_what_the_flag_refuses(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": value}))
    _assert_refused(
        capsys, ["audit", "--config", str(cfg)], f"audit: config key 'count' must be int, got {value!r}"
    )


@pytest.mark.parametrize("value", [5, "5", None, True])
def test_config_choice_must_be_one_the_flag_accepts(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"negative_control": value, "count": 1, "dims": "2"}))
    _assert_refused(
        capsys,
        ["audit", "--config", str(cfg), "--out", str(tmp_path / "a.json")],
        f"audit: config key 'negative_control' must be one of 'none', 'broken-chi', got {value!r}",
    )
    assert not (tmp_path / "a.json").exists()
    cfg.write_text(json.dumps({"negative_control": "broken-chi", "count": 1, "dims": "2"}))
    assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "a.json")]) == 1
    assert _read(tmp_path / "a.json")["negative_control"] == "broken-chi"


@pytest.mark.parametrize("value", ["no", 0, 1, None, "false"])
def test_config_boolean_flag_needs_a_json_bool(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"probe": value, "n_max": 3}))
    out = tmp_path / "o"
    _assert_refused(
        capsys,
        ["counterexample", "--config", str(cfg), "--out-dir", str(out)],
        f"counterexample: config key 'probe' must be true or false, got {value!r}",
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [("norms", "q_list"), ("counterexample", "q_list"), ("counterexample", "out_dir"),
     ("decompose", "out_dir"), ("audit", "dims")],
)
def test_config_null_for_a_flag_with_a_text_default_is_refused(tmp_path, capsys, monkeypatch,
                                                                 command, key):
    # a null is not the text "None": out_dir would write into ./None/
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    monkeypatch.chdir(tmp_path)
    quick = ["--no-probe", "--n-max", "2"] if command == "counterexample" else []
    _assert_refused(
        capsys,
        [command, "--config", str(cfg)] + quick,
        f"{command}: config key {key!r} must be str, got None",
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_numbers_as_text_are_converted_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": "3", "quad_level": 4, "probe": False}))
    assert main(["counterexample", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert len(_read(tmp_path / "o" / "counterexample.json")["rows"]) == 3
    # a null keeps a default that is null, as profile_level's is
    seq = tmp_path / "seq"
    save_sequence(str(seq), two_profile_sequence(range(1, 9), level=3))
    cfg.write_text(json.dumps({"epsilon": "0.1", "profile_level": None, "cauchy_tol": 1}))
    out = tmp_path / "d"
    assert main(["decompose", "--input", str(seq), "--config", str(cfg), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    ref = tmp_path / "r"
    assert main(["decompose", "--input", str(seq), "--epsilon", "0.1", "--cauchy-tol", "1",
                 "--out-dir", str(ref)]) == 0
    capsys.readouterr()
    for p in sorted(ref.iterdir()):
        assert p.read_bytes() == (out / p.name).read_bytes()


# -- counterexample --------------------------------------------------------------

def test_counterexample_outputs_and_determinism(tmp_path, capsys):
    args = ["counterexample", "--n-max", "8", "--quad-level", "6"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    for name in ("counterexample.csv", "counterexample.json", "counterexample.plt", "probe.json"):
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between runs"
    doc = _read(d1 / "counterexample.json")
    assert doc["ok"] is True
    probe = _read(d1 / "probe.json")
    assert abs(probe["fit_exponent"] + 1.0) <= 0.2
    plt = (d1 / "counterexample.plt").read_text()
    assert "set logscale xy" in plt


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n-max", "0", "n_max must be at least 1, got 0"),
        ("--n-max", "1", "the decay fit needs at least two distinct n, got (1,)"),
        ("--dim", "1", "dim must be 2 or 3, got 1"),
        ("--dim", "4", "dim must be 2 or 3, got 4"),
        ("--quad-level", "-1", "quad_level must be at least 0, got -1"),
        ("--q-list", "0", "counterexample: --q-list entries must be positive numbers, got '0'"),
        ("--q-list", "1,x", "counterexample: --q-list entries must be positive numbers, got 'x'"),
        ("--q-list", ",", "counterexample: empty --q-list: ','"),
    ],
)
def test_counterexample_bad_argument_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "o"
    assert main(["counterexample", "--out-dir", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_counterexample_infinite_q_writes_strict_json(tmp_path, capsys):
    out = tmp_path / "cx"
    argv = ["counterexample", "--q-list", "1,inf", "--n-max", "3", "--no-probe"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    capsys.readouterr()
    docs = [json.loads(p.read_text(), parse_constant=_reject_constant) for p in out.glob("*.json")]
    assert len(docs) == 1
    assert docs[0]["q_list"] == [1.0, "inf"]
    assert set(docs[0]["rows"][0]["lorentz"]) == {"1.0", "inf"}
    assert docs[0]["invariants"]["lorentz_decreasing_qinf"]["ok"]
    assert "lorentz_qinf" in (out / "counterexample.csv").read_text().splitlines()[0]


def test_counterexample_refusal_writes_no_file(tmp_path, capsys):
    # q = 1e-320 puts p/q past a double, so every Lorentz value is infinite
    out = tmp_path / "cx"
    argv = ["counterexample", "--q-list", "1e-320", "--n-max", "3", "--no-probe"]
    message = "counterexample.json: output holds a value that overflows a double"
    _assert_refused(capsys, argv + ["--out-dir", str(out)], message)
    assert not out.exists()


def test_counterexample_single_staircase_without_probe_runs(tmp_path, capsys):
    # the report needs one staircase; only the probe's decay fit needs two
    out = tmp_path / "o"
    assert main(["counterexample", "--n-max", "1", "--no-probe", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert [row["n"] for row in _read(out / "counterexample.json")["rows"]] == [1]
    assert not (out / "probe.json").exists()


@pytest.mark.parametrize("dim, n_max", [(2, 21), (3, 600), (2, 1100)])
def test_counterexample_n_max_above_the_scale_bound_is_usage_error(tmp_path, capsys, dim, n_max):
    out = tmp_path / "o"
    argv = ["counterexample", "--dim", str(dim), "--n-max", str(n_max), "--no-probe",
            "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: n_max must be at most 20, got {n_max}: "
        "the probe zooms out to j = -n_max and the group bounds |j| by 20\n"
    )
    assert not out.exists()


def test_counterexample_n_max_at_the_scale_bound_runs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["counterexample", "--n-max", "20", "--quad-level", "5", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert _read(out / "probe.json")["ns"] == list(range(1, 21))
    assert len(_read(out / "counterexample.json")["rows"]) == 20


def test_counterexample_quadrature_guard_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature nodes allocated past the guard")

    monkeypatch.setattr(cx, "_radius_field", no_quadrature)
    out = tmp_path / "o"
    argv = ["counterexample", "--n-max", "4", "--quad-level", "14", "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: probe quadrature at level 14 needs 2^28 nodes in dim 2, guard is 2^27\n"
    )
    assert not out.exists()


# -- decompose --------------------------------------------------------------------

def test_decompose_roundtrip_and_audits(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 9), level=5))
    out1 = tmp_path / "d1"
    rc = main(
        ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out1)]
    )
    assert rc == 0
    assert "2 profiles" in capsys.readouterr().out
    doc = _read(out1 / "decomposition.json")
    assert doc["terminated_by"] == "epsilon"
    assert len(doc["profiles"]) == 2
    audits = _read(out1 / "audits.json")
    assert audits["ok"] is True
    assert audits["energy"]["ok"] and audits["separation"]["ok"]
    assert all(
        row["q2"] == 0.0 for row in audits["remainder_lorentz_critical"]
    )

    # byte-identical rerun
    out2 = tmp_path / "d2"
    assert (
        main(["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out2)])
        == 0
    )
    capsys.readouterr()
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes()


def test_decompose_cauchy_failure_exit_one(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 5), level=5))
    rc = main(
        ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "not Cauchy" in capsys.readouterr().err


def test_decompose_window_guard_is_usage_error(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 9), level=3))
    argv = ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(tmp_path / "o")]
    assert main(argv + ["--profile-level", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: window of radius 4 at level 9 needs 16777216 cells")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--window-radius", "0", "window_radius must be at least 1, got 0"),
        ("--stride", "0", "stride must be at least 1, got 0"),
        ("--stride", "-3", "stride must be at least 1, got -3"),
        ("--scale-window", "-1", "scale_window must be nonnegative, got -1"),
        ("--cauchy-tol", "-1", "cauchy_tol must be nonnegative, got -1.0"),
        ("--stride", "3", "need at least three sequence elements for the tail check, got 2"),
        ("--epsilon", "inf", "epsilon must be finite and nonnegative, got inf"),
        ("--epsilon", "nan", "epsilon must be finite and nonnegative, got nan"),
        ("--epsilon", "-1", "epsilon must be finite and nonnegative, got -1.0"),
        ("--max-profiles", "-1", "max_profiles must be nonnegative, got -1"),
        ("--scale-window", "41", "scale_window must be at most 40, got 41"),
        ("--profile-level", "-1", "profile_level must be from 0 to 19, got -1"),
    ],
)
def test_decompose_bad_argument_is_usage_error(tmp_path, capsys, flag, value, message):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 5)))
    out = tmp_path / "o"
    argv = ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out)]
    assert main(argv + [flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--delta", "nan", "delta must be finite and nonnegative, got nan"),
        ("--separation-floor", "inf", "separation floor must be finite and nonnegative, got inf"),
    ],
)
def test_decompose_bad_audit_argument_is_usage_error(tmp_path, capsys, flag, value, message):
    # the audits' thresholds are refused before extraction: this tail is not
    # Cauchy, so an extraction would end in exit 1 first
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 5)))
    out = tmp_path / "o"
    argv = ["decompose", "--input", str(seq_dir), "--epsilon", "0.1", "--out-dir", str(out)]
    assert main(argv + [flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "factor, message",
    [
        (1e307, "scaling values by 2^5 overflows a double: values must be finite: "
         "4 of 64 cells hold NaN or inf"),
        (1e305, "the cube masses at scale 0 overflow a double"),
    ],
)
def test_decompose_overflow_is_refused_without_output(tmp_path, capsys, factor, message):
    seq = [
        DyadicSum(e.dim, tuple(Term(t.coeff, t.g, _scaled(t.u, factor)) for t in e.terms))
        for e in two_profile_sequence(range(1, 9), level=3)
    ]
    save_sequence(str(tmp_path / "seq"), seq)
    out = tmp_path / "o"
    argv = ["decompose", "--input", str(tmp_path / "seq"), "--epsilon", "0.1"]
    _assert_refused(capsys, argv + ["--out-dir", str(out)], message)
    assert not out.exists()


def _scaled(u, factor):
    return GridFunction(u.dim, u.level, u.origin, u.extents, u.values * factor)


def test_decompose_of_a_term_past_the_level_range_is_refused_without_output(tmp_path, capsys):
    # each grid loads at level 340 (340 * 3 <= 1022); j = 20 realizes it at
    # level 360, whose cell measure 2^-1080 is 0.0 and gave zero norms
    u = GridFunction(3, 340, (0, 0, 0), (2, 2, 2), np.ones((2, 2, 2)))
    term = Term(1.0, GroupElement(20, DyadicVector.zero(3)), u)
    save_sequence(str(tmp_path / "seq"), [DyadicSum(3, (term,))] * 3)
    out = tmp_path / "o"
    argv = ["decompose", "--input", str(tmp_path / "seq"), "--epsilon", "0.1", "--out-dir", str(out)]
    message = "level 360 is out of range for dimension 3: its cell measure 2^-1080 is not a normal double"
    _assert_refused(capsys, argv, message)
    assert not out.exists()


def test_decompose_requires_epsilon(tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    save_sequence(str(seq_dir), two_profile_sequence(range(1, 4), level=4))
    assert main(["decompose", "--input", str(seq_dir)]) == 2
    assert "epsilon" in capsys.readouterr().err


# -- sequence manifests -------------------------------------------------------------

@pytest.fixture(scope="module")
def saved_seq(tmp_path_factory):
    d = tmp_path_factory.mktemp("saved") / "seq"
    save_sequence(str(d), two_profile_sequence(range(1, 4), level=3))
    return d


def _seq_copy(saved_seq, tmp_path, edit):
    d = tmp_path / "seq"
    shutil.copytree(saved_seq, d)
    manifest = json.loads((d / "manifest.json").read_text())
    text = edit(manifest)
    (d / "manifest.json").write_text(text if isinstance(text, str) else json.dumps(manifest))
    return d


def _set(path, value):
    """An edit that puts ``value`` at ``path`` (keys and indices) of the manifest."""
    def edit(m):
        for key in path[:-1]:
            m = m[key]
        m[path[-1]] = value
    return edit


def _drop(path):
    def edit(m):
        for key in path[:-1]:
            m = m[key]
        del m[path[-1]]
    return edit


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda m: "[1, 2]", "must hold a JSON object"),
        (lambda m: "", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (_drop(["dim"]), "dim must be 1, 2 or 3, got None"),
        (_set(["dim"], 4), "dim must be 1, 2 or 3, got 4"),
        (_set(["dim"], "2"), "dim must be 1, 2 or 3, got '2'"),
        (_set(["dim"], True), "dim must be 1, 2 or 3, got True"),
        (_drop(["schema_version"]), "schema_version must be 1, got None"),
        (_set(["schema_version"], 2), "schema_version must be 1, got 2"),
        (_set(["elements"], {"0": {}}), "elements must be a list"),
        (_set(["elements", 1], 7), "element 1: terms must be a list"),
        (_set(["elements", 1, "terms"], "t"), "element 1: terms must be a list"),
        (_drop(["elements", 2, "terms", 0, "coeff"]), "element 2 term 0: needs coeff, g, grid"),
        (_drop(["elements", 0, "terms", 1, "g"]), "element 0 term 1: needs coeff, g, grid"),
        (_drop(["elements", 0, "terms", 0, "grid"]), "element 0 term 0: needs coeff, g, grid"),
        (_set(["elements", 0, "terms", 0], [1]), "element 0 term 0: needs coeff, g, grid"),
        (_set(["elements", 0, "terms", 1, "coeff"], float("nan")),
         "element 0 term 1: coeff is not a finite number: nan"),
        (_set(["elements", 0, "terms", 1, "coeff"], float("-inf")),
         "element 0 term 1: coeff is not a finite number: -inf"),
        (_set(["elements", 0, "terms", 1, "coeff"], 10**400),
         f"element 0 term 1: coeff is not a finite number: {10**400!r}"),
        (_set(["elements", 0, "terms", 1, "coeff"], "1.0"),
         "element 0 term 1: coeff is not a finite number: '1.0'"),
        (_set(["elements", 0, "terms", 1, "coeff"], True),
         "element 0 term 1: coeff is not a finite number: True"),
        (_set(["elements", 1, "terms", 0, "g"], {"j": 0}),
         "element 1 term 0: g is no dim-2 element: {'j': 0}"),
        (_set(["elements", 1, "terms", 0, "g"], {"j": "x", "y": {"numerators": [0, 0], "level": 0}}),
         "element 1 term 0: g is no dim-2 element: {'j': 'x', 'y': {'numerators': [0, 0], 'level': 0}}"),
        (_set(["elements", 1, "terms", 0, "g"], [0]), "element 1 term 0: g is no dim-2 element: [0]"),
        (_set(["elements", 1, "terms", 0, "g"], {"j": 0, "y": {"numerators": [0, 0, 0], "level": 0}}),
         "element 1 term 0: g is no dim-2 element: {'j': 0, 'y': {'numerators': [0, 0, 0], 'level': 0}}"),
        # int() would load these as j = 1, level 1 and numerators (1, 0), (1, 2), (2, 0)
        (_set(["elements", 1, "terms", 1, "g", "j"], 1.5),
         "element 1 term 1: g is no dim-2 element: {'j': 1.5, 'y': {'level': 0, 'numerators': [2, 0]}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "level"], True),
         "element 1 term 1: g is no dim-2 element: {'j': 2, 'y': {'level': True, 'numerators': [2, 0]}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "numerators"], ["1", 0.9]),
         "element 1 term 1: g is no dim-2 element: {'j': 2, 'y': {'level': 0, 'numerators': ['1', 0.9]}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "numerators"], "12"),
         "element 1 term 1: g is no dim-2 element: {'j': 2, 'y': {'level': 0, 'numerators': '12'}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "numerators"], [2.0, 0]),
         "element 1 term 1: g is no dim-2 element: {'j': 2, 'y': {'level': 0, 'numerators': [2.0, 0]}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "level"], -10**7),
         "element 1 term 1: g is no dim-2 element: {'j': 2, 'y': {'level': -10000000, 'numerators': [2, 0]}}"),
        (_set(["elements", 1, "terms", 1, "g", "y", "level"], -70),
         "element 1 term 1: g places grid element1_term1.grid outside +-2^53 cells"),
        (_set(["elements", 1, "terms", 1, "g", "y", "level"], -1000),
         "element 1 term 1: g places grid element1_term1.grid outside +-2^53 cells"),
        (_set(["elements", 1, "terms", 1, "g"], {"j": 0, "y": {"numerators": [1, 0], "level": 2000}}),
         "element 1 term 1: y has level 2000, above 1022"),
        (_set(["elements", 1, "terms", 1, "g", "j"], 21), "element 1 term 1: |j| = 21 exceeds 20"),
        (_set(["elements", 1, "terms", 1, "g", "j"], -10**12), "element 1 term 1: |j| = 1000000000000 exceeds 20"),
        (_set(["elements", 0, "terms", 0, "grid"], "../seq/element0_term0.grid"),
         "element 0 term 0: grid is not a bare file name: '../seq/element0_term0.grid'"),
        (_set(["elements", 0, "terms", 0, "grid"], "/etc/hosts"),
         "element 0 term 0: grid is not a bare file name: '/etc/hosts'"),
        (_set(["elements", 0, "terms", 0, "grid"], ""), "element 0 term 0: grid is not a bare file name: ''"),
        (_set(["elements", 0, "terms", 0, "grid"], ".."),
         "element 0 term 0: grid is not a bare file name: '..'"),
        (_set(["elements", 0, "terms", 0, "grid"], 5), "element 0 term 0: grid is not a bare file name: 5"),
    ],
)
def test_decompose_malformed_manifest_is_usage_error(saved_seq, tmp_path, capsys, edit, fault):
    d = _seq_copy(saved_seq, tmp_path, edit)
    out = tmp_path / "o"
    argv = ["decompose", "--input", str(d), "--epsilon", "0.1", "--out-dir", str(out)]
    _assert_refused(capsys, argv, f"{d / 'manifest.json'}: {fault}")
    assert not out.exists()
    with pytest.raises(ValueError):  # SequenceFormatError is a ValueError
        load_sequence(str(d))


def test_decompose_manifest_grid_of_another_dim_is_usage_error(saved_seq, tmp_path, capsys):
    d = _seq_copy(saved_seq, tmp_path, lambda m: None)
    save_grid(GridFunction(3, 0, (0, 0, 0), (1, 1, 1), np.ones((1, 1, 1))), d / "element0_term0.grid")
    argv = ["decompose", "--input", str(d), "--epsilon", "0.1", "--out-dir", str(tmp_path / "o")]
    fault = "element 0 term 0: grid element0_term0.grid has dim 3, manifest has dim 2"
    _assert_refused(capsys, argv, f"{d / 'manifest.json'}: {fault}")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_decompose_on_every_manifest_prefix_is_usage_error(saved_seq, data):
    # the saved text ends in a newline; without it the manifest is whole
    text = (saved_seq / "manifest.json").read_text().rstrip()
    cut = data.draw(st.integers(0, len(text) - 1))
    with tempfile.TemporaryDirectory() as d:
        seq = Path(d) / "seq"
        shutil.copytree(saved_seq, seq)
        (seq / "manifest.json").write_text(text[:cut])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["decompose", "--input", str(seq), "--epsilon", "0.1", "--out-dir", str(seq / "o")])
    assert rc == 2
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# -- audit ------------------------------------------------------------------------

def test_audit_green(tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = main(["audit", "--count", "8", "--out", str(out)])
    assert rc == 0
    assert "suites ok" in capsys.readouterr().out
    doc = _read(out)
    assert doc["ok"] is True
    assert set(doc["suites"]) == {
        "rearrangement_equality",
        "group_isometry",
        "lattice_splitting",
        "chain_rule",
        "truncation_layers",
        "lorentz_nesting",
    }
    assert all(s["ok"] for s in doc["suites"].values())


def test_audit_negative_control_fails_exactly_chain_rule(tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = main(
        ["audit", "--count", "6", "--negative-control", "broken-chi", "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "chain_rule" in err
    doc = _read(out)
    assert doc["ok"] is False
    for name, suite in doc["suites"].items():
        if name == "chain_rule":
            assert not suite["ok"]
        else:
            assert suite["ok"], f"{name} must stay green under the chi control"


def _pinned_suites(count: int, violations: list[str]) -> dict:
    """The suites of an audit at seed 7 over dims 1,2,3 with ``count`` grids
    per dim; each worst value is spelled by its ``float.hex()``."""
    ok = not violations
    return {
        "rearrangement_equality": {"count": count, "worst_rel_dev": "0x1.4b11d525a7d4bp-52",
                                   "tolerance": 1e-10, "ok": True},
        "group_isometry": {"count": 3 * count, "worst_defect": "0x1.2ad5713e9d53cp-52",
                           "tolerance": 1e-12, "ok": True},
        "lattice_splitting": {"count": 3 * count, "worst_fraction_of_bound": "0x1.5555555555556p-2",
                              "ok": True},
        "chain_rule": {"count": 9 * (count + 1), "violations": violations, "ok": ok},
        "truncation_layers": {"count": count, "worst_band_factor": "0x1.7a0f056cda15fp+1", "ok": True},
        "lorentz_nesting": {"count": 2 * count, "ok": True},
    }


@pytest.mark.parametrize(
    "extra, rc, suites",
    [
        (["--count", "5"], 0, _pinned_suites(5, [])),
        (["--count", "6", "--negative-control", "broken-chi"], 1, _pinned_suites(6, ["chi-broken"])),
    ],
    ids=["count-5", "count-6-broken-chi"],
)
def test_audit_outputs_are_pinned(tmp_path, capsys, extra, rc, suites):
    out = tmp_path / "audit.json"
    assert main(["audit", "--seed", "7", "--dims", "1,2,3", *extra, "--out", str(out)]) == rc
    got = {
        name: {key: value.hex() if key.startswith("worst_") else value for key, value in suite.items()}
        for name, suite in _read(out)["suites"].items()
    }
    assert got == suites


@pytest.mark.parametrize("defects", [[math.nan, 0.0], [0.0, math.nan]])
def test_audit_nan_defect_fails_its_suite(monkeypatch, tmp_path, capsys, defects):
    # max() would drop the NaN wherever it sits; each defect is checked on its own
    monkeypatch.setattr(cli, "isometry_defects", lambda g, u, norm_ids: defects)
    out = tmp_path / "audit.json"
    assert main(["audit", "--count", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "audit: FAILED suites: group_isometry\n"
    assert _read(out)["suites"]["group_isometry"] == {
        "count": 2, "worst_defect": 0.0, "tolerance": 1e-12, "ok": False
    }


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dims", "4", "--dims entries must be 1, 2 or 3, got '4'"),
        ("--dims", "x", "--dims entries must be 1, 2 or 3, got 'x'"),
        ("--dims", "1,,2", "--dims entries must be 1, 2 or 3, got ''"),
        ("--count", "0", "--count must be at least 1, got 0"),
        ("--count", "-2", "--count must be at least 1, got -2"),
        ("--seed", "-1", "--seed must be at least 0, got -1"),
    ],
)
def test_audit_bad_argument_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "audit.json"
    _assert_refused(capsys, ["audit", flag, value, "--out", str(out)], f"audit: {message}")
    assert not out.exists()


# -- argv fuzz --------------------------------------------------------------------

def test_input_of_the_wrong_kind_is_usage_error(tmp_path, saved_grid, capsys):
    for argv in (["norms", "--input", str(tmp_path)],
                 ["decompose", "--input", str(saved_grid), "--epsilon", "0.1"],
                 ["counterexample", "--n-max", "2", "--no-probe", "--out-dir", str(saved_grid)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_grid(GridFunction(2, 3, (0, 0), (8, 8), np.arange(64.0).reshape(8, 8)), root / "ok.grid")
    save_sequence(str(root / "seq"), two_profile_sequence(range(1, 9), level=3))
    return root


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one run; any other exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses what its types cannot parse
            rc = exc.code
    return rc, err.getvalue()


def _at_most(cap):
    """Keeps a value that is no integer or at most ``cap``: a valid request for
    more work (--count, --quad-level) only slows the test down."""
    def small(text):
        try:
            return int(text) <= cap
        except ValueError:
            return True
    return small


_GARBAGE = st.one_of(
    st.sampled_from(["", "x", "-1", "0", "1.5", "nan", "inf", "-inf", "1e400", "1e-320", "5e-324",
                     ",", "1,,2", "99999999999999999999", "-99999999999999999999"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
)

# per subcommand: the baseline, then per flag the values that must be refused
# (beyond text its type cannot parse) and a filter on the garbage it may take
_FUZZ = {
    "norms": (["--input", "ok.grid", "--out", "OUT/n.json"], {
        "--q-list": (["0", "x", ",", "-inf", "1.0000001,1.0000002"], None),
    }),
    "counterexample": (["--n-max", "3", "--quad-level", "3", "--out-dir", "OUT/cx"], {
        "--dim": (["1", "4", "99999999999999999999"], None),
        "--n-max": (["0", "1", "21", "99999999999999999999"], None),
        "--quad-level": (["-1", "14", "99999999999999999999"], _at_most(6)),
        "--q-list": (["0", "nan", "", "1,1.0000001"], None),
    }),
    "decompose": (["--input", "seq", "--epsilon", "0.1", "--out-dir", "OUT/d"], {
        "--epsilon": (["nan", "inf", "-1", "1e400"], None),
        "--max-profiles": (["-1"], None),
        "--scale-window": (["-1", "41", "99999999999999999999"], None),
        "--window-radius": (["0", "524289", "99999999999999999999"], None),
        "--cauchy-tol": (["-1", "nan"], None),
        "--stride": (["0", "9"], None),
        "--profile-level": (["-1", "20", "99999999999999999999"], None),
        "--delta": (["nan", "inf", "-1"], None),
        "--separation-floor": (["nan", "-inf"], None),
    }),
    "audit": (["--count", "1", "--dims", "1", "--out", "OUT/a.json"], {
        "--seed": (["-1", "-99999999999999999999"], None),
        "--dims": (["4", "", "1,,2", "x"], None),
        "--count": (["0", "-1"], _at_most(2)),
        "--negative-control": (["x", ""], None),
    }),
}

def _unparseable(command: str, flag: str, text: str) -> bool:
    """Whether argparse refuses ``text`` for ``flag`` by its type."""
    typ = next(a.type for a in _actions(command) if flag in a.option_strings)
    if typ is None:
        return False
    try:
        typ(text)
    except ValueError:
        return True
    return False


_OUT_FLAG = {"norms": "--out", "counterexample": "--out-dir", "decompose": "--out-dir", "audit": "--out"}
_CONFIG_FAULTS = ["missing", "dir", "truncated", "not-an-object", "unknown-key", "bytes"]
_INPUT_FAULTS = ["missing", "wrong-kind", "truncated", "bytes"]


def _file_faults(command: str) -> list[tuple[str, str]]:
    faults = [(_OUT_FLAG[command], "wrong-kind"), (_OUT_FLAG[command], "under-a-file")]
    faults += [("--config", fault) for fault in _CONFIG_FAULTS]
    if command in ("norms", "decompose"):
        faults += [("--input", fault) for fault in _INPUT_FAULTS]
    return faults


def _damage(work: Path, command: str, flag: str, fault: str, cut: int, junk: bytes) -> str:
    """Apply one file fault in ``work``; returns the value to pass to ``flag``."""
    target = work / "target"
    if flag == "--config":
        text = {"truncated": '{"count": 1', "not-an-object": "[1, 2]",
                "unknown-key": '{"no_such_key": 1}'}.get(fault)
        if fault == "dir":
            target.mkdir()
        elif fault == "bytes":
            target.write_bytes(junk)
        elif text is not None:
            target.write_text(text)
        return str(target)
    if flag in ("--out", "--out-dir"):
        if fault == "wrong-kind":  # a directory for a file, a file for a directory
            target.mkdir() if flag == "--out" else target.write_text("")
            return str(target)
        target.write_text("")
        return str(target / "below")
    grid, seq = work / "ok.grid", work / "seq"
    if fault == "missing":
        return str(work / "missing")
    if fault == "wrong-kind":
        return str(seq if command == "norms" else grid)
    victim = grid if command == "norms" else seq / ("manifest.json" if cut % 2 else "element3_term1.grid")
    data = victim.read_bytes().rstrip(b"\n")  # the manifest is whole without its newline
    victim.write_bytes(junk if fault == "bytes" else data[: cut % len(data)])
    return str(victim if command == "norms" else seq)


def _assert_clean_exit(argv, must_refuse: bool) -> None:
    rc, err = _run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if must_refuse:
        assert rc == 2, (argv, rc, err)
    if rc == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)


def _fuzz_argv(command: str, fuzz_files: Path, work: Path, extra: list[str]) -> list[str]:
    shutil.copy(fuzz_files / "ok.grid", work / "ok.grid")
    shutil.copytree(fuzz_files / "seq", work / "seq")
    base, _ = _FUZZ[command]
    argv = [command] + [str(work / a) if a in ("ok.grid", "seq") else a for a in base]
    return [a.replace("OUT", str(work)) for a in argv] + extra


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command, (_, flags) in sorted(_FUZZ.items())
    for flag, (invalid, _) in sorted(flags.items())
    for value in invalid
])
def test_argv_fuzz_table_values_are_refused(fuzz_files, tmp_path, command, flag, value):
    _assert_clean_exit(_fuzz_argv(command, fuzz_files, tmp_path, [flag, value]), must_refuse=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(_FUZZ))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_argv_fuzz_garbage_values(fuzz_files, command, data):
    _, flags = _FUZZ[command]
    flag = data.draw(st.sampled_from(sorted(flags)))
    invalid, keep = flags[flag]
    garbage = _GARBAGE if keep is None else _GARBAGE.filter(keep)
    value = data.draw(st.one_of(st.sampled_from(invalid), garbage) if invalid else garbage)
    must_refuse = value in invalid or _unparseable(command, flag, value)
    with tempfile.TemporaryDirectory() as d:
        _assert_clean_exit(_fuzz_argv(command, fuzz_files, Path(d), [flag, value]), must_refuse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(_FUZZ))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_argv_fuzz_damaged_files(fuzz_files, command, data):
    flag, fault = data.draw(st.sampled_from(_file_faults(command)))
    cut = data.draw(st.integers(0, 10**6))
    junk = data.draw(st.binary(max_size=64))
    with tempfile.TemporaryDirectory() as d:
        work = Path(d)
        argv = _fuzz_argv(command, fuzz_files, work, [])
        value = _damage(work, command, flag, fault, cut, junk)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        # junk bytes may happen to be a valid config, such as {}
        _assert_clean_exit(argv, must_refuse=(flag, fault) != ("--config", "bytes"))
