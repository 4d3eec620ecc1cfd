"""Acceptance gate: nine criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict;
each criterion prints exactly one PASS/FAIL line and then asserts it.
Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from bvlorentz.bv import ScalarC1, compose_scalar, lattice_tv_sum, total_variation
from bvlorentz.cli import main as cli_main
from bvlorentz.corpus import corpus_elements, corpus_grids, corpus_steps
from bvlorentz.counterexample import dvanishing_probe, run_counterexample
from bvlorentz.group import compose, identity, inverse, isometry_defect
from bvlorentz.layers import build_profile, chi_function, layer_energy_audit, scaled_chi_function
from bvlorentz.profiles import (
    energy_audit,
    extract_profiles,
    remainder_lorentz,
    separation_check,
    tent_bump,
    two_profile_sequence,
)
from bvlorentz.radial import RadialStep, staircase
from bvlorentz.rearrange import (
    LorentzIndex,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- 1: concentration family closed forms -------------------------------------

def test_criterion_1_counterexample_closed_forms():
    t0 = time.perf_counter()
    rep = run_counterexample(dim=2, n_max=12, q_list=(1.0, 1.2, 1.5, 2.0))
    elapsed = time.perf_counter() - t0

    problems = []
    for r in rep.rows:
        if _rel(r.l2_norm, math.sqrt(3.0 * math.pi / r.n)) > 1e-10:
            problems.append(f"l2 off at n={r.n}")
    pairings = [r.pairing for r in rep.rows]
    if max(abs(v - 2.0 * math.pi) for v in pairings) / (2.0 * math.pi) > 1e-12:
        problems.append("pairing not constant 2pi to 1e-12")
    if min(pairings) < 1.5 * math.pi:
        problems.append("pairing below the 3pi/2 floor")
    q1 = [r.lorentz[1.0] for r in rep.rows]
    if min(q1) / q1[0] < 0.5:
        problems.append("q=1 column vanished")
    ns = [r.n for r in rep.rows]
    for q in (1.5, 2.0):
        series = [r.lorentz[q] for r in rep.rows]
        slope, _ = np.polyfit(np.log(ns), np.log(series), 1)
        if abs(slope - (1.0 / q - 1.0)) > 0.1:
            problems.append(f"q={q} decay fit {slope:.3f} off 1/q-1")
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")

    _verdict(
        1,
        not problems,
        problems[0] if problems else f"n=1..12 closed forms ok in {elapsed * 1000:.0f} ms",
    )


# -- 2: quasinorm definition equality ------------------------------------------

def test_criterion_2_definition_equality():
    samples = list(corpus_steps(seed=11, count=50))
    # the indicator of the shell 1 < |x| <= 2
    samples.append(RadialStep(2, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])).rearrangement)
    samples += [staircase(2, n).rearrangement for n in range(1, 13)]

    pairs = [(2.0, 1.0), (2.0, 1.5), (2.0, 2.0), (2.0, math.inf), (1.5, 1.2), (3.0, 2.5)]
    worst_eq = 0.0
    worst_diag = 0.0
    for s in samples:
        for p, q in pairs:
            direct = lorentz_norm(s, LorentzIndex(p, q))
            sym = lorentz_norm_symmetrization(s, LorentzIndex(p, q), dim=2)
            worst_eq = max(worst_eq, _rel(direct, sym))
        for p in (1.0, 1.7, 2.4):
            worst_diag = max(
                worst_diag,
                _rel(lorentz_norm(s, LorentzIndex(p, p)), lebesgue_norm(s, p)),
            )
    ok = worst_eq <= 1e-10 and worst_diag <= 1e-10
    _verdict(
        2,
        ok,
        f"{len(samples)} samples: eq dev {worst_eq:.2e}, diagonal dev {worst_diag:.2e}",
    )


# -- 3: group isometry and axioms -----------------------------------------------

def test_criterion_3_group_isometry():
    grids = corpus_grids(seed=23, dim=2, count=25)
    els = corpus_elements(seed=29, dim=2, count=100)
    pcrit = critical_exponent(2)
    norm_ids = ["bv"] + [("lorentz", pcrit, q) for q in (1.0, 1.2, pcrit, 2.0, math.inf)]

    worst = 0.0
    for i, g in enumerate(els):
        u = grids[i % len(grids)]
        for nid in norm_ids:
            worst = max(worst, isometry_defect(g, u, nid))

    axioms = True
    e = identity(2)
    for i, g in enumerate(els):
        axioms = axioms and compose(g, inverse(g)) == e and compose(inverse(g), g) == e
        h = els[(i + 1) % len(els)]
        k = els[(i + 2) % len(els)]
        axioms = axioms and compose(compose(g, h), k) == compose(g, compose(h, k))

    ok = worst <= 1e-12 and axioms
    _verdict(3, ok, f"100 pairs: max defect {worst:.2e}, axioms exact: {axioms}")


# -- 4: lattice splitting estimate ----------------------------------------------

def test_criterion_4_lattice_estimate():
    violations = 0
    checked = 0
    for dim in (1, 2):
        for u in corpus_grids(seed=37, dim=dim, count=25):
            rep = lattice_tv_sum(u)
            checked += 1
            if rep.sum_per_cube > 3**dim * rep.total * (1 + 1e-9):
                violations += 1
    _verdict(4, violations == 0, f"{checked} samples, {violations} violations")


# -- 5: truncation layer machinery ----------------------------------------------

def test_criterion_5_layer_machinery():
    p = build_profile(2)
    chi = chi_function(p)
    problems = []

    ts = np.linspace(0.0, 1.5 * p.upper, 1000)
    out = chi(ts)
    plateau = (ts >= 1.0) & (ts <= p.plateau_hi)
    if not np.allclose(out[plateau], ts[plateau], atol=0.0):
        problems.append("plateau is not the identity")
    outside = (ts <= p.lower) | (ts >= p.upper)
    if np.any(out[outside] != 0.0):
        problems.append("support leaks outside (lower, upper)")
    if np.any(out > ts + 1.0):
        problems.append("chi(t) > t + 1 somewhere")
    slopes = np.abs(np.diff(out) / np.diff(ts))
    if np.max(slopes) > p.derivative_bound * (1 + 1e-9):
        problems.append("sampled slope exceeds the stored bound")
    if any(
        scaled_chi_function(p, j).derivative_bound != p.derivative_bound
        for j in range(-5, 6)
    ):
        problems.append("rescaled layer changed the Lipschitz constant")

    worst_band = 0.0
    for u in corpus_grids(seed=41, dim=2, count=25):
        audit = layer_energy_audit(u, p)
        if not audit.color_disjoint_ok:
            problems.append("same-color layers overlap")
        if audit.tv_total > 0:
            worst_band = max(worst_band, audit.band_tv_sum / audit.tv_total)
        if not audit.band_sum_ok:
            problems.append("band sum exceeded 4 TV")

    _verdict(
        5,
        not problems,
        problems[0] if problems else f"1000-pt chi checks ok, worst band factor {worst_band:.2f} <= 4",
    )


# -- 6: chain rule -----------------------------------------------------------------

def _smoothstep(t: np.ndarray) -> np.ndarray:
    x = np.clip(t, 0.0, 1.0)
    return 3.0 * x**2 - 2.0 * x**3


def test_criterion_6_chain_rule():
    profile = build_profile(2)
    maps = [
        chi_function(profile),
        ScalarC1(lambda t: 0.5 * t, 0.5, "half"),
        ScalarC1(_smoothstep, 1.5, "smoothstep"),
    ]
    violations = 0
    checked = 0
    for dim in (1, 2):
        for u in corpus_grids(seed=43, dim=dim, count=25):
            for phi in maps:
                _, rep = compose_scalar(phi, u)
                checked += 1
                if rep.tv_composed > rep.bound * (1 + 1e-9):
                    violations += 1
    _verdict(6, violations == 0, f"{checked} compositions, {violations} violations")


# -- 7: profile extraction contract -------------------------------------------------

def test_criterion_7_profile_extraction():
    t0 = time.perf_counter()
    seq = two_profile_sequence(range(1, 9), dim=2, level=6)
    decomp = extract_profiles(seq, epsilon=0.1)
    elapsed = time.perf_counter() - t0

    problems = []
    if len(decomp.profiles) != 2:
        problems.append(f"expected 2 profiles, got {len(decomp.profiles)}")
    else:
        truth = [
            total_variation(tent_bump(2, 6, height=2.0)),
            total_variation(tent_bump(2, 6, height=1.0)),
        ]
        for got, want in zip(sorted((p.tv for p in decomp.profiles), reverse=True), truth):
            if _rel(got, want) > 0.05:
                problems.append(f"profile tv {got:.4f} vs truth {want:.4f}")

    pcrit = critical_exponent(2)
    initial = [
        lorentz_norm(u, LorentzIndex(pcrit, 2.0)) for u in seq
    ]
    leftover = remainder_lorentz(decomp, pcrit, (2.0,))
    for row, init in zip(leftover, initial):
        if row["q2"] > 0.1 * init:
            problems.append("remainder too large in the critical weak-type norm")
            break

    if not separation_check(decomp, floor=1.0).ok:
        problems.append("separation audit failed")
    if not energy_audit(decomp, delta=0.1).ok:
        problems.append("energy audit failed")
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")

    _verdict(
        7,
        not problems,
        problems[0] if problems else f"2 profiles recovered exactly in {elapsed:.1f}s",
    )


# -- 8: cocompactness consistency ----------------------------------------------------

def test_criterion_8_mass_escape_probe():
    rep = run_counterexample(dim=2, n_max=12, q_list=(1.0, 1.2, 1.5, 2.0))
    probe = dvanishing_probe(dim=2, n_list=tuple(range(1, 13)), quad_level=9)

    problems = []
    if abs(probe.fit_exponent - (-1.0)) > 0.2:
        problems.append(f"probe fit {probe.fit_exponent:.3f} outside -1 +/- 0.2")
    q1 = [r.lorentz[1.0] for r in rep.rows]
    if min(q1) / q1[0] < 0.5:
        problems.append("q=1 norm vanished but must stay bounded below")
    for q in (1.2, 1.5, 2.0):
        series = [r.lorentz[q] for r in rep.rows]
        if not all(b < a for a, b in zip(series, series[1:])):
            problems.append(f"q={q} norms not strictly decreasing")
        if series[-1] >= 0.75 * series[0]:
            problems.append(f"q={q} norms barely decay")

    _verdict(
        8,
        not problems,
        problems[0]
        if problems
        else f"probe fit {probe.fit_exponent:.3f}, q>1 columns decay, q=1 floor holds",
    )


# -- 9: negative control ---------------------------------------------------------------

def test_criterion_9_negative_control(tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = cli_main(
        ["audit", "--count", "6", "--negative-control", "broken-chi", "--out", str(out)]
    )
    captured = capsys.readouterr()
    ok = rc == 1 and "chain_rule" in captured.err
    _verdict(9, ok, f"exit {rc}, stderr names chain_rule: {'chain_rule' in captured.err}")
