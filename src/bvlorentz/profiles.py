"""Greedy concentration-profile extraction.

Each pass scans dyadic rescalings of every remainder for the unit cube that
captures the most variation-normalized mass, aligns the sequence there,
takes the limit proxy on a fixed observation window, and subtracts the found
profile at its original scale and position.  The score of a cube is the L1
mass of the rescaled function on it; with the variation-preserving
normalization this is invariant when a feature is moved to its native scale,
so a bubble of fixed shape scores the same wherever the sequence put it.
Rescaling only relabels cells, so one pyramid per cluster of pairwise block
sums of |c| scores every cube at every scale; ties go to the smallest |s|
(negative first), then to the lexicographically smallest cube.

The limit proxy is the trimmed materialization of the last aligned element,
guarded by a Cauchy check on the aligned tail.  Sequences that concentrate
nowhere fail the profile-size threshold immediately and come back with an
empty profile list, which is the expected outcome for the staircase family.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import bv
from .grid import GridFunction, MemoryGuardError, from_sampler, load_grid, save_grid, trim
from .group import DyadicVector, GroupElement, inverse
from .multiscale import DyadicSum, dyadic_sum
from .rearrange import LorentzIndex, lorentz_norm, step_from_pairs

__all__ = [
    "NonConvergentSubsequenceError",
    "ExtractedProfile",
    "ProfileDecomposition",
    "extract_profiles",
    "SeparationReport",
    "separation_check",
    "EnergyReport",
    "energy_audit",
    "remainder_lorentz",
    "tent_bump",
    "two_profile_sequence",
    "staircase_sequence",
    "save_sequence",
    "load_sequence",
    "save_decomposition",
    "WINDOW_CELL_GUARD",
]

# Materialization windows stay under this many cells; the cap keeps the
# limit-proxy resamples cheap (a window is a proxy, not a replica of the
# finest grid in the sequence).  A radius or level override that needs more
# raises MemoryGuardError.
WINDOW_CELL_GUARD = 2**20


class NonConvergentSubsequenceError(RuntimeError):
    """Aligned tail is not Cauchy on the window; thin the sequence and retry."""

    def __init__(self, rel_gap: float, tol: float, stride_hint: int):
        self.rel_gap = rel_gap
        self.tol = tol
        self.stride_hint = stride_hint
        super().__init__(
            f"aligned tail is not Cauchy on the window: relative L1 gap "
            f"{rel_gap:.4g} exceeds {tol:.4g}; retry on a thinned subsequence "
            f"(stride >= {stride_hint})"
        )


@dataclass(frozen=True)
class ExtractedProfile:
    function: GridFunction
    tv: float
    alignments: tuple     # per element: h with act(h, u_k) centered at the unit cube
    placements: tuple     # per element: inverse(h), where the profile lives in u_k
    scores: tuple         # per element: captured cube mass that selected h

    def to_dict(self) -> dict:
        return {
            "tv": self.tv,
            "alignments": [g.to_dict() for g in self.alignments],
            "placements": [g.to_dict() for g in self.placements],
            "scores": list(self.scores),
        }


@dataclass(frozen=True)
class ProfileDecomposition:
    dim: int
    profiles: tuple
    remainders: tuple     # DyadicSum per element, after all subtractions
    original_tv: tuple
    remainder_tv: tuple
    scores_history: tuple
    levels: tuple         # materialization level used per pass
    terminated_by: str    # "epsilon" or "max_profiles"
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "dim": self.dim,
            "terminated_by": self.terminated_by,
            "epsilon": self.epsilon,
            "profiles": [p.to_dict() for p in self.profiles],
            "original_tv": list(self.original_tv),
            "remainder_tv": list(self.remainder_tv),
            "scores_history": [list(s) for s in self.scores_history],
            "levels": list(self.levels),
        }


# -- cube search -------------------------------------------------------------

def _halve(a: np.ndarray, origin: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pairwise sums over blocks of two cells per axis, block index = cell
    index >> 1.  An odd start or length is padded with one zero, which keeps
    blocks on the lattice and mirror-image sums bit-identical."""
    a = np.pad(a, [(o & 1, (n + o) & 1) for o, n in zip(origin, a.shape)])
    for axis in range(a.ndim):
        a = a.reshape(a.shape[:axis] + (-1, 2) + a.shape[axis + 1 :]).sum(axis=axis + 1)
    return a, tuple(o >> 1 for o in origin)


def _mass_pyramids(clusters: list[GridFunction], scale_window: int) -> list:
    """Per cluster: (level, [(origin, block sums of |c| over 2^p cells per
    axis) for p = 0 .. level + scale_window])."""
    out = []
    for c in clusters:
        a, origin = np.abs(c.values), c.origin
        sums = [(np.asarray(origin), a)]
        for _ in range(max(0, c.level + scale_window)):
            a, origin = _halve(a, origin)
            sums.append((np.asarray(origin), a))
        out.append((c.level, sums))
    return out


def _cube_masses(pyramids: list, s: int, dim: int, cubes: np.ndarray) -> np.ndarray:
    """Exact L1 mass of the sum rescaled by 2^s on each integer unit cube.

    A cluster at level m = c.level + s covers cube k with its block k of 2^m
    cells per axis when m > 0, and holds it inside cell k >> -m when m <= 0.
    Clusters are added in order, starting from 0.0.
    """
    total = np.zeros(len(cubes))
    for level, sums in pyramids:
        m = level + s
        origin, block = sums[max(m, 0)]
        idx = (cubes >> max(-m, 0)) - origin
        inside = np.all((idx >= 0) & (idx < block.shape), axis=1)
        total[inside] += block[tuple(idx[inside].T)] * 2.0 ** ((dim - 1) * s - dim * max(m, 0))
    return total


def _best_cube_at_scale(pyramids: list, s: int, dim: int) -> tuple[float, tuple[int, ...]]:
    """(mass, cube) of the best unit cube at scale s, lexicographically first
    among ties.  Candidates are the per-cluster maximizers (every nonzero
    block of a fine cluster, the corner of the largest cell of a coarse
    one), which is exhaustive for separated clusters."""
    keys = []
    for level, sums in pyramids:
        m = level + s
        origin, block = sums[max(m, 0)]
        if m > 0:
            keys.append(np.argwhere(block > 0.0) + origin)
        else:
            idx = np.unravel_index(int(np.argmax(block)), block.shape)
            keys.append(((origin + idx) << -m)[None, :])
    cubes = np.unique(np.concatenate(keys), axis=0)
    total = _cube_masses(pyramids, s, dim, cubes)
    best = int(np.argmax(total))
    return float(total[best]), tuple(int(k) for k in cubes[best])


def _best_alignment(r: DyadicSum, scale_window: int):
    """(score, h): h maps the best-scoring feature onto the unit cube at 0.

    Scales are visited smallest magnitude first (negative before positive)
    and cubes in lexicographic order, so exact ties resolve deterministically;
    a zero sum gets the identity.
    """
    clusters = r.clusters()
    pyramids = _mass_pyramids(clusters, scale_window)
    best_mass, best_s, best_cube = 0.0, 0, (0,) * r.dim
    scales = sorted(range(-scale_window, scale_window + 1), key=lambda t: (abs(t), t))
    for s in scales if clusters else ():
        mass, cube = _best_cube_at_scale(pyramids, s, r.dim)
        if mass > best_mass:
            best_mass, best_s, best_cube = mass, s, cube
    return best_mass, GroupElement(best_s, DyadicVector.integers(*(-c for c in best_cube)))


def _window_level(tail, radius: int, dim: int, override: int | None) -> int:
    if override is not None:
        return override
    cap = int(math.floor((math.log2(WINDOW_CELL_GUARD) - dim * math.log2(2 * radius)) / dim))
    lv = max(
        (c.level for t in tail for c in t.clusters()
         if np.all(c.box_lo() < radius) and np.all(c.box_hi() > -radius)),
        default=0,
    )
    return max(0, min(lv, cap))


def extract_profiles(
    elements,
    *,
    epsilon: float,
    max_profiles: int = 8,
    scale_window: int = 10,
    window_radius: int = 4,
    profile_level: int | None = None,
    cauchy_tol: float = 0.05,
    stride: int = 1,
) -> ProfileDecomposition:
    seq = [dyadic_sum(u) for u in elements][:: max(1, stride)]
    if len(seq) < 3:
        raise ValueError("need at least three sequence elements for the tail check")
    dim = seq[0].dim
    original_tv = tuple(r.total_variation() for r in seq)

    remainders = list(seq)
    profiles: list[ExtractedProfile] = []
    history: list[tuple] = []
    levels: list[int] = []
    terminated_by = "max_profiles"
    R = int(window_radius)

    for _ in range(max_profiles):
        found = [_best_alignment(r, scale_window) for r in remainders]
        scores = tuple(f[0] for f in found)
        aligns = tuple(f[1] for f in found)
        history.append(scores)

        aligned_tail = [r.apply(h) for r, h in zip(remainders[-3:], aligns[-3:])]
        lv = _window_level(aligned_tail, R, dim, profile_level)
        levels.append(lv)
        side = 2 * R * 2**lv
        if side**dim > WINDOW_CELL_GUARD:
            raise MemoryGuardError(
                f"window of radius {R} at level {lv} needs {side**dim} cells, "
                f"guard is {WINDOW_CELL_GUARD}"
            )
        origin = (-side // 2,) * dim
        extents = (side,) * dim
        mats = [t.materialize(lv, origin, extents) for t in aligned_tail]

        # termination first: a candidate below the size threshold is no
        # profile, so there is no limit claim for the Cauchy guard to protect
        w = trim(mats[-1])
        w_tv = bv.total_variation(w)
        if w_tv <= epsilon:
            terminated_by = "epsilon"
            break

        norms = [m.l1_norm() for m in mats]
        denom = max(norms)
        if denom > 0.0:
            gaps = [
                float(np.abs(a.values - b.values).sum()) * mats[0].cell_measure
                for a, b in zip(mats, mats[1:])
            ]
            rel = max(gaps) / denom
            if rel > cauchy_tol:
                raise NonConvergentSubsequenceError(rel, cauchy_tol, 2 * max(1, stride))

        placements = tuple(inverse(h) for h in aligns)
        profiles.append(
            ExtractedProfile(
                function=w,
                tv=w_tv,
                alignments=aligns,
                placements=placements,
                scores=scores,
            )
        )
        remainders = [r.with_term(-1.0, p, w) for r, p in zip(remainders, placements)]

    return ProfileDecomposition(
        dim=dim,
        profiles=tuple(profiles),
        remainders=tuple(remainders),
        original_tv=original_tv,
        remainder_tv=tuple(r.total_variation() for r in remainders),
        scores_history=tuple(history),
        levels=tuple(levels),
        terminated_by=terminated_by,
        epsilon=epsilon,
    )


# -- audits -------------------------------------------------------------------

def _element_separation(g1: GroupElement, g2: GroupElement) -> float:
    dy = np.abs(np.array(g1.y.as_floats()) - np.array(g2.y.as_floats())).sum()
    return abs(g1.j - g2.j) + float(dy)


@dataclass(frozen=True)
class SeparationReport:
    floor: float
    pair_min: dict  # (a, b) -> min separation over the tail half
    ok: bool

    def to_dict(self) -> dict:
        return {
            "floor": self.floor,
            "pairs": {f"{a},{b}": v for (a, b), v in sorted(self.pair_min.items())},
            "ok": self.ok,
        }


def separation_check(decomp: ProfileDecomposition, floor: float = 1.0) -> SeparationReport:
    """Pairwise placement separation over the tail half of the sequence."""
    pair_min: dict[tuple, float] = {}
    ok = True
    n_profiles = len(decomp.profiles)
    for a in range(n_profiles):
        for b in range(a + 1, n_profiles):
            pa = decomp.profiles[a].placements
            pb = decomp.profiles[b].placements
            k0 = len(pa) // 2
            series = [_element_separation(g1, g2) for g1, g2 in zip(pa[k0:], pb[k0:])]
            m = min(series)
            pair_min[(a, b)] = m
            ok = ok and m >= floor
    return SeparationReport(floor=floor, pair_min=pair_min, ok=ok)


@dataclass(frozen=True)
class EnergyReport:
    delta: float
    per_element: tuple
    ok: bool

    def to_dict(self) -> dict:
        return {"delta": self.delta, "per_element": list(self.per_element), "ok": self.ok}


def energy_audit(decomp: ProfileDecomposition, delta: float = 0.1) -> EnergyReport:
    """Variation bookkeeping: profiles must not exceed the budget (with an
    allowed pile-up factor delta) and must, with the remainder, still cover
    the original variation up to rounding."""
    profile_sum = float(sum(p.tv for p in decomp.profiles))
    rows = []
    ok = True
    for k, (tv_u, tv_r) in enumerate(zip(decomp.original_tv, decomp.remainder_tv)):
        upper_ok = profile_sum <= tv_u * (1.0 + delta) or tv_u == 0.0
        lower_ok = tv_u <= profile_sum + tv_r + 1e-9 * max(1.0, tv_u)
        rows.append(
            {
                "element": k,
                "tv_original": tv_u,
                "tv_remainder": tv_r,
                "tv_profiles": profile_sum,
                "upper_ok": upper_ok,
                "lower_ok": lower_ok,
            }
        )
        ok = ok and upper_ok and lower_ok
    return EnergyReport(delta=delta, per_element=tuple(rows), ok=ok)


def remainder_lorentz(decomp: ProfileDecomposition, p: float, q_list) -> list[dict]:
    out = []
    for r in decomp.remainders:
        vals, meas = r.value_measure_pairs()
        step = step_from_pairs(vals, meas)
        row = {}
        for q in q_list:
            row[f"q{q:g}"] = 0.0 if step is None else lorentz_norm(step, LorentzIndex(p, float(q)))
        out.append(row)
    return out


# -- fixtures ------------------------------------------------------------------

def tent_bump(dim: int = 2, level: int = 6, height: float = 1.0) -> GridFunction:
    """Separable tent on the unit cube, sampled at cell centers."""

    def sampler(pts: np.ndarray) -> np.ndarray:
        prof = np.clip(1.0 - np.abs(2.0 * pts - 1.0), 0.0, None)
        return height * np.prod(prof, axis=-1)

    box = tuple((0.0, 1.0) for _ in range(dim))
    return from_sampler(dim, level, box, sampler)


def two_profile_sequence(ks, dim: int = 2, level: int = 6) -> list[DyadicSum]:
    """Element k = broad bump at the origin frame + a bump shrunk k scales
    and pushed k cubes along the first axis."""
    w1 = tent_bump(dim, level, height=2.0)
    w2 = tent_bump(dim, level, height=1.0)
    out = []
    for k in ks:
        shift = DyadicVector.integers(*([k] + [0] * (dim - 1)))
        out.append(dyadic_sum(w1).with_term(1.0, GroupElement(k, shift), w2))
    return out


def staircase_sequence(ns, dim: int = 2) -> list[DyadicSum]:
    """Grid side of the concentration family, one element per n."""
    from .radial import staircase, to_grid

    out = []
    for n in ns:
        out.append(dyadic_sum(to_grid(staircase(dim, n), level=n + 1)))
    return out


# -- directory round-trip --------------------------------------------------------

def save_sequence(dirpath: str, elements) -> None:
    os.makedirs(dirpath, exist_ok=True)
    elements = [dyadic_sum(u) for u in elements]
    manifest = {"schema_version": 1, "dim": elements[0].dim, "elements": []}
    for i, e in enumerate(elements):
        entry = {"terms": []}
        for t, term in enumerate(e.terms):
            fname = f"element{i}_term{t}.grid"
            save_grid(term.u, os.path.join(dirpath, fname))
            entry["terms"].append(
                {"coeff": term.coeff, "g": term.g.to_dict(), "grid": fname}
            )
        manifest["elements"].append(entry)
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sequence(dirpath: str) -> list[DyadicSum]:
    with open(os.path.join(dirpath, "manifest.json")) as fh:
        manifest = json.load(fh)
    dim = manifest["dim"]
    out = []
    for entry in manifest["elements"]:
        s = DyadicSum(dim, ())
        for t in entry["terms"]:
            u = load_grid(os.path.join(dirpath, t["grid"]))
            s = s.with_term(t["coeff"], GroupElement.from_dict(t["g"]), u)
        out.append(s)
    return out


def save_decomposition(dirpath: str, decomp: ProfileDecomposition) -> None:
    os.makedirs(dirpath, exist_ok=True)
    doc = decomp.to_dict()
    for i, p in enumerate(decomp.profiles):
        fname = f"profile{i}.grid"
        save_grid(p.function, os.path.join(dirpath, fname))
        doc["profiles"][i]["grid"] = fname
    with open(os.path.join(dirpath, "decomposition.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
