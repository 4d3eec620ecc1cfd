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
(negative first), then to the lexicographically smallest cube.  A cluster
whose cube box meets no other cluster's takes the maximum its pyramid level
recorded when built; the others, and a lone cluster whose scaled maximum
is not a finite double above 2^-1022, are gathered.  A pass realizes only
the terms it added.

The limit proxy is the trimmed materialization of the last aligned element,
guarded by a Cauchy check on the aligned tail.  The tail is materialized on
the bounding box of its clusters' overlaps with the window, not on the whole
window, so a pass costs the cells the clusters cover.  Sequences that
concentrate nowhere fail the profile-size threshold immediately and come
back with an empty profile list, which is the expected outcome for the
staircase family.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bv
from .grid import (
    _MAX_LEVEL_DIM,
    GridFunction,
    InputError,
    MemoryGuardError,
    _halve,
    _overlap_box,
    _write_files,
    from_sampler,
    load_grid,
    trim,
)
from .group import DEFAULT_SCALE_BOUND, DyadicVector, GroupElement, _placement, inverse
from .multiscale import DyadicSum, dyadic_sum
from .rearrange import LorentzIndex, lorentz_norm

__all__ = [
    "ExtractionArgumentError",
    "NonConvergentSubsequenceError",
    "SequenceFormatError",
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


class ExtractionArgumentError(InputError):
    """Raised for extraction arguments outside their documented range."""


class SequenceFormatError(InputError):
    """Raised when a sequence manifest is malformed; names the path and the fault."""


class NonConvergentSubsequenceError(RuntimeError):
    """Aligned tail is not Cauchy on the window.  ``gaps``: L1 distances of
    consecutive tail elements over the largest tail norm; ``stride_hint``:
    the doubled stride, advised only when it leaves three elements, else None.
    """

    def __init__(self, gaps, tol: float, stride_hint: int | None):
        self.gaps, self.rel_gap, self.tol, self.stride_hint = tuple(gaps), max(gaps), tol, stride_hint
        measured = " and ".join(f"{g:.4g}" for g in self.gaps)
        advice = "" if stride_hint is None else f"; retry on a thinned subsequence (stride >= {stride_hint})"
        super().__init__(
            f"aligned tail is not Cauchy on the window: relative L1 gap {self.rel_gap:.4g} exceeds "
            f"{tol:.4g} (consecutive tail gaps {measured}){advice}"
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

def _mass_pyramids(clusters: list[GridFunction], scale_window: int) -> list:
    """Per cluster: (level, [(origin, block sums of |c| over 2^p cells per
    axis, their first maximum, its cell) for p = 0 .. level + scale_window]),
    origins and cells in Python ints."""
    out = []
    for c in clusters:
        a, origin, sums = np.abs(c.values), tuple(map(int, c.origin)), []
        for p in range(max(0, c.level + scale_window) + 1):
            if p and a.size == 1:  # halving one cell only adds +0.0: keep it, shift its cell
                origin = top = tuple(o >> 1 for o in origin)
            else:
                a, origin = _halve(a, origin) if p else (a, origin)
                k = int(a.argmax())
                top = tuple(o + int(i) for o, i in zip(origin, np.unravel_index(k, a.shape)))
            sums.append((origin, a, a.item(k), top))
        out.append((c.level, sums))
    return out


def _best_cube_at_scale(pyramids: list, s: int, dim: int) -> tuple[float, tuple[int, ...]]:
    """(mass, cube) of the best unit cube at scale s, lexicographically first
    among ties.

    A cluster at level m = c.level + s covers cube k with its block k of 2^m
    cells per axis when m > 0, and holds it inside cell k >> -m when m <= 0;
    a cube's exact L1 mass adds each covering block times
    2^((dim-1)s - dim*max(m, 0)), clusters in order, starting from 0.0.
    Candidates are the per-cluster maximizers (every nonzero block of a fine
    cluster, the corner of the largest cell of a coarse one), which is
    exhaustive for separated clusters.  A cluster whose cube box meets no
    other's gets nothing from the others and adds nothing to them; when its
    scaled maximum is above 2^-1022 and finite, the multiply is exact and
    keeps order, so its recorded first maximum is its best cube (at 2^-1022
    a smaller earlier block can round up to a tie).  Every other cluster is
    gathered, in int64 arrays: a gathered box past that range is refused.
    """
    layers = []
    for level, sums in pyramids:
        m = level + s
        origin, block, vmax, top = sums[max(m, 0)]
        shift = max(-m, 0)
        box = ([x << shift for x in origin], [(x + n) << shift for x, n in zip(origin, block.shape)])
        layers.append((m, shift, origin, block, vmax, top, 2.0 ** ((dim - 1) * s - dim * max(m, 0)), box))
    found, shared, keys = [], [], []
    for m, shift, origin, block, vmax, top, c, (lo, hi) in layers:
        # every box meets itself, so a lone cluster counts one meeting
        lone = sum(all(max(a, b) < min(x, y) for a, b, x, y in zip(lo, blo, hi, bhi))
                   for *_, (blo, bhi) in layers) == 1
        if lone and sys.float_info.min < vmax * c < math.inf:
            found.append((vmax * c, tuple(x << shift for x in top)))
            continue
        if min(lo) < -(1 << 63) or max(hi) > 1 << 63:  # its keys would wrap
            raise InputError(f"the cubes at scale {s} leave the int64 range of the gather")
        flat = np.flatnonzero(block > 0.0) if m > 0 else np.array([np.argmax(block)])
        shared.append((shift, origin, block, c))
        keys.append((np.column_stack(np.unravel_index(flat, block.shape)) + origin) << shift)
    if shared:
        # a key listed twice gets the same total, so duplicates cannot move
        # the maximum; the lexicographically smallest cube among the maxima wins
        cubes = np.concatenate(keys)
        total = np.zeros(len(cubes))
        for shift, origin, block, c in shared:
            idx = (cubes >> shift) - origin
            inside = np.all((idx >= 0) & (idx < block.shape), axis=1)
            total[inside] += block[tuple(idx[inside].T)] * c
        best = total.max()
        tied = cubes[total == best]
        found.append((float(best), tuple(int(k) for k in tied[np.lexsort(tied.T[::-1])[0]])))
    best = max(mass for mass, _ in found)
    return best, min(cube for mass, cube in found if mass == best)


def _best_alignment(r: DyadicSum, scale_window: int):
    """(score, h): h maps the best-scoring feature onto the unit cube at 0.

    Scales are visited smallest magnitude first (negative before positive)
    and cubes in lexicographic order, so exact ties resolve deterministically;
    a zero sum gets the identity.  A cube mass that overflows a double
    raises ``InputError``.
    """
    clusters = r.clusters()
    best_mass, best_s, best_cube = 0.0, 0, (0,) * r.dim
    scales = sorted(range(-scale_window, scale_window + 1), key=lambda t: (abs(t), t))
    with np.errstate(over="ignore"):  # an overflowing mass is refused below
        pyramids = _mass_pyramids(clusters, scale_window)
        found = [_best_cube_at_scale(pyramids, s, r.dim) for s in (scales if clusters else ())]
    for s, (mass, cube) in zip(scales, found):
        if not math.isfinite(mass):
            raise InputError(f"the cube masses at scale {s} overflow a double")
        if mass > best_mass:
            best_mass, best_s, best_cube = mass, s, cube
    return best_mass, GroupElement(best_s, DyadicVector.integers(*(-c for c in best_cube)))


def _window(tail, radius: int, dim: int, override: int | None) -> tuple:
    """(level, origin, extents) of the box the aligned tail is materialized on.

    The window is 2 * radius unit cubes wide around 0, at ``override`` or at
    the finest level of a cluster that meets it, capped to fit the guard; a
    window of more than ``WINDOW_CELL_GUARD`` cells raises MemoryGuardError.
    Cells no cluster covers hold 0.0, so the box is the bounding box of the
    clusters' overlaps with the window (a corner cell when none meets it),
    and each of its cells gets the additions the window gives it.
    """
    window = ((-radius,) * dim, (2 * radius,) * dim)
    inside = [c for t in tail for c in t.clusters() if _overlap_box(c, 0, *window) is not None]
    cap = int(math.floor((math.log2(WINDOW_CELL_GUARD) - dim * math.log2(2 * radius)) / dim))
    lv = max(0, min(max((c.level for c in inside), default=0), cap)) if override is None else override
    side = 2 * radius * 2**lv
    if side**dim > WINDOW_CELL_GUARD:
        raise MemoryGuardError(
            f"window of radius {radius} at level {lv} needs {side**dim} cells, "
            f"guard is {WINDOW_CELL_GUARD}"
        )
    # the window's edges lie on the level-0 lattice, so the clusters that
    # meet it there are the ones that meet it at level lv
    corner = (-side // 2,) * dim
    boxes = [_overlap_box(c, lv, corner, (side,) * dim) for c in inside]
    if not boxes:
        return lv, corner, (1,) * dim
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return lv, tuple(int(x) for x in lo), tuple(int(x) for x in hi - lo)


def _check_threshold(name: str, value: float) -> None:
    """Refuse a NaN, infinite or negative threshold: reports write it to JSON."""
    if not (math.isfinite(value) and value >= 0):
        raise ExtractionArgumentError(f"{name} must be finite and nonnegative, got {value}")


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
    """Greedy extraction; every argument is checked before any pass.

    Raises ``ExtractionArgumentError`` for an argument out of range.  A
    window is 2 * window_radius * 2^level cells wide, so a radius above
    ``WINDOW_CELL_GUARD // 2`` or a ``profile_level`` of
    log2(``WINDOW_CELL_GUARD``) or more exceeds the guard in every dim.
    Terms act with |j| <= ``DEFAULT_SCALE_BOUND``, so an alignment scale
    beyond twice that bound could only move every term past it.
    """
    _check_threshold("epsilon", epsilon)
    if max_profiles < 0:
        raise ExtractionArgumentError(f"max_profiles must be nonnegative, got {max_profiles}")
    if window_radius < 1:
        raise ExtractionArgumentError(f"window_radius must be at least 1, got {window_radius}")
    if window_radius > WINDOW_CELL_GUARD // 2:
        raise ExtractionArgumentError(
            f"window_radius must be at most {WINDOW_CELL_GUARD // 2}, got {window_radius}"
        )
    levels_in_guard = WINDOW_CELL_GUARD.bit_length() - 1
    if profile_level is not None and not 0 <= profile_level < levels_in_guard:
        raise ExtractionArgumentError(
            f"profile_level must be from 0 to {levels_in_guard - 1}, got {profile_level}"
        )
    if stride < 1:
        raise ExtractionArgumentError(f"stride must be at least 1, got {stride}")
    if scale_window < 0:
        raise ExtractionArgumentError(f"scale_window must be nonnegative, got {scale_window}")
    if scale_window > 2 * DEFAULT_SCALE_BOUND:
        raise ExtractionArgumentError(
            f"scale_window must be at most {2 * DEFAULT_SCALE_BOUND}, got {scale_window}"
        )
    if not cauchy_tol >= 0:
        raise ExtractionArgumentError(f"cauchy_tol must be nonnegative, got {cauchy_tol}")
    elements = [dyadic_sum(u) for u in elements]
    seq = elements[::stride]
    if len(seq) < 3:
        raise ExtractionArgumentError(
            f"need at least three sequence elements for the tail check, got {len(seq)}"
        )
    dim = seq[0].dim
    original_tv = tuple(r.total_variation() for r in seq)
    if not all(map(math.isfinite, original_tv)):
        raise InputError("the total variation of a sequence element overflows a double")

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
        lv, origin, extents = _window(aligned_tail, R, dim, profile_level)
        levels.append(lv)
        mats = [t.materialize(lv, origin, extents) for t in aligned_tail]

        # termination first: a candidate below the size threshold is no
        # profile, so there is no limit claim for the Cauchy guard to protect
        w = trim(mats[-1])
        w_tv = bv.total_variation(w)
        if w_tv <= epsilon:
            terminated_by = "epsilon"
            break

        denom = max(m.l1_norm() for m in mats)
        if denom > 0.0:
            gaps = [
                float(np.abs(a.values - b.values).sum()) * mats[0].cell_measure / denom
                for a, b in zip(mats, mats[1:])
            ]
            if max(gaps) > cauchy_tol:
                thinner = 2 * stride
                hint = thinner if len(elements[::thinner]) >= 3 else None
                raise NonConvergentSubsequenceError(gaps, cauchy_tol, hint)

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
    _check_threshold("separation floor", floor)
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
    _check_threshold("delta", delta)
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
    return [
        {f"q{q:g}": lorentz_norm(r, LorentzIndex(p, float(q))) for q in q_list}
        for r in decomp.remainders
    ]


# -- fixtures ------------------------------------------------------------------

def tent_bump(dim: int = 2, level: int = 6, height: float = 1.0) -> GridFunction:
    """Separable tent on the unit cube, sampled at cell centers."""

    def sampler(mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        tents = (np.clip(1.0 - np.abs(2.0 * x - 1.0), 0.0, None) for x in mesh)
        return height * math.prod(tents)

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
    """Write each term's grid and then ``manifest.json`` into ``dirpath``.

    An empty list, elements of more than one dimension or a NaN or infinite
    coefficient is refused with InputError before anything is written.
    """
    elements = [dyadic_sum(u) for u in elements]
    if not elements:
        raise InputError("save_sequence: a sequence needs at least one element")
    dim = elements[0].dim
    files = {}
    manifest = {"schema_version": 1, "dim": dim, "elements": []}
    for i, e in enumerate(elements):
        if e.dim != dim:
            raise InputError(f"save_sequence: element {i} has dim {e.dim}, element 0 has dim {dim}")
        entry = {"terms": []}
        for t, term in enumerate(e.terms):
            fname = f"element{i}_term{t}.grid"
            files[fname] = term.u
            entry["terms"].append(
                {"coeff": term.coeff, "g": term.g.to_dict(), "grid": fname}
            )
        manifest["elements"].append(entry)
    _write_files(dirpath, {**files, "manifest.json": manifest})


def load_sequence(dirpath: str) -> list[DyadicSum]:
    """Read a directory written by :func:`save_sequence`, checking its manifest.

    A term is refused when its scale exceeds ``DEFAULT_SCALE_BOUND``, its
    translation has a level outside +-1022, or its realized cell box leaves
    +-2^53, beyond which cell indices and box corners are not exact floats.
    """
    path = os.path.join(dirpath, "manifest.json")

    def check(ok: bool, why: str) -> None:
        if not ok:
            raise SequenceFormatError(f"{path}: {why}")

    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as err:
            raise SequenceFormatError(f"{path}: not valid JSON: {err}") from None
    check(isinstance(manifest, dict), "must hold a JSON object")
    dim, version = manifest.get("dim"), manifest.get("schema_version")
    check(type(dim) is int and dim in (1, 2, 3), f"dim must be 1, 2 or 3, got {dim!r}")
    check(type(version) is int and version == 1, f"schema_version must be 1, got {version!r}")
    check(isinstance(manifest.get("elements"), list), "elements must be a list")
    out = []
    for i, entry in enumerate(manifest["elements"]):
        terms = entry.get("terms") if isinstance(entry, dict) else None
        check(isinstance(terms, list), f"element {i}: terms must be a list")
        s = DyadicSum(dim, ())
        for k, t in enumerate(terms):
            at = f"element {i} term {k}:"
            check(type(t) is dict and {"coeff", "g", "grid"} <= t.keys(), f"{at} needs coeff, g, grid")
            c, name = t["coeff"], t["grid"]
            ok = type(c) in (int, float) and abs(c) <= sys.float_info.max  # no bool, no huge int
            check(ok, f"{at} coeff is not a finite number: {c!r}")
            try:
                g = GroupElement.from_dict(t["g"])
            except (KeyError, TypeError, ValueError, OverflowError):
                g = None
            check(g is not None and g.dim == dim, f"{at} g is no dim-{dim} element: {t['g']!r}")
            check(abs(g.j) <= DEFAULT_SCALE_BOUND, f"{at} |j| = {abs(g.j)} exceeds {DEFAULT_SCALE_BOUND}")
            check(g.y.level <= _MAX_LEVEL_DIM, f"{at} y has level {g.y.level}, above {_MAX_LEVEL_DIM}")
            bare = name not in ("", ".", "..") and os.path.basename(str(name)) == name
            check(bare, f"{at} grid is not a bare file name: {name!r}")
            u = load_grid(os.path.join(dirpath, name))
            check(u.dim == dim, f"{at} grid {name} has dim {u.dim}, manifest has dim {dim}")
            level, lo = _placement(g, u)
            hi = tuple(o + n * 2 ** (level - u.level) for o, n in zip(lo, u.extents))
            check(max(map(abs, lo + hi)) <= 2**53, f"{at} g places grid {name} outside +-2^53 cells")
            s = s.with_term(float(c), g, u)
        out.append(s)
    return out


def save_decomposition(dirpath: str, decomp: ProfileDecomposition) -> None:
    """Write ``decomposition.json`` and one grid file per profile.

    Raises ``InputError`` before anything is written when the report holds
    a value that overflows a double, which JSON cannot hold.
    """
    doc = decomp.to_dict()
    files = {}
    for i, p in enumerate(decomp.profiles):
        files[f"profile{i}.grid"] = p.function
        doc["profiles"][i]["grid"] = f"profile{i}.grid"
    _write_files(dirpath, {**files, "decomposition.json": doc})
