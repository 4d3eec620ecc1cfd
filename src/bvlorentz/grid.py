"""Dyadic grid functions.

A :class:`GridFunction` is a piecewise-constant function on an axis-aligned
box of cells of an infinite dyadic lattice.  At level ``L`` the cell spacing
is ``h = 2**-L``; the box is addressed by an integer ``origin`` (index of the
lowest cell) and integer ``extents`` (cells per axis).  The function is zero
outside the box.  All bookkeeping operations (refinement, cell translation,
linear combination) are exact: they only relabel, repeat or add stored
values, never interpolate.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GridFunction",
    "MemoryGuardError",
    "Region",
    "RefinementDirectionError",
    "UnsupportedDimensionError",
    "annulus_region",
    "box_mass",
    "common_refinement",
    "cube_region",
    "from_sampler",
    "full_region",
    "grid_zeros",
    "linear_combine",
    "load_grid",
    "mask_region",
    "refine",
    "resample_to",
    "restrict",
    "save_grid",
    "support_measure",
    "translate_cells",
    "trim",
]

#: Hard ceiling on cells materialised by any single operation.  Operations
#: that would flatten past this raise MemoryGuardError instead of allocating.
DEFAULT_CELL_GUARD = 2**27

_MAGIC = b"BVLGRID1"


class UnsupportedDimensionError(ValueError):
    """Raised for dimensions outside {1, 2, 3}."""


class RefinementDirectionError(ValueError):
    """Raised when asked to refine toward a coarser level."""


class DimensionMismatchError(ValueError):
    """Raised when operands live in different ambient dimensions."""


class MemoryGuardError(MemoryError):
    """Raised before an operation would materialise too many cells."""


def _check_dim(dim: int) -> int:
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dimension must be 1, 2 or 3, got {dim}")
    return dim


def _guard(cells: int, cell_guard: int | None) -> None:
    limit = DEFAULT_CELL_GUARD if cell_guard is None else cell_guard
    if cells > limit:
        raise MemoryGuardError(f"operation needs {cells} cells, guard is {limit}")


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on a box of dyadic cells, zero outside."""

    dim: int
    level: int
    origin: tuple[int, ...]
    extents: tuple[int, ...]
    values: np.ndarray  # shape == extents, row-major, float64

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if len(self.origin) != self.dim or len(self.extents) != self.dim:
            raise DimensionMismatchError(
                f"origin/extents rank must equal dim={self.dim}"
            )
        if any(n <= 0 for n in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.shape != tuple(self.extents):
            raise ValueError(
                f"values shape {vals.shape} != extents {tuple(self.extents)}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- geometry ----------------------------------------------------------
    @property
    def spacing(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.extents))

    def box_lo(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=float) * self.spacing

    def box_hi(self) -> np.ndarray:
        o = np.asarray(self.origin, dtype=float)
        n = np.asarray(self.extents, dtype=float)
        return (o + n) * self.spacing

    def axis_centers(self, axis: int) -> np.ndarray:
        idx = np.arange(self.extents[axis], dtype=float)
        return (self.origin[axis] + idx + 0.5) * self.spacing

    def centers(self) -> np.ndarray:
        """All cell centers, as an array of shape (cells, dim)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    # -- rearrangement hook --------------------------------------------------
    def value_measure_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero |values| with their cell measures, for rearrangement."""
        flat = np.abs(self.values.ravel())
        keep = flat > 0.0
        vals = flat[keep]
        return vals, np.full(vals.shape, self.cell_measure)

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values))) * self.cell_measure

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def grid_zeros(
    dim: int,
    level: int,
    origin: Sequence[int],
    extents: Sequence[int],
    *,
    cell_guard: int | None = None,
) -> GridFunction:
    _check_dim(dim)
    _guard(int(np.prod(extents)), cell_guard)
    return GridFunction(
        dim, level, tuple(int(o) for o in origin), tuple(int(n) for n in extents),
        np.zeros(tuple(int(n) for n in extents)),
    )


def from_sampler(
    dim: int,
    level: int,
    box: Sequence[tuple[float, float]],
    sampler: Callable[[np.ndarray], np.ndarray],
    *,
    cell_guard: int | None = None,
) -> GridFunction:
    """Sample ``sampler`` at cell centers of the dyadic cells covering ``box``.

    ``box`` is one (lo, hi) pair per axis; it is snapped outward to cell
    boundaries at ``level``.  The sampler is called once, with all centers
    as a ``(cells, dim)`` array, and returns one value per row (a scalar is
    broadcast to every cell).
    """
    _check_dim(dim)
    if len(box) != dim:
        raise DimensionMismatchError(f"box needs {dim} axis ranges")
    scale = 2.0**level
    origin = []
    extents = []
    for lo, hi in box:
        if not hi > lo:
            raise ValueError(f"box axis ({lo}, {hi}) has nonpositive length")
        o = int(np.floor(lo * scale))
        top = int(np.ceil(hi * scale))
        origin.append(o)
        extents.append(top - o)
    out = grid_zeros(dim, level, origin, extents, cell_guard=cell_guard)
    pts = out.centers()
    vals = np.broadcast_to(np.asarray(sampler(pts), dtype=np.float64), pts.shape[:1])
    return GridFunction(dim, level, tuple(origin), tuple(extents), vals.reshape(extents))


def refine(u: GridFunction, to_level: int, *, cell_guard: int | None = None) -> GridFunction:
    """Re-express ``u`` at a finer level.  Values are copied, never changed."""
    if to_level < u.level:
        raise RefinementDirectionError(
            f"cannot refine from level {u.level} to coarser level {to_level}"
        )
    if to_level == u.level:
        return u
    f = 2 ** (to_level - u.level)
    new_extents = tuple(n * f for n in u.extents)
    _guard(int(np.prod(new_extents)), cell_guard)
    vals = u.values
    for axis in range(u.dim):
        vals = np.repeat(vals, f, axis=axis)
    return GridFunction(
        u.dim, to_level, tuple(o * f for o in u.origin), new_extents, vals
    )


def translate_cells(u: GridFunction, shift: Sequence[int]) -> GridFunction:
    if len(shift) != u.dim:
        raise DimensionMismatchError("shift rank must equal dim")
    origin = tuple(o + int(s) for o, s in zip(u.origin, shift))
    return GridFunction(u.dim, u.level, origin, u.extents, u.values)


def common_refinement(
    fns: Iterable[GridFunction], *, cell_guard: int | None = None
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Common level, origin and extents of the smallest box holding all inputs."""
    fns = list(fns)
    if not fns:
        raise ValueError("need at least one grid function")
    dim = fns[0].dim
    if any(f.dim != dim for f in fns):
        raise DimensionMismatchError("mixed dimensions")
    level = max(f.level for f in fns)
    los = []
    his = []
    for f in fns:
        fac = 2 ** (level - f.level)
        los.append([o * fac for o in f.origin])
        his.append([(o + n) * fac for o, n in zip(f.origin, f.extents)])
    origin = tuple(min(lo[a] for lo in los) for a in range(dim))
    top = tuple(max(hi[a] for hi in his) for a in range(dim))
    extents = tuple(t - o for o, t in zip(origin, top))
    _guard(int(np.prod(extents)), cell_guard)
    return level, origin, extents


def linear_combine(
    coeffs: Sequence[float],
    fns: Sequence[GridFunction],
    *,
    cell_guard: int | None = None,
) -> GridFunction:
    """Exact linear combination on the common refinement of all operands."""
    if len(coeffs) != len(fns):
        raise ValueError("one coefficient per function")
    level, origin, extents = common_refinement(fns, cell_guard=cell_guard)
    acc = np.zeros(extents)
    for c, f in zip(coeffs, fns):
        g = refine(f, level, cell_guard=cell_guard)
        sl = tuple(
            slice(go - o, go - o + n)
            for go, o, n in zip(g.origin, origin, g.extents)
        )
        acc[sl] += c * g.values
    return GridFunction(fns[0].dim, level, origin, extents, acc)


def trim(u: GridFunction) -> GridFunction:
    """Shrink the box to the support bounding box (1 zero cell if empty)."""
    nz = np.nonzero(u.values)
    if len(nz[0]) == 0:
        one = tuple(1 for _ in range(u.dim))
        return GridFunction(u.dim, u.level, u.origin, one, np.zeros(one))
    lo = [int(ix.min()) for ix in nz]
    hi = [int(ix.max()) + 1 for ix in nz]
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    origin = tuple(o + a for o, a in zip(u.origin, lo))
    extents = tuple(b - a for a, b in zip(lo, hi))
    return GridFunction(u.dim, u.level, origin, extents, u.values[sl])


def support_measure(u: GridFunction) -> float:
    return int(np.count_nonzero(u.values)) * u.cell_measure


# -- exact box queries -------------------------------------------------------

def _axis_overlap(
    src_origin: int, src_n: int, src_h: float, dst_origin: int, dst_n: int, dst_h: float
) -> np.ndarray:
    """Overlap lengths between destination and source intervals on one axis.

    Returns a (dst_n, src_n) matrix whose (i, j) entry is the length of the
    intersection of destination cell i with source cell j.  Exact for the
    piecewise-constant data model.
    """
    src_lo = (src_origin + np.arange(src_n, dtype=float)) * src_h
    src_hi = src_lo + src_h
    dst_lo = (dst_origin + np.arange(dst_n, dtype=float)) * dst_h
    dst_hi = dst_lo + dst_h
    lo = np.maximum(dst_lo[:, None], src_lo[None, :])
    hi = np.minimum(dst_hi[:, None], src_hi[None, :])
    return np.clip(hi - lo, 0.0, None)


def _interval_weights(lo: float, hi: float, origin: int, n: int, h: float) -> np.ndarray:
    cell_lo = (origin + np.arange(n, dtype=float)) * h
    cell_hi = cell_lo + h
    return np.clip(np.minimum(hi, cell_hi) - np.maximum(lo, cell_lo), 0.0, None)


def box_mass(u: GridFunction, lo: Sequence[float], hi: Sequence[float]) -> float:
    """Integral of |u| over an axis-aligned box, exact for cell data."""
    if len(lo) != u.dim or len(hi) != u.dim:
        raise DimensionMismatchError("box rank must equal dim")
    weights = [
        _interval_weights(float(lo[a]), float(hi[a]), u.origin[a], u.extents[a], u.spacing)
        for a in range(u.dim)
    ]
    vals = np.abs(u.values)
    if u.dim == 1:
        return float(weights[0] @ vals)
    if u.dim == 2:
        return float(weights[0] @ vals @ weights[1])
    return float(np.einsum("i,j,k,ijk->", weights[0], weights[1], weights[2], vals))


def resample_to(
    u: GridFunction,
    level: int,
    origin: Sequence[int],
    extents: Sequence[int],
    *,
    cell_guard: int | None = None,
) -> GridFunction:
    """Cell averages of ``u`` on an arbitrary target grid.

    Exact for the stored piecewise-constant function.  When the target grid
    is a cell-aligned refinement this reproduces :func:`refine`; on coarser
    targets it averages, which is the projection used for weak-limit proxies.
    """
    origin = tuple(int(o) for o in origin)
    extents = tuple(int(n) for n in extents)
    _guard(int(np.prod(extents)), cell_guard)
    dst_h = 2.0 ** (-level)
    mats = [
        _axis_overlap(u.origin[a], u.extents[a], u.spacing, origin[a], extents[a], dst_h)
        for a in range(u.dim)
    ]
    if u.dim == 1:
        integ = mats[0] @ u.values
    elif u.dim == 2:
        integ = mats[0] @ u.values @ mats[1].T
    else:
        integ = np.einsum("ai,bj,ck,ijk->abc", mats[0], mats[1], mats[2], u.values)
    return GridFunction(u.dim, level, origin, extents, integ / dst_h**u.dim)


# -- regions -----------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Geometric cell-membership test; cells belong if their center does."""

    kind: str
    dim: int
    level: int | None = None
    corner: tuple[int, ...] | None = None
    side: int | None = None
    r_in: float | None = None
    r_out: float | None = None
    origin: tuple[int, ...] | None = None
    mask: np.ndarray | None = field(default=None, repr=False)

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError("point rank must equal region dim")
        if self.kind == "full":
            return np.ones(pts.shape[0], dtype=bool)
        if self.kind == "cube":
            h = 2.0 ** (-self.level)
            lo = np.asarray(self.corner, dtype=float) * h
            hi = lo + self.side * h
            return np.all((pts >= lo) & (pts < hi), axis=1)
        if self.kind == "annulus":
            r = np.sqrt(np.sum(pts**2, axis=1))
            return (r > self.r_in) & (r <= self.r_out)
        if self.kind == "mask":
            h = 2.0 ** (-self.level)
            idx = np.floor(pts / h).astype(int) - np.asarray(self.origin)
            inside = np.all((idx >= 0) & (idx < np.asarray(self.mask.shape)), axis=1)
            out = np.zeros(pts.shape[0], dtype=bool)
            if np.any(inside):
                sel = tuple(idx[inside].T)
                out[inside] = self.mask[sel]
            return out
        raise ValueError(f"unknown region kind {self.kind!r}")

    def measure(self) -> float:
        if self.kind == "cube":
            return float(self.side**self.dim) * 2.0 ** (-self.level * self.dim)
        if self.kind == "mask":
            return float(np.count_nonzero(self.mask)) * 2.0 ** (-self.level * self.dim)
        if self.kind == "annulus":
            from .rearrange import unit_ball_volume

            return unit_ball_volume(self.dim) * (
                self.r_out**self.dim - self.r_in**self.dim
            )
        return float("inf")


def cube_region(dim: int, level: int, corner: Sequence[int], side: int) -> Region:
    _check_dim(dim)
    if side <= 0:
        raise ValueError("cube side must be positive")
    return Region("cube", dim, level=level, corner=tuple(int(c) for c in corner), side=int(side))


def annulus_region(dim: int, r_in: float, r_out: float) -> Region:
    _check_dim(dim)
    if not 0 <= r_in < r_out:
        raise ValueError(f"need 0 <= r_in < r_out, got ({r_in}, {r_out})")
    return Region("annulus", dim, r_in=float(r_in), r_out=float(r_out))


def mask_region(dim: int, level: int, origin: Sequence[int], mask: np.ndarray) -> Region:
    _check_dim(dim)
    m = np.asarray(mask, dtype=bool)
    if m.ndim != dim:
        raise DimensionMismatchError("mask rank must equal dim")
    m.setflags(write=False)
    return Region("mask", dim, level=level, origin=tuple(int(o) for o in origin), mask=m)


def full_region(dim: int) -> Region:
    _check_dim(dim)
    return Region("full", dim)


def restrict(u: GridFunction, region: Region, *, cell_guard: int | None = None) -> GridFunction:
    """Zero ``u`` outside the region.

    When the region carries a finer level than ``u`` the function is refined
    first so region boundaries cannot cut through cells.
    """
    if region.dim != u.dim:
        raise DimensionMismatchError("region dim must match function dim")
    if region.level is not None and region.level > u.level:
        u = refine(u, region.level, cell_guard=cell_guard)
    keep = region.contains_points(u.centers()).reshape(u.extents)
    return GridFunction(u.dim, u.level, u.origin, u.extents, np.where(keep, u.values, 0.0))


# -- serialization -----------------------------------------------------------

def save_grid(u: GridFunction, path: str | Path, metadata: dict | None = None) -> None:
    """Single self-describing binary file plus a JSON sidecar.

    Layout: magic, then dim/level/origin/extents as little-endian int64,
    then the row-major float64 values.  Round-trips bit-exactly.
    """
    path = Path(path)
    header = struct.pack("<qq", u.dim, u.level)
    header += struct.pack(f"<{u.dim}q", *u.origin)
    header += struct.pack(f"<{u.dim}q", *u.extents)
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    path.write_bytes(_MAGIC + header + payload)
    side = {
        "format": "bvlorentz-grid",
        "format_version": 1,
        "dim": u.dim,
        "level": u.level,
        "origin": list(u.origin),
        "extents": list(u.extents),
    }
    if metadata:
        side["metadata"] = metadata
    Path(str(path) + ".json").write_text(json.dumps(side, indent=2, sort_keys=True) + "\n")


def load_grid(path: str | Path) -> GridFunction:
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a grid file")
    off = len(_MAGIC)
    dim, level = struct.unpack_from("<qq", raw, off)
    off += 16
    origin = struct.unpack_from(f"<{dim}q", raw, off)
    off += 8 * dim
    extents = struct.unpack_from(f"<{dim}q", raw, off)
    off += 8 * dim
    vals = np.frombuffer(raw, dtype="<f8", offset=off).reshape(extents).copy()
    return GridFunction(int(dim), int(level), tuple(origin), tuple(extents), vals)
