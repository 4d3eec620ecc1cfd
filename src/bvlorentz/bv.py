"""Discrete total variation on dyadic grids.

The variation of a grid function is the per-face sum

    TV(u) = sum over cells x, axes k of  h^{dim-1} |u(x + h e_k) - u(x)|

with forward differences and zero extension beyond the box.  For
piecewise-constant data this is the (crystalline) perimeter weighted by the
jump, counted face by face, so it is exactly invariant under dyadic
refinement and exactly additive over functions with separated supports.  For
sharp indicators it converges to the anisotropic perimeter, about 4/pi times
the Euclidean one for disks; all audits therefore compare ratios and
invariances, never absolute perimeters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import DimensionMismatchError, GridFunction, InputError, Region, _cell_centers, full_region

__all__ = [
    "ChainRuleReport",
    "ScalarC1",
    "SupportViolationError",
    "TVReport",
    "bv_norm",
    "compose_scalar",
    "l1_norm_on",
    "lattice_tv_sum",
    "total_variation",
    "total_variation_on",
]

#: Relative slack for the chain-rule inequality; covers float rounding only.
CHAIN_RULE_SLACK = 1e-9

#: Relative slack for the lattice splitting bound.
SPLITTING_SLACK = 1e-9


class SupportViolationError(ValueError):
    """Raised when a scalar map does not fix 0 and would break zero extension."""


#: Cells of one slab of padded axis-0 rows (2^15 doubles, 256 KiB), so a
#: slab's padded copy, its scratch and its output rows stay in cache.
_SLAB_CELLS = 1 << 15


def _face_rows(u: GridFunction) -> tuple[int, int, Callable[[int, int, np.ndarray], None]]:
    """Per-cell variation, attributed to the base cell of each forward pair,
    h^{dim-1} * sum_k |forward difference| over the padded index domain (one
    cell beyond the box on every side), a slab of axis-0 rows at a time.

    Returns the rows per slab (about ``_SLAB_CELLS`` cells), the cells per
    padded row and ``fill(r0, r1, out)``, which writes padded rows r0..r1-1,
    at most one slab, into the flat array ``out``.

    A slab's rows, plus the one above them, are copied into a reused
    zero-padded buffer.  The axis-0 term |pad[i+1] - pad[i]| is written
    straight into the output rows.  Each other axis k, in axis order, adds
    one contiguous shifted difference |flat[s:] - flat[:-s]| of the slab's
    flat padded rows into the flat output rows, through one reused scratch
    buffer, where s is the product of the padded extents after axis k.  The
    rows are then scaled by h^{dim-1} in place.

    The bits are those of forward differences of a zero-padded copy, summed
    from a zero accumulator in axis order (the former kernel): each cell
    gets the same terms in the same order and the same scaling, whatever
    the slabs.  Writing the first term instead of adding it to 0.0 is
    exact, since 0.0 + t == t for t >= +0.  A shifted difference that
    leaves a cell on the last padded index of axis k wraps to index 0 of
    axis k further on; both of those cells are padding, so it adds
    |0 - 0| = +0.0, as do faces between two padding cells, and adding +0.0
    leaves a sum of absolute values unchanged.
    """
    v = u.values
    n0, rest = v.shape[0], v.shape[1:]
    row_shape = tuple(n + 2 for n in rest)
    row_cells = math.prod(row_shape)
    rows = max(1, min(n0 + 2, _SLAB_CELLS // row_cells))
    pad = np.zeros((rows + 1,) + row_shape)  # only its inner cells are ever written
    scratch = np.empty(rows * row_cells if rest else 0)  # a 1-D grid has no other axis
    inner = (slice(1, -1),) * len(rest)
    # flat stride of one step along each axis after the first
    strides = [math.prod(row_shape[k:]) for k in range(1, u.dim)]
    h_face = u.spacing ** (u.dim - 1)

    def fill(r0: int, r1: int, out: np.ndarray) -> None:
        # buffer row j is padded row r0 + j, i.e. row r0 + j - 1 of v when inside
        slab_pad = pad[: r1 - r0 + 1]
        lo, hi = max(1 - r0, 0), min(n0 + 1 - r0, r1 - r0 + 1)
        slab_pad[:lo] = 0.0
        slab_pad[(slice(lo, hi),) + inner] = v[r0 + lo - 1 : r0 + hi - 1]
        slab_pad[hi:] = 0.0
        np.subtract(slab_pad[1:], slab_pad[:-1], out=out.reshape((r1 - r0,) + row_shape))
        np.abs(out, out=out)
        base = slab_pad[:-1].reshape(-1)
        for s in strides:
            diff = scratch[: base.size - s]
            np.subtract(base[s:], base[:-s], out=diff)
            np.abs(diff, out=diff)
            out[:-s] += diff
        out *= h_face

    return rows, row_cells, fill


def _local_contributions(u: GridFunction) -> tuple[tuple[int, ...], np.ndarray]:
    """The origin of the padded index domain and the per-cell variation over
    it (see :func:`_face_rows`), filled slab by slab into the returned
    array, the only full-size allocation."""
    rows, row_cells, fill = _face_rows(u)
    out = np.empty(tuple(n + 2 for n in u.extents))
    flat = out.reshape(-1)
    for r0 in range(0, out.shape[0], rows):
        r1 = min(r0 + rows, out.shape[0])
        fill(r0, r1, flat[r0 * row_cells : r1 * row_cells])
    return tuple(o - 1 for o in u.origin), out


def total_variation(u: GridFunction) -> float:
    """Per-face variation of ``u``, computed once per grid function."""
    return u.variation


def total_variation_on(u: GridFunction, region: Region) -> float:
    """Variation restricted to cells whose center lies in the region.

    Forward differences still read one cell beyond the region; that overlap
    is what the cube-splitting estimate bounds.
    """
    if region.dim != u.dim:
        raise DimensionMismatchError("region dim must match function dim")
    origin, contrib = _local_contributions(u)
    inside = region.contains_points(_cell_centers(u.level, origin, contrib.shape))
    return float(np.sum(contrib.ravel()[inside]))


def l1_norm_on(u: GridFunction, region: Region) -> float:
    if region.dim != u.dim:
        raise DimensionMismatchError("region dim must match function dim")
    inside = region.contains_points(_cell_centers(u.level, u.origin, u.extents)).reshape(u.extents)
    return float(np.sum(np.abs(u.values)[inside])) * u.cell_measure


def bv_norm(u: GridFunction, region: Region | None = None) -> float:
    if region is None:
        region = full_region(u.dim)
    return total_variation_on(u, region) + l1_norm_on(u, region)


@dataclass(frozen=True)
class ScalarC1:
    """Scalar map with an explicit sup bound on its derivative.

    The bound is part of the data, never estimated numerically; chain-rule
    audits are only as honest as this field.  The map must fix 0, checked
    once when it is made: zero extension outside the box is implicit, so a
    map with phi(0) != 0 would silently change the function off the grid.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivative_bound: float
    name: str

    def __post_init__(self) -> None:
        at_zero = float(self(np.zeros(1))[0])
        if at_zero != 0.0:
            raise SupportViolationError(
                f"scalar map {self.name!r} has phi(0) = {at_zero}, breaking zero extension"
            )

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ChainRuleReport:
    map_name: str
    derivative_bound: float
    tv_input: float
    tv_composed: float
    bound: float
    ok: bool


def compose_scalar(phi: ScalarC1, u: GridFunction) -> tuple[GridFunction, ChainRuleReport]:
    """Pointwise composition phi(u) with the variation inequality report."""
    composed = GridFunction(u.dim, u.level, u.origin, u.extents, phi(u.values))
    tv_in = total_variation(u)
    tv_out = total_variation(composed)
    bound = phi.derivative_bound * tv_in
    ok = tv_out <= bound * (1.0 + CHAIN_RULE_SLACK)
    return composed, ChainRuleReport(
        phi.name, phi.derivative_bound, tv_in, tv_out, bound, ok
    )


@dataclass(frozen=True)
class TVReport:
    """Unit-cube splitting of the variation, with the overlap bound."""

    total: float
    per_cube: dict[tuple[int, ...], float] = field(repr=False)
    sum_per_cube: float = 0.0
    splitting_bound: float = 0.0
    ok: bool = True


def _axis_cubes(origin: int, n: int, level: int) -> np.ndarray:
    """Unit-cube coordinate of the center of each cell ``origin + i``.

    Integer arithmetic only: at level L >= 0 a cell of index k lies in cube
    k >> L; at L < 0 each cell spans 2^-L cubes and its center lies in cube
    (k << -L) + 2^(-L-1).  Coordinates that do not fit an int64 are refused,
    checked on Python ints before any is computed.
    """
    ends = (origin, origin + n - 1)
    if level < 0:
        ends = tuple((k << -level) + (1 << (-level - 1)) for k in ends)
    int64 = np.iinfo(np.int64)
    if not all(int64.min <= k <= int64.max for k in ends):
        raise InputError(
            f"level {level}: unit-cube coordinates {ends[0]}..{ends[1]} of cells "
            f"{origin}..{origin + n - 1} do not fit a 64-bit integer"
        )
    k = origin + np.arange(n, dtype=np.int64)
    if level >= 0:
        return k >> level
    return (k << -level) + (1 << (-level - 1))


def lattice_tv_sum(u: GridFunction) -> TVReport:
    """Split TV over the integer lattice of unit cubes.

    Each cell's contribution is booked to the unit cube holding its center,
    found by integer shifts of the cell index.  Keys are built for the
    nonzero cells only: their indices are unraveled, each axis index is
    looked up among that axis's distinct cube coordinates, and the ranks are
    raveled into a dense cube key, so no key array of the full padded grid
    is made.  Only the booked cubes are indexed, by sorting the keys, so no
    array is sized by the cube lattice of the box.  ``np.bincount`` adds
    each cube's contributions in flat cell order from 0.0, and ``per_cube``
    lists the cubes in order of their first nonzero cell.  The sum over
    cubes is checked against 3^dim times the total, the overlap factor
    coming from differences that read one cell beyond each cube.
    """
    origin, contrib = _local_contributions(u)
    flat = contrib.ravel()
    nz = np.flatnonzero(flat)
    # per axis: the distinct cube coordinates, and each padded cell's rank
    # among them, so cube keys stay dense whatever the level
    axes = [
        np.unique(_axis_cubes(o, n, int(u.level)), return_inverse=True)
        for o, n in zip(origin, contrib.shape)
    ]
    cube_shape = tuple(len(c) for c, _ in axes)
    cells = np.unravel_index(nz, contrib.shape)
    keys = np.ravel_multi_index(
        tuple(rank[i] for (_, rank), i in zip(axes, cells)), cube_shape
    )
    # the booked cubes' keys, the position of each one's first nonzero cell
    # and each nonzero cell's cube among them
    booked, first, cube = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(cube, weights=flat[nz], minlength=booked.size)
    order = np.argsort(first)  # first positions are distinct
    ranks = np.unravel_index(booked[order], cube_shape)
    coords = np.stack([c[r] for (c, _), r in zip(axes, ranks)], axis=-1)
    per_cube: dict[tuple[int, ...], float] = dict(
        zip(map(tuple, coords.tolist()), sums[order].tolist())
    )
    total = float(np.sum(flat))
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    ok = sum_per_cube <= bound * (1.0 + SPLITTING_SLACK)
    return TVReport(total, per_cube, sum_per_cube, bound, ok)
