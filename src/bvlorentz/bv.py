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

The per-face kernel lives in :mod:`bvlorentz.grid`: the total is the cached
:attr:`GridFunction.variation`, and every reader of the per-cell array over
the padded box (region sums here, the lattice split, the layer audit) gets
it from :meth:`GridFunction.face_contributions`, whose lowest cell is
``origin - 1`` on every axis.
"""
from __future__ import annotations

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
    contrib = u.face_contributions()
    origin = tuple(o - 1 for o in u.origin)
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
    contrib = u.face_contributions()
    origin = tuple(o - 1 for o in u.origin)
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
    total = u.variation
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    ok = sum_per_cube <= bound * (1.0 + SPLITTING_SLACK)
    return TVReport(total, per_cube, sum_per_cube, bound, ok)
