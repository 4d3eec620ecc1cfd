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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import DimensionMismatchError, GridFunction, Region, _cell_centers, full_region

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


def _local_contributions(u: GridFunction) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-cell variation, attributed to the base cell of each forward pair.

    Returns the origin of the padded index domain (one cell below the box on
    every axis) and the array of h^{dim-1} * sum_k |forward difference| over
    that domain: (n+2)^dim cells, the layout of the zero-padded values.

    The padded copy itself is never made, and the result is bit-identical to
    forward differences of it.  Across axis k, the face above padded cell i
    adds |v[0]| at i = 0, |v[i] - v[i-1]| for 0 < i < n and |v[n-1]| at
    i = n, exactly the differences against the zero padding.  Rows on the
    border of another axis would add |0 - 0|; they get nothing, and adding
    +0.0 to a sum of absolute values leaves it unchanged.  So each cell gets
    the same terms, added in the same axis order from 0.0, and is then scaled
    by the same h^{dim-1}, in place; the array has the same contiguous
    layout, so ``np.sum`` over it groups the terms the same way too.
    """
    v = u.values
    acc = np.zeros(tuple(n + 2 for n in v.shape))
    box = (slice(1, -1),) * u.dim
    for axis in range(u.dim):
        lead = (slice(None),) * axis  # v: every row of the axes before `axis`
        pre, post = box[:axis], box[axis + 1 :]  # acc: box rows of the other axes
        diff = np.subtract(v[lead + (slice(1, None),)], v[lead + (slice(None, -1),)])
        np.abs(diff, out=diff)
        faces = acc[pre + (slice(1, -2),) + post]
        faces += diff
        del diff  # free it before the next axis allocates its own
        faces = acc[pre + (slice(0, 1),) + post]
        faces += np.abs(v[lead + (slice(0, 1),)])
        faces = acc[pre + (slice(-2, -1),) + post]
        faces += np.abs(v[lead + (slice(-1, None),)])
    acc *= u.spacing ** (u.dim - 1)
    return tuple(o - 1 for o in u.origin), acc


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
    audits are only as honest as this field.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivative_bound: float
    name: str

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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compose_scalar(phi: ScalarC1, u: GridFunction) -> tuple[GridFunction, ChainRuleReport]:
    """Pointwise composition phi(u) with the variation inequality report.

    phi must fix 0: zero extension outside the box is implicit, so a map with
    phi(0) != 0 would silently change the function off the grid.
    """
    at_zero = float(phi(np.zeros(1))[0])
    if at_zero != 0.0:
        raise SupportViolationError(
            f"scalar map {phi.name!r} has phi(0) = {at_zero}, breaking zero extension"
        )
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

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "sum_per_cube": self.sum_per_cube,
            "splitting_bound": self.splitting_bound,
            "cubes": {",".join(map(str, k)): v for k, v in sorted(self.per_cube.items())},
            "ok": self.ok,
        }


def _axis_cubes(origin: int, n: int, level: int) -> np.ndarray:
    """Unit-cube coordinate of the center of each cell ``origin + i``.

    Integer arithmetic only: at level L >= 0 a cell of index k lies in cube
    k >> L; at L < 0 each cell spans 2^-L cubes and its center lies in cube
    (k << -L) + 2^(-L-1).
    """
    k = origin + np.arange(n, dtype=np.int64)
    if level >= 0:
        return k >> level
    return (k << -level) + (1 << (-level - 1))


def lattice_tv_sum(u: GridFunction) -> TVReport:
    """Split TV over the integer lattice of unit cubes.

    Each cell's contribution is booked to the unit cube holding its center,
    found by integer shifts of the cell index.  ``np.bincount`` adds each
    cube's contributions in flat cell order from 0.0, and ``per_cube`` lists
    the cubes in order of their first nonzero cell.  The sum over cubes is
    checked against 3^dim times the total, the overlap factor coming from
    differences that read one cell beyond each cube.
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
    n_cubes = int(np.prod(cube_shape))
    ranks = np.meshgrid(*(rank for _, rank in axes), indexing="ij", sparse=True)
    keys = np.ravel_multi_index(ranks, cube_shape).ravel()[nz]
    sums = np.bincount(keys, weights=flat[nz], minlength=n_cubes)
    # position of each cube's first nonzero cell; nz.size marks an empty cube
    first = np.full(n_cubes, nz.size)
    np.minimum.at(first, keys, np.arange(nz.size))
    booked = np.flatnonzero(first < nz.size)
    ordered = booked[np.argsort(first[booked], kind="stable")]
    ranks = np.unravel_index(ordered, cube_shape)
    coords = np.stack([c[r] for (c, _), r in zip(axes, ranks)], axis=-1)
    per_cube: dict[tuple[int, ...], float] = dict(
        zip(map(tuple, coords.tolist()), sums[ordered].tolist())
    )
    total = float(np.sum(flat))
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    ok = sum_per_cube <= bound * (1.0 + SPLITTING_SLACK)
    return TVReport(total, per_cube, sum_per_cube, bound, ok)
