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

from .grid import (
    DimensionMismatchError,
    GridFunction,
    Region,
    full_region,
)
from .rearrange import LorentzIndex, critical_exponent, lorentz_norm

__all__ = [
    "BVEmbeddingReport",
    "ChainRuleReport",
    "ScalarC1",
    "SupportViolationError",
    "TVReport",
    "bv_norm",
    "compose_scalar",
    "embedding_audit_bv",
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
    every axis) and the array of h^{dim-1} * sum_k |forward difference|.
    """
    padded = np.pad(u.values, (1, 1))
    acc = np.zeros_like(padded)
    for axis in range(u.dim):
        d = np.abs(np.diff(padded, axis=axis))
        head = tuple(
            slice(0, padded.shape[a] - (1 if a == axis else 0)) for a in range(u.dim)
        )
        acc[head] += d
    h_face = u.spacing ** (u.dim - 1)
    return tuple(o - 1 for o in u.origin), acc * h_face


def total_variation(u: GridFunction) -> float:
    _, contrib = _local_contributions(u)
    return float(np.sum(contrib))


def _padded_centers(u: GridFunction, origin: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    h = u.spacing
    axes = [(origin[a] + np.arange(shape[a]) + 0.5) * h for a in range(u.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def total_variation_on(u: GridFunction, region: Region) -> float:
    """Variation restricted to cells whose center lies in the region.

    Forward differences still read one cell beyond the region; that overlap
    is what the cube-splitting estimate bounds.
    """
    if region.dim != u.dim:
        raise DimensionMismatchError("region dim must match function dim")
    origin, contrib = _local_contributions(u)
    inside = region.contains_points(_padded_centers(u, origin, contrib.shape))
    return float(np.sum(contrib.ravel()[inside]))


def l1_norm_on(u: GridFunction, region: Region) -> float:
    if region.dim != u.dim:
        raise DimensionMismatchError("region dim must match function dim")
    inside = region.contains_points(u.centers()).reshape(u.extents)
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


def lattice_tv_sum(u: GridFunction) -> TVReport:
    """Split TV over the integer lattice of unit cubes.

    Each cell's contribution is booked to the unit cube holding its center;
    the sum over cubes is checked against 3^dim times the total, the overlap
    factor coming from differences that read one cell beyond each cube.
    """
    origin, contrib = _local_contributions(u)
    centers = _padded_centers(u, origin, contrib.shape)
    cubes = np.floor(centers).astype(int)
    flat = contrib.ravel()
    per_cube: dict[tuple[int, ...], float] = {}
    nz = np.flatnonzero(flat)
    for i in nz:
        key = tuple(cubes[i])
        per_cube[key] = per_cube.get(key, 0.0) + float(flat[i])
    total = float(np.sum(flat))
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    ok = sum_per_cube <= bound * (1.0 + SPLITTING_SLACK)
    return TVReport(total, per_cube, sum_per_cube, bound, ok)


@dataclass(frozen=True)
class BVEmbeddingReport:
    q: float
    norm_lorentz_q: float
    norm_lorentz_1: float
    norm_bv: float
    empirical_constant: float
    ok_q_vs_1: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def embedding_audit_bv(u: GridFunction, region: Region, q: float) -> BVEmbeddingReport:
    """The chain L^{p,q} <= L^{p,1} <= C BV at the critical exponent.

    The first inequality is asserted (it holds with constant one for q >= 1
    at this exponent); the constant in the second is only recorded.
    """
    from .grid import restrict

    p = critical_exponent(u.dim)
    ru = restrict(u, region)
    nq = lorentz_norm(ru, LorentzIndex(p, q))
    n1 = lorentz_norm(ru, LorentzIndex(p, 1.0))
    nbv = bv_norm(u, region)
    const = n1 / nbv if nbv > 0 else float("inf")
    ok = nq <= n1 * (1.0 + 1e-12)
    return BVEmbeddingReport(q, nq, n1, nbv, const, ok)
