"""Radial step functions with closed-form geometry.

A :class:`RadialStep` is piecewise constant on spherical shells.  Everything
the concentration study needs from these functions (shell measures, total
variation via the co-area structure, Lorentz chunks, the inverse-radius
pairing) reduces to finite sums over breakpoints, so this module is exact
where a grid would need millions of cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridFunction, UnsupportedDimensionError, _check_dim, _frozen, _guard
from .rearrange import StepFunction, step_from_pairs, unit_ball_volume

__all__ = [
    "RadialStep",
    "annulus_indicator",
    "dual_pairing_inverse_radius",
    "piecewise_tv",
    "radial_tv",
    "staircase",
    "to_grid",
]


@dataclass(frozen=True)
class RadialStep:
    """Function equal to values[m] on the shell radii[m] < |x| <= radii[m+1].

    ``radii`` starts at 0 and is strictly increasing; ``values`` has one entry
    per shell.  Trailing zero shells are trimmed on construction, down to the
    innermost one, so the outer radius is meaningful.
    """

    dim: int
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        r = np.asarray(self.radii, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if r.ndim != 1 or v.ndim != 1 or v.size == 0 or r.size != v.size + 1:
            raise ValueError("need at least one shell and len(radii) == len(values) + 1")
        if r[0] != 0.0:
            raise ValueError("radii must start at 0")
        if not np.all(np.diff(r) > 0):  # also False at NaN
            raise ValueError("radii must be strictly increasing")
        if r[-1] == np.inf:  # increasing radii can be infinite only at the end
            raise ValueError("radii must be finite: the outer radius is inf")
        finite = np.isfinite(v)
        if not finite.all():
            bad = v.size - np.count_nonzero(finite)
            raise ValueError(f"values must be finite: {bad} of {v.size} shells hold NaN or inf")
        while v.size > 1 and v[-1] == 0.0:
            v = v[:-1]
            r = r[:-1]
        with np.errstate(over="ignore"):
            ball = unit_ball_volume(self.dim) * r[-1] ** self.dim
        if ball == np.inf:
            raise ValueError(f"the outer radius {float(r[-1])!r} bounds a ball whose volume overflows a double")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    @property
    def outer_radius(self) -> float:
        return float(self.radii[-1])

    def shell_measures(self) -> np.ndarray:
        omega = unit_ball_volume(self.dim)
        return omega * np.diff(self.radii**self.dim)

    @cached_property
    def rearrangement(self) -> StepFunction | None:
        """The decreasing rearrangement of |u| over the shells (None if zero)."""
        return step_from_pairs(self.values, self.shell_measures())

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """Value at radius r (shells are open at the inner radius)."""
        r = np.asarray(r, dtype=float)
        idx = np.searchsorted(self.radii, r, side="left") - 1
        padded = np.concatenate((self.values, [0.0]))
        idx = np.where((idx < 0) | (idx >= self.values.size), self.values.size, idx)
        return padded[idx]

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values) * self.shell_measures()))


def annulus_indicator(dim: int) -> RadialStep:
    """Indicator of the shell 1 < |x| <= 2."""
    if dim < 2:
        raise UnsupportedDimensionError("the annulus construction needs dim >= 2")
    return RadialStep(dim, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))


def staircase(dim: int, n: int) -> RadialStep:
    """Average of the first n dyadic rescalings of the annulus indicator.

    Shell 2^-i < |x| <= 2^-(i-1) carries the value 2^{i(dim-1)} / n, for
    i = 1..n; a single zero shell fills the hole below 2^-n.
    """
    if dim < 2:
        raise UnsupportedDimensionError("the staircase construction needs dim >= 2")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    radii = np.concatenate(([0.0], 2.0 ** -np.arange(n, -1, -1.0)))
    values = np.concatenate(([0.0], 2.0 ** (np.arange(n, 0, -1.0) * (dim - 1)) / n))
    return RadialStep(dim, radii, values)


def radial_tv(u: RadialStep) -> float:
    """Total variation from the jump structure: sum of jump * sphere area.

    Shared interfaces between shells are counted once, with the actual jump
    across the interface, which is the co-area value of the function itself.
    """
    dim = u.dim
    omega = unit_ball_volume(dim)
    jumps = np.abs(np.diff(np.concatenate((u.values, [0.0]))))
    # the jump at radii[0] = 0 is a point (dim >= 2: zero sphere area) or,
    # for dim == 1, two points of the even extension; either way no interface
    spheres = dim * omega * u.radii[1:] ** (dim - 1)
    return float(np.sum(spheres * jumps))


def piecewise_tv(u: RadialStep) -> float:
    """Sum of the variations of each shell taken in isolation.

    Each shell contributes |value| times the area of both bounding spheres.
    For a sum of separated pieces this equals the true variation; when shells
    touch it over-counts the shared interfaces, so it dominates
    :func:`radial_tv`.
    """
    dim = u.dim
    omega = unit_ball_volume(dim)
    inner = u.radii[:-1] ** (dim - 1)
    outer = u.radii[1:] ** (dim - 1)
    return float(np.sum(dim * omega * (inner + outer) * np.abs(u.values)))


def dual_pairing_inverse_radius(u: RadialStep) -> float:
    """Pairing with 1/|x|: integral of u(x)/|x| dx, exact per shell.

    Each shell contributes value * dim * |B_1| * (r_out^{dim-1} - r_in^{dim-1})
    / (dim - 1); the kernel is integrable at the origin only for dim >= 2.
    """
    if u.dim < 2:
        raise UnsupportedDimensionError("the inverse-radius pairing needs dim >= 2")
    dim = u.dim
    omega = unit_ball_volume(dim)
    diffs = np.diff(u.radii ** (dim - 1))
    return float(np.sum(u.values * dim * omega * diffs / (dim - 1)))


def to_grid(u: RadialStep, level: int) -> GridFunction:
    """Sample the radial function at the cell centers of the dyadic grid on
    the symmetric cube just covering the support.

    The cube has n = 2k cells per axis with origin -k, so the cell centres
    (i + 1/2) h are symmetric about 0 and a mirrored centre has bitwise the
    same squared radius.  Only the (n/2)^dim centres of the positive orthant
    are evaluated; the other orthants are mirror copies of them.
    """
    k = int(np.ceil(u.outer_radius * 2**level))
    n = 2 * k
    _guard(n**u.dim)
    axis = (np.arange(k) + 0.5) * 2.0 ** (-level)
    mesh = np.meshgrid(*[axis] * u.dim, indexing="ij", sparse=True)
    q = u.evaluate(np.sqrt(sum(m**2 for m in mesh)))
    for a in range(u.dim):
        q = np.concatenate((np.flip(q, a), q), axis=a)
    return GridFunction(u.dim, level, (-k,) * u.dim, (n,) * u.dim, _frozen(q))
