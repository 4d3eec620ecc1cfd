"""The dyadic rescaling group acting on grid functions.

An element scales by a power of two and translates by a dyadic rational:

    (g u)(x) = 2^{(dim-1) j} u(2^j (x - y)).

The prefactor makes the action an isometry of the variation and of the
critical-exponent Lorentz quasinorms.  On grid data the action is a pure
relabeling (level shifts by j, values pick up an exact power of two, the
origin moves), so isometry defects are float-rounding only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bv
from . import rearrange
from .grid import GridFunction, refine

__all__ = [
    "DyadicVector",
    "GroupElement",
    "ScaleBoundError",
    "act",
    "compose",
    "identity",
    "inverse",
    "isometry_defect",
]

#: Largest |j| accepted by the action; <= 20 keeps every scale factor exact
#: and every flattened level within desk range.
DEFAULT_SCALE_BOUND = 20


class ScaleBoundError(ValueError):
    """Raised when a scale exponent exceeds the configured bound."""


@dataclass(frozen=True)
class DyadicVector:
    """Vector of dyadic rationals numerators * 2^-level, kept normalized."""

    numerators: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        nums = tuple(int(n) for n in self.numerators)
        level = int(self.level)
        if level < 0:
            nums = tuple(n * 2 ** (-level) for n in nums)
            level = 0
        while level > 0 and all(n % 2 == 0 for n in nums):
            nums = tuple(n // 2 for n in nums)
            level -= 1
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "level", level)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def is_zero(self) -> bool:
        return all(n == 0 for n in self.numerators)

    def as_floats(self) -> np.ndarray:
        return np.asarray(self.numerators, dtype=float) * 2.0**-self.level

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, 2**self.level) for n in self.numerators)

    def scaled_pow2(self, k: int) -> "DyadicVector":
        """Exact multiplication by 2^k."""
        if k >= self.level:
            return DyadicVector(tuple(n * 2 ** (k - self.level) for n in self.numerators), 0)
        return DyadicVector(self.numerators, self.level - k)

    def __add__(self, other: "DyadicVector") -> "DyadicVector":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        lev = max(self.level, other.level)
        a = tuple(n * 2 ** (lev - self.level) for n in self.numerators)
        b = tuple(n * 2 ** (lev - other.level) for n in other.numerators)
        return DyadicVector(tuple(x + y for x, y in zip(a, b)), lev)

    def __neg__(self) -> "DyadicVector":
        return DyadicVector(tuple(-n for n in self.numerators), self.level)

    def to_dict(self) -> dict:
        return {"numerators": list(self.numerators), "level": self.level}

    @staticmethod
    def from_dict(d: dict) -> "DyadicVector":
        return DyadicVector(tuple(d["numerators"]), d["level"])

    @staticmethod
    def zero(dim: int) -> "DyadicVector":
        return DyadicVector((0,) * dim, 0)

    @staticmethod
    def integers(*coords: int) -> "DyadicVector":
        return DyadicVector(tuple(coords), 0)


@dataclass(frozen=True)
class GroupElement:
    """Scale exponent j and dyadic translation y."""

    j: int
    y: DyadicVector

    @property
    def dim(self) -> int:
        return self.y.dim

    def to_dict(self) -> dict:
        return {"j": self.j, "y": self.y.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "GroupElement":
        return GroupElement(int(d["j"]), DyadicVector.from_dict(d["y"]))


def identity(dim: int) -> GroupElement:
    return GroupElement(0, DyadicVector.zero(dim))


def compose(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """The element acting as g2 after g1: j adds, y2 + 2^{-j2} y1."""
    if g2.dim != g1.dim:
        raise ValueError("dimension mismatch")
    return GroupElement(g1.j + g2.j, g2.y + g1.y.scaled_pow2(-g2.j))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.j, -g.y.scaled_pow2(g.j))


def act(
    g: GroupElement,
    u: GridFunction,
    *,
    scale_bound: int | None = None,
    cell_guard: int | None = None,
) -> GridFunction:
    """Apply the group element to a grid function, exactly.

    The result lives at level ``u.level + j``.  If the translation is not
    representable there, ``u`` is refined first (never coarsened), which is
    where the cell guard can fire.
    """
    bound = DEFAULT_SCALE_BOUND if scale_bound is None else scale_bound
    if abs(g.j) > bound:
        raise ScaleBoundError(f"|j| = {abs(g.j)} exceeds scale bound {bound}")
    if g.dim != u.dim:
        raise ValueError("dimension mismatch")
    # y must be a whole number of cells at the output level
    needed = g.y.level - (u.level + g.j)
    if needed > 0:
        u = refine(u, u.level + needed, cell_guard=cell_guard)
    out_level = u.level + g.j
    shift = g.y.scaled_pow2(out_level)
    assert shift.level == 0
    origin = tuple(o + s for o, s in zip(u.origin, shift.numerators))
    factor = 2.0 ** ((u.dim - 1) * g.j)
    return GridFunction(u.dim, out_level, origin, u.extents, u.values * factor)


def _norm_value(u: GridFunction, norm_id) -> float:
    if norm_id == "bv":
        return bv.total_variation(u)
    kind = norm_id[0]
    if kind == "lorentz":
        _, p, q = norm_id
        return rearrange.lorentz_norm(u, rearrange.LorentzIndex(p, q))
    if kind == "lebesgue":
        return rearrange.lebesgue_norm(u, norm_id[1])
    raise ValueError(f"unknown norm id {norm_id!r}")


def isometry_defect(g: GroupElement, u: GridFunction, norm_id) -> float:
    """Relative defect |‖gu‖ - ‖u‖| / ‖u‖ (zero function gives 0).

    ``norm_id`` is "bv", ("lorentz", p, q) or ("lebesgue", p); only the
    variation and the critical-exponent Lorentz norms are isometric.
    """
    before = _norm_value(u, norm_id)
    if before == 0.0:
        return 0.0
    after = _norm_value(act(g, u), norm_id)
    return abs(after - before) / before
