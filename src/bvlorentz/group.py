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

import numpy as np

from . import bv
from . import rearrange
from .grid import _MAX_LEVEL_DIM, GridFunction, InputError, _computed, refine

__all__ = [
    "DyadicVector",
    "GroupElement",
    "ScaleBoundError",
    "act",
    "compose",
    "identity",
    "inverse",
    "isometry_defect",
    "isometry_defects",
]

#: Largest |j| accepted by the action; <= 20 keeps every scale factor exact
#: and every flattened level within desk range.
DEFAULT_SCALE_BOUND = 20


class ScaleBoundError(InputError):
    """Raised when a scale exponent exceeds DEFAULT_SCALE_BOUND."""


@dataclass(frozen=True)
class DyadicVector:
    """Vector of dyadic rationals numerators * 2^-level, kept normalized."""

    numerators: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        nums = tuple(int(n) for n in self.numerators)
        level = int(self.level)
        if level < -_MAX_LEVEL_DIM:  # before 2^-level is multiplied out
            raise ValueError(f"level {level} is below -{_MAX_LEVEL_DIM}")
        if level < 0:
            nums = tuple(n * 2 ** (-level) for n in nums)
            level = 0
        # cancel the common power of two in one shift: the fewest trailing
        # zeros of a nonzero numerator, capped at level (zero goes to level 0)
        shift = min([(n & -n).bit_length() - 1 for n in nums if n] + [level])
        nums = tuple(n >> shift for n in nums)
        level -= shift
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "level", level)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    def as_floats(self) -> np.ndarray:
        return np.asarray(self.numerators, dtype=float) * 2.0**-self.level

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
        # JSON integers only: int() would load 0.9 as 0, true as 1, "12" as (1, 2)
        nums, level = d["numerators"], d["level"]
        if type(nums) is not list or not all(type(x) is int for x in nums + [level]):
            raise ValueError(f"numerators and level must be integers, got {d!r}")
        return DyadicVector(tuple(nums), level)

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
        if type(d["j"]) is not int:
            raise ValueError(f"j must be an integer, got {d['j']!r}")
        return GroupElement(d["j"], DyadicVector.from_dict(d["y"]))


def identity(dim: int) -> GroupElement:
    return GroupElement(0, DyadicVector.zero(dim))


def compose(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """The element acting as g2 after g1: j adds, y2 + 2^{-j2} y1."""
    if g2.dim != g1.dim:
        raise ValueError("dimension mismatch")
    return GroupElement(g1.j + g2.j, g2.y + g1.y.scaled_pow2(-g2.j))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.j, -g.y.scaled_pow2(g.j))


def _placement(g: GroupElement, u: GridFunction) -> tuple[int, tuple[int, ...]]:
    """Where ``act(g, u)`` puts the cells of ``u``, in Python ints.

    Returns the level ``u`` is refined to and the origin of the result at
    the output level, which is that level + j.  ``u`` is never coarsened, and
    refined only as far as y needs to be a whole number of cells at the
    output level: the trailing zeros of y's numerators count towards it, and
    y = 0 needs no refinement.
    """
    zeros = min(((n & -n).bit_length() - 1 for n in g.y.numerators if n), default=None)
    level = u.level if zeros is None else max(u.level, g.y.level - zeros - g.j)
    f = 2 ** (level - u.level)
    shift = g.y.scaled_pow2(level + g.j)
    return level, tuple(o * f + s for o, s in zip(u.origin, shift.numerators))


def act(g: GroupElement, u: GridFunction) -> GridFunction:
    """Apply the group element to a grid function, exactly.

    The result lives at level ``u.level + j``.  If the translation is not
    representable there, ``u`` is refined first (never coarsened), which is
    where the cell guard can fire.  Values whose scaling by 2^((dim-1)j)
    overflows a double raise ``InputError``.
    """
    if abs(g.j) > DEFAULT_SCALE_BOUND:
        raise ScaleBoundError(f"|j| = {abs(g.j)} exceeds scale bound {DEFAULT_SCALE_BOUND}")
    if g.dim != u.dim:
        raise ValueError("dimension mismatch")
    level, origin = _placement(g, u)
    u = refine(u, level)
    k = (u.dim - 1) * g.j
    with np.errstate(over="ignore"):  # an overflow is refused by _computed
        values = u.values * 2.0**k
    return _computed(u.dim, level + g.j, origin, values, f"scaling values by 2^{k}")


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


def isometry_defects(g: GroupElement, u: GridFunction, norm_ids) -> list[float]:
    """Relative defects |‖gu‖ - ‖u‖| / ‖u‖, one per norm id, from one action.

    ``g`` acts on ``u`` at most once, and not at all when every norm of
    ``u`` is zero, so ``g u`` is sorted and its faces summed once for all
    the ids.  A norm that is zero on ``u`` gives a defect of 0.  ``g u`` is
    sorted on its own and never gets ``u``'s rearrangement rescaled: a
    rescaled one would check the scaling formula against itself.
    """
    befores = [_norm_value(u, norm_id) for norm_id in norm_ids]
    if not any(befores):
        return [0.0] * len(befores)
    gu = act(g, u)
    return [
        0.0 if before == 0.0 else abs(_norm_value(gu, norm_id) - before) / before
        for norm_id, before in zip(norm_ids, befores)
    ]


def isometry_defect(g: GroupElement, u: GridFunction, norm_id) -> float:
    """Relative defect |‖gu‖ - ‖u‖| / ‖u‖ (zero function gives 0).

    ``norm_id`` is "bv", ("lorentz", p, q) or ("lebesgue", p); only the
    variation and the critical-exponent Lorentz norms are isometric.
    """
    return isometry_defects(g, u, [norm_id])[0]
