"""Decreasing rearrangements and Lorentz quasinorms, exact on step data.

Everything here operates on finite lists of (value, measure) chunks, so the
defining integrals reduce to closed-form power sums and no quadrature error
enters.  Any object exposing ``value_measure_pairs()`` can be rearranged;
grid functions and radial step functions both do.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DomainError",
    "LorentzIndex",
    "LorentzIndexError",
    "NestedEmbeddingReport",
    "StepFunction",
    "critical_exponent",
    "decreasing_rearrangement",
    "distribution_function",
    "embedding_audit_nested",
    "lebesgue_norm",
    "load_step",
    "lorentz_norm",
    "lorentz_norm_symmetrization",
    "lorentz_norm_weak",
    "save_step",
    "schwarz_profile",
    "step_from_pairs",
    "unit_ball_volume",
]

#: Exact unit-ball volumes for the supported dimensions; no gamma function.
_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


class LorentzIndexError(ValueError):
    """Raised for inadmissible Lorentz exponents."""


class DomainError(ValueError):
    """Raised for arguments outside a function's domain, e.g. negative heights."""


def unit_ball_volume(dim: int) -> float:
    try:
        return _BALL_VOLUME[dim]
    except KeyError:
        raise LorentzIndexError(f"unit ball volume tabulated only for dim 1..3, got {dim}")


def critical_exponent(dim: int) -> float:
    """The exponent p with the dyadic-scaling isometry, N/(N-1)."""
    if dim < 2:
        raise LorentzIndexError("critical exponent needs dim >= 2")
    return dim / (dim - 1.0)


@dataclass(frozen=True)
class LorentzIndex:
    """Admissible pair (p, q); q may be math.inf for the weak space."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not self.p > 0:
            raise LorentzIndexError(f"p must be positive, got {self.p}")
        if not self.q > 0:
            raise LorentzIndexError(f"q must be positive, got {self.q}")


@dataclass(frozen=True)
class StepFunction:
    """A non-increasing step function on (0, total measure), zero afterward.

    Chunk i takes the value ``values[i]`` on a set of measure ``measures[i]``.
    Values are strictly decreasing and positive, measures positive; use
    :func:`step_from_pairs` to build one from unsorted data.
    """

    values: np.ndarray
    measures: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.measures, dtype=np.float64)
        if v.ndim != 1 or m.shape != v.shape:
            raise ValueError("values and measures must be 1-d arrays of equal length")
        if np.any(v <= 0):
            raise ValueError("chunk values must be positive")
        if np.any(np.diff(v) >= 0):
            raise ValueError("chunk values must be strictly decreasing")
        if np.any(m <= 0):
            raise ValueError("chunk measures must be positive")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.measures))

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.measures)

    def value_measure_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.measures

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Right-continuous evaluation at t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("rearrangements live on t >= 0")
        edges = self.cumulative()
        idx = np.searchsorted(edges, t, side="right")
        padded = np.append(self.values, 0.0)
        return padded[idx]


def step_from_pairs(values: np.ndarray, measures: np.ndarray) -> StepFunction | None:
    """Sort |values| decreasingly, merge equal values, drop zeros.

    Returns None for the zero function (empty chunk list).
    """
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    m = np.asarray(measures, dtype=np.float64).ravel()
    if v.shape != m.shape:
        raise ValueError("values and measures must have equal length")
    if np.any(m < 0):
        raise ValueError("measures must be nonnegative")
    keep = (v > 0) & (m > 0)
    v, m = v[keep], m[keep]
    if v.size == 0:
        return None
    order = np.argsort(-v, kind="stable")
    v, m = v[order], m[order]
    # merge runs of identical values so chunk values are strictly decreasing
    boundaries = np.concatenate(([True], np.diff(v) != 0.0))
    starts = np.flatnonzero(boundaries)
    merged_v = v[starts]
    merged_m = np.add.reduceat(m, starts)
    return StepFunction(merged_v, merged_m)


def _as_step(u) -> StepFunction | None:
    if isinstance(u, StepFunction):
        return u
    if hasattr(u, "value_measure_pairs"):
        return step_from_pairs(*u.value_measure_pairs())
    raise TypeError(f"cannot rearrange object of type {type(u).__name__}")


def decreasing_rearrangement(u) -> StepFunction | None:
    """The decreasing rearrangement u* as a step function (None if u == 0)."""
    return _as_step(u)


def distribution_function(u, lam: float) -> float:
    """Measure of {|u| > lam}; exact sum of chunk measures."""
    if lam < 0:
        raise DomainError(f"threshold must be nonnegative, got {lam}")
    s = _as_step(u)
    if s is None:
        return 0.0
    return float(np.sum(s.measures[s.values > lam]))


def schwarz_profile(u, dim: int | None = None) -> StepFunction | None:
    """Radial profile of the symmetrized function: u#(r) = u*(|B_1| r^dim).

    Returned as a step function over the radius variable; chunk "measures"
    are radius increments.
    """
    if dim is None:
        dim = getattr(u, "dim", None)
    if dim is None:
        raise LorentzIndexError("schwarz_profile needs the ambient dimension")
    s = _as_step(u)
    if s is None:
        return None
    omega = unit_ball_volume(dim)
    radii = np.power(s.cumulative() / omega, 1.0 / dim)
    widths = np.diff(np.concatenate(([0.0], radii)))
    return StepFunction(s.values, widths)


def lorentz_norm(u, idx: LorentzIndex) -> float:
    """Lorentz quasinorm via exact chunk quadrature of (u*(t) t^{1/p})^q dt/t.

    For a chunk of value v on cumulative measure (T0, T1) the contribution is
    v^q (p/q) (T1^{q/p} - T0^{q/p}).  The largest value and total measure are
    factored out so dyadic rescalings of values and measures pass through
    exactly.  q = inf is dispatched to the weak norm.
    """
    if math.isinf(idx.q):
        return lorentz_norm_weak(u, idx.p)
    s = _as_step(u)
    if s is None:
        return 0.0
    p, q = idx.p, idx.q
    vmax = float(s.values[0])
    tmax = s.total_measure
    tau = np.concatenate(([0.0], s.cumulative() / tmax))
    core = np.sum((s.values / vmax) ** q * (p / q) * np.diff(tau ** (q / p)))
    return vmax * tmax ** (1.0 / p) * float(core) ** (1.0 / q)


def lorentz_norm_weak(u, p: float) -> float:
    """Weak (q = inf) quasinorm: sup over chunks of value * T^{1/p}."""
    if not p > 0:
        raise LorentzIndexError(f"p must be positive, got {p}")
    s = _as_step(u)
    if s is None:
        return 0.0
    vmax = float(s.values[0])
    tmax = s.total_measure
    tau = s.cumulative() / tmax
    return vmax * tmax ** (1.0 / p) * float(np.max((s.values / vmax) * tau ** (1.0 / p)))


def lorentz_norm_symmetrization(u, idx: LorentzIndex, dim: int | None = None) -> float:
    """The same quasinorm computed through the Schwarz symmetrization.

    Evaluates |B_1|^{(q-p)/(pq)} (int (|x|^{dim/p} u#(|x|))^q dx/|x|^dim)^{1/q}
    with the radial integral reduced to closed form over profile chunks.
    Mathematically equal to :func:`lorentz_norm`; computed independently.
    """
    if dim is None:
        dim = getattr(u, "dim", None)
    if dim is None:
        raise LorentzIndexError("symmetrization form needs the ambient dimension")
    if math.isinf(idx.q):
        prof = schwarz_profile(u, dim)
        if prof is None:
            return 0.0
        omega = unit_ball_volume(dim)
        radii = np.cumsum(prof.measures)
        return float(np.max(prof.values * (omega ** (1.0 / idx.p)) * radii ** (dim / idx.p)))
    prof = schwarz_profile(u, dim)
    if prof is None:
        return 0.0
    p, q = idx.p, idx.q
    omega = unit_ball_volume(dim)
    radii = np.concatenate(([0.0], np.cumsum(prof.measures)))
    core = np.sum(prof.values**q * (dim * omega) * (p / (dim * q)) * np.diff(radii ** (dim * q / p)))
    return omega ** ((q - p) / (p * q)) * float(core) ** (1.0 / q)


def lebesgue_norm(u, p: float) -> float:
    """Plain L^p norm, p in (0, inf]; exact power sum over chunks."""
    if not p > 0:
        raise LorentzIndexError(f"p must be positive, got {p}")
    s = _as_step(u)
    if s is None:
        return 0.0
    if math.isinf(p):
        return float(s.values[0])
    vmax = float(s.values[0])
    tmax = s.total_measure
    core = np.sum((s.values / vmax) ** p * (s.measures / tmax))
    return vmax * tmax ** (1.0 / p) * float(core) ** (1.0 / p)


@dataclass(frozen=True)
class NestedEmbeddingReport:
    p1: float
    q1: float
    p2: float
    q2: float
    region_measure: float
    norm_first: float
    norm_second: float
    ratio: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def embedding_audit_nested(
    u, p1: float, q1: float, p2: float, q2: float, region_measure: float
) -> NestedEmbeddingReport:
    """Both norms of the nested-space pair on a finite-measure region.

    Requires p1 < p2.  Reports the ratio first/second; no constant is
    asserted, only finiteness is meaningful.
    """
    if not 0 < p1 < p2:
        raise LorentzIndexError(f"need 0 < p1 < p2, got ({p1}, {p2})")
    if region_measure <= 0:
        raise DomainError("region measure must be positive")
    n1 = lorentz_norm(u, LorentzIndex(p1, q1))
    if math.isinf(p2):
        s = _as_step(u)
        n2 = float(s.values[0]) if s is not None else 0.0
    else:
        n2 = lorentz_norm(u, LorentzIndex(p2, q2))
    ratio = n1 / n2 if n2 > 0 else (0.0 if n1 == 0 else float("inf"))
    return NestedEmbeddingReport(p1, q1, p2, q2, region_measure, n1, n2, ratio)


# -- serialization -----------------------------------------------------------

def save_step(s: StepFunction, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "measure", "cumulative_measure"])
        for v, m, c in zip(s.values, s.measures, s.cumulative()):
            w.writerow([repr(float(v)), repr(float(m)), repr(float(c))])


def load_step(path: str | Path) -> StepFunction:
    with Path(path).open() as fh:
        rows = list(csv.DictReader(fh))
    vals = np.array([float(r["value"]) for r in rows])
    meas = np.array([float(r["measure"]) for r in rows])
    return StepFunction(vals, meas)
