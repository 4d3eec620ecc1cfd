"""Decreasing rearrangements and Lorentz quasinorms, exact on step data.

Everything here operates on finite lists of (value, measure) chunks, so the
defining integrals reduce to closed-form power sums and no quadrature error
enters.  The norms take a :class:`StepFunction` or any object that caches its
decreasing rearrangement as ``rearrangement``: grid functions, formal sums
and radial step functions all do.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "LorentzIndex",
    "LorentzIndexError",
    "StepFunction",
    "critical_exponent",
    "lebesgue_norm",
    "lorentz_norm",
    "lorentz_norm_symmetrization",
    "lorentz_norm_weak",
    "schwarz_profile",
    "step_from_pairs",
    "unit_ball_volume",
]

#: Exact unit-ball volumes for the supported dimensions; no gamma function.
_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}

#: Chunks per block of the power sums (2^15 doubles, 256 KiB), so a block's
#: powers and the slice of terms they multiply stay in cache.
_BLOCK_CHUNKS = 1 << 15

_SCALAR_POWERS = {0.5: np.sqrt, 2.0: np.square, -1.0: np.reciprocal, 1.0: np.positive}


class LorentzIndexError(ValueError):
    """Raised for inadmissible Lorentz exponents."""


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
        # v > 0 is False at NaN, and strictly decreasing positive values can
        # be infinite only at v[0]: no extra pass finds the non-finite ones
        if not np.all(v > 0) or (v.size and v[0] == np.inf):
            bad = v.size - np.count_nonzero(np.isfinite(v))
            if bad:
                raise ValueError(
                    f"chunk values must be finite: {bad} of {v.size} chunks hold NaN or inf"
                )
            raise ValueError("chunk values must be positive")
        if np.any(np.diff(v) >= 0):
            raise ValueError("chunk values must be strictly decreasing")
        if not np.all(m > 0):
            raise ValueError("chunk measures must be positive")
        with np.errstate(over="ignore"):
            total = float(np.sum(m))
        if total == math.inf:  # the measures are positive: the total is not NaN
            raise ValueError("chunk measures must have a finite total: their sum overflows a double")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measures", m)
        self.__dict__["total_measure"] = total

    @classmethod
    def _unchecked(cls, values: np.ndarray, measures: np.ndarray) -> StepFunction:
        """A step of fresh float64 arrays known to pass every check."""
        values.setflags(write=False)
        measures.setflags(write=False)
        s = object.__new__(cls)
        s.__dict__.update(values=values, measures=measures)
        return s

    @cached_property
    def total_measure(self) -> float:
        return float(np.sum(self.measures))

    @cached_property
    def normalized_cumulative(self) -> np.ndarray:
        """0, then the cumulative measures over the total: shared by every q."""
        return np.concatenate(([0.0], self.cumulative() / self.total_measure))

    @cached_property
    def normalized_values(self) -> np.ndarray:
        """The values over the largest one: shared by every q."""
        return self.values / float(self.values[0])

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.measures)


def step_from_pairs(values: np.ndarray, measures: np.ndarray) -> StepFunction | None:
    """Sort |values| decreasingly, merge equal values (adding their measures)
    and drop zeros; one measure per value.  None for the zero function."""
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    m = np.asarray(measures, dtype=np.float64).ravel()
    if v.shape != m.shape:
        raise ValueError("values and measures must have equal length")
    if np.any(m < 0):
        raise ValueError("measures must be nonnegative")
    keep = (v > 0) & (m > 0)
    v, m = v[keep], m[keep]
    order = np.argsort(-v, kind="stable")
    v, m = v[order], m[order]
    if v.size == 0:
        return None
    # merge runs of identical values so chunk values are strictly decreasing
    starts = np.flatnonzero(np.concatenate(([True], np.diff(v) != 0.0)))
    return StepFunction(v[starts], np.add.reduceat(m, starts))


def _step_from_magnitudes(v: np.ndarray, m: float) -> StepFunction | None:
    """The step of a fresh 1-d float64 array of positive magnitudes on cells
    of measure ``m``, sorting ``v`` in place; None if v is empty or m is 0."""
    v.sort()
    n = v.size
    if n == 0 or not m > 0:
        return None
    # runs of identical values, found ascending and emitted decreasing
    first = np.empty(n + 1, dtype=bool)
    first[0] = first[n] = True
    np.not_equal(v[1:], v[:-1], out=first[1:n])
    if np.count_nonzero(first) == n + 1:  # all distinct, and 1 * m is m
        return StepFunction._unchecked(v[::-1].copy(), np.full(n, m))
    starts = np.flatnonzero(first)  # the last is n
    return StepFunction._unchecked(v[starts[-2::-1]], np.diff(starts)[::-1] * m)


def _as_step(u) -> StepFunction | None:
    return u if isinstance(u, StepFunction) else u.rearrangement


def schwarz_profile(u, dim: int) -> StepFunction | None:
    """Radial profile of the symmetrized function: u#(r) = u*(|B_1| r^dim).

    Returned as a step function over the radius variable; chunk "measures"
    are radius increments.  A chunk whose radius increment rounds to 0 (its
    measure is lost against a much larger ball) is dropped: it adds exactly
    0 to every norm of the profile.  None if no chunk is left.
    """
    s = _as_step(u)
    if s is None:
        return None
    omega = unit_ball_volume(dim)
    radii = np.power(s.cumulative() / omega, 1.0 / dim)
    widths = np.diff(np.concatenate(([0.0], radii)))
    keep = widths > 0
    if not keep.any():
        return None
    return StepFunction(s.values[keep], widths[keep])


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
    tau = s.normalized_cumulative
    if p / q == math.inf:  # the norm grows like (p/q)^(1/q): far past a double
        return math.inf
    # the measure factors tau_i^{q/p} - tau_{i-1}^{q/p}, differenced in place
    terms = tau ** (q / p)
    np.subtract(terms[1:], terms[:-1], out=terms[:-1])
    core = _power_sum(s.normalized_values, q, p / q, terms[:-1])
    if core < sys.float_info.min:  # the terms underflow (q large): sum them in logs
        log_core_q = _log_core_over_q(s.normalized_values, tau, p, q)
    else:
        try:
            return vmax * tmax ** (1.0 / p) * core ** (1.0 / q)
        except OverflowError:  # a factor is past a double (q or p near 0): multiply in logs
            log_core_q = math.log(core) / q
    return _exp_or_inf(math.log(vmax) + math.log(tmax) / p + log_core_q)


def _blocked_powers(x: np.ndarray, e: float):
    """(i, j, x[i:j] ** e) for consecutive blocks of ``_BLOCK_CHUNKS``.

    Every block is written into one reused buffer by the ufunc that ``x ** e``
    dispatches to (np.sqrt for e = 0.5, np.square for 2, ...), so each power
    has the bits of the full-array expression's.
    """
    power = _SCALAR_POWERS.get(e) or (lambda y, out: np.power(y, e, out=out))
    buf = np.empty(min(x.size, _BLOCK_CHUNKS))
    for i in range(0, x.size, _BLOCK_CHUNKS):
        block = power(x[i : i + _BLOCK_CHUNKS], out=buf[: min(x.size - i, _BLOCK_CHUNKS)])
        yield i, i + block.size, block


def _power_sum(v: np.ndarray, q: float, scale: float, weights: np.ndarray) -> float:
    """np.sum(v ** q * scale * weights), bit for bit, overwriting ``weights``.

    The terms are formed block by block in place in ``weights``, each by the
    same operations in the same order as the full-array expression, and
    np.sum groups the one contiguous term array as it would that
    expression's result.  Beside ``weights`` only one block is held.
    """
    for i, j, block in _blocked_powers(v, q):
        if scale != 1.0:  # x * 1.0 is x: skipping it changes no bit
            block *= scale
        np.multiply(block, weights[i:j], out=weights[i:j])
    return float(np.sum(weights))


def _exp_or_inf(log_norm: float) -> float:
    """exp(log_norm), or inf past the largest double (no OverflowError)."""
    return math.exp(log_norm) if log_norm < math.log(sys.float_info.max) else math.inf


def _log_core_over_q(v: np.ndarray, tau: np.ndarray, p: float, q: float) -> float:
    """log(core) / q for the core of :func:`lorentz_norm`, without underflow.

    Term i is v_i^q (p/q) (tau_i^{q/p} - tau_{i-1}^{q/p}) = exp(q c_i) with
    c_i = log v_i + log(tau_i) / p + (log(p/q) + log1p(-(tau_{i-1}/tau_i)^{q/p})) / q,
    so log(core) / q = M + log(sum exp(q (c_i - M))) / q with M = max c_i.
    The first term (tau_0 = 0) is finite, so M is.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_tau = np.log(tau)
        ratio_pow = np.exp((q / p) * (log_tau[:-1] - log_tau[1:]))
        c = np.log(v) + log_tau[1:] / p + (math.log(p) - math.log(q) + np.log1p(-ratio_pow)) / q
        m = float(np.max(c))
        return m + math.log(float(np.sum(np.exp(q * (c - m))))) / q


def lorentz_norm_weak(u, p: float) -> float:
    """Weak (q = inf) quasinorm: sup over chunks of value * T^{1/p}."""
    if not p > 0:
        raise LorentzIndexError(f"p must be positive, got {p}")
    s = _as_step(u)
    if s is None:
        return 0.0
    vmax = float(s.values[0])
    tmax = s.total_measure
    v = s.normalized_values
    # the max over blocks is the max over all chunks, exactly
    peak = max(
        float(np.max(np.multiply(v[i:j], block, out=block)))
        for i, j, block in _blocked_powers(s.normalized_cumulative[1:], 1.0 / p)
    )
    return vmax * tmax ** (1.0 / p) * peak


def lorentz_norm_symmetrization(u, idx: LorentzIndex, dim: int) -> float:
    """The same quasinorm computed through the Schwarz symmetrization.

    Evaluates |B_1|^{(q-p)/(pq)} (int (|x|^{dim/p} u#(|x|))^q dx/|x|^dim)^{1/q}
    with the radial integral reduced to closed form over profile chunks.
    Mathematically equal to :func:`lorentz_norm`; computed independently.
    When that core is not a normal double (the powers overflow or underflow
    for large q), the largest value and the outer radius are factored out,
    and a factored core that still underflows is summed in logs.
    """
    prof = schwarz_profile(u, dim)
    if prof is None:
        return 0.0
    omega = unit_ball_volume(dim)
    if math.isinf(idx.q):
        radii = np.cumsum(prof.measures)
        return float(np.max(prof.values * (omega ** (1.0 / idx.p)) * radii ** (dim / idx.p)))
    p, q = idx.p, idx.q
    if p / q == math.inf:  # as in lorentz_norm: far past a double
        return math.inf
    radii = np.concatenate(([0.0], np.cumsum(prof.measures)))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        core = float(np.sum(
            prof.values**q * (dim * omega) * (p / (dim * q)) * np.diff(radii ** (dim * q / p))
        ))
    if sys.float_info.min <= core < math.inf:
        try:
            return omega ** ((q - p) / (p * q)) * core ** (1.0 / q)
        except OverflowError:  # core^(1/q) is past a double (q near 0): multiply in logs
            return _exp_or_inf((q - p) / (p * q) * math.log(omega) + math.log(core) / q)
    # the powers overflow or underflow (q large): factor out the largest value
    # and the outer radius, norm = omega^{1/p} vmax rmax^{dim/p} scaled^{1/q}
    vmax, rmax = float(prof.values[0]), float(radii[-1])
    w, rho_dim = prof.values / vmax, (radii / rmax) ** dim
    scaled = float(np.sum(w**q * (p / q) * np.diff(rho_dim ** (q / p))))
    if sys.float_info.min <= scaled:
        log_scaled_q = math.log(scaled) / q
    else:  # the terms underflow too: sum them in logs
        log_scaled_q = _log_core_over_q(w, rho_dim, p, q)
    return _exp_or_inf(
        math.log(omega) / p + math.log(vmax) + dim * math.log(rmax) / p + log_scaled_q
    )


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
    core = _power_sum(s.normalized_values, p, 1.0, s.measures / tmax)
    return vmax * tmax ** (1.0 / p) * core ** (1.0 / p)
