"""Dyadic truncation layers.

The layer profile ``chi`` is an odd scalar function that vanishes for small
and large arguments and equals the identity on the value band
``[1, 2**(dim-1)]``.  Rescaled copies ``chi_j`` isolate the part of a
function living at value scale ``2**(dim-1)*j`` while keeping one uniform
Lipschitz constant, so composing with them costs a bounded factor in
variation.  Ramps are cubic Hermite pieces chosen to meet the plateau with
slope one; the Lipschitz constant then has a closed form and is, for
instance, exactly 25/9 in dimension two.

Layers four scales apart have disjoint supports in value space, which is the
combinatorial fact behind the four-coloring used by the energy audit.  The
audit composes each layer once, for its chain rule and its coloring: one
union mask per color class.  Band variations are mask sums over one per-face
contribution array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv import ChainRuleReport, ScalarC1, compose_scalar, total_variation
from .grid import GridFunction, UnsupportedDimensionError

__all__ = [
    "TruncationProfile",
    "build_profile",
    "chi_function",
    "scaled_chi_function",
    "band_bounds",
    "level_band",
    "color_class",
    "active_scales",
    "LayerAudit",
    "layer_energy_audit",
    "BAND_SUM_FACTOR",
    "BAND_SUM_SLACK",
]

# Each support cell of u lands in at most three wide bands, so the band sum
# is bounded by 3 TV(u); 4 TV(u) is asserted with slack to keep the audit
# robust against summation order.
BAND_SUM_FACTOR = 4.0
BAND_SUM_SLACK = 1e-6


def _rise_peak_slope(w1: float) -> float:
    # interior maximum of the rise ramp derivative, divided by the ramp width
    return (6.0 - 2.0 * w1) ** 2 / (4.0 * (6.0 - 3.0 * w1) * w1)


def _fall_peak_slope(c: float, w2: float) -> float:
    # magnitude of the most negative fall ramp derivative, divided by width
    return ((6.0 * c + 4.0 * w2) ** 2 / (4.0 * (6.0 * c + 3.0 * w2)) - w2) / w2


@dataclass(frozen=True)
class TruncationProfile:
    """Shape constants of the layer function for one dimension."""

    dim: int
    lower: float        # chi vanishes on [0, lower]
    plateau_hi: float   # chi(t) = t on [1, plateau_hi]
    upper: float        # chi vanishes on [upper, inf)
    rise_weight: float
    fall_weight: float
    derivative_bound: float

    def value_scale(self, j: int) -> float:
        return 2.0 ** ((self.dim - 1) * j)


def build_profile(dim: int) -> TruncationProfile:
    if dim < 2:
        raise UnsupportedDimensionError("truncation layers need dimension >= 2")
    lower = 2.0 ** (-(dim - 1))
    plateau_hi = 2.0 ** (dim - 1)
    upper = 4.0 ** (dim - 1)
    w1 = 1.0 - lower
    w2 = upper - plateau_hi
    bound = max(_rise_peak_slope(w1), 1.0, _fall_peak_slope(plateau_hi, w2))
    return TruncationProfile(dim, lower, plateau_hi, upper, w1, w2, bound)


def _evaluate(profile: TruncationProfile, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    out = np.zeros_like(a)

    rise = (a > profile.lower) & (a < 1.0)
    if np.any(rise):
        x = (a[rise] - profile.lower) / profile.rise_weight
        out[rise] = (3.0 * x**2 - 2.0 * x**3) + profile.rise_weight * (x**3 - x**2)

    plateau = (a >= 1.0) & (a <= profile.plateau_hi)
    out[plateau] = a[plateau]

    fall = (a > profile.plateau_hi) & (a < profile.upper)
    if np.any(fall):
        x = (a[fall] - profile.plateau_hi) / profile.fall_weight
        h00 = 2.0 * x**3 - 3.0 * x**2 + 1.0
        h10 = x**3 - 2.0 * x**2 + x
        out[fall] = h00 * profile.plateau_hi + h10 * profile.fall_weight

    return np.sign(t) * out


def _scaled(t, s: float) -> np.ndarray:
    """t / s without the overflow warning: a quotient past the largest double
    becomes inf, which lies beyond the support of chi, so chi gives it 0
    exactly as it would the true quotient."""
    with np.errstate(over="ignore"):
        return np.asarray(t) / s


def chi_function(profile: TruncationProfile) -> ScalarC1:
    fn = lambda t: _evaluate(profile, t)  # noqa: E731
    return ScalarC1(fn, profile.derivative_bound, "chi")


def scaled_chi_function(profile: TruncationProfile, j: int) -> ScalarC1:
    """chi at value scale j: conjugation by the scale factor, same Lipschitz bound."""
    s = profile.value_scale(j)
    fn = lambda t: s * _evaluate(profile, _scaled(t, s))  # noqa: E731
    return ScalarC1(fn, profile.derivative_bound, f"chi[{j}]")


def band_bounds(profile: TruncationProfile, j: int) -> tuple[float, float]:
    """Half-open value interval [lo, hi) of the wide band at scale j."""
    return profile.value_scale(j - 1), profile.value_scale(j + 2)


def level_band(u: GridFunction, profile: TruncationProfile, j: int) -> np.ndarray:
    """Boolean mask on the box of ``u``: cells whose |value| lies in the band."""
    lo, hi = band_bounds(profile, j)
    a = np.abs(u.values)
    return (a >= lo) & (a < hi)


def color_class(j: int) -> int:
    return (j % 4) + 1


def active_scales(u: GridFunction, profile: TruncationProfile) -> list[int]:
    """Scales whose wide band meets the value range of u."""
    a = np.abs(u.values)
    pos = a[a > 0.0]
    if pos.size == 0:
        return []
    step = profile.dim - 1
    jlo = math.floor(math.log2(float(pos.min())) / step) - 1
    jhi = math.floor(math.log2(float(pos.max())) / step) + 1
    # the wide bands reach value_scale(jlo - 1) and value_scale(jhi + 2), and
    # each layer divides by its scale: none may underflow to 0 or overflow
    for e, v in ((step * (jlo - 1), pos.min()), (step * (jhi + 2), pos.max())):
        if not -1074 <= e <= 1023:
            raise ValueError(f"value {float(v)!r} needs the value scale 2^{e}, which a double cannot hold")
    return [j for j in range(jlo, jhi + 1) if level_band(u, profile, j).any()]


@dataclass(frozen=True)
class LayerAudit:
    scales: tuple[int, ...]
    tv_total: float
    band_tv: dict
    band_tv_sum: float
    band_sum_ok: bool
    chain_reports: dict
    chain_ok: bool
    color_disjoint_ok: bool

    @property
    def ok(self) -> bool:
        return self.band_sum_ok and self.chain_ok and self.color_disjoint_ok


def layer_energy_audit(
    u: GridFunction, profile: TruncationProfile | None = None
) -> LayerAudit:
    """Band bookkeeping for one function: band TV sum, chain rule per layer,
    and support disjointness of same-colored layers."""
    if profile is None:
        profile = build_profile(u.dim)
    scales = active_scales(u, profile)
    # one kernel run gives the band array and caches its sum as u's variation
    contrib = u.face_contributions()
    tv = total_variation(u)

    # band masks cover the interior cells; the boundary faces on the padding ring are in no band
    inner = contrib[(slice(1, -1),) * u.dim]
    band_tv: dict[int, float] = {}
    chain_reports: dict[int, ChainRuleReport] = {}
    # per color class, the union of the supports of its layers so far
    colored: dict[int, np.ndarray] = {}
    disjoint_ok = True
    for j in scales:
        band_tv[j] = float(np.sum(inner[level_band(u, profile, j)]))
        layer, chain_reports[j] = compose_scalar(scaled_chi_function(profile, j), u)
        support = layer.values != 0.0
        seen = colored.setdefault(color_class(j), np.zeros_like(support))
        disjoint_ok = disjoint_ok and not np.any(seen & support)
        seen |= support

    band_sum = float(sum(band_tv.values()))
    band_ok = band_sum <= BAND_SUM_FACTOR * tv * (1.0 + BAND_SUM_SLACK) or tv == 0.0
    chain_ok = all(r.ok for r in chain_reports.values())
    return LayerAudit(
        scales=tuple(scales),
        tv_total=tv,
        band_tv=band_tv,
        band_tv_sum=band_sum,
        band_sum_ok=band_ok,
        chain_reports=chain_reports,
        chain_ok=chain_ok,
        color_disjoint_ok=disjoint_ok,
    )
