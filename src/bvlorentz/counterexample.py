"""Concentration along the dyadic staircase family.

The family ``u_n`` spreads a fixed amount of variation over ``n`` dyadic
annuli with values matched to the critical scaling.  Its variation and its
pairing against the inverse-radius weight stay bounded away from zero while
every Lorentz norm with second index above one decays like ``n**(1/q - 1)``,
so no single group element can recover a fixed fraction of the mass.  The
probe at the bottom quantifies that: the best aligned element captures mass
of order ``1/n``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_CELL_GUARD,
    InputError,
    MemoryGuardError,
    UnsupportedDimensionError,
)
from .group import DEFAULT_SCALE_BOUND, DyadicVector, GroupElement, ScaleBoundError
from .radial import (
    RadialStep,
    dual_pairing_inverse_radius,
    piecewise_tv,
    radial_tv,
    staircase,
)
from .rearrange import LorentzIndex, critical_exponent, lebesgue_norm, lorentz_norm

__all__ = [
    "CounterexampleRow",
    "CounterexampleReport",
    "run_counterexample",
    "decay_fit",
    "aligned_probe_elements",
    "ProbeReport",
    "dvanishing_probe",
    "probe_ok",
    "PROBE_FIT_TARGET",
    "PROBE_FIT_TOL",
    "gnuplot_script",
]


# the fixed columns of a row, in the order of the CSV file; one Lorentz column
# per q follows them
_COLUMNS = ("n", "tv_radial", "tv_piecewise", "l2_norm", "pairing", "lebesgue_critical")


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    tv_radial: float
    tv_piecewise: float
    l2_norm: float
    pairing: float
    lebesgue_critical: float
    lorentz: dict  # q -> quasinorm at the critical first index

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in _COLUMNS}
        doc["lorentz"] = {repr(q): v for q, v in sorted(self.lorentz.items())}
        return doc


@dataclass(frozen=True)
class CounterexampleReport:
    dim: int
    q_list: tuple
    rows: tuple
    invariants: dict

    @property
    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.invariants.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "dim": self.dim,
            # an infinite q is spelled as the rows' lorentz keys spell it
            "q_list": ["inf" if math.isinf(q) else q for q in self.q_list],
            "rows": [r.to_dict() for r in self.rows],
            "invariants": self.invariants,
            "ok": self.ok,
        }

    def csv_lines(self) -> list[str]:
        lines = [",".join(_COLUMNS + tuple(f"lorentz_q{q:g}" for q in self.q_list))]
        for r in self.rows:
            cells = [getattr(r, name) for name in _COLUMNS] + [r.lorentz[q] for q in self.q_list]
            lines.append(",".join(map(repr, cells)))
        return lines


def _strictly_decreasing(xs: list[float]) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _check_family_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise UnsupportedDimensionError(f"dim must be 2 or 3, got {dim}")


def run_counterexample(
    dim: int = 2,
    n_max: int = 12,
    q_list: tuple = (1.0, 1.2, 1.5, 2.0),
) -> CounterexampleReport:
    """Norms and invariants of the staircases n = 1..n_max.

    Raises ``UnsupportedDimensionError`` for a dim outside {2, 3},
    ``InputError`` for ``n_max < 1`` and ``ScaleBoundError`` for an n_max
    above ``DEFAULT_SCALE_BOUND``, the largest n the probe can align with
    its zoom-out elements; all before any staircase is built.
    """
    _check_family_dim(dim)
    if n_max < 1:
        raise InputError(f"n_max must be at least 1, got {n_max}")
    if n_max > DEFAULT_SCALE_BOUND:
        raise ScaleBoundError(
            f"n_max must be at most {DEFAULT_SCALE_BOUND}, got {n_max}: the probe zooms out "
            f"to j = -n_max and the group bounds |j| by {DEFAULT_SCALE_BOUND}"
        )
    p = critical_exponent(dim)
    rows = []
    for n in range(1, n_max + 1):
        u = staircase(dim, n)
        lorentz = {float(q): lorentz_norm(u, LorentzIndex(p, float(q))) for q in q_list}
        rows.append(
            CounterexampleRow(
                n=n,
                tv_radial=radial_tv(u),
                tv_piecewise=piecewise_tv(u),
                l2_norm=lebesgue_norm(u, 2.0),
                pairing=dual_pairing_inverse_radius(u),
                lebesgue_critical=lebesgue_norm(u, p),
                lorentz=lorentz,
            )
        )

    pairings = [r.pairing for r in rows]
    pair_scale = abs(pairings[0])
    pair_dev = max(abs(v - pairings[0]) for v in pairings) / pair_scale
    invariants: dict[str, dict] = {}
    invariants["pairing_constant"] = {"max_rel_dev": pair_dev, "ok": pair_dev <= 1e-12}
    invariants["pairing_floor"] = {
        "min": min(pairings),
        "floor": pairings[0] / 2.0,
        "ok": min(pairings) >= pairings[0] / 2.0,
    }
    crit = [r.lebesgue_critical for r in rows]
    invariants["critical_lebesgue_decreasing"] = {
        "ok": _strictly_decreasing(crit),
        "first": crit[0],
        "last": crit[-1],
    }
    for q in q_list:
        q = float(q)
        series = [r.lorentz[q] for r in rows]
        if q > 1.0:
            invariants[f"lorentz_decreasing_q{q:g}"] = {
                "ok": _strictly_decreasing(series),
                "last_over_first": series[-1] / series[0],
            }
        else:
            ratio = min(series) / series[0]
            invariants["lorentz_floor_q1"] = {"min_over_first": ratio, "ok": ratio >= 0.5}
    tvs = [r.tv_radial for r in rows] + [r.tv_piecewise for r in rows]
    bound = max(rows[0].tv_radial, rows[0].tv_piecewise) * (1.0 + 1e-12)
    invariants["tv_bounded"] = {"max": max(tvs), "bound": bound, "ok": max(tvs) <= bound}

    return CounterexampleReport(dim, tuple(float(q) for q in q_list), tuple(rows), invariants)


def decay_fit(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    slope, _ = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(slope)


# -- mass capture probe ------------------------------------------------------

# the best aligned element captures mass ~ 1/n; the fitted log-log slope
# must land in this window
PROBE_FIT_TARGET = -1.0
PROBE_FIT_TOL = 0.2


def aligned_probe_elements(dim: int, count: int) -> list[GroupElement]:
    """Zoom-out elements g[-i, (-1, 0, ...)] that map one annulus of the
    staircase onto the unit observation cube."""
    shift = DyadicVector.integers(*([-1] + [0] * (dim - 1)))
    return [GroupElement(-i, shift) for i in range(1, count + 1)]


@dataclass(frozen=True)
class ProbeReport:
    dim: int
    ns: tuple
    masses: tuple          # best captured mass per n (max over elements)
    fit_exponent: float
    quad_level: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "dim": self.dim,
            "ns": list(self.ns),
            "masses": list(self.masses),
            "fit_exponent": self.fit_exponent,
            "quad_level": self.quad_level,
        }


def _node_axis(quad_level: int) -> np.ndarray:
    m = 2**quad_level
    return (np.arange(m) + 0.5) * (1.0 / m)


def _radius_field(y: tuple, dim: int, quad_level: int) -> np.ndarray:
    """|x - y| at the midpoint nodes of (0,1)^dim.

    Per node the same terms are added in the same order as over a full
    meshgrid, so 2^j times this field is |2^j (x - y)| bit for bit while
    every scaled term stays a normal double.
    """
    axis = _node_axis(quad_level)
    m = axis.size
    radius_sq = np.zeros((m,) * dim)
    for k in range(dim):
        radius_sq += ((axis - y[k]) ** 2).reshape((m,) + (1,) * (dim - 1 - k))
    return np.sqrt(radius_sq)


def _shell_lookup(u: RadialStep, breaks: np.ndarray) -> np.ndarray:
    """|u| per fine-shell index ``searchsorted(breaks, r, side="left")``.

    Index 0 is r = 0, index k the shell breaks[k-1] < r <= breaks[k], and
    len(breaks) is r > breaks[-1]: the side of ``RadialStep.evaluate``.
    ``u.radii`` must be a subset of ``breaks``, so u is constant on every
    fine shell and its value at the closed upper radius is its value there.
    """
    r = np.concatenate(([0.0], breaks[1:], [np.inf]))
    return np.abs(u.evaluate(r))


def dvanishing_probe(
    dim: int = 2,
    n_list: tuple = tuple(range(1, 13)),
    quad_level: int = 9,
) -> ProbeReport:
    """Midpoint quadrature of |g u_n| over the unit cube (0,1)^dim, for every
    staircase ``u_n`` (n in ``n_list``) and every aligned element g of
    ``aligned_probe_elements(dim, max(n_list))``.

    Every mass is bit-identical to a separate quadrature per (n, g), which
    evaluates ``u_n`` at |2^j (x - y)| on the (2^quad_level,)*dim nodes and
    takes the mean of the absolute values times 2^((dim-1) j).  Two exact
    identities let the probe share that work:

    * One radius field.  All the elements share y = -e_1, and |2^j (x - y)|
      is 2^j |x - y| bit for bit, so R = |x - y| is built and located once,
      with ``searchsorted``, among E, the union of the scaled staircase
      breakpoints 2^-j * breaks over the elements' j.  Each staircase's
      fine-shell lookup maps onto E as ``lut[searchsorted(2^-j * breaks, E)]``.
    * One gather per distinct lookup.  Each composed lookup is restricted to
      the shells that nodes of R hit and divided by the power of two of
      its largest entry; the mean over the nodes is taken once per distinct
      such table and scaled back, exactly.  An all-zero table gives 0.

    Raises ``UnsupportedDimensionError`` for a dim outside {2, 3},
    ``InputError`` for a negative ``quad_level`` or fewer than two distinct
    n (the decay fit needs two points), ``MemoryGuardError`` when the
    (2^quad_level)^dim nodes exceed ``DEFAULT_CELL_GUARD`` and
    ``ScaleBoundError`` for an n above ``DEFAULT_SCALE_BOUND``.  Every
    refusal comes before any staircase or node is built.
    """
    _check_family_dim(dim)
    if quad_level < 0:
        raise InputError(f"quad_level must be at least 0, got {quad_level}")
    # the guard is a power of two: compare exponents, so that no huge level
    # builds a huge integer
    bits = quad_level * dim
    if bits > DEFAULT_CELL_GUARD.bit_length() - 1:
        raise MemoryGuardError(
            f"probe quadrature at level {quad_level} needs 2^{bits} nodes in dim {dim}, "
            f"guard is 2^{DEFAULT_CELL_GUARD.bit_length() - 1}"
        )
    if max(n_list, default=0) > DEFAULT_SCALE_BOUND:
        raise ScaleBoundError(f"n = {max(n_list)} exceeds scale bound {DEFAULT_SCALE_BOUND}")
    if len(set(n_list)) < 2:
        raise InputError(f"the decay fit needs at least two distinct n, got {tuple(n_list)}")
    elements = aligned_probe_elements(dim, max(n_list))

    family = [staircase(dim, n) for n in n_list]
    breaks = functools.reduce(np.union1d, (u.radii for u in family))
    lookups = [_shell_lookup(u, breaks) for u in family]
    scales = sorted({g.j for g in elements})
    edges = functools.reduce(np.union1d, (breaks * 2.0**-j for j in scales))
    # E-index t holds the radii r with E[t-1] < r <= uppers[t], and the fine
    # shell of 2^j r is the one of 2^j uppers[t]: shell_at[j][t]
    uppers = np.append(edges, np.inf)
    shell_at = {j: np.searchsorted(breaks * 2.0**-j, uppers, side="left") for j in scales}
    # y = -e_1, j >= -20 and quad_level <= 13: every nonzero squared axis
    # distance times 4^j is at least 2^-68, a normal double, so R scales exactly
    y = tuple(elements[0].y.as_floats().tolist())
    idx = np.searchsorted(edges, _radius_field(y, dim, quad_level), side="left")
    hit = np.bincount(idx.ravel(), minlength=uppers.size) > 0
    means: dict[bytes, np.float64] = {}
    # captured[e][i]: mass of element e on staircase n_list[i]
    captured = []
    for g in elements:
        factor = 2.0 ** ((dim - 1) * g.j)
        row = []
        for lut in lookups:
            table = np.where(hit, lut[shell_at[g.j]], 0.0)
            top = float(table.max())
            if top == 0.0:
                row.append(0.0)
                continue
            exp = math.frexp(top)[1]
            canon = table * 2.0**-exp
            key = canon.tobytes()
            if key not in means:
                means[key] = np.take(canon, idx).mean()
            row.append(float(factor * (means[key] * 2.0**exp)))
        captured.append(row)
    best = [max(masses) for masses in zip(*captured)]  # one n at a time
    fit = decay_fit(n_list, best)
    return ProbeReport(
        dim=dim,
        ns=tuple(n_list),
        masses=tuple(best),
        fit_exponent=fit,
        quad_level=quad_level,
    )


def probe_ok(report: ProbeReport) -> bool:
    return abs(report.fit_exponent - PROBE_FIT_TARGET) <= PROBE_FIT_TOL


def gnuplot_script(csv_name: str, q_list: tuple) -> str:
    """Log-log decay plot of the Lorentz columns against n."""
    lines = [
        "set datafile separator ','",
        "set logscale xy",
        "set key outside",
        "set xlabel 'n'",
        "set ylabel 'quasinorm'",
        "set term pngcairo size 900,600",
        "set output 'counterexample.png'",
    ]
    plots = [
        f"'{csv_name}' using 1:{len(_COLUMNS) + 1 + i} with linespoints title 'q={q:g}'"
        for i, q in enumerate(q_list)
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"
