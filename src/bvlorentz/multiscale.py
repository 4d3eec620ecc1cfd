"""Formal sums of group-translated grid functions.

A :class:`DyadicSum` holds terms ``coeff * (g u)`` without flattening them to
a common grid, which would be impossible for sequences whose pieces separate
by many dyadic scales.  Norms are computed through the cluster decomposition:
terms whose realized supports touch are flattened together (they are small by
construction), and clusters with separated supports contribute independently
and exactly, because the per-face variation and all rearrangement-based norms
are additive over functions separated by at least one empty cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bv
from .grid import GridFunction, _add_into, _computed, _footprint, linear_combine, trim
from .group import GroupElement, act, compose, identity

__all__ = ["DyadicSum", "Term", "dyadic_sum"]


@dataclass(frozen=True)
class Term:
    coeff: float
    g: GroupElement
    u: GridFunction


def _realize(t: Term) -> GridFunction:
    out = act(t.g, t.u)
    if t.coeff == 1.0:
        return out
    with np.errstate(over="ignore"):  # an overflow is refused by _computed
        values = out.values * t.coeff
    return _computed(out.dim, out.level, out.origin, values, "a term's coefficient")


@dataclass(frozen=True)
class DyadicSum:
    """Immutable formal sum; norms go through the cluster decomposition."""

    dim: int
    terms: tuple[Term, ...]
    _cluster_cache: list = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.u.dim != self.dim or t.g.dim != self.dim:
                raise ValueError("term dimension mismatch")
        object.__setattr__(self, "_cluster_cache", None)

    # -- construction --------------------------------------------------------
    def with_term(self, coeff: float, g: GroupElement, u: GridFunction) -> "DyadicSum":
        return DyadicSum(self.dim, self.terms + (Term(float(coeff), g, u),))

    def apply(self, g: GroupElement) -> "DyadicSum":
        """Group action on the whole sum: composes onto every term, no arrays."""
        new = tuple(Term(t.coeff, compose(g, t.g), t.u) for t in self.terms)
        return DyadicSum(self.dim, new)

    # -- cluster decomposition ------------------------------------------------
    def clusters(self) -> list[GridFunction]:
        """Concrete grid functions with pairwise separated supports."""
        if self._cluster_cache is not None:
            return self._cluster_cache
        realized = [trim(_realize(t)) for t in self.terms]
        realized = [r for r in realized if np.any(r.values)]
        n = len(realized)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # closed boxes at the finest level touch when they meet on every axis
        level = max((r.level for r in realized), default=0)
        boxes = [_footprint(r, level) for r in realized]
        for i in range(n):
            for j in range(i + 1, n):
                (lo1, hi1), (lo2, hi2) = boxes[i], boxes[j]
                if all(max(a, b) <= min(c, e) for a, b, c, e in zip(lo1, lo2, hi1, hi2)):
                    parent[find(i)] = find(j)
        groups: dict[int, list[GridFunction]] = {}
        for i, r in enumerate(realized):
            groups.setdefault(find(i), []).append(r)
        out = []
        for members in groups.values():
            if len(members) == 1:
                flat = members[0]
            else:
                flat = trim(linear_combine([1.0] * len(members), members))
            if np.any(flat.values):
                out.append(flat)
        object.__setattr__(self, "_cluster_cache", out)
        return out

    # -- norms and queries -----------------------------------------------------
    def total_variation(self) -> float:
        return float(sum(bv.total_variation(c) for c in self.clusters()))

    def l1_norm(self) -> float:
        return float(sum(c.l1_norm() for c in self.clusters()))

    def value_measure_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        vals, meas = [], []
        for c in self.clusters():
            v, m = c.value_measure_pairs()
            vals.append(v)
            meas.append(m)
        if not vals:
            return np.zeros(0), np.zeros(0)
        return np.concatenate(vals), np.concatenate(meas)

    def materialize(
        self, level: int, origin: tuple[int, ...], extents: tuple[int, ...]
    ) -> GridFunction:
        """Exact cell averages of the sum on a target grid (the window proxy).

        Each cluster's cells on its footprint clipped to the window are added
        into that slice; clusters are added in order onto 0.0, and those
        outside the window are skipped.
        """
        acc = np.zeros(extents)
        clusters = self.clusters()
        _add_into(acc, level, origin, [1.0] * len(clusters), clusters)
        return _computed(self.dim, level, origin, acc, "window materialization")

    def is_zero(self) -> bool:
        return len(self.clusters()) == 0


def dyadic_sum(u: GridFunction | DyadicSum) -> DyadicSum:
    if isinstance(u, DyadicSum):
        return u
    return DyadicSum(u.dim, (Term(1.0, identity(u.dim), u),))
