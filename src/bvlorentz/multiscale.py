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
from functools import cached_property

import numpy as np

from . import bv
from .grid import GridFunction, _computed, _footprint, _sum_on, linear_combine, trim
from .group import GroupElement, act, compose, identity
from .rearrange import StepFunction, step_from_pairs

__all__ = ["DyadicSum", "Term", "dyadic_sum"]


@dataclass(frozen=True)
class Term:
    coeff: float
    g: GroupElement
    u: GridFunction

    @cached_property
    def realized(self) -> GridFunction:
        """trim(coeff * (g u)), once per term: ``with_term`` shares the old terms."""
        return trim(_realize(self))


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
        """Concrete grid functions with pairwise separated supports: the sums,
        in term order, of touching nonzero terms, listed by their first terms."""
        if self._cluster_cache is not None:
            return self._cluster_cache
        realized = [t.realized for t in self.terms if np.any(t.realized.values)]
        # closed boxes at the finest level touch when they meet on every axis
        level = max((r.level for r in realized), default=0)
        boxes = [_footprint(r, level) for r in realized]
        first: list[int] = []  # per term so far, the first term of its group
        for i, (lo, hi) in enumerate(boxes):
            hit = {f for f, (lo2, hi2) in zip(first, boxes)
                   if all(max(a, b) <= min(c, e) for a, b, c, e in zip(lo, lo2, hi, hi2))}
            root = min(hit, default=i)
            first = [root if f in hit else f for f in first] + [root]
        out = []
        for f in sorted(set(first)):
            members = [r for r, g in zip(realized, first) if g == f]
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

    @cached_property
    def rearrangement(self) -> StepFunction | None:
        """The decreasing rearrangement (None for a sum with no clusters).

        Every cluster's chunks are joined, in cluster order, and sorted once;
        a sum with no clusters sorts the empty list.
        """
        vals, meas = [np.zeros(0)], [np.zeros(0)]
        for c in self.clusters():
            v, m = c.value_measure_pairs()
            vals.append(v)
            meas.append(m)
        return step_from_pairs(np.concatenate(vals), np.concatenate(meas))

    def materialize(
        self, level: int, origin: tuple[int, ...], extents: tuple[int, ...]
    ) -> GridFunction:
        """Exact cell averages of the sum on a target grid (the window proxy).

        Each cluster's cells on its footprint clipped to the window are added
        into that slice; clusters are added in order onto 0.0, and those
        outside the window are skipped.
        """
        clusters = self.clusters()
        return _sum_on(self.dim, level, origin, extents, [1.0] * len(clusters), clusters,
                       "window materialization")


def dyadic_sum(u: GridFunction | DyadicSum) -> DyadicSum:
    if isinstance(u, DyadicSum):
        return u
    return DyadicSum(u.dim, (Term(1.0, identity(u.dim), u),))
