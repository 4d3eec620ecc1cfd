"""Numerical laboratory for concentration analysis on dyadic grids.

Exact rearrangements and Lorentz quasinorms of piecewise constant functions,
a discrete variation with its splitting and chain-rule audits, the dyadic
rescaling group acting isometrically on both, truncation layers, a greedy
profile-extraction pass, and the staircase family on which the critical
embedding loses compactness.
"""

__version__ = "0.1.0"
