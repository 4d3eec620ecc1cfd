"""Numerical laboratory for concentration analysis on dyadic grids.

Exact rearrangements and Lorentz quasinorms of piecewise constant functions,
a discrete variation with its splitting and chain-rule audits, the dyadic
rescaling group acting isometrically on both, truncation layers, a greedy
profile-extraction pass, and the staircase family on which the critical
embedding loses compactness.
"""
from .bv import (
    ChainRuleReport,
    ScalarC1,
    SupportViolationError,
    bv_norm,
    compose_scalar,
    lattice_tv_sum,
    total_variation,
    total_variation_on,
)
from .grid import (
    GridFormatError,
    GridFunction,
    InputError,
    MemoryGuardError,
    Region,
    UnsupportedDimensionError,
    box_mass,
    cube_region,
    from_sampler,
    linear_combine,
    load_grid,
    refine,
    resample_to,
    save_grid,
    trim,
)
from .group import (
    DyadicVector,
    GroupElement,
    ScaleBoundError,
    act,
    compose,
    identity,
    inverse,
    isometry_defect,
)
from .layers import TruncationProfile, build_profile, chi_function, layer_energy_audit
from .multiscale import DyadicSum, dyadic_sum
from .profiles import (
    NonConvergentSubsequenceError,
    ProfileDecomposition,
    energy_audit,
    extract_profiles,
    separation_check,
)
from .rearrange import (
    LorentzIndex,
    StepFunction,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
    lorentz_norm_weak,
    schwarz_profile,
    step_from_pairs,
    unit_ball_volume,
)

__version__ = "0.1.0"
