"""Layer profile: closed-form Lipschitz constants, bands, four-coloring."""
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvlorentz import bv, grid, layers
from bvlorentz.bv import compose_scalar, total_variation
from bvlorentz.grid import GridFunction, Region, UnsupportedDimensionError
from bvlorentz.layers import (
    BAND_SUM_FACTOR,
    BAND_SUM_SLACK,
    active_scales,
    band_bounds,
    build_profile,
    chi_function,
    color_class,
    layer_energy_audit,
    level_band,
    scaled_chi_function,
)
from bvlorentz.corpus import corpus_grids


def test_profile_constants_2d():
    p = build_profile(2)
    assert p.lower == 0.5
    assert p.plateau_hi == 2.0
    assert p.upper == 4.0
    assert p.derivative_bound == pytest.approx(25.0 / 9.0, rel=1e-15)
    assert p.value_scale(3) == 8.0


def test_profile_constants_3d():
    p = build_profile(3)
    assert p.lower == 0.25
    assert p.plateau_hi == 4.0
    assert p.upper == 16.0
    assert p.derivative_bound == pytest.approx(1.8, rel=1e-12)
    with pytest.raises(UnsupportedDimensionError):
        build_profile(1)


def test_chi_plateau_is_identity_and_odd():
    p = build_profile(2)
    chi = chi_function(p)
    ts = np.linspace(1.0, 2.0, 41)
    np.testing.assert_allclose(chi(ts), ts, atol=0)
    np.testing.assert_array_equal(chi(-ts), -chi(ts))
    # vanishes outside [lower, upper]
    assert np.all(chi(np.array([0.0, 0.25, 0.5, 4.0, 7.0])) == 0.0)
    # continuous at the ramp ends
    eps = 1e-9
    assert chi(np.array([1.0 - eps]))[0] == pytest.approx(1.0, abs=1e-7)
    assert chi(np.array([2.0 + eps]))[0] == pytest.approx(2.0, abs=1e-7)


def test_sampled_slope_within_stored_bound():
    for dim in (2, 3):
        p = build_profile(dim)
        chi = chi_function(p)
        ts = np.linspace(-1.5 * p.upper, 1.5 * p.upper, 4001)
        slopes = np.abs(np.diff(chi(ts)) / np.diff(ts))
        assert np.max(slopes) <= p.derivative_bound * (1 + 1e-6)


def test_bound_is_sharp_from_below():
    # the interior ramp maximum must approach the stored constant
    p = build_profile(2)
    chi = chi_function(p)
    ts = np.linspace(p.lower, 1.0, 200001)
    slopes = np.abs(np.diff(chi(ts)) / np.diff(ts))
    assert np.max(slopes) >= p.derivative_bound * (1 - 1e-5)


def test_scaled_chi_same_bound_and_scaling():
    p = build_profile(2)
    for j in (-2, 0, 1, 3):
        cj = scaled_chi_function(p, j)
        assert cj.derivative_bound == p.derivative_bound
        s = p.value_scale(j)
        # identity on the rescaled plateau
        ts = s * np.linspace(1.0, p.plateau_hi, 17)
        np.testing.assert_allclose(cj(ts), ts, atol=1e-12 * s)
        # conjugation identity chi_j(t) = s chi(t/s)
        chi = chi_function(p)
        xs = np.linspace(-3 * s * p.upper, 3 * s * p.upper, 101)
        np.testing.assert_allclose(cj(xs), s * chi(xs / s), atol=1e-12 * s)


def test_band_bounds():
    p = build_profile(2)
    assert band_bounds(p, 0) == (0.5, 4.0)
    assert band_bounds(p, 2) == (2.0, 16.0)
    q = build_profile(3)
    assert band_bounds(q, 1) == (1.0, 64.0)


def test_color_class_period():
    assert [color_class(j) for j in range(-2, 6)] == [3, 4, 1, 2, 3, 4, 1, 2]
    for j in range(-10, 10):
        assert 1 <= color_class(j) <= 4
        assert color_class(j) == color_class(j + 4)


def test_same_color_layers_have_disjoint_support():
    p = build_profile(2)
    chi = chi_function(p)
    # wide supports (lower*s_j, upper*s_j) of scales 4 apart cannot meet:
    # the ratio upper/lower = 8 < 2^4
    for j in range(-4, 5):
        s1 = p.value_scale(j)
        s2 = p.value_scale(j + 4)
        assert p.upper * s1 <= p.lower * s2


def test_level_band_masks_values(checker2d):
    p = build_profile(2)
    band = level_band(checker2d, p, 0)
    # checkerboard values {0, 1}: only the 1s fall in [1/2, 4)
    assert band.dtype == bool and band.shape == checker2d.extents
    np.testing.assert_array_equal(band, checker2d.values == 1.0)
    # [1, 8) holds them too, [2, 16) none
    np.testing.assert_array_equal(level_band(checker2d, p, 1), band)
    assert not level_band(checker2d, p, 2).any()


def test_active_scales_bracket_value_range():
    u = GridFunction(2, 0, (0, 0), (2, 2), np.array([[0.75, 3.0], [12.0, 0.0]]))
    p = build_profile(2)
    scales = active_scales(u, p)
    # 0.75 sits in bands j = -2..0, 3.0 in j = 0..2, 12.0 in j = 2..4
    for j in scales:
        lo, hi = band_bounds(p, j)
        assert np.any((np.abs(u.values) >= lo) & (np.abs(u.values) < hi))
    assert -1 in scales and 3 in scales
    z = GridFunction(2, 0, (0, 0), (1, 1), np.zeros((1, 1)))
    assert active_scales(z, p) == []


def test_audit_on_corpus(checker2d):
    assert layer_energy_audit(checker2d).ok
    for u in corpus_grids(seed=3, dim=2, count=12):
        audit = layer_energy_audit(u)
        assert audit.ok, audit
        assert audit.band_tv_sum <= BAND_SUM_FACTOR * audit.tv_total * (
            1 + BAND_SUM_SLACK
        )
        for rep in audit.chain_reports.values():
            assert rep.ok


@given(st.integers(min_value=-6, max_value=6))
@settings(max_examples=40, deadline=None)
def test_chain_rule_at_every_scale(j):
    p = build_profile(2)
    u = GridFunction(
        2, 1, (0, 0), (3, 3), p.value_scale(j) * np.array(
            [[0.0, 1.5, 0.0], [1.0, 2.0, 0.7], [0.0, 3.5, 0.0]]
        )
    )
    _, rep = compose_scalar(scaled_chi_function(p, j), u)
    assert rep.ok
    assert rep.tv_composed <= rep.bound * (1 + 1e-9)


# -- band sums by mask against the former float-centre region path -----------

@dataclass(frozen=True)
class _MaskRegion:
    """The former ``"mask"`` region kind: a padded cell belongs when the
    floor of its float centre indexes a True cell of the mask."""

    dim: int
    level: int
    origin: tuple
    mask: np.ndarray

    def contains_points(self, pts):
        h = 2.0 ** (-self.level)
        idx = np.floor(pts / h).astype(int) - np.asarray(self.origin)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.mask.shape)), axis=1)
        out = np.zeros(pts.shape[0], dtype=bool)
        if np.any(inside):
            out[inside] = self.mask[tuple(idx[inside].T)]
        return out


def _reference_band_tv(u, scales):
    """The former band sums: one ``total_variation_on`` call per wide band."""
    profile = build_profile(u.dim)
    band_tv = {}
    for j in scales:
        lo, hi = band_bounds(profile, j)
        a = np.abs(u.values)
        region = _MaskRegion(u.dim, u.level, u.origin, (a >= lo) & (a < hi))
        band_tv[j] = bv.total_variation_on(u, region)
    return band_tv


def _former_color_disjoint(profile, u, scales):
    """The former coloring check: every layer evaluated a second time and
    kept, then compared pairwise within its color class."""
    layered = {j: layers._evaluate(profile, layers._scaled(u.values, profile.value_scale(j))) for j in scales}
    for i, j1 in enumerate(scales):
        for j2 in scales[i + 1 :]:
            if j1 != j2 and color_class(j1) == color_class(j2):
                if np.any((layered[j1] != 0.0) & (layered[j2] != 0.0)):
                    return False
    return True


def _assert_same_audit(u):
    new = layer_energy_audit(u)
    profile = build_profile(u.dim)
    scales = active_scales(u, profile)
    band_tv = _reference_band_tv(u, scales)
    band_sum = float(sum(band_tv.values()))
    tv = total_variation(u)
    # the former audit's band and coloring verdicts; the chain part is unchanged
    ref = replace(
        new, band_tv=band_tv, band_tv_sum=band_sum,
        band_sum_ok=band_sum <= BAND_SUM_FACTOR * tv * (1.0 + BAND_SUM_SLACK) or tv == 0.0,
        color_disjoint_ok=_former_color_disjoint(profile, u, scales),
    )
    assert list(new.band_tv.items()) == list(ref.band_tv.items())
    assert new.band_tv_sum == ref.band_tv_sum
    assert new == ref


@pytest.mark.parametrize("dim", [2, 3])
def test_band_sums_match_region_reference_on_corpus(dim):
    for seed in range(40):
        for u in corpus_grids(seed, dim, 5):
            _assert_same_audit(u)


@st.composite
def _band_grids(draw):
    dim = draw(st.integers(2, 3))
    extents = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    origin = tuple(draw(st.lists(st.integers(-12, 3), min_size=dim, max_size=dim)))
    level = draw(st.integers(-3, 5))
    cells = int(np.prod(extents))
    flat = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.25, 1.0, -1.5, 3.0, 6.0, -20.0, 100.0]),
            # a subnormal value underflows its layer's value scale to 0, which
            # breaks the chain-rule layers whatever the band sums do
            st.floats(-300.0, 300.0, allow_nan=False, allow_subnormal=False),
        ),
        min_size=cells, max_size=cells,
    ))
    return GridFunction(dim, level, origin, extents, np.array(flat).reshape(extents))


@given(_band_grids())
# the wide band below 2^-1022 has the subnormal value scale 2^-1026, and
# 1.0 / 2^-1026 overflows to inf, past the support of chi: found by hypothesis
@example(GridFunction(3, 0, (0, 0, 0), (1, 1, 2), np.array([[[1.0, 2.0**-1022]]])))
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_band_sums_match_region_reference(u):
    _assert_same_audit(u)


def test_audit_runs_the_kernel_once_and_tests_no_points(monkeypatch):
    u = corpus_grids(seed=4, dim=2, count=1)[0]
    calls = []
    kernel = grid._face_rows

    def counted(v):
        calls.append(v)
        return kernel(v)

    def no_points(self, pts):
        raise AssertionError("band sums need no point membership")

    monkeypatch.setattr(grid, "_face_rows", counted)
    monkeypatch.setattr(Region, "contains_points", no_points)
    audit = layer_energy_audit(u)
    # the band array, whose sum is the cached variation, then one composed
    # layer per scale
    assert len(audit.scales) >= 2
    assert calls[:1] == [u] and len(calls) == 1 + len(audit.scales)
    assert all(v is not u for v in calls[1:])


def test_audit_evaluates_each_layer_once(monkeypatch):
    u = corpus_grids(seed=4, dim=2, count=1)[0]
    calls = []
    evaluate = layers._evaluate

    def counted(profile, t):
        calls.append(np.shape(t))
        return evaluate(profile, t)

    monkeypatch.setattr(layers, "_evaluate", counted)
    audit = layer_energy_audit(u)
    # per active scale: phi(0) once when the map is made, then the values
    # once, by the composition that both the chain rule and the coloring read
    assert len(audit.scales) >= 2
    assert calls == [(1,), u.extents] * len(audit.scales)


def test_stretched_profile_fails_the_coloring():
    # upper / lower = 32 >= 2^4: the layers of scales 0 and 4 (one color)
    # both take the value 10 into their supports
    p = build_profile(2)
    wide = replace(p, upper=4.0 * p.upper, fall_weight=4.0 * p.upper - p.plateau_hi)
    assert wide.upper / wide.lower >= 2.0**4
    u = GridFunction(2, 0, (0, 0), (1, 2), np.array([[1.0, 10.0]]))
    scales = active_scales(u, wide)
    assert {0, 4} <= set(scales) and color_class(0) == color_class(4)
    audit = layer_energy_audit(u, wide)
    assert not audit.color_disjoint_ok and not audit.ok
    assert _former_color_disjoint(wide, u, scales) is False
    assert layer_energy_audit(u).color_disjoint_ok


def test_subnormal_value_is_refused_by_name():
    u = GridFunction(2, 0, (0, 0), (1, 1), np.array([[5e-324]]))
    with pytest.raises(ValueError, match=r"^value 5e-324 needs the value scale 2\^-1076"):
        layer_energy_audit(u)


@given(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0.0),
    st.sampled_from([0.0, 1.0, -3.0]),
    st.integers(2, 3),
)
@settings(max_examples=300, deadline=None)
def test_audit_of_extreme_values_holds_or_is_refused(x, y, dim):
    shape = (1,) * (dim - 1) + (2,)
    u = GridFunction(dim, 0, (0,) * dim, shape, np.array([x, y]).reshape(shape))
    try:
        with np.errstate(over="ignore"):
            audit = layer_energy_audit(u)
    except ValueError as err:
        assert str(err).startswith("value ") and "cannot hold" in str(err)
        return
    assert audit.ok and all(math.isfinite(v) for v in audit.band_tv.values())
