"""Radial step functions: shell geometry, staircase closed forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.grid import UnsupportedDimensionError, box_mass
from bvlorentz.radial import (
    RadialStep,
    annulus_indicator,
    dual_pairing_inverse_radius,
    piecewise_tv,
    radial_tv,
    staircase,
    to_grid,
    to_stepfunction,
)
from bvlorentz.rearrange import lebesgue_norm


def test_construction_and_trimming():
    u = RadialStep(2, np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 0.0]))
    assert u.outer_radius == 2.0  # trailing zero shell trimmed
    assert u.values.tolist() == [2.0, 1.0]
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.5, 1.0]), np.array([1.0]))  # must start at 0
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    z = RadialStep(2, np.array([0.0, 5.0]), np.array([0.0]))
    assert z.l1_norm() == 0.0


@pytest.mark.parametrize(
    "radii, values, message",
    [
        ([0.0, 1.0, np.inf], [1.0, 2.0], "radii must be finite: the outer radius is inf"),
        ([0.0, 1.0, np.inf], [1.0, 0.0], "radii must be finite: the outer radius is inf"),
        ([0.0, np.nan, 2.0], [1.0, 2.0], "radii must be strictly increasing"),
        ([0.0, 1.0, 2.0], [np.nan, 2.0], "values must be finite: 1 of 2 shells hold NaN or inf"),
        ([0.0, 1.0, 2.0], [np.inf, -np.inf], "values must be finite: 2 of 2 shells hold NaN or inf"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 0.0], "values must be finite: 1 of 3 shells hold NaN or inf"),
    ],
)
def test_non_finite_radial_data_is_refused(radii, values, message):
    with pytest.raises(ValueError, match=message):
        RadialStep(2, np.array(radii), np.array(values))


def test_shell_measures_2d():
    u = annulus_indicator(2)
    # area of 1 < |x| <= 2 is pi(4 - 1)
    np.testing.assert_allclose(u.shell_measures(), [math.pi, 3.0 * math.pi])
    assert u.l1_norm() == pytest.approx(3.0 * math.pi, rel=1e-14)
    with pytest.raises(UnsupportedDimensionError):
        annulus_indicator(1)


def test_evaluate_open_inner_boundary():
    u = annulus_indicator(2)
    out = u.evaluate(np.array([0.5, 1.0, 1.5, 2.0, 2.5]))
    assert out.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0]


def test_annulus_tv_closed_form():
    u = annulus_indicator(2)
    # jumps of size 1 at radii 1 and 2: 2 pi (1 + 2)
    assert radial_tv(u) == pytest.approx(6.0 * math.pi, rel=1e-14)
    # a single nonzero shell has no shared interfaces, so both sums agree
    assert piecewise_tv(u) == pytest.approx(radial_tv(u), rel=1e-14)


def test_piecewise_dominates_radial():
    for n in range(1, 8):
        u = staircase(2, n)
        assert piecewise_tv(u) >= radial_tv(u) - 1e-12


def test_staircase_closed_forms_2d():
    # oracle: shells 2^-i..2^-(i-1) at value 2^i/n; interfaces at 2^-i carry
    # jump (2^{i+1}-2^i)/n = 2^i/n for i=1..n-1, plus 2/n at 1/2^0... derive:
    # radial_tv = 2 pi (n+2)/n, pairing = 2 pi, both independent derivations
    for n in range(1, 13):
        u = staircase(2, n)
        assert radial_tv(u) == pytest.approx(2.0 * math.pi * (n + 2) / n, rel=1e-12)
        assert piecewise_tv(u) == pytest.approx(6.0 * math.pi, rel=1e-12)
        assert dual_pairing_inverse_radius(u) == pytest.approx(
            2.0 * math.pi, rel=1e-12
        )
        assert lebesgue_norm(to_stepfunction(u), 2.0) == pytest.approx(
            math.sqrt(3.0 * math.pi / n), rel=1e-12
        )
    with pytest.raises(ValueError):
        staircase(2, 0)
    with pytest.raises(UnsupportedDimensionError):
        staircase(1, 3)


def test_pairing_needs_dim_two():
    u = RadialStep(1, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(UnsupportedDimensionError):
        dual_pairing_inverse_radius(u)


def test_to_grid_sampling():
    u = annulus_indicator(2)
    g = to_grid(u, 5)
    # grid covers [-2, 2]^2
    np.testing.assert_allclose(np.asarray(g.origin) * g.spacing, [-2.0, -2.0])
    np.testing.assert_allclose((np.asarray(g.origin) + g.extents) * g.spacing, [2.0, 2.0])
    # center sampling converges to the shell area; level 5 is within ~2%
    assert g.l1_norm() == pytest.approx(u.l1_norm(), rel=0.02)
    # one quadrant holds a quarter of the mass
    assert box_mass(g, (0.0, 0.0), (2.0, 2.0)) == pytest.approx(u.l1_norm() / 4.0, rel=0.05)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=-6, max_value=6))
@settings(max_examples=80, deadline=None)
def test_staircase_invariants_under_rescaling(n, i):
    u = staircase(2, n)
    # the mass-critical rescaling: radii / 2^i, values * 2^i in 2-d
    v = RadialStep(2, u.radii * 2.0**-i, u.values * 2.0**i)
    assert radial_tv(v) == pytest.approx(radial_tv(u), rel=1e-12)
    assert dual_pairing_inverse_radius(v) == pytest.approx(
        dual_pairing_inverse_radius(u), rel=1e-12
    )


@given(
    st.lists(st.floats(0.1, 1.0, allow_nan=False), min_size=1, max_size=6),
    st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_radial_tv_below_piecewise(widths, raw_values):
    k = min(len(widths), len(raw_values))
    radii = np.concatenate(([0.0], np.cumsum(widths[:k])))
    u = RadialStep(2, radii, np.array(raw_values[:k]))
    assert radial_tv(u) <= piecewise_tv(u) * (1 + 1e-12)
