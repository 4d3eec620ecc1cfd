"""Radial step functions: shell geometry, staircase closed forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.grid import UnsupportedDimensionError, box_mass
from bvlorentz.radial import (
    RadialStep,
    dual_pairing_inverse_radius,
    piecewise_tv,
    radial_tv,
    staircase,
    to_grid,
)
from bvlorentz.rearrange import lebesgue_norm, step_from_pairs


def test_construction_and_trimming():
    u = RadialStep(2, np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 0.0]))
    assert u.outer_radius == 2.0  # trailing zero shell trimmed
    assert u.values.tolist() == [2.0, 1.0]
    # trimmed before the ball volume is checked, so only the kept radii count
    assert RadialStep(2, np.array([0.0, 1.0, 1e160]), np.array([1.0, 0.0])).outer_radius == 1.0
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.5, 1.0]), np.array([1.0]))  # must start at 0
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RadialStep(2, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="need at least one shell"):
        RadialStep(2, np.array([0.0]), np.array([]))
    z = RadialStep(2, np.array([0.0, 5.0]), np.array([0.0]))
    assert z.l1_norm() == 0.0
    assert z.outer_radius == 5.0  # a zero function keeps its innermost shell


@pytest.mark.parametrize(
    "radii, values, message",
    [
        ([0.0, 1.0, np.inf], [1.0, 2.0], "radii must be finite: the outer radius is inf"),
        ([0.0, 1.0, np.inf], [1.0, 0.0], "radii must be finite: the outer radius is inf"),
        ([0.0, np.nan, 2.0], [1.0, 2.0], "radii must be strictly increasing"),
        ([0.0, 1.0, 2.0], [np.nan, 2.0], "values must be finite: 1 of 2 shells hold NaN or inf"),
        ([0.0, 1.0, 2.0], [np.inf, -np.inf], "values must be finite: 2 of 2 shells hold NaN or inf"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 0.0], "values must be finite: 1 of 3 shells hold NaN or inf"),
        # a shell measure of inf gave NaN norms
        ([0.0, 1.0, 1e160], [1.0, 2.0], "the outer radius 1e\\+160 bounds a ball whose volume overflows a double"),
    ],
)
def test_non_finite_radial_data_is_refused(radii, values, message):
    with pytest.raises(ValueError, match=message):
        RadialStep(2, np.array(radii), np.array(values))


def _annulus(dim):
    """Indicator of the shell 1 < |x| <= 2."""
    return RadialStep(dim, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))


def test_shell_measures_2d():
    u = _annulus(2)
    # area of 1 < |x| <= 2 is pi(4 - 1)
    np.testing.assert_allclose(u.shell_measures(), [math.pi, 3.0 * math.pi])
    assert u.l1_norm() == pytest.approx(3.0 * math.pi, rel=1e-14)


def test_evaluate_open_inner_boundary():
    u = _annulus(2)
    out = u.evaluate(np.array([0.5, 1.0, 1.5, 2.0, 2.5]))
    assert out.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0]


def test_annulus_tv_closed_form():
    u = _annulus(2)
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
        assert lebesgue_norm(u.rearrangement, 2.0) == pytest.approx(
            math.sqrt(3.0 * math.pi / n), rel=1e-12
        )
    with pytest.raises(ValueError):
        staircase(2, 0)
    with pytest.raises(UnsupportedDimensionError):
        staircase(1, 3)


def test_rearrangement_is_cached_from_the_shells():
    cases = [_annulus(2), _annulus(3), staircase(3, 5)]
    cases.append(RadialStep(2, np.array([0.0, 0.5, 1.0, 2.0]), np.array([-1.0, 3.0, -1.0])))
    cases += [staircase(2, n) for n in range(1, 13)]
    for u in cases:
        got = u.rearrangement
        want = step_from_pairs(u.values, u.shell_measures())
        assert u.rearrangement is got
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.measures, want.measures)
    zero = RadialStep(2, np.array([0.0, 5.0]), np.array([0.0]))
    assert zero.rearrangement is None and zero.rearrangement is None


def test_pairing_needs_dim_two():
    u = RadialStep(1, np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(UnsupportedDimensionError):
        dual_pairing_inverse_radius(u)


def test_to_grid_sampling():
    u = _annulus(2)
    g = to_grid(u, 5)
    # grid covers [-2, 2]^2
    np.testing.assert_allclose(np.asarray(g.origin) * g.spacing, [-2.0, -2.0])
    np.testing.assert_allclose((np.asarray(g.origin) + g.extents) * g.spacing, [2.0, 2.0])
    # center sampling converges to the shell area; level 5 is within ~2%
    assert g.l1_norm() == pytest.approx(u.l1_norm(), rel=0.02)
    # one quadrant holds a quarter of the mass
    assert box_mass(g, (0.0, 0.0), (2.0, 2.0)) == pytest.approx(u.l1_norm() / 4.0, rel=0.05)


def _former_to_grid(u, level):
    """to_grid as it was before it sampled one orthant: a dense mesh of the cube."""
    scale = 2 ** level
    o = int(np.floor(-u.outer_radius * scale))
    n = int(np.ceil(u.outer_radius * scale)) - o
    axis = (o + np.arange(n) + 0.5) * 2.0 ** (-level)
    mesh = np.meshgrid(*[axis] * u.dim, indexing="ij")
    rr = np.sqrt(sum(m**2 for m in mesh))
    return (o,) * u.dim, (n,) * u.dim, u.evaluate(rr)


#: cells per half-axis a drawn radius may reach, so a 3-d cube stays small
_HALF_AXIS = {1: 64, 2: 24, 3: 8}


@st.composite
def radial_on_a_grid(draw):
    dim = draw(st.integers(1, 3))
    level = draw(st.integers(-2, 8))
    h = 2.0**-level
    k = _HALF_AXIS[dim]
    # the radius of a cell centre, computed as the sampler computes it, puts
    # a breakpoint exactly where a shell boundary meets the cells
    centre = st.lists(st.integers(0, k - 1), min_size=dim, max_size=dim).map(
        lambda idx: float(np.sqrt(sum(((i + 0.5) * h) ** 2 for i in idx)))
    )
    free = st.floats(h / 64, k * h, allow_nan=False)
    radii = sorted(draw(st.lists(st.one_of(centre, free), min_size=1, max_size=5, unique=True)))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(radii), max_size=len(radii)))
    return RadialStep(dim, np.array([0.0] + radii), np.array(values)), level


@given(radial_on_a_grid())
@settings(max_examples=200, deadline=None)
def test_to_grid_equals_the_dense_sampling_it_replaces(case):
    u, level = case
    g = to_grid(u, level)
    origin, extents, values = _former_to_grid(u, level)
    assert (g.level, g.origin, g.extents) == (level, origin, extents)
    assert g.values.shape == values.shape
    assert (g.values == values).all()


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
