"""Total variation: exactness, chain rule, lattice splitting."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.bv import (
    ScalarC1,
    SupportViolationError,
    bv_norm,
    compose_scalar,
    embedding_audit_bv,
    l1_norm_on,
    lattice_tv_sum,
    total_variation,
    total_variation_on,
)
from bvlorentz.grid import (
    DimensionMismatchError,
    GridFunction,
    cube_region,
    full_region,
    refine,
    translate_cells,
)


def test_1d_indicator_tv_is_two():
    # one jump up, one jump down, face measure h^0 = 1
    u = GridFunction(1, 3, (2,), (5,), np.ones(5))
    assert total_variation(u) == 2.0
    # height scales the jumps linearly
    v = GridFunction(1, 3, (2,), (5,), 2.5 * np.ones(5))
    assert total_variation(v) == 5.0


def test_2d_square_indicator_tv_is_perimeter():
    # 2x2 block of cells at level 1 is the unit square: perimeter 4
    u = GridFunction(2, 1, (0, 0), (2, 2), np.ones((2, 2)))
    assert total_variation(u) == 4.0


def test_refinement_invariance_exact(checker2d, single_cell):
    for u in (checker2d, single_cell):
        tv = total_variation(u)
        for dl in (1, 2, 3):
            assert total_variation(refine(u, u.level + dl)) == tv


def test_additivity_separated_supports(single_cell):
    far = translate_cells(single_cell, (40, 0))
    from bvlorentz.grid import linear_combine

    both = linear_combine([1.0, 1.0], [single_cell, far])
    assert total_variation(both) == 2.0 * total_variation(single_cell)


def test_scale_equivariance():
    # u(2x) on the matching grid: values equal, faces shrink by 2^{dim-1}
    u = GridFunction(2, 2, (0, 0), (4, 4), np.arange(16.0).reshape(4, 4))
    shrunk = GridFunction(2, 3, (0, 0), (4, 4), u.values)
    assert total_variation(shrunk) == pytest.approx(
        0.5 * total_variation(u), rel=1e-14
    )


def test_tv_on_region_partition(checker2d):
    full = total_variation(checker2d)
    # four disjoint side-1 cubes tile [-0.5, 1.5)^2, which holds every padded
    # cell center, so the restricted variations must sum to the total
    quads = [cube_region(2, 2, c, 4) for c in [(-2, -2), (2, -2), (-2, 2), (2, 2)]]
    parts = [total_variation_on(checker2d, q) for q in quads]
    assert sum(parts) == pytest.approx(full, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        total_variation_on(checker2d, cube_region(1, 0, (0,), 1))


def test_l1_on_and_bv_norm(checker2d):
    reg = full_region(2)
    assert l1_norm_on(checker2d, reg) == pytest.approx(checker2d.l1_norm(), abs=1e-15)
    assert bv_norm(checker2d) == pytest.approx(
        total_variation(checker2d) + checker2d.l1_norm(), abs=1e-13
    )
    with pytest.raises(DimensionMismatchError):
        l1_norm_on(checker2d, cube_region(3, 0, (0, 0, 0), 1))


def test_compose_scalar_chain_rule(checker2d):
    half = ScalarC1(lambda t: 0.5 * t, 0.5, "half")
    composed, rep = compose_scalar(half, checker2d)
    assert rep.ok
    assert rep.tv_composed == pytest.approx(0.5 * rep.tv_input, rel=1e-14)
    assert composed.values.max() == 0.5

    squash = ScalarC1(np.tanh, 1.0, "tanh")
    _, rep2 = compose_scalar(squash, checker2d)
    assert rep2.ok and rep2.tv_composed <= rep2.bound

    d = rep.to_dict()
    assert d["map_name"] == "half" and d["ok"] is True


def test_compose_scalar_requires_zero_fixed(checker2d):
    shift = ScalarC1(lambda t: t + 1.0, 1.0, "shift")
    with pytest.raises(SupportViolationError):
        compose_scalar(shift, checker2d)


def test_understated_bound_is_flagged(checker2d):
    # an identity map claiming derivative bound 0.5 must fail the audit
    lying = ScalarC1(lambda t: t, 0.5, "lying-identity")
    _, rep = compose_scalar(lying, checker2d)
    assert not rep.ok


def test_lattice_tv_sum(checker2d):
    rep = lattice_tv_sum(checker2d)
    assert rep.ok
    assert rep.total == pytest.approx(total_variation(checker2d), abs=1e-13)
    # per-cube pieces partition the padded contributions
    assert rep.sum_per_cube == pytest.approx(rep.total, abs=1e-13)
    assert rep.splitting_bound == 3**2 * rep.total
    d = rep.to_dict()
    assert set(d) == {"total", "sum_per_cube", "splitting_bound", "cubes", "ok"}


def test_embedding_audit_bv(checker2d):
    rep = embedding_audit_bv(checker2d, full_region(2), q=1.5)
    assert rep.ok_q_vs_1
    assert rep.norm_lorentz_q <= rep.norm_lorentz_1 * (1 + 1e-12)
    assert rep.norm_bv > 0
    assert rep.empirical_constant == pytest.approx(
        rep.norm_lorentz_1 / rep.norm_bv, rel=1e-14
    )


small_1d = st.builds(
    lambda level, vals: GridFunction(1, level, (0,), (len(vals),), np.array(vals)),
    st.integers(min_value=0, max_value=3),
    st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=1, max_size=10),
)

small_2d = st.builds(
    lambda level, flat: GridFunction(
        2, level, (0, 0), (3, len(flat) // 3), np.array(flat).reshape(3, -1)
    ),
    st.integers(min_value=0, max_value=2),
    st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=6, max_size=12).filter(
        lambda xs: len(xs) % 3 == 0
    ),
)


@given(st.one_of(small_1d, small_2d), st.integers(min_value=1, max_value=2))
@settings(max_examples=80, deadline=None)
def test_refinement_invariance_property(u, dl):
    assert total_variation(refine(u, u.level + dl)) == pytest.approx(
        total_variation(u), rel=1e-12, abs=1e-15
    )


@given(st.one_of(small_1d, small_2d))
@settings(max_examples=80, deadline=None)
def test_triangle_inequality_with_negation(u):
    # per-face subadditivity makes TV(u + (-u)) = 0 <= 2 TV(u) trivially and
    # TV(2u) = 2 TV(u) exactly
    two = GridFunction(u.dim, u.level, u.origin, u.extents, 2.0 * u.values)
    assert total_variation(two) == pytest.approx(
        2.0 * total_variation(u), rel=1e-12, abs=1e-15
    )


@given(st.one_of(small_1d, small_2d))
@settings(max_examples=60, deadline=None)
def test_lattice_split_bound_property(u):
    rep = lattice_tv_sum(u)
    assert rep.ok
    assert rep.sum_per_cube <= rep.splitting_bound * (1 + 1e-9)


@given(small_1d)
@settings(max_examples=60, deadline=None)
def test_tanh_contracts_variation(u):
    squash = ScalarC1(np.tanh, 1.0, "tanh")
    _, rep = compose_scalar(squash, u)
    assert rep.ok
