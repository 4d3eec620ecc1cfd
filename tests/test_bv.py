"""Total variation: exactness, chain rule, lattice splitting."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz import bv
from bvlorentz.bv import (
    ScalarC1,
    SupportViolationError,
    bv_norm,
    compose_scalar,
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
    far = GridFunction(2, single_cell.level, (40, 0), single_cell.extents, single_cell.values)
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


# -- integer-keyed lattice splitting against the float-centre dict loop ------

def _reference_lattice_tv_sum(u):
    """The former implementation: cubes from floor(float centres) of the
    nonzero cells, one dict update per nonzero cell, in flat cell order."""
    from bvlorentz.bv import SPLITTING_SLACK, TVReport, _local_contributions

    origin, contrib = _local_contributions(u)
    flat = contrib.ravel()
    nz = np.flatnonzero(flat)
    cells = np.unravel_index(nz, contrib.shape)
    centers = [(origin[a] + cells[a] + 0.5) * u.spacing for a in range(u.dim)]
    cubes = np.floor(np.stack(centers, axis=-1)).astype(int)
    per_cube = {}
    for key, x in zip(map(tuple, cubes.tolist()), flat[nz].tolist()):
        per_cube[key] = per_cube.get(key, 0.0) + x
    total = float(np.sum(flat))
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    return TVReport(total, per_cube, sum_per_cube, bound, sum_per_cube <= bound * (1.0 + SPLITTING_SLACK))


def _assert_same_split(u):
    new, ref = lattice_tv_sum(u), _reference_lattice_tv_sum(u)
    assert list(new.per_cube.items()) == list(ref.per_cube.items())
    assert all(type(c) is int for key in new.per_cube for c in key)
    assert new.total == ref.total
    assert new.sum_per_cube == ref.sum_per_cube
    assert new.splitting_bound == ref.splitting_bound
    assert new.ok == ref.ok
    assert new.to_dict() == ref.to_dict()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_split_matches_reference_on_corpus(dim):
    from bvlorentz.corpus import corpus_grids

    for seed in range(40):
        for u in corpus_grids(seed, dim, 5):
            _assert_same_split(u)


@pytest.mark.parametrize("level", [-3, -1, 0, 1, 2, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_split_matches_reference_at_every_level(level, dim):
    rng = np.random.default_rng(1000 * dim + level)
    for _ in range(6):
        extents = tuple(int(n) for n in rng.integers(1, 12 if dim < 3 else 6, dim))
        origin = tuple(int(o) for o in rng.integers(-40, 5, dim))
        vals = rng.choice([0.0, 0.125, 1.0, -0.5], size=extents)
        _assert_same_split(GridFunction(dim, level, origin, extents, vals))


def test_lattice_split_zero_function():
    rep = lattice_tv_sum(GridFunction(2, 1, (-3, 2), (2, 3), np.zeros((2, 3))))
    assert rep.per_cube == {} and rep.total == 0.0 and rep.sum_per_cube == 0.0 and rep.ok


# -- the face-slab kernel against the former zero-padded kernel ---------------

def _reference_local_contributions(u):
    """The former kernel: forward differences of a zero-padded copy."""
    padded = np.pad(u.values, (1, 1))
    acc = np.zeros_like(padded)
    for axis in range(u.dim):
        d = np.abs(np.diff(padded, axis=axis))
        head = tuple(
            slice(0, padded.shape[a] - (1 if a == axis else 0)) for a in range(u.dim)
        )
        acc[head] += d
    h_face = u.spacing ** (u.dim - 1)
    return tuple(o - 1 for o in u.origin), acc * h_face


def _assert_same_variation(u):
    regions = [
        cube_region(u.dim, 0, (0,) * u.dim, 1),
        cube_region(u.dim, 1, (-1,) * u.dim, 2),
        cube_region(u.dim, u.level, u.origin, 1),
    ]
    with np.errstate(over="ignore"):  # values near 1e305 overflow on purpose
        origin, contrib = bv._local_contributions(u)
        ref_origin, ref = _reference_local_contributions(u)
        new_on = [total_variation_on(u, r) for r in regions]
        new_split = lattice_tv_sum(u)
        with mock.patch.object(bv, "_local_contributions", _reference_local_contributions):
            ref_on = [total_variation_on(u, r) for r in regions]
            ref_split = lattice_tv_sum(u)
        assert total_variation(u) == float(np.sum(ref))
    assert origin == ref_origin
    assert contrib.shape == ref.shape and contrib.tobytes() == ref.tobytes()
    assert new_on == ref_on
    assert new_split.total == ref_split.total
    assert new_split.sum_per_cube == ref_split.sum_per_cube
    assert list(new_split.per_cube.items()) == list(ref_split.per_cube.items())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_variation_kernel_matches_padded_reference_on_corpus(dim):
    from bvlorentz.corpus import corpus_grids

    for seed in range(10):
        for u in corpus_grids(seed, dim, 5):
            _assert_same_variation(u)


@st.composite
def _kernel_grids(draw):
    dim = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    origin = tuple(draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)))
    level = draw(st.integers(-6, 7))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    cells = int(np.prod(extents))
    flat = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.125, -0.5, 1e-5, -1e5]), st.floats(-1e5, 1e5)),
        min_size=cells, max_size=cells,
    ))
    vals = np.array(flat).reshape(extents) * scale
    return GridFunction(dim, level, origin, extents, vals)


@given(_kernel_grids())
@settings(max_examples=300, deadline=None)
def test_variation_kernel_matches_padded_reference(u):
    # extents of 1, levels -6..7 and values near 1e-300 or 1e305 reach
    # subnormal and overflowing h^{dim-1} products
    _assert_same_variation(u)


def test_variation_kernel_extreme_scales_reach_subnormal_and_inf():
    tiny = GridFunction(3, 7, (0, 0, 0), (1, 1, 2), np.array([[[1e-305, 0.0]]]))
    assert 0.0 < total_variation(tiny) < np.finfo(float).tiny
    _assert_same_variation(tiny)
    huge = GridFunction(3, -6, (0, 0, 0), (1, 1, 2), np.array([[[1e305, -1e305]]]))
    with np.errstate(over="ignore"):
        assert total_variation(huge) == np.inf
    _assert_same_variation(huge)


# -- the variation is computed once per grid function -------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = bv._local_contributions

    def counted(u):
        calls.append(u)
        return kernel(u)

    monkeypatch.setattr(bv, "_local_contributions", counted)
    return calls


def test_total_variation_runs_the_kernel_once(kernel_calls, checker2d):
    first = total_variation(checker2d)
    assert total_variation(checker2d) == first
    assert kernel_calls == [checker2d]


def test_compose_scalar_reuses_the_input_variation(kernel_calls, checker2d):
    maps = [
        ScalarC1(lambda t: 0.5 * t, 0.5, "half"),
        ScalarC1(np.tanh, 1.0, "tanh"),
        ScalarC1(lambda t: -t, 1.0, "negate"),
    ]
    composed = [compose_scalar(phi, checker2d)[0] for phi in maps]
    assert len(kernel_calls) == 1 + len(maps)
    assert kernel_calls[0] is checker2d
    assert all(a is b for a, b in zip(kernel_calls[1:], composed))


def test_new_grid_function_from_same_values_recomputes(kernel_calls, checker2d):
    twin = GridFunction(2, checker2d.level, checker2d.origin, checker2d.extents, checker2d.values)
    assert total_variation(checker2d) == total_variation(twin)
    assert len(kernel_calls) == 2 and kernel_calls[1] is twin
