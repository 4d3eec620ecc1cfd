"""Total variation: exactness, chain rule, lattice splitting."""
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvlorentz import grid
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
    InputError,
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


def test_compose_scalar_requires_zero_fixed(checker2d):
    # the map is refused when it is made, so it never reaches compose_scalar
    with pytest.raises(SupportViolationError, match=r"'shift' has phi\(0\) = 1.0, breaking zero extension"):
        compose_scalar(ScalarC1(lambda t: t + 1.0, 1.0, "shift"), checker2d)


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
    from bvlorentz.bv import SPLITTING_SLACK, TVReport

    contrib = u.face_contributions()
    origin = tuple(o - 1 for o in u.origin)
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
    assert new == ref


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


def test_lattice_split_keys_only_the_nonzero_cells():
    # a few nonzero cells in a 200^3 box: the split may allocate the kernel's
    # output and O(nonzero + cubes) more, but no key per padded cell
    vals = np.zeros((200, 200, 200))
    vals[3:6, 100:104, 190:195] = 1.0
    vals[150, 7, 0] = -2.5
    u = GridFunction(3, 5, (-100, -100, -100), vals.shape, vals)
    ref = _reference_lattice_tv_sum(u)
    tracemalloc.start()
    try:
        rep = lattice_tv_sum(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an int64 key per padded cell would be another 202^3 * 8 bytes
    assert peak <= 202**3 * 8 + 2**20
    assert list(rep.per_cube.items()) == list(ref.per_cube.items())
    assert rep.total == ref.total and rep.sum_per_cube == ref.sum_per_cube


def _former_lattice_tv_sum(u):
    """The former booking: ``sums`` and ``first`` over every cube of the
    box's cube lattice, whatever the number of nonzero cells."""
    from bvlorentz.bv import SPLITTING_SLACK, TVReport, _axis_cubes

    contrib = u.face_contributions()
    origin = tuple(o - 1 for o in u.origin)
    flat = contrib.ravel()
    nz = np.flatnonzero(flat)
    axes = [
        np.unique(_axis_cubes(o, n, int(u.level)), return_inverse=True)
        for o, n in zip(origin, contrib.shape)
    ]
    cube_shape = tuple(len(c) for c, _ in axes)
    n_cubes = int(np.prod(cube_shape))
    cells = np.unravel_index(nz, contrib.shape)
    keys = np.ravel_multi_index(
        tuple(rank[i] for (_, rank), i in zip(axes, cells)), cube_shape
    )
    sums = np.bincount(keys, weights=flat[nz], minlength=n_cubes)
    first = np.full(n_cubes, nz.size)
    np.minimum.at(first, keys, np.arange(nz.size))
    booked = np.flatnonzero(first < nz.size)
    ordered = booked[np.argsort(first[booked], kind="stable")]
    ranks = np.unravel_index(ordered, cube_shape)
    coords = np.stack([c[r] for (c, _), r in zip(axes, ranks)], axis=-1)
    per_cube = dict(zip(map(tuple, coords.tolist()), sums[ordered].tolist()))
    total = float(np.sum(flat))
    sum_per_cube = float(sum(per_cube.values()))
    bound = 3**u.dim * total
    return TVReport(total, per_cube, sum_per_cube, bound, sum_per_cube <= bound * (1.0 + SPLITTING_SLACK))


def _sparse_cube(level, extent=120, nonzero=60, seed=3):
    rng = np.random.default_rng(seed)
    vals = np.zeros((extent,) * 3)
    vals.ravel()[rng.choice(vals.size, nonzero, replace=False)] = rng.standard_normal(nonzero)
    return GridFunction(3, level, (-extent // 2,) * 3, vals.shape, vals)


def _booking_grids():
    from bvlorentz.corpus import corpus_grids

    for dim in (1, 2, 3):
        for seed in range(12):
            yield from corpus_grids(seed, dim, 5)
    for level in (0, -3):
        for dim in (1, 2, 3):
            rng = np.random.default_rng(50 + 10 * dim - level)
            for density in (0.05, 0.5, 1.0):
                extents = tuple(int(n) for n in rng.integers(1, 30 if dim < 3 else 12, dim))
                origin = tuple(int(o) for o in rng.integers(-40, 5, dim))
                vals = rng.standard_normal(extents) * (rng.random(extents) < density)
                yield GridFunction(dim, level, origin, extents, vals)
        yield _sparse_cube(level, extent=40)


def test_lattice_split_equals_the_former_booking():
    # corpus grids put many cells in some cubes; at levels 0 and -3 every
    # cube holds one cell
    for u in _booking_grids():
        new, former = lattice_tv_sum(u), _former_lattice_tv_sum(u)
        assert new == former
        assert list(new.per_cube.items()) == list(former.per_cube.items())


@pytest.mark.parametrize("level", [0, -3])
def test_lattice_split_allocates_by_the_booked_cubes(level):
    # 60 nonzero cells in a 120^3 box, one cube per cell: a table over the
    # cube lattice would be two more arrays of the kernel output's size
    u = _sparse_cube(level)
    ref = _former_lattice_tv_sum(u)
    kernel_bytes = 122**3 * 8
    tracemalloc.start()
    try:
        rep = lattice_tv_sum(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * kernel_bytes
    assert rep == ref


@pytest.mark.parametrize("level", [-60, -61, -62, -63, -64])
def test_lattice_split_refuses_cube_coordinates_beyond_int64(level):
    u = GridFunction(1, level, (3,), (3,), np.array([1.0, 0.0, 2.0]))
    if level == -60:
        _assert_same_split(u)
        return
    with pytest.raises(InputError, match=rf"^level {level}: "):
        lattice_tv_sum(u)


@pytest.mark.parametrize("dim, level", [(2, -511), (3, -340)])
def test_lowest_levels_overflow_the_variation_with_no_warning(dim, level):
    # each face weighs h^{dim-1} = 2^{-level(dim-1)}, so every face product
    # with 1e300 overflows: the region sum is inf and the lattice split
    # refuses the cube coordinates, with no warning on the way
    def grid_of_1e300():
        return GridFunction(dim, level, (0,) * dim, (4,) * dim, np.full((4,) * dim, 1e300))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=rf"^level {level}: .* do not fit a 64-bit integer$"):
            lattice_tv_sum(grid_of_1e300())
        assert total_variation_on(grid_of_1e300(), full_region(dim)) == math.inf


# -- the face-slab kernel against the former zero-padded kernel ---------------

def _reference_face_contributions(u):
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
    return acc * h_face


def _assert_same_variation(u):
    regions = [
        cube_region(u.dim, 0, (0,) * u.dim, 1),
        cube_region(u.dim, 1, (-1,) * u.dim, 2),
        cube_region(u.dim, u.level, u.origin, 1),
    ]
    with np.errstate(over="ignore"):  # values near 1e305 overflow on purpose
        # a fresh copy, so that the streamed variation runs, not the cached sum
        streamed = total_variation(GridFunction(u.dim, u.level, u.origin, u.extents, u.values))
        contrib = u.face_contributions()
        ref = _reference_face_contributions(u)
        new_on = [total_variation_on(u, r) for r in regions]
        new_split = lattice_tv_sum(u)
        with mock.patch.object(GridFunction, "face_contributions", _reference_face_contributions):
            ref_on = [total_variation_on(u, r) for r in regions]
            ref_split = lattice_tv_sum(u)
        assert streamed == total_variation(u) == float(np.sum(ref))
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
        st.one_of(st.sampled_from([0.0, -0.0, 0.125, -0.5, 1e-5, -1e5]), st.floats(-1e5, 1e5)),
        min_size=cells, max_size=cells,
    ))
    vals = np.array(flat).reshape(extents) * scale
    return GridFunction(dim, level, origin, extents, vals)


def _face_touching(extents, seed):
    """Nonzero on every face of its box, with a -0.0 cell inside when there
    is room, so the shifted differences read real values next to each wrap."""
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.0, 0.125, -0.5, 3.0], size=extents)
    for axis in range(len(extents)):
        for end in (0, -1):
            face = vals[(slice(None),) * axis + (end,)]
            face[face == 0.0] = 1.0
    if all(n > 2 for n in extents):
        vals[(1,) * len(extents)] = -0.0
    return GridFunction(len(extents), 2, (-1,) * len(extents), extents, vals)


#: 2-D and 3-D grids whose support touches every face of the box, some with
#: extents of 1, so a shifted difference wraps next to nonzero cells
_FACE_TOUCHING = [
    _face_touching(extents, seed)
    for seed, extents in enumerate([(4, 5), (1, 6), (5, 1), (3, 4, 5), (1, 3, 4), (4, 1, 1), (1, 1, 3)])
]


def _with_face_touching_examples(test):
    for u in _FACE_TOUCHING:
        test = example(u=u)(test)
    return test


@given(u=_kernel_grids())
@_with_face_touching_examples
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


@pytest.mark.parametrize("slab_cells", [1, 7, 64])
@given(u=_kernel_grids())
@settings(max_examples=100, deadline=None)
def test_variation_kernel_matches_padded_reference_across_slabs(slab_cells, u):
    # slabs of one row, of a few rows and rows longer than the slab, so the
    # padding rows fall at every position inside a slab
    with mock.patch.object(grid, "_SLAB_CELLS", slab_cells):
        _assert_same_variation(u)


@pytest.mark.parametrize("slab_cells", [1, 7, 64])
def test_face_touching_grids_across_slabs(slab_cells):
    for u in _FACE_TOUCHING:
        for axis in range(u.dim):
            assert np.all(np.moveaxis(u.values, axis, 0)[[0, -1]] != 0.0)
        with mock.patch.object(grid, "_SLAB_CELLS", slab_cells):
            _assert_same_variation(u)


@pytest.mark.parametrize("slab_cells", [1, 7, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_variation_kernel_across_slabs_on_corpus(slab_cells, dim):
    from bvlorentz.corpus import corpus_grids

    with mock.patch.object(grid, "_SLAB_CELLS", slab_cells):
        for u in corpus_grids(3, dim, 5):
            _assert_same_variation(u)


@pytest.mark.parametrize("extents", [(100_000,), (300, 300), (48, 48, 48)])
def test_variation_kernel_crosses_the_real_slab_size(extents):
    rng = np.random.default_rng(len(extents))
    vals = np.round(rng.standard_normal(extents), 2) * (rng.random(extents) < 0.7)
    u = GridFunction(len(extents), 4, (-3,) * len(extents), extents, vals)
    assert np.prod([n + 2 for n in extents]) > 2 * grid._SLAB_CELLS
    _assert_same_variation(u)


def test_variation_kernel_allocates_only_its_output():
    rng = np.random.default_rng(0)
    u = GridFunction(2, 10, (0, 0), (1024, 1024), rng.standard_normal((1024, 1024)))
    tracemalloc.start()
    try:
        contrib = u.face_contributions()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= contrib.nbytes + 2**20


# -- the variation is computed once per grid function -------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    # the row kernel that both the streamed variation and the full array run
    calls = []
    kernel = grid._face_rows

    def counted(u):
        calls.append(u)
        return kernel(u)

    monkeypatch.setattr(grid, "_face_rows", counted)
    return calls


def test_total_variation_runs_the_kernel_once(kernel_calls, checker2d):
    first = total_variation(checker2d)
    assert total_variation(checker2d) == first
    assert kernel_calls == [checker2d]


def test_face_contributions_cache_their_sum_as_the_variation(kernel_calls, checker2d):
    contrib = checker2d.face_contributions()
    assert total_variation(checker2d) == float(np.sum(contrib))
    assert kernel_calls == [checker2d]
    twin = GridFunction(2, checker2d.level, checker2d.origin, checker2d.extents, checker2d.values)
    assert total_variation(twin) == total_variation(checker2d)


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
