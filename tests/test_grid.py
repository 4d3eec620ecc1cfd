"""Grid construction, exact bookkeeping, box queries, serialization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.grid import (
    DimensionMismatchError,
    GridFunction,
    MemoryGuardError,
    RefinementDirectionError,
    UnsupportedDimensionError,
    annulus_region,
    box_mass,
    common_refinement,
    cube_region,
    from_sampler,
    full_region,
    grid_zeros,
    linear_combine,
    load_grid,
    mask_region,
    refine,
    resample_to,
    restrict,
    save_grid,
    support_measure,
    translate_cells,
    trim,
)


def test_basic_geometry(checker2d):
    assert checker2d.spacing == 0.25
    assert checker2d.cell_measure == 0.0625
    assert checker2d.cell_count == 16
    np.testing.assert_allclose(checker2d.box_lo(), [0.0, 0.0])
    np.testing.assert_allclose(checker2d.box_hi(), [1.0, 1.0])


def test_values_are_write_locked(checker2d):
    with pytest.raises((ValueError, RuntimeError)):
        checker2d.values[0, 0] = 99.0


def test_constructor_validation():
    with pytest.raises(UnsupportedDimensionError):
        GridFunction(4, 0, (0, 0, 0, 0), (1, 1, 1, 1), np.zeros((1, 1, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        GridFunction(2, 0, (0,), (1, 1), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        GridFunction(1, 0, (0,), (0,), np.zeros((0,)))
    with pytest.raises(ValueError):
        GridFunction(2, 0, (0, 0), (2, 2), np.zeros((3, 2)))


def test_refine_repeats_values(single_cell):
    fine = refine(single_cell, 4)
    assert fine.level == 4
    assert fine.extents == (16, 16)
    # each source cell becomes a 4x4 block of identical values
    assert np.all(fine.values[4:8, 8:12] == 3.0)
    assert fine.l1_norm() == single_cell.l1_norm()
    assert refine(single_cell, single_cell.level) is single_cell
    with pytest.raises(RefinementDirectionError):
        refine(single_cell, 1)


def test_translate_cells(single_cell):
    moved = translate_cells(single_cell, (3, -2))
    assert moved.origin == (3, -2)
    np.testing.assert_array_equal(moved.values, single_cell.values)
    with pytest.raises(DimensionMismatchError):
        translate_cells(single_cell, (1,))


def test_common_refinement_and_linear_combine():
    a = GridFunction(1, 1, (0,), (2,), np.array([1.0, 2.0]))
    b = GridFunction(1, 3, (2,), (4,), np.array([4.0, 4.0, 8.0, 8.0]))
    level, origin, extents = common_refinement([a, b])
    assert level == 3 and origin == (0,) and extents == (8,)
    s = linear_combine([1.0, -0.5], [a, b])
    # a at level 3 is [1,1,1,1,2,2,2,2]; b only covers cells 2..5
    np.testing.assert_array_equal(
        s.values, [1.0, 1.0, -1.0, -1.0, -2.0, -2.0, 2.0, 2.0]
    )
    with pytest.raises(ValueError):
        linear_combine([1.0], [a, b])


def test_linear_combine_rejects_mixed_dims(single_cell):
    other = GridFunction(1, 0, (0,), (1,), np.ones((1,)))
    with pytest.raises(DimensionMismatchError):
        linear_combine([1.0, 1.0], [single_cell, other])


def test_box_mass_partial_cells(single_cell):
    # the nonzero cell is [0.25,0.5)x[0.5,0.75) with value 3
    full = box_mass(single_cell, (0.0, 0.0), (1.0, 1.0))
    assert full == pytest.approx(3.0 * 0.0625, abs=1e-15)
    half = box_mass(single_cell, (0.375, 0.5), (1.0, 0.75))
    assert half == pytest.approx(3.0 * 0.125 * 0.25, abs=1e-15)
    assert box_mass(single_cell, (2.0, 2.0), (3.0, 3.0)) == 0.0
    with pytest.raises(DimensionMismatchError):
        box_mass(single_cell, (0.0,), (1.0,))


def test_resample_matches_refine(checker2d):
    fine = resample_to(checker2d, 4, (0, 0), (16, 16))
    ref = refine(checker2d, 4)
    np.testing.assert_array_equal(fine.values, ref.values)


def test_resample_coarse_averages(checker2d):
    coarse = resample_to(checker2d, 0, (0, 0), (1, 1))
    # checkerboard of 0/1 averages to exactly 1/2
    assert coarse.values[0, 0] == 0.5
    # integral preserved when target covers the support
    assert coarse.l1_norm() == pytest.approx(checker2d.l1_norm(), abs=1e-15)


def test_trim_and_support_measure(single_cell):
    t = trim(single_cell)
    assert t.extents == (1, 1)
    assert t.origin == (1, 2)
    assert t.values[0, 0] == 3.0
    assert support_measure(single_cell) == single_cell.cell_measure

    z = grid_zeros(2, 3, (5, 5), (4, 4))
    tz = trim(z)
    assert tz.extents == (1, 1) and tz.l1_norm() == 0.0


def test_value_measure_pairs(single_cell):
    vals, meas = single_cell.value_measure_pairs()
    assert vals.tolist() == [3.0]
    assert meas.tolist() == [single_cell.cell_measure]


def test_regions(checker2d):
    cube = cube_region(2, 2, (0, 0), 2)
    inside = restrict(checker2d, cube)
    assert support_measure(inside) <= cube.measure()
    assert cube.measure() == 0.25

    ann = annulus_region(2, 0.3, 0.9)
    ring = restrict(checker2d, ann)
    # cells kept by center membership only
    centers = ring.centers()[np.abs(ring.values.ravel()) > 0]
    r = np.sqrt(np.sum(centers**2, axis=1))
    assert np.all((r > 0.3) & (r <= 0.9))

    m = mask_region(2, 2, (0, 0), checker2d.values > 0)
    kept = restrict(checker2d, m)
    np.testing.assert_array_equal(kept.values, checker2d.values)

    assert full_region(2).measure() == float("inf")
    with pytest.raises(ValueError):
        annulus_region(2, 0.9, 0.3)
    with pytest.raises(ValueError):
        cube_region(2, 0, (0, 0), 0)


def test_restrict_refines_for_finer_region(checker2d):
    fine_cube = cube_region(2, 4, (1, 1), 3)
    out = restrict(checker2d, fine_cube)
    assert out.level == 4
    assert out.l1_norm() == pytest.approx(
        box_mass(checker2d, (1 / 16, 1 / 16), (4 / 16, 4 / 16)), abs=1e-15
    )


def test_save_load_roundtrip(tmp_path, single_cell):
    p = tmp_path / "u.grid"
    save_grid(single_cell, p, metadata={"note": "fixture"})
    back = load_grid(p)
    assert back.dim == single_cell.dim
    assert back.level == single_cell.level
    assert back.origin == single_cell.origin
    assert back.extents == single_cell.extents
    np.testing.assert_array_equal(back.values, single_cell.values)
    assert (tmp_path / "u.grid.json").exists()

    bad = tmp_path / "bad.grid"
    bad.write_bytes(b"NOTAGRID" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_grid(bad)


def test_memory_guard():
    with pytest.raises(MemoryGuardError):
        grid_zeros(2, 0, (0, 0), (1000, 1000), cell_guard=100)
    u = grid_zeros(2, 0, (0, 0), (8, 8))
    with pytest.raises(MemoryGuardError):
        refine(u, 10, cell_guard=1000)


def test_from_sampler_snaps_box_outward():
    u = from_sampler(1, 2, [(0.1, 0.9)], lambda x: 1.0)
    # [0.1, 0.9] snapped outward at h=1/4 is [0, 1]
    assert u.origin == (0,) and u.extents == (4,)
    assert u.l1_norm() == 1.0
    with pytest.raises(ValueError):
        from_sampler(1, 2, [(0.5, 0.5)], lambda x: 1.0)
    with pytest.raises(DimensionMismatchError):
        from_sampler(2, 2, [(0.0, 1.0)], lambda x: 1.0)


def _sample_per_center(u, sampler):
    """One sampler call per cell center, in row-major order."""
    vals = np.empty(u.extents)
    for idx in np.ndindex(*u.extents):
        center = (np.asarray(u.origin, dtype=float) + np.asarray(idx) + 0.5) * u.spacing
        vals[idx] = float(sampler(center))
    return vals


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_sampler_matches_per_center_calls(monkeypatch, dim):
    from bvlorentz import corpus, profiles

    calls = []

    def recording(dim, level, box, sampler, **kw):
        u = from_sampler(dim, level, box, sampler, **kw)
        calls.append((u, sampler))
        return u

    for module in (profiles, corpus):
        monkeypatch.setattr(module, "from_sampler", recording)
    profiles.tent_bump(dim, level=4, height=1.5)
    corpus.corpus_grids(11, dim, 3)  # the third corpus kind is the bump
    assert len(calls) == 2
    for u, sampler in calls:
        np.testing.assert_array_equal(u.values, _sample_per_center(u, sampler))
    u = from_sampler(dim, 3, [(-0.3, 0.6)] * dim, lambda x: 2.5)
    np.testing.assert_array_equal(u.values, _sample_per_center(u, lambda x: 2.5))


small_grids = st.builds(
    lambda level, origin, vals: GridFunction(
        1, level, (origin,), (len(vals),), np.array(vals)
    ),
    st.integers(min_value=-2, max_value=4),
    st.integers(min_value=-8, max_value=8),
    st.lists(st.floats(-4, 4, allow_nan=False, width=32), min_size=1, max_size=12),
)


@given(small_grids, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_refine_preserves_l1(u, dl):
    # values are copied verbatim; only the summation order changes
    v = refine(u, u.level + dl)
    assert v.l1_norm() == pytest.approx(u.l1_norm(), rel=1e-12, abs=1e-15)


@given(small_grids)
@settings(max_examples=60, deadline=None)
def test_box_mass_of_bounding_box_is_l1(u):
    lo = u.box_lo()
    hi = u.box_hi()
    assert box_mass(u, lo, hi) == pytest.approx(u.l1_norm(), rel=1e-12, abs=1e-15)


@given(small_grids, small_grids)
@settings(max_examples=40, deadline=None)
def test_linear_combine_is_exact_addition(a, b):
    s = linear_combine([1.0, 1.0], [a, b])
    # evaluate both sides on the common refinement cells
    lvl = s.level
    ra = resample_to(a, lvl, s.origin, s.extents)
    rb = resample_to(b, lvl, s.origin, s.extents)
    np.testing.assert_allclose(s.values, ra.values + rb.values, atol=1e-12)
