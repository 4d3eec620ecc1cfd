"""Grid construction, exact bookkeeping, box queries, serialization."""
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvlorentz import grid
from bvlorentz.grid import (
    DEFAULT_CELL_GUARD,
    DimensionMismatchError,
    GridFormatError,
    GridFunction,
    InputError,
    MemoryGuardError,
    RefinementDirectionError,
    UnsupportedDimensionError,
    _LEAF_CELLS,
    _cell_centers,
    _guard,
    _pairwise_sum,
    box_mass,
    common_refinement,
    cube_region,
    from_sampler,
    full_region,
    linear_combine,
    load_grid,
    refine,
    resample_to,
    save_grid,
    trim,
)
from bvlorentz.group import DyadicVector, GroupElement, act
from bvlorentz.radial import RadialStep, to_grid
from bvlorentz.rearrange import _step_from_magnitudes


def test_basic_geometry(checker2d):
    assert checker2d.spacing == 0.25
    assert checker2d.cell_measure == 0.0625
    assert checker2d.cell_count == 16
    o = np.asarray(checker2d.origin, dtype=float)
    np.testing.assert_allclose(o * checker2d.spacing, [0.0, 0.0])
    np.testing.assert_allclose((o + checker2d.extents) * checker2d.spacing, [1.0, 1.0])


def test_values_are_write_locked(checker2d):
    with pytest.raises((ValueError, RuntimeError)):
        checker2d.values[0, 0] = 99.0


def test_caller_array_stays_writeable_and_unshared():
    a = np.ones((4, 4))
    u = GridFunction(2, 0, (0, 0), (4, 4), a)
    a[0, 0] = 2.0
    assert a.flags.writeable and u.values[0, 0] == 1.0
    view = a[:, :2]  # a non-contiguous view is copied by the conversion itself
    assert GridFunction(2, 0, (0, 0), (4, 2), view).values[0, 0] == 2.0 and view.flags.writeable
    frozen = np.zeros((2, 2))
    frozen.setflags(write=False)
    assert GridFunction(2, 0, (0, 0), (2, 2), frozen).values is frozen  # adopted, not copied


def test_loaded_values_are_read_only(tmp_path, checker2d):
    p = tmp_path / "u.grid"
    save_grid(checker2d, p)
    back = load_grid(p)
    assert not back.values.flags.writeable and back.values.flags.owndata


def test_constructor_validation():
    with pytest.raises(UnsupportedDimensionError):
        GridFunction(4, 0, (0, 0, 0, 0), (1, 1, 1, 1), np.zeros((1, 1, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        GridFunction(2, 0, (0,), (1, 1), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        GridFunction(1, 0, (0,), (0,), np.zeros((0,)))
    with pytest.raises(ValueError):
        GridFunction(2, 0, (0, 0), (2, 2), np.zeros((3, 2)))


@pytest.mark.parametrize("dim, level", [(1, 1023), (1, -1023), (2, 512), (2, -512), (3, 341), (3, -341)])
def test_constructor_refuses_a_level_whose_cell_measure_is_not_normal(dim, level):
    shape = (1,) * dim
    with pytest.raises(InputError, match=f"^level {level} is out of range for dimension {dim}: "
                       rf"its cell measure 2\^{-level * dim} is not a normal double$"):
        GridFunction(dim, level, (0,) * dim, shape, np.ones(shape))
    # one level closer to 0 the cell measure and its inverse are normal doubles
    edge = GridFunction(dim, level - (1 if level > 0 else -1), (0,) * dim, shape, np.ones(shape))
    assert 0.0 < edge.cell_measure < np.inf and 0.0 < 1.0 / edge.cell_measure < np.inf


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
    assert single_cell.rearrangement.total_measure == single_cell.cell_measure

    z = GridFunction(2, 3, (5, 5), (4, 4), np.zeros((4, 4)))
    tz = trim(z)
    assert tz.extents == (1, 1) and tz.l1_norm() == 0.0



def _former_trim(u):
    """trim as it was: the min and max of the index arrays of every nonzero cell."""
    nz = np.nonzero(u.values)
    if len(nz[0]) == 0:
        one = tuple(1 for _ in range(u.dim))
        return GridFunction(u.dim, u.level, u.origin, one, np.zeros(one))
    lo = [int(ix.min()) for ix in nz]
    hi = [int(ix.max()) + 1 for ix in nz]
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    origin = tuple(o + a for o, a in zip(u.origin, lo))
    extents = tuple(b - a for a, b in zip(lo, hi))
    return GridFunction(u.dim, u.level, origin, extents, u.values[sl])


@st.composite
def _trim_grids(draw):
    dim = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    origin = tuple(draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)))
    cells = int(np.prod(extents))
    # mostly zeros of both signs, so the support is sparse or empty
    flat = draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.0, -0.0, -0.0, 1.5, -2.0, 5e-324]),
        min_size=cells, max_size=cells,
    ))
    return GridFunction(dim, draw(st.integers(-3, 3)), origin, extents, np.array(flat).reshape(extents))


@given(_trim_grids())
@settings(max_examples=300, deadline=None)
@example(GridFunction(3, 0, (1, 2, 3), (2, 3, 2), np.zeros((2, 3, 2))))
@example(GridFunction(2, 1, (0, -1), (3, 2), np.full((3, 2), -0.0)))
@example(GridFunction(1, 0, (5,), (4,), np.array([-0.0, 0.0, 2.0, -0.0])))
def test_trim_matches_the_former_nonzero_trim(u):
    got, ref = trim(u), _former_trim(u)
    assert (got.level, got.origin, got.extents) == (ref.level, ref.origin, ref.extents)
    assert got.values.tobytes() == ref.values.tobytes()
    # a contiguous box is a view of u, as before; any other box is a copy
    assert np.shares_memory(got.values, u.values) == np.shares_memory(ref.values, u.values)


def test_value_measure_pairs(single_cell):
    vals, meas = single_cell.value_measure_pairs()
    assert vals.tolist() == [3.0]
    assert meas.tolist() == [single_cell.cell_measure]


def test_regions(checker2d):
    # a cube holds the cells whose centre lies in [corner, corner + side) * h
    cube = cube_region(2, 2, (0, 0), 2)
    centers = _cell_centers(checker2d.level, checker2d.origin, checker2d.extents)
    inside = cube.contains_points(centers).reshape(checker2d.extents)
    expect = np.zeros((4, 4), dtype=bool)
    expect[:2, :2] = True
    np.testing.assert_array_equal(inside, expect)
    assert full_region(2).contains_points(centers).all()
    with pytest.raises(DimensionMismatchError):
        cube.contains_points(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        cube_region(2, 0, (0, 0), 0)


def test_save_load_roundtrip(tmp_path, single_cell):
    p = tmp_path / "u.grid"
    save_grid(single_cell, p)
    back = load_grid(p)
    assert back.dim == single_cell.dim
    assert back.level == single_cell.level
    assert back.origin == single_cell.origin
    assert back.extents == single_cell.extents
    np.testing.assert_array_equal(back.values, single_cell.values)
    assert os.listdir(tmp_path) == ["u.grid"]  # one self-describing file, no sidecar

    bad = tmp_path / "bad.grid"
    bad.write_bytes(b"NOTAGRID" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_grid(bad)


def test_write_files_puts_grids_texts_and_docs_under_their_names(tmp_path, single_cell):
    d = tmp_path / "out"
    grid._write_files(d, {"u.grid": single_cell, "note.txt": "a\nb\n", "doc.json": {"b": 1.5, "a": [1]}})
    assert sorted(os.listdir(d)) == ["doc.json", "note.txt", "u.grid"]
    back = load_grid(d / "u.grid")
    assert (back.level, back.origin, back.extents) == (2, (0, 0), (4, 4))
    np.testing.assert_array_equal(back.values, single_cell.values)
    assert (d / "note.txt").read_text() == "a\nb\n"
    assert (d / "doc.json").read_text() == '{\n  "a": [\n    1\n  ],\n  "b": 1.5\n}\n'


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_write_files_refuses_a_doc_json_cannot_hold_before_the_directory(tmp_path, single_cell, bad):
    d = tmp_path / "out"
    files = {"u.grid": single_cell, "note.txt": "x\n", "doc.json": {"nested": {"v": bad}}}
    with pytest.raises(InputError, match="^doc.json: output holds a value that overflows a double$"):
        grid._write_files(d, files)
    assert not d.exists()


def _grid_bytes(dim, level, origin, extents, payload=b""):
    return (
        b"BVLGRID1"
        + struct.pack("<qq", dim, level)
        + struct.pack(f"<{dim}q", *origin)
        + struct.pack(f"<{dim}q", *extents)
        + payload
    )


@pytest.mark.parametrize(
    "dim, level, origin, extents",
    [
        (1, 3, (-5,), (7,)),
        (2, -2, (-3, 4), (5, 2)),
        (3, 1, (2, -1, -7), (2, 3, 4)),
        (3, 0, (0, 0, 0), (1, 1, 1)),
    ],
)
def test_save_grid_writes_the_documented_layout(tmp_path, dim, level, origin, extents):
    # magic, dim/level/origin/extents as little-endian int64, then the
    # row-major little-endian float64 values
    vals = np.random.default_rng(dim).normal(size=extents)
    p = tmp_path / "u.grid"
    save_grid(GridFunction(dim, level, origin, extents, vals), p)
    assert p.read_bytes() == _grid_bytes(dim, level, origin, extents, vals.astype("<f8").tobytes())


@pytest.mark.parametrize(
    "raw, why",
    [
        (b"BVLGRID2" + b"\x00" * 64, "not a grid file (bad magic)"),
        (b"BVLGRID1" + b"\x00" * 9, "header truncated at 17 bytes"),
        (_grid_bytes(4, 0, (0,) * 4, (1,) * 4, b"\x00" * 8), "dimension must be 1, 2 or 3, got 4"),
        (_grid_bytes(2, 600, (0, 0), (1, 1), b"\x00" * 8), "level 600 is out of range for dimension 2"),
        (_grid_bytes(2, 0, (0, 0), (1, 1))[:-3], "header truncated at 53 bytes, needs 56"),
        (_grid_bytes(2, 0, (0, 0), (3, 0)), "extents must be positive, got (3, 0)"),
        (_grid_bytes(2, 0, (0, 0), (2**14, 2**14)), f"268435456 cells exceed the guard of {DEFAULT_CELL_GUARD}"),
        (_grid_bytes(2, 0, (0, 0), (8, 8), b"\x00" * 144), "payload is 144 bytes, extents (8, 8) need 512"),
        (_grid_bytes(1, 0, (0,), (2,), b"\x00" * 17), "payload is 17 bytes, extents (2,) need 16"),
        (_grid_bytes(2, 0, (0, 0), (2, 2), b"\x00" * 33), "payload is 33 bytes, extents (2, 2) need 32"),
    ],
)
def test_load_grid_names_each_fault(tmp_path, raw, why):
    p = tmp_path / "bad.grid"
    p.write_bytes(raw)
    with pytest.raises(GridFormatError) as err:
        load_grid(p)
    assert str(err.value) == f"{p}: {why}"
    assert isinstance(err.value, ValueError)


saved_grids = st.integers(1, 3).flatmap(
    lambda dim: st.builds(
        lambda level, origin, extents, seed: GridFunction(
            dim, level, tuple(origin), tuple(extents),
            np.random.default_rng(seed).normal(size=tuple(extents)),
        ),
        st.integers(-3, 6),
        st.lists(st.integers(-20, 20), min_size=dim, max_size=dim),
        st.lists(st.integers(1, 4), min_size=dim, max_size=dim),
        st.integers(0, 2**16),
    )
)


@given(saved_grids)
@settings(max_examples=25, deadline=None)
def test_every_proper_prefix_is_refused(u):
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "u.grid"
        save_grid(u, p)
        raw = p.read_bytes()
        np.testing.assert_array_equal(load_grid(p).values, u.values)
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(GridFormatError):
                load_grid(p)


@given(saved_grids, st.data())
@settings(max_examples=80, deadline=None)
def test_header_byte_flip_loads_or_is_refused(u, data):
    header_end = 8 + 16 + 16 * u.dim
    pos = data.draw(st.integers(0, header_end - 1))
    flip = data.draw(st.integers(1, 255))
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "u.grid"
        save_grid(u, p)
        raw = bytearray(p.read_bytes())
        raw[pos] ^= flip
        p.write_bytes(bytes(raw))
        try:
            back = load_grid(p)
        except GridFormatError:
            return
    assert isinstance(back, GridFunction)


def _ones(origin=(0, 0), n=2):
    return GridFunction(2, 0, origin, (n, n), np.ones((n, n)))


def _never_called(pts):
    raise AssertionError("the sampler ran past the guard")


# each call needs 2^14 x 2^14 = 2^28 cells, twice DEFAULT_CELL_GUARD
GUARD_SITES = {
    "from_sampler": lambda: from_sampler(2, 0, [(0.0, 2.0**14)] * 2, _never_called),
    "refine": lambda: refine(_ones(), 13),
    "act": lambda: act(GroupElement(0, DyadicVector((1, 1), 13)), _ones()),
    "linear_combine": lambda: linear_combine([1.0, 1.0], [_ones(n=1), _ones((2**14 - 1,) * 2, 1)]),
    "resample_to": lambda: resample_to(_ones(), 0, (0, 0), (2**14, 2**14)),
    "to_grid": lambda: to_grid(RadialStep(2, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])), 12),
}


@pytest.mark.parametrize("site", sorted(GUARD_SITES))
def test_cell_guard_fires_before_allocating(site):
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError, match=f"needs 268435456 cells, guard is {DEFAULT_CELL_GUARD}$"):
            GUARD_SITES[site]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the cells themselves would take 2 GiB


def test_cell_guard_counts_cells_past_int64():
    # an int64 product of these extents wraps to 0, which passed the guard
    with pytest.raises(MemoryGuardError, match=f"needs {2**64} cells"):
        resample_to(_ones(), 0, (0, 0), (2**32, 2**32))


def test_cell_guard_prints_a_huge_count_as_a_power_of_two():
    for cells, count in ((2**1027, "at least 2^1027"), (3 * 2**100 + 1, "at least 2^101")):
        with pytest.raises(MemoryGuardError) as exc:
            _guard(cells)
        assert str(exc.value) == f"operation needs {count} cells, guard is {DEFAULT_CELL_GUARD}"


# -- sums leaf by leaf ----------------------------------------------------------

_PAIRWISE_SHAPES = (
    [(n,) for n in range(_LEAF_CELLS - 8, _LEAF_CELLS + 33)]
    + [(n,) for n in (1, 7, 9, 129, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 7, 100_001, 1_000_003)]
    + [(2050, 2050), (130, 130, 130), (66, 2050)]
)


def test_pairwise_sum_is_numpy_sum():
    # numpy's pairwise split, walked leaf by leaf, must give np.sum's bits;
    # a numpy that changes its split rule fails here
    rng = np.random.default_rng(2026)
    for shape in _PAIRWISE_SHAPES:
        terms = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
        flat = terms.ravel()
        spans = []

        def leaf(i, j):
            spans.append((i, j))
            return np.sum(flat[i:j])

        assert _pairwise_sum(flat.size, leaf) == np.sum(terms), shape
        assert spans[0][0] == 0 and spans[-1][1] == flat.size
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(0 < j - i <= _LEAF_CELLS for i, j in spans)
    for terms in (np.abs(rng.standard_normal(2**16 + 3)), np.full(2**16 + 3, -0.0), np.zeros(3 * _LEAF_CELLS)):
        assert _pairwise_sum(terms.size, lambda i, j: np.sum(terms[i:j])) == np.sum(terms)


def _leaf_grids():
    """Grids for the leaf-by-leaf sums: the corpus of the audit's default
    seeds, the planted fixtures, zero and signed-zero grids, grids of more
    than one leaf, and a grid whose |u| sums past a double."""
    from bvlorentz.corpus import corpus_grids
    from bvlorentz.profiles import staircase_sequence, two_profile_sequence

    grids = [u for seed in range(7, 12) for dim in (1, 2, 3) for u in corpus_grids(seed, dim, 5)]
    for seq in (
        two_profile_sequence(range(1, 9), level=5),
        two_profile_sequence(range(1, 7), dim=3, level=1),
        staircase_sequence((4, 5, 6)),
    ):
        grids += [t.u for e in seq for t in e.terms]
    rng = np.random.default_rng(11)
    signed = rng.standard_normal((3, 200, 200)) * (rng.random((3, 200, 200)) < 0.5)
    signed[signed == 0.0] = -0.0
    signed[1, 7] = 0.0
    grids += [
        GridFunction(2, 3, (0, 0), (5, 7), np.zeros((5, 7))),
        GridFunction(3, 1, (0, 0, 0), (2, 3, 4), np.full((2, 3, 4), -0.0)),
        GridFunction(1, 2, (0,), (100_000,), np.where(rng.random(100_000) < 0.3, 0.0, rng.standard_normal(100_000))),
        GridFunction(2, 5, (-3, 4), (301, 257), rng.standard_normal((301, 257))),
        GridFunction(3, 2, (0, 0, 0), (3, 200, 200), signed),  # a padded row outgrows a leaf
        GridFunction(2, 10, (0, 0), (64, 64), np.full((64, 64), 1e305)),
    ]
    return grids


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_l1_sum_and_steps_equal_the_former_full_array_formulas():
    for u in _leaf_grids():
        # the former rearrangement: one full-size |u|, summed, then its
        # positive magnitudes sorted
        a = np.abs(u.values.ravel())
        with np.errstate(over="ignore"):
            former_sum = float(np.sum(a))
        former = _step_from_magnitudes(a[a > 0], u.cell_measure)
        fresh = GridFunction(u.dim, u.level, u.origin, u.extents, u.values)
        assert fresh.l1_norm() == former_sum * u.cell_measure
        step = u.rearrangement
        assert u.l1_norm() == former_sum * u.cell_measure
        if former is None:
            assert step is None
            continue
        assert step.values.tobytes() == former.values.tobytes()
        assert step.measures.tobytes() == former.measures.tobytes()
    assert u.values[0, 0] == 1e305 and u.l1_norm() == math.inf  # with no warning


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_streamed_variation_is_the_sum_of_the_face_array():
    for u in _leaf_grids():
        fresh = GridFunction(u.dim, u.level, u.origin, u.extents, u.values)
        with np.errstate(over="ignore"):
            total = float(np.sum(u.face_contributions()))
        assert fresh.variation == total
    # slabs of 7 cells or of one padded row, so the array takes many fills
    with mock.patch.object(grid, "_SLAB_CELLS", 7):
        for u in _leaf_grids()[-4:-1]:
            fresh = GridFunction(u.dim, u.level, u.origin, u.extents, u.values)
            assert fresh.variation == float(np.sum(u.face_contributions()))


def test_grid_computes_variation_and_l1_norm_without_importing_bv():
    # a fresh interpreter, so that no other test's import of bvlorentz.bv counts
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from bvlorentz.grid import GridFunction",
        "u = GridFunction(2, 2, (0, 0), (4, 4), np.indices((4, 4)).sum(axis=0) % 2.0)",
        "tv = u.variation",
        "assert float(np.sum(u.face_contributions())) == tv > 0.0, tv",
        "assert u.l1_norm() == 0.5, u.l1_norm()",
        "assert 'bvlorentz.bv' not in sys.modules, sorted(m for m in sys.modules if m.startswith('bvlorentz'))",
    ])
    src = str(Path(grid.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("extents", [(512, 512), (64, 64, 64)])
def test_streamed_variation_makes_no_padded_array(extents):
    u = GridFunction(len(extents), 6, (0,) * len(extents), extents, np.random.default_rng(8).random(extents))
    padded = math.prod(n + 2 for n in extents) * 8
    tracemalloc.start()
    try:
        tv = u.variation
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a leaf buffer, and the kernel's buffers of the padded rows a leaf
    # meets and of its scratch: about a third of the padded per-cell array
    assert peak < padded / 2
    assert tv == float(np.sum(u.face_contributions()))


# -- the per-face kernel over any range of padded cells -------------------------

def _reference_faces(u):
    """Forward differences of a zero-padded copy, summed onto 0.0 in axis
    order and scaled by h^{dim-1}, flattened over the padded box."""
    padded = np.pad(u.values, 1)
    acc = np.zeros_like(padded)
    for axis in range(u.dim):
        acc[tuple(slice(0, n - (a == axis)) for a, n in enumerate(padded.shape))] += np.abs(
            np.diff(padded, axis=axis))
    return (acc * u.spacing ** (u.dim - 1)).ravel()


_RANGE_KINDS = ("in-one-row", "across-rows", "padding-row", "anywhere")


@st.composite
def _kernel_ranges(draw):
    """A grid and a few ranges [i, j) of its padded cells, each of a drawn kind."""
    dim = draw(st.integers(1, 3))
    if dim == 3 and draw(st.booleans()):
        # a padded row of more than 2^15 cells: one leaf ends inside a row
        extents = (draw(st.integers(1, 3)), 182, draw(st.integers(182, 200)))
    else:
        extents = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.standard_normal(extents) * (rng.random(extents) < 0.6)
    u = GridFunction(dim, draw(st.integers(-3, 5)), (0,) * dim, extents, vals)
    row = math.prod(n + 2 for n in extents[1:])
    rows = extents[0] + 2
    ranges = []
    for kind in draw(st.lists(st.sampled_from(_RANGE_KINDS), min_size=1, max_size=5)):
        if kind == "anywhere":
            i = draw(st.integers(0, rows * row - 1))
            j = draw(st.integers(i + 1, rows * row))
        elif kind == "across-rows":
            r = draw(st.integers(0, rows - 2))
            i = r * row + draw(st.integers(0, row - 1))
            j = draw(st.integers((r + 1) * row + 1, rows * row))
        else:
            r = draw(st.sampled_from([0, rows - 1]) if kind == "padding-row" else st.integers(0, rows - 1))
            a = draw(st.integers(0, row - 1))
            i, j = r * row + a, r * row + draw(st.integers(a + 1, row))
        ranges.append((i, j))
    return u, ranges


@given(_kernel_ranges())
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_face_kernel_fills_any_range_as_the_padded_reference(case):
    # one kernel serves every range in turn, so its buffers are reused and
    # regrown between ranges of different lengths and rows
    u, ranges = case
    total, fill = grid._face_cells(u)
    ref = _reference_faces(u)
    assert total == ref.size
    for i, j in ranges:
        out = np.full(j - i, np.nan)  # a cell left unwritten fails the comparison
        assert fill(i, j, out) is out
        assert out.tobytes() == ref[i:j].tobytes(), (u.extents, i, j)


def _one_percent_support(n):
    vals = np.zeros((n, n))
    rng = np.random.default_rng(4)
    for i, j in rng.integers(0, n - 5, (110, 2)):
        vals[i : i + 5, j : j + 5] = rng.uniform(0.5, 3.0)
    return vals


def test_rearrangement_of_a_grid_with_zeros_makes_no_full_size_array():
    vals = _one_percent_support(512)
    assert 0.005 < np.count_nonzero(vals) / vals.size < 0.02
    u = GridFunction(2, 9, (0, 0), vals.shape, vals)
    tracemalloc.start()
    try:
        step = u.rearrangement
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the leaf buffer, then the nonzero mask (one byte a cell) and the
    # support's magnitudes: about one eighth of a full-size array
    assert peak < vals.nbytes / 4
    assert step.total_measure == np.count_nonzero(vals) * u.cell_measure


@pytest.mark.parametrize("dim, level", [(1, -1022), (2, -511), (3, -340)])
def test_a_support_measure_past_a_double_is_refused(dim, level):
    # the lowest admissible level: each cell's measure is a normal double,
    # but 8^dim of them sum past the largest one
    u = GridFunction(dim, level, (0,) * dim, (8,) * dim, np.ones((8,) * dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match=f"support measure of {8**dim} nonzero cells of measure 2\\^{-level * dim} overflows"):
            u.rearrangement
    one = np.zeros((8,) * dim)
    one[(0,) * dim] = 1.0
    single = GridFunction(dim, level, (0,) * dim, (8,) * dim, one)
    assert single.rearrangement.total_measure == single.cell_measure


def _stacked(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


boxes = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(
        st.integers(-40, 40),
        st.lists(st.integers(-(2**40), 2**40), min_size=dim, max_size=dim),
        st.lists(st.integers(1, 5), min_size=dim, max_size=dim),
    )
)


@given(boxes)
@settings(max_examples=200, deadline=None)
def test_cell_centers_equal_the_formulas_they_replace(box):
    level, origin, extents = box
    h = 2.0 ** (-level)
    # GridFunction.centers, which from_sampler called on a zero grid
    float_index = _stacked([(o + np.arange(n, dtype=float) + 0.5) * h for o, n in zip(origin, extents)])
    # bv._padded_centers, over the padded box of the variation array
    int_index = _stacked([(o + np.arange(n) + 0.5) * h for o, n in zip(origin, extents)])
    centers = _cell_centers(level, origin, extents)
    assert centers.shape == (int(np.prod(extents)), len(origin))
    assert np.array_equal(centers, float_index) and np.array_equal(centers, int_index)


sparse_grids = st.integers(1, 3).flatmap(
    lambda dim: st.builds(
        lambda level, extents, seed: GridFunction(
            dim, level, (0,) * dim, tuple(extents),
            np.random.default_rng(seed).integers(-3, 4, size=tuple(extents)) * 0.75,
        ),
        st.integers(-1014 // dim, 1022 // dim),  # 6^3 < 2^8 cells: no overflow
        st.lists(st.integers(1, 6), min_size=dim, max_size=dim),
        st.integers(0, 2**16),
    )
)


@given(sparse_grids)
@settings(max_examples=200, deadline=None)
def test_rearranged_measure_is_the_support_measure(u):
    # every chunk is a whole number of cells, each a normal power of two
    step = u.rearrangement
    measure = 0.0 if step is None else step.total_measure
    assert measure == int(np.count_nonzero(u.values)) * u.cell_measure


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
    lo = np.asarray(u.origin, dtype=float) * u.spacing
    hi = (np.asarray(u.origin) + np.asarray(u.extents)) * u.spacing
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_refused(tmp_path, bad):
    vals = np.ones((3, 4))
    vals[1, 2] = bad
    why = "values must be finite: 1 of 12 cells hold NaN or inf"
    with pytest.raises(ValueError, match=why):
        GridFunction(2, 1, (0, 0), (3, 4), vals)
    # the same value in a saved file: the payload ends the file, one double per cell
    p = tmp_path / "u.grid"
    save_grid(GridFunction(2, 1, (0, 0), (3, 4), np.ones((3, 4))), p)
    raw = bytearray(p.read_bytes())
    at = len(raw) - 8 * 12 + 8 * (1 * 4 + 2)
    raw[at : at + 8] = struct.pack("<d", bad)
    p.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError) as err:
        load_grid(p)
    assert str(err.value) == f"{p}: {why}"
