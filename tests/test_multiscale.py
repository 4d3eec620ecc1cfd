"""Formal sums: clustering, exact additivity, lazy group action."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz import grid, profiles
from bvlorentz.bv import total_variation
from bvlorentz.grid import GridFunction, resample_to
from bvlorentz.group import DyadicVector, GroupElement, act, compose, identity, inverse
from bvlorentz.multiscale import DyadicSum, Term, dyadic_sum
from bvlorentz.profiles import staircase_sequence, two_profile_sequence


def _block(value=1.0):
    return GridFunction(2, 1, (0, 0), (2, 2), value * np.ones((2, 2)))


def test_wrap_and_is_zero(single_cell):
    s = dyadic_sum(single_cell)
    assert s.clusters() != []
    assert dyadic_sum(s) is s
    z = dyadic_sum(GridFunction(2, 0, (0, 0), (1, 1), np.zeros((1, 1))))
    assert z.clusters() == []
    assert z.total_variation() == 0.0
    assert z.l1_norm() == 0.0
    v, m = z.value_measure_pairs()
    assert v.size == 0 and m.size == 0


def test_dimension_check(single_cell):
    with pytest.raises(ValueError):
        DyadicSum(1, (Term(1.0, identity(2), single_cell),))


def test_separated_terms_add_exactly():
    u = _block()
    far = GroupElement(0, DyadicVector.integers(10, 0))
    s = dyadic_sum(u).with_term(1.0, far, u)
    assert len(s.clusters()) == 2
    assert s.total_variation() == 2.0 * total_variation(u)
    assert s.l1_norm() == 2.0 * u.l1_norm()


def test_touching_terms_merge():
    u = _block()
    # shift by exactly the box width: supports share a face, must merge
    touch = GroupElement(0, DyadicVector.integers(1, 0))
    s = dyadic_sum(u).with_term(1.0, touch, u)
    assert len(s.clusters()) == 1
    # merged 2x1 rectangle of height 1: perimeter 6, not 8
    assert s.total_variation() == pytest.approx(6.0, abs=1e-13)
    assert s.l1_norm() == pytest.approx(2.0 * u.l1_norm(), abs=1e-13)


def test_gap_of_one_cell_separates():
    u = _block()
    apart = GroupElement(0, DyadicVector((3, 0), 1))  # 1.5 > box width 1
    s = dyadic_sum(u).with_term(1.0, apart, u)
    assert len(s.clusters()) == 2
    assert s.total_variation() == 2.0 * total_variation(u)


def test_cancellation_inside_cluster():
    u = _block()
    s = dyadic_sum(u).with_term(-1.0, identity(2), u)
    assert s.clusters() == []
    assert s.total_variation() == 0.0


def test_apply_composes_without_arrays(single_cell):
    g = GroupElement(2, DyadicVector.integers(1, -1))
    h = GroupElement(-1, DyadicVector((1, 1), 1))
    s = dyadic_sum(single_cell).with_term(0.5, h, single_cell)
    t = s.apply(g)
    # same result as acting term by term on the realized functions
    for term, old in zip(t.terms, s.terms):
        assert term.g == compose(g, old.g)
        assert term.coeff == old.coeff
    assert t.l1_norm() == pytest.approx(
        s.l1_norm() * 2.0 ** (-g.j * 2) * 2.0 ** (g.j * (2 - 1)), rel=1e-12
    )  # L^1 mass scales by 2^{-j} in 2-d
    # TV is invariant under the action
    assert t.total_variation() == pytest.approx(s.total_variation(), rel=1e-12)


def test_apply_then_inverse_roundtrip(single_cell):
    g = GroupElement(3, DyadicVector((5, -2), 2))
    s = dyadic_sum(single_cell)
    back = s.apply(g).apply(inverse(g))
    assert back.terms[0].g == identity(2)
    assert back.l1_norm() == pytest.approx(s.l1_norm(), rel=1e-14)


def test_materialize_matches_dense_evaluation():
    u = _block()
    g = GroupElement(1, DyadicVector((1, 0), 1))
    s = dyadic_sum(u).with_term(0.5, g, u)
    mat = s.materialize(3, (-8, -8), (16, 16))
    # dense reference: realize both terms and resample each
    a = resample_to(u, 3, (-8, -8), (16, 16))
    gb = act(g, u)
    b = resample_to(gb, 3, (-8, -8), (16, 16))
    np.testing.assert_allclose(mat.values, a.values + 0.5 * b.values, atol=1e-12)


def test_multiscale_stack_stays_lazy():
    # ten pieces spread over ten dyadic scales: flattening naively would need
    # ~2^10 cells per axis times the translation span; clusters stay tiny
    u = _block()
    s = DyadicSum(2, ())
    for k in range(10):
        g = GroupElement(k, DyadicVector.integers(3 * k, 0))
        s = s.with_term(1.0, g, u)
    assert len(s.clusters()) == 10
    assert s.total_variation() == pytest.approx(10.0 * total_variation(u), rel=1e-12)
    biggest = max(c.cell_count for c in s.clusters())
    assert biggest <= 4  # each realized piece is still its own 2x2 box


# -- block-sum kernels against the dense overlap path ---------------------------
#
# The references below are the former kernels: one overlap matrix per axis,
# contracted against the values, and a window accumulator that every cluster
# is resampled onto in full.  On dyadic values every sum is exact in any
# order, so the kernels must agree with them to the bit.

def _dense_axis_overlap(src_origin, src_n, src_h, dst_origin, dst_n, dst_h):
    src_lo = (src_origin + np.arange(src_n, dtype=float)) * src_h
    src_hi = src_lo + src_h
    dst_lo = (dst_origin + np.arange(dst_n, dtype=float)) * dst_h
    dst_hi = dst_lo + dst_h
    lo = np.maximum(dst_lo[:, None], src_lo[None, :])
    hi = np.minimum(dst_hi[:, None], src_hi[None, :])
    return np.clip(hi - lo, 0.0, None)


def _dense_resample(u, level, origin, extents):
    dst_h = 2.0 ** (-level)
    mats = [
        _dense_axis_overlap(u.origin[a], u.extents[a], u.spacing, origin[a], extents[a], dst_h)
        for a in range(u.dim)
    ]
    if u.dim == 1:
        integ = mats[0] @ u.values
    elif u.dim == 2:
        integ = mats[0] @ u.values @ mats[1].T
    else:
        integ = np.einsum("ai,bj,ck,ijk->abc", mats[0], mats[1], mats[2], u.values)
    return integ / dst_h**u.dim


def _dense_materialize(s, level, origin, extents):
    acc = np.zeros(extents)
    for c in s.clusters():
        acc += _dense_resample(c, level, origin, extents)
    return acc


def _padded_halve(a, origin):
    a = np.pad(a, [(o & 1, (n + o) & 1) for o, n in zip(origin, a.shape)])
    for axis in range(a.ndim):
        a = a.reshape(a.shape[:axis] + (-1, 2) + a.shape[axis + 1 :]).sum(axis=axis + 1)
    return a, tuple(o >> 1 for o in origin)


def _assert_materialize_matches(s, level, origin, extents):
    got = s.materialize(level, origin, extents)
    assert (got.level, got.origin, got.extents) == (level, tuple(origin), tuple(extents))
    # bytes, not only ==: cells of subtracted terms come out as +0.0
    assert got.values.tobytes() == _dense_materialize(s, level, origin, extents).tobytes()


@st.composite
def _dyadic_grids(draw, dim, levels, origins, max_extent):
    extents = tuple(draw(st.integers(1, max_extent)) for _ in range(dim))
    vals = draw(
        st.lists(st.integers(-8, 8), min_size=int(np.prod(extents)), max_size=int(np.prod(extents)))
    )
    return GridFunction(
        dim,
        draw(st.integers(*levels)),
        tuple(draw(st.integers(*origins)) for _ in range(dim)),
        extents,
        np.array(vals, dtype=float).reshape(extents) / 8.0,
    )


@st.composite
def _resample_cases(draw):
    dim = draw(st.integers(1, 3))
    u = draw(_dyadic_grids(dim, (-3, 4), (-8, 8), 5 if dim < 3 else 4))
    level = draw(st.integers(-3, 4))
    origin = tuple(draw(st.integers(-10, 6)) for _ in range(dim))
    extents = tuple(draw(st.integers(1, 6 if dim < 3 else 4)) for _ in range(dim))
    return u, level, origin, extents


@given(_resample_cases())
@settings(max_examples=300, deadline=None)
def test_resample_to_equals_dense_reference(case):
    u, level, origin, extents = case
    got = resample_to(u, level, origin, extents)
    assert (got.level, got.origin, got.extents) == (level, origin, extents)
    assert np.array_equal(got.values, _dense_resample(u, level, origin, extents))


@pytest.mark.parametrize(
    "src_level, level, origin, extents",
    [
        (-1, 1, (-3, -5), (4, 6)),   # level -1 cells cut by both window edges
        (-2, 0, (1, -3), (5, 2)),    # a level -2 cell straddles the lower edge
        (-1, -1, (-2, -1), (3, 3)),  # same level, partial overlap
        (-2, -3, (-1, -1), (2, 2)),  # coarser than the source, negative origin
        (2, -1, (-1, 0), (2, 1)),    # three halvings, odd source start and length
        (1, 3, (20, 20), (2, 2)),    # disjoint: all zeros
    ],
)
def test_resample_to_straddling_and_negative_levels(src_level, level, origin, extents):
    rng = np.random.default_rng(abs(src_level) + 4 * abs(level))
    u = GridFunction(2, src_level, (-3, -1), (3, 5), rng.integers(-9, 9, (3, 5)) / 4.0)
    got = resample_to(u, level, origin, extents)
    assert np.array_equal(got.values, _dense_resample(u, level, origin, extents))


@given(st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_halve_equals_padded_reference(dim, data):
    shape = tuple(data.draw(st.integers(1, 5)) for _ in range(dim))
    origin = tuple(data.draw(st.integers(-7, 7)) for _ in range(dim))
    a = np.random.default_rng(sum(shape) + abs(sum(origin))).random(shape)
    got, got_origin = grid._halve(a, origin)
    ref, ref_origin = _padded_halve(a, origin)
    assert got_origin == ref_origin
    assert got.tobytes() == ref.tobytes()


@st.composite
def _materialize_cases(draw):
    dim = draw(st.integers(1, 3))
    s = DyadicSum(dim, ())
    for _ in range(draw(st.integers(1, 3))):
        u = draw(_dyadic_grids(dim, (0, 3), (-4, 4), 3))
        j = draw(st.integers(-2, 2))
        y = DyadicVector.integers(*(draw(st.integers(-6, 6)) for _ in range(dim)))
        s = s.with_term(draw(st.sampled_from([1.0, -1.0, 0.5])), GroupElement(j, y), u)
    level = draw(st.integers(-2, 3))
    origin = tuple(draw(st.integers(-6, 3)) for _ in range(dim))
    extents = tuple(draw(st.integers(1, 6)) for _ in range(dim))
    return s, level, origin, extents


@given(_materialize_cases())
@settings(max_examples=200, deadline=None)
def test_materialize_equals_dense_reference(case):
    _assert_materialize_matches(*case)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_materialize_skips_outside_clusters_and_clears_negative_zeros(dim):
    # a checker pattern: zeros inside the bounding box survive trim
    vals = (np.arange(3**dim) % 2 == 0).reshape((3,) * dim) * 0.75
    u = GridFunction(dim, 1, (0,) * dim, (3,) * dim, vals)
    far = GroupElement(0, DyadicVector.integers(*([40] + [0] * (dim - 1))))
    near = GroupElement(1, DyadicVector.integers(*([-1] * dim)))
    s = dyadic_sum(u).with_term(-1.0, far, u).with_term(-1.0, near, u)
    assert len(s.clusters()) == 3
    # the -1.0 terms hold -0.0 cells; the far cluster lies outside the window
    assert any(np.signbit(c.values[c.values == 0.0]).any() for c in s.clusters())
    for level in (-1, 0, 1, 2, 3):
        _assert_materialize_matches(s, level, (-4,) * dim, (8,) * dim)


def _extraction_windows(seq, epsilon):
    """(aligned element, window level, origin, extents) of the whole window
    extract_profiles sizes, on the elements and on what is left after one pass."""
    rest = profiles.extract_profiles(seq, epsilon=epsilon, max_profiles=1).remainders
    out = []
    for r in list(seq) + list(rest):
        _, h = profiles._best_alignment(r, 10)
        a = r.apply(h)
        lv, _, _ = profiles._window([a], 4, r.dim, None)
        side = 8 * 2**lv
        out.append((a, lv, (-side // 2,) * r.dim, (side,) * r.dim))
    return out


@pytest.mark.parametrize(
    "make, epsilon",
    [
        (lambda: two_profile_sequence(range(1, 9), level=5), 0.1),
        (lambda: two_profile_sequence(range(1, 7), dim=3, level=1), 0.1),
        (lambda: staircase_sequence((4, 5, 6)), 12.0),
    ],
    ids=["planted-2d", "planted-3d", "staircase"],
)
def test_materialize_equals_dense_reference_on_fixtures(make, epsilon):
    for a, lv, origin, extents in _extraction_windows(make(), epsilon):
        _assert_materialize_matches(a, lv, origin, extents)


# -- integer footprints and the one transfer kernel ------------------------------

def _former_gather(u, level, lo, hi):
    """The index gather resample_to used at a level at or above u's."""
    idx = [(np.arange(a, b) >> (level - u.level)) - o for a, b, o in zip(lo, hi, u.origin)]
    return u.values[np.ix_(*idx)]


def _former_refine(u, level):
    """The values refine built by repeating every cell along each axis."""
    vals = u.values
    for axis in range(u.dim):
        vals = np.repeat(vals, 2 ** (level - u.level), axis=axis)
    return vals


def _float_box(u):
    """Float corners of the box of u, from origin times spacing."""
    o = np.asarray(u.origin, dtype=float)
    return o * u.spacing, (o + np.asarray(u.extents, dtype=float)) * u.spacing


@st.composite
def _finer_blocks(draw):
    """A grid at a negative or positive level with a negative or odd origin,
    a level k >= 0 finer, and a box with odd offsets inside its footprint."""
    dim = draw(st.integers(1, 3))
    u = draw(_dyadic_grids(dim, (-3, 3), (-9, 9), 4))
    level = u.level + draw(st.integers(0, 3 if dim < 3 else 2))
    flo, fhi = grid._footprint(u, level)
    lo = [draw(st.integers(a, b - 1)) for a, b in zip(flo, fhi)]
    hi = [draw(st.integers(a + 1, b)) for a, b in zip(lo, fhi)]
    return u, level, lo, hi


@given(_finer_blocks())
@settings(max_examples=300, deadline=None)
def test_block_equals_former_gather_and_repeat(case):
    u, level, lo, hi = case
    assert grid._block(u, level, lo, hi).tobytes() == _former_gather(u, level, lo, hi).tobytes()
    flo, fhi = grid._footprint(u, level)
    assert flo == [o << (level - u.level) for o in u.origin]
    assert grid._block(u, level, flo, fhi).tobytes() == _former_refine(u, level).tobytes()
    assert grid.refine(u, level).values.tobytes() == _former_refine(u, level).tobytes()


@pytest.mark.parametrize("dim, k", [(1, 500), (2, 25), (3, 20)])
def test_block_far_finer_builds_only_the_box(dim, k):
    # source cells -1 and 0 at level -k meet at 0; the box straddles that edge
    vals = np.arange(2.0**dim).reshape((2,) * dim) + 1.0
    u = GridFunction(dim, -k, (-1,) * dim, (2,) * dim, vals)
    lo, hi = [-3] * dim, [2] * dim
    block = grid._block(u, 0, lo, hi)
    side = np.array([0, 0, 0, 1, 1])
    assert block.tobytes() == vals[np.ix_(*[side] * dim)].tobytes()
    assert block.flags.owndata
    one = resample_to(GridFunction(dim, -k, (0,) * dim, (1,) * dim, np.ones((1,) * dim)),
                      0, (5,) * dim, (1,) * dim)
    assert one.values.tobytes() == np.ones((1,) * dim).tobytes()
    assert one.values.flags.owndata


def test_materialize_with_a_coarse_cluster_covering_the_window():
    vals = np.array([[1.0, 2.0], [3.0, -4.0]])
    s = dyadic_sum(GridFunction(2, -25, (-1, -1), (2, 2), vals))
    w = s.materialize(0, (-3, -2), (5, 4))
    rows, cols = np.array([0, 0, 0, 1, 1]), np.array([0, 0, 1, 1])
    assert w.values.tobytes() == vals[np.ix_(rows, cols)].tobytes()


def test_resample_at_the_same_level_owns_its_cells():
    u = GridFunction(2, 1, (0, 0), (4, 4), np.arange(16.0).reshape(4, 4))
    r = resample_to(u, 1, (1, 0), (2, 4))
    assert r.values.tobytes() == u.values[1:3].tobytes()
    assert r.values.flags.owndata


def test_resample_writes_a_negative_zero_as_zero():
    # every cell is added onto 0.0, as in window materialization
    u = GridFunction(1, 0, (0,), (3,), np.array([-0.0, 1.0, -0.0]))
    for level, extents in ((0, (3,)), (1, (6,)), (-1, (2,))):
        assert not np.signbit(resample_to(u, level, (0,), extents).values).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_block_sum_is_refused_without_a_warning():
    u = GridFunction(1, 0, (0,), (2,), np.array([1e308, 1e308]))
    with pytest.raises(grid.InputError, match="^window materialization overflows a double: values must be finite: 1 of 1 "):
        dyadic_sum(u).materialize(-1, (0,), (1,))
    with pytest.raises(grid.InputError, match="^resampling overflows a double: values must be finite: 1 of 1 "):
        resample_to(u, -1, (0,), (1,))
    with pytest.raises(grid.InputError, match="^a linear combination overflows a double: values must be finite: 2 of 2 "):
        grid.linear_combine([1.0, 1.0], [u, u])


def test_computed_passes_other_construction_errors_through():
    with pytest.raises(grid.DimensionMismatchError):
        grid._computed(2, 0, (0,), np.ones((2, 2)), "a sum")
    with pytest.raises(grid.DimensionMismatchError):
        dyadic_sum(_block()).materialize(1, (0,), (2, 2))
    with pytest.raises(grid.InputError, match="^a sum overflows a double: values must be finite: 1 of 4 cells"):
        grid._computed(2, 0, (0, 0), np.array([[1.0, np.inf], [0.0, 2.0]]), "a sum")


@given(st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_touch_test_equals_former_float_test(dim, data):
    a, b = (data.draw(_dyadic_grids(dim, (-3, 3), (-9, 9), 3)) for _ in range(2))
    a, b = (GridFunction(dim, g.level, g.origin, g.extents, np.abs(g.values) + 1.0) for g in (a, b))
    (lo1, hi1), (lo2, hi2) = _float_box(a), _float_box(b)
    touch = np.max(np.maximum(lo1, lo2) - np.minimum(hi1, hi2)) <= 0.0
    s = dyadic_sum(a).with_term(1.0, identity(dim), b)
    assert len(s.clusters()) == (1 if touch else 2)


@given(st.integers(1, 3), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_window_test_equals_former_float_test(dim, radius, data):
    # box edges land on, or one cell from, a whole number near the window edges
    level = data.draw(st.integers(-3, 4))
    extents = tuple(data.draw(st.integers(1, 4)) for _ in range(dim))
    edges = [data.draw(st.integers(-radius - 2, radius + 2)) for _ in range(dim)]
    shifts = [data.draw(st.integers(-1, 1)) for _ in range(dim)]
    lower = [data.draw(st.booleans()) for _ in range(dim)]
    origin = tuple(
        (e << max(level, 0)) + s - (0 if low else n)
        for e, s, n, low in zip(edges, shifts, extents, lower)
    )
    c = GridFunction(dim, level, origin, extents, np.ones(extents))
    lo, hi = _float_box(c)
    inside = bool(np.all(lo < radius) and np.all(hi > -radius))
    window = ((-radius,) * dim, (2 * radius,) * dim)
    assert (grid._overlap_box(c, 0, *window) is not None) == inside


@given(st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_linear_combine_equals_former_refine_and_add(dim, data):
    count = data.draw(st.integers(1, 3))
    fns = [data.draw(_dyadic_grids(dim, (-2, 3), (-9, 9), 3)) for _ in range(count)]
    coeffs = [data.draw(st.sampled_from([1.0, -1.0, 0.5, 3.0])) for _ in fns]
    level, origin, extents = grid.common_refinement(fns)
    acc = np.zeros(extents)
    for c, f in zip(coeffs, fns):
        vals = _former_refine(f, level)
        at = [fo * 2 ** (level - f.level) - o for fo, o in zip(f.origin, origin)]
        acc[tuple(slice(a, a + n) for a, n in zip(at, vals.shape))] += c * vals
    assert grid.linear_combine(coeffs, fns).values.tobytes() == acc.tobytes()
