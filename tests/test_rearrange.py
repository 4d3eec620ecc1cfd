"""Rearrangement and Lorentz quasinorm tests against closed forms."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.corpus import corpus_steps
from bvlorentz.rearrange import (
    LorentzIndex,
    LorentzIndexError,
    StepFunction,
    _log_core_over_q,
    _step_from_magnitudes,
    critical_exponent,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norm_symmetrization,
    lorentz_norm_weak,
    schwarz_profile,
    step_from_pairs,
    unit_ball_volume,
)

# heights/measures well away from overflow or underflow
chunk_lists = st.lists(
    st.tuples(
        st.floats(0.05, 8.0, allow_nan=False),
        st.floats(0.05, 4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)

lorentz_indices = st.tuples(
    st.floats(0.5, 4.0, allow_nan=False),
    st.one_of(st.floats(0.5, 4.0, allow_nan=False), st.just(math.inf)),
)


def _step(chunks):
    v = np.array([c[0] for c in chunks])
    m = np.array([c[1] for c in chunks])
    return step_from_pairs(v, m)


def test_indicator_closed_form():
    # ||chi_E||_{p,q} = (p/q)^{1/q} |E|^{1/p}
    for p, q, m in [(2.0, 1.0, 3.0), (1.5, 2.0, 0.25), (3.0, 0.5, 7.0)]:
        s = StepFunction(np.array([1.0]), np.array([m]))
        expect = (p / q) ** (1.0 / q) * m ** (1.0 / p)
        assert lorentz_norm(s, LorentzIndex(p, q)) == pytest.approx(expect, rel=1e-14)
    # weak norm of an indicator is exactly |E|^{1/p}
    s = StepFunction(np.array([1.0]), np.array([5.0]))
    assert lorentz_norm_weak(s, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_two_step_hand_computation():
    # u* = 3 on (0,1), 1 on (1,3).  With p = q = 1 the norm is the integral.
    s = StepFunction(np.array([3.0, 1.0]), np.array([1.0, 2.0]))
    assert lorentz_norm(s, LorentzIndex(1.0, 1.0)) == pytest.approx(5.0, rel=1e-14)
    # p = 2, q = 1: int u*(t) t^{-1/2} dt = 3*2*1 + 1*2*(sqrt(3)-1)
    expect = 6.0 + 2.0 * (math.sqrt(3.0) - 1.0)
    assert lorentz_norm(s, LorentzIndex(2.0, 1.0)) == pytest.approx(expect, rel=1e-14)


def test_step_from_pairs_sorts_merges_drops():
    s = step_from_pairs(
        np.array([1.0, -2.0, 0.0, 2.0, 0.5]), np.array([1.0, 2.0, 9.0, 3.0, 0.0])
    )
    assert s.values.tolist() == [2.0, 1.0]
    assert s.measures.tolist() == [5.0, 1.0]
    assert step_from_pairs(np.zeros(4), np.ones(4)) is None
    with pytest.raises(ValueError):
        step_from_pairs(np.ones(2), np.array([1.0, -1.0]))


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(np.array([1.0, 2.0]), np.ones(2))  # increasing
    with pytest.raises(ValueError):
        StepFunction(np.array([2.0, 2.0]), np.ones(2))  # not strict
    with pytest.raises(ValueError):
        StepFunction(np.array([-1.0]), np.ones(1))
    with pytest.raises(ValueError):
        StepFunction(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize(
    "values, bad",
    [
        ([np.nan], 1),
        ([3.0, np.nan, 1.0], 1),
        ([np.nan, np.nan], 2),
        ([np.inf, 2.0, 1.0], 1),
        ([np.inf, np.inf], 2),
        ([np.inf, -np.inf], 2),
        ([2.0, -np.inf], 1),
    ],
)
def test_step_function_refuses_non_finite_values(values, bad):
    n = len(values)
    with pytest.raises(ValueError, match=f"chunk values must be finite: {bad} of {n} chunks hold NaN or inf"):
        StepFunction(np.array(values), np.ones(n))


def test_step_function_refuses_nan_measures():
    with pytest.raises(ValueError, match="chunk measures must be positive"):
        StepFunction(np.array([2.0, 1.0]), np.array([1.0, np.nan]))


def test_schwarz_profile_radii():
    # indicator of measure pi symmetrizes to the unit disk in 2-d
    s = StepFunction(np.array([1.0]), np.array([math.pi]))
    prof = schwarz_profile(s, 2)
    assert prof.measures[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_symmetrization_drops_chunks_of_zero_radius_width(q):
    # the second chunk's measure is lost against the first: its radius
    # increment rounds to 0.0, and that chunk adds exactly 0 to the norm
    s = step_from_pairs(np.array([2.0, 1.0]), np.array([1e20, 1e-10]))
    prof = schwarz_profile(s, 2)
    assert prof.values.tolist() == [2.0]
    assert lorentz_norm(s, LorentzIndex(2.0, 2.0)) == 2e10
    got = lorentz_norm_symmetrization(s, LorentzIndex(2.0, q), dim=2)
    assert got == pytest.approx(lorentz_norm(s, LorentzIndex(2.0, q)), rel=1e-12)
    # a lone chunk whose ball radius underflows to 0 leaves no profile
    tiny = StepFunction(np.array([1.0]), np.array([5e-324]))
    assert schwarz_profile(tiny, 2) is None
    assert lorentz_norm_symmetrization(tiny, LorentzIndex(2.0, q), dim=2) == 0.0


def test_unit_ball_volume_and_critical_exponent():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    with pytest.raises(LorentzIndexError):
        unit_ball_volume(4)
    assert critical_exponent(2) == 2.0
    assert critical_exponent(3) == 1.5
    with pytest.raises(LorentzIndexError):
        critical_exponent(1)


def test_index_validation():
    with pytest.raises(LorentzIndexError):
        LorentzIndex(0.0, 1.0)
    with pytest.raises(LorentzIndexError):
        LorentzIndex(2.0, -1.0)
    with pytest.raises(LorentzIndexError):
        lorentz_norm_weak(StepFunction(np.ones(1), np.ones(1)), 0.0)
    with pytest.raises(LorentzIndexError):
        lebesgue_norm(StepFunction(np.ones(1), np.ones(1)), -2.0)


@given(chunk_lists, lorentz_indices)
@settings(max_examples=150, deadline=None)
def test_definition_equality(chunks, pq):
    """Chunk quadrature and symmetrization route agree on 2-d data."""
    p, q = pq
    s = _step(chunks)
    direct = lorentz_norm(s, LorentzIndex(p, q))
    via_sym = lorentz_norm_symmetrization(s, LorentzIndex(p, q), dim=2)
    assert via_sym == pytest.approx(direct, rel=1e-10, abs=1e-12)


@given(chunk_lists, st.floats(0.5, 4.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_diagonal_is_lebesgue(chunks, p):
    s = _step(chunks)
    assert lorentz_norm(s, LorentzIndex(p, p)) == pytest.approx(
        lebesgue_norm(s, p), rel=1e-12
    )


@given(chunk_lists)
@settings(max_examples=100, deadline=None)
def test_weak_norm_below_strong(chunks):
    s = _step(chunks)
    p = 2.0
    weak = lorentz_norm_weak(s, p)
    for q in (1.0, 1.5, 2.0):
        # q <= p, so the secondary-index nesting holds with constant 1
        assert weak <= lorentz_norm(s, LorentzIndex(p, q)) * (1 + 1e-12)


@given(chunk_lists)
@settings(max_examples=100, deadline=None)
def test_q_monotone_up_to_p(chunks):
    # ||.||_{p,q2} <= ||.||_{p,q1} for q1 <= q2 <= p, constant 1
    s = _step(chunks)
    p = 3.0
    n1 = lorentz_norm(s, LorentzIndex(p, 1.0))
    n2 = lorentz_norm(s, LorentzIndex(p, 2.0))
    n3 = lorentz_norm(s, LorentzIndex(p, 3.0))
    assert n2 <= n1 * (1 + 1e-12)
    assert n3 <= n2 * (1 + 1e-12)


def test_indicator_breaks_nesting_above_p():
    # for q > p the indicator ratio weak/strong is (q/p)^{1/q} > 1,
    # so constant-1 nesting must not be asserted there
    s = StepFunction(np.array([1.0]), np.array([1.0]))
    p = 1.5
    strong = lorentz_norm(s, LorentzIndex(p, 2.0))
    weak = lorentz_norm_weak(s, p)
    assert weak > strong


def test_rearrangement_of_grid_function(single_cell):
    s = single_cell.rearrangement
    assert s.values.tolist() == [3.0]
    assert s.measures.tolist() == [single_cell.cell_measure]


def test_zero_function_norms():
    from bvlorentz.grid import GridFunction
    from bvlorentz.multiscale import dyadic_sum
    from bvlorentz.radial import RadialStep

    zero_grid = GridFunction(2, 1, (0, 0), (3, 3), np.zeros((3, 3)))
    zeros = [zero_grid, dyadic_sum(zero_grid), RadialStep(2, np.array([0.0, 5.0]), np.array([0.0]))]
    for z in zeros:
        assert z.rearrangement is None
        assert lorentz_norm(z, LorentzIndex(2.0, 1.0)) == 0.0
        assert lorentz_norm_weak(z, 2.0) == 0.0
        assert lebesgue_norm(z, 2.0) == 0.0
        assert lorentz_norm_symmetrization(z, LorentzIndex(2.0, 1.0), dim=2) == 0.0


# -- values-only rearrangement of grid functions against the pairs path ------

def _grid_cases(checker2d):
    from bvlorentz.corpus import corpus_grids
    from bvlorentz.grid import GridFunction

    cases = [u for seed in range(8) for d in (1, 2, 3) for u in corpus_grids(seed, d, 5)]
    rng = np.random.default_rng(5)
    cases += [
        checker2d,
        GridFunction(2, 3, (-4, 1), (5, 7), np.full((5, 7), 0.75)),
        GridFunction(3, -1, (-2, 0, 3), (3, 4, 2), rng.choice([-2.0, -0.5, 0.0, 0.5, 1.0], (3, 4, 2))),
        GridFunction(1, 2, (-9,), (40,), rng.normal(size=40)),
    ]
    return cases


def test_grid_rearrangement_matches_pairs_path(checker2d):
    for u in _grid_cases(checker2d):
        fast = u.rearrangement
        ref = step_from_pairs(*u.value_measure_pairs())
        assert np.array_equal(fast.values, ref.values)
        assert np.array_equal(fast.measures, ref.measures)


def test_grid_rearrangement_of_zero_grid_is_none():
    from bvlorentz.grid import GridFunction

    u = GridFunction(2, 1, (0, 0), (3, 3), np.zeros((3, 3)))
    assert u.rearrangement is None
    assert step_from_pairs(*u.value_measure_pairs()) is None
    assert lorentz_norm(u, LorentzIndex(2.0, 1.0)) == 0.0


def test_scalar_measure_validation():
    # the grid's tail gives no step on cells of measure 0 (or less); the
    # pairs path takes one measure per value and refuses a negative one
    for m in (0.0, -0.25):
        assert _step_from_magnitudes(np.array([1.0, 2.0]), m) is None
    with pytest.raises(ValueError, match="equal length"):
        step_from_pairs(np.array([1.0, 2.0]), 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        step_from_pairs(np.array([1.0, 2.0]), np.array([0.25, -0.25]))


def test_four_norms_sort_a_grid_once(monkeypatch, checker2d):
    from bvlorentz import grid
    from bvlorentz.grid import GridFunction

    calls = []
    sort = grid._step_from_magnitudes

    def counting(values, m):
        calls.append(np.size(values))
        return sort(values, m)

    monkeypatch.setattr(grid, "_step_from_magnitudes", counting)
    u = GridFunction(2, 2, (0, 0), (4, 4), checker2d.values + 1.0)
    norms = [lorentz_norm(u, LorentzIndex(2.0, q)) for q in (1.0, 1.5, 2.0, math.inf)]
    assert calls == [16]
    assert norms[2] == pytest.approx(lebesgue_norm(u, 2.0), rel=1e-12)
    assert calls == [16]


# values for the grid's scalar-measure tail: signed zeros, negatives, duplicates, subnormals
_cell_values = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.0**-1060]),
        st.floats(-1e300, 1e300, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@given(_cell_values, st.sampled_from([2.0**-12, 0.25, 1.0, 8.0]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_scalar_measure_path_equals_weighted_path(vals, m, frozen):
    v = np.array(vals)
    if frozen:
        v.setflags(write=False)
    before = v.copy()
    fast = _step_from_magnitudes(np.abs(v), m)  # sorts its fresh |v| in place
    ref = step_from_pairs(v, np.full(v.size, m))
    np.testing.assert_array_equal(v, before)  # the pairs path sorts no caller's array
    if ref is None:
        assert fast is None
        return
    assert np.array_equal(fast.values, ref.values) and np.array_equal(fast.measures, ref.measures)
    assert fast.values.flags.c_contiguous and fast.measures.flags.c_contiguous



def _former_uniform_step(values, m):
    """The former scalar-measure branch of ``step_from_pairs``."""
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    if not m > 0:
        v = v[:0]
    elif v.size and not v.min() > 0:
        v = v[v > 0]
    v.sort()
    if v.size == 0:
        return None
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    counts = np.diff(np.append(starts, v.size))
    return StepFunction(v[starts[::-1]], counts[::-1] * m)


def _assert_same_step(got, want):
    if want is None:
        assert got is None
        return
    for a, b in ((got.values, want.values), (got.measures, want.measures)):
        assert a.tobytes() == b.tobytes()
        assert a.dtype == b.dtype == np.float64
        assert a.strides == b.strides == (8,)
        assert a.flags.c_contiguous and not a.flags.writeable


def _smooth_field(rng, dim, n):
    """Six Gaussians on (-1, 1)^dim rounded to 2^-19, as in the large-grids benchmark."""
    axis = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    mesh = np.meshgrid(*([axis] * dim), indexing="ij", sparse=True)
    f = np.zeros((n,) * dim)
    for _ in range(6):
        c, w, a = rng.uniform(-0.6, 0.6, dim), rng.uniform(0.15, 0.5), rng.uniform(0.5, 2.0)
        f += a * np.exp(-sum((x - ci) ** 2 for x, ci in zip(mesh, c)) / (2.0 * w * w))
    return np.round(f * 2.0**19) / 2.0**19


def _equivalence_grids():
    from bvlorentz.corpus import corpus_grids
    from bvlorentz.grid import GridFunction
    from bvlorentz.radial import staircase, to_grid

    grids = [u for seed in range(7, 12) for d in (1, 2, 3) for u in corpus_grids(seed, d, 5)]
    rng = np.random.default_rng(23)
    sparse = np.zeros((128, 128))
    for _ in range(20):
        i, j = rng.integers(0, 125, 2)
        sparse[i : i + 3, j : j + 3] = rng.uniform(0.5, 3.0)
    grids += [  # the four large-grids fields at 128^2 and 16^3
        GridFunction(2, 6, (-64, -64), (128, 128), _smooth_field(rng, 2, 128)),
        to_grid(staircase(2, 7), level=6),
        GridFunction(3, 3, (-8, -8, -8), (16, 16, 16), _smooth_field(rng, 3, 16)),
        GridFunction(2, 6, (-64, -64), (128, 128), sparse),
    ]
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1.0, -1.0, 1.0, 0.5, 1e300, -1e300, 0.5])
    distinct = np.arange(1.0, 61.0) * np.where(np.arange(60) % 2, -0.375, 0.375)
    grids += [
        GridFunction(1, 3, (-6,), (12,), edges),  # ties, signed zeros, subnormals
        GridFunction(2, -2, (0, 0), (3, 4), edges.reshape(3, 4)),
        GridFunction(2, 3, (-4, 1), (5, 7), np.full((5, 7), -0.75)),  # one value
        GridFunction(2, 3, (0, 0), (6, 10), rng.permutation(distinct).reshape(6, 10)),
        GridFunction(3, 1, (0, 0, 0), (2, 3, 4), np.full((2, 3, 4), -0.0)),  # all zero
        GridFunction(2, 0, (0, 0), (3, 3), np.zeros((3, 3))),
    ]
    return grids


def test_grid_steps_equal_the_former_scalar_measure_steps():
    for u in _equivalence_grids():
        want = _former_uniform_step(u.values, u.cell_measure)
        _assert_same_step(u.rearrangement, want)
        _assert_same_step(step_from_pairs(*u.value_measure_pairs()), want)
    for vals, m in (([np.nan, 2.0, 0.0, -2.0, 1.0], 0.5), ([1.0, 2.0], 0.0), ([], 1.0), ([3.0], 2.0**-1074)):
        tail = _step_from_magnitudes(np.abs(np.array(vals, dtype=np.float64)), m)
        _assert_same_step(tail, _former_uniform_step(vals, m))
    vals = np.array([-np.inf, 0.0, 1.0])
    with pytest.raises(ValueError, match="chunk values must be finite: 1 of 2"):
        step_from_pairs(vals, np.full(3, 0.5))
    with pytest.raises(ValueError, match="chunk values must be finite: 1 of 2"):
        _former_uniform_step(vals, 0.5)


def test_grid_rearrangement_is_read_only_and_keeps_the_l1_norm():
    from bvlorentz.grid import GridFunction

    rng = np.random.default_rng(31)
    for dim, shape, level in ((2, (5, 7), 3), (2, (1, 9), -1), (3, (3, 5, 7), 2), (3, (37, 41, 29), 4)):
        vals = rng.standard_normal(shape) * (rng.random(shape) < 0.8)
        for scale in (1.0, 1e305):  # the second sum overflows a double
            fresh = GridFunction(dim, level, (0,) * dim, shape, vals * scale)
            sorted_first = GridFunction(dim, level, (0,) * dim, shape, vals * scale)
            s = sorted_first.rearrangement
            assert sorted_first.l1_norm() == fresh.l1_norm()  # under the default errstate
            for a in (s.values, s.measures):
                assert a.flags.c_contiguous and not a.flags.writeable and a.strides == (8,)


def test_overflowing_l1_norm_is_inf_in_either_order():
    # the sum of |values| overflows a double: l1_norm is inf with no
    # warning, whether or not the rearrangement summed it first
    from bvlorentz.grid import GridFunction

    vals = np.full((64, 64), 1e305)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        fresh = GridFunction(2, 10, (0, 0), (64, 64), vals)
        assert fresh.l1_norm() == math.inf
        sorted_first = GridFunction(2, 10, (0, 0), (64, 64), vals)
        sorted_first.rearrangement
        assert sorted_first.l1_norm() == math.inf


_POWER_EXPONENTS = [0.5, 2, 2.0, -1, -1.0, 1, 1.0, 1.5, 0.75, 2 / 3, 3, 3.0, 0, 0.0]


@pytest.mark.parametrize("e", _POWER_EXPONENTS, ids=[repr(e) for e in _POWER_EXPONENTS])
@pytest.mark.parametrize("chunks", [4, None], ids=["4", "default"])
def test_blocked_powers_have_the_bits_of_the_full_array_power(monkeypatch, e, chunks):
    from bvlorentz import rearrange
    from bvlorentz.rearrange import _blocked_powers

    if chunks:
        monkeypatch.setattr(rearrange, "_BLOCK_CHUNKS", chunks)
    size = 3 * rearrange._BLOCK_CHUNKS + 1
    rng = np.random.default_rng(41)
    x = np.concatenate((
        [0.0, -0.0, 5e-324, 2.0**-1060, 2.2250738585072014e-308, 1e-300, 0.3, 1.0, 3.7, 1e200, 1.7976931348623157e308],
        10.0 ** rng.uniform(-320.0, 308.0, size),
    ))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        want = x ** e
        got = np.empty_like(x)
        end = 0
        for i, j, block in _blocked_powers(x, e):
            assert i == end and j - i == block.size
            got[i:j] = block
            end = j
    assert end == x.size
    assert got.tobytes() == want.tobytes()

def _seed_lorentz(s, p, q):
    """The norm formulas as they stood before the normalized prefix sums were cached."""
    vmax = float(s.values[0])
    tmax = float(np.sum(s.measures))
    if math.isinf(q):
        tau = np.cumsum(s.measures) / tmax
        return vmax * tmax ** (1.0 / p) * float(np.max((s.values / vmax) * tau ** (1.0 / p)))
    tau = np.concatenate(([0.0], np.cumsum(s.measures) / tmax))
    core = np.sum((s.values / vmax) ** q * (p / q) * np.diff(tau ** (q / p)))
    return vmax * tmax ** (1.0 / p) * float(core) ** (1.0 / q)


def _seed_lebesgue(s, p):
    vmax = float(s.values[0])
    tmax = float(np.sum(s.measures))
    core = np.sum((s.values / vmax) ** p * (s.measures / tmax))
    return vmax * tmax ** (1.0 / p) * float(core) ** (1.0 / p)


def _assert_seed_norms(s, p):
    for q in (1.0, 1.45, 1.5, 2.0, math.inf):
        assert lorentz_norm(s, LorentzIndex(p, q)) == _seed_lorentz(s, p, q)
    for r in (1.0, 1.5, 2.0, 3.0):
        assert lebesgue_norm(s, r) == _seed_lebesgue(s, r)


@given(chunk_lists, st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_cached_prefix_sums_give_the_seed_norms_exactly(chunks, p):
    _assert_seed_norms(_step(chunks), p)


def test_grid_norms_equal_the_seed_formulas(checker2d):
    for u in _grid_cases(checker2d):
        if u.rearrangement is not None and u.dim >= 2:
            _assert_seed_norms(u.rearrangement, critical_exponent(u.dim))


def test_lorentz_norm_past_a_double_in_a_factor():
    # core = p/q = 2^8 and core^(1/q) = 2^1024 overflows, but the norm
    # 2^-10 * 2^1024 = 2^1014 is a double; q near 0 overflows the norm itself
    s = StepFunction(np.array([2.0**-10]), np.array([1.0]))
    assert lorentz_norm(s, LorentzIndex(2.0, 2.0**-7)) == pytest.approx(2.0**1014, rel=1e-12)
    assert lorentz_norm(s, LorentzIndex(2.0, 1e-300)) == math.inf
    assert lorentz_norm(s, LorentzIndex(2.0, 5e-324)) == math.inf  # p/q overflows


# -- a core whose every term underflows -------------------------------------------

def _former_lorentz_norm(s, p, q):
    """lorentz_norm as it was before the core could be summed in logs."""
    tau = s.normalized_cumulative
    core = np.sum(s.normalized_values ** q * (p / q) * np.diff(tau ** (q / p)))
    return float(s.values[0]) * s.total_measure ** (1.0 / p) * float(core) ** (1.0 / q)


def _corpus_steps():
    return corpus_steps(7, 3)


@pytest.mark.parametrize("k", range(3))
def test_lorentz_norm_of_huge_q_tends_to_the_weak_norm(k):
    step = _corpus_steps()[k]
    weak = lorentz_norm_weak(step, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = lorentz_norm(step, LorentzIndex(2.0, 1e4))
        far = lorentz_norm(step, LorentzIndex(2.0, 1e308))
    assert 0.999 * weak <= near <= weak * (1.0 + 1e-12)
    assert far == pytest.approx(weak, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 10.0, 100.0])
def test_lorentz_norm_with_a_normal_core_is_unchanged(q):
    for step in _corpus_steps():
        assert lorentz_norm(step, LorentzIndex(2.0, q)) == _former_lorentz_norm(step, 2.0, q)


@pytest.mark.parametrize("q", [1.0, 2.0, 50.0, 300.0])
def test_log_core_equals_the_direct_core_where_both_are_normal(q):
    for step in _corpus_steps():
        tau = step.normalized_cumulative
        core = np.sum(step.normalized_values ** q * (2.0 / q) * np.diff(tau ** (q / 2.0)))
        got = _log_core_over_q(step.normalized_values, tau, 2.0, q)
        assert got == pytest.approx(math.log(core) / q, rel=1e-12, abs=1e-14)


# -- the symmetrization form past the range of its powers -------------------------

def _former_symmetrization(s, p, q, dim):
    """lorentz_norm_symmetrization as it was before the powers could overflow."""
    prof = schwarz_profile(s, dim)
    omega = unit_ball_volume(dim)
    radii = np.concatenate(([0.0], np.cumsum(prof.measures)))
    core = np.sum(prof.values**q * (dim * omega) * (p / (dim * q)) * np.diff(radii ** (dim * q / p)))
    return omega ** ((q - p) / (p * q)) * float(core) ** (1.0 / q)


@pytest.mark.parametrize("q", [1e3, 1e4, 1e308])
@pytest.mark.parametrize("dim", [2, 3])
def test_symmetrization_of_huge_q_agrees_with_the_chunk_quadrature(q, dim):
    # at q = 1e3 the unnormalized powers overflow but the factored core is
    # normal; at 1e4 and 1e308 it underflows too and is summed in logs
    for step in _corpus_steps():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lorentz_norm_symmetrization(step, LorentzIndex(2.0, q), dim=dim)
        assert math.isfinite(got)
        assert got == pytest.approx(lorentz_norm(step, LorentzIndex(2.0, q)), rel=1e-10)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 10.0, 100.0])
def test_symmetrization_with_a_normal_core_is_unchanged(q):
    for step in _corpus_steps():
        got = lorentz_norm_symmetrization(step, LorentzIndex(2.0, q), dim=2)
        assert got == _former_symmetrization(step, 2.0, q, 2)


def test_symmetrization_past_a_double_in_a_factor():
    # as for lorentz_norm: core^(1/q) overflows at q = 2^-7 though the norm
    # 2^1014 is a double, and q near 0 overflows the norm itself
    s = StepFunction(np.array([2.0**-10]), np.array([1.0]))
    for q in (2.0**-7, 1e-300, 5e-324):
        want = lorentz_norm(s, LorentzIndex(2.0, q))
        got = lorentz_norm_symmetrization(s, LorentzIndex(2.0, q), dim=2)
        assert got == want if math.isinf(want) else got == pytest.approx(want, rel=1e-10)
