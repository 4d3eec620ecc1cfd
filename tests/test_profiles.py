"""Profile extraction: recovery, termination, guards, audits, round-trips."""
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz import multiscale, profiles
from bvlorentz.bv import total_variation
from bvlorentz.grid import (
    GridFunction,
    InputError,
    MemoryGuardError,
    _halve,
    _overlap_box,
    box_mass,
    load_grid,
    resample_to,
    trim,
)
from bvlorentz.group import DyadicVector, GroupElement, inverse
from bvlorentz.multiscale import dyadic_sum
from bvlorentz.profiles import (
    WINDOW_CELL_GUARD,
    ExtractionArgumentError,
    NonConvergentSubsequenceError,
    energy_audit,
    extract_profiles,
    load_sequence,
    remainder_lorentz,
    save_decomposition,
    save_sequence,
    separation_check,
    staircase_sequence,
    tent_bump,
    two_profile_sequence,
)


@pytest.fixture(scope="module")
def two_profile_decomp():
    seq = two_profile_sequence(range(1, 9))
    return extract_profiles(seq, epsilon=0.1), seq


def test_tent_bump_shape():
    u = tent_bump(2, level=5, height=2.0)
    # cell centers straddle the peak, so the max undershoots slightly
    assert 0.9 * 2.0 <= u.values.max() <= 2.0
    assert u.l1_norm() == pytest.approx(2.0 * 0.25, rel=0.01)  # (1/2)^2 per axis
    assert total_variation(u) > 0


def test_two_profiles_recovered(two_profile_decomp):
    decomp, seq = two_profile_decomp
    assert decomp.terminated_by == "epsilon"
    assert len(decomp.profiles) == 2
    # the broad bump dominates, so it is found first
    assert decomp.profiles[0].tv > decomp.profiles[1].tv
    # both recovered pieces carry the variation of the planted tents
    tv0 = total_variation(tent_bump(2, 6, height=2.0))
    tv1 = total_variation(tent_bump(2, 6, height=1.0))
    assert decomp.profiles[0].tv == pytest.approx(tv0, rel=1e-12)
    assert decomp.profiles[1].tv == pytest.approx(tv1, rel=1e-12)


def test_placements_track_the_planted_elements(two_profile_decomp):
    decomp, _ = two_profile_decomp
    broad, fine = decomp.profiles
    for k, g in enumerate(broad.placements, start=1):
        assert g.j == 0 and g.y.numerators == (0, 0)
    for k, g in enumerate(fine.placements, start=1):
        assert g.j == k
        assert tuple(g.y.as_floats()) == (float(k), 0.0)


def test_remainders_vanish_exactly(two_profile_decomp):
    decomp, _ = two_profile_decomp
    # subtraction happens in the exact formal algebra, so nothing is left
    assert all(tv == 0.0 for tv in decomp.remainder_tv)
    assert all(r.clusters() == [] for r in decomp.remainders)


def test_separation_and_energy_audits(two_profile_decomp):
    decomp, _ = two_profile_decomp
    sep = separation_check(decomp, floor=1.0)
    assert sep.ok
    # tail-half separation grows with k: min over k = 5..8 is 5 + 5
    assert min(sep.pair_min.values()) == pytest.approx(10.0)
    en = energy_audit(decomp, delta=0.1)
    assert en.ok
    d = en.to_dict()
    assert d["ok"] is True and len(d["per_element"]) == 8

    rl = remainder_lorentz(decomp, p=2.0, q_list=(1.0, 2.0))
    assert all(row["q1"] == 0.0 and row["q2"] == 0.0 for row in rl)


def test_scores_positive_and_recorded(two_profile_decomp):
    decomp, _ = two_profile_decomp
    assert len(decomp.scores_history) >= 2
    assert all(s > 0 for s in decomp.scores_history[0])
    assert all(s > 0 for p in decomp.profiles for s in p.scores)
    doc = decomp.to_dict()
    assert doc["terminated_by"] == "epsilon"
    assert len(doc["profiles"]) == 2
    assert doc["schema_version"] == 1


def test_cauchy_guard_fires_when_mass_stays_in_window():
    # for small k the second bump never leaves the observation window, so the
    # aligned tail cannot settle and the guard must refuse a limit
    seq = two_profile_sequence(range(1, 5))
    with pytest.raises(NonConvergentSubsequenceError) as exc:
        extract_profiles(seq, epsilon=0.1)
    assert exc.value.rel_gap > 0.05
    assert exc.value.rel_gap == max(exc.value.gaps) and len(exc.value.gaps) == 2
    # stride 2 would leave two of the four elements, too few to advise
    assert exc.value.stride_hint is None
    assert "thinned subsequence" not in str(exc.value)


@pytest.mark.parametrize(
    "make, epsilon, stride, hint",
    [
        (lambda: staircase_sequence((4, 5, 6, 7, 8, 9)), 2.0, 1, 2),
        (lambda: staircase_sequence((4, 5, 6, 7, 8, 9)), 2.0, 2, None),
        (lambda: two_profile_sequence(range(1, 9)), 0.1, 2, None),
        (lambda: staircase_sequence((4, 5, 6)), 2.0, 1, None),
    ],
    ids=["staircase-4-9-stride1", "staircase-4-9-stride2", "planted-stride2", "staircase-456"],
)
def test_cauchy_advice_only_when_the_thinner_stride_leaves_three_elements(make, epsilon, stride, hint):
    with pytest.raises(NonConvergentSubsequenceError) as exc:
        extract_profiles(make(), epsilon=epsilon, stride=stride)
    err = exc.value
    assert err.stride_hint == hint
    message = str(err)
    assert "\n" not in message
    assert message.startswith(
        f"aligned tail is not Cauchy on the window: relative L1 gap {err.rel_gap:.4g} exceeds 0.05 "
    )
    # both measured gaps are reported, and the advice only when it is true
    assert f"consecutive tail gaps {err.gaps[0]:.4g} and {err.gaps[1]:.4g}" in message
    assert ("stride >=" in message) == (hint is not None)
    if hint is not None:
        assert message.endswith(f"retry on a thinned subsequence (stride >= {hint})")


def test_staircase_concentrates_nowhere():
    # the spread-out family: no alignment makes the tail Cauchy at any
    # meaningful threshold, which is the non-cocompactness phenomenon
    seq = staircase_sequence((4, 5, 6))
    with pytest.raises(NonConvergentSubsequenceError):
        extract_profiles(seq, epsilon=2.0)
    # with a threshold above the per-element variation the candidate is
    # discarded before any limit claim and extraction ends empty-handed
    decomp = extract_profiles(seq, epsilon=12.0)
    assert decomp.terminated_by == "epsilon"
    assert len(decomp.profiles) == 0
    assert decomp.remainder_tv == decomp.original_tv


def test_needs_three_elements():
    seq = two_profile_sequence(range(1, 3))
    with pytest.raises(ValueError):
        extract_profiles(seq, epsilon=0.1)


def test_sequence_roundtrip(tmp_path):
    seq = two_profile_sequence((2, 3, 4), level=4)
    d = tmp_path / "seq"
    save_sequence(str(d), seq)
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert len(manifest["elements"]) == 3
    back = load_sequence(str(d))
    assert len(back) == 3
    for orig, rec in zip(seq, back):
        assert rec.l1_norm() == pytest.approx(orig.l1_norm(), rel=1e-14)
        assert rec.total_variation() == pytest.approx(
            orig.total_variation(), rel=1e-14
        )
        for t1, t2 in zip(orig.terms, rec.terms):
            assert t1.coeff == t2.coeff and t1.g == t2.g
            np.testing.assert_array_equal(t1.u.values, t2.u.values)


@pytest.mark.parametrize("coeff", [math.inf, math.nan])
def test_sequence_with_a_coefficient_json_cannot_hold_is_refused_before_any_file(tmp_path, coeff):
    seq = two_profile_sequence((2, 3, 4), level=4)
    seq[1] = seq[1].with_term(coeff, seq[1].terms[0].g, seq[1].terms[0].u)
    d = tmp_path / "seq"
    with pytest.raises(InputError, match="manifest.json: output holds a value that overflows"):
        save_sequence(str(d), seq)
    assert not d.exists()


def test_decomposition_roundtrip(tmp_path, two_profile_decomp):
    decomp, _ = two_profile_decomp
    d = tmp_path / "decomp"
    save_decomposition(str(d), decomp)
    doc = json.loads((d / "decomposition.json").read_text())
    assert doc["terminated_by"] == "epsilon"
    assert len(doc["profiles"]) == 2
    for i, pdoc in enumerate(doc["profiles"]):
        back = load_grid(d / pdoc["grid"])
        np.testing.assert_array_equal(back.values, decomp.profiles[i].function.values)
        assert pdoc["tv"] == decomp.profiles[i].tv


def test_a_variation_past_a_double_is_refused_before_extraction():
    # at level -3 one cell of 1e307 has a variation of 4 * 8 * 1e307, past a double
    u = GridFunction(2, -3, (0, 0), (1, 1), np.array([[1e307]]))
    assert math.isinf(total_variation(u))
    with pytest.raises(InputError, match="^the total variation of a sequence element overflows"):
        extract_profiles([u, u, u], epsilon=0.1)


def test_decomposition_with_an_overflow_is_refused_before_any_file(tmp_path, two_profile_decomp):
    decomp, _ = two_profile_decomp
    decomp = dataclasses.replace(decomp, original_tv=(math.inf,) + decomp.original_tv[1:])
    d = tmp_path / "decomp"
    with pytest.raises(InputError, match="decomposition.json: output holds a value that overflows"):
        save_decomposition(str(d), decomp)
    assert not d.exists()


# -- cube search ---------------------------------------------------------------

def _box(c):
    """Float corners of a grid's box, from origin times spacing."""
    o = np.asarray(c.origin, dtype=float)
    return o * c.spacing, (o + np.asarray(c.extents, dtype=float)) * c.spacing


def _halving_pyramid(c, scale_window):
    """The pyramid of one cluster with a ``_halve`` call at every level."""
    a, origin, sums = np.abs(c.values), tuple(map(int, c.origin)), []
    for p in range(max(0, c.level + scale_window) + 1):
        a, origin = _halve(a, origin) if p else (a, origin)
        k = int(a.argmax())
        top = tuple(o + int(i) for o, i in zip(origin, np.unravel_index(k, a.shape)))
        sums.append((origin, a, a.item(k), top))
    return c.level, sums


pyramid_clusters = st.integers(1, 3).flatmap(
    lambda dim: st.builds(
        lambda level, origin, extents, seed, zeros: GridFunction(
            dim, level, tuple(origin), tuple(extents),
            np.random.default_rng(seed).normal(size=tuple(extents))
            * (np.random.default_rng(seed + 1).random(tuple(extents)) >= zeros),
        ),
        st.integers(-4, 6),
        st.lists(st.integers(-37, 37), min_size=dim, max_size=dim),
        st.lists(st.integers(1, 5), min_size=dim, max_size=dim),
        st.integers(0, 2**16),
        st.sampled_from([0.0, 0.5]),
    )
)


@given(pyramid_clusters, st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_mass_pyramids_equal_halving_at_every_level(c, scale_window):
    # past one cell, the kept array and maximum are those that halving gives,
    # bit for bit, with the same origins and cells
    [(level, sums)] = profiles._mass_pyramids([c], scale_window)
    ref_level, ref = _halving_pyramid(c, scale_window)
    assert level == ref_level and len(sums) == len(ref)
    for (origin, a, vmax, top), (r_origin, r_a, r_vmax, r_top) in zip(sums, ref):
        assert (origin, vmax, top) == (r_origin, r_vmax, r_top)
        assert a.shape == r_a.shape and a.tobytes() == r_a.tobytes()


def _reference_best_cube(clusters, s, dim):
    """Brute force: the per-cluster candidate cubes, each scored with one
    box_mass call per overlapping rescaled cluster, strict > in sorted order.

    Clusters are rescaled by relabeling (the action of GroupElement(s, 0)
    without the refinement that act applies below level 0), so 3-D clusters
    at very coarse scales stay within the cell guard.
    """
    acted = [
        GridFunction(dim, c.level + s, c.origin, c.extents, c.values * 2.0 ** ((dim - 1) * s))
        for c in clusters
    ]
    candidates = set()
    for c in acted:
        if c.level <= 0:
            idx = np.unravel_index(int(np.argmax(np.abs(c.values))), c.extents)
            side = 2 ** (-c.level)
            candidates.add(tuple(int((o + i) * side) for o, i in zip(c.origin, idx)))
        else:
            absu = GridFunction(dim, c.level, c.origin, c.extents, np.abs(c.values))
            lo = tuple(math.floor(x) for x in _box(c)[0])
            hi = tuple(math.ceil(x) for x in _box(c)[1])
            coarse = resample_to(absu, 0, lo, tuple(b - a for a, b in zip(lo, hi)))
            for row in np.argwhere(coarse.values > 0.0):
                candidates.add(tuple(int(a + r) for a, r in zip(lo, row)))
    best = None
    for cube in sorted(candidates):
        lo = np.array(cube, dtype=np.float64)
        hi = lo + 1.0
        total = 0.0
        for c in acted:
            if np.all(lo < _box(c)[1]) and np.all(hi > _box(c)[0]):
                total += box_mass(c, lo, hi)
        if best is None or total > best[0]:
            best = (total, cube)
    return best


def _assert_pyramid_matches_reference(sums):
    for r in sums:
        clusters = r.clusters()
        pyramids = profiles._mass_pyramids(clusters, 10)
        for s in range(-10, 11):
            got = profiles._best_cube_at_scale(pyramids, s, r.dim)
            assert got == _reference_best_cube(clusters, s, r.dim), s


@pytest.mark.parametrize("level", [5, 6])
def test_pyramid_scores_equal_box_mass_on_planted_fixture(level):
    seq = two_profile_sequence(range(1, 9), level=level)
    # first pass on the elements, second pass on what is left after the broad bump
    second = extract_profiles(seq, epsilon=0.1, max_profiles=1).remainders
    _assert_pyramid_matches_reference(list(seq) + list(second))


def test_pyramid_scores_equal_box_mass_on_near_fixture():
    _assert_pyramid_matches_reference(two_profile_sequence(range(1, 5)))


@pytest.mark.parametrize("dim", [1, 3])
def test_pyramid_scores_equal_box_mass_in_other_dims(dim):
    # eighths keep every block sum exact in any summation order
    rng = np.random.default_rng(dim)
    sums = []
    for j, shift in ((2, 3), (-1, -2), (4, 1)):
        vals = rng.integers(0, 9, (5,) * dim) / 8.0
        u = GridFunction(dim, 2, (-3,) * dim, (5,) * dim, vals)
        g = GroupElement(j, DyadicVector.integers(*([shift] + [0] * (dim - 1))))
        sums.append(dyadic_sum(u).with_term(0.5, g, u))
    _assert_pyramid_matches_reference(sums)


def _origin_and_block(sums, m):
    """The origin, as an array, and the block sums of the pyramid level a
    cluster at level m is read from."""
    origin, block = sums[max(m, 0)][:2]
    return np.asarray(origin), block


def _gather_cube_masses(pyramids, s, dim, cubes):
    """The former mass kernel: every cube is gathered by fancy indexing from
    every cluster's block, clusters added in order onto 0.0."""
    total = np.zeros(len(cubes))
    for level, sums in pyramids:
        m = level + s
        origin, block = _origin_and_block(sums, m)
        idx = (cubes >> max(-m, 0)) - origin
        inside = np.all((idx >= 0) & (idx < block.shape), axis=1)
        total[inside] += block[tuple(idx[inside].T)] * 2.0 ** ((dim - 1) * s - dim * max(m, 0))
    return total


def _candidate_cubes(pyramids, s):
    """The per-cluster candidates: every nonzero block of a fine cluster,
    the corner of the largest cell of a coarse one."""
    keys = []
    for level, sums in pyramids:
        m = level + s
        origin, block = _origin_and_block(sums, m)
        if m > 0:
            keys.append(np.argwhere(block > 0.0) + origin)
        else:
            idx = np.unravel_index(int(np.argmax(block)), block.shape)
            keys.append(((origin + idx) << -m)[None, :])
    return np.concatenate(keys)


def _gather_best_cube_at_scale(pyramids, s, dim):
    """The former scorer: gather every candidate from every cluster, take
    the maximum, and the lexicographically first cube among the tied."""
    cubes = _candidate_cubes(pyramids, s)
    total = _gather_cube_masses(pyramids, s, dim, cubes)
    best = total.max()
    tied = cubes[total == best]
    first = tied[np.lexsort(tied.T[::-1])[0]]
    return float(best), tuple(int(k) for k in first)


def _unique_best_cube_at_scale(pyramids, s, dim):
    """An earlier scorer: deduplicate the candidate keys with np.unique (so
    they come sorted), gather them, then take the first maximum."""
    cubes = np.unique(_candidate_cubes(pyramids, s), axis=0)
    total = _gather_cube_masses(pyramids, s, dim, cubes)
    best = int(np.argmax(total))
    return float(total[best]), tuple(int(k) for k in cubes[best])


def _tied_clusters():
    """Two equal bumps in separate clusters; the later cluster holds the
    lexicographically smaller of the tied cubes."""
    u = tent_bump(2, 4)
    return dyadic_sum(u).with_term(1.0, GroupElement(0, DyadicVector.integers(-8, 0)), u)


def _meeting_clusters():
    """Three clusters, apart by empty cells at level 3, whose cube boxes meet
    at the coarser scales: two level-3 pieces half a cube apart and a
    level-1 piece one cube further along the first axis."""
    rng = np.random.default_rng(5)
    u = GridFunction(2, 3, (0, 0), (2, 2), rng.integers(1, 9, (2, 2)) / 8.0)
    v = GridFunction(2, 1, (0, 0), (1, 2), np.array([[0.375, 0.25]]))
    half = GroupElement(0, DyadicVector((4, 0), 3))
    return dyadic_sum(u).with_term(0.5, half, u).with_term(1.0, GroupElement(0, DyadicVector.integers(2, 0)), v)


def _subnormal_ties():
    """Two cells a cube apart whose scores tie once scaled into the
    subnormal range, although the later cell holds the larger value."""
    vals = np.zeros((9, 1))
    vals[0, 0] = 2.0**-1020
    vals[8, 0] = 2.0**-1020 * (1.0 + 2.0**-50)
    return dyadic_sum(GridFunction(2, 3, (0, 0), vals.shape, vals))


def _normal_boundary_ties():
    """A lone fine cluster whose scaled maximum at scale 0 is 2^-1022 exactly,
    the smallest normal double; the earlier cell's vmax * (1 - 2^-53) scales
    to a subnormal halfway below it and rounds up to a tie."""
    vals = np.zeros((9, 1))
    vals[0, 0] = 2.0**-1016 * (1.0 - 2.0**-53)
    vals[8, 0] = 2.0**-1016
    return dyadic_sum(GridFunction(2, 3, (0, 0), vals.shape, vals))


def _overflowing_cluster():
    """A lone level -10 cluster whose scaled maximum 2^(1020+s) overflows a
    double from scale 4 on."""
    return dyadic_sum(GridFunction(2, -10, (0, 0), (1, 2), np.array([[2.0**1019, 2.0**1020]])))


_SCORER_FIXTURES = [
    (lambda: two_profile_sequence(range(1, 9), level=6), 0.1),
    (lambda: two_profile_sequence(range(1, 9), level=5), 0.1),
    (lambda: two_profile_sequence(range(1, 5)), None),
    (lambda: two_profile_sequence(range(1, 7), dim=3, level=2), 0.1),
    (lambda: staircase_sequence((4, 5, 6)), 12.0),
    (lambda: staircase_sequence((6, 7, 8)), 12.0),
    (lambda: [_tied_clusters()], None),
]
_SCORER_IDS = [
    "planted-L6", "planted-L5", "near-refused", "planted-3d",
    "staircase-456", "staircase-678", "tied-clusters",
]


def _scored_sums(make, epsilon):
    """The elements and, after one pass, what is left of them."""
    seq = make()
    sums = list(seq)
    if epsilon is not None:
        sums += list(extract_profiles(seq, epsilon=epsilon, max_profiles=1).remainders)
    return sums


@pytest.mark.parametrize("make, epsilon", _SCORER_FIXTURES, ids=_SCORER_IDS)
def test_scorer_equals_unique_reference(make, epsilon):
    for r in _scored_sums(make, epsilon):
        pyramids = profiles._mass_pyramids(r.clusters(), 10)
        for s in range(-10, 11):
            got = profiles._best_cube_at_scale(pyramids, s, r.dim)
            assert got == _unique_best_cube_at_scale(pyramids, s, r.dim), s


@pytest.mark.parametrize(
    "make, epsilon, over",
    [(make, epsilon, "warn") for make, epsilon in _SCORER_FIXTURES] + [
        (lambda: [_meeting_clusters()], None, "warn"),
        (lambda: [_subnormal_ties()], None, "warn"),
        (lambda: [_normal_boundary_ties()], None, "warn"),
        # its masses overflow to inf on purpose, which _best_alignment refuses
        (lambda: [_overflowing_cluster()], None, "ignore"),
    ],
    ids=_SCORER_IDS + ["meeting-boxes", "subnormal-ties", "normal-boundary-ties", "overflowing-cluster"],
)
def test_scorer_equals_former_gather_scorer(make, epsilon, over):
    for r in _scored_sums(make, epsilon):
        pyramids = profiles._mass_pyramids(r.clusters(), 10)
        for s in range(-10, 11):
            with np.errstate(over=over):
                got = profiles._best_cube_at_scale(pyramids, s, r.dim)
                assert got == _gather_best_cube_at_scale(pyramids, s, r.dim), s


def test_normal_boundary_ties_go_to_the_first_cube():
    pyramids = profiles._mass_pyramids(_normal_boundary_ties().clusters(), 10)
    masses = _gather_cube_masses(pyramids, 0, 2, np.array([(0, 0), (1, 0)]))
    # the larger later block scales to 2^-1022 exactly and the earlier one
    # rounds up to it, so a bound that admits 2^-1022 would pick (1, 0)
    assert masses.tolist() == [2.0**-1022] * 2
    assert profiles._best_cube_at_scale(pyramids, 0, 2) == (2.0**-1022, (0, 0))


def test_overflowing_lone_cluster_is_refused():
    with pytest.raises(InputError) as exc:
        profiles._best_alignment(_overflowing_cluster(), 10)
    assert str(exc.value) == "the cube masses at scale 4 overflow a double"


def test_gathered_cubes_past_int64_are_refused():
    # a coarse cell shifted 70 bits: scaled to 2^-1025 it is gathered, and
    # its cube (3 << 70, 0) would wrap in int64; scaled to 2^-10 it takes the
    # lone path in Python ints and scores exactly
    def pyramids(value):
        u = GridFunction(2, -60, (3, 0), (1, 1), np.array([[value]]))
        return profiles._mass_pyramids([u], 10)

    with pytest.raises(InputError) as exc:
        profiles._best_cube_at_scale(pyramids(2.0**-1015), -10, 2)
    assert str(exc.value) == "the cubes at scale -10 leave the int64 range of the gather"
    assert profiles._best_cube_at_scale(pyramids(1.0), -10, 2) == (2.0**-10, (3 << 70, 0))


def _cube_boxes_meet(pyramids, s):
    """Whether the cube boxes of two clusters share a cube at scale s."""
    boxes = []
    for level, sums in pyramids:
        m = level + s
        origin, block = _origin_and_block(sums, m)
        shift = max(-m, 0)
        boxes.append((origin << shift, (origin + block.shape) << shift))
    return any(
        np.all(np.maximum(a[0], b[0]) < np.minimum(a[1], b[1]))
        for i, a in enumerate(boxes) for b in boxes[i + 1:]
    )


def test_meeting_boxes_fixture_is_gathered_at_some_scales_only():
    r = _meeting_clusters()
    assert len(r.clusters()) == 3
    pyramids = profiles._mass_pyramids(r.clusters(), 10)
    meets = [_cube_boxes_meet(pyramids, s) for s in range(-10, 11)]
    assert any(meets) and not all(meets)


def test_subnormal_scores_tie_at_the_first_cube():
    r = _subnormal_ties()
    pyramids = profiles._mass_pyramids(r.clusters(), 10)
    cubes = np.array([(0, 0), (1, 0)])
    masses = _gather_cube_masses(pyramids, 0, 2, cubes)
    # the scaled scores collapse onto one subnormal, so the tie goes to the
    # lexicographically first cube, not to the larger block
    assert masses[0] == masses[1] and 0.0 < masses[0] < 2.0**-1022
    assert profiles._best_cube_at_scale(pyramids, 0, 2) == (float(masses[0]), (0, 0))


def test_staircase_ties_go_to_the_smallest_mirror_cube():
    # the staircase is symmetric through the origin; pairwise block sums keep
    # that symmetry bit for bit, so the four mirror cubes tie and the
    # lexicographically smallest one wins, for every element alike
    mirrors = np.array([(-1, -1), (-1, 0), (0, -1), (0, 0)])
    for r in staircase_sequence((4, 5, 6)):
        score, h = profiles._best_alignment(r, 10)
        assert h == GroupElement(-1, DyadicVector.integers(1, 1))
        pyramids = profiles._mass_pyramids(r.clusters(), 10)
        assert profiles._best_cube_at_scale(pyramids, -1, 2) == (score, (-1, -1))
        masses = _gather_cube_masses(pyramids, -1, 2, mirrors)
        assert masses.tolist() == [score] * 4


# -- pinned outputs ----------------------------------------------------------------

def _pinned_planted(element0_tv: str, tv: str, profile_tv: list, level: int, digests: list) -> dict:
    """A planted decomposition: two passes harvest the broad and the shrunk
    bump, a third finds nothing; each float is spelled by its ``float.hex()``."""
    return {
        "scores_history": [["0x1.0000000000000p-1"] * 8, ["0x1.0000000000000p-2"] * 8, ["0x0.0p+0"] * 8],
        "original_tv": [element0_tv] + [tv] * 7,
        "remainder_tv": ["0x0.0p+0"] * 8,
        "profile_tv": profile_tv,
        "levels": [level, level, 0],
        "terminated_by": "epsilon",
        "profile_sha256": digests,
    }


_PINNED_DECOMPOSITIONS = {
    "planted-L6": (
        lambda: two_profile_sequence(range(1, 9), level=6), 0.1,
        _pinned_planted("0x1.7955400000000p+2", "0x1.7a00000000000p+2",
                        ["0x1.f800000000000p+1", "0x1.f800000000000p+0"], 6,
                        ["aeeeb3b5e00f3a3a594abd6eca70e7a6b71a2a2a284f91cd636f74ae31bb20d9",
                         "55e4699f7f6e97607b6f2824ac8884e17ac47dfc6320edfd0488721ba4164d6c"]),
    ),
    "planted-L5": (
        lambda: two_profile_sequence(range(1, 9), level=5), 0.1,
        _pinned_planted("0x1.72aa000000000p+2", "0x1.7400000000000p+2",
                        ["0x1.f000000000000p+1", "0x1.f000000000000p+0"], 5,
                        ["d85ea2595b96a21628b04f98b9cf552a3c00950d41e7b6704ec4e62ce1f891c0",
                         "f5194b3a7d9c9e8dcd4fbade8ad75fa81d2c2bdbef77a2dc2d145e9f03806549"]),
    ),
    "staircase-456-eps12": (
        lambda: staircase_sequence((4, 5, 6)), 12.0,
        {
            "scores_history": [["0x1.2780000000000p-1", "0x1.f433333333334p-2", "0x1.ac0aaaaaaaaaap-2"]],
            "original_tv": ["0x1.8000000000000p+3", "0x1.6666666666667p+3", "0x1.5555555555554p+3"],
            "remainder_tv": ["0x1.8000000000000p+3", "0x1.6666666666667p+3", "0x1.5555555555554p+3"],
            "profile_tv": [],
            "levels": [6],
            "terminated_by": "epsilon",
            "profile_sha256": [],
        },
    ),
}


@pytest.mark.parametrize("make, epsilon, pinned", _PINNED_DECOMPOSITIONS.values(), ids=_PINNED_DECOMPOSITIONS)
def test_decompose_outputs_are_pinned(make, epsilon, pinned):
    decomp = extract_profiles(make(), epsilon=epsilon)
    assert {
        "scores_history": [[x.hex() for x in scores] for scores in decomp.scores_history],
        "original_tv": [x.hex() for x in decomp.original_tv],
        "remainder_tv": [x.hex() for x in decomp.remainder_tv],
        "profile_tv": [p.tv.hex() for p in decomp.profiles],
        "levels": list(decomp.levels),
        "terminated_by": decomp.terminated_by,
        "profile_sha256": [hashlib.sha256(p.function.values.tobytes()).hexdigest() for p in decomp.profiles],
    } == pinned


def test_decompose_refusal_gaps_are_pinned():
    with pytest.raises(NonConvergentSubsequenceError) as exc:
        extract_profiles(two_profile_sequence(range(1, 5)), epsilon=0.1)
    assert [g.hex() for g in exc.value.gaps] == ["0x1.5555555555555p-3", "0x1.c71c71c71c71cp-5"]


# -- support-box window ----------------------------------------------------------

def _full_window_extraction(seq, epsilon, radius=4, tol=0.05, max_profiles=8):
    """The former extraction loop, which materializes the aligned tail on the
    whole window each pass: (profiles, levels, scores_history,
    terminated_by, relative gap of a refusal or None)."""
    dim = seq[0].dim
    window = ((-radius,) * dim, (2 * radius,) * dim)
    cap = int(math.floor((math.log2(WINDOW_CELL_GUARD) - dim * math.log2(2 * radius)) / dim))
    remainders = list(seq)
    found_profiles, levels, history = [], [], []
    for _ in range(max_profiles):
        found = [profiles._best_alignment(r, 10) for r in remainders]
        history.append(tuple(score for score, _ in found))
        aligns = [h for _, h in found]
        tail = [r.apply(h) for r, h in zip(remainders[-3:], aligns[-3:])]
        touching = [c.level for t in tail for c in t.clusters() if _overlap_box(c, 0, *window) is not None]
        lv = max(0, min(max(touching, default=0), cap))
        levels.append(lv)
        side = 2 * radius * 2**lv
        mats = [t.materialize(lv, (-side // 2,) * dim, (side,) * dim) for t in tail]
        w = trim(mats[-1])
        if total_variation(w) <= epsilon:
            return found_profiles, levels, history, "epsilon", None
        denom = max(m.l1_norm() for m in mats)
        gaps = [float(np.abs(a.values - b.values).sum()) * mats[0].cell_measure for a, b in zip(mats, mats[1:])]
        if denom > 0.0 and max(gaps) / denom > tol:
            return found_profiles, levels, history, None, max(gaps) / denom
        found_profiles.append(w)
        remainders = [r.with_term(-1.0, inverse(h), w) for r, h in zip(remainders, aligns)]
    return found_profiles, levels, history, "max_profiles", None


@pytest.mark.parametrize(
    "make, epsilon",
    [
        (lambda: two_profile_sequence(range(1, 9), level=5), 0.1),
        (lambda: two_profile_sequence(range(1, 9), level=6), 0.1),
        (lambda: two_profile_sequence(range(1, 5)), 0.1),
        (lambda: two_profile_sequence(range(1, 7), dim=3, level=2), 0.1),
        (lambda: staircase_sequence((4, 5, 6)), 12.0),
        (lambda: staircase_sequence((4, 5, 6)), 2.0),
        (lambda: staircase_sequence((6, 7, 8)), 12.0),
    ],
    ids=["planted-L5", "planted-L6", "near", "planted-3d", "staircase-456-eps12",
         "staircase-456-eps2", "staircase-678-eps12"],
)
def test_support_box_extraction_equals_the_full_window(make, epsilon):
    seq = make()
    ref_profiles, levels, history, terminated_by, rel_gap = _full_window_extraction(seq, epsilon)
    if rel_gap is not None:
        with pytest.raises(NonConvergentSubsequenceError) as exc:
            extract_profiles(seq, epsilon=epsilon)
        # only the summation grouping of the gaps differs from the window's
        assert exc.value.rel_gap == pytest.approx(rel_gap, rel=1e-12, abs=0.0)
        return
    decomp = extract_profiles(seq, epsilon=epsilon)
    assert decomp.terminated_by == terminated_by
    assert decomp.levels == tuple(levels)
    assert decomp.scores_history == tuple(history)
    assert len(decomp.profiles) == len(ref_profiles)
    for got, ref in zip(decomp.profiles, ref_profiles):
        assert (got.function.level, got.function.origin, got.function.extents) == (ref.level, ref.origin, ref.extents)
        assert got.function.values.tobytes() == ref.values.tobytes()


# -- reuse across passes --------------------------------------------------------

def test_each_remainder_realizes_only_its_new_term(monkeypatch):
    realize, window, windows, realized = multiscale._realize, profiles._window, [], []
    # each pass scores its remainders before it sizes the window of its tail
    monkeypatch.setattr(multiscale, "_realize", lambda t: realized.append((len(windows), t)) or realize(t))
    monkeypatch.setattr(profiles, "_window", lambda *args: windows.append(1) or window(*args))
    decomp = extract_profiles(two_profile_sequence(range(1, 9)), epsilon=0.1)
    # the aligned tail's terms are made by r.apply(h) in each pass; the
    # remainders' terms are shared from pass to pass
    kept = {id(t) for r in decomp.remainders for t in r.terms}
    per_pass = [sum(k == n and id(t) in kept for k, t in realized) for n in range(len(decomp.levels))]
    assert per_pass == [16, 8, 8]
    assert sum(per_pass) == len(kept)


def test_warm_caches_change_no_output():
    seq = two_profile_sequence(range(1, 9))
    cold, warm = extract_profiles(seq, epsilon=0.1), extract_profiles(seq, epsilon=0.1)
    assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())
    assert [p.function.values.tobytes() for p in warm.profiles] == [p.function.values.tobytes() for p in cold.profiles]


@pytest.mark.parametrize("ks", [range(1, 9), range(1, 5)], ids=["planted-L6", "near"])
def test_extraction_allocates_by_the_clusters_not_the_window(ks):
    # the level-6 window holds 2^18 cells (2 MiB a copy); the clusters about 4096
    seq = two_profile_sequence(ks)
    tracemalloc.start()
    try:
        try:
            extract_profiles(seq, epsilon=0.1)
        except NonConvergentSubsequenceError:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- window guard ----------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs, cells",
    [({"window_radius": 1024}, 2048**2), ({"profile_level": 9}, (8 * 2**9) ** 2)],
)
def test_window_guard_holds_on_every_path(kwargs, cells):
    seq = two_profile_sequence(range(1, 9), level=3)
    with pytest.raises(MemoryGuardError) as exc:
        extract_profiles(seq, epsilon=0.1, **kwargs)
    assert f"needs {cells} cells" in str(exc.value)
    assert f"guard is {WINDOW_CELL_GUARD}" in str(exc.value)


@pytest.mark.parametrize("kwargs, message", [
    ({"epsilon": math.nan}, "epsilon must be finite and nonnegative, got nan"),
    ({"epsilon": math.inf}, "epsilon must be finite and nonnegative, got inf"),
    ({"epsilon": -1.0}, "epsilon must be finite and nonnegative, got -1.0"),
    ({"max_profiles": -1}, "max_profiles must be nonnegative, got -1"),
    ({"window_radius": 2**19 + 1}, "window_radius must be at most 524288, got 524289"),
    ({"window_radius": 10**4000}, f"window_radius must be at most 524288, got {10**4000}"),
    ({"profile_level": -1}, "profile_level must be from 0 to 19, got -1"),
    ({"profile_level": 20}, "profile_level must be from 0 to 19, got 20"),
    ({"profile_level": 10**20}, f"profile_level must be from 0 to 19, got {10**20}"),
    ({"scale_window": 41}, "scale_window must be at most 40, got 41"),
])
def test_extraction_arguments_are_refused_before_any_pass(monkeypatch, kwargs, message):
    def no_pass(*args):
        raise AssertionError("extraction started before its arguments were checked")

    monkeypatch.setattr(profiles, "dyadic_sum", no_pass)
    with pytest.raises(ExtractionArgumentError) as exc:
        extract_profiles([None], **{"epsilon": 0.1, **kwargs})
    assert str(exc.value) == message


@pytest.mark.parametrize("kwargs", [{"window_radius": 2**19}, {"profile_level": 19}])
def test_window_bounds_leave_the_guard_to_refuse_the_rest(kwargs):
    with pytest.raises(MemoryGuardError):
        extract_profiles(two_profile_sequence(range(1, 9), level=3), epsilon=0.1, **kwargs)


def test_extraction_bounds_are_inclusive():
    seq = two_profile_sequence(range(1, 9), level=3)
    ref = extract_profiles(seq, epsilon=0.1).to_dict()
    assert extract_profiles(seq, epsilon=0.1, scale_window=40).to_dict() == ref
    assert extract_profiles(seq, epsilon=0.0, max_profiles=0).profiles == ()


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_audit_thresholds_are_refused(two_profile_decomp, value):
    decomp, _ = two_profile_decomp
    with pytest.raises(ExtractionArgumentError, match=f"^delta must be finite and nonnegative, got {value}$"):
        energy_audit(decomp, delta=value)
    with pytest.raises(ExtractionArgumentError, match=f"^separation floor must be finite and nonnegative, got {value}$"):
        separation_check(decomp, floor=value)
