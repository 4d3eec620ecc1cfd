"""Profile extraction: recovery, termination, guards, audits, round-trips."""
import dataclasses
import json
import math

import numpy as np
import pytest

from bvlorentz import profiles
from bvlorentz.bv import total_variation
from bvlorentz.grid import (
    GridFunction,
    InputError,
    MemoryGuardError,
    box_mass,
    load_grid,
    resample_to,
)
from bvlorentz.group import DyadicVector, GroupElement
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
    assert exc.value.stride_hint == 2
    assert "thinned subsequence" in str(exc.value)


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


def _unique_best_cube_at_scale(pyramids, s, dim):
    """The former scorer: deduplicate the candidate keys with np.unique (so
    they come sorted), then take the first maximum."""
    keys = []
    for level, sums in pyramids:
        m = level + s
        origin, block = sums[max(m, 0)]
        if m > 0:
            keys.append(np.argwhere(block > 0.0) + origin)
        else:
            idx = np.unravel_index(int(np.argmax(block)), block.shape)
            keys.append(((origin + idx) << -m)[None, :])
    cubes = np.unique(np.concatenate(keys), axis=0)
    total = profiles._cube_masses(pyramids, s, dim, cubes)
    best = int(np.argmax(total))
    return float(total[best]), tuple(int(k) for k in cubes[best])


def _tied_clusters():
    """Two equal bumps in separate clusters; the later cluster holds the
    lexicographically smaller of the tied cubes."""
    u = tent_bump(2, 4)
    return dyadic_sum(u).with_term(1.0, GroupElement(0, DyadicVector.integers(-8, 0)), u)


@pytest.mark.parametrize(
    "make, epsilon",
    [
        (lambda: two_profile_sequence(range(1, 9), level=6), 0.1),
        (lambda: two_profile_sequence(range(1, 9), level=5), 0.1),
        (lambda: two_profile_sequence(range(1, 5)), None),
        (lambda: two_profile_sequence(range(1, 7), dim=3, level=2), 0.1),
        (lambda: staircase_sequence((4, 5, 6)), 12.0),
        (lambda: staircase_sequence((6, 7, 8)), 12.0),
        (lambda: [_tied_clusters()], None),
    ],
    ids=[
        "planted-L6", "planted-L5", "near-refused", "planted-3d",
        "staircase-456", "staircase-678", "tied-clusters",
    ],
)
def test_scorer_equals_unique_reference(make, epsilon):
    seq = make()
    sums = list(seq)
    if epsilon is not None:
        sums += list(extract_profiles(seq, epsilon=epsilon, max_profiles=1).remainders)
    for r in sums:
        pyramids = profiles._mass_pyramids(r.clusters(), 10)
        for s in range(-10, 11):
            got = profiles._best_cube_at_scale(pyramids, s, r.dim)
            assert got == _unique_best_cube_at_scale(pyramids, s, r.dim), s


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
        masses = profiles._cube_masses(pyramids, -1, 2, mirrors)
        assert masses.tolist() == [score] * 4


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
