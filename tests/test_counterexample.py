"""The staircase family: bounded variation, vanishing norms, mass escape."""
import functools
import time

import numpy as np
import pytest

from bvlorentz import counterexample as cx
from bvlorentz.grid import DimensionMismatchError, InputError, MemoryGuardError, UnsupportedDimensionError
from bvlorentz.group import DyadicVector, GroupElement, ScaleBoundError
from bvlorentz.radial import RadialStep, staircase
from bvlorentz.counterexample import (
    PROBE_FIT_TOL,
    aligned_probe_elements,
    decay_fit,
    dvanishing_probe,
    expected_l2_norm,
    expected_pairing,
    expected_piecewise_tv,
    expected_radial_tv,
    gnuplot_script,
    probe_ok,
    run_counterexample,
)


@pytest.fixture(scope="module")
def report():
    return run_counterexample(dim=2, n_max=12, q_list=(1.0, 1.2, 1.5, 2.0))


def test_rows_match_closed_forms(report):
    for r in report.rows:
        assert r.tv_radial == pytest.approx(expected_radial_tv(r.n), rel=1e-12)
        assert r.tv_piecewise == pytest.approx(expected_piecewise_tv(r.n), rel=1e-12)
        assert r.l2_norm == pytest.approx(expected_l2_norm(r.n), rel=1e-12)
        assert r.pairing == pytest.approx(expected_pairing(r.n), rel=1e-12)


def test_all_invariants_hold(report):
    assert report.ok, report.invariants
    assert report.invariants["pairing_constant"]["max_rel_dev"] <= 1e-12
    assert report.invariants["lorentz_floor_q1"]["min_over_first"] >= 0.5
    assert report.invariants["critical_lebesgue_decreasing"]["ok"]
    assert report.invariants["tv_bounded"]["ok"]


def test_norms_vanish_only_above_q_one(report):
    # q = 1 stays bounded below; q > 1 decays strictly and substantially
    q1 = [r.lorentz[1.0] for r in report.rows]
    assert min(q1) >= 0.5 * q1[0]
    for q in (1.2, 1.5, 2.0):
        series = [r.lorentz[q] for r in report.rows]
        assert series[-1] < series[0] * 0.75
        assert all(b < a for a, b in zip(series, series[1:]))


def test_decay_rate_matches_exponent(report):
    # predicted slope is 1/q - 1 at the critical first index
    ns = [r.n for r in report.rows]
    for q in (1.5, 2.0):
        series = [r.lorentz[q] for r in report.rows]
        slope = decay_fit(ns, series)
        assert slope == pytest.approx(1.0 / q - 1.0, abs=0.1)


def test_report_dict_and_csv(report):
    doc = report.to_dict()
    assert doc["schema_version"] == 1
    assert "elapsed_seconds" not in doc
    assert len(doc["rows"]) == 12
    assert doc["ok"] is True

    lines = report.csv_lines()
    assert len(lines) == 13
    header = lines[0].split(",")
    assert header[:6] == [
        "n",
        "tv_radial",
        "tv_piecewise",
        "l2_norm",
        "pairing",
        "lebesgue_critical",
    ]
    assert header[6:] == ["lorentz_q1", "lorentz_q1.2", "lorentz_q1.5", "lorentz_q2"]
    # repr round-trip: parsing a csv cell recovers the float exactly
    first = lines[1].split(",")
    assert float(first[1]) == report.rows[0].tv_radial


def test_report_is_deterministic(report):
    again = run_counterexample(dim=2, n_max=12, q_list=(1.0, 1.2, 1.5, 2.0))
    assert again.to_dict() == report.to_dict()
    assert again.csv_lines() == report.csv_lines()


def test_probe_elements_zoom_out():
    els = aligned_probe_elements(2, 5)
    assert [g.j for g in els] == [-1, -2, -3, -4, -5]
    for g in els:
        assert g.y.as_floats().tolist() == [-1.0, 0.0]


def test_probe_captures_vanishing_mass():
    probe = dvanishing_probe(dim=2, n_list=tuple(range(1, 13)), quad_level=8)
    assert probe_ok(probe)
    assert abs(probe.fit_exponent - (-1.0)) <= PROBE_FIT_TOL
    # masses themselves shrink roughly like 1/n
    assert probe.masses[-1] < probe.masses[0] / 6.0
    d = probe.to_dict()
    assert "per_element" not in d
    assert d["quad_level"] == 8


def test_probe_mass_near_one_over_n():
    probe = dvanishing_probe(dim=2, n_list=(4, 8), quad_level=9)
    for n, m in zip(probe.ns, probe.masses):
        assert m == pytest.approx(0.9566 / n, rel=0.05)


# -- exactness of the per-element probe ------------------------------------------

def _captured_mass(u: RadialStep, g: GroupElement, quad_level: int) -> float:
    """Reference: one midpoint quadrature of |g u| over (0,1)^dim per (n, g)."""
    dim = u.dim
    m = 2**quad_level
    h = 1.0 / m
    axis = (np.arange(m) + 0.5) * h
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    y = np.array(g.y.as_floats())
    scale = 2.0**g.j
    radius_sq = np.zeros_like(grids[0])
    for k in range(dim):
        radius_sq += (scale * (grids[k] - y[k])) ** 2
    vals = u.evaluate(np.sqrt(radius_sq))
    factor = 2.0 ** ((dim - 1) * g.j)
    return float(factor * np.abs(vals).mean())


def _reference_probe(dim, n_list, elements, quad_level):
    """The per-(n, g) loop the probe replaced: best masses and fit."""
    best = []
    for n in n_list:
        u = staircase(dim, n)
        best.append(max(_captured_mass(u, g, quad_level) for g in elements))
    return tuple(best), decay_fit(n_list, best)


def _assert_probe_exact(dim, n_list, elements, quad_level):
    probe = dvanishing_probe(dim, n_list, elements, quad_level)
    masses, fit = _reference_probe(
        dim, n_list, elements or aligned_probe_elements(dim, max(n_list)), quad_level
    )
    assert probe.masses == masses
    assert probe.fit_exponent == fit


@pytest.mark.parametrize(
    "dim, quad_level", [(2, q) for q in range(9)] + [(3, q) for q in range(6)]
)
def test_probe_equals_per_pair_quadrature(dim, quad_level):
    _assert_probe_exact(dim, tuple(range(1, 13)), None, quad_level)


def test_probe_equals_per_pair_quadrature_custom_elements():
    els = aligned_probe_elements(2, 8)[::-1]
    # y on a node (1/256, 65/256) of the level-7 quadrature: radii 0, 2^-2 and
    # 2^-1 are hit exactly, so the closed side of every shell is exercised
    on_node = DyadicVector((1, 65), 8)
    els = els[3:] + els[:3] + [GroupElement(0, on_node), GroupElement(1, on_node)]
    _assert_probe_exact(2, (4, 8), els, 7)
    els3 = aligned_probe_elements(3, 8)[::-1]
    _assert_probe_exact(3, (4, 8), els3[1::2] + els3[::2], 5)


def test_probe_equals_per_pair_quadrature_duplicated_element():
    els = aligned_probe_elements(2, 12)
    _assert_probe_exact(2, tuple(range(1, 13)), els[:5] + [els[2]] + els[5:] + [els[0]], 6)


def test_probe_equals_per_pair_quadrature_interleaved_translations():
    # two translations that are not (-1, 0), interleaved with the shared aligned ones
    near = DyadicVector((1, 3), 2)
    far = DyadicVector((-5, 7), 3)
    els = []
    for g in aligned_probe_elements(2, 12):
        els += [g, GroupElement(g.j + 6, near), GroupElement(-g.j // 2, far)]
    _assert_probe_exact(2, tuple(range(1, 13)), els, 6)
    els3 = [GroupElement(g.j, y) for g in aligned_probe_elements(3, 8)
            for y in (DyadicVector.integers(-1, 0, 0), DyadicVector((1, 1, 3), 2))]
    _assert_probe_exact(3, tuple(range(1, 9)), els3, 4)


def test_probe_equals_per_pair_quadrature_sparse_n_list():
    _assert_probe_exact(2, (3, 7, 12), None, 7)
    _assert_probe_exact(3, (12, 3, 7), None, 5)


@pytest.mark.parametrize("dim", [2, 3])
def test_probe_equals_per_pair_quadrature_up_to_the_scale_bound(dim):
    _assert_probe_exact(dim, tuple(range(1, 21)), None, 4)


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_probe_equals_per_pair_quadrature_far_translations():
    # |x - y|^2 overflows for one element and 4^j |x - y|^2 for the other;
    # either way every node lies beyond the outermost shell
    els = [GroupElement(-20, DyadicVector.integers(2**520, 0)),
           GroupElement(20, DyadicVector.integers(0, -(2**500))),
           GroupElement(-2, DyadicVector.integers(-1, 0))]
    _assert_probe_exact(2, (2, 5), els, 5)


# the masses and fit at quad levels 9 (2-D) and 6 (3-D), n = 1..12, as
# emitted in probe.json before the probe shared fields and gathers
_PINNED_PROBE = {
    (2, 9): (
        ["0x1.d396800000000p-1", "0x1.e9cb400000000p-2", "0x1.46877ffffffffp-2",
         "0x1.e9cb400000000p-3", "0x1.87d5ccccccccep-3", "0x1.46877ffffffffp-3",
         "0x1.17e1db6db6db6p-3", "0x1.e9cb400000000p-4", "0x1.b35f555555558p-4",
         "0x1.87d5ccccccccep-4", "0x1.6436ba2e8ba2ep-4", "0x1.46877ffffffffp-4"],
        "-0x1.f9b424876f687p-1",
    ),
    (3, 6): (
        ["0x1.a4d4000000000p-1", "0x1.bb9f000000000p-2", "0x1.27bf555555554p-2",
         "0x1.bb9f000000000p-3", "0x1.62e599999999ap-3", "0x1.27bf555555554p-3",
         "0x1.fafedb6db6db4p-4", "0x1.bb9f000000000p-4", "0x1.8a5471c71c71ep-4",
         "0x1.62e599999999ap-4", "0x1.42a22e8ba2e8cp-4", "0x1.27bf555555554p-4"],
        "-0x1.f8d794fc98ec3p-1",
    ),
}


@pytest.mark.parametrize("dim, quad_level", sorted(_PINNED_PROBE))
def test_probe_outputs_are_pinned(dim, quad_level):
    probe = dvanishing_probe(dim, tuple(range(1, 13)), quad_level=quad_level)
    masses, fit = _PINNED_PROBE[dim, quad_level]
    assert [m.hex() for m in probe.masses] == masses
    assert probe.fit_exponent.hex() == fit


class _CountingNumpy:
    """numpy, with a count of the ``np.take`` gathers made through it."""

    def __init__(self):
        self.takes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, *args, **kwargs):
        self.takes += 1
        return np.take(*args, **kwargs)


@pytest.mark.parametrize("dim, quad_level", [(2, 6), (3, 4)])
def test_probe_builds_one_field_per_translation(monkeypatch, dim, quad_level):
    fields = []
    build = cx._radius_field

    def counted(y, *args):
        fields.append(tuple(y))
        return build(y, *args)

    counting = _CountingNumpy()
    monkeypatch.setattr(cx, "_radius_field", counted)
    monkeypatch.setattr(cx, "np", counting)
    dvanishing_probe(dim, tuple(range(1, 13)), quad_level=quad_level)
    assert len(fields) == 1  # the 12 aligned elements share y = (-1, 0, ...)
    assert 0 < counting.takes <= 24  # of 144 (n, g) pairs

    fields.clear()
    other = DyadicVector((1,) * dim, 2)
    els = aligned_probe_elements(dim, 12)
    dvanishing_probe(dim, (4, 8), els + [GroupElement(0, other), GroupElement(-1, other)], quad_level)
    assert sorted(fields) == [(-1.0,) + (0.0,) * (dim - 1), (0.25,) * dim]


@pytest.mark.parametrize("dim, n_list, elements, message", [
    (2, (1, 21), None, "n = 21 exceeds scale bound 20"),
    (3, (600,), None, "n = 600 exceeds scale bound 20"),
    (2, (1, 2), [GroupElement(21, DyadicVector.zero(2))], "|j| = 21 exceeds scale bound 20"),
    (2, (1, 2), [GroupElement(-1, DyadicVector.zero(2)), GroupElement(-25, DyadicVector.zero(2))],
     "|j| = 25 exceeds scale bound 20"),
])
def test_probe_scale_bound_refuses_before_allocating(monkeypatch, dim, n_list, elements, message):
    def no_quadrature(*args):
        raise AssertionError("quadrature nodes allocated past the scale bound")

    monkeypatch.setattr(cx, "_radius_field", no_quadrature)
    with pytest.raises(ScaleBoundError) as exc:
        dvanishing_probe(dim, n_list, elements, quad_level=5)
    assert str(exc.value) == message


def test_probe_refuses_a_squared_distance_below_the_normal_range(monkeypatch):
    # Within the cell guard a nonzero axis distance of float nodes and
    # translations is at least 2^-67, so the check is exercised with a
    # raised threshold: y = 1/16 + 2^-9 is 2^-9 from the level-3 node 1/16.
    def no_quadrature(*args):
        raise AssertionError("quadrature nodes allocated for a refused translation")

    monkeypatch.setattr(cx, "_TINY", 2.0**-20)
    y = DyadicVector((2**5 + 1, 0), 9)
    dvanishing_probe(2, (1, 2), [GroupElement(0, y), GroupElement(5, y)], quad_level=3)
    monkeypatch.setattr(cx, "_radius_field", no_quadrature)
    with pytest.raises(ValueError, match=r"lies too close to a quadrature node"):
        # 2^-18 times 4^-2 falls below the threshold
        dvanishing_probe(2, (1, 2), [GroupElement(5, y), GroupElement(-2, y)], quad_level=3)


@pytest.mark.parametrize("dim, n_list", [(2, tuple(range(1, 13))), (3, tuple(range(1, 13))), (2, (4, 8))])
def test_shell_lookup_equals_evaluate(dim, n_list):
    family = [staircase(dim, n) for n in n_list]
    breaks = functools.reduce(np.union1d, (u.radii for u in family))
    r = np.concatenate((
        [0.0],
        breaks,
        np.nextafter(breaks, -np.inf)[1:],
        np.nextafter(breaks, np.inf),
        [2.0, 1e300, np.inf],
    ))
    idx = np.searchsorted(breaks, r, side="left")
    for u in family:
        assert np.array_equal(cx._shell_lookup(u, breaks)[idx], np.abs(u.evaluate(r)))


def test_probe_guard_refuses_before_allocating(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature nodes allocated past the guard")

    monkeypatch.setattr(cx, "_radius_field", no_quadrature)
    with pytest.raises(MemoryGuardError) as exc:
        dvanishing_probe(dim=2, n_list=(1, 2), quad_level=14)
    assert str(exc.value) == "probe quadrature at level 14 needs 2^28 nodes in dim 2, guard is 2^27"
    with pytest.raises(MemoryGuardError):
        dvanishing_probe(dim=3, n_list=(1, 2), quad_level=10)


def test_probe_refuses_negative_quad_level():
    with pytest.raises(ValueError, match="quad_level must be at least 0, got -1"):
        dvanishing_probe(dim=2, n_list=(1, 2), quad_level=-1)


def test_probe_guard_boundary(monkeypatch):
    monkeypatch.setattr(cx, "DEFAULT_CELL_GUARD", 2**12)
    dvanishing_probe(dim=2, n_list=(1, 2), quad_level=6)  # 4096 nodes: at the guard
    dvanishing_probe(dim=3, n_list=(1, 2), quad_level=4)
    with pytest.raises(MemoryGuardError):
        dvanishing_probe(dim=2, n_list=(1, 2), quad_level=7)
    with pytest.raises(MemoryGuardError):
        dvanishing_probe(dim=3, n_list=(1, 2), quad_level=5)


def test_gnuplot_script_shape():
    script = gnuplot_script("counterexample.csv", (1.0, 1.5))
    assert "set logscale xy" in script
    assert "using 1:7" in script and "using 1:8" in script
    assert "set output 'counterexample.png'" in script
    assert script.endswith("\n")


def test_runs_fast():
    # the whole family, all norms: well under the one-second budget
    start = time.perf_counter()
    run_counterexample(dim=2, n_max=12, q_list=(1.0, 1.2, 1.5, 2.0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n_max", [0, -3])
def test_run_counterexample_needs_a_staircase(n_max):
    with pytest.raises(ValueError, match=f"n_max must be at least 1, got {n_max}"):
        run_counterexample(2, n_max)


def test_run_counterexample_single_staircase():
    rep = run_counterexample(2, 1)
    assert [r.n for r in rep.rows] == [1]


def _build_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("a staircase or quadrature node was built before a refusal")

    monkeypatch.setattr(cx, "staircase", fail)
    monkeypatch.setattr(cx, "_radius_field", fail)


@pytest.mark.parametrize("dim, n_max, error, message", [
    (1, 4, UnsupportedDimensionError, "dim must be 2 or 3, got 1"),
    (4, 4, UnsupportedDimensionError, "dim must be 2 or 3, got 4"),
    (2, 21, ScaleBoundError,
     "n_max must be at most 20, got 21: the probe zooms out to j = -n_max and the group bounds |j| by 20"),
    (3, 600, ScaleBoundError,
     "n_max must be at most 20, got 600: the probe zooms out to j = -n_max and the group bounds |j| by 20"),
])
def test_run_counterexample_refuses_before_building_a_staircase(monkeypatch, dim, n_max, error, message):
    _build_nothing(monkeypatch)
    with pytest.raises(error) as exc:
        run_counterexample(dim, n_max)
    assert str(exc.value) == message
    assert isinstance(exc.value, InputError)


def _element(j, *y):
    return GroupElement(j, DyadicVector.integers(*y))


@pytest.mark.parametrize("dim, n_list, elements, quad_level, error, message", [
    (1, (1, 2), None, 5, UnsupportedDimensionError, "dim must be 2 or 3, got 1"),
    (4, (1, 2), None, 5, UnsupportedDimensionError, "dim must be 2 or 3, got 4"),
    (2, (3,), None, 5, InputError, "the decay fit needs at least two distinct n, got (3,)"),
    (2, (3, 3), None, 5, InputError, "the decay fit needs at least two distinct n, got (3, 3)"),
    (2, (), None, 5, InputError, "the decay fit needs at least two distinct n, got ()"),
    # a 3-D element in a 2-D probe, and a 2-D element in a 3-D probe
    (2, (1, 2), [_element(-1, -1, 0, 5)], 4, DimensionMismatchError,
     "element 0 has dim 3, the probe has dim 2"),
    (3, (1, 2), [_element(-1, -1, 0, 0), _element(-2, -1, 0)], 4, DimensionMismatchError,
     "element 1 has dim 2, the probe has dim 3"),
    (2, (1, 2), None, 10**20, MemoryGuardError,
     f"probe quadrature at level {10**20} needs 2^{2 * 10**20} nodes in dim 2, guard is 2^27"),
])
def test_probe_refuses_before_building_anything(
    monkeypatch, dim, n_list, elements, quad_level, error, message
):
    _build_nothing(monkeypatch)
    with pytest.raises(error) as exc:
        dvanishing_probe(dim, n_list, elements, quad_level)
    assert str(exc.value) == message
