"""Group axioms hold exactly; the action is a norm isometry."""
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvlorentz.group import (
    DyadicVector,
    GroupElement,
    ScaleBoundError,
    act,
    compose,
    identity,
    inverse,
    isometry_defect,
    isometry_defects,
)
from bvlorentz import group
from bvlorentz.corpus import corpus_elements, corpus_grids
from bvlorentz.grid import GridFunction
from bvlorentz.profiles import load_sequence, save_sequence
from bvlorentz.rearrange import critical_exponent


def test_dyadic_vector_normalization():
    v = DyadicVector((4, 8), 2)  # 1, 2 after reduction
    assert v.numerators == (1, 2) and v.level == 0
    w = DyadicVector((3,), -2)  # negative level means multiply out
    assert w.numerators == (12,) and w.level == 0
    odd = DyadicVector((3, 5), 3)
    assert odd.level == 3  # nothing to cancel


def test_dyadic_vector_arithmetic():
    a = DyadicVector((1,), 1)  # 1/2
    b = DyadicVector((1,), 2)  # 1/4
    s = a + b
    assert s.numerators == (3,) and s.level == 2  # 3/4
    assert (-a).as_floats()[0] == -0.5
    assert a.scaled_pow2(3).numerators == (4,)  # 1/2 * 8
    assert a.scaled_pow2(-2).as_floats()[0] == 0.125
    assert DyadicVector.zero(2).numerators == (0, 0)
    assert DyadicVector.integers(3, -1).as_floats().tolist() == [3.0, -1.0]
    with pytest.raises(ValueError):
        a + DyadicVector.zero(2)


def test_dyadic_vector_dict_roundtrip():
    v = DyadicVector((5, -3), 4)
    assert DyadicVector.from_dict(v.to_dict()) == v
    g = GroupElement(2, v)
    assert GroupElement.from_dict(g.to_dict()) == g


def test_group_axioms_exact():
    g = GroupElement(2, DyadicVector((1, 3), 2))
    h = GroupElement(-1, DyadicVector((5, 0), 1))
    e = identity(2)
    assert compose(g, e) == g
    assert compose(e, g) == g
    assert compose(g, inverse(g)) == e
    assert compose(inverse(g), g) == e
    # associativity
    k = GroupElement(1, DyadicVector.integers(-2, 4))
    assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_act_is_pure_relabeling(single_cell):
    g = GroupElement(1, DyadicVector.zero(2))
    v = act(g, single_cell)
    assert v.level == single_cell.level + 1
    # dim 2: value factor 2^{(2-1)*1} = 2
    np.testing.assert_array_equal(v.values, 2.0 * single_cell.values)
    assert v.origin == single_cell.origin

    shift = GroupElement(0, DyadicVector.integers(1, 0))
    w = act(shift, single_cell)
    # translation by +1 sends support right: origin drops by 2^level cells?
    # (gu)(x) = u(x - y), so support moves by +y = +4 cells at level 2
    assert w.origin == (single_cell.origin[0] + 4, single_cell.origin[1])
    np.testing.assert_array_equal(w.values, single_cell.values)


def test_act_refines_for_fine_translation(single_cell):
    g = GroupElement(0, DyadicVector((1, 0), 5))  # y = 1/32, finer than h = 1/4
    v = act(g, single_cell)
    assert v.level == 5
    assert v.l1_norm() == pytest.approx(single_cell.l1_norm(), rel=1e-14)


def test_act_inverse_restores(single_cell):
    g = GroupElement(3, DyadicVector((3, -1), 2))
    back = act(inverse(g), act(g, single_cell))
    assert back.l1_norm() == pytest.approx(single_cell.l1_norm(), rel=1e-14)
    # values agree cell by cell after refinement bookkeeping
    from bvlorentz.grid import resample_to

    r = resample_to(back, single_cell.level, single_cell.origin, single_cell.extents)
    np.testing.assert_allclose(r.values, single_cell.values, atol=1e-12)


def test_scale_bound(single_cell):
    with pytest.raises(ScaleBoundError):
        act(GroupElement(25, DyadicVector.zero(2)), single_cell)
    with pytest.raises(ScaleBoundError):
        act(GroupElement(-21, DyadicVector.zero(2)), single_cell)
    # |j| = 20 is the bound itself
    assert act(GroupElement(20, DyadicVector.zero(2)), single_cell).level == single_cell.level + 20


def test_zero_translation_does_not_refine(single_cell):
    # the result is the same 16 cells relabelled at level 2 - 20; refining
    # to make y = 0 a whole number of cells used to need 2^40 cells
    v = act(GroupElement(-20, DyadicVector.zero(2)), single_cell)
    assert (v.level, v.origin, v.extents) == (-18, (0, 0), (4, 4))
    assert np.array_equal(v.values, single_cell.values * 2.0**-20)


def test_integer_translation_refines_only_as_its_trailing_zeros_need(single_cell):
    # y = (8, 0) is 4 cells of side 2 at level -1, so no refinement is needed
    v = act(GroupElement(-3, DyadicVector.integers(8, 0)), single_cell)
    assert (v.level, v.origin, v.extents) == (-1, (4, 0), (4, 4))
    assert np.array_equal(v.values, single_cell.values * 2.0**-3)
    # y = (2, 0) is half a cell at level -2 and one cell at level -1: refine once
    w = act(GroupElement(-4, DyadicVector.integers(2, 0)), single_cell)
    assert (w.level, w.origin, w.extents) == (-1, (1, 0), (8, 8))
    assert np.array_equal(w.values[2:4, 4:6], np.full((2, 2), 3.0 * 2.0**-4))
    assert w.values.sum() == 4 * 3.0 * 2.0**-4


def test_dimension_mismatch(single_cell):
    with pytest.raises(ValueError):
        act(GroupElement(0, DyadicVector.zero(1)), single_cell)
    with pytest.raises(ValueError):
        compose(identity(1), identity(2))


elements = st.builds(
    GroupElement,
    st.integers(min_value=-3, max_value=3),
    st.builds(
        DyadicVector,
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        st.integers(min_value=0, max_value=2),
    ),
)

grids_2d = st.builds(
    lambda flat: GridFunction(2, 2, (0, 0), (3, 3), np.array(flat).reshape(3, 3)),
    st.lists(st.floats(-4, 4, allow_nan=False, width=32), min_size=9, max_size=9),
)


@given(elements, elements, elements)
@settings(max_examples=100, deadline=None)
def test_associativity_property(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(elements)
@settings(max_examples=100, deadline=None)
def test_inverse_property(g):
    e = identity(2)
    assert compose(g, inverse(g)) == e
    assert compose(inverse(g), g) == e
    assert inverse(inverse(g)) == g


@given(elements, grids_2d)
@settings(max_examples=60, deadline=None)
def test_action_compatible_with_composition(g, u):
    h = GroupElement(1, DyadicVector((1,  -2), 1))
    lhs = act(compose(g, h), u)
    rhs = act(g, act(h, u))
    assert lhs.level == rhs.level
    assert lhs.l1_norm() == pytest.approx(rhs.l1_norm(), rel=1e-12, abs=1e-15)
    # same function: difference has zero mass
    from bvlorentz.grid import linear_combine

    diff = linear_combine([1.0, -1.0], [lhs, rhs])
    assert diff.l1_norm() == pytest.approx(0.0, abs=1e-13)


@given(elements, grids_2d)
@settings(max_examples=80, deadline=None)
def test_isometry_bv_and_critical_lorentz(g, u):
    assert isometry_defect(g, u, "bv") <= 1e-12
    p = critical_exponent(2)
    for q in (1.0, p, np.inf):
        assert isometry_defect(g, u, ("lorentz", p, q)) <= 1e-12


def test_isometry_zero_function():
    z = GridFunction(2, 0, (0, 0), (2, 2), np.zeros((2, 2)))
    g = GroupElement(1, DyadicVector.integers(1, 1))
    assert isometry_defect(g, z, "bv") == 0.0


def _counting_act(monkeypatch):
    calls = []
    real = group.act

    def counted(g, u):
        calls.append(g)
        return real(g, u)

    monkeypatch.setattr(group, "act", counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_isometry_defects_match_one_defect_per_id(dim, monkeypatch):
    norm_ids = ["bv", ("lebesgue", 1.0)]
    if dim >= 2:
        p = critical_exponent(dim)
        norm_ids += [("lorentz", p, q) for q in (1.0, p, float("inf"))]
    grids = corpus_grids(7, dim, 5)
    elements = corpus_elements(8, dim, 5)
    want = [[isometry_defect(g, u, nid) for nid in norm_ids] for u, g in zip(grids, elements)]
    calls = _counting_act(monkeypatch)
    for u, g, row in zip(grids, elements, want):
        before = len(calls)
        assert isometry_defects(g, u, norm_ids) == row
        assert len(calls) - before == 1  # every corpus grid is nonzero


def test_isometry_defects_do_not_act_on_the_zero_grid(monkeypatch):
    z = GridFunction(2, 0, (0, 0), (2, 2), np.zeros((2, 2)))
    g = GroupElement(1, DyadicVector.integers(1, 1))
    calls = _counting_act(monkeypatch)
    norm_ids = ["bv", ("lorentz", 2.0, 1.0), ("lorentz", 2.0, float("inf"))]
    assert isometry_defects(g, z, norm_ids) == [0.0, 0.0, 0.0]
    assert calls == []


def test_noncritical_lebesgue_is_not_isometric(single_cell):
    # L^1 mass scales by 2^{-j} in 2-d, so the defect is large and known
    g = GroupElement(1, DyadicVector.zero(2))
    d = isometry_defect(g, single_cell, ("lebesgue", 1.0))
    assert d == pytest.approx(0.5, rel=1e-12)


def test_norm_id_validation(single_cell):
    with pytest.raises(ValueError):
        isometry_defect(identity(2), single_cell, ("unknown",))


def _loop_normalized(nums, level):
    """Normalization one level per step, as DyadicVector did it before the closed form."""
    nums, level = tuple(nums), int(level)
    if level < 0:
        nums, level = tuple(n * 2 ** (-level) for n in nums), 0
    while level > 0 and all(n % 2 == 0 for n in nums):
        nums, level = tuple(n // 2 for n in nums), level - 1
    return nums, level


_numerators = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(lambda k, e: k << e, st.integers(-7, 7), st.integers(0, 80)),
)


@given(st.lists(_numerators, min_size=1, max_size=3), st.integers(-8, 90))
@settings(max_examples=400, deadline=None)
def test_closed_form_normalization_equals_the_loop(nums, level):
    v = DyadicVector(tuple(nums), level)
    assert (v.numerators, v.level) == _loop_normalized(nums, level)


def test_huge_negative_level_is_refused_before_multiplying_out(tmp_path):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="level -10000000 is below -1022"):
        GroupElement.from_dict({"j": 0, "y": {"numerators": [1, 1], "level": -(10**7)}})
    assert time.perf_counter() - start < 0.010  # multiplying out took 74 ms
    assert DyadicVector((1,), -1022).numerators == (2**1022,)


def test_deep_zero_translation_in_a_manifest_loads_fast(tmp_path):
    save_sequence(str(tmp_path), [GridFunction(2, 0, (0, 0), (2, 2), np.ones((2, 2)))])
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    g = {"j": 0, "y": {"numerators": [0, 0], "level": 10**6}}
    manifest["elements"][0]["terms"][0]["g"] = g
    path.write_text(json.dumps(manifest))
    start = time.perf_counter()
    seq = load_sequence(str(tmp_path))
    assert time.perf_counter() - start < 0.010  # one level per loop step took 2 s
    assert seq[0].terms[0].g == GroupElement(0, DyadicVector.zero(2))
