"""Dyadic grid functions.

A :class:`GridFunction` is a piecewise-constant function on an axis-aligned
box of cells of an infinite dyadic lattice.  At level ``L`` the cell spacing
is ``h = 2**-L``; the box is addressed by an integer ``origin`` (index of the
lowest cell) and integer ``extents`` (cells per axis).  The function is zero
outside the box.  All bookkeeping operations (refinement, linear
combination) are exact: they only relabel, repeat or add stored values,
never interpolate.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .rearrange import StepFunction, _step_from_magnitudes

__all__ = [
    "DimensionMismatchError",
    "GridFormatError",
    "GridFunction",
    "InputError",
    "MemoryGuardError",
    "NonFiniteValuesError",
    "Region",
    "RefinementDirectionError",
    "UnsupportedDimensionError",
    "box_mass",
    "common_refinement",
    "cube_region",
    "from_sampler",
    "full_region",
    "linear_combine",
    "load_grid",
    "refine",
    "resample_to",
    "save_grid",
    "trim",
]

#: Hard ceiling on cells materialised by any single operation.  Operations
#: that would flatten past this raise MemoryGuardError instead of allocating.
DEFAULT_CELL_GUARD = 2**27

_MAGIC = b"BVLGRID1"

#: Bound on |level| * dim for every grid, so that the cell measure
#: 2^(-level*dim) and its inverse stay normal doubles, and on the |level| of
#: a loaded translation.
_MAX_LEVEL_DIM = 1022


class InputError(ValueError):
    """An argument or input file the lab refuses; the command line exits 2 on it."""


class UnsupportedDimensionError(InputError):
    """Raised for dimensions outside {1, 2, 3}."""


class RefinementDirectionError(ValueError):
    """Raised when asked to refine toward a coarser level."""


class DimensionMismatchError(ValueError):
    """Raised when operands live in different ambient dimensions."""


class MemoryGuardError(MemoryError):
    """Raised before an operation would materialise too many cells."""


class GridFormatError(InputError):
    """Raised when a saved grid file is malformed; names the path and the fault."""


class NonFiniteValuesError(ValueError):
    """Raised when a grid function is given a NaN or an infinity."""


def _check_dim(dim: int) -> int:
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dimension must be 1, 2 or 3, got {dim}")
    return dim


def _guard(cells: int) -> None:
    if cells > DEFAULT_CELL_GUARD:
        count = cells if cells <= 2**64 else f"at least 2^{cells.bit_length() - 1}"
        raise MemoryGuardError(f"operation needs {count} cells, guard is {DEFAULT_CELL_GUARD}")


_LEAF_CELLS = 1 << 15  # terms in one leaf of _pairwise_sum (256 KiB)


def _pairwise_sum(n: int, leaf: Callable[[int, int], float], i: int = 0) -> float:
    """``np.sum`` of n float64 terms, bit for bit, from leaf sums.

    numpy sums a contiguous float64 array pairwise, splitting a long one at
    n//2 rounded down to a multiple of 8.  This walks the same splits down
    to leaves of at most ``_LEAF_CELLS`` terms and adds ``leaf(i, j)``, the
    ``np.sum`` of terms i..j-1, from the left, so the terms never exist all
    at once; a test holds it equal to ``np.sum``.  ``i`` is the first term's
    index: a nested recursion would be a reference cycle holding the leaf's
    buffers until the garbage collector runs.
    """
    if n <= _LEAF_CELLS:
        return float(leaf(i, i + n))
    m = n // 2 - n // 2 % 8
    return _pairwise_sum(m, leaf, i) + _pairwise_sum(n - m, leaf, i + m)


#: Cells of the slabs of whole padded rows that ``face_contributions`` fills
#: (2^15 doubles, 256 KiB), so a slab's copy, scratch and output stay in cache.
_SLAB_CELLS = 1 << 15


def _face_cells(u: GridFunction) -> tuple[int, Callable[[int, int, np.ndarray], np.ndarray]]:
    """Per-cell variation, attributed to the base cell of each forward pair,
    h^{dim-1} * sum_k |forward difference| over the padded index domain (one
    cell beyond the box on every side), in flat row-major order.

    Returns the padded cell count and ``fill(i, j, out)``, which writes
    padded cells i..j-1 into the flat array ``out`` and returns it.

    The padded axis-0 rows that the range and its axis-0 neighbours meet are
    copied into a reused zero-padded buffer, regrown only when a range meets
    more rows than any before it.  The axis-0 term |flat[c+R] - flat[c]|,
    with R cells per padded row, is written straight into ``out``.  Each
    other axis k, in axis order, adds |flat[c+s] - flat[c]| through one
    reused scratch buffer, where s is the product of the padded extents
    after axis k.  ``out`` is then scaled by h^{dim-1} in place.

    The bits are those of forward differences of a zero-padded copy, summed
    from a zero accumulator in axis order (the former kernel): each cell
    gets the same terms in the same order and the same scaling, whatever
    the range.  Writing the first term instead of adding it to 0.0 is
    exact, since 0.0 + t == t for t >= +0.  A shifted difference from a
    cell on the last padded index of axis k reads index 0 of axis k further
    on, or a zero row past the box; both cells are padding, so it adds
    |0 - 0| = +0.0, as do faces between two padding cells, and adding +0.0
    leaves a sum of absolute values unchanged.
    """
    v = u.values
    n0, rest = v.shape[0], v.shape[1:]
    row_shape = tuple(n + 2 for n in rest)
    row_cells = math.prod(row_shape)
    inner = (slice(1, -1),) * len(rest)
    # flat stride of one step along each axis after the first
    strides = [math.prod(row_shape[k:]) for k in range(1, u.dim)]
    h_face = u.spacing ** (u.dim - 1)
    pad = scratch = np.empty(0)

    def fill(i: int, j: int, out: np.ndarray) -> np.ndarray:
        nonlocal pad, scratch
        # padded rows r0..r1-1 hold the range and its axis-0 neighbours
        n, r0, r1 = j - i, i // row_cells, (j - 1) // row_cells + 2
        if len(pad) < r1 - r0:
            pad = None  # freed before the larger buffer is made
            pad = np.zeros((r1 - r0,) + row_shape)  # only its inner cells are ever written
        if strides and len(scratch) < n:  # a 1-D grid has no other axis
            scratch = None
            scratch = np.empty(n)
        # buffer row k is padded row r0 + k, i.e. row r0 + k - 1 of v when inside
        rows = pad[: r1 - r0]
        lo, hi = max(1 - r0, 0), min(n0 + 1 - r0, r1 - r0)
        rows[:lo] = 0.0
        rows[(slice(lo, hi),) + inner] = v[r0 + lo - 1 : r0 + hi - 1]
        rows[hi:] = 0.0
        flat = rows.reshape(-1)[i - r0 * row_cells :]  # flat[0] is padded cell i
        np.subtract(flat[row_cells : row_cells + n], flat[:n], out=out)
        np.abs(out, out=out)
        for s in strides:
            diff = scratch[:n]
            np.subtract(flat[s : s + n], flat[:n], out=diff)
            np.abs(diff, out=diff)
            out += diff
        out *= h_face
        return out

    return (n0 + 2) * row_cells, fill


def _cell_centers(level: int, origin: Sequence[int], extents: Sequence[int]) -> np.ndarray:
    """Centers of the cells of a box at ``level``, as an array of shape (cells, dim)."""
    h = 2.0 ** (-level)
    axes = [(o + np.arange(n, dtype=float) + 0.5) * h for o, n in zip(origin, extents)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _frozen(values: np.ndarray) -> np.ndarray:
    """A fresh array that no caller holds, made read-only so that
    :class:`GridFunction` adopts it instead of copying it."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on a box of dyadic cells, zero outside.

    Instances are immutable (the values array is read-only, and every value
    is finite), so derived data that depends only on the values may be cached
    on the object: the decreasing rearrangement is computed once, by one
    values-only sort, and the total variation once, by one pass over the
    faces.
    """

    dim: int
    level: int
    origin: tuple[int, ...]
    extents: tuple[int, ...]
    values: np.ndarray  # shape == extents, row-major, float64

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if abs(self.level) * self.dim > _MAX_LEVEL_DIM:
            raise InputError(
                f"level {self.level} is out of range for dimension {self.dim}: "
                f"its cell measure 2^{-self.level * self.dim} is not a normal double"
            )
        if len(self.origin) != self.dim or len(self.extents) != self.dim:
            raise DimensionMismatchError(
                f"origin/extents rank must equal dim={self.dim}"
            )
        if any(n <= 0 for n in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.flags.writeable and (vals is self.values or vals.base is not None):
            vals = vals.copy()  # the caller's array stays theirs, and writeable
        if vals.shape != tuple(self.extents):
            raise ValueError(
                f"values shape {vals.shape} != extents {tuple(self.extents)}"
            )
        finite = np.isfinite(vals)
        if not finite.all():
            bad = vals.size - np.count_nonzero(finite)
            raise NonFiniteValuesError(
                f"values must be finite: {bad} of {vals.size} cells hold NaN or inf"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- geometry ----------------------------------------------------------
    @property
    def spacing(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.extents))

    # -- rearrangement hook --------------------------------------------------
    def value_measure_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero |values| with their cell measures, for rearrangement."""
        vals = np.abs(self.values[self.values != 0.0])
        return vals, np.full(vals.shape, self.cell_measure)

    @cached_property
    def rearrangement(self) -> StepFunction | None:
        """The decreasing rearrangement u* (None for the zero function).

        Every cell has the same measure, so only magnitudes are sorted.
        :attr:`_abs_leaves` tells whether a cell is zero; a grid with zeros
        sorts only its nonzero magnitudes, so only a zero-free grid makes a
        full-size |u|.  The result equals
        ``step_from_pairs(*self.value_measure_pairs())``.  A support whose
        measure overflows a double is refused.
        """
        flat = self.values.ravel()
        with np.errstate(over="ignore"):
            if self._abs_leaves[1]:
                a = flat[flat != 0.0]
                np.abs(a, out=a)
            else:
                a = np.abs(flat)
            step = _step_from_magnitudes(a, self.cell_measure)
            if step is not None and step.total_measure == math.inf:
                raise InputError(
                    f"the support measure of {a.size} nonzero cells of measure "
                    f"2^{-self.level * self.dim} overflows a double"
                )
        return step

    @cached_property
    def variation(self) -> float:
        """The per-face total variation (see :mod:`bvlorentz.bv`): the
        ``np.sum`` of :meth:`face_contributions`, bit for bit, with no array
        of the whole box.  Each leaf of :func:`_pairwise_sum` is a range of
        padded cells that the kernel fills into one reused leaf buffer,
        which is then summed.  It is inf when the sum overflows a double,
        which its users refuse.
        """
        total, fill = _face_cells(self)
        buf = np.empty(min(total, _LEAF_CELLS))
        with np.errstate(over="ignore"):
            return _pairwise_sum(total, lambda i, j: np.sum(fill(i, j, buf[: j - i])))

    def face_contributions(self) -> np.ndarray:
        """The per-cell variation over the padded box, whose lowest cell is
        ``origin - 1`` on every axis (see :func:`_face_cells`), filled by
        the kernel a slab of whole padded rows at a time into the returned
        array, the only full-size allocation and not kept.  Every reader of
        the whole array comes through here.

        Its sum is cached as :attr:`variation` on the way, so a caller that
        needs both the array and the total runs the kernel once.  A product
        that overflows is inf, with no warning; its users refuse it.
        """
        total, fill = _face_cells(self)
        out = np.empty(tuple(n + 2 for n in self.extents))
        flat = out.reshape(-1)
        row_cells = total // out.shape[0]
        slab = max(1, _SLAB_CELLS // row_cells) * row_cells
        with np.errstate(over="ignore"):
            for i in range(0, total, slab):
                fill(i, min(i + slab, total), flat[i : i + slab])
            if "variation" not in self.__dict__:
                self.__dict__["variation"] = float(np.sum(out))
        return out

    @cached_property
    def _abs_leaves(self) -> tuple[float, bool]:
        """``np.sum(np.abs(self.values))``, bit for bit (inf on overflow,
        which users refuse), and whether a cell is zero, from one pass of
        ``np.abs`` into a reused leaf buffer; read by both
        :attr:`rearrangement` and :meth:`l1_norm`."""
        flat = self.values.ravel()
        buf = np.empty(min(flat.size, _LEAF_CELLS))
        zero = False

        def leaf(i: int, j: int) -> float:
            nonlocal zero
            b = np.abs(flat[i:j], out=buf[: j - i])
            zero = zero or not b.min() > 0.0
            return np.sum(b)

        with np.errstate(over="ignore"):
            return _pairwise_sum(flat.size, leaf), zero

    def l1_norm(self) -> float:
        return self._abs_leaves[0] * self.cell_measure


def from_sampler(
    dim: int,
    level: int,
    box: Sequence[tuple[float, float]],
    sampler: Callable[[np.ndarray], np.ndarray],
) -> GridFunction:
    """Sample ``sampler`` at cell centers of the dyadic cells covering ``box``.

    ``box`` is one (lo, hi) pair per axis; it is snapped outward to cell
    boundaries at ``level``.  The sampler is called once, with all centers
    as a ``(cells, dim)`` array, and returns one value per row (a scalar is
    broadcast to every cell).
    """
    _check_dim(dim)
    if len(box) != dim:
        raise DimensionMismatchError(f"box needs {dim} axis ranges")
    scale = 2.0**level
    origin = []
    extents = []
    for lo, hi in box:
        if not hi > lo:
            raise ValueError(f"box axis ({lo}, {hi}) has nonpositive length")
        o = int(np.floor(lo * scale))
        top = int(np.ceil(hi * scale))
        origin.append(o)
        extents.append(top - o)
    _guard(math.prod(extents))
    pts = _cell_centers(level, origin, extents)
    vals = np.broadcast_to(np.asarray(sampler(pts), dtype=np.float64), pts.shape[:1])
    return GridFunction(dim, level, tuple(origin), tuple(extents), vals.reshape(extents))


def refine(u: GridFunction, to_level: int) -> GridFunction:
    """Re-express ``u`` at a finer level.  Values are copied, never changed."""
    if to_level < u.level:
        raise RefinementDirectionError(
            f"cannot refine from level {u.level} to coarser level {to_level}"
        )
    if to_level == u.level:
        return u
    lo, hi = _footprint(u, to_level)
    extents = tuple(b - a for a, b in zip(lo, hi))
    _guard(math.prod(extents))
    return GridFunction(u.dim, to_level, tuple(lo), extents, _frozen(_block(u, to_level, lo, hi)))


def common_refinement(fns: Iterable[GridFunction]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Common level, origin and extents of the smallest box holding all inputs."""
    fns = list(fns)
    if not fns:
        raise ValueError("need at least one grid function")
    dim = fns[0].dim
    if any(f.dim != dim for f in fns):
        raise DimensionMismatchError("mixed dimensions")
    level = max(f.level for f in fns)
    boxes = [_footprint(f, level) for f in fns]
    origin = tuple(min(lo[a] for lo, _ in boxes) for a in range(dim))
    top = tuple(max(hi[a] for _, hi in boxes) for a in range(dim))
    extents = tuple(t - o for o, t in zip(origin, top))
    _guard(math.prod(extents))
    return level, origin, extents


def linear_combine(coeffs: Sequence[float], fns: Sequence[GridFunction]) -> GridFunction:
    """Exact linear combination on the common refinement of all operands."""
    if len(coeffs) != len(fns):
        raise ValueError("one coefficient per function")
    level, origin, extents = common_refinement(fns)
    return _sum_on(fns[0].dim, level, origin, extents, coeffs, fns, "a linear combination")


def trim(u: GridFunction) -> GridFunction:
    """Shrink the box to the support bounding box (1 zero cell if empty).

    Each axis's range comes from the projection of the nonzero mask onto it
    (``np.any`` over the other axes); the mask is cut to each range found,
    so later projections read only the rows that can hold support.
    """
    nonzero = u.values != 0
    lo, hi = [], []
    for axis in range(u.dim):
        hits = np.flatnonzero(np.any(nonzero, axis=tuple(a for a in range(u.dim) if a != axis)))
        if hits.size == 0:
            one = tuple(1 for _ in range(u.dim))
            return GridFunction(u.dim, u.level, u.origin, one, np.zeros(one))
        lo.append(int(hits[0]))
        hi.append(int(hits[-1]) + 1)
        nonzero = nonzero[(slice(None),) * axis + (slice(lo[-1], hi[-1]),)]
    sl = tuple(slice(a, b) for a, b in zip(lo, hi))
    origin = tuple(o + a for o, a in zip(u.origin, lo))
    extents = tuple(b - a for a, b in zip(lo, hi))
    return GridFunction(u.dim, u.level, origin, extents, u.values[sl])


# -- exact box queries -------------------------------------------------------

def _interval_weights(lo: float, hi: float, origin: int, n: int, h: float) -> np.ndarray:
    cell_lo = (origin + np.arange(n, dtype=float)) * h
    cell_hi = cell_lo + h
    return np.clip(np.minimum(hi, cell_hi) - np.maximum(lo, cell_lo), 0.0, None)


def box_mass(u: GridFunction, lo: Sequence[float], hi: Sequence[float]) -> float:
    """Integral of |u| over an axis-aligned box, exact for cell data."""
    if len(lo) != u.dim or len(hi) != u.dim:
        raise DimensionMismatchError("box rank must equal dim")
    weights = [
        _interval_weights(float(lo[a]), float(hi[a]), u.origin[a], u.extents[a], u.spacing)
        for a in range(u.dim)
    ]
    vals = np.abs(u.values)
    if u.dim == 1:
        return float(weights[0] @ vals)
    if u.dim == 2:
        return float(weights[0] @ vals @ weights[1])
    return float(np.einsum("i,j,k,ijk->", weights[0], weights[1], weights[2], vals))


# -- dyadic block sums ---------------------------------------------------------

def _halve(a: np.ndarray, origin: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pairwise sums over blocks of two cells per axis, block index = cell
    index >> 1.  An odd start or length is padded with one zero, which keeps
    blocks on the lattice and mirror-image sums bit-identical."""
    pad = [(o & 1, (o + n) & 1) for o, n in zip(origin, a.shape)]
    if any(lo or hi for lo, hi in pad):
        padded = np.zeros(tuple(lo + n + hi for n, (lo, hi) in zip(a.shape, pad)))
        padded[tuple(slice(lo, lo + n) for n, (lo, _) in zip(a.shape, pad))] = a
        a = padded
    for axis in range(a.ndim):
        head = (slice(None),) * axis
        a = a[head + (slice(0, None, 2),)] + a[head + (slice(1, None, 2),)]
    return a, tuple(o >> 1 for o in origin)


def _footprint(u: GridFunction, level: int) -> tuple[list[int], list[int]]:
    """Cell-index box [lo, hi) per axis that ``u`` covers at ``level``:
    exact at a finer level, rounded outward at a coarser one."""
    d = u.level - level
    if d <= 0:
        return [o << -d for o in u.origin], [(o + n) << -d for o, n in zip(u.origin, u.extents)]
    return [o >> d for o in u.origin], [((o + n - 1) >> d) + 1 for o, n in zip(u.origin, u.extents)]


def _overlap_box(
    u: GridFunction, level: int, origin: Sequence[int], extents: Sequence[int]
) -> tuple[list[int], list[int]] | None:
    """Cell-index box at ``level`` where the footprint of ``u`` meets the
    target box, as (lo, hi) per axis; None when they do not meet."""
    flo, fhi = _footprint(u, level)
    lo = [max(a, int(o)) for a, o in zip(flo, origin)]
    hi = [min(b, int(o) + int(n)) for b, o, n in zip(fhi, origin, extents)]
    if any(b <= a for a, b in zip(lo, hi)):
        return None
    return lo, hi


def _block(u: GridFunction, level: int, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    """Cell values of ``u`` on the box [lo, hi) at ``level``, inside its
    footprint; only the source cells under the box are read, and at a finer
    level exactly the box is built.

    Source and target lie on one dyadic lattice.  k levels finer, each target
    cell lies in one source cell: along each axis, source cell s is repeated
    once per target cell of [s*2^k, (s+1)*2^k) inside the box.  d levels
    coarser, each target cell is a block of 2^d source cells per axis, summed
    by d halvings (under which an overflow is left to the caller's finite
    check) and scaled by the exact power 2^(-d*dim).  At the same level the
    result is a read-only view of ``u``'s values.
    """
    d = u.level - level
    if d <= 0:
        src_lo, src_hi = [a >> -d for a in lo], [((b - 1) >> -d) + 1 for b in hi]
    else:
        src_lo = [max(a << d, o) for a, o in zip(lo, u.origin)]
        src_hi = [min(b << d, o + n) for b, o, n in zip(hi, u.origin, u.extents)]
    block = u.values[tuple(slice(a - o, b - o) for a, b, o in zip(src_lo, src_hi, u.origin))]
    if d > 0:
        with np.errstate(over="ignore"):
            for _ in range(d):
                block, src_lo = _halve(block, src_lo)
        return block * 2.0 ** (-d * u.dim)
    for axis, (a, b, s, t) in enumerate(zip(lo, hi, src_lo, src_hi) if d < 0 else ()):
        counts = [min(b, (i + 1) << -d) - max(a, i << -d) for i in range(s, t)]
        block = np.repeat(block, counts, axis=axis)
    return block


def _sum_on(dim: int, level: int, origin: Sequence[int], extents: Sequence[int], coeffs, fns,
            what: str) -> GridFunction:
    """``sum c * f`` on the box at ``origin`` and ``level``: each term is
    added in order onto 0.0, reading only the cells of ``f`` under the box.
    An overflow is refused as input, naming ``what`` (see :func:`_computed`)."""
    acc = np.zeros(extents)
    for c, f in zip(coeffs, fns):
        box = _overlap_box(f, level, origin, extents)
        if box is not None:
            sl = tuple(slice(a - o, b - o) for a, b, o in zip(*box, origin))
            with np.errstate(over="ignore"):
                acc[sl] += c * _block(f, level, *box)
    return _computed(dim, level, origin, acc, what)


def _computed(dim: int, level: int, origin: Sequence[int], values: np.ndarray, what: str):
    """A grid function of values computed from finite ones: a NaN or an
    infinity among them can only be an overflow, refused as input."""
    try:
        return GridFunction(dim, level, tuple(origin), values.shape, _frozen(values))
    except NonFiniteValuesError as err:
        raise InputError(f"{what} overflows a double: {err}") from None


def resample_to(
    u: GridFunction, level: int, origin: Sequence[int], extents: Sequence[int]
) -> GridFunction:
    """Cell averages of ``u`` on an arbitrary target grid.

    Exact for the stored piecewise-constant function: a finer target copies
    source values (this reproduces :func:`refine`), a coarser one averages
    blocks, which is the projection used for weak-limit proxies (see
    :func:`_block`).
    """
    origin = tuple(int(o) for o in origin)
    extents = tuple(int(n) for n in extents)
    _guard(math.prod(extents))
    return _sum_on(u.dim, level, origin, extents, (1.0,), (u,), "resampling")


# -- regions -----------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Cells whose center lies in all of space (``"full"``) or in a cube."""

    kind: str
    dim: int
    level: int | None = None
    corner: tuple[int, ...] | None = None
    side: int | None = None

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError("point rank must equal region dim")
        if self.kind == "full":
            return np.ones(pts.shape[0], dtype=bool)
        if self.kind == "cube":
            h = 2.0 ** (-self.level)
            lo = np.asarray(self.corner, dtype=float) * h
            hi = lo + self.side * h
            return np.all((pts >= lo) & (pts < hi), axis=1)
        raise ValueError(f"unknown region kind {self.kind!r}")


def cube_region(dim: int, level: int, corner: Sequence[int], side: int) -> Region:
    _check_dim(dim)
    if side <= 0:
        raise ValueError("cube side must be positive")
    return Region("cube", dim, level=level, corner=tuple(int(c) for c in corner), side=int(side))


def full_region(dim: int) -> Region:
    _check_dim(dim)
    return Region("full", dim)


# -- serialization -----------------------------------------------------------

def _json_text(doc: dict, name: str) -> str:
    """``doc`` as sorted, indented JSON; a NaN or infinity, which JSON cannot
    hold, is refused as an input whose values overflow a double."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        raise InputError(f"{name}: output holds a value that overflows a double") from err


def save_grid(u: GridFunction, path: str | Path) -> None:
    """Single self-describing binary file.

    Layout: magic, then dim/level/origin/extents as little-endian int64,
    then the row-major float64 values.  Round-trips bit-exactly.
    """
    header = struct.pack("<qq", u.dim, u.level)
    header += struct.pack(f"<{u.dim}q", *u.origin)
    header += struct.pack(f"<{u.dim}q", *u.extents)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + header)
        fh.write(memoryview(np.ascontiguousarray(u.values, dtype="<f8")).cast("B"))


def _write_files(dirpath: str | Path, files: dict) -> None:
    """Write ``files``, name -> grid, text or JSON doc, into ``dirpath`` in order.

    Every doc is serialized first, so one that JSON cannot hold raises
    InputError before the directory is made or any file is written.
    """
    files = {name: _json_text(body, name) if isinstance(body, dict) else body
             for name, body in files.items()}
    os.makedirs(dirpath, exist_ok=True)
    for name, body in files.items():
        if isinstance(body, GridFunction):
            save_grid(body, os.path.join(dirpath, name))
        else:
            Path(dirpath, name).write_text(body)


def load_grid(path: str | Path) -> GridFunction:
    """Read a file written by :func:`save_grid`, checking it before use.

    Raises GridFormatError, naming the path and the mismatch, for a wrong
    magic, a dimension outside {1, 2, 3}, a level whose cell measure is not
    a normal double, a truncated header, a nonpositive extent, more cells
    than ``DEFAULT_CELL_GUARD``, a payload that is not exactly 8 bytes per
    cell, or a NaN or infinite value.  The header is checked before any
    allocation, and the payload is read straight into the values array.
    """

    def bad(why: str) -> GridFormatError:
        return GridFormatError(f"{path}: {why}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(len(_MAGIC) + 16 + 16 * 3)  # the longest header, dim 3
        if raw[: len(_MAGIC)] != _MAGIC:
            raise bad("not a grid file (bad magic)")
        off = len(_MAGIC)
        if size < off + 16:
            raise bad(f"header truncated at {size} bytes")
        dim, level = struct.unpack_from("<qq", raw, off)
        if dim not in (1, 2, 3):
            raise bad(f"dimension must be 1, 2 or 3, got {dim}")
        if abs(level) * dim > _MAX_LEVEL_DIM:
            raise bad(f"level {level} is out of range for dimension {dim}")
        off += 16
        if size < off + 16 * dim:
            raise bad(f"header truncated at {size} bytes, needs {off + 16 * dim}")
        origin = struct.unpack_from(f"<{dim}q", raw, off)
        off += 8 * dim
        extents = struct.unpack_from(f"<{dim}q", raw, off)
        off += 8 * dim
        if any(n <= 0 for n in extents):
            raise bad(f"extents must be positive, got {extents}")
        cells = math.prod(extents)
        if cells > DEFAULT_CELL_GUARD:
            raise bad(f"{cells} cells exceed the guard of {DEFAULT_CELL_GUARD}")
        if size - off != 8 * cells:
            raise bad(f"payload is {size - off} bytes, extents {extents} need {8 * cells}")
        vals = np.empty(extents, dtype="<f8")
        fh.seek(off)
        got = fh.readinto(vals)
        if got != 8 * cells or fh.read(1):  # the file changed after fstat
            raise bad(f"payload is not {8 * cells} bytes, as extents {extents} need")
    try:
        return GridFunction(dim, level, origin, extents, _frozen(vals))
    except ValueError as err:  # the header is checked: only non-finite values remain
        raise bad(str(err)) from err
