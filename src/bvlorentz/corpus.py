"""Seeded sample families shared by the audit command and the test suite.

Everything here is a pure function of the seed.  Values are nonnegative and
supports sit within a few units of the origin so group elements from
`corpus_elements` act without hitting guards.
"""
from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, from_sampler
from .group import DyadicVector, GroupElement
from .radial import RadialStep, staircase, to_grid
from .rearrange import StepFunction, step_from_pairs

__all__ = ["corpus_grids", "corpus_steps", "corpus_elements"]

_SPAN = 32  # cells per axis for the level-4 block samples


def _blocks(rng: np.random.Generator, dim: int) -> GridFunction:
    arr = np.zeros((_SPAN,) * dim)
    for _ in range(int(rng.integers(2, 5))):
        size = rng.integers(1, 9, dim)
        corner = np.array([rng.integers(0, _SPAN - s + 1) for s in size])
        sl = tuple(slice(int(c), int(c + s)) for c, s in zip(corner, size))
        arr[sl] = float(rng.uniform(0.25, 4.0))
    return GridFunction(dim, 4, (-_SPAN // 2,) * dim, (_SPAN,) * dim, arr)


def _sparse(rng: np.random.Generator, dim: int) -> GridFunction:
    arr = np.zeros((_SPAN,) * dim)
    for _ in range(int(rng.integers(2, 6))):
        idx = tuple(int(i) for i in rng.integers(0, _SPAN, dim))
        arr[idx] = float(rng.uniform(0.25, 4.0))
    return GridFunction(dim, 4, (-_SPAN // 2,) * dim, (_SPAN,) * dim, arr)


def _bump(rng: np.random.Generator, dim: int) -> GridFunction:
    width = float(rng.uniform(0.5, 1.5))
    center = rng.uniform(-1.0, 1.0, dim)
    height = float(rng.uniform(0.5, 3.0))

    def sampler(mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        tents = (np.clip(1.0 - 2.0 * np.abs(x - c) / width, 0.0, None) for x, c in zip(mesh, center))
        return height * math.prod(tents)

    box = tuple((c - width / 2.0, c + width / 2.0) for c in center)
    return from_sampler(dim, 5, box, sampler)


def _annuli(rng: np.random.Generator, dim: int) -> GridFunction:
    radii = (0.0,) + tuple(np.cumsum(rng.uniform(0.15, 0.5, 3)))
    values = tuple(rng.uniform(0.5, 3.0, 3))
    return to_grid(RadialStep(dim, radii, values), level=5)


def _staircase(rng: np.random.Generator, dim: int) -> GridFunction:
    n = int(rng.integers(2, 5 if dim == 2 else 4))
    return to_grid(staircase(dim, n), level=n + 1)


def corpus_grids(seed: int, dim: int, count: int) -> list[GridFunction]:
    rng = np.random.default_rng(seed)
    if dim == 1:
        kinds = (_blocks, _sparse, _bump)
    else:
        kinds = (_blocks, _sparse, _bump, _annuli, _staircase)
    return [kinds[i % len(kinds)](rng, dim) for i in range(count)]


def corpus_steps(seed: int, count: int) -> list[StepFunction]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 8))
        step = step_from_pairs(rng.uniform(0.05, 4.0, k), rng.uniform(0.05, 2.0, k))
        out.append(step)
    return out


def corpus_elements(seed: int, dim: int, count: int) -> list[GroupElement]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        j = int(rng.integers(-3, 4))
        level = int(rng.integers(0, 3))
        nums = tuple(int(x) for x in rng.integers(-8, 9, dim))
        out.append(GroupElement(j, DyadicVector(nums, level)))
    return out
