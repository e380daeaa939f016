"""Uniform-grid scalar fields shared by every part of the laboratory.

A :class:`GridFunction` is a sampled field on a uniform 1D or 2D grid with
spacing ``h``; solution states live in [0,1], kernel states are nonnegative.
:class:`Grid` is the lightweight descriptor used to build fields.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform grid descriptor: per-axis origin, point count, and spacing."""

    origin: tuple[float, ...]
    npoints: tuple[int, ...]
    h: float

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("grid spacing h must be positive.")
        if len(self.origin) != len(self.npoints):
            raise ValueError("origin and npoints must have the same length.")
        if not self.npoints or len(self.npoints) > 2:
            raise ValueError("only 1D and 2D grids are supported.")
        if any(n < 3 for n in self.npoints):
            raise ValueError("need at least 3 points per axis.")

    @staticmethod
    def centered(half_width: float, h: float, dim: int = 1) -> "Grid":
        """Symmetric grid on [-half_width, half_width]^dim containing 0 and the edges."""
        if half_width <= 0:
            raise ValueError("half_width must be positive.")
        m = int(round(half_width / h))
        if m < 1:
            raise ValueError("half_width must be at least one spacing h.")
        n = 2 * m + 1
        return Grid(origin=(-m * h,) * dim, npoints=(n,) * dim, h=h)

    @staticmethod
    def halfline(length: float, h: float) -> "Grid":
        """1D grid on [0, length], first node at exactly 0."""
        m = int(round(length / h))
        if m < 2:
            raise ValueError("length must cover at least two spacings.")
        return Grid(origin=(0.0,), npoints=(m + 1,), h=h)

    @property
    def dim(self) -> int:
        return len(self.npoints)

    def axis(self, k: int = 0) -> np.ndarray:
        return self.origin[k] + self.h * np.arange(self.npoints[k])

    def points(self):
        """Coordinate structure: the x array in 1D, an (X, Y) 'ij' meshgrid in 2D."""
        if self.dim == 1:
            return self.axis(0)
        return np.meshgrid(self.axis(0), self.axis(1), indexing="ij")

    def zero_field(self) -> "GridFunction":
        return GridFunction(np.zeros(self.npoints), self.h, self.origin)

    def nearest_index(self, point) -> tuple[int, ...]:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.size != self.dim:
            raise ValueError(f"point has {pt.size} coordinates, grid is {self.dim}D.")
        idx = []
        for k, c in enumerate(pt):
            i = int(round((c - self.origin[k]) / self.h))
            if not (0 <= i < self.npoints[k]):
                raise ValueError(f"point {point} lies outside the grid.")
            idx.append(i)
        return tuple(idx)


@dataclass(frozen=True)
class GridFunction:
    """Scalar field sampled on a uniform grid."""

    values: np.ndarray
    h: float
    origin: tuple[float, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim not in (1, 2):
            raise ValueError("GridFunction supports 1D and 2D fields only.")
        if len(self.origin) != v.ndim:
            raise ValueError("origin length must match field dimension.")
        if self.h <= 0:
            raise ValueError("grid spacing h must be positive.")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def grid(self) -> Grid:
        return Grid(self.origin, self.values.shape, self.h)

    def axis(self, k: int = 0) -> np.ndarray:
        return self.origin[k] + self.h * np.arange(self.values.shape[k])

    def points(self):
        return self.grid.points()

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(np.asarray(values, dtype=float), self.h, self.origin)

    def copy(self) -> "GridFunction":
        return self.with_values(self.values.copy())

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of cells at distance >= margin from every grid edge."""
        mask = np.ones(self.values.shape, dtype=bool)
        for k in range(self.dim):
            ax = self.axis(k)
            keep = (ax - ax[0] >= margin - 1e-12) & (ax[-1] - ax >= margin - 1e-12)
            shape = [1] * self.dim
            shape[k] = keep.size
            mask &= keep.reshape(shape)
        return mask


def empty_aligned(shape, offset: int = 0) -> np.ndarray:
    """``np.empty(shape)`` whose element ``offset``, counted in C order,
    starts on a 64-byte boundary; by default the first.

    numpy aligns its own allocations to 16 bytes only. A ufunc writing into
    a buffer that is not 64-byte aligned splits its AVX-512 stores across
    cache lines: a 4000-element subtract into one ran about 1.5x slower. The
    step kernels' buffers are made here, so their speed does not depend on
    where malloc put them."""
    raw = np.empty(int(np.prod(shape)) + 8)
    start = ((-raw.ctypes.data % 64) // 8 - offset) % 8
    return raw[start : start + raw.size - 8].reshape(shape)


def assert_same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.values.shape != b.values.shape or a.origin != b.origin or a.h != b.h:
        raise ValueError("grid functions live on different grids.")


def level_crossings(f: GridFunction, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Where a 1D field crosses ``level``, in increasing x: the nodes equal to
    it, and linear sub-cell interpolation in every cell whose ends straddle
    it. Also returns the rise u[i+1]-u[i] of each straddled cell."""
    if f.dim != 1:
        raise ValueError("level crossings are one-dimensional.")
    u = f.values
    x = f.axis(0)
    s = u - level
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    rise = u[idx + 1] - u[idx]
    pos = x[idx] + f.h * (level - u[idx]) / rise
    return np.sort(np.concatenate([pos, x[s == 0]])), rise
