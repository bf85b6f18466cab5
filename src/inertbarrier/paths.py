"""Uniformly sampled paths.

Every trajectory in this package is a `SampledPath`: values on a uniform
time grid, read as the piecewise-linear interpolant between samples.  n paths
on one grid are a `PathBundle`, one (n, n_steps + 1) matrix.  All
operations that combine paths require identical grids; nothing here ever
resamples silently.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Relative slack when comparing grid descriptors (t0, dt) of two paths.
GRID_RTOL = 1e-9

# Most float64 values one array can hold.
MAX_SAMPLES = sys.maxsize // 8


def _validated_values(t0, dt, values, ndim: int) -> np.ndarray:
    """Read-only float64 view of grid values with `ndim` axes, time last."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise InvalidInputError(f"path values must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(t0):
        raise InvalidInputError("t0 must be finite")
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")
    if arr.shape[-1] < 2:
        raise InvalidInputError("a path needs at least two samples")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("path values must be finite")
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SampledPath:
    """A path sampled at t0 + k*dt for k = 0..n_steps.

    Parameters
    ----------
    t0 : float
        Time of the first sample.
    dt : float
        Grid spacing, > 0.
    values : array_like
        Sample values, length n_steps + 1 (at least 2), all finite.
    """

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.t0, self.dt, self.values, 1))

    @property
    def n_steps(self) -> int:
        return self.values.size - 1

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    def index_of(self, t: float) -> int:
        """Grid index of time t; t must sit on the grid within 1e-9*dt."""
        k = (t - self.t0) / self.dt
        ki = int(round(k))
        if abs(k - ki) > 1e-9 * max(1.0, abs(ki)) or not (0 <= ki <= self.n_steps):
            raise InvalidInputError(f"t={t} is not a grid point of this path")
        return ki

    def with_values(self, values) -> "SampledPath":
        return SampledPath(self.t0, self.dt, values)


@dataclass(frozen=True)
class PathBundle:
    """n paths on one uniform grid, stored as the rows of one matrix.

    values[i, k] is path i at t0 + k*dt.  The matrix is validated once, as a
    whole, and kept without copying (a transposed view stays a view).
    `len`, indexing and iteration give `SampledPath` views of single rows.
    """

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.t0, self.dt, self.values, 2))

    @classmethod
    def of(cls, paths) -> "PathBundle":
        """`paths` itself if it is a bundle, else its paths (one shared grid) stacked as rows."""
        if isinstance(paths, PathBundle):
            return paths
        require_same_grid(*paths)
        return cls(paths[0].t0, paths[0].dt, np.stack([p.values for p in paths]))

    @property
    def n_steps(self) -> int:
        return self.values.shape[1] - 1

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> SampledPath:
        return SampledPath(self.t0, self.dt, self.values[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def grids_match(a: SampledPath, b: SampledPath) -> bool:
    scale = max(abs(a.t0), abs(b.t0), a.dt)
    return (
        a.values.size == b.values.size
        and abs(a.t0 - b.t0) <= GRID_RTOL * max(1.0, scale)
        and abs(a.dt - b.dt) <= GRID_RTOL * a.dt
    )


def require_same_grid(*paths: SampledPath) -> None:
    first = paths[0]
    for p in paths[1:]:
        if not grids_match(first, p):
            raise InvalidInputError(
                "paths must share one grid: "
                f"(t0={first.t0}, dt={first.dt}, len={first.values.size}) vs "
                f"(t0={p.t0}, dt={p.dt}, len={p.values.size})"
            )


def sup_distance(a: SampledPath, b: SampledPath) -> float:
    require_same_grid(a, b)
    return float(np.max(np.abs(a.values - b.values)))


def uniform_grid(T: float, dt: float) -> int:
    """Number of steps N with N*dt = T; T must be an integer multiple of dt."""
    if not (np.isfinite(T) and T > 0):
        raise InvalidInputError(f"horizon T must be positive, got {T}")
    if not (np.isfinite(dt) and 0 < dt <= T):
        raise InvalidInputError(f"dt must satisfy 0 < dt <= T, got {dt}")
    if not T / dt < MAX_SAMPLES:
        raise InvalidInputError(f"T/dt = {T / dt:.3g} steps is more than an array can hold")
    n = round(T / dt)
    if abs(T / dt - n) > 1e-9 * max(1, n):
        raise InvalidInputError(f"T={T} is not an integer multiple of dt={dt}")
    return int(n)
