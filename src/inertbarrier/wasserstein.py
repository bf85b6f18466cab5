"""One-dimensional Wasserstein distances.

For equal-size empirical measures the order-p distance is computed exactly
by the sorted coupling.  Against a grid density it is evaluated through the
quantile representation

    W_p^p = integral_0^1 |F_a^{-1}(u) - F_d^{-1}(u)|^p du,

with the density's quantile function obtained by inverting its trapezoidal
CDF linearly.  The u-integral uses midpoints of the n empirical quantile
intervals; when n is small each interval is subdivided so at least ~1024
quadrature points are used (for n >= 1024 this is exactly the plain
midpoint rule).  Quadrature error is O(1/max(n,1024) + dx).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Minimum number of quantile quadrature points in wp_vs_density.
_MIN_QUAD_POINTS = 1024

# Construction-time normalization must leave the trapezoidal mass this close to 1.
MASS_TOL = 1e-6


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted atoms, stored sorted ascending."""

    atoms: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.atoms, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("an empirical measure needs a nonempty 1-D atom array")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("atoms must be finite")
        if np.any(np.diff(arr) < 0):
            raise InvalidInputError("atoms must be sorted; use from_samples()")
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(self, "atoms", view)

    @classmethod
    def from_samples(cls, values) -> "EmpiricalMeasure":
        arr = np.sort(np.asarray(values, dtype=np.float64))
        return cls(atoms=arr)

    @property
    def size(self) -> int:
        return self.atoms.size


@dataclass(frozen=True)
class GridDensity:
    """Probability density on a uniform grid x0 + j*dx, j = 0..J.

    Weights are pointwise density values; the constructor rescales them so
    the trapezoidal mass is 1.
    """

    x0: float
    dx: float
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.dx) and self.dx > 0):
            raise InvalidInputError("need finite x0 and dx > 0")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise InvalidInputError("weights must be 1-D with at least two nodes")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("weights must be finite")
        if np.any(w < 0):
            raise InvalidInputError("weights must be nonnegative")
        mass = float(np.trapezoid(w, dx=self.dx))
        if mass <= 0:
            raise InvalidInputError("density has nonpositive mass")
        w = w / mass
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def x_grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.weights.size)

    def mass(self) -> float:
        return float(np.trapezoid(self.weights, dx=self.dx))

    def cdf_values(self) -> np.ndarray:
        """Trapezoidal CDF at the grid nodes, pinned to end exactly at 1."""
        inc = 0.5 * self.dx * (self.weights[1:] + self.weights[:-1])
        F = np.concatenate(([0.0], np.cumsum(inc)))
        return F / F[-1]

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """Leftmost generalized inverse of the piecewise-linear CDF."""
        u = np.asarray(u, dtype=np.float64)
        F = self.cdf_values()
        x = self.x_grid
        idx = np.searchsorted(F, u, side="left")
        idx = np.clip(idx, 1, F.size - 1)
        dF = F[idx] - F[idx - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(dF > 0, (u - F[idx - 1]) / dF, 1.0)
        w = np.clip(w, 0.0, 1.0)
        q = x[idx - 1] + w * self.dx
        q = np.where(u <= 0.0, x[0], q)
        return np.where(u >= 1.0, x[-1], q)


def _check_order(p: float) -> float:
    if not (np.isfinite(p) and p >= 1):
        raise InvalidInputError(f"order p must satisfy p >= 1, got {p}")
    return float(p)


def wp_empirical(a: EmpiricalMeasure, b: EmpiricalMeasure, p: float = 1.0) -> float:
    """Exact order-p distance between equal-size empirical measures.

    The sorted (monotone) coupling is optimal in one dimension, so this is

        ((1/n) * sum_i |a_(i) - b_(i)|^p)^(1/p).
    """
    p = _check_order(p)
    if a.size != b.size:
        raise InvalidInputError(f"atom counts differ: {a.size} vs {b.size}")
    diffs = np.abs(a.atoms - b.atoms)
    return float(np.mean(diffs**p) ** (1.0 / p))


def wp_vs_density(a: EmpiricalMeasure, d: GridDensity, p: float = 1.0) -> float:
    """Order-p distance between an empirical measure and a grid density."""
    p = _check_order(p)
    n = a.size
    nsub = max(1, -(-_MIN_QUAD_POINTS // n))
    offs = (np.arange(nsub) + 0.5) / nsub
    u = ((np.arange(n)[:, None] + offs[None, :]) / n).ravel()
    q = d.quantiles(u)
    diffs = np.abs(np.repeat(a.atoms, nsub) - q)
    return float(np.mean(diffs**p) ** (1.0 / p))
