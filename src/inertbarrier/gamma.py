"""Coupled barrier map for n driver paths.

Given drivers f_1..f_n on a common grid, an initial barrier velocity v0 and
an impulse constant K >= 0, the barrier y and per-driver regulators m_i
solve the coupled system

    y(0) = 0,        y'(t) = v(t),
    v(t) = v0 - (K/n) * sum_i m_i(t),
    m_i(t) = sup_{u <= t} max(-(f_i(u) - y(u)), 0),

i.e. each driver is reflected above y while the barrier loses velocity in
proportion to the accumulated reflection.  `solve_gamma` computes the
explicit lattice construction: the velocity is frozen on windows of length
eps and refreshed from the regulators at each lattice point, using the
supremum up to and including the lattice point.  With eps equal to the grid
step the returned v satisfies v(k) = v0 - (K/n)*sum_i m_i(k) exactly at
every grid point and y is the exact integral of the piecewise-constant
velocity; for coarser eps the same identities hold up to the refinement
bound (see `refinement_bound`).

K = 0 decouples the system: y(t) = v0*t and each m_i is the regulator of
f_i against that line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .paths import PathBundle, SampledPath, require_same_grid

__all__ = [
    "BarrierTrajectory",
    "BarrierRecursion",
    "GammaResult",
    "solve_gamma",
    "solve_gamma_refined",
    "lipschitz_envelope",
    "refinement_bound",
    "velocity_envelope",
]


@dataclass(frozen=True)
class BarrierTrajectory:
    """Barrier position y and velocity v on one grid, pushed by n drivers.

    v(k) is the velocity in effect on [t_k, t_{k+1}); v is nonincreasing and
    y is the exact integral of that step function, hence concave.
    """

    y: SampledPath
    v: SampledPath
    impulse_K: float
    v0: float
    n: int

    def __post_init__(self):
        require_same_grid(self.y, self.v)
        if self.y.values[0] != 0.0:
            raise InvalidInputError("barrier must start at y(0) = 0")
        if self.v.values[0] != self.v0:
            raise InvalidInputError("v(0) must equal v0")
        scale = 1.0 + abs(self.v0)
        if np.any(np.diff(self.v.values) > 1e-12 * scale):
            raise InvalidInputError("barrier velocity must be nonincreasing")


@dataclass(frozen=True)
class GammaResult:
    """Output of the coupled barrier map.

    m[i] and x[i] are the regulator and reflected path of driver i against
    the returned barrier; eps_used is the lattice width of the velocity
    updates.  refine_gap and tol_reached are populated by
    `solve_gamma_refined`.
    """

    barrier: BarrierTrajectory
    m: PathBundle
    x: PathBundle
    eps_used: float
    refine_gap: float | None = None
    tol_reached: bool = True


class BarrierRecursion:
    """The lattice recursion of the coupled map, run over consecutive time blocks.

    n drivers on `nsteps` steps of dt; the velocity is refreshed from the
    regulators every `stride` steps.  Each `run` takes the drivers of the next
    block of steps and fills in y, v and that block's regulators.  Blocks of
    any lengths give the values one block over the whole horizon gives, bit
    for bit.
    """

    def __init__(self, n: int, nsteps: int, dt: float, v0: float, K: float, stride: int = 1):
        self.n, self.dt, self.v0, self.K, self.stride = n, dt, v0, K, stride
        self.y = np.empty(nsteps + 1)
        self.y[0] = 0.0
        self.v = np.empty(nsteps + 1)
        self.k = 0  # the step that the next block starts at
        self._slope = v0

    def run(self, ft: np.ndarray, m: np.ndarray) -> None:
        """Advance over steps k..k+b, given the drivers ft (b+1, n) on them.

        Row j of ft and of m is step k+j, one value per driver.  The
        regulators are written into m; its row 0 must hold those at step k,
        except in the first block, where they come from ft[0].  Raises
        InvalidInputError when the barrier leaves the float64 range.
        """
        y, v, dt, v0, k0 = self.y, self.v, self.dt, self.v0, self.k
        b = ft.shape[0] - 1
        scale = self.K / self.n
        slope = self._slope
        with np.errstate(over="ignore", invalid="ignore"):
            if k0 == 0:
                np.maximum(y[0] - ft[0], 0.0, out=m[0])
            for j, k in enumerate(range(k0, k0 + b)):
                if k > 0 and k % self.stride == 0:
                    slope = v0 - scale * float(np.add.reduce(m[j]))
                y[k + 1] = y[k] + slope * dt
                np.maximum(m[j], y[k + 1] - ft[j + 1], out=m[j + 1])
            block = slice(k0, k0 + b + 1)
            v[block] = v0 - scale * np.add.reduce(m, axis=1)
        if not (np.all(np.isfinite(y[block])) and np.all(np.isfinite(v[block]))):
            raise InvalidInputError(
                f"barrier values must be finite: v0 = {v0} or K = {self.K} overflows float64"
            )
        self._slope, self.k = slope, k0 + b

    def barrier(self, t0: float = 0.0) -> BarrierTrajectory:
        """The barrier over the whole horizon, once every block has run."""
        return BarrierTrajectory(
            y=SampledPath(t0, self.dt, self.y), v=SampledPath(t0, self.dt, self.v),
            impulse_K=float(self.K), v0=float(self.v0), n=self.n,
        )


def _validate_drivers(f: PathBundle | Sequence[SampledPath]) -> PathBundle:
    if len(f) == 0:
        raise InvalidInputError("need at least one driver path")
    drivers = PathBundle.of(f)
    if np.any(drivers.values[:, 0] < 0.0):
        raise InvalidInputError("drivers must start at or above the barrier: f_i(0) >= 0")
    return drivers


def solve_gamma(
    f: PathBundle | Sequence[SampledPath],
    v0: float,
    K: float,
    eps: float | None = None,
) -> GammaResult:
    """Run the lattice construction of the coupled barrier map.

    The whole horizon is one block of `BarrierRecursion`.

    Parameters
    ----------
    f : PathBundle or sequence of SampledPath
        Drivers on one common grid with f_i(0) >= 0.  A bundle is used as
        is; a sequence is stacked into one.
    v0 : float
        Initial barrier velocity.
    K : float
        Impulse constant, >= 0.
    eps : float, optional
        Velocity-update lattice width; must be an integer multiple of the
        grid step.  Defaults to the grid step itself (the finest choice).
    """
    if not (np.isfinite(K) and K >= 0.0):
        raise InvalidInputError(f"impulse constant K must be >= 0, got {K}")
    if not np.isfinite(v0):
        raise InvalidInputError("v0 must be finite")
    drivers = _validate_drivers(f)
    t0, dt = drivers.t0, drivers.dt
    n, nsteps = len(drivers), drivers.n_steps

    if eps is None:
        eps = dt
    stride = round(eps / dt)
    if stride < 1 or abs(eps / dt - stride) > 1e-9 * stride:
        raise InvalidInputError(f"eps={eps} must be a positive integer multiple of dt={dt}")
    eps = stride * dt

    # Time-major layout keeps the per-step row operations contiguous.  The
    # copy is ours: it becomes the reflected paths in place below.
    ft = np.array(drivers.values.T, order="C")  # (N+1, n)
    m = np.empty_like(ft)
    recursion = BarrierRecursion(n, nsteps, dt, v0, K, stride)
    recursion.run(ft, m)
    x = np.add(ft, m, out=ft)
    return GammaResult(
        barrier=recursion.barrier(t0), m=PathBundle(t0, dt, m.T), x=PathBundle(t0, dt, x.T),
        eps_used=eps,
    )


def solve_gamma_refined(
    f: PathBundle | Sequence[SampledPath],
    v0: float,
    K: float,
    tol: float = 1e-3,
) -> GammaResult:
    """Refine the lattice width until the barrier stops moving.

    Runs `solve_gamma` at eps = dt*2^j for decreasing j and stops once the
    sup-distance between consecutive barriers is <= tol, returning the finer
    of the two.  If even eps = dt leaves a gap above tol the finest result
    is returned with tol_reached = False.
    """
    if not (tol > 0):
        raise InvalidInputError(f"tol must be positive, got {tol}")
    f = _validate_drivers(f)
    dt, nsteps = f.dt, f.n_steps
    j = int(math.floor(math.log2(nsteps)))  # coarsest level: eps covers the horizon

    prev = solve_gamma(f, v0, K, eps=dt * 2**j)
    gap = None
    while j > 0:
        j -= 1
        cur = solve_gamma(f, v0, K, eps=dt * 2**j)
        gap = float(np.max(np.abs(cur.barrier.y.values - prev.barrier.y.values)))
        if gap <= tol:
            return replace(cur, refine_gap=gap, tol_reached=True)
        prev = cur
    # eps is down to dt and the last gap (if any) still exceeds tol.
    return replace(prev, refine_gap=gap, tol_reached=False)


def lipschitz_envelope(eta: float, n: int, K: float, T: float) -> tuple[float, float]:
    """Stability envelopes of the coupled map under driver perturbations.

    For two driver families whose summed sup-distances total eta, the
    velocity and barrier responses differ by at most

        vbound = (K * eta / n) * exp(K * T)
        ibound = (K * eta / n) * T * exp(K * T)

    respectively.  Returns (vbound, ibound).
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if K < 0 or eta < 0 or T <= 0:
        raise InvalidInputError("need K >= 0, eta >= 0, T > 0")
    base = K * eta / n * math.exp(K * T)
    return base, base * T


def refinement_bound(norm_f_sum: float, n: int, K: float, T: float, eps: float) -> float:
    """Upper bound on the barrier change when halving the lattice width.

    For drivers with summed sup-norms norm_f_sum, barriers computed at
    lattice widths eps and eps/2 (or any finer) differ by at most

        ((2 + K) * norm_f_sum / n) * eps * exp(K * T).

    Valid for v0 <= 0.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    try:
        growth = math.exp(K * T)
    except OverflowError:  # K*T beyond log(float max), about 709.78
        growth = math.inf
    return (2.0 + K) * norm_f_sum / n * eps * growth


def velocity_envelope(barrier: BarrierTrajectory, m, x) -> tuple[float, float]:
    """Measured and guaranteed bounds on the velocity excursion.

    `m` and `x` are the regulator and reflected path bundles (as in a
    GammaResult, or a particle-system trajectory).  Returns (measured, bound)
    where measured = sup_k |v(k) - v0| and

        bound = (K/n) * sum_i sup_k max(-(f_i(k) - v0*t_k), 0) + K*max(v0,0)*T.

    The bound uses only the drivers and the initial velocity: the barrier
    never exceeds the line v0*t, so each regulator is dominated by the
    deficit against that line.  It sums over every driver, so m and x must
    hold all n of them.
    """
    if not len(m) == len(x) == barrier.n:
        raise InvalidInputError(
            f"the velocity envelope needs all {barrier.n} paths, got {len(x)} and {len(m)}"
        )
    K, v0 = barrier.impulse_K, barrier.v0
    v = barrier.v.values
    y = barrier.y
    t = y.times - y.t0
    f = x.values - m.values
    deficits = np.maximum(np.max(v0 * t - f, axis=1), 0.0)
    total = sum(deficits.tolist())  # summed driver by driver, in order
    T = y.t_end - y.t0
    bound = K / len(x) * total + K * max(v0, 0.0) * T
    measured = float(np.max(np.abs(v - v0)))
    return measured, bound
