"""Mean-field limit of the particle system.

Two independent solvers for the limiting barrier:

* `solve_limit_mc` runs a Picard iteration on the sampled fixed point

      v(t) = v0 - K * mean_j sup_{u<=t} max(-(xi_j + B_j(u) - y(u)), 0),
      y(t) = integral_0^t v,

  with common random numbers.  The map contracts on windows shorter than
  sqrt(2/K); windows of length 0.9*sqrt(2/K) are chained by restart.  Each
  path keeps a checkpoint at the start of the current window (its stream
  state, B and its running regulator), so a sweep draws only the window's
  steps, in cache-sized blocks of paths.  The drivers of the leading paths
  are kept over the window: they are drawn when it opens, which moves their
  checkpoints to the window's end, and every sweep reads them.  A converged
  window ends with one commit pass against the final barrier, which gives
  m_mean there and moves the other checkpoints to the window's end.

* `solve_limit_pde` evolves the density in the frame attached to the
  barrier, u(t, x) = p(t, x + y(t)) for x >= 0:

      u_t = (1/2) u_xx + y'(t) u_x,      u_x(t,0) = -2 y'(t) u(t,0),
      y'' = -(K/2) u(t, 0),              y(0) = 0, y'(0) = v0.

  Crank-Nicolson in time, one LAPACK gtsv call per step; space is
  discretized in flux form, where the boundary condition is exactly a
  zero-flux wall.  The far node x_max keeps
  its initial value, so the trapezoidal mass is conserved to rounding only
  while no mass reaches it and no undershoot is clipped.  Dirac initial data
  is mollified by the exact reflected heat kernel run to t = 10*dt_pde.

`density_fixed_barrier` is the same stepper with a prescribed barrier and
no feedback; `consistency_check` measures how well a density field solves
the coupled law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InvalidInputError, MassDriftError, NumericalError
from .gamma import check_barrier_parameters, overflow_error
from .particles import DriverCheckpoints, InitialDistribution
from .paths import MAX_SAMPLES, SampledPath, uniform_grid
from .wasserstein import GridDensity

__all__ = [
    "DensityField",
    "LimitBarrier",
    "ConsistencyReport",
    "reflected_heat_kernel",
    "solve_limit_mc",
    "solve_limit_pde",
    "density_fixed_barrier",
    "consistency_check",
]

# Fraction of the contraction window sqrt(2/K) used per Picard window.
WINDOW_SAFETY = 0.9

# Abort when the trapezoidal mass drifts further than this from 1.
MASS_DRIFT_LIMIT = 1e-3

# An undershoot of u below this is reported (values are clipped either way).
CLIP_REPORT_LEVEL = -1e-10

# A density solver over N steps stores every s-th slice, s the largest divisor of N
# at most max(1, N // STORE_TARGET): 1 001 slices at N = 40 000, all N + 1 at a prime N.
STORE_TARGET = 1000

# `consistency_check` calls a field a free-boundary solution below this residual.
CONSISTENCY_THRESHOLD = 0.02

# A Picard sweep sums the regulators of this many paths at a time.  The value
# fixes the order of the sum, and with it the last bits of the barrier.
_SWEEP_CHUNK = 4096
# It works through a chunk in blocks of this many paths, which stay in cache
# (1.3 MB over a window of 1 272 steps), ...
_SWEEP_BLOCK = 128
# ... and keeps the drivers of the leading paths over the current window: this
# many paths over the longest window, more over a shorter one.  They are drawn
# when the window opens and every sweep reads them.  Cache and block
# together take no more memory than one chunk over the longest window.
_SWEEP_CACHE = 3840


def reflected_heat_kernel(t: float, x, x0: float):
    """Density at time t of a Brownian particle from x0 >= 0 reflected at 0."""
    x = np.asarray(x, dtype=np.float64)
    c = 1.0 / math.sqrt(2.0 * math.pi * t)
    return c * (np.exp(-((x - x0) ** 2) / (2 * t)) + np.exp(-((x + x0) ** 2) / (2 * t)))


@dataclass(frozen=True)
class LimitBarrier:
    """Limiting barrier: position, velocity, and the mean regulator estimate."""

    y: SampledPath
    v: SampledPath
    m_mean: SampledPath
    iterations: int
    residual: float


@dataclass(frozen=True)
class DensityField:
    """Moving-frame density u(t, x) with the barrier that generated it.

    u[k, j] is the density at times[k], frame offset x_grid[j] (absolute
    position x_grid[j] + y(times[k])).  y and yprime are sampled on the
    same output time grid as u.
    """

    times: np.ndarray = field(repr=False)
    x_grid: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    y: SampledPath
    yprime: SampledPath
    impulse_K: float
    mass_drift: float = 0.0
    clip_events: int = 0

    def density_at(self, t: float) -> GridDensity:
        """Absolute-frame density slice at output time t."""
        k = self.y.index_of(t)
        return GridDensity(
            x0=float(self.y.values[k]), dx=float(self.x_grid[1] - self.x_grid[0]),
            weights=self.u[k],
        )


@dataclass(frozen=True)
class ConsistencyReport:
    """Residual of the coupled velocity law for a density field."""

    max_residual: float

    @property
    def free_boundary(self) -> bool:
        return self.max_residual <= CONSISTENCY_THRESHOLD


# ---------------------------------------------------------------------------
# Monte Carlo fixed point
# ---------------------------------------------------------------------------


def _mean_regulator_sweep(
    y: np.ndarray, drivers: DriverCheckpoints, M: int, nsteps: int, reg: np.ndarray,
    cache: np.ndarray, block: np.ndarray, advance: bool = False,
) -> np.ndarray:
    """mean_j over M paths of the running regulator against barrier y on steps k..k+nsteps.

    `drivers` resume at step k, y holds the barrier on steps k..k+nsteps and
    reg[j] is path j's running regulator at step k, which stands in for
    column 0; it is >= 0, so the running maximum needs no clamp at 0.  The
    regulators are summed per chunk of `_SWEEP_CHUNK` paths, and each chunk
    is worked through in blocks of `_SWEEP_BLOCK` paths in `block`: rows 1..
    hold the block's paths and row 0 the chunk's sum so far, so one
    reduction per block adds the paths in row order.

    `cache` (c, nsteps+1) holds f = xi + B of paths 0..c-1 on these steps.
    Paths c.. are drawn every time; with advance=True their checkpoints move
    on to step k+nsteps, and reg moves on for every path.
    """
    width = nsteps + 1
    total = np.zeros(width)
    for lo in range(0, M, _SWEEP_CHUNK):
        hi = min(M, lo + _SWEEP_CHUNK)
        part = np.zeros(width)
        for b0 in range(lo, hi, _SWEEP_BLOCK):
            b1 = min(hi, b0 + _SWEEP_BLOCK)
            rows = block[: (b1 - b0 + 1) * width].reshape(b1 - b0 + 1, width)
            f = rows[1:]
            split = min(max(len(cache), b0), b1)  # paths b0..split-1 are in the cache
            np.subtract(y[None, :], cache[b0:split], out=f[: split - b0])
            drawn = drivers.window(split, b1, nsteps, f[split - b0 :], advance)
            np.subtract(y[None, :], drawn, out=drawn)
            f[:, 0] = reg[b0:b1]
            np.maximum.accumulate(f, axis=1, out=f)
            if advance:
                reg[b0:b1] = f[:, -1]
            rows[0] = part
            np.add.reduce(rows, axis=0, out=part)
        total += part
    return total / M


def _window_bounds(nsteps: int, dt: float, K: float) -> list[tuple[int, int]]:
    if K == 0.0:
        return [(0, nsteps)]
    w = WINDOW_SAFETY * math.sqrt(2.0 / K)  # inf when K is subnormal
    steps = max(1, math.floor(min(w / dt, nsteps)))
    bounds = []
    k0 = 0
    while k0 < nsteps:
        k1 = min(nsteps, k0 + steps)
        bounds.append((k0, k1))
        k0 = k1
    return bounds


def solve_limit_mc(
    init: InitialDistribution,
    v0: float,
    K: float,
    T: float,
    dt: float,
    M: int,
    seed,
    tol: float = 1e-3,
    max_iter: int = 60,
    y_init=None,
) -> LimitBarrier:
    """Fixed point of the sampled mean-field barrier map.

    Parameters
    ----------
    init : InitialDistribution
        Law of the initial positions (support in [0, inf)).
    v0, K, T, dt : float
        Barrier parameters and grid.
    M : int
        Number of Monte Carlo paths (common random numbers across sweeps).
        Each path's checkpoint and running regulator hold 56 bytes, so
        memory grows with M on top of a driver cache of `_SWEEP_CACHE`
        paths and one block of `_SWEEP_BLOCK` paths over the longest window.
    seed
        Path j's stream depends only on (seed, j).
    tol : float
        Convergence threshold on the sup-change of y per Picard sweep.
    max_iter : int
        Sweep budget per window.  `limit-mc` passes tol and max_iter only
        when its config sets them, so these defaults are the CLI's too.
    y_init : optional
        Starting guess: a callable t -> y evaluated on the run grid, or None
        for the free line v0*t (the no-feedback solution, so K = 0 converges
        in a single sweep).

    Returns
    -------
    LimitBarrier
        With v = v0 - K * m_mean against the final barrier: each converged
        window's m_mean comes from an uncounted commit pass, which also
        moves the paths' checkpoints to the window's end.  iterations counts
        the Picard updates and residual is the sup-change of the last one.
    """
    check_barrier_parameters(K, v0)
    if M < 1:
        raise InvalidInputError("M must be >= 1")
    if not (tol > 0) or max_iter < 1:
        raise InvalidInputError("need tol > 0 and max_iter >= 1")
    nsteps = uniform_grid(T, dt)
    times = dt * np.arange(nsteps + 1)

    if y_init is None:
        y = v0 * times
    elif callable(y_init):
        y = np.asarray([y_init(t) for t in times], dtype=np.float64)
        if not (np.all(np.isfinite(y)) and y[0] == 0):
            raise InvalidInputError("initial guess must be finite and start at y(0) = 0")
    else:
        raise InvalidInputError("y_init must be None or a callable t -> y")

    windows = _window_bounds(nsteps, dt, K)
    width = max(k1 - k0 for k0, k1 in windows) + 1
    drivers = DriverCheckpoints(init, seed, M, dt)
    reg = np.zeros(M)  # running regulators at the start of the current window
    cache_buf = np.empty(min(_SWEEP_CACHE, M) * width)
    block = np.empty((min(_SWEEP_BLOCK, M) + 1) * width)
    m_mean = np.empty(nsteps + 1)
    iterations = 0
    residual = 0.0
    for k0, k1 in windows:
        rows = min(M, cache_buf.size // (k1 - k0 + 1))
        cache = cache_buf[: rows * (k1 - k0 + 1)].reshape(rows, k1 - k0 + 1)
        drivers.window(0, rows, k1 - k0, cache, advance=True)
        prev_resid = math.inf
        for _ in range(max_iter):
            with np.errstate(over="ignore", invalid="ignore"):
                m_win = _mean_regulator_sweep(
                    y[k0 : k1 + 1], drivers, M, k1 - k0, reg, cache, block
                )
                v = v0 - K * m_win
                y_new = y.copy()
                y_new[k0 + 1 : k1 + 1] = y[k0] + np.cumsum(0.5 * dt * (v[:-1] + v[1:]))
                residual = float(np.max(np.abs(y_new[k0 : k1 + 1] - y[k0 : k1 + 1])))
            iterations += 1
            if not (np.all(np.isfinite(y_new[k0 : k1 + 1])) and math.isfinite(residual)):
                raise overflow_error(f"v0 = {v0} or K = {K}")
            if residual > prev_resid:
                y = 0.5 * (y + y_new)  # damp oscillating updates
            else:
                y = y_new
            prev_resid = residual
            if residual <= tol:
                break
        else:
            raise ConvergenceError(
                f"Picard window [{times[k0]:.6g}, {times[k1]:.6g}] stalled at "
                f"residual {residual:.3e} > tol {tol:.3e} after {max_iter} sweeps",
                residual=residual,
            )
        # Commit: m_mean against the final barrier on this window; the
        # checkpoints of the paths outside the cache move to k1 for the next one.
        m_mean[k0 : k1 + 1] = _mean_regulator_sweep(
            y[k0 : k1 + 1], drivers, M, k1 - k0, reg, cache, block, advance=True
        )

    v = v0 - K * m_mean
    return LimitBarrier(
        y=SampledPath(0.0, dt, y),
        v=SampledPath(0.0, dt, v),
        m_mean=SampledPath(0.0, dt, m_mean),
        iterations=iterations,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Crank-Nicolson moving-frame solver
# ---------------------------------------------------------------------------


def _operator_coefficients(c: float, dx: float) -> tuple[float, float, float, float, float]:
    """Tridiagonal generator A(c) of the frame equation in flux form, as five numbers.

    Row j of A is (F_{j+1/2} - F_{j-1/2}) / cell_volume with flux
    F = u_x/2 + c*u.  Returns the interior row (lower, diag, upper) and row 0
    (diag0, upper0), where the wall flux F(0) vanishes by the boundary
    condition.  Row J is zero, so the far node keeps its initial value.  The
    advection part is centered unless the cell Peclet number 2*|c|*dx exceeds 2.
    """
    inv2 = 1.0 / (2.0 * dx * dx)
    invd = 1.0 / (dx * dx)
    if abs(c) * dx <= 1.0:  # centered advection
        adv = c / (2.0 * dx)
        return inv2 - adv, -invd, inv2 + adv, -invd + c / dx, invd + c / dx
    if c > 0.0:  # upwind, advected state from the right
        return inv2, -invd - c / dx, inv2 + c / dx, -invd, invd + 2.0 * c / dx
    return inv2 - c / dx, -invd + c / dx, inv2, -invd + 2.0 * c / dx, invd


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonal dl, d, du; returns x.

    One LAPACK gtsv call, the routine `scipy.linalg.solve_banded` runs for
    (1, 1) bands, without that wrapper's input validation: the caller checks
    that the operator is finite.  All four arrays are overwritten and x is
    `rhs`.  The function keeps scipy's name because `bench/spans.py` times
    and counts the Crank-Nicolson solves through `meanfield.solve_banded`.
    """
    from scipy.linalg.lapack import dgtsv  # here, so reading results back loads no scipy
    *_, x, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                        overwrite_b=1)
    if info:
        raise NumericalError(f"Crank-Nicolson matrix is singular (LAPACK gtsv info = {info})")
    return x


def _cn_step(u: np.ndarray, coefficients, h: float, bands, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - h*A) u_new = (I + h*A) u, with A given by `_operator_coefficients`.

    Entry j of the right-hand side is u_j + h*(diag*u_j), then
    + (h*upper)*u_{j+1}, then + (h*lower)*u_{j-1}, in that order.  `bands` =
    (dl, d, du) and `rhs` are filled in place; the products of the off-diagonal
    terms pass through dl and du before the bands are written.  Row J of A is
    zero, so the far node's rows are the identity's.  Returns u_new in `rhs`,
    so `rhs` must not be u.
    """
    lower, diag, upper, diag0, upper0 = coefficients
    dl, d, du = bands
    np.multiply(u, diag, out=rhs)
    rhs[0], rhs[-1] = diag0 * u[0], 0.0
    rhs *= h
    rhs += u
    rhs[0] += (h * upper0) * u[1]
    rhs[1:-1] += np.multiply(h * upper, u[2:], out=du[1:])
    rhs[1:-1] += np.multiply(h * lower, u[:-2], out=dl[:-1])
    du[0], du[1:] = -h * upper0, -h * upper
    d[0], d[1:-1], d[-1] = 1.0 - h * diag0, 1.0 - h * diag, 1.0
    dl[:-1], dl[-1] = -h * lower, 0.0
    return solve_banded(dl, d, du, rhs)


def _pick_stride(nsteps: int) -> int:
    s = max(1, nsteps // STORE_TARGET)
    while nsteps % s:
        s -= 1
    return s


def _trapezoid_weights(J: int, dx: float) -> np.ndarray:
    w = np.full(J + 1, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


class _FrameStepper:
    """Crank-Nicolson evolution of the frame density, shared by both density solvers.

    A Dirac initial law at c is mollified by the exact reflected kernel run to
    t_mol = k_start*dt_pde (k_start = 10, or the horizon if shorter), which
    assumes the barrier stays near 0 over [0, t_mol]; a law with a density
    starts at step 0 (u0 is the profile at step k_start).  A sample file has
    no density and is rejected.  `run` takes each step's frame velocity from
    a frame: `_FreeBoundary` or `_PrescribedBarrier`, and rejects a velocity
    whose operator is not finite.  The stepper owns the operator's three
    diagonals and two right-hand sides, which steps fill in place in turn.
    x_max defaults to the initial extent + 6*sqrt(T) + barrier_span.
    """

    def __init__(self, init: InitialDistribution, T: float, dt_pde: float, dx: float, x_max,
                 barrier_span: float):
        if not (dx > 0 and np.isfinite(dx)):
            raise InvalidInputError("dx must be positive")
        if not (0 < dt_pde <= dx * dx * (1 + 1e-9)):
            raise InvalidInputError(
                f"dt_pde must satisfy 0 < dt_pde <= dx^2 = {dx*dx:.3e}, got {dt_pde}"
            )
        self.nsteps = uniform_grid(T, dt_pde)
        if x_max is None:
            x_max = init.upper_extent() + 6.0 * math.sqrt(T) + barrier_span
        if not (x_max > dx and float(x_max) / dx < MAX_SAMPLES):
            raise InvalidInputError(f"x_max must exceed dx and give fewer than "
                                    f"{MAX_SAMPLES:.3g} nodes, got x_max = {x_max:.6g}")
        self.dt = dt_pde
        self.dx = dx
        self.J = int(round(x_max / dx))
        self.x = dx * np.arange(self.J + 1)
        self.weights = _trapezoid_weights(self.J, dx)
        self.stride = _pick_stride(self.nsteps)
        import scipy.linalg.lapack  # loads LAPACK here, so the first step times the solve alone
        # Two right-hand sides, used in turn: each step's solution is the next step's u.
        self.bands = (np.empty(self.J), np.empty(self.J + 1), np.empty(self.J))
        self.rhs = (np.empty(self.J + 1), np.empty(self.J + 1))
        self.min_u = 0.0
        self.clip_events = 0
        self.mass_drift = 0.0
        self.delta = init.atom
        self.k_start = 0 if self.delta is None else min(10, self.nsteps)
        self.u0 = self.monitor(self._initial_density(init))

    def monitor(self, u: np.ndarray) -> np.ndarray:
        low = float(u.min())
        if low < 0.0:
            if low < CLIP_REPORT_LEVEL:
                self.clip_events += 1
            self.min_u = min(self.min_u, low)
            u = np.maximum(u, 0.0)
        drift = abs(float(self.weights @ u) - 1.0)
        if not drift <= MASS_DRIFT_LIMIT:  # a NaN mass fails too
            raise MassDriftError(f"density mass drifted by {drift:.3e} (limit {MASS_DRIFT_LIMIT})")
        self.mass_drift = max(self.mass_drift, drift)
        return u

    def normalize(self, u: np.ndarray) -> np.ndarray:
        mass = float(self.weights @ u)
        if mass <= 0:
            raise InvalidInputError("initial density has nonpositive mass on the grid")
        return u / mass

    def kernel(self, t: float) -> np.ndarray:
        """The Dirac's exact reflected kernel at time t, zero at the far node, normalized."""
        u = reflected_heat_kernel(t, self.x, self.delta)
        u[-1] = 0.0
        return self.normalize(u)

    def _initial_density(self, init: InitialDistribution) -> np.ndarray:
        """Normalized density at step k_start on the frame grid."""
        if self.delta is not None:
            return self.kernel(self.k_start * self.dt)
        return self.normalize(init.density_on_grid(self.x))

    def run(self, frame) -> DensityField:
        """Step from k_start to the horizon and store every stride-th slice.

        Stored slices strictly inside the mollified span hold the exact
        kernel at their own time; slice 0 stands in for the Dirac with the
        profile that starts the scheme.
        """
        u = self.u0
        out = np.empty((self.nsteps // self.stride + 1, self.J + 1))
        out[0] = u
        if self.delta is not None:
            for r in range(self.stride, self.k_start + 1, self.stride):
                out[r // self.stride] = self.kernel(r * self.dt)
        h = 0.5 * self.dt
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
            for k in range(self.k_start, self.nsteps):
                c = frame.velocity(k)
                coefficients = _operator_coefficients(c, self.dx)
                if not all(map(math.isfinite, (c, *coefficients))):
                    raise overflow_error(frame.source)
                u = self.monitor(_cn_step(u, coefficients, h, self.bands, self.rhs[k % 2]))
                frame.observe(k + 1, u)
                if (k + 1) % self.stride == 0:
                    out[(k + 1) // self.stride] = u

        rows = np.arange(0, self.nsteps + 1, self.stride)
        dt_out = self.stride * self.dt
        return DensityField(
            times=self.dt * rows.astype(np.float64),
            x_grid=self.x,
            u=out,
            y=SampledPath(0.0, dt_out, frame.y[rows]),
            yprime=SampledPath(0.0, dt_out, frame.yp[rows]),
            impulse_K=float(frame.K),
            mass_drift=self.mass_drift,
            clip_events=self.clip_events,
        )


def _delta_boundary_integral(c: float, t: float, substeps: int, dt: float) -> tuple[float, float]:
    """(integral_0^t u(s,0) ds, integral_0^t (t-s) u(s,0) ds) for kernel data.

    u(s, 0) = 2*phi_s(c).  For c = 0 the first integral is 2*sqrt(2t/pi)
    (closed form, integrable singularity at s = 0); otherwise the integrand
    vanishes at 0 and the trapezoid rule on the step grid is used.
    """
    if c == 0.0:
        i0 = 2.0 * math.sqrt(2.0 * t / math.pi)
        # integral of 2*sqrt(2s/pi) ds = (4/3)*sqrt(2/pi)*t^(3/2)
        i1 = t * i0 - (4.0 / 3.0) * math.sqrt(2.0 / math.pi) * t**1.5
        return i0, i1
    s = dt * np.arange(substeps + 1)
    vals = np.zeros(substeps + 1)
    vals[1:] = 2.0 * np.exp(-(c * c) / (2.0 * s[1:])) / np.sqrt(2.0 * math.pi * s[1:])
    i0 = float(np.trapezoid(vals, dx=dt))
    i1 = float(np.trapezoid((t - s) * vals, dx=dt))
    return i0, i1


class _FreeBoundary:
    """Frame velocity fed back from the density: y'' = -(K/2) u(t, 0)."""

    def __init__(self, v0: float, K: float, stepper: _FrameStepper):
        dt = stepper.dt
        self.K, self.dt = K, dt
        self.source = f"v0 = {v0} or K = {K}"
        self.y = np.zeros(stepper.nsteps + 1)
        self.yp = np.zeros(stepper.nsteps + 1)
        self.yp[0] = v0
        # Across the mollified span the barrier follows the exact kernel's
        # boundary values (the frame shift during [0, t_mol] is O(t_mol) and
        # ignored by the kernel).
        for k in range(1, stepper.k_start + 1):
            i0_k, i1_k = _delta_boundary_integral(stepper.delta, k * dt, k, dt)
            self.yp[k] = v0 - 0.5 * K * i0_k
            self.y[k] = v0 * (k * dt) - 0.5 * K * i1_k
        self.ypp = -0.5 * K * float(stepper.u0[0])  # a Python float overflows without a warning

    def velocity(self, k: int) -> float:
        return self.yp[k] + 0.5 * self.dt * self.ypp

    def observe(self, k: int, u: np.ndarray) -> None:
        """Take the density after step k-1 -> k; advance y', y to k (trapezoid rule)."""
        ypp = -0.5 * self.K * u[0]
        self.yp[k] = self.yp[k - 1] + 0.5 * self.dt * (self.ypp + ypp)
        self.y[k] = self.y[k - 1] + 0.5 * self.dt * (self.yp[k - 1] + self.yp[k])
        self.ypp = ypp


class _PrescribedBarrier:
    """Frame velocity of a given barrier path g, resampled on the step grid; no feedback."""

    K = 0.0
    source = "the prescribed barrier"

    def __init__(self, g: SampledPath, stepper: _FrameStepper):
        dt = stepper.dt
        self.y = np.interp(dt * np.arange(stepper.nsteps + 1), g.times, g.values)
        self.slopes = np.diff(self.y) / dt
        self.yp = np.gradient(self.y, dt)

    def velocity(self, k: int) -> float:
        return self.slopes[k]

    def observe(self, k: int, u: np.ndarray) -> None:
        pass


def solve_limit_pde(
    init: InitialDistribution,
    v0: float,
    K: float,
    T: float,
    dt_pde: float,
    dx: float,
    x_max: float | None = None,
) -> DensityField:
    """Free-boundary density solver in the barrier frame.

    Parameters
    ----------
    init : InitialDistribution
        Initial law, a delta or a law with a density.  A Dirac is mollified
        with the exact reflected kernel run to t = 10*dt_pde; laws with a
        density start at t = 0.
    v0, K, T : float
        Initial barrier velocity, impulse constant, horizon.
    dt_pde, dx : float
        Time step (requires dt_pde <= dx^2) and space step.
    x_max : float, optional
        Frame-domain width; defaults to initial extent + 6*sqrt(T) + |v0|*T.

    Returns
    -------
    DensityField
        Every s-th time slice of the N steps, s the largest divisor of N at
        most max(1, N // STORE_TARGET): N/s + 1 slices, all N + 1 at a prime N.
    """
    check_barrier_parameters(K, v0)
    stepper = _FrameStepper(init, T, dt_pde, dx, x_max, abs(v0) * T)
    return stepper.run(_FreeBoundary(v0, K, stepper))


def density_fixed_barrier(
    g: SampledPath,
    init: InitialDistribution,
    T: float,
    dt_pde: float,
    dx: float,
    x_max: float | None = None,
) -> DensityField:
    """Density of independent particles reflected above a prescribed barrier.

    Same frame stepper and initial laws as `solve_limit_pde` but the barrier
    path g is given (no feedback; the stored impulse constant is 0).  g must
    start at 0 at time 0 and cover [0, T]; its grid need not match dt_pde.
    x_max defaults to initial extent + 6*sqrt(T) + (max g - min g).  It stores
    the time slices `solve_limit_pde` stores: all N + 1 of them at a prime N.
    """
    if g.t0 != 0.0 or g.values[0] != 0.0:
        raise InvalidInputError("prescribed barrier must start at g(0) = 0")
    if g.t_end < T * (1 - 1e-12):
        raise InvalidInputError(f"prescribed barrier ends at {g.t_end}, need {T}")
    span = float(np.max(g.values) - np.min(g.values))
    stepper = _FrameStepper(init, T, dt_pde, dx, x_max, span)
    return stepper.run(_PrescribedBarrier(g, stepper))


def consistency_check(field: DensityField) -> ConsistencyReport:
    """Residual of the coupled law y'(t) = v0 - (K/2) * integral_0^t u(s, 0) ds.

    K is the field's `impulse_K`.  y' is recomputed from the stored barrier
    by second-order differences (so the check does not reuse the solver's
    own velocity bookkeeping) and the boundary integral by the trapezoid
    rule on the output grid.  Free boundary solutions give residuals of
    scheme order; a prescribed barrier that does not solve the law is
    flagged via `free_boundary`, against `CONSISTENCY_THRESHOLD`.
    """
    K = field.impulse_K
    y = field.y.values
    dt = field.y.dt
    if y.size < 3:
        raise InvalidInputError("need at least three output times")
    dy = np.empty_like(y)
    dy[1:-1] = (y[2:] - y[:-2]) / (2 * dt)
    dy[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * dt)
    dy[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * dt)

    u0 = field.u[:, 0]
    integ = np.concatenate(([0.0], np.cumsum(0.5 * dt * (u0[1:] + u0[:-1]))))
    v0 = field.yprime.values[0]
    residual = float(np.max(np.abs(dy - (v0 - 0.5 * K * integ))))
    return ConsistencyReport(max_residual=residual)
