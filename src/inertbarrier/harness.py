"""Convergence and validation studies.

Each study returns a list of frozen row objects; rerunning with the same
arguments reproduces the rows bitwise.  Replicate r of a study derives its
randomness from entropy (seed, r), so tables are independent of execution
order.  The `hydro`, `chaos` and `gamma-rate` subcommands pass an optional
config key only when the config sets it, so the defaults and input checks
below are the command line's too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NumericalError
from .gamma import refinement_bound, solve_gamma, velocity_envelope
from .meanfield import solve_limit_pde
from .particles import (
    InitialDistribution,
    SimConfig,
    check_seed,
    sample_brownian,
    simulate,
    snapshot,
)
from .wasserstein import wp_vs_density

__all__ = [
    "HydroRow",
    "ChaosRow",
    "RateRow",
    "RATE_LEVELS",
    "SELFTEST_CONFIGS",
    "replicate_seed",
    "hydro_convergence",
    "chaos_test",
    "gamma_rate_study",
    "fitted_decay_rate",
    "invariant_sweep",
]

RATE_LEVELS = range(4, 13)  # the lattice levels of `gamma_rate_study`: widths T*2^-4..T*2^-12
SELFTEST_CONFIGS = 50  # the random configurations `invariant_sweep` simulates


def replicate_seed(seed, rep: int) -> int:
    """Deterministic 64-bit seed for replicate rep of a study."""
    seed = check_seed(seed)
    return int(np.random.SeedSequence(entropy=(seed, rep)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class HydroRow:
    n: int
    mean_w1: float
    sd_w1: float
    mean_sup_gap: float
    sd_sup_gap: float


@dataclass(frozen=True)
class ChaosRow:
    n: int
    corr: float
    ci_halfwidth: float


@dataclass(frozen=True)
class RateRow:
    level: int
    eps: float
    gap: float
    bound: float


def hydro_convergence(
    base: SimConfig,
    n_list,
    reps: int,
    dx: float = 5e-3,
    dt_pde: float | None = None,
) -> list[HydroRow]:
    """Distance from the n-particle system to its mean-field limit.

    For each n, over `reps` replicates: the order-1 Wasserstein distance
    between the final empirical measure and the limiting density, and the
    sup-distance between the simulated and limiting barriers.  Replicate r
    runs on `replicate_seed(base.seed, r)`.  The limit is solved once with
    `solve_limit_pde` on space step dx and time step dt_pde (dx^2 when None).
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InvalidInputError("n_list must name at least one system size")
    if any(b > a for a, b in zip(n_list[1:], n_list)):
        raise InvalidInputError("n_list must be ascending")
    if reps < 2:
        raise InvalidInputError("need reps >= 2 for spread estimates")
    if dt_pde is None:
        dt_pde = dx * dx
    limit = solve_limit_pde(base.init, base.v0, base.K, base.T, dt_pde, dx)
    density_T = limit.density_at(base.T)
    t_sim = base.dt * np.arange(base.n_steps + 1)
    y_lim = np.interp(t_sim, limit.y.times, limit.y.values)

    rows = []
    for n in n_list:
        w1 = np.empty(reps)
        gap = np.empty(reps)
        for r in range(reps):
            traj = simulate(replace(base, n=n, seed=replicate_seed(base.seed, r)), keep=0)
            w1[r] = wp_vs_density(snapshot(traj, base.T), density_T)
            gap[r] = float(np.max(np.abs(traj.barrier.y.values - y_lim)))
        rows.append(
            HydroRow(
                n=n, mean_w1=float(w1.mean()), sd_w1=float(w1.std(ddof=1)),
                mean_sup_gap=float(gap.mean()), sd_sup_gap=float(gap.std(ddof=1)),
            )
        )
    return rows


def chaos_test(
    base: SimConfig,
    pair: tuple[int, int] = (1, 2),
    n_list=(100, 1000, 10000),
    reps: int = 200,
) -> list[ChaosRow]:
    """Decorrelation of a tagged particle pair as n grows.

    `pair` holds exactly two 1-based particle labels i < j <= min(n_list).
    Within one replicate the same initial positions and Brownian drivers are
    reused for every n (particle i's stream does not depend on n), so the
    rows expose pure system-size effects; replicate r refreshes all streams
    from `replicate_seed(base.seed, r)`.
    """
    pair = tuple(int(p) for p in pair)
    if len(pair) != 2:
        raise InvalidInputError(f"pair must name two particle labels, got {pair}")
    i, j = pair
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InvalidInputError("n_list must name at least one system size")
    if not (1 <= i < j <= min(n_list)):
        raise InvalidInputError(f"pair {pair} must satisfy 1 <= i < j <= min(n_list)")
    if reps < 3:
        raise InvalidInputError("need reps >= 3")

    rep_seeds = [replicate_seed(base.seed, r) for r in range(reps)]
    rows = []
    for n in n_list:
        xi_vals = np.empty(reps)
        xj_vals = np.empty(reps)
        for r in range(reps):
            x_final = simulate(replace(base, n=n, seed=rep_seeds[r]), keep=0).final
            xi_vals[r] = x_final[i - 1]
            xj_vals[r] = x_final[j - 1]
        with np.errstate(all="ignore"):
            corr = float(np.corrcoef(xi_vals, xj_vals)[0, 1])
        if not math.isfinite(corr):
            raise NumericalError(
                f"correlation at n = {n} is undefined: the final positions of particles "
                f"{i} and {j} have zero or non-finite spread over {reps} replicates"
            )
        rows.append(ChaosRow(n=n, corr=corr, ci_halfwidth=1.96 / math.sqrt(reps)))
    return rows


def gamma_rate_study(
    K: float = 1.0,
    v0: float = 0.0,
    n: int = 8,
    T: float = 1.0,
    seed=0,
) -> list[RateRow]:
    """Refinement gaps of the barrier map against the guaranteed bound.

    For each level l of RATE_LEVELS the gap is the sup-distance between
    barriers computed at lattice widths T*2^-l and T*2^-(l+1); the bound
    column is `refinement_bound` at eps = T*2^-l.  The drivers are n
    Brownian paths from 0 on the finest grid, drawn from `seed`.  The bound
    is proved only for v0 <= 0, so a larger v0 is rejected.
    """
    if not v0 <= 0:
        raise InvalidInputError(f"the refinement bound holds only for v0 <= 0, got v0 = {v0}")
    lmax = RATE_LEVELS[-1] + 1
    f = sample_brownian(n, T, T / 2**lmax, seed)
    norm_sum = sum(np.max(np.abs(f.values), axis=1).tolist())  # sup norms, in order
    nf = len(f)

    barriers = {}
    for l in range(RATE_LEVELS[0], lmax + 1):
        barriers[l] = solve_gamma(f, v0, K, eps=T / 2**l).barrier.y.values

    rows = []
    for l in RATE_LEVELS:
        gap = float(np.max(np.abs(barriers[l] - barriers[l + 1])))
        rows.append(
            RateRow(
                level=l, eps=T / 2**l, gap=gap,
                bound=refinement_bound(norm_sum, nf, K, T, T / 2**l),
            )
        )
    return rows


def fitted_decay_rate(rows: list[RateRow]) -> float:
    """Geometric-mean gap ratio per level (0.5 = clean first-order decay)."""
    gaps = [r.gap for r in rows]
    if any(g <= 0 for g in gaps) or len(gaps) < 2:
        raise InvalidInputError("need at least two positive gaps to fit a rate")
    return float((gaps[-1] / gaps[0]) ** (1.0 / (len(gaps) - 1)))


# ---------------------------------------------------------------------------
# Structural invariant sweep (the selftest body)
# ---------------------------------------------------------------------------

_SWEEP_TOL = 1e-9


def _check_trajectory(traj, label: str) -> list[str]:
    traj.require_all_paths("the invariant checks")
    bad = []
    v = traj.barrier.v.values
    y = traj.barrier.y.values
    scale = 1.0 + abs(traj.config.v0)
    if np.any(np.diff(v) > 1e-12 * scale):
        bad.append(f"{label}: barrier velocity increased")
    # second differences of the stored y carry one addition rounding per step
    y_slack = 1e-12 * scale * traj.config.dt + 8 * np.finfo(float).eps * (1 + np.max(np.abs(y)))
    if y.size >= 3 and np.any(np.diff(y, 2) > y_slack):
        bad.append(f"{label}: barrier position not concave")
    crossed = np.flatnonzero(np.any(traj.particles.values < y - _SWEEP_TOL, axis=1))
    if crossed.size:
        bad.append(f"{label}: particle {crossed[0] + 1} crossed the barrier")
    m = traj.m.values
    falling = np.flatnonzero((m[:, 0] < -_SWEEP_TOL) | np.any(np.diff(m) < -1e-12, axis=1))
    if falling.size:
        bad.append(f"{label}: regulator {falling[0] + 1} not nondecreasing from 0")
    measured, bound = velocity_envelope(traj.barrier, traj.m, traj.particles)
    if measured > bound + _SWEEP_TOL:
        bad.append(f"{label}: velocity excursion {measured:.3e} above envelope {bound:.3e}")
    return bad


def _random_config(rng: np.random.Generator, seed_val: int) -> SimConfig:
    n = int(rng.integers(1, 65))
    steps = int(rng.integers(32, 257))
    dt = float(rng.choice([1e-3, 2e-3, 5e-3, 1e-2]))
    T = steps * dt
    K = float(rng.uniform(0.0, 2.0))
    v0 = float(rng.uniform(-1.0, 1.0))
    kind = rng.integers(0, 4)
    if kind == 0:
        init = InitialDistribution.delta(float(rng.uniform(0.0, 2.0)))
    elif kind == 1:
        a = float(rng.uniform(0.0, 1.0))
        init = InitialDistribution.uniform(a, a + float(rng.uniform(0.1, 2.0)))
    elif kind == 2:
        init = InitialDistribution.exponential(float(rng.uniform(0.5, 3.0)))
    else:
        init = InitialDistribution.half_normal(float(rng.uniform(0.3, 2.0)))
    return SimConfig(n=n, T=T, dt=dt, K=K, v0=v0, init=init, seed=seed_val)


def invariant_sweep(seed=0) -> list[str]:
    """Simulate SELFTEST_CONFIGS random configs and collect invariant violations.

    Checks per run: nonincreasing velocity, concave barrier, particles
    above the barrier, nondecreasing regulators, and the velocity-excursion
    envelope.  Returns a list of violation descriptions (empty = pass).
    """
    seed = check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2**32)))
    violations = []
    for c in range(SELFTEST_CONFIGS):
        cfg = _random_config(rng, replicate_seed(seed, c))
        label = (
            f"config {c} (n={cfg.n}, T={cfg.T:.3g}, dt={cfg.dt:.3g}, K={cfg.K:.3g}, "
            f"v0={cfg.v0:.3g}, init={cfg.init.kind})"
        )
        violations.extend(_check_trajectory(simulate(cfg), label))
    return violations
