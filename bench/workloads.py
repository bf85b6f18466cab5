"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of `inertbarrier` CLI invocations.  The workload
seed is passed on as `--seed`.  Every shape below is fixed; only the
replicate count of `hydro` was chosen, as the smallest the CLI accepts, so
that passes stay short enough for several to fit in one run.

`size="tiny"` shrinks every invocation so the benchmark's own tests can run
each workload in seconds.  The checks are the same; where a tolerance depends
on the size (the W1 bound of `hydro`) the tiny value is given next to it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("long-horizon", "meanfield")
SIZES = ("full", "tiny")

# Tolerances shared with the acceptance criteria (criteria 6 and 9).
BARRIER_TOL = 1e-9
DENSITY_U11 = 0.45293          # reflected heat kernel from 1 at t = 1, x = 1
DENSITY_U11_TOL = 1e-3
MASS_DRIFT_TOL = 1e-4
CONSISTENCY_TOL = 0.02


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `inertbarrier <command> [--config <key>/config.txt] --seed <seed>`."""

    key: str
    command: str
    seed: int
    config: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)

    def argv(self, outdir: str) -> list[str]:
        argv = [self.command, "--seed", str(self.seed), "--out", outdir, "--quiet"]
        if self.config:
            argv += ["--config", os.path.join(outdir, "config.txt")]
        return argv

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


def _delta(c) -> dict:
    return {"init.kind": "delta", "init.params": c}


def _long_horizon(seed: int, tiny: bool) -> list[Invocation]:
    simulate = {"n": 10_000, "T": 1, "dt": 2.5e-4, "K": 1, "v0": 0,
                "init.kind": "half_normal", "init.params": 1.0}
    hydro = {"n": 1000, "T": 1, "dt": 2.5e-4, "K": 1, "v0": 0, **_delta(0),
             "n_list": "1000,10000", "reps": 2, "dx": 1e-2}
    w1_max = 0.05
    if tiny:
        simulate.update(n=200, dt=1e-2)
        hydro.update(n=100, dt=1e-2, n_list="100,1000", dx=2e-2)
        w1_max = 0.1
    return [
        Invocation("simulate", "simulate", seed, simulate),
        Invocation("hydro", "hydro", seed, hydro, {"w1_max": w1_max}),
    ]


def _meanfield(seed: int, tiny: bool) -> list[Invocation]:
    mc = {"T": 2, "dt": 1e-3, "K": 1, "v0": 0, "M": 10_000, **_delta(0)}
    pde = {"T": 1, "K": 1, "v0": 0, "dx": 5e-3, "dt_pde": 2.5e-5, **_delta(0)}
    density = {"T": 1, "v0": 0, "dx": 1e-2, "dt_pde": 1e-4, **_delta(1.0)}
    if tiny:
        mc.update(dt=1e-2, M=500)
        pde.update(T=0.25, dx=2e-2, dt_pde=4e-4)
        density.update(dx=5e-2, dt_pde=2.5e-3)
    return [
        Invocation("limit-mc", "limit-mc", seed, mc),
        Invocation("limit-pde", "limit-pde", seed, pde),
        Invocation("density", "density", seed, density),
    ]


_BUILDERS = {"long-horizon": _long_horizon, "meanfield": _meanfield}


def invocations(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """The fixed invocation list of one pass of `workload`."""
    return _BUILDERS[workload](seed, size == "tiny")


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages (empty = pass)
# ---------------------------------------------------------------------------


def _table(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_simulate(outdir: str, inv: Invocation) -> list[str]:
    bad = []
    header, traj = _table(os.path.join(outdir, "trajectory.csv"))
    y, v = traj[:, header.index("Y")], traj[:, header.index("V")]
    x = traj[:, 3:]
    if y[0] != 0.0:
        bad.append(f"Y(0) = {y[0]!r}, expected 0")
    if np.any(np.diff(v) > 0.0):
        bad.append("barrier velocity V increased")
    if x.shape[1] == 0 or np.any(x < y[:, None] - BARRIER_TOL):
        bad.append("an exported particle path is missing or below the barrier")
    _, snap = _table(os.path.join(outdir, "snapshot.csv"))
    if snap.shape[0] != inv.config["n"]:
        bad.append(f"snapshot has {snap.shape[0]} atoms, expected {inv.config['n']}")
    if np.any(snap[:, 0] != traj[-1, 0]) or np.any(snap[:, 2] < y[-1] - BARRIER_TOL):
        bad.append("snapshot is not at time T or has an atom below Y(T)")
    return bad


def _check_hydro(outdir: str, inv: Invocation) -> list[str]:
    header, rows = _table(os.path.join(outdir, "hydro.csv"))
    n_max = max(int(n) for n in inv.config["n_list"].split(","))
    last = rows[rows[:, 0] == n_max]
    w1_max = inv.limits["w1_max"]
    if last.shape[0] != 1 or not last[0, header.index("mean_w1")] <= w1_max:
        return [f"W1 at n={n_max} is not <= {w1_max}: {last.tolist()}"]
    return []


def _check_limit_mc(outdir: str, inv: Invocation) -> list[str]:
    _, rows = _table(os.path.join(outdir, "barrier_mc.csv"))
    bad = []
    if rows[0, 1] != 0.0:
        bad.append("limit barrier does not start at y(0) = 0")
    if np.any(np.diff(rows[:, 2]) > 0.0):
        bad.append("limit barrier velocity v increased")
    return bad


def _density_table(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, x grid, u) of a long-format density.csv, u shaped (times, x)."""
    _, rows = _table(path)
    nx = int(np.argmax(rows[1:, 0] != rows[0, 0])) + 1
    u = rows[:, 2].reshape(-1, nx)
    return rows[::nx, 0], rows[:nx, 1], u


def _check_limit_pde(outdir: str, inv: Invocation) -> list[str]:
    from inertbarrier.meanfield import DensityField, consistency_check
    from inertbarrier.paths import SampledPath

    times, x, u = _density_table(os.path.join(outdir, "density.csv"))
    _, barrier = _table(os.path.join(outdir, "barrier_pde.csv"))
    dt = float(times[1] - times[0])
    field_ = DensityField(
        times=times, x_grid=x, u=u,
        y=SampledPath(0.0, dt, barrier[:, 1]), yprime=SampledPath(0.0, dt, barrier[:, 2]),
        impulse_K=float(inv.config["K"]),
    )
    residual = consistency_check(field_).max_residual
    if not residual <= CONSISTENCY_TOL:
        return [f"free-boundary residual {residual:.3e} > {CONSISTENCY_TOL}"]
    return []


def _check_density(outdir: str, inv: Invocation) -> list[str]:
    times, x, u = _density_table(os.path.join(outdir, "density.csv"))
    dx = float(x[1] - x[0])
    bad = []
    at_1 = np.flatnonzero(np.isclose(x, 1.0, rtol=0.0, atol=1e-9 * dx))
    if times[-1] != 1.0 or at_1.size != 1:
        bad.append("density.csv holds no value at t = 1, x = 1")
    elif not abs(u[-1, at_1[0]] - DENSITY_U11) <= DENSITY_U11_TOL:
        bad.append(f"u(1,1) = {u[-1, at_1[0]]!r}, expected {DENSITY_U11} +- {DENSITY_U11_TOL}")
    weights = np.full(x.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    drift = float(np.max(np.abs(u @ weights - 1.0)))
    if not drift <= MASS_DRIFT_TOL:
        bad.append(f"mass drift {drift:.3e} over the stored rows > {MASS_DRIFT_TOL}")
    return bad


_CHECKS = {
    "simulate": _check_simulate,
    "hydro": _check_hydro,
    "limit-mc": _check_limit_mc,
    "limit-pde": _check_limit_pde,
    "density": _check_density,
}


def check(inv: Invocation, outdir: str, exit_code: int) -> list[str]:
    """Failures of one invocation: a non-zero exit, or its outputs' check."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKS[inv.command](outdir, inv)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


def mc_pde_gap(mc_dir: str, pde_dir: str) -> float:
    """sup |y_mc - y_pde| over the times both barriers cover."""
    _, mc = _table(os.path.join(mc_dir, "barrier_mc.csv"))
    _, pde = _table(os.path.join(pde_dir, "barrier_pde.csv"))
    inside = mc[:, 0] <= pde[-1, 0] * (1 + 1e-12)
    y_pde = np.interp(mc[inside, 0], pde[:, 0], pde[:, 1])
    return float(np.max(np.abs(mc[inside, 1] - y_pde)))
