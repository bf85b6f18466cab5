"""Command-line entry point.

Every subcommand reads a flat key = value config file, takes its randomness
from --seed, and writes CSV artifacts only inside --out.  Exit codes:
0 success, 1 input error, 2 numerical failure, 3 selftest violations.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import InvalidInputError, NumericalError
from .harness import chaos_test, gamma_rate_study, hydro_convergence, invariant_sweep
from .io import (
    MAX_EXPORT_PARTICLES,
    config_float,
    config_int,
    config_int_list,
    init_from_dict,
    load_config,
    sim_config_from_dict,
    write_density_field,
    write_field_barrier,
    write_limit_barrier,
    write_snapshot,
    write_table,
    write_trajectory,
)
from .meanfield import consistency_check, density_fixed_barrier, solve_limit_mc, solve_limit_pde
from .particles import simulate, snapshot
from .paths import SampledPath, uniform_grid

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our input-error path
    def error(self, message):
        raise InvalidInputError(message)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="inertbarrier",
        description="Brownian particles pushing an inert barrier: simulation, "
        "mean-field solvers, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "run the n-particle system and export trajectory + final snapshot",
        "limit-mc": "solve the mean-field barrier by Monte Carlo fixed point",
        "limit-pde": "solve the free-boundary density in the moving frame",
        "density": "evolve the density above the prescribed barrier y = v0*t",
        "hydro": "empirical-measure convergence table over n",
        "chaos": "pair-correlation decay table over n",
        "gamma-rate": "barrier-map refinement gaps against the guaranteed bound",
        "selftest": "structural invariants on 50 random configs",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=_seed, default=0, help="integer seed >= 0 (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _require_config(args) -> dict[str, str]:
    if args.config is None:
        raise InvalidInputError(f"{args.command} requires --config")
    return load_config(args.config)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_simulate(args) -> int:
    cfg = _require_config(args)
    sc = sim_config_from_dict(cfg, args.seed)
    traj = simulate(sc, keep=MAX_EXPORT_PARTICLES)
    traj_path = _outpath(args, "trajectory.csv")
    snap_path = _outpath(args, "snapshot.csv")
    write_trajectory(traj_path, traj)
    write_snapshot(snap_path, sc.T, snapshot(traj, sc.T))
    _say(args, f"n={sc.n} T={sc.T} Y(T)={traj.barrier.y.values[-1]:.6g} "
               f"V(T)={traj.barrier.v.values[-1]:.6g}")
    _say(args, f"wrote {traj_path}, {snap_path}")
    return 0


def _cmd_limit_mc(args) -> int:
    cfg = _require_config(args)
    lim = solve_limit_mc(
        init=init_from_dict(cfg),
        v0=config_float(cfg, "v0"),
        K=config_float(cfg, "K"),
        T=config_float(cfg, "T"),
        dt=config_float(cfg, "dt"),
        M=config_int(cfg, "M"),
        seed=args.seed,
        tol=config_float(cfg, "tol", 1e-3),
        max_iter=config_int(cfg, "max_iter", 60),
    )
    path = _outpath(args, "barrier_mc.csv")
    write_limit_barrier(path, lim)
    _say(args, f"converged in {lim.iterations} sweeps, residual {lim.residual:.3e}")
    _say(args, f"wrote {path}")
    return 0


def _pde_args(cfg):
    kwargs = dict(
        init=init_from_dict(cfg),
        T=config_float(cfg, "T"),
        dt_pde=config_float(cfg, "dt_pde"),
        dx=config_float(cfg, "dx"),
    )
    if "x_max" in cfg:
        kwargs["x_max"] = config_float(cfg, "x_max")
    return kwargs


def _cmd_limit_pde(args) -> int:
    cfg = _require_config(args)
    kwargs = _pde_args(cfg)
    field = solve_limit_pde(
        v0=config_float(cfg, "v0"), K=config_float(cfg, "K"), **kwargs
    )
    dens_path = _outpath(args, "density.csv")
    barr_path = _outpath(args, "barrier_pde.csv")
    write_density_field(dens_path, field)
    write_field_barrier(barr_path, field)
    report = consistency_check(field)
    _say(args, f"y(T)={field.y.values[-1]:.6g} mass drift {field.mass_drift:.3e} "
               f"free-boundary residual {report.max_residual:.3e}")
    _say(args, f"wrote {dens_path}, {barr_path}")
    return 0


def _cmd_density(args) -> int:
    cfg = _require_config(args)
    kwargs = _pde_args(cfg)
    v0, dt = config_float(cfg, "v0"), kwargs["dt_pde"]
    g = SampledPath(0.0, dt, v0 * dt * np.arange(uniform_grid(kwargs["T"], dt) + 1))
    field = density_fixed_barrier(g, **kwargs)
    dens_path = _outpath(args, "density.csv")
    barr_path = _outpath(args, "barrier.csv")
    write_density_field(dens_path, field)
    write_field_barrier(barr_path, field)
    _say(args, f"mass drift {field.mass_drift:.3e}")
    _say(args, f"wrote {dens_path}, {barr_path}")
    return 0


def _cmd_hydro(args) -> int:
    cfg = _require_config(args)
    rows = hydro_convergence(
        base=sim_config_from_dict(cfg, args.seed),
        n_list=config_int_list(cfg, "n_list"),
        reps=config_int(cfg, "reps"),
        seed=args.seed,
        dx=config_float(cfg, "dx", 5e-3),
        dt_pde=config_float(cfg, "dt_pde") if "dt_pde" in cfg else None,
    )
    path = _outpath(args, "hydro.csv")
    write_table(path, rows)
    for r in rows:
        _say(args, f"n={r.n}: W1 {r.mean_w1:.4f} (sd {r.sd_w1:.4f}), "
                   f"supY gap {r.mean_sup_gap:.4f} (sd {r.sd_sup_gap:.4f})")
    _say(args, f"wrote {path}")
    return 0


def _cmd_chaos(args) -> int:
    cfg = _require_config(args)
    pair = config_int_list(cfg, "pair", [1, 2])
    if len(pair) != 2:
        raise InvalidInputError("pair must be two comma-separated particle labels")
    rows = chaos_test(
        base=sim_config_from_dict(cfg, args.seed),
        pair=(pair[0], pair[1]),
        n_list=config_int_list(cfg, "n_list"),
        reps=config_int(cfg, "reps"),
        seed=args.seed,
    )
    path = _outpath(args, "chaos.csv")
    write_table(path, rows)
    for r in rows:
        _say(args, f"n={r.n}: corr {r.corr:+.4f} (ci {r.ci_halfwidth:.4f})")
    _say(args, f"wrote {path}")
    return 0


def _cmd_gamma_rate(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    v0 = config_float(cfg, "v0", 0.0)
    if v0 > 0:
        raise InvalidInputError(f"the refinement bound holds only for v0 <= 0, got v0 = {v0}")
    rows = gamma_rate_study(
        K=config_float(cfg, "K", 1.0),
        v0=v0,
        n=config_int(cfg, "n", 8),
        T=config_float(cfg, "T", 1.0),
        seed=args.seed,
    )
    path = _outpath(args, "gamma_rate.csv")
    write_table(path, rows)
    bad = [r.level for r in rows if r.gap > r.bound]
    for r in rows:
        _say(args, f"level {r.level}: gap {r.gap:.3e} bound {r.bound:.3e}")
    _say(args, f"wrote {path}")
    if bad:
        print(f"refinement gap exceeds bound at levels {bad}", file=sys.stderr)
        return 2
    return 0


def _cmd_selftest(args) -> int:
    violations = invariant_sweep(num_configs=50, seed=args.seed)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"selftest: {len(violations)} violation(s)", file=sys.stderr)
        return 3
    _say(args, "selftest: 50 configs, all structural invariants hold")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "limit-mc": _cmd_limit_mc,
    "limit-pde": _cmd_limit_pde,
    "density": _cmd_density,
    "hydro": _cmd_hydro,
    "chaos": _cmd_chaos,
    "gamma-rate": _cmd_gamma_rate,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
