"""Command-line entry point.

`_SUBCOMMANDS` is the one table of subcommands: each one's handler, help text
and the config keys it reads.  Each key of the flat key = value config
(`io.parse_config`) fills the library parameter, or the SimConfig field, of
its name; init.kind and init.params fill `init`.  A required key must be set,
an optional key left out is not passed, so the library default applies, and
any other key exits 1.  Every subcommand takes its randomness from --seed and
writes CSV artifacts only inside --out.  Exit codes: 0 success, 1 input
error, 2 numerical failure, 3 selftest violations.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError
from .harness import (
    SELFTEST_CONFIGS, chaos_test, gamma_rate_study, hydro_convergence, invariant_sweep
)
from .io import (
    MAX_EXPORT_PARTICLES,
    parse_config,
    write_density_field,
    write_field_barrier,
    write_limit_barrier,
    write_snapshot,
    write_table,
    write_trajectory,
)
from .meanfield import consistency_check, density_fixed_barrier, solve_limit_mc, solve_limit_pde
from .particles import SimConfig, simulate, snapshot
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
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.description, description=command.description)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=_seed, default=0, help="integer seed >= 0 (default 0)")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary lines on stdout")
    return parser


def _config(args, command: _Subcommand) -> dict:
    """The typed values of the config keys this invocation sets."""
    if command.required is None or (args.config is None and not command.required):
        return {}
    if args.config is None:
        raise InvalidInputError(f"{args.command} requires --config")
    with open(args.config, encoding="utf-8") as fh:
        try:
            return parse_config(fh.read(), command.required, command.optional)
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"config {args.config!r} is not UTF-8 text: {exc}") from None


def _study_args(args, cfg: dict) -> dict:
    """cfg's keys that name no SimConfig field, and `base`: the SimConfig of the others."""
    sim = {f.name: cfg.pop(f.name) for f in fields(SimConfig) if f.name in cfg}
    return dict(cfg, base=SimConfig(seed=args.seed, **sim))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write(args, outputs: dict, *lines: str) -> None:
    """Write each `name: (writer, *data)` of outputs into --out, then say lines and `wrote ...`."""
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for name, (writer, *data) in outputs.items():
        paths.append(os.path.join(args.out, name))
        writer(paths[-1], *data)
    for line in (*lines, f"wrote {', '.join(paths)}"):
        _say(args, line)


def _cmd_simulate(args, cfg) -> int:
    sc = SimConfig(seed=args.seed, **cfg)
    traj = simulate(sc, keep=MAX_EXPORT_PARTICLES)
    _write(args, {
        "trajectory.csv": (write_trajectory, traj),
        "snapshot.csv": (write_snapshot, sc.T, snapshot(traj, sc.T)),
    }, f"n={sc.n} T={sc.T} Y(T)={traj.barrier.y.values[-1]:.6g} "
       f"V(T)={traj.barrier.v.values[-1]:.6g}")
    return 0


def _cmd_limit_mc(args, cfg) -> int:
    lim = solve_limit_mc(seed=args.seed, **cfg)
    _write(args, {"barrier_mc.csv": (write_limit_barrier, lim)},
           f"converged in {lim.iterations} sweeps, residual {lim.residual:.3e}")
    return 0


def _cmd_limit_pde(args, cfg) -> int:
    field = solve_limit_pde(**cfg)
    report = consistency_check(field)
    _write(args, {
        "density.csv": (write_density_field, field),
        "barrier_pde.csv": (write_field_barrier, field),
    }, f"y(T)={field.y.values[-1]:.6g} mass drift {field.mass_drift:.3e} "
       f"free-boundary residual {report.max_residual:.3e}")
    return 0


def _cmd_density(args, cfg) -> int:
    v0, dt = cfg.pop("v0"), cfg["dt_pde"]
    g = SampledPath(0.0, dt, v0 * dt * np.arange(uniform_grid(cfg["T"], dt) + 1))
    field = density_fixed_barrier(g, **cfg)
    _write(args, {
        "density.csv": (write_density_field, field),
        "barrier.csv": (write_field_barrier, field),
    }, f"mass drift {field.mass_drift:.3e}")
    return 0


def _cmd_hydro(args, cfg) -> int:
    rows = hydro_convergence(**_study_args(args, cfg))
    _write(args, {"hydro.csv": (write_table, rows)}, *(
        f"n={r.n}: W1 {r.mean_w1:.4f} (sd {r.sd_w1:.4f}), "
        f"supY gap {r.mean_sup_gap:.4f} (sd {r.sd_sup_gap:.4f})" for r in rows
    ))
    return 0


def _cmd_chaos(args, cfg) -> int:
    rows = chaos_test(**_study_args(args, cfg))
    _write(args, {"chaos.csv": (write_table, rows)},
           *(f"n={r.n}: corr {r.corr:+.4f} (ci {r.ci_halfwidth:.4f})" for r in rows))
    return 0


def _cmd_gamma_rate(args, cfg) -> int:
    rows = gamma_rate_study(seed=args.seed, **cfg)
    _write(args, {"gamma_rate.csv": (write_table, rows)},
           *(f"level {r.level}: gap {r.gap:.3e} bound {r.bound:.3e}" for r in rows))
    bad = [r.level for r in rows if r.gap > r.bound]
    if bad:
        print(f"refinement gap exceeds bound at levels {bad}", file=sys.stderr)
        return 2
    return 0


def _cmd_selftest(args, cfg) -> int:
    violations = invariant_sweep(seed=args.seed)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"selftest: {len(violations)} violation(s)", file=sys.stderr)
        return 3
    _say(args, f"selftest: {SELFTEST_CONFIGS} configs, all structural invariants hold")
    return 0


class _Subcommand(NamedTuple):
    """A row of `_SUBCOMMANDS`; required None reads no config, () lets --config be left out."""

    handler: Callable[..., int]
    description: str
    required: tuple[str, ...] | None
    optional: tuple[str, ...] = ()


_INIT = ("init.kind", "init.params")
_SIM = ("n", "T", "dt", "K", "v0", *_INIT)
_SUBCOMMANDS = {
    "simulate": _Subcommand(
        _cmd_simulate, "run the n-particle system and export trajectory + final snapshot", _SIM
    ),
    "limit-mc": _Subcommand(
        _cmd_limit_mc, "solve the mean-field barrier by Monte Carlo fixed point",
        ("T", "dt", "K", "v0", "M", *_INIT), ("tol", "max_iter"),
    ),
    "limit-pde": _Subcommand(
        _cmd_limit_pde, "solve the free-boundary density in the moving frame",
        ("T", "dt_pde", "dx", "K", "v0", *_INIT), ("x_max",),
    ),
    "density": _Subcommand(
        _cmd_density, "evolve the density above the prescribed barrier y = v0*t",
        ("T", "dt_pde", "dx", "v0", *_INIT), ("x_max",),
    ),
    "hydro": _Subcommand(
        _cmd_hydro, "empirical-measure convergence table over n",
        (*_SIM, "n_list", "reps"), ("dx", "dt_pde"),
    ),
    "chaos": _Subcommand(
        _cmd_chaos, "pair-correlation decay table over n", (*_SIM, "n_list", "reps"), ("pair",)
    ),
    "gamma-rate": _Subcommand(
        _cmd_gamma_rate, "barrier-map refinement gaps against the guaranteed bound",
        (), ("K", "v0", "n", "T"),
    ),
    "selftest": _Subcommand(
        _cmd_selftest, f"structural invariants on {SELFTEST_CONFIGS} random configs", None
    ),
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        command = _SUBCOMMANDS[args.command]
        return command.handler(args, _config(args, command))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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


if __name__ == "__main__":
    main()
