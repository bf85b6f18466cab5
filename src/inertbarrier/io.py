"""CSV artifact writers and the flat key = value config format.

Floats are written with repr (shortest round-trip form), so rerunning a
deterministic computation reproduces every file byte for byte.
"""
from __future__ import annotations

import math
import os
from dataclasses import astuple, fields

import numpy as np

from .errors import InvalidInputError
from .particles import InitialDistribution, SimConfig

__all__ = [
    "write_trajectory",
    "write_snapshot",
    "write_density_field",
    "write_field_barrier",
    "write_limit_barrier",
    "write_table",
    "parse_config",
    "load_config",
    "config_float",
    "config_int",
    "config_int_list",
    "init_from_dict",
    "sim_config_from_dict",
]

MAX_EXPORT_PARTICLES = 32


def _fmt(v) -> str:
    return repr(float(v))


def _write_blocks(path, header: str, blocks) -> None:
    """The header line, then each ready-made text block, one write per block."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(blocks)


def _write_rows(path, header: str, rows) -> None:
    _write_blocks(path, header, (",".join(row) + "\n" for row in rows))


def _write_columns(path, header: str, *cols) -> None:
    cols = [np.asarray(c, dtype=np.float64).tolist() for c in cols]
    _write_rows(path, header, (map(repr, row) for row in zip(*cols)))


def write_trajectory(path, traj) -> None:
    """Header t,Y,V,X1..Xk with the first k <= 32 particle paths."""
    k = min(len(traj.particles), MAX_EXPORT_PARTICLES)
    header = "t,Y,V," + ",".join(f"X{i}" for i in range(1, k + 1))
    y, v = traj.barrier.y, traj.barrier.v
    _write_columns(path, header, y.times, y.values, v.values, *traj.particles.values[:k])


def write_snapshot(path, t: float, measure) -> None:
    """Header t,atom_index,position; atom_index is 1-based over sorted atoms."""
    ts = _fmt(t)
    rows = ((ts, str(idx), repr(pos)) for idx, pos in enumerate(measure.atoms.tolist(), start=1))
    _write_rows(path, "t,atom_index,position", rows)


def write_density_field(path, field) -> None:
    """Long-format header t,x,u; x is the barrier-frame offset grid.

    Each x and each t is formatted once; one write per time row keeps memory flat.
    """
    xs = [repr(x) for x in field.x_grid.tolist()]
    blocks = (
        "".join([f"{ts},{x},{u!r}\n" for x, u in zip(xs, row_u.tolist())])
        for ts, row_u in zip(map(repr, field.times.tolist()), field.u)
    )
    _write_blocks(path, "t,x,u", blocks)


def write_field_barrier(path, field) -> None:
    """Header t,y,yprime for the free boundary of a density field."""
    _write_columns(path, "t,y,yprime", field.y.times, field.y.values, field.yprime.values)


def write_limit_barrier(path, barrier) -> None:
    """Header t,y,v for a Monte Carlo limit barrier."""
    _write_columns(path, "t,y,v", barrier.y.times, barrier.y.values, barrier.v.values)


def write_table(path, rows) -> None:
    """One line per dataclass row under a header of its field names.

    Ints are written with str and floats with repr.  rows must not be empty.
    """
    _write_rows(
        path,
        ",".join(f.name for f in fields(rows[0])),
        ([str(v) if isinstance(v, int) else _fmt(v) for v in astuple(r)] for r in rows),
    )


# ---------------------------------------------------------------------------
# Config files: one `key = value` per line, `#` starts a comment
# ---------------------------------------------------------------------------

CONFIG_KEYS = frozenset(
    {
        "n", "T", "dt", "K", "v0", "init.kind", "init.params",
        "M", "dt_pde", "dx", "x_max", "tol", "max_iter",
        "n_list", "reps", "pair",
    }
)


def parse_config(text: str) -> dict[str, str]:
    """Parse config text into a raw string map; validates key names only."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise InvalidInputError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    if not os.path.isfile(path):
        raise InvalidInputError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config(fh.read())


def _convert(cfg: dict[str, str], key: str, conv, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise InvalidInputError(f"missing config key {key!r}")
    try:
        return conv(cfg[key])
    except InvalidInputError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"config key {key!r}: {exc}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def config_float(cfg, key, default=None) -> float:
    return _convert(cfg, key, _finite, default)


def config_int(cfg, key, default=None) -> int:
    return _convert(cfg, key, int, default)


def config_int_list(cfg, key, default=None) -> list[int]:
    return _convert(cfg, key, lambda s: [int(p) for p in s.split(",")], default)


def init_from_dict(cfg: dict[str, str]) -> InitialDistribution:
    kind = cfg.get("init.kind")
    if kind is None:
        raise InvalidInputError("missing config key 'init.kind'")
    params = cfg.get("init.params", "")
    if kind == "sample_file":
        if not params:
            raise InvalidInputError("init.kind sample_file needs init.params = <path>")
        return InitialDistribution.from_file(params)
    try:
        values = [float(p) for p in params.split(",")] if params else []
    except ValueError as exc:
        raise InvalidInputError(f"init.params: {exc}") from exc
    want = {"delta": 1, "uniform": 2, "exponential": 1, "half_normal": 1}
    if kind not in want:
        raise InvalidInputError(f"unknown init.kind {kind!r}")
    if len(values) != want[kind]:
        raise InvalidInputError(
            f"init.kind {kind} needs {want[kind]} value(s) in init.params, got {len(values)}"
        )
    if kind == "delta":
        return InitialDistribution.delta(values[0])
    if kind == "uniform":
        return InitialDistribution.uniform(values[0], values[1])
    if kind == "exponential":
        return InitialDistribution.exponential(values[0])
    return InitialDistribution.half_normal(values[0])


def sim_config_from_dict(cfg: dict[str, str], seed) -> SimConfig:
    """Build a SimConfig from parsed config text plus an external seed."""
    return SimConfig(
        n=config_int(cfg, "n"),
        T=config_float(cfg, "T"),
        dt=config_float(cfg, "dt"),
        K=config_float(cfg, "K"),
        v0=config_float(cfg, "v0"),
        init=init_from_dict(cfg),
        seed=seed,
    )
