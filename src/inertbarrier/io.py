"""CSV artifact writers and the flat key = value config format.

Floats are written with repr (shortest round-trip form), so rerunning a
deterministic computation reproduces every file byte for byte.  A config
value is read by the reader of its key's name: an int, a finite float or a
comma-separated int list.  Which keys a config may set is the caller's
choice (`cli._SUBCOMMANDS`); `parse_config` rejects any other.
"""
from __future__ import annotations

import math
from dataclasses import astuple, fields

import numpy as np

from .errors import InvalidInputError
from .particles import InitialDistribution

__all__ = [
    "write_trajectory",
    "write_snapshot",
    "write_density_field",
    "write_field_barrier",
    "write_limit_barrier",
    "write_table",
    "parse_config",
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

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


# The reader of each config key; init.kind and init.params are read together
# into one InitialDistribution by _initial_law.
_READERS = {
    "n": int, "M": int, "max_iter": int, "reps": int,
    "T": _finite, "dt": _finite, "K": _finite, "v0": _finite, "tol": _finite,
    "dt_pde": _finite, "dx": _finite, "x_max": _finite,
    "n_list": _int_list, "pair": _int_list,
}


def _initial_law(kind: str, params: str) -> InitialDistribution:
    """Initial law of init.kind and init.params (a path for sample_file, else numbers)."""
    if kind == "sample_file":
        return InitialDistribution(kind, path=params)
    try:
        values = tuple(float(p) for p in params.split(",")) if params else ()
    except ValueError as exc:
        raise InvalidInputError(f"init.params: {exc}") from exc
    return InitialDistribution(kind, values)


def parse_config(text: str, required, optional=()) -> dict:
    """Typed values of the keys in config text, by key name.

    Every key in `required` must be set, and every key set must be in
    `required` or `optional`.  A line without `=`, a duplicate key and a value
    its key's reader rejects also raise InvalidInputError.  init.kind and
    init.params come back as one InitialDistribution under `init`.
    """
    allowed = {*required, *optional}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise InvalidInputError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise InvalidInputError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    for key in required:
        if key not in out:
            raise InvalidInputError(f"missing config key {key!r}")
    cfg = {}
    if "init.kind" in out:
        cfg["init"] = _initial_law(out.pop("init.kind"), out.pop("init.params", ""))
    for key, value in out.items():
        try:
            cfg[key] = _READERS[key](value)
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: {exc}") from exc
    return cfg
