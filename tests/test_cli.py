"""Exit codes, artifact layout, and byte-stable output of the command line."""
import inspect
import os
import subprocess
import sys
import warnings

import pytest

from inertbarrier import cli
from inertbarrier.cli import _SUBCOMMANDS, run
from inertbarrier.gamma import BarrierRecursion
from inertbarrier.harness import (
    RateRow,
    chaos_test,
    gamma_rate_study,
    hydro_convergence,
    invariant_sweep,
)
from inertbarrier.meanfield import density_fixed_barrier, solve_limit_mc, solve_limit_pde
from inertbarrier.particles import SimConfig


def write_config(path, text):
    path.write_text(text)
    return str(path)


SIM_CONFIG = """\
# small coupled system
n = 6
T = 0.25
dt = 0.0078125
K = 1.0
v0 = 0.0
init.kind = delta
init.params = 0.5
"""


@pytest.fixture
def sim_config(tmp_path):
    return write_config(tmp_path / "sim.cfg", SIM_CONFIG)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["simulate", "--help"]) == 0
    capsys.readouterr()


def test_missing_and_bad_usage_exit_one(tmp_path, capsys):
    assert run(["simulate"]) == 1  # no --config
    assert run(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert run(["simulate", "--seed", "abc"]) == 1
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def test_config_errors_exit_one(tmp_path, sim_config, capsys):
    bad_key = write_config(tmp_path / "a.cfg", SIM_CONFIG + "bogus = 1\n")
    assert run(["simulate", "--config", bad_key, "--quiet"]) == 1
    dup = write_config(tmp_path / "b.cfg", SIM_CONFIG + "n = 7\n")
    assert run(["simulate", "--config", dup, "--quiet"]) == 1
    no_eq = write_config(tmp_path / "c.cfg", SIM_CONFIG + "just words\n")
    assert run(["simulate", "--config", no_eq, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err


def test_threads_option_is_gone(tmp_path, sim_config, capsys):
    assert run(["simulate", "--config", sim_config, "--out", str(tmp_path), "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


def test_memory_error_exits_one_with_a_message(tmp_path, sim_config, capsys, monkeypatch):
    def exhausted(config, keep=None):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(1000000, 10001) and data type float64")

    monkeypatch.setattr("inertbarrier.cli.simulate", exhausted)
    assert run(["simulate", "--config", sim_config, "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "74.5 GiB" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


# The keys of a tiny run of each subcommand, each one a key that subcommand reads.
PDE_KEYS = {"T": "0.05", "dt_pde": "1e-4", "dx": "1e-2", "K": "1.0", "v0": "0.5",
            "init.kind": "exponential", "init.params": "2.0"}
DENSITY_KEYS = {k: v for k, v in PDE_KEYS.items() if k != "K"}
MC_KEYS = {"T": "0.25", "dt": "0.015625", "K": "0.5", "v0": "0.0", "M": "200",
           "init.kind": "delta", "init.params": "0.0"}
SIM_KEYS = {"n": "20", "T": "0.25", "dt": "0.0078125", "K": "1.0", "v0": "0.0",
            "init.kind": "delta", "init.params": "0.5"}
HYDRO_KEYS = {**SIM_KEYS, "n_list": "20", "reps": "2", "dx": "2e-2"}
CHAOS_KEYS = {**SIM_KEYS, "n_list": "20", "reps": "3"}
BASE_KEYS = {"density": DENSITY_KEYS, "limit-pde": PDE_KEYS, "limit-mc": MC_KEYS,
             "hydro": HYDRO_KEYS, "simulate": SIM_KEYS, "chaos": CHAOS_KEYS}

# Each bad value, and a fragment of the one error line its own rule gives.
BAD_VALUES = {
    ("density", "dt_pde", "0"): "0 < dt",
    ("density", "dt_pde", "nan"): "'dt_pde': must be finite",
    ("density", "T", "inf"): "'T': must be finite",
    ("density", "T", "-1"): "horizon T must be positive",
    ("density", "x_max", "inf"): "'x_max': must be finite",
    ("density", "v0", "inf"): "'v0': must be finite",
    ("density", "v0", "1e308"): "x_max must exceed dx",
    ("limit-pde", "x_max", "inf"): "'x_max': must be finite",
    ("limit-pde", "x_max", "1e308"): "got x_max = 1e+308",
    ("limit-pde", "v0", "inf"): "'v0': must be finite",
    ("limit-pde", "T", "-1"): "horizon T must be positive",
    ("limit-mc", "tol", "nan"): "'tol': must be finite",
    ("limit-mc", "v0", "inf"): "'v0': must be finite",
    ("limit-mc", "T", "1e308"): "T/dt = inf steps",
    ("limit-mc", "dt", "5e-324"): "T/dt = inf steps",
    ("limit-mc", "v0", "1e308"): "v0 = 1e+308 or K = 0.5 overflows float64",
    ("hydro", "dt_pde", "0"): "dt_pde must satisfy 0 < dt_pde <= dx^2",
    ("limit-pde", "init.params", "5e-324"): "got x_max = inf",
    ("density", "init.params", "5e-324"): "got x_max = inf",
    ("simulate", "v0", "1e308"): "v0 = 1e+308 or K = 1.0 overflows float64",
    ("chaos", "v0", "1e308"): "v0 = 1e+308 or K = 1.0 overflows float64",
    ("hydro", "v0", "1e308"): "x_max must exceed dx",
    ("chaos", "pair", "1"): "pair must name two particle labels",
}


@pytest.mark.parametrize("command, key, value", list(BAD_VALUES))
def test_bad_numeric_config_exits_one_with_one_line(tmp_path, capsys, command, key, value):
    keys = {**BASE_KEYS[command], key: value}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more line on stderr
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert BAD_VALUES[command, key, value] in err


@pytest.mark.parametrize("command, key, value", [
    ("hydro", "x_max", "3.0"),
    ("hydro", "tol", "1e-3"),
    ("chaos", "dx", "2e-2"),
    ("density", "K", "1.0"),
    ("simulate", "M", "200"),
])
def test_key_the_subcommand_never_reads_exits_one(tmp_path, capsys, command, key, value):
    keys = {**BASE_KEYS[command], key: value}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unknown key {key!r}" in err
    assert not (tmp_path / "out").exists()


# The callables that each subcommand's config keys are passed to, by name.
# density's v0 fills none: it is the slope of the prescribed barrier y = v0*t.
KEY_TARGETS = {
    "simulate": (SimConfig,),
    "limit-mc": (solve_limit_mc,),
    "limit-pde": (solve_limit_pde,),
    "density": (density_fixed_barrier,),
    "hydro": (SimConfig, hydro_convergence),
    "chaos": (SimConfig, chaos_test),
    "gamma-rate": (gamma_rate_study,),
}
FILLED_BY_THE_HANDLER = {"seed", "base", "g"}  # --seed, the SimConfig, density's barrier


def test_table_keys_are_the_parameters_of_the_callees():
    assert set(_SUBCOMMANDS) == set(KEY_TARGETS) | {"selftest"}
    assert _SUBCOMMANDS["selftest"].required is None
    for command, fns in KEY_TARGETS.items():
        entry = _SUBCOMMANDS[command]
        required = {"init" if k.startswith("init.") else k for k in entry.required}
        optional = set(entry.optional)
        params = [p for fn in fns for p in inspect.signature(fn).parameters.values()]
        names = {p.name for p in params} | ({"v0"} if command == "density" else set())
        assert required | optional <= names, command
        needed = {p.name for p in params if p.default is p.empty} - FILLED_BY_THE_HANDLER
        assert needed <= required, command


def test_limit_pde_overflowing_barrier_exits_one_with_one_line(tmp_path, capsys):
    keys = {"T": "1.0", "K": "1.7e308", "v0": "0.0", "dx": "5e-2", "dt_pde": "2.5e-3",
            "init.kind": "delta", "init.params": "0.0"}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more line on stderr
        assert run(["limit-pde", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err and "Traceback" not in err


def test_limit_mc_non_finite_initial_positions_exit_one_without_outputs(tmp_path, capsys):
    # exponential(5e-324) has mean 1/rate = inf: every drawn position is inf
    keys = {**MC_KEYS, "init.kind": "exponential", "init.params": "5e-324"}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more line on stderr
        assert run(["limit-mc", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: initial positions must be finite\n"
    assert not (out / "barrier_mc.csv").exists()


def test_limit_pde_failed_report_exits_one_without_outputs(tmp_path, capsys):
    # one step gives two output times; the consistency check needs three
    keys = {**PDE_KEYS, "T": "1e-4", "dt_pde": "1e-4"}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    assert run(["limit-pde", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: need at least three output times\n"
    assert not out.exists()


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "inertbarrier.cli", "limit-mc"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stderr == "error: limit-mc requires --config\n"


@pytest.mark.parametrize("command", ["simulate", "limit-mc", "hydro", "chaos", "selftest"])
def test_negative_seed_exits_one_with_one_line(tmp_path, capsys, command):
    keys = BASE_KEYS.get(command, {})
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    argv = [command, "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out"), "--quiet"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: argument --seed: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_out_naming_a_file_exits_one_with_one_line(tmp_path, sim_config, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_text() == "not a directory\n"


def test_config_that_is_not_utf8_exits_one_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "x.cfg"
    cfg.write_bytes(b"\xff\xfe" + SIM_CONFIG.encode())
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_outputs_are_byte_identical(tmp_path, sim_config, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate", "--config", sim_config, "--out", str(out1), "--quiet"]) == 0
    assert run(["simulate", "--config", sim_config, "--out", str(out2), "--quiet"]) == 0
    traj = (out1 / "trajectory.csv").read_bytes()
    assert traj == (out2 / "trajectory.csv").read_bytes()
    snap = (out1 / "snapshot.csv").read_bytes()
    assert snap == (out2 / "snapshot.csv").read_bytes()
    assert traj.splitlines()[0] == b"t,Y,V,X1,X2,X3,X4,X5,X6"
    assert snap.splitlines()[0] == b"t,atom_index,position"
    capsys.readouterr()


def test_simulate_seed_changes_output(tmp_path, sim_config, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(["simulate", "--config", sim_config, "--out", str(out1), "--quiet"])
    run(["simulate", "--config", sim_config, "--out", str(out2), "--seed", "1", "--quiet"])
    assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
    capsys.readouterr()


def test_writes_stay_inside_out(tmp_path, sim_config, capsys, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    out = tmp_path / "artifacts"
    assert run(["simulate", "--config", sim_config, "--out", str(out), "--quiet"]) == 0
    assert os.listdir(cwd) == []
    assert sorted(os.listdir(out)) == ["snapshot.csv", "trajectory.csv"]
    capsys.readouterr()


def test_limit_mc_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "mc.cfg", """\
T = 0.25
dt = 0.015625
K = 0.5
v0 = 0.0
M = 2000
tol = 0.01
init.kind = delta
init.params = 0.0
""")
    out = tmp_path / "out"
    assert run(["limit-mc", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "barrier_mc.csv").read_text().splitlines()
    assert lines[0] == "t,y,v"
    assert len(lines) == 18  # header + 17 grid points


def test_limit_mc_stall_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "mc.cfg", """\
T = 0.25
dt = 0.015625
K = 1.0
v0 = 0.0
M = 500
tol = 1e-15
max_iter = 2
init.kind = delta
init.params = 0.0
""")
    assert run(["limit-mc", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "residual" in capsys.readouterr().err


def test_limit_pde_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "pde.cfg", """\
T = 0.25
dt_pde = 4e-4
dx = 2e-2
K = 1.0
v0 = 0.0
init.kind = delta
init.params = 0.0
""")
    out = tmp_path / "out"
    assert run(["limit-pde", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    dens = (out / "density.csv").read_text().splitlines()
    barr = (out / "barrier_pde.csv").read_text().splitlines()
    assert dens[0] == "t,x,u"
    assert barr[0] == "t,y,yprime"
    last = barr[-1].split(",")
    assert float(last[0]) == 0.25
    assert float(last[1]) < 0.0  # barrier recedes under the impulse


def test_pde_mass_blowup_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "pde.cfg", """\
T = 1.0
dt_pde = 8e-4
dx = 3e-2
K = 0.0
v0 = 0.0
x_max = 1.5
init.kind = delta
init.params = 1.0
""")
    assert run(["limit-pde", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    assert "mass" in capsys.readouterr().err


def test_density_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "d.cfg", """\
T = 0.25
dt_pde = 4e-4
dx = 2e-2
v0 = -0.5
init.kind = half_normal
init.params = 1.0
""")
    out = tmp_path / "out"
    assert run(["density", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "density.csv").exists()
    barr = (out / "barrier.csv").read_text().splitlines()
    assert barr[0] == "t,y,yprime"
    t, y, yp = map(float, barr[-1].split(","))
    assert y == pytest.approx(-0.5 * t, abs=1e-12)


def test_hydro_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "h.cfg", """\
n = 100
T = 0.25
dt = 0.0078125
K = 0.0
v0 = -0.25
init.kind = delta
init.params = 0.5
n_list = 100, 400
reps = 2
dx = 2e-2
dt_pde = 4e-4
""")
    out = tmp_path / "out"
    assert run(["hydro", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "hydro.csv").read_text().splitlines()
    assert lines[0] == "n,mean_w1,sd_w1,mean_sup_gap,sd_sup_gap"
    assert len(lines) == 3


def test_chaos_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", """\
n = 4
T = 0.25
dt = 0.03125
K = 0.5
v0 = 0.0
init.kind = delta
init.params = 0.0
n_list = 4, 8
reps = 5
pair = 1, 2
""")
    out = tmp_path / "out"
    assert run(["chaos", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "chaos.csv").read_text().splitlines()
    assert lines[0] == "n,corr,ci_halfwidth"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4, 8]
    assert all(abs(float(r[1])) <= 1.0 for r in rows)


def test_chaos_with_no_spread_exits_two_without_a_table(tmp_path, capsys):
    # v0 = 1e308 keeps a 4- or 8-particle barrier finite, but every final
    # position rounds to the same value, so no correlation exists.
    keys = {**CHAOS_KEYS, "v0": "1e308", "n_list": "4, 8"}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["chaos", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: correlation at n = 4 is undefined")
    assert err.count("\n") == 1
    assert not (out / "chaos.csv").exists()


def test_gamma_rate_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "g.cfg", "n = 2\nK = 1.0\nv0 = 0.0\nT = 1.0\n")
    out = tmp_path / "out"
    assert run(["gamma-rate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "gamma_rate.csv").read_text().splitlines()
    assert lines[0] == "level,eps,gap,bound"
    assert len(lines) == 10  # levels 4..12
    for line in lines[1:]:
        level, eps, gap, bound = line.split(",")
        assert float(gap) <= float(bound)
    capsys.readouterr()


def test_gamma_rate_positive_v0_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "g.cfg", "n = 2\nK = 1.0\nv0 = 0.5\nT = 1.0\n")
    out = tmp_path / "out"
    assert run(["gamma-rate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "only for v0 <= 0" in err
    assert not out.exists()


def test_gamma_rate_gap_above_bound_exits_two(tmp_path, capsys, monkeypatch):
    def over_bound(**kw):
        return [RateRow(level=4, eps=1 / 16, gap=0.1, bound=0.2),
                RateRow(level=5, eps=1 / 32, gap=0.3, bound=0.2)]

    monkeypatch.setattr("inertbarrier.cli.gamma_rate_study", over_bound)
    out = tmp_path / "out"
    assert run(["gamma-rate", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "refinement gap exceeds bound at levels [5]\n"
    assert len((out / "gamma_rate.csv").read_text().splitlines()) == 3


# Each subcommand's optional keys, the library function that owns their
# defaults, and the required keys of a tiny run.  hydro's dt_pde is left out:
# its default is dx^2, not a value a config can state.  At K = 2 the limit-mc
# barrier depends on tol: it takes 2, 3 and 4 sweeps at tol 1e-2, 1e-3, 1e-4.
OPTIONAL_KEYS = {
    "limit-mc": (solve_limit_mc, ("tol", "max_iter"), {**MC_KEYS, "K": "2.0"}),
    "hydro": (hydro_convergence, ("dx",),
              {**{k: v for k, v in HYDRO_KEYS.items() if k != "dx"}, "T": "0.0625"}),
    "chaos": (chaos_test, ("pair",), {**CHAOS_KEYS, "n_list": "4"}),
    "gamma-rate": (gamma_rate_study, ("K", "v0", "n", "T"), {}),
}


def _config_value(value):
    return ", ".join(map(str, value)) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("command", sorted(OPTIONAL_KEYS))
def test_omitted_keys_take_the_library_defaults(tmp_path, capsys, command):
    fn, keys, required = OPTIONAL_KEYS[command]
    defaults = {key: inspect.signature(fn).parameters[key].default for key in keys}
    assert None not in defaults.values()
    outputs = []
    for name, extra in (("omitted", {}), ("explicit", defaults)):
        keys_text = {**required, **{k: _config_value(v) for k, v in extra.items()}}
        cfg = write_config(tmp_path / f"{name}.cfg",
                           "".join(f"{k} = {v}\n" for k, v in keys_text.items()))
        out = tmp_path / name
        assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outputs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
    assert outputs[0] and outputs[0] == outputs[1]


def test_selftest_violations_exit_three(capsys, monkeypatch):
    found = ["config 0 (...): barrier velocity increased",
             "config 4 (...): particle 2 crossed the barrier"]
    monkeypatch.setattr("inertbarrier.cli.invariant_sweep", lambda seed: found)
    assert run(["selftest", "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == found + ["selftest: 2 violation(s)"]


def test_selftest_reports_a_velocity_that_rises(capsys, monkeypatch):
    run_block = BarrierRecursion.run

    def rising(self, f):  # the recursion, with v raised at its last step
        run_block(self, f)
        if self.k == len(self.v) - 1:
            self.v[-1] = self.v[-2] + 1.0

    monkeypatch.setattr(BarrierRecursion, "run", rising)
    found = invariant_sweep(seed=0)
    assert any(line.endswith(": barrier velocity increased") for line in found)
    assert run(["selftest", "--quiet"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert sum(line.endswith(": barrier velocity increased") for line in err) == 50
    assert err[-1] == f"selftest: {len(err) - 1} violation(s)"


def test_selftest_passes(capsys):
    assert run(["selftest", "--quiet"]) == 0
    assert capsys.readouterr().err == ""
