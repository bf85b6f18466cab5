"""Exit codes, artifact layout, and byte-stable output of the command line."""
import os
import warnings

import pytest

from inertbarrier.cli import run


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


PDE_KEYS = {"T": "0.05", "dt_pde": "1e-4", "dx": "1e-2", "K": "1.0", "v0": "0.5",
            "init.kind": "exponential", "init.params": "2.0"}
MC_KEYS = {"T": "0.25", "dt": "0.015625", "K": "0.5", "v0": "0.0", "M": "200",
           "init.kind": "delta", "init.params": "0.0"}
HYDRO_KEYS = {"n": "20", "T": "0.25", "dt": "0.0078125", "K": "1.0", "v0": "0.0",
              "init.kind": "delta", "init.params": "0.5", "n_list": "20", "reps": "2",
              "dx": "2e-2"}
BASE_KEYS = {"density": PDE_KEYS, "limit-pde": PDE_KEYS, "limit-mc": MC_KEYS, "hydro": HYDRO_KEYS,
             "simulate": HYDRO_KEYS, "chaos": {**HYDRO_KEYS, "reps": "3"}}


@pytest.mark.parametrize("command, key, value", [
    ("density", "dt_pde", "0"),
    ("density", "dt_pde", "nan"),
    ("density", "T", "inf"),
    ("density", "T", "-1"),
    ("density", "x_max", "inf"),
    ("density", "v0", "inf"),
    ("density", "v0", "1e308"),
    ("limit-pde", "x_max", "inf"),
    ("limit-pde", "x_max", "1e308"),
    ("limit-pde", "v0", "inf"),
    ("limit-pde", "T", "-1"),
    ("limit-mc", "tol", "nan"),
    ("limit-mc", "v0", "inf"),
    ("limit-mc", "T", "1e308"),
    ("limit-mc", "dt", "5e-324"),
    ("limit-mc", "v0", "1e308"),
    ("hydro", "dt_pde", "0"),
    ("limit-pde", "init.params", "5e-324"),
    ("density", "init.params", "5e-324"),
    ("simulate", "v0", "1e308"),
    ("chaos", "v0", "1e308"),
    ("hydro", "v0", "1e308"),
])
def test_bad_numeric_config_exits_one_with_one_line(tmp_path, capsys, command, key, value):
    keys = {**BASE_KEYS[command], key: value}
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more line on stderr
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "limit-mc", "hydro", "chaos", "selftest"])
def test_negative_seed_exits_one_with_one_line(tmp_path, capsys, command):
    keys = BASE_KEYS.get(command, {})
    cfg = write_config(tmp_path / "x.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
    argv = [command, "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "out"), "--quiet"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: argument --seed: seed must be >= 0, got -1\n"
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
    keys = {**HYDRO_KEYS, "v0": "1e308", "n_list": "4, 8", "reps": "3"}
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


def test_selftest_passes(capsys):
    assert run(["selftest", "--quiet"]) == 0
    assert capsys.readouterr().err == ""
