"""Sampling layer and the coupled n-particle simulation."""
import math
import re
import warnings

import numpy as np
import pytest

from inertbarrier import particles
from inertbarrier.errors import InvalidInputError
from inertbarrier.harness import (
    chaos_test, gamma_rate_study, hydro_convergence, invariant_sweep, replicate_seed
)
from inertbarrier.meanfield import solve_limit_mc
from inertbarrier.particles import (
    InitialDistribution,
    SimConfig,
    mean_regulator_uncoupled,
    particle_streams,
    sample_brownian,
    sample_initial,
    simulate,
    snapshot,
    uncoupled_positions,
)
from inertbarrier.paths import SampledPath
from inertbarrier.skorohod import reflect_against_barrier

# frozen from the free-boundary solver at dx=5e-3; cross-checked in the
# acceptance suite against the Monte Carlo fixed point
LIMIT_Y1_K1_DELTA0 = -0.4582


def config(**kw):
    base = dict(n=4, T=1.0, dt=1e-2, K=1.0, v0=0.0,
                init=InitialDistribution.delta(0.0), seed=11)
    base.update(kw)
    return SimConfig(**base)


# --- driving noise ---------------------------------------------------------

def test_brownian_determinism_and_triangular_array():
    small = sample_brownian(3, 1.0, 0.25, seed=9)
    again = sample_brownian(3, 1.0, 0.25, seed=9)
    large = sample_brownian(40, 1.0, 0.25, seed=9)
    for i in range(3):
        np.testing.assert_array_equal(small[i].values, again[i].values)
        # path i must not depend on how many particles ride along
        np.testing.assert_array_equal(small[i].values, large[i].values)
    assert small[0].values[0] == 0.0


def test_brownian_increment_variance():
    dt = 1e-3
    paths = sample_brownian(1000, 1.0, dt, seed=21)
    incs = np.concatenate([np.diff(p.values) for p in paths])  # 10^6 draws
    assert incs.var() == pytest.approx(dt, rel=0.01)
    assert incs.mean() == pytest.approx(0.0, abs=3 * dt)


def test_brownian_terminal_mean_clt_band():
    paths = sample_brownian(100_000, 1.0, 1.0, seed=3)
    terminal = np.array([p.values[-1] for p in paths])
    assert abs(terminal.mean()) <= 3.0 / math.sqrt(100_000)


# --- initial positions -----------------------------------------------------

def test_initial_delta():
    np.testing.assert_array_equal(
        sample_initial(InitialDistribution.delta(1.5), 3, seed=0), [1.5, 1.5, 1.5]
    )


@pytest.mark.parametrize(
    "init,expected_mean",
    [
        (InitialDistribution.uniform(0.0, 1.0), 0.5),
        (InitialDistribution.exponential(2.0), 0.5),
        (InitialDistribution.half_normal(1.0), math.sqrt(2 / math.pi)),
    ],
)
def test_initial_means(init, expected_mean):
    draws = sample_initial(init, 100_000, seed=5)
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(expected_mean, abs=0.01)


def test_initial_streams_are_per_particle():
    a = sample_initial(InitialDistribution.exponential(1.0), 5, seed=17)
    b = sample_initial(InitialDistribution.exponential(1.0), 50, seed=17)
    np.testing.assert_array_equal(a, b[:5])


def test_initial_validation():
    with pytest.raises(InvalidInputError):
        InitialDistribution.delta(-0.5)
    with pytest.raises(InvalidInputError):
        InitialDistribution.uniform(0.5, 0.5)
    with pytest.raises(InvalidInputError):
        InitialDistribution.uniform(-0.1, 1.0)
    with pytest.raises(InvalidInputError):
        InitialDistribution.exponential(0.0)
    with pytest.raises(InvalidInputError):
        InitialDistribution.half_normal(-1.0)


def test_sample_file_roundtrip(tmp_path):
    p = tmp_path / "init.txt"
    p.write_text("0.5\n1.5\n2.5\n")
    init = InitialDistribution.from_file(str(p))
    np.testing.assert_array_equal(sample_initial(init, 2, seed=0), [0.5, 1.5])
    with pytest.raises(InvalidInputError):
        sample_initial(init, 4, seed=0)  # file too short
    with pytest.raises(InvalidInputError):
        sample_initial(InitialDistribution.from_file(str(tmp_path / "nope.txt")), 1, seed=0)
    bad = tmp_path / "neg.txt"
    bad.write_text("-1.0\n")
    with pytest.raises(InvalidInputError):
        sample_initial(InitialDistribution.from_file(str(bad)), 1, seed=0)


def test_chunked_drivers_read_the_sample_file_once(tmp_path, monkeypatch):
    p = tmp_path / "init.txt"
    p.write_text("0.5\n" * 10)
    init = InitialDistribution.from_file(str(p))
    g = SampledPath(0.0, 0.25, [0.0, -0.25])
    reads = []
    file_values = InitialDistribution._file_values
    monkeypatch.setattr(InitialDistribution, "_file_values",
                        lambda self: reads.append(1) or file_values(self))
    monkeypatch.setattr(particles, "_BLOCK_VALUES", 8)  # chunks of 4 two-value paths
    assert uncoupled_positions(g, init, 10, seed=0).shape == (10,)
    assert len(reads) == 1  # three chunks, one read
    monkeypatch.setattr(particles, "_BLOCK_VALUES", 16)
    with pytest.raises(InvalidInputError, match="has 10 positions, need 20$"):
        uncoupled_positions(g, init, 20, seed=0)  # names n, not a chunk's end


def test_uncoupled_positions_need_a_barrier_from_time_zero():
    init = InitialDistribution.uniform(0.0, 1.0)
    values = [0.0, -0.25, -0.5]
    assert uncoupled_positions(SampledPath(0.0, 0.25, values), init, 4, seed=0).shape == (4,)
    with pytest.raises(InvalidInputError, match="t0 = 0"):
        uncoupled_positions(SampledPath(0.5, 0.25, values), init, 4, seed=0)


# --- coupled simulation ----------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidInputError):
        config(n=0)
    with pytest.raises(InvalidInputError):
        config(dt=0.3)  # T not a multiple
    with pytest.raises(InvalidInputError):
        config(K=-0.1)
    with pytest.raises(InvalidInputError):
        config(dt=2.0)


# Every integer input: its name in the error, its least value and a call that
# passes it.  Each call's other arguments are valid.
DELTA0 = InitialDistribution.delta(0.0)
INTEGER_INPUTS = {
    "seed of particle_streams": ("seed", 0, lambda v: particle_streams(v, 0, 3)),
    "seed of SimConfig": ("seed", 0, lambda v: config(seed=v)),
    "seed of replicate_seed": ("seed", 0, lambda v: replicate_seed(v, 0)),
    "seed of invariant_sweep": ("seed", 0, lambda v: invariant_sweep(seed=v)),
    "n of SimConfig": ("n", 1, lambda v: config(n=v)),
    "n of sample_brownian": ("n", 1, lambda v: sample_brownian(v, 1.0, 0.25, seed=0)),
    "n of sample_initial": ("n", 1, lambda v: sample_initial(DELTA0, v, seed=0)),
    "n of mean_regulator_uncoupled": ("n", 1, lambda v: mean_regulator_uncoupled(v, 1.0, 0.25, 0)),
    "n of uncoupled_positions": ("n", 1, lambda v: uncoupled_positions(
        SampledPath(0.0, 0.25, [0.0, -0.25]), DELTA0, v, seed=0)),
    "n of gamma_rate_study": ("n", 1, lambda v: gamma_rate_study(n=v)),
    "keep of simulate": ("keep", 0, lambda v: simulate(config(), keep=v)),
    "M of solve_limit_mc": ("M", 1, lambda v: solve_limit_mc(
        DELTA0, 0.0, 1.0, 0.25, 0.125, M=v, seed=0)),
    "max_iter of solve_limit_mc": ("max_iter", 1, lambda v: solve_limit_mc(
        DELTA0, 0.0, 1.0, 0.25, 0.125, M=4, seed=0, max_iter=v)),
    "n_list entry of hydro_convergence": ("n_list entry", 1, lambda v: hydro_convergence(
        config(), n_list=[v], reps=2)),
    "reps of hydro_convergence": ("reps", 2, lambda v: hydro_convergence(
        config(), n_list=[4], reps=v)),
    "n_list entry of chaos_test": ("n_list entry", 1, lambda v: chaos_test(
        config(), n_list=[v], reps=3)),
    "reps of chaos_test": ("reps", 3, lambda v: chaos_test(config(), n_list=[4], reps=v)),
    "pair label of chaos_test": ("pair label", 1, lambda v: chaos_test(
        config(), n_list=[4], reps=3, pair=(v, 2))),
}


@pytest.mark.parametrize("kind", ["bool", "float", "str", "below"])
@pytest.mark.parametrize("name", sorted(INTEGER_INPUTS))
def test_every_integer_input_has_one_rule(name, kind):
    what, low, call = INTEGER_INPUTS[name]
    value = {"bool": True, "float": 2.5, "str": "2", "below": low - 1}[kind]
    rule = "must be >= " if kind == "below" else "must be an integer, got "
    with pytest.raises(InvalidInputError, match=f"^{re.escape(what)} {rule}"):
        call(value)


def test_numpy_integers_pass_the_integer_rule():
    seed = np.uint64(2**63 + 11)
    assert replicate_seed(seed, 3) == replicate_seed(int(seed), 3)
    got = simulate(config(n=np.int64(5), seed=seed), keep=np.int64(2))
    want = simulate(config(n=5, seed=int(seed)), keep=2)
    np.testing.assert_array_equal(got.final, want.final)
    np.testing.assert_array_equal(got.particles.values, want.particles.values)
    np.testing.assert_array_equal(sample_brownian(np.int64(5), 1.0, 0.25, seed).values,
                                  sample_brownian(5, 1.0, 0.25, int(seed)).values)


def test_uncoupled_barrier_moves_at_constant_speed():
    traj = simulate(config(K=0.0, v0=-1.0, n=3))
    t = traj.barrier.y.times
    np.testing.assert_allclose(traj.barrier.y.values, -t, atol=1e-14)
    np.testing.assert_array_equal(traj.barrier.v.values, -1.0)
    # each particle is its own driver reflected above the moving line
    drivers = sample_brownian(3, 1.0, 1e-2, seed=11)
    for i, p in enumerate(traj.particles):
        redo = reflect_against_barrier(drivers[i], traj.barrier.y)
        np.testing.assert_array_equal(p.values, redo.x.values)
        assert np.all(p.values >= traj.barrier.y.values - 1e-9)


def test_single_particle_invariants():
    traj = simulate(config(n=1, dt=1e-3, K=1.0))
    y = traj.barrier.y.values
    assert np.all(traj.particles[0].values >= y - 1e-9)
    assert np.all(np.diff(traj.barrier.v.values) <= 0.0)


def test_regulator_growth_only_near_contact():
    cfg = config(n=5, dt=1e-3, K=1.0, seed=23)
    traj = simulate(cfg)
    window = 3.0 * math.sqrt(cfg.dt)
    y = traj.barrier.y.values
    for p, m in zip(traj.particles, traj.m):
        grew = np.diff(m.values) > 0
        assert np.all((p.values[1:] - y[1:])[grew] <= window)


def test_initial_positions_follow_init():
    traj = simulate(config(init=InitialDistribution.delta(0.75)))
    for p in traj.particles:
        assert p.values[0] == 0.75


def test_snapshot_is_sorted_column():
    cfg = config(n=6, seed=2)
    traj = simulate(cfg)
    snap = snapshot(traj, 0.5)
    k = traj.barrier.y.index_of(0.5)
    np.testing.assert_array_equal(
        snap.atoms, np.sort([p.values[k] for p in traj.particles])
    )
    assert snap.atoms[0] >= traj.barrier.y.values[k] - 1e-9
    with pytest.raises(InvalidInputError):
        snapshot(traj, 0.5051)  # off-grid


def test_snapshot_at_zero_is_init():
    traj = simulate(config(init=InitialDistribution.delta(1.25)))
    np.testing.assert_array_equal(snapshot(traj, 0.0).atoms, 1.25)


def test_simulate_determinism():
    a = simulate(config(seed=77))
    b = simulate(config(seed=77))
    np.testing.assert_array_equal(a.barrier.y.values, b.barrier.y.values)
    for pa, pb in zip(a.particles, b.particles):
        np.testing.assert_array_equal(pa.values, pb.values)


def test_large_system_tracks_limit_barrier():
    # two independent seeds, both near the mean-field barrier at T = 1
    for seed in (101, 202):
        traj = simulate(config(n=10_000, dt=1e-3, K=1.0, seed=seed))
        assert traj.barrier.y.values[-1] == pytest.approx(LIMIT_Y1_K1_DELTA0, abs=0.05)


def test_mean_regulator_statistic_small_scale():
    # sqrt(2T/pi) identity; dt stings O(sqrt(dt)), band allows for it
    got = mean_regulator_uncoupled(n=2000, T=1.0, dt=1e-3, seed=13)
    assert got == pytest.approx(math.sqrt(2 / math.pi), abs=0.05)


# at (1e308, 1.0) the line and each regulator are finite, but not their sum
@pytest.mark.parametrize("v0, T", [(math.nan, 1.0), (math.inf, 1.0), (1e308, 2.0), (1e308, 1.0)])
def test_mean_regulator_rejects_a_line_outside_float64(v0, T):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="v0"):
            mean_regulator_uncoupled(n=4, T=T, dt=0.25, seed=0, v0=v0)


def test_mean_regulator_matches_direct_simulation(monkeypatch):
    n, T, dt, seed = 50, 0.5, 1e-2, 31
    monkeypatch.setattr(particles, "_UNCOUPLED_CHUNK", 16)
    stream = mean_regulator_uncoupled(n=n, T=T, dt=dt, seed=seed)
    traj = simulate(SimConfig(n=n, T=T, dt=dt, K=0.0, v0=0.0,
                              init=InitialDistribution.delta(0.0), seed=seed))
    direct = np.mean([m.values[-1] for m in traj.m])
    assert stream == pytest.approx(direct, rel=1e-12)
