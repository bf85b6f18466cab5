"""`simulate` run block by block equals one block over the whole horizon, bitwise.

`simulate` draws the next steps of every particle's stream one time block at
a time and runs the barrier recursion over each block.  The reference draws
every driver at once with `sample_brownian`, adds the initial positions and
runs `solve_gamma`, whose recursion covers the horizon in one block.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertbarrier import particles
from inertbarrier.errors import InvalidInputError
from inertbarrier.gamma import BarrierRecursion, solve_gamma, velocity_envelope
from inertbarrier.harness import _check_trajectory
from inertbarrier.particles import (
    InitialDistribution,
    SimConfig,
    sample_brownian,
    sample_initial,
    simulate,
    snapshot,
)
from inertbarrier.paths import PathBundle


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("init") / "positions.txt"
    path.write_text("\n".join(repr(0.1 * i) for i in range(16)) + "\n")
    return str(path)


def reference(cfg: SimConfig):
    xi = sample_initial(cfg.init, cfg.n, cfg.seed)
    f = sample_brownian(cfg.n, cfg.T, cfg.dt, cfg.seed).values + xi[:, None]
    return solve_gamma(PathBundle(0.0, cfg.dt, f), cfg.v0, cfg.K, eps=cfg.dt)


def inits(sample_file):
    return st.one_of(
        st.floats(0.0, 2.0).map(InitialDistribution.delta),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 2.0)).map(
            lambda p: InitialDistribution.uniform(p[0], p[0] + p[1])),
        st.floats(0.5, 3.0).map(InitialDistribution.exponential),
        st.floats(0.3, 2.0).map(InitialDistribution.half_normal),
        st.just(InitialDistribution.from_file(sample_file)),
    )


def run_with_block(cfg: SimConfig, steps: int, keep):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "_BLOCK_VALUES", 0)
        mp.setattr(particles, "_BLOCK_MIN_STEPS", steps)
        return simulate(cfg) if keep is None else simulate(cfg, keep=keep)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    block=st.sampled_from([1, 2, 3, 7]),
    n=st.integers(1, 12),
    nsteps=st.integers(1, 40),
    K=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    v0=st.floats(-2.0, 2.0),
    keep=st.one_of(st.none(), st.integers(0, 15)),
    seed=st.integers(0, 2**32),
)
def test_blocks_equal_one_full_horizon_block(
    sample_file, data, block, n, nsteps, K, v0, keep, seed
):
    init = data.draw(inits(sample_file))
    cfg = SimConfig(n=n, T=nsteps / 64, dt=1 / 64, K=K, v0=v0, init=init, seed=seed)
    traj = run_with_block(cfg, block, keep)
    ref = reference(cfg)
    kept = n if keep is None else min(keep, n)
    assert bits(traj.barrier.y.values) == bits(ref.barrier.y.values)
    assert bits(traj.barrier.v.values) == bits(ref.barrier.v.values)
    assert traj.barrier.n == n
    assert bits(traj.particles.values) == bits(ref.x.values[:kept])
    assert bits(traj.m.values) == bits(ref.m.values[:kept])
    assert bits(traj.final) == bits(ref.x.values[:, -1])


def test_default_blocks_split_a_long_horizon(monkeypatch):
    # 40 particles with a 200-value budget: blocks of 5 steps, 23 steps in all
    monkeypatch.setattr(particles, "_BLOCK_VALUES", 200)
    monkeypatch.setattr(particles, "_BLOCK_MIN_STEPS", 2)
    cfg = SimConfig(n=40, T=23 / 64, dt=1 / 64, K=1.0, v0=0.5,
                    init=InitialDistribution.half_normal(1.0), seed=6)
    traj = simulate(cfg, keep=3)
    ref = reference(cfg)
    assert bits(traj.barrier.y.values) == bits(ref.barrier.y.values)
    assert bits(traj.particles.values) == bits(ref.x.values[:3])
    assert bits(traj.final) == bits(ref.x.values[:, -1])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    nsteps=st.integers(1, 30),
    stride=st.integers(1, 5),
    cuts=st.lists(st.integers(1, 29), max_size=6),
    K=st.floats(0.0, 3.0),
    v0=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32),
)
def test_recursion_blocks_carry_the_lattice_velocity(n, nsteps, stride, cuts, K, v0, seed):
    dt = 1 / 32
    f = np.abs(sample_brownian(n, nsteps * dt, dt, seed).values)
    ref = solve_gamma(PathBundle(0.0, dt, f), v0, K, eps=stride * dt)
    recursion = BarrierRecursion(n, nsteps, dt, v0, K, stride)
    ft = np.ascontiguousarray(f.T)
    m = np.empty_like(ft)
    edges = sorted({0, nsteps, *(c for c in cuts if c < nsteps)})
    for k0, k1 in zip(edges, edges[1:]):
        recursion.run(ft[k0 : k1 + 1], m[k0 : k1 + 1])
    assert bits(recursion.y) == bits(ref.barrier.y.values)
    assert bits(recursion.v) == bits(ref.barrier.v.values)
    assert bits(m.T) == bits(ref.m.values)


def test_a_partly_kept_trajectory_refuses_what_needs_every_path():
    cfg = SimConfig(n=6, T=0.25, dt=1 / 64, K=1.0, v0=0.0,
                    init=InitialDistribution.half_normal(1.0), seed=4)
    full = simulate(cfg)
    part = simulate(cfg, keep=2)
    assert len(part.particles) == len(part.m) == 2
    np.testing.assert_array_equal(snapshot(part, 0.25).atoms, snapshot(full, 0.25).atoms)
    with pytest.raises(InvalidInputError, match="all 6 particle paths"):
        snapshot(part, 0.125)
    with pytest.raises(InvalidInputError, match="all 6 paths"):
        velocity_envelope(part.barrier, part.m, part.particles)
    with pytest.raises(InvalidInputError, match="all 6 particle paths"):
        _check_trajectory(part, "partial")
    assert _check_trajectory(full, "full") == []
    with pytest.raises(InvalidInputError, match="keep"):
        simulate(cfg, keep=-1)


def test_non_finite_initial_positions_are_rejected():
    cfg = SimConfig(n=3, T=0.25, dt=1 / 64, K=1.0, v0=0.0,
                    init=InitialDistribution.exponential(5e-324), seed=1)
    with pytest.raises(InvalidInputError, match="initial positions must be finite"):
        simulate(cfg, keep=0)
