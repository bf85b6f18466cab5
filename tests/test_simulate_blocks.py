"""`simulate` run block by block equals one block over the whole horizon, bitwise.

`simulate` draws the next steps of every particle's stream one time block at
a time and runs the barrier recursion over each block, a run of steps at a
time.  The reference draws every driver at once with `sample_brownian`, adds
the initial positions and runs `solve_gamma`, whose recursion covers the
horizon in one block.
A helper thread draws each next block while the recursion runs the current
one; neither its timing nor a failure in the recursion changes a value.
"""
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertbarrier import particles
from inertbarrier.errors import InvalidInputError
from inertbarrier.gamma import BarrierRecursion, solve_gamma, velocity_envelope
from inertbarrier.harness import _check_trajectory
from inertbarrier.meanfield import solve_limit_mc
from inertbarrier.particles import (
    InitialDistribution,
    SimConfig,
    mean_regulator_uncoupled,
    sample_brownian,
    sample_initial,
    simulate,
    snapshot,
    uncoupled_positions,
)
from inertbarrier.paths import PathBundle, SampledPath


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


def run_with_block(cfg: SimConfig, steps: int, keep, run: int | None = None):
    """simulate(cfg) in draw blocks of `steps` steps and, when given, runs of `run`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "_BLOCK_VALUES", 0)
        mp.setattr(particles, "_BLOCK_MIN_STEPS", steps)
        if run is not None:
            mp.setattr(particles, "_RUN_VALUES", 0)
            mp.setattr(particles, "_RUN_MIN_STEPS", run)
        return simulate(cfg) if keep is None else simulate(cfg, keep=keep)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    block=st.sampled_from([1, 2, 3, 7]),
    run=st.integers(1, 9),  # runs that divide a block, that do not, and longer ones
    n=st.integers(1, 12),
    nsteps=st.integers(1, 40),
    K=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    v0=st.floats(-2.0, 2.0),
    keep=st.one_of(st.none(), st.integers(0, 15)),
    seed=st.integers(0, 2**32),
)
def test_blocks_equal_one_full_horizon_block(
    sample_file, data, block, run, n, nsteps, K, v0, keep, seed
):
    init = data.draw(inits(sample_file))
    cfg = SimConfig(n=n, T=nsteps / 64, dt=1 / 64, K=K, v0=v0, init=init, seed=seed)
    traj = run_with_block(cfg, block, keep, run)
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
    m = np.array(f.T, order="C")  # the drivers, overwritten block by block
    edges = sorted({0, nsteps, *(c for c in cuts if c < nsteps)})
    for k0, k1 in zip(edges, edges[1:]):
        recursion.run(m[k0 : k1 + 1])
    assert bits(recursion.y) == bits(ref.barrier.y.values)
    assert bits(recursion.v) == bits(ref.barrier.v.values)
    assert bits(m.T) == bits(ref.m.values)


@pytest.mark.parametrize("steps, blocks, run", [
    # run None: every run is a whole draw block
    pytest.param(40, 1, None, id="40-1"), pytest.param(20, 2, None, id="20-2"),
    pytest.param(3, 14, None, id="3-14"), (40, 1, 7), (20, 2, 3), (20, 2, 50), (3, 14, 2),
])
def test_a_slow_helper_draws_the_same_values(monkeypatch, steps, blocks, run):
    cfg = SimConfig(n=7, T=40 / 64, dt=1 / 64, K=1.0, v0=0.5,
                    init=InitialDistribution.half_normal(1.0), seed=5)
    ref = reference(cfg)
    draw = particles._brownian_chunk
    threads = []

    def slow(*args, **kwargs):
        time.sleep(0.01)
        threads.append(threading.current_thread())
        return draw(*args, **kwargs)

    monkeypatch.setattr(particles, "_brownian_chunk", slow)
    traj = run_with_block(cfg, steps, keep=3, run=run)
    # block 0 is drawn by the caller, every later block by the helper
    assert len(threads) == blocks and threads[0] is threading.main_thread()
    assert threading.main_thread() not in threads[1:]
    assert bits(traj.barrier.y.values) == bits(ref.barrier.y.values)
    assert bits(traj.barrier.v.values) == bits(ref.barrier.v.values)
    assert bits(traj.particles.values) == bits(ref.x.values[:3])
    assert bits(traj.m.values) == bits(ref.m.values[:3])
    assert bits(traj.final) == bits(ref.x.values[:, -1])


DIGEST_CODE = """
import hashlib, numpy as np
from inertbarrier.particles import InitialDistribution, SimConfig, simulate
traj = simulate(SimConfig(n=9, T=0.5, dt=1 / 64, K=1.0, v0=0.0,
                          init=InitialDistribution.exponential(2.0), seed=8))
arrays = (traj.barrier.y.values, traj.barrier.v.values, traj.particles.values, traj.m.values,
          traj.final)
digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()
"""


def test_a_failing_block_joins_the_helper_and_leaves_no_state():
    before = threading.active_count()
    # y passes the float64 range at step 1 798, in the middle of 63 blocks
    bad = SimConfig(n=3, T=4.0, dt=1e-3, K=0.0, v0=1e308,
                    init=InitialDistribution.delta(0.0), seed=2)
    with pytest.raises(InvalidInputError, match="barrier values must be finite"):
        run_with_block(bad, 64, keep=None)
    assert threading.active_count() == before
    namespace = {}
    with pytest.MonkeyPatch.context() as mp:  # 7 blocks here, one in the fresh process
        mp.setattr(particles, "_BLOCK_VALUES", 0)
        mp.setattr(particles, "_BLOCK_MIN_STEPS", 5)
        exec(DIGEST_CODE, namespace)
    src = os.path.dirname(os.path.dirname(particles.__file__))
    fresh = subprocess.run([sys.executable, "-c", DIGEST_CODE + "print(digest)"], capture_output=True,
                           text=True, check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert namespace["digest"] == fresh.stdout.strip()


def test_the_run_buffer_replaces_a_third_block_buffer(monkeypatch):
    # 256 particles in draw blocks of 256 steps and runs of 16: three blocks
    monkeypatch.setattr(particles, "_BLOCK_VALUES", 1 << 16)
    monkeypatch.setattr(particles, "_RUN_VALUES", 1 << 12)
    cfg = SimConfig(n=256, T=3.0, dt=1 / 256, K=1.0, v0=0.0,
                    init=InitialDistribution.half_normal(1.0), seed=3)
    draw_buffer = 256 * 257 * 8
    simulate(cfg, keep=0)  # the first call pays for imports and caches
    tracemalloc.start()
    try:
        simulate(cfg, keep=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * draw_buffer


SWITCH_SHAPES = [  # n, steps, draw block, run
    (5, 50, 7, 3), (9, 41, 6, 4), (3, 64, 10, 1), (12, 30, 4, 3), (2, 33, 16, 5),
]


def test_fast_thread_switches_change_no_value():
    # The interpreter switches threads every microsecond, so the helper's draws
    # and the calling thread's runs interleave as finely as they can.
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 5.0
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            for n, nsteps, block, run in SWITCH_SHAPES:
                cfg = SimConfig(n=n, T=nsteps / 64, dt=1 / 64, K=1.5, v0=0.3,
                                init=InitialDistribution.exponential(2.0), seed=seed)
                traj = run_with_block(cfg, block, keep=n - 1, run=run)
                ref = reference(cfg)
                assert bits(traj.barrier.y.values) == bits(ref.barrier.y.values)
                assert bits(traj.barrier.v.values) == bits(ref.barrier.v.values)
                assert bits(traj.particles.values) == bits(ref.x.values[: n - 1])
                assert bits(traj.m.values) == bits(ref.m.values[: n - 1])
                assert bits(traj.final) == bits(ref.x.values[:, -1])
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


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
    with pytest.raises(InvalidInputError, match="keep must be >= 0"):
        simulate(cfg, keep=-1)
    for keep in (True, 2.0, "2"):
        with pytest.raises(InvalidInputError, match="keep must be an integer"):
            simulate(cfg, keep=keep)


def test_non_finite_initial_positions_are_rejected():
    cfg = SimConfig(n=3, T=0.25, dt=1 / 64, K=1.0, v0=0.0,
                    init=InitialDistribution.exponential(5e-324), seed=1)
    with pytest.raises(InvalidInputError, match="initial positions must be finite"):
        simulate(cfg, keep=0)
    # every other consumer of the initial law draws it through the same check
    law = cfg.init
    line = SampledPath(0.0, 1 / 64, np.zeros(17))
    for draw in (lambda: solve_limit_mc(law, 0.0, 1.0, 0.25, 1 / 64, 3, 1),
                 lambda: mean_regulator_uncoupled(3, 0.25, 1 / 64, 1, init=law),
                 lambda: uncoupled_positions(line, law, 3, 1)):
        with pytest.raises(InvalidInputError, match="initial positions must be finite"):
            draw()
