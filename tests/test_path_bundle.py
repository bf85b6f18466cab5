"""PathBundle: n paths stored as one validated matrix, read through SampledPath views."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inertbarrier.errors import InvalidInputError
from inertbarrier.gamma import solve_gamma, velocity_envelope
from inertbarrier.harness import _check_trajectory
from inertbarrier.particles import (
    InitialDistribution,
    ParticleSystemTrajectory,
    SimConfig,
    simulate,
)
from inertbarrier.paths import PathBundle, SampledPath

matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(2, 30)),
    elements=st.floats(-5.0, 5.0, allow_nan=False, width=64),
)


def time_major_view(values):
    """The same matrix as the transpose of a time-major array (a strided view)."""
    return np.ascontiguousarray(values.T).T


@given(matrices, st.booleans())
def test_views_round_trip_bitwise(values, strided):
    if strided:
        values = time_major_view(values)
    bundle = PathBundle(0.5, 0.125, values)
    assert np.shares_memory(bundle.values, values)  # kept, not copied
    assert len(bundle) == values.shape[0]
    assert bundle.n_steps == values.shape[1] - 1
    rows = list(bundle)
    assert len(rows) == len(bundle)
    for i, path in enumerate(rows):
        assert isinstance(path, SampledPath)
        assert (path.t0, path.dt) == (0.5, 0.125)
        assert path.values.tobytes() == values[i].tobytes()
        assert bundle[i].values.tobytes() == values[i].tobytes()
    again = PathBundle.of(rows)
    assert (again.t0, again.dt) == (0.5, 0.125)
    assert again.values.tobytes() == np.ascontiguousarray(values).tobytes()
    assert PathBundle.of(bundle) is bundle


@given(matrices)
def test_values_are_read_only(values):
    bundle = PathBundle(0.0, 0.1, values)
    with pytest.raises(ValueError):
        bundle.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        bundle[0].values[0] = 1.0


@given(matrices, st.data())
def test_non_finite_values_rejected_like_sampled_path(values, data):
    i = data.draw(st.integers(0, values.shape[0] - 1))
    k = data.draw(st.integers(0, values.shape[1] - 1))
    bad = values.copy()
    bad[i, k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(InvalidInputError):
        PathBundle(0.0, 0.1, bad)
    with pytest.raises(InvalidInputError):
        SampledPath(0.0, 0.1, bad[i])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                  elements=st.floats(-5.0, 5.0, allow_nan=False, width=64)))
def test_non_matrix_or_short_input_rejected(values):
    if values.ndim == 2 and values.shape[1] >= 2:
        PathBundle(0.0, 0.1, values)  # a valid matrix
        return
    with pytest.raises(InvalidInputError):
        PathBundle(0.0, 0.1, values)
    if values.ndim == 2:  # fewer than two samples per path, as for one path
        for row in values:
            with pytest.raises(InvalidInputError):
                SampledPath(0.0, 0.1, row)


@pytest.mark.parametrize("t0, dt", [(np.nan, 0.1), (0.0, 0.0), (0.0, -0.1), (0.0, np.inf)])
def test_bad_grid_rejected_like_sampled_path(t0, dt):
    with pytest.raises(InvalidInputError):
        PathBundle(t0, dt, np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        SampledPath(t0, dt, np.zeros(3))


def test_of_requires_one_grid():
    with pytest.raises(InvalidInputError):
        PathBundle.of([SampledPath(0.0, 0.1, np.zeros(3)), SampledPath(0.0, 0.2, np.zeros(3))])


@settings(max_examples=60, deadline=None)
@given(matrices.map(np.abs), st.floats(-1.0, 1.0), st.floats(0.0, 2.0),
       st.sampled_from([None, 0.25, 0.5]), st.booleans())
def test_solve_gamma_same_for_bundle_and_list(values, v0, K, eps, strided):
    if strided:
        values = time_major_view(values)
    before = values.tobytes()
    bundle = PathBundle(0.0, 0.125, values)
    a = solve_gamma(bundle, v0, K, eps=eps)
    b = solve_gamma(list(bundle), v0, K, eps=eps)
    pairs = [(a.barrier.y, b.barrier.y), (a.barrier.v, b.barrier.v), (a.m, b.m), (a.x, b.x)]
    for pa, pb in pairs:
        assert pa.values.tobytes() == pb.values.tobytes()
    assert values.tobytes() == before  # the drivers are never written to
    # the reflected paths are a strided view themselves; they drive a new solve unchanged
    x_before = a.x.values.tobytes()
    solve_gamma(a.x, v0, K, eps=eps)
    assert a.x.values.tobytes() == x_before


def envelope_path_by_path(barrier, m, x):
    """velocity_envelope written as a loop over single paths (the reference)."""
    K, v0 = barrier.impulse_K, barrier.v0
    t = barrier.y.times - barrier.y.t0
    total = 0.0
    for xi, mi in zip(x, m):
        f_vals = xi.values - mi.values
        total += float(np.max(np.maximum(-(f_vals - v0 * t), 0.0)))
    T = barrier.y.t_end - barrier.y.t0
    measured = float(np.max(np.abs(barrier.v.values - v0)))
    return measured, K / len(x) * total + K * max(v0, 0.0) * T


@settings(max_examples=60, deadline=None)
@given(matrices.map(np.abs), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
def test_velocity_envelope_equals_path_by_path_loop(values, v0, K):
    res = solve_gamma(PathBundle(0.0, 0.125, values), v0, K)
    assert velocity_envelope(res.barrier, res.m, res.x) == envelope_path_by_path(
        res.barrier, res.m, res.x
    )


def test_invariant_checks_name_the_first_offending_path():
    cfg = SimConfig(n=5, T=0.25, dt=0.015625, K=1.0, v0=0.0,
                    init=InitialDistribution.delta(0.5), seed=3)
    traj = simulate(cfg)
    assert _check_trajectory(traj, "ok") == []
    x = traj.particles.values.copy()
    x[[2, 4], 7] = traj.barrier.y.values[7] - 1.0
    m = traj.m.values.copy()
    m[[1, 3], -1] = m[[1, 3], -2] - 1.0
    bad = ParticleSystemTrajectory(
        config=cfg, barrier=traj.barrier,
        particles=PathBundle(0.0, cfg.dt, x), m=PathBundle(0.0, cfg.dt, m), final=x[:, -1],
    )
    found = _check_trajectory(bad, "doctored")
    assert "doctored: particle 3 crossed the barrier" in found
    assert "doctored: regulator 2 not nondecreasing from 0" in found
