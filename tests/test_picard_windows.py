"""Window-by-window Picard sweeps equal full-horizon Picard sweeps, bitwise.

`solve_limit_mc` resumes each path from a checkpoint at the start of the
current window and draws only that window's steps.  The reference below is
the loop it replaced: every sweep redraws all paths over the whole horizon
with `sample_brownian` and `sample_initial`, and one closing sweep gives
m_mean and v against the final barrier.  Both must give the same
LimitBarrier, or the same ConvergenceError with the same residual.  The
sweep's chunk, block and driver cache sizes are set per case, so that the
cache ends before the first path, at a block edge, inside a block or past
the last path.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from inertbarrier import meanfield
from inertbarrier.errors import ConvergenceError
from inertbarrier.meanfield import _window_bounds, solve_limit_mc
from inertbarrier.particles import InitialDistribution, sample_brownian, sample_initial


def _full_sweep(y, init, M, nsteps, dt, seed, chunk):
    xi = sample_initial(init, M, seed)
    drivers = sample_brownian(M, nsteps * dt, dt, seed).values + xi[:, None]
    total = np.zeros(nsteps + 1)
    for lo in range(0, M, chunk):
        f = drivers[lo : lo + chunk]
        np.subtract(y[None, :], f, out=f)
        np.maximum(f, 0.0, out=f)
        np.maximum.accumulate(f, axis=1, out=f)
        total += np.add.reduce(f, axis=0)
    return total / M


def reference_limit_mc(init, v0, K, nsteps, dt, M, seed, tol, max_iter, y, chunk):
    """(y, v, m_mean, iterations, residual) of the full-horizon Picard loop."""
    times = dt * np.arange(nsteps + 1)
    iterations, residual = 0, 0.0
    for k0, k1 in _window_bounds(nsteps, dt, K):
        prev_resid = math.inf
        for _ in range(max_iter):
            v = v0 - K * _full_sweep(y, init, M, nsteps, dt, seed, chunk)
            iterations += 1
            y_new = y.copy()
            y_new[k0 + 1 : k1 + 1] = y[k0] + np.cumsum(0.5 * dt * (v[k0:k1] + v[k0 + 1 : k1 + 1]))
            residual = float(np.max(np.abs(y_new[k0 : k1 + 1] - y[k0 : k1 + 1])))
            y = 0.5 * (y + y_new) if residual > prev_resid else y_new
            prev_resid = residual
            if residual <= tol:
                break
        else:
            raise ConvergenceError(
                f"Picard window [{times[k0]:.6g}, {times[k1]:.6g}] stalled at "
                f"residual {residual:.3e} > tol {tol:.3e} after {max_iter} sweeps",
                residual=residual,
            )
    m_mean = _full_sweep(y, init, M, nsteps, dt, seed, chunk)
    return y, v0 - K * m_mean, m_mean, iterations, residual


def k_for_window(steps: int, dt: float) -> float:
    """An impulse constant whose Picard windows are `steps` steps long."""
    return 2.0 * (0.9 / (dt * (steps + 0.5))) ** 2


def assert_same_solve(init, v0, K, nsteps, dt, M, seed, tol, max_iter, y_init, chunk,
                      block=meanfield._SWEEP_BLOCK, cache=meanfield._SWEEP_CACHE):
    """Compare with the reference, both summing `chunk` paths at a time.

    The solve works in blocks of `block` paths and caches the drivers of the
    first `cache` paths.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meanfield, "_SWEEP_CHUNK", chunk)
        mp.setattr(meanfield, "_SWEEP_BLOCK", block)
        mp.setattr(meanfield, "_SWEEP_CACHE", cache)
        return _compare_solves(init, v0, K, nsteps, dt, M, seed, tol, max_iter, y_init, chunk)


def cache_boundary(M, chunk, block, cache):
    """Where the cache ends among the M paths over the longest window.

    A shorter window caches more paths in the same memory.
    """
    if cache == 0:
        return "no path cached"
    if cache >= M:
        return "every path cached"
    offset = cache % chunk  # blocks start at each chunk's first path
    return "cache ends at a block edge" if offset % block == 0 else "cache ends inside a block"


def _compare_solves(init, v0, K, nsteps, dt, M, seed, tol, max_iter, y_init, chunk):
    kw = dict(tol=tol, max_iter=max_iter)
    if callable(y_init):
        y0 = np.asarray([y_init(t) for t in dt * np.arange(nsteps + 1)])
    else:
        y0 = v0 * (dt * np.arange(nsteps + 1))
    try:
        want = reference_limit_mc(init, v0, K, nsteps, dt, M, seed, tol, max_iter, y0, chunk)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            solve_limit_mc(init, v0, K, nsteps * dt, dt, M, seed, y_init=y_init, **kw)
        assert str(info.value) == str(exc)
        assert info.value.residual == exc.residual
        return "stalled"
    got = solve_limit_mc(init, v0, K, nsteps * dt, dt, M, seed, y_init=y_init, **kw)
    for name, a, b in zip(("y", "v", "m_mean"), (got.y, got.v, got.m_mean), want[:3]):
        assert a.values.tobytes() == b.tobytes(), name
    assert (got.iterations, got.residual) == want[3:]
    return "converged"


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("init") / "positions.txt"
    rng = np.random.default_rng(11)
    np.savetxt(path, np.abs(rng.standard_normal(64)))
    return InitialDistribution.from_file(str(path))


DT = 0.01


@st.composite
def limit_cases(draw, sample_file):
    nsteps = draw(st.integers(2, 40))
    # Picard windows of 1 to 12 steps, or (mostly) a single window
    steps = draw(st.integers(1, 13))
    K = k_for_window(steps, DT) if steps <= 12 else draw(st.floats(0.0, 20.0))
    v0 = draw(st.floats(-1.0, 1.0))
    init = draw(st.sampled_from([
        InitialDistribution.delta(0.0), InitialDistribution.delta(0.3),
        InitialDistribution.uniform(0.0, 0.5), InitialDistribution.half_normal(0.5), sample_file,
    ]))
    M = draw(st.integers(1, 40))
    chunk = draw(st.sampled_from([1, 3, 7, 16, 4096]))
    block = draw(st.sampled_from([1, 2, 5, 128]))
    cache = draw(st.integers(0, M + 3))
    kind = draw(st.sampled_from(["none", "quadratic", "linear"]))
    a = draw(st.floats(-2.0, 0.5))
    if kind == "quadratic":
        y_init = lambda t: a * t * t  # noqa: E731
    elif kind == "linear":
        y_init = lambda t: a * t  # noqa: E731
    else:
        y_init = None
    tol = draw(st.sampled_from([1e-3, 1e-2]))
    seed = draw(st.integers(0, 2**32))
    return dict(init=init, v0=v0, K=K, nsteps=nsteps, dt=DT, M=M, seed=seed, tol=tol,
                max_iter=12, y_init=y_init, chunk=chunk, block=block, cache=cache)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_windowed_solve_equals_full_horizon_reference(data, sample_file):
    case = data.draw(limit_cases(sample_file))
    windows = len(_window_bounds(case["nsteps"], DT, case["K"]))
    event(f"{assert_same_solve(**case)}, {'one window' if windows == 1 else 'several windows'}")
    event(cache_boundary(case["M"], case["chunk"], case["block"], case["cache"]))


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize(
    "init", [InitialDistribution.delta(0.2), InitialDistribution.half_normal(0.5)]
)
def test_short_windows_equal_full_horizon_reference(steps, init):
    K = k_for_window(steps, DT)
    assert [k1 - k0 for k0, k1 in _window_bounds(12, DT, K)][:3] == [steps] * 3
    assert_same_solve(init, -0.5, K, 12, DT, 25, 3, 1e-3, 40, None, 7)


def test_subnormal_K_gives_one_window():
    # 2 / K overflows to inf, so the window is the whole horizon
    assert _window_bounds(40, DT, 5e-324) == [(0, 40)]
    assert assert_same_solve(InitialDistribution.delta(0.0), 0.0, 5e-324, 2, DT, 1, 0, 1e-3, 12,
                             None, 1) == "converged"


def test_several_windows_and_chunks_equal_full_horizon_reference():
    # two windows like the T = 2 solve, four chunks with a short last one
    outcome = assert_same_solve(InitialDistribution.delta(0.0), 0.0, 1.0, 200, DT, 700, 5,
                                1e-3, 60, lambda t: -t * t, 200)
    assert outcome == "converged"


@pytest.mark.parametrize("block, cache", [(64, 0), (64, 464), (64, 450), (64, 700)])
def test_cache_boundaries_over_several_windows_equal_full_horizon_reference(block, cache):
    # the case above, with the cache ending nowhere, at a block edge in the
    # third chunk, inside a block there, or past the last path
    outcome = assert_same_solve(InitialDistribution.delta(0.0), 0.0, 1.0, 200, DT, 700, 5,
                                1e-3, 60, lambda t: -t * t, 200, block, cache)
    assert outcome == "converged"


def test_stall_in_a_later_window_raises_the_reference_error():
    # the paths start above the barrier, so the first one-step window converges
    init, K = InitialDistribution.delta(0.2), k_for_window(1, DT)
    with pytest.raises(ConvergenceError, match=r"window \[0.01, 0.02\]"):
        reference_limit_mc(init, 0.0, K, 10, DT, 30, 1, 1e-3, 30, np.zeros(11), 4096)
    assert assert_same_solve(init, 0.0, K, 10, DT, 30, 1, 1e-3, 30, None, 4096) == "stalled"


@pytest.mark.parametrize("block, cache", [(4, 0), (4, 12), (4, 13), (4, 30)])
def test_cache_boundaries_in_a_stalled_window_raise_the_reference_error(block, cache):
    init, K = InitialDistribution.delta(0.2), k_for_window(1, DT)
    outcome = assert_same_solve(init, 0.0, K, 10, DT, 30, 1, 1e-3, 30, None, 4096, block, cache)
    assert outcome == "stalled"
