"""Barrier fixed point driven by n paths: oracles, bounds, exact invariants."""
import math
import re

import numpy as np
import pytest

from inertbarrier.errors import InvalidInputError
from inertbarrier.gamma import (
    BarrierRecursion,
    lipschitz_envelope,
    refinement_bound,
    solve_gamma,
    solve_gamma_refined,
    velocity_envelope,
)
from inertbarrier.meanfield import solve_limit_mc, solve_limit_pde
from inertbarrier.particles import InitialDistribution, SimConfig
from inertbarrier.paths import SampledPath, sup_distance

from conftest import random_walk_path


def line_path(slope, T=1.0, dt=1e-2, start=0.0):
    n = round(T / dt)
    return SampledPath(0.0, dt, start + slope * dt * np.arange(n + 1))


def brute_force_barrier(paths, v0, K, dt):
    """Reference recursion with every running sup recomputed from scratch.

    Deliberately O(N^2 * n): each lattice velocity refresh re-scans the whole
    prefix, so it shares no incremental state with the production code.
    """
    n = len(paths)
    npts = paths[0].values.size
    fmat = np.stack([p.values for p in paths])
    y = np.zeros(npts)
    for k in range(npts - 1):
        if k == 0:
            slope = v0
        else:
            total = 0.0
            for i in range(n):
                total += max(0.0, float(np.max(y[: k + 1] - fmat[i, : k + 1])))
            slope = v0 - K / n * total
        y[k + 1] = y[k] + slope * dt
    return y


def contact_barrier(t):
    # y' = -K(y - f) with f = -t, K = 1: y(t) = 1 - e^{-t} - t
    return 1.0 - np.exp(-t) - t


# --- closed forms and cross-checks ----------------------------------------

def test_no_feedback_gives_straight_barrier(rng):
    f = [random_walk_path(rng, n_steps=50, dt=0.02, start=1.0) for _ in range(3)]
    res = solve_gamma(f, v0=1.0, K=0.0)
    t = res.barrier.y.times
    np.testing.assert_array_equal(res.barrier.v.values, 1.0)
    np.testing.assert_allclose(res.barrier.y.values, t, atol=1e-14)
    # regulators are then plain reflections against the (computed) line
    y = res.barrier.y.values
    for fi, mi in zip(f, res.m):
        expect = np.maximum.accumulate(np.maximum(y - fi.values, 0.0))
        np.testing.assert_array_equal(mi.values, expect)


def test_contact_regime_matches_ode():
    f = line_path(-1.0, dt=1e-3)
    res = solve_gamma([f], v0=0.0, K=1.0)
    t = res.barrier.y.times
    assert np.max(np.abs(res.barrier.y.values - contact_barrier(t))) < 5e-4
    assert res.m[0].values[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=5e-4)


def test_rising_driver_never_pushes():
    res = solve_gamma([line_path(1.0)], v0=0.0, K=1.0)
    np.testing.assert_array_equal(res.barrier.y.values, 0.0)
    np.testing.assert_array_equal(res.barrier.v.values, 0.0)
    np.testing.assert_array_equal(res.m[0].values, 0.0)


def test_matches_brute_force_recursion(rng):
    for _ in range(5):
        n = int(rng.integers(1, 5))
        f = [random_walk_path(rng, n_steps=120, dt=5e-3, start=0.5) for _ in range(n)]
        K = float(rng.uniform(0.0, 2.0))
        v0 = float(rng.uniform(-1.0, 1.0))
        res = solve_gamma(f, v0=v0, K=K)
        y_ref = brute_force_barrier(f, v0, K, 5e-3)
        np.testing.assert_allclose(res.barrier.y.values, y_ref, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("edges", [(0, 1, 2, 40), (0, 7, 20, 33, 40)])
def test_recursion_blocks_into_fresh_buffers_equal_one_block(rng, stride, edges):
    n, nsteps, dt = 5, 40, 1 / 32
    ft = np.abs(np.cumsum(rng.standard_normal((nsteps + 1, n)), axis=0))
    whole = BarrierRecursion(n, nsteps, dt, 0.5, 2.0, stride)
    m_whole = ft.copy()
    whole.run(m_whole)
    blocks = BarrierRecursion(n, nsteps, dt, 0.5, 2.0, stride)
    for k0, k1 in zip(edges, edges[1:]):
        m = ft[k0 : k1 + 1].copy()  # each block overwrites its own copy of the drivers
        m[0] = np.nan  # row 0 takes the regulators carried from the last block
        blocks.run(m)
        assert m.tobytes() == m_whole[k0 : k1 + 1].tobytes()
    assert blocks.y.tobytes() == whole.y.tobytes()
    assert blocks.v.tobytes() == whole.v.tobytes()


def test_coarse_lattice_matches_brute_force_on_lattice(rng):
    # eps = 4*dt: velocity refreshes only every 4th grid point
    f = [random_walk_path(rng, n_steps=64, dt=1e-2, start=0.5) for _ in range(2)]
    res = solve_gamma(f, v0=0.0, K=1.0, eps=4e-2)
    coarse = [SampledPath(0.0, 4e-2, p.values[::4]) for p in f]
    y_ref = brute_force_barrier(coarse, 0.0, 1.0, 4e-2)
    np.testing.assert_allclose(res.barrier.y.values[::4], y_ref, atol=1e-12)


# --- exact structural invariants ------------------------------------------

def test_velocity_identity_and_integral_are_exact(rng):
    f = [random_walk_path(rng, n_steps=200, dt=5e-3, start=0.3) for _ in range(4)]
    res = solve_gamma(f, v0=0.25, K=1.5)
    y, v = res.barrier.y.values, res.barrier.v.values
    msum = np.sum([m.values for m in res.m], axis=0)
    # v(k) = v0 - (K/n) sum_i m_i(k), bitwise as computed
    np.testing.assert_array_equal(v, 0.25 - 1.5 / 4 * msum)
    # y is the exact integral of the piecewise-constant velocity
    np.testing.assert_array_equal(y[1:], np.cumsum(v[:-1] * 5e-3))
    # v is nonincreasing exactly; y's stored samples add one rounding per step
    assert np.all(np.diff(v) <= 0.0)
    assert np.all(np.diff(y, 2) <= 1e-15)
    for xi, mi in zip(res.x, res.m):
        assert np.all(xi.values >= y - 1e-9)
        assert mi.values[0] == 0.0
        assert np.all(np.diff(mi.values) >= 0.0)


def test_fixed_point_consistency(rng):
    from inertbarrier.skorohod import reflect_against_barrier

    f = [random_walk_path(rng, n_steps=100, dt=1e-2, start=0.2) for _ in range(3)]
    res = solve_gamma(f, v0=0.0, K=1.0)
    for fi, mi, xi in zip(f, res.m, res.x):
        redo = reflect_against_barrier(fi, res.barrier.y)
        np.testing.assert_array_equal(redo.m.values, mi.values)
        np.testing.assert_array_equal(redo.x.values, xi.values)


def test_determinism(rng):
    f = [random_walk_path(rng, n_steps=64, dt=1e-2, start=0.2) for _ in range(2)]
    a = solve_gamma(f, v0=-0.5, K=0.7)
    b = solve_gamma(f, v0=-0.5, K=0.7)
    np.testing.assert_array_equal(a.barrier.y.values, b.barrier.y.values)
    np.testing.assert_array_equal(a.barrier.v.values, b.barrier.v.values)


def test_two_particle_exchangeability(rng):
    f1 = random_walk_path(rng, n_steps=80, dt=1e-2, start=0.4)
    f2 = random_walk_path(rng, n_steps=80, dt=1e-2, start=0.1)
    a = solve_gamma([f1, f2], v0=0.0, K=1.3)
    b = solve_gamma([f2, f1], v0=0.0, K=1.3)
    # two-term sums commute exactly in floating point
    np.testing.assert_array_equal(a.barrier.y.values, b.barrier.y.values)
    np.testing.assert_array_equal(a.m[0].values, b.m[1].values)
    np.testing.assert_array_equal(a.m[1].values, b.m[0].values)


def test_many_particle_exchangeability_within_rounding(rng):
    f = [random_walk_path(rng, n_steps=80, dt=1e-2, start=0.4) for _ in range(5)]
    perm = [3, 0, 4, 1, 2]
    a = solve_gamma(f, v0=0.0, K=1.0)
    b = solve_gamma([f[i] for i in perm], v0=0.0, K=1.0)
    assert sup_distance(a.barrier.y, b.barrier.y) < 1e-12


# --- perturbation and refinement bounds -----------------------------------

def test_velocity_excursion_envelope(rng):
    for v0 in (0.0, 0.5):
        f = [random_walk_path(rng, n_steps=100, dt=1e-2, start=0.2) for _ in range(3)]
        res = solve_gamma(f, v0=v0, K=1.0)
        measured, bound = velocity_envelope(res.barrier, res.m, res.x)
        assert measured <= bound + 1e-9


def test_lipschitz_envelope_values():
    assert lipschitz_envelope(0.0, 4, 1.0, 1.0) == (0.0, 0.0)
    assert lipschitz_envelope(1.0, 4, 0.0, 1.0) == (0.0, 0.0)
    vb, ib = lipschitz_envelope(1.0, 1, 1.0, 1.0)
    assert vb == pytest.approx(math.e)
    assert ib == pytest.approx(math.e)


def test_perturbation_bound_holds(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        T, dt = 1.0, 1e-2
        f = [random_walk_path(rng, n_steps=100, dt=dt, start=0.5) for _ in range(n)]
        K = float(rng.uniform(0.1, 2.0))
        # nonnegative vertical shifts keep g(0) >= 0 and make eta easy to read off
        g = [fi.with_values(fi.values + rng.uniform(0.0, 0.3)) for fi in f]
        eta = sum(sup_distance(fi, gi) for fi, gi in zip(f, g))
        va = solve_gamma(f, v0=0.0, K=K).barrier.v
        vb = solve_gamma(g, v0=0.0, K=K).barrier.v
        vbound, _ = lipschitz_envelope(eta, n, K, T)
        assert sup_distance(va, vb) <= vbound + 1e-12


def test_refined_stops_when_gap_small(rng):
    base = random_walk_path(rng, n_steps=256, dt=1.0 / 256, start=0.5)
    res = solve_gamma_refined([base], v0=0.0, K=1.0, tol=1e-2)
    assert res.tol_reached
    assert res.refine_gap is not None and res.refine_gap <= 1e-2
    assert res.eps_used >= 1.0 / 256


def test_refined_contact_accuracy():
    f = line_path(-1.0, dt=2**-12)
    res = solve_gamma_refined([f], v0=0.0, K=1.0, tol=1e-4)
    assert abs(res.barrier.y.values[-1] - contact_barrier(1.0)) < 2e-4


def test_refined_no_feedback_converges_immediately(rng):
    f = [random_walk_path(rng, n_steps=64, dt=1.0 / 64, start=0.5)]
    res = solve_gamma_refined(f, v0=0.3, K=0.0, tol=1e-12)
    assert res.tol_reached
    assert res.refine_gap == 0.0


def test_refined_flags_unreachable_tolerance():
    # permanent contact: the barrier genuinely depends on eps, so the gap
    # sequence stays strictly positive and 1e-16 is unreachable at this dt
    f = line_path(-1.0, dt=1.0 / 32)
    res = solve_gamma_refined([f], v0=0.0, K=1.0, tol=1e-16)
    assert not res.tol_reached
    assert res.refine_gap > 1e-16
    assert res.eps_used == 1.0 / 32


def test_refinement_bound_formula():
    # ((2+K) * norm / n) * eps * e^{KT} = 3 * (2/2) * 0.125 * e
    assert refinement_bound(2.0, 2, 1.0, 1.0, 0.125) == pytest.approx(0.375 * math.e)
    assert refinement_bound(2.0, 2, 1e308, 1.0, 0.125) == math.inf  # no OverflowError


@pytest.mark.parametrize("bound, args", [
    (lipschitz_envelope, (1.0, 0, 1.0, 1.0)),  # (eta, n, K, T)
    (lipschitz_envelope, (1.0, 2, math.nan, 1.0)),
    (lipschitz_envelope, (1.0, 2, -1.0, 1.0)),
    (lipschitz_envelope, (math.nan, 2, 1.0, 1.0)),
    (lipschitz_envelope, (-1.0, 2, 1.0, 1.0)),
    (lipschitz_envelope, (1.0, 2, 1.0, math.nan)),
    (lipschitz_envelope, (1.0, 2, 1.0, 0.0)),
    (refinement_bound, (2.0, 0, 1.0, 1.0, 0.125)),  # (norm_f_sum, n, K, T, eps)
    (refinement_bound, (2.0, 2, -1.0, 1.0, 0.125)),
    (refinement_bound, (2.0, 2, math.nan, 1.0, 0.125)),
    (refinement_bound, (math.nan, 2, 1.0, 1.0, 0.125)),
    (refinement_bound, (-2.0, 2, 1.0, 1.0, 0.125)),
    (refinement_bound, (2.0, 2, 1.0, math.nan, 0.125)),
    (refinement_bound, (2.0, 2, 1.0, 0.0, 0.125)),
    (refinement_bound, (2.0, 2, 1.0, 1.0, math.nan)),
    (refinement_bound, (2.0, 2, 1.0, 1.0, -0.1)),
])
def test_bounds_reject_bad_inputs(bound, args):
    with pytest.raises(InvalidInputError):
        bound(*args)


def test_input_validation(rng):
    f = random_walk_path(rng, n_steps=10, dt=0.1, start=0.5)
    with pytest.raises(InvalidInputError):
        solve_gamma([], v0=0.0, K=1.0)
    with pytest.raises(InvalidInputError):
        solve_gamma([f], v0=0.0, K=-1.0)
    with pytest.raises(InvalidInputError):
        solve_gamma([f.with_values(f.values - 10.0)], v0=0.0, K=1.0)  # f(0) < 0
    with pytest.raises(InvalidInputError):
        solve_gamma([f], v0=0.0, K=1.0, eps=0.15)  # not a multiple of dt
    g = random_walk_path(rng, n_steps=10, dt=0.2, start=0.5)
    with pytest.raises(InvalidInputError):
        solve_gamma([f, g], v0=0.0, K=1.0)


_DELTA = InitialDistribution.delta(0.5)
BARRIER_ENTRY_POINTS = {
    "SimConfig": lambda K, v0: SimConfig(n=2, T=0.5, dt=0.25, K=K, v0=v0, init=_DELTA, seed=0),
    "solve_gamma": lambda K, v0: solve_gamma([line_path(1.0, T=0.5, dt=0.25)], v0=v0, K=K),
    "solve_limit_mc": lambda K, v0: solve_limit_mc(_DELTA, v0, K, T=0.5, dt=0.25, M=4, seed=0),
    "solve_limit_pde": lambda K, v0: solve_limit_pde(_DELTA, v0, K, T=0.05, dt_pde=1e-4, dx=1e-2),
}


@pytest.mark.parametrize("K, v0", [(-1.0, 0.0), (math.nan, 0.0), (1.0, math.inf)])
@pytest.mark.parametrize("entry", sorted(BARRIER_ENTRY_POINTS))
def test_barrier_parameters_have_one_rule(entry, K, v0):
    message = f"need finite K >= 0 and finite v0, got K = {K}, v0 = {v0}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        BARRIER_ENTRY_POINTS[entry](K, v0)
