"""Mean-field solvers: Monte Carlo fixed point, moving-frame PDE, oracles."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from inertbarrier import meanfield
from inertbarrier.errors import ConvergenceError, InvalidInputError, MassDriftError, NumericalError
from inertbarrier.meanfield import (
    consistency_check,
    density_fixed_barrier,
    reflected_heat_kernel,
    solve_limit_mc,
    solve_limit_pde,
)
from inertbarrier.particles import InitialDistribution, uncoupled_positions
from inertbarrier.paths import SampledPath
from inertbarrier.wasserstein import EmpiricalMeasure, wp_vs_density

DELTA0 = InitialDistribution.delta(0.0)


def line(v0, T, dt):
    n = round(T / dt)
    return SampledPath(0.0, dt, v0 * dt * np.arange(n + 1))


# --- reflected kernel ------------------------------------------------------

def test_kernel_matches_image_construction():
    x = np.linspace(0.0, 5.0, 41)
    for t, x0 in [(0.3, 1.0), (1.0, 1.0), (2.0, 0.5)]:
        expect = stats.norm.pdf(x, loc=x0, scale=math.sqrt(t)) + stats.norm.pdf(
            x, loc=-x0, scale=math.sqrt(t)
        )
        np.testing.assert_allclose(reflected_heat_kernel(t, x, x0), expect, rtol=1e-12)


def test_kernel_mass_and_boundary_flux():
    x = np.arange(0.0, 12.0, 1e-3)
    u = reflected_heat_kernel(0.7, x, 1.0)
    assert np.trapezoid(u, x) == pytest.approx(1.0, abs=1e-9)
    # images make the spatial derivative vanish at the wall
    h = 1e-6
    du = (reflected_heat_kernel(0.7, h, 1.0) - reflected_heat_kernel(0.7, 0.0, 1.0)) / h
    assert abs(du) < 1e-4


# --- Monte Carlo fixed point -----------------------------------------------

def test_mc_no_feedback_is_one_iteration():
    lim = solve_limit_mc(DELTA0, v0=-0.75, K=0.0, T=1.0, dt=1e-2, M=500, seed=4)
    assert lim.iterations == 1
    t = lim.y.times
    np.testing.assert_allclose(lim.y.values, -0.75 * t, atol=1e-14)
    np.testing.assert_array_equal(lim.v.values, -0.75)


def test_mc_faraway_start_never_touches():
    lim = solve_limit_mc(
        InitialDistribution.delta(10.0), v0=0.0, K=1.0, T=1.0, dt=1e-2, M=10_000, seed=4
    )
    assert np.max(np.abs(lim.y.values)) <= 1e-8


def test_mc_determinism():
    kw = dict(init=DELTA0, v0=0.0, K=1.0, T=0.5, dt=1e-2, M=2000, seed=12)
    a, b = solve_limit_mc(**kw), solve_limit_mc(**kw)
    np.testing.assert_array_equal(a.y.values, b.y.values)
    np.testing.assert_array_equal(a.v.values, b.v.values)
    assert a.iterations == b.iterations and a.residual == b.residual


def test_mc_velocity_couples_to_final_regulator_estimate():
    lim = solve_limit_mc(DELTA0, v0=0.2, K=1.5, T=0.5, dt=1e-2, M=2000, seed=12)
    m_est = (0.2 - lim.v.values) / 1.5
    assert m_est[0] == 0.0
    assert np.all(np.diff(m_est) >= -1e-15)
    assert np.all(np.diff(lim.v.values) <= 1e-15)


def test_mc_nonconvergence_raises_with_residual():
    with pytest.raises(ConvergenceError) as info:
        solve_limit_mc(DELTA0, v0=0.0, K=1.0, T=1.0, dt=1e-2, M=2000, seed=4,
                       tol=1e-12, max_iter=2)
    assert info.value.residual > 0.0


@pytest.mark.parametrize("y_init", [
    lambda t: math.nan if t == 0 else 0.0,
    lambda t: math.inf if t > 0.5 else 0.0,
    lambda t: 0.1 + t,
], ids=["nan at 0", "inf later", "starts at 0.1"])
def test_mc_rejects_a_bad_initial_guess_before_any_sweep(monkeypatch, y_init):
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(meanfield, "_mean_regulator_sweep", no_sweep)
    with pytest.raises(InvalidInputError,
                       match=r"^initial guess must be finite and start at y\(0\) = 0$"):
        solve_limit_mc(DELTA0, v0=0.0, K=1.0, T=1.0, dt=1e-2, M=50, seed=4, y_init=y_init)


# --- free-boundary PDE -----------------------------------------------------

@pytest.fixture(scope="module")
def pde_field():
    # shared moderate-resolution solve: K = 1, Dirac start at the wall
    return solve_limit_pde(DELTA0, v0=0.0, K=1.0, T=1.0, dt_pde=1e-4, dx=1e-2)


def test_pde_no_feedback_barrier_is_exact_line():
    field = solve_limit_pde(DELTA0, v0=0.0, K=0.0, T=0.25, dt_pde=1e-4, dx=1e-2)
    np.testing.assert_array_equal(field.y.values, 0.0)
    np.testing.assert_array_equal(field.yprime.values, 0.0)
    assert consistency_check(field).max_residual <= 1e-12


def test_pde_fixed_barrier_kernel_oracle():
    field = solve_limit_pde(
        InitialDistribution.delta(1.0), v0=0.0, K=0.0, T=1.0, dt_pde=1e-4, dx=1e-2
    )
    x = field.x_grid
    expect = reflected_heat_kernel(1.0, x, 1.0)
    got = field.u[-1]
    assert np.max(np.abs(got - expect)) < 1e-3
    assert abs(field.mass_drift) <= 1e-4


def test_pde_mass_conserved_with_feedback(pde_field):
    assert abs(pde_field.mass_drift) <= 1e-4


def test_pde_barrier_concave_and_consistent(pde_field):
    y, yp = pde_field.y.values, pde_field.yprime.values
    assert y[0] == 0.0 and yp[0] == 0.0
    assert np.all(np.diff(yp) <= 1e-12)
    report = consistency_check(pde_field)
    assert report.free_boundary
    # K = 1, start at the wall: the barrier must actually retreat
    assert y[-1] < -0.3


def test_pde_density_at_integrates_to_one(pde_field):
    d = pde_field.density_at(1.0)
    assert np.trapezoid(d.weights, dx=d.dx) == pytest.approx(1.0, abs=1e-6)
    # absolute frame: support starts at the barrier position
    assert d.x0 == pytest.approx(pde_field.y.values[-1])


def test_pde_faraway_start_leaves_barrier_still():
    field = solve_limit_pde(
        InitialDistribution.delta(4.0), v0=0.0, K=1.0, T=0.5, dt_pde=2e-4, dx=2e-2
    )
    assert np.max(np.abs(field.y.values)) < 1e-6


def test_pde_smooth_init_consistency_improves_with_resolution():
    init = InitialDistribution.half_normal(1.0)
    T = 0.5
    res = []
    for dx in (4e-2, 2e-2, 1e-2):
        # largest step that both divides T and respects dt <= dx^2
        dt = T / math.ceil(T / (dx * dx) - 1e-9)
        field = solve_limit_pde(init, v0=0.0, K=1.0, T=T, dt_pde=dt, dx=dx)
        res.append(consistency_check(field).max_residual)
    assert res[2] < res[0]
    assert res[2] <= 5e-3


def test_pde_validates_time_step():
    with pytest.raises(InvalidInputError):
        solve_limit_pde(DELTA0, v0=0.0, K=1.0, T=0.5, dt_pde=1e-2, dx=1e-2)


def test_pde_tight_far_boundary_trips_mass_monitor():
    with pytest.raises(MassDriftError):
        solve_limit_pde(
            InitialDistribution.delta(1.0), v0=0.0, K=0.0, T=1.0,
            dt_pde=8e-4, dx=3e-2, x_max=1.5,
        )


def test_pde_overflowing_frame_velocity_raises_input_error():
    # K * u(0, 0) overflows float64, so the first frame velocity is -inf
    with pytest.raises(InvalidInputError, match="v0 = 0.0 or K = 1.7e[+]308 overflows float64"):
        solve_limit_pde(DELTA0, v0=0.0, K=1.7e308, T=1.0, dt_pde=2.5e-3, dx=5e-2)


def test_nan_mass_trips_mass_monitor():
    stepper = meanfield._FrameStepper(DELTA0, 0.25, 4e-4, 2e-2, None, 0.0)
    u = stepper.u0.copy()
    u[3] = np.nan
    with pytest.raises(MassDriftError, match="nan"):
        stepper.monitor(u)


def test_undershoot_is_clipped_and_counted_below_the_report_level():
    stepper = meanfield._FrameStepper(DELTA0, 0.25, 4e-4, 2e-2, None, 0.0)
    assert stepper.clip_events == 0
    u = stepper.u0.copy()
    u[-3] = 10 * meanfield.CLIP_REPORT_LEVEL  # below the report level: clipped and counted
    u[-2] = 0.1 * meanfield.CLIP_REPORT_LEVEL  # between it and 0: clipped only
    clipped = stepper.monitor(u)
    assert clipped[-3] == 0.0 and clipped[-2] == 0.0
    np.testing.assert_array_equal(clipped[:-3], stepper.u0[:-3])
    assert stepper.clip_events == 1
    assert stepper.min_u == 10 * meanfield.CLIP_REPORT_LEVEL
    assert stepper.mass_drift <= meanfield.MASS_DRIFT_LIMIT


def test_singular_tridiagonal_solve_raises_numerical_error():
    with pytest.raises(NumericalError, match="singular"):
        meanfield.solve_banded(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


def cn_bands(c, dx, h, J):
    """(dl, d, du) of I - h*A(c), as `_cn_step` writes them."""
    lower, diag, upper, diag0, upper0 = meanfield._operator_coefficients(c, dx)
    dl = np.append(np.full(J - 1, -h * lower), 0.0)
    d = np.concatenate(([1.0 - h * diag0], np.full(J - 1, 1.0 - h * diag), [1.0]))
    du = np.append(-h * upper0, np.full(J - 1, -h * upper))
    return dl, d, du


# Cell Peclet number |c|*dx: at most 1 takes centered advection, above 1 upwind
# from the right (c > 0) or from the left (c < 0).
PECLET = st.one_of(st.floats(-1.0, 1.0), st.floats(1.0, 50.0, exclude_min=True),
                   st.floats(-50.0, -1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(peclet=PECLET, dx=st.sampled_from([5e-3, 1e-2, 5e-2]), frac=st.floats(0.05, 1.0),
       J=st.integers(2, 80), seed=st.integers(0, 2**32 - 1))
def test_solve_banded_equals_scipy_bitwise(peclet, dx, frac, J, seed):
    h = 0.5 * frac * dx * dx
    dl, d, du = cn_bands(peclet / dx, dx, h, J)
    rhs = np.random.default_rng(seed).random(J + 1)
    ab = np.zeros((3, J + 1))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    want = scipy.linalg.solve_banded((1, 1), ab, rhs)
    got = meanfield.solve_banded(dl, d, du, rhs.copy())
    assert got.tobytes() == want.tobytes()


def test_import_leaves_scipy_linalg_unloaded():
    """LAPACK and the thread pool load when a PDE solve or `simulate` starts, not on import."""
    src = os.path.dirname(os.path.dirname(meanfield.__file__))
    code = ("import sys, inertbarrier.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'concurrent.futures'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_pde_rejects_initial_kind_without_density(tmp_path):
    p = tmp_path / "init.txt"
    p.write_text("0.5\n1.0\n")
    with pytest.raises(InvalidInputError):
        solve_limit_pde(
            InitialDistribution.from_file(str(p)), v0=0.0, K=1.0, T=0.5,
            dt_pde=1e-4, dx=1e-2,
        )


# --- prescribed barrier ----------------------------------------------------

def test_fixed_barrier_zero_line_matches_kernel():
    g = line(0.0, 1.0, 1e-4)
    field = density_fixed_barrier(g, InitialDistribution.delta(1.0), T=1.0,
                                  dt_pde=1e-4, dx=1e-2)
    expect = reflected_heat_kernel(1.0, field.x_grid, 1.0)
    assert np.max(np.abs(field.u[-1] - expect)) < 1e-3


def test_fixed_barrier_matches_particle_histogram():
    v0, T = -0.5, 1.0
    g = line(v0, T, 2.5e-4)
    init = InitialDistribution.delta(0.5)
    field = density_fixed_barrier(g, init, T=T, dt_pde=1e-4, dx=1e-2)
    positions = uncoupled_positions(g, init, n=100_000, seed=6)
    d = field.density_at(T)
    w1 = wp_vs_density(EmpiricalMeasure.from_samples(positions), d)
    assert w1 <= 0.02
    assert abs(field.mass_drift) <= 1e-4


def test_fixed_barrier_negative_control_not_free_boundary():
    # prescribed parabola is not a solution of the coupled system
    dt = 1e-4
    t = dt * np.arange(round(0.5 / dt) + 1)
    g = SampledPath(0.0, dt, -(t**2))
    field = density_fixed_barrier(g, InitialDistribution.half_normal(1.0), T=0.5,
                                  dt_pde=dt, dx=2e-2)
    report = consistency_check(field)
    assert not report.free_boundary
    assert report.max_residual > 0.5


# --- cross-solver link -----------------------------------------------------

def test_regulator_mean_growth_matches_boundary_density(pde_field):
    """The averaged regulator's growth rate equals half the wall density."""
    lim = solve_limit_mc(DELTA0, v0=0.0, K=1.0, T=1.0, dt=1e-3, M=20_000, seed=8)
    m_est = -lim.v.values  # v0 = 0, K = 1
    tm = lim.v.times
    u0 = pde_field.u[:, 0]
    tf = pde_field.y.times
    for t in (0.3, 0.5, 0.7, 0.9):
        h = 0.05
        slope = (np.interp(t + h, tm, m_est) - np.interp(t - h, tm, m_est)) / (2 * h)
        wall = 0.5 * np.interp(t, tf, u0)
        assert slope == pytest.approx(wall, abs=0.05)
