"""Desk-scale checks of the study harness (big runs live in the acceptance suite)."""
import numpy as np
import pytest

from inertbarrier.errors import InvalidInputError
from inertbarrier.gamma import refinement_bound, solve_gamma
from inertbarrier.harness import (
    RateRow,
    chaos_test,
    fitted_decay_rate,
    gamma_rate_study,
    hydro_convergence,
    invariant_sweep,
    replicate_seed,
)
from inertbarrier.particles import InitialDistribution, SimConfig
from inertbarrier.paths import SampledPath


def small_config(**kw):
    base = dict(
        n=100, T=0.25, dt=1.0 / 128, K=0.0, v0=-0.25,
        init=InitialDistribution.delta(0.5), seed=11,
    )
    base.update(kw)
    return SimConfig(**base)


def test_replicate_seed_is_deterministic_and_spread():
    assert replicate_seed(7, 3) == replicate_seed(7, 3)
    seeds = {replicate_seed(7, r) for r in range(50)}
    assert len(seeds) == 50
    assert all(isinstance(s, int) and 0 <= s < 2**64 for s in seeds)
    # replicate index matters, not just the pair hash
    assert replicate_seed(7, 0) != replicate_seed(0, 7)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seeds_must_be_integers_at_least_zero(seed):
    with pytest.raises(InvalidInputError, match="seed must be"):
        replicate_seed(seed, 0)
    with pytest.raises(InvalidInputError, match="seed must be"):
        invariant_sweep(seed=seed)
    with pytest.raises(InvalidInputError, match="seed must be"):
        small_config(seed=seed)


# --- refinement-rate study ---------------------------------------------------


def test_rate_gaps_stay_under_bounds():
    rows = gamma_rate_study(K=1.0, v0=0.0, n=2, T=1.0, seed=1)
    assert [r.level for r in rows] == list(range(4, 13))
    for r in rows:
        assert r.eps == 1.0 / 2**r.level
        assert 0.0 <= r.gap <= r.bound


def test_rate_no_feedback_gaps_vanish():
    # K = 0 freezes the velocity, so every lattice gives the same barrier
    rows = gamma_rate_study(K=0.0, v0=-0.5, n=3, T=1.0, seed=4)
    assert all(r.gap == 0.0 for r in rows)
    with pytest.raises(InvalidInputError):
        fitted_decay_rate(rows)


def test_rate_contact_driver_first_order():
    # permanent contact: deterministic driver f(t) = -t pushes the barrier forever
    T, levels = 1.0, range(3, 9)
    nsteps = 2 ** (max(levels) + 1)
    dt = T / nsteps
    f = [SampledPath(0.0, dt, -dt * np.arange(nsteps + 1))]  # sup |f| = 1
    y = {l: solve_gamma(f, 0.0, 1.0, eps=T / 2**l).barrier.y.values
         for l in range(levels.start, levels.stop + 1)}
    rows = [
        RateRow(level=l, eps=T / 2**l, gap=float(np.max(np.abs(y[l] - y[l + 1]))),
                bound=refinement_bound(1.0, 1, 1.0, T, T / 2**l))
        for l in levels
    ]
    assert all(r.gap > 0 for r in rows)
    assert 0.3 <= fitted_decay_rate(rows) <= 0.7


def test_rate_study_validates_inputs():
    # the bound is proved only for v0 <= 0
    with pytest.raises(InvalidInputError, match="only for v0 <= 0"):
        gamma_rate_study(v0=0.5)


def test_fitted_decay_rate_geometric_mean():
    rows = [RateRow(level=l, eps=0.0, gap=g, bound=1.0)
            for l, g in enumerate([0.8, 0.4, 0.2])]
    assert fitted_decay_rate(rows) == pytest.approx(0.5)
    rows = [RateRow(level=0, eps=0.0, gap=0.9, bound=1.0),
            RateRow(level=1, eps=0.0, gap=0.1, bound=1.0)]
    assert fitted_decay_rate(rows) == pytest.approx(1.0 / 9.0)


# --- pair decorrelation ------------------------------------------------------


def test_chaos_rows_reproduce_bitwise():
    base = small_config(K=0.5, T=0.25, dt=1.0 / 32, seed=9)
    rows1 = chaos_test(base, pair=(1, 2), n_list=(4, 8), reps=5)
    rows2 = chaos_test(base, pair=(1, 2), n_list=(4, 8), reps=5)
    assert rows1 == rows2
    assert [r.n for r in rows1] == [4, 8]
    assert all(abs(r.corr) <= 1.0 for r in rows1)


def test_chaos_no_feedback_control():
    # independent particles: correlation is pure sampling noise
    base = small_config(K=0.0, T=0.25, dt=1.0 / 32, seed=2)
    (row,) = chaos_test(base, pair=(1, 2), n_list=(2,), reps=40)
    assert row.ci_halfwidth == pytest.approx(1.96 / np.sqrt(40))
    assert abs(row.corr) <= row.ci_halfwidth


def test_chaos_validates_pair_and_reps():
    base = small_config(T=0.25, dt=1.0 / 32)
    with pytest.raises(InvalidInputError):
        chaos_test(base, pair=(0, 1), n_list=(4,), reps=5)
    with pytest.raises(InvalidInputError):
        chaos_test(base, pair=(2, 2), n_list=(4,), reps=5)
    with pytest.raises(InvalidInputError):
        chaos_test(base, pair=(3, 5), n_list=(4, 8), reps=5)
    with pytest.raises(InvalidInputError):
        chaos_test(base, pair=(1, 2), n_list=(4,), reps=2)
    with pytest.raises(InvalidInputError, match="n_list"):
        chaos_test(base, pair=(1, 2), n_list=(), reps=5)
    with pytest.raises(InvalidInputError, match="two particle labels"):
        chaos_test(base, pair=(1,), n_list=(4,), reps=5)
    with pytest.raises(InvalidInputError, match="two particle labels"):
        chaos_test(base, pair=(1, 2, 3), n_list=(4,), reps=5)


# --- hydrodynamic convergence ------------------------------------------------


def test_hydro_no_feedback_tracks_line():
    base = small_config()
    rows = hydro_convergence(base, n_list=(200, 2000), reps=4, dx=2e-2, dt_pde=4e-4)
    assert [r.n for r in rows] == [200, 2000]
    # K = 0: both barriers are the same straight line
    assert all(r.mean_sup_gap <= 1e-9 for r in rows)
    # empirical law tightens roughly like 1/sqrt(n)
    assert rows[1].mean_w1 < rows[0].mean_w1
    assert all(r.sd_w1 >= 0 and np.isfinite(r.sd_w1) for r in rows)


def test_hydro_rows_reproduce_bitwise():
    base = small_config()
    rows1 = hydro_convergence(base, n_list=(100,), reps=3, dx=2e-2, dt_pde=4e-4)
    rows2 = hydro_convergence(base, n_list=(100,), reps=3, dx=2e-2, dt_pde=4e-4)
    assert rows1 == rows2


def test_hydro_validates_inputs():
    base = small_config()
    with pytest.raises(InvalidInputError):
        hydro_convergence(base, n_list=(1000, 100), reps=3)
    with pytest.raises(InvalidInputError):
        hydro_convergence(base, n_list=(100,), reps=1)
    with pytest.raises(InvalidInputError, match="n_list"):
        hydro_convergence(base, n_list=(), reps=2)


# --- invariant sweep ---------------------------------------------------------


def test_invariant_sweep_clean_on_small_batch():
    assert invariant_sweep(seed=3) == []


def test_invariant_sweep_deterministic():
    assert invariant_sweep(seed=5) == invariant_sweep(seed=5)
