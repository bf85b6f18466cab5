"""1-d Wasserstein distances: frozen values, metric axioms, density coupling."""
import math

import numpy as np
import pytest
from scipy import stats

from inertbarrier.errors import InvalidInputError
from inertbarrier.wasserstein import (
    EmpiricalMeasure,
    GridDensity,
    wp_empirical,
    wp_vs_density,
)


def half_normal_density(scale=1.0, dx=1e-3, x_hi=8.0):
    x = np.arange(0.0, x_hi + dx / 2, dx)
    return GridDensity(0.0, dx, 2.0 * stats.norm.pdf(x, scale=scale) / scale * scale)


def measure(*atoms):
    return EmpiricalMeasure.from_samples(np.asarray(atoms, dtype=float))


def test_empirical_frozen_values():
    assert wp_empirical(measure(0.0), measure(1.0), p=1) == 1.0
    assert wp_empirical(measure(0.0, 2.0), measure(1.0, 3.0), p=1) == 1.0
    a = measure(0.3, -1.2, 4.0)
    assert wp_empirical(a, a, p=1) == 0.0


def test_empirical_requires_equal_sizes():
    with pytest.raises(InvalidInputError):
        wp_empirical(measure(0.0), measure(1.0, 2.0))


def test_empirical_matches_scipy(rng):
    for _ in range(25):
        n = int(rng.integers(1, 200))
        a, b = rng.normal(size=n), rng.normal(size=n) * 2 + 1
        ours = wp_empirical(EmpiricalMeasure.from_samples(a), EmpiricalMeasure.from_samples(b), p=1)
        assert ours == pytest.approx(stats.wasserstein_distance(a, b), rel=1e-12, abs=1e-12)


def test_metric_axioms(rng):
    for p in (1.0, 2.0):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = EmpiricalMeasure.from_samples(rng.normal(size=n))
            b = EmpiricalMeasure.from_samples(rng.normal(size=n))
            c = EmpiricalMeasure.from_samples(rng.normal(size=n))
            dab, dba = wp_empirical(a, b, p), wp_empirical(b, a, p)
            assert dab == dba
            assert wp_empirical(a, c, p) <= dab + wp_empirical(b, c, p) + 1e-12
            assert wp_empirical(a, a, p) == 0.0


def test_order_monotonicity(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = EmpiricalMeasure.from_samples(rng.normal(size=n))
        b = EmpiricalMeasure.from_samples(rng.normal(size=n))
        assert wp_empirical(a, b, 1.0) <= wp_empirical(a, b, 2.0) + 1e-12


def test_sorted_coupling_beats_arbitrary_pairings(rng):
    for _ in range(20):
        n = int(rng.integers(2, 30))
        x, y = rng.normal(size=n), rng.normal(size=n)
        d = wp_empirical(EmpiricalMeasure.from_samples(x), EmpiricalMeasure.from_samples(y), p=2)
        perm = rng.permutation(n)
        paired = (np.mean(np.abs(x - y[perm]) ** 2)) ** 0.5
        assert d <= paired + 1e-12


def test_grid_density_normalizes_and_validates():
    d = GridDensity(0.0, 0.1, np.ones(11) * 7.3)
    assert np.trapezoid(d.weights, dx=d.dx) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, 0.1, np.zeros(5))
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, -0.1, np.ones(5))
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, 0.1, [1.0, -0.5, 1.0])


def test_quantiles_monotone():
    d = half_normal_density()
    u = np.linspace(1e-4, 1 - 1e-4, 200)
    q = d.quantiles(u)
    assert np.all(np.diff(q) >= 0.0)
    assert d.quantiles(np.array([0.5]))[0] == pytest.approx(
        stats.norm.ppf(0.75), abs=1e-3
    )


def test_point_mass_vs_half_normal_gives_mean():
    """W1 from a Dirac at 0 to a half-normal equals the half-normal mean.

    A single midpoint (the median, about 0.6745) would be off by 15%; the
    quantile integral must be refined well past the atom count.
    """
    d = half_normal_density()
    got = wp_vs_density(measure(0.0), d, p=1)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=2e-3)


def test_translation_invariance(rng):
    d = half_normal_density(dx=5e-3, x_hi=6.0)
    atoms = np.abs(rng.normal(size=64))
    base = wp_vs_density(EmpiricalMeasure.from_samples(atoms), d, p=1)
    s = 3.75
    shifted_d = GridDensity(d.x0 + s, d.dx, d.weights)
    shifted = wp_vs_density(EmpiricalMeasure.from_samples(atoms + s), shifted_d, p=1)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_quantile_self_coupling_decay():
    d = half_normal_density(dx=1e-3)
    for n in (100, 1000):
        u = (np.arange(n) + 0.5) / n
        a = EmpiricalMeasure.from_samples(d.quantiles(u))
        assert wp_vs_density(a, d, p=1) <= d.dx + 1.0 / n


def test_sample_distance_decreases_with_n(rng):
    d = half_normal_density(dx=1e-3)
    means = []
    for n in (100, 1000, 10000):
        vals = [
            wp_vs_density(EmpiricalMeasure.from_samples(np.abs(rng.normal(size=n))), d, p=1)
            for _ in range(5)
        ]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def test_zero_mass_density_rejected():
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, 0.1, np.zeros(3))


def test_order_validation():
    with pytest.raises(InvalidInputError):
        wp_empirical(measure(0.0), measure(1.0), p=0.5)
