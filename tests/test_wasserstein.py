"""1-d Wasserstein distance against a grid density: quantiles, closed forms, invariances."""
import math

import numpy as np
import pytest
from scipy import stats

from inertbarrier.errors import InvalidInputError
from inertbarrier.wasserstein import (
    EmpiricalMeasure,
    GridDensity,
    wp_vs_density,
)


def half_normal_density(scale=1.0, dx=1e-3, x_hi=8.0):
    x = np.arange(0.0, x_hi + dx / 2, dx)
    return GridDensity(0.0, dx, 2.0 * stats.norm.pdf(x, scale=scale) / scale * scale)


def measure(*atoms):
    return EmpiricalMeasure.from_samples(np.asarray(atoms, dtype=float))


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
    got = wp_vs_density(measure(0.0), d)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=2e-3)


def test_translation_invariance(rng):
    d = half_normal_density(dx=5e-3, x_hi=6.0)
    atoms = np.abs(rng.normal(size=64))
    base = wp_vs_density(EmpiricalMeasure.from_samples(atoms), d)
    s = 3.75
    shifted_d = GridDensity(d.x0 + s, d.dx, d.weights)
    shifted = wp_vs_density(EmpiricalMeasure.from_samples(atoms + s), shifted_d)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_quantile_self_coupling_decay():
    d = half_normal_density(dx=1e-3)
    for n in (100, 1000):
        u = (np.arange(n) + 0.5) / n
        a = EmpiricalMeasure.from_samples(d.quantiles(u))
        assert wp_vs_density(a, d) <= d.dx + 1.0 / n


def test_sample_distance_decreases_with_n(rng):
    d = half_normal_density(dx=1e-3)
    means = []
    for n in (100, 1000, 10000):
        vals = [
            wp_vs_density(EmpiricalMeasure.from_samples(np.abs(rng.normal(size=n))), d)
            for _ in range(5)
        ]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def test_zero_mass_density_rejected():
    with pytest.raises(InvalidInputError):
        GridDensity(0.0, 0.1, np.zeros(3))

