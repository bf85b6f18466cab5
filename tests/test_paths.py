import numpy as np
import pytest

from inertbarrier.errors import InvalidInputError
from inertbarrier.paths import (
    SampledPath,
    grids_match,
    sup_distance,
    uniform_grid,
)

from conftest import make_path


def test_basic_accessors():
    p = make_path([0.0, 1.0, 4.0], dt=0.5, t0=1.0)
    assert p.n_steps == 2
    assert p.t_end == pytest.approx(2.0)
    np.testing.assert_allclose(p.times, [1.0, 1.5, 2.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t0=0.0, dt=0.0, values=[0.0, 1.0]),
        dict(t0=0.0, dt=-0.1, values=[0.0, 1.0]),
        dict(t0=np.nan, dt=0.1, values=[0.0, 1.0]),
        dict(t0=0.0, dt=0.1, values=[0.0]),
        dict(t0=0.0, dt=0.1, values=[0.0, np.inf]),
        dict(t0=0.0, dt=0.1, values=[[0.0, 1.0]]),
    ],
)
def test_rejects_bad_construction(kwargs):
    with pytest.raises(InvalidInputError):
        SampledPath(**kwargs)


def test_values_are_read_only():
    p = make_path([0.0, 1.0])
    with pytest.raises(ValueError):
        p.values[0] = 5.0


def test_index_of_snaps_to_grid():
    p = make_path([0.0, 1.0, 2.0], dt=0.1)
    assert p.index_of(0.2) == 2
    assert p.index_of(0.1 + 1e-13) == 1
    with pytest.raises(InvalidInputError):
        p.index_of(0.15)
    with pytest.raises(InvalidInputError):
        p.index_of(0.4)  # past the end


def test_grid_comparison_and_distance():
    a = make_path([0.0, 1.0, 2.0], dt=0.5)
    b = make_path([1.0, 1.0, 1.0], dt=0.5)
    c = make_path([0.0, 1.0, 2.0], dt=0.25)
    assert grids_match(a, b)
    assert not grids_match(a, c)
    assert sup_distance(a, b) == 1.0
    with pytest.raises(InvalidInputError):
        sup_distance(a, c)


def test_uniform_grid_requires_integer_multiple():
    assert uniform_grid(1.0, 0.25) == 4
    assert uniform_grid(1.0, 1e-3) == 1000
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 0.3)
    with pytest.raises(InvalidInputError):
        uniform_grid(-1.0, 0.1)
    with pytest.raises(InvalidInputError):
        uniform_grid(1.0, 2.0)
