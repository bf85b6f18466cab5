"""Reflection map: frozen examples plus the comparison properties it must obey."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inertbarrier.errors import InvalidInputError
from inertbarrier.paths import SampledPath
from inertbarrier.skorohod import FLAT_TOL, reflect_against_barrier, reflect_path

from conftest import make_path

finite_values = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(-5.0, 5.0, allow_nan=False, width=64),
)


def path_from(values, dt=0.125):
    return SampledPath(0.0, dt, values)


# --- frozen examples ------------------------------------------------------

def test_mixed_sign_example():
    r = reflect_path(make_path([0.0, -0.5, 0.2, -1.0], dt=1.0))
    np.testing.assert_array_equal(r.m.values, [0.0, 0.5, 0.5, 1.0])
    np.testing.assert_allclose(r.x.values, [0.0, 0.0, 0.7, 0.0], atol=1e-15)


def test_positive_path_untouched():
    r = reflect_path(make_path([1.0, 2.0, 3.0], dt=1.0))
    np.testing.assert_array_equal(r.m.values, 0.0)
    np.testing.assert_array_equal(r.x.values, [1.0, 2.0, 3.0])


def test_steady_descent_pins_to_zero():
    t = np.linspace(0.0, 1.0, 5)
    r = reflect_path(SampledPath(0.0, 0.25, -t))
    np.testing.assert_array_equal(r.m.values, t)
    np.testing.assert_array_equal(r.x.values, 0.0)


def test_negative_start_is_lifted():
    # m(0) = max(-f(0), 0) covers paths that begin below zero
    r = reflect_path(make_path([-2.0, -1.0, -3.0]))
    np.testing.assert_array_equal(r.m.values, [2.0, 2.0, 3.0])
    assert np.all(r.x.values >= 0.0)


def test_barrier_variants():
    f = make_path([0.0, -0.5, 0.2, -1.0], dt=1.0)
    zero = make_path([0.0, 0.0, 0.0, 0.0], dt=1.0)
    against_zero = reflect_against_barrier(f, zero)
    plain = reflect_path(f)
    np.testing.assert_array_equal(against_zero.m.values, plain.m.values)
    np.testing.assert_array_equal(against_zero.x.values, plain.x.values)

    # barrier rising under a still particle carries it along
    t = np.arange(4.0)
    still = make_path(np.zeros(4), dt=1.0)
    rising = make_path(t, dt=1.0)
    carried = reflect_against_barrier(still, rising)
    np.testing.assert_array_equal(carried.m.values, t)
    np.testing.assert_array_equal(carried.x.values, t)

    # particle escaping above a falling barrier is never pushed
    escape = reflect_against_barrier(make_path(t, dt=1.0), make_path(-t, dt=1.0))
    np.testing.assert_array_equal(escape.m.values, 0.0)


def test_grid_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        reflect_against_barrier(make_path([0.0, 1.0], dt=0.1), make_path([0.0, 1.0], dt=0.2))


# --- structural properties ------------------------------------------------

@given(finite_values)
def test_reflection_structure(values):
    r = reflect_path(path_from(values))
    m, x = r.m.values, r.x.values
    assert m[0] == max(-values[0], 0.0)
    assert np.all(np.diff(m) >= 0.0)
    np.testing.assert_array_equal(x, values + m)
    assert np.all(x >= -1e-12)
    # m may only grow while x sits on the boundary
    grew = np.diff(m) > 0
    assert np.all(x[1:][grew] <= FLAT_TOL)


@given(finite_values)
def test_idempotence(values):
    x = reflect_path(path_from(values)).x
    again = reflect_path(x)
    np.testing.assert_array_equal(again.m.values, 0.0)
    np.testing.assert_array_equal(again.x.values, x.values)


@given(finite_values, finite_values.map(np.abs))
def test_monotone_comparison(values, gaps):
    """A pointwise-larger path needs less pushing: f >= g implies m_f <= m_g."""
    k = min(values.size, gaps.size)
    g = path_from(values[:k].copy())
    f = path_from(values[:k] + gaps[:k])
    assert np.all(reflect_path(f).m.values <= reflect_path(g).m.values + 1e-15)


@given(finite_values, finite_values.map(np.abs), st.floats(0.01, 2.0))
def test_increment_comparison(values, bumps, margin):
    """Adding a faster-growing drift can only slow the regulator's growth.

    With y1(0) = y2(0) and y1 gaining strictly more than y2 over every
    interval, the regulator of f + y2 grows at least as much as that of
    f + y1 between any two times.
    """
    k = min(values.size, bumps.size)
    if k < 2:
        return
    f = values[:k]
    d2 = np.concatenate(([0.0], np.diff(values[:k])))  # arbitrary increments
    d1 = d2 + bumps[:k] + margin  # strictly dominating
    y0 = max(-f[0], 0.0)  # ensures f(0) + y1(0) >= 0
    d1[0] = d2[0] = y0
    y1, y2 = np.cumsum(d1), np.cumsum(d2)
    m1 = reflect_path(path_from(f + y1)).m.values
    m2 = reflect_path(path_from(f + y2)).m.values
    assert np.all(np.diff(m2) >= np.diff(m1) - 1e-12)


@given(finite_values, st.data())
def test_time_shift_restart(values, data):
    """Reflecting on [0,T] equals restarting from x(s) with the shifted driver."""
    if values.size < 3:
        return
    full = reflect_path(path_from(values))
    s = data.draw(st.integers(1, values.size - 2))
    shifted = values[s:] - values[s] + full.x.values[s]
    restart = reflect_path(path_from(shifted))
    np.testing.assert_allclose(restart.x.values, full.x.values[s:], atol=1e-12)


@given(finite_values, finite_values)
def test_lipschitz_in_sup_norm(a, b):
    k = min(a.size, b.size)
    ma = reflect_path(path_from(a[:k].copy())).m.values
    mb = reflect_path(path_from(b[:k].copy())).m.values
    gap = np.max(np.abs(a[:k] - b[:k]))
    assert np.max(np.abs(ma - mb)) <= gap + 1e-12
