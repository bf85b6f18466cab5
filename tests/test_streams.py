"""`particle_streams` builds numpy's SeedSequence generators, state for state.

The oracle is `default_rng(SeedSequence(entropy=seed, spawn_key=(branch, i)))`,
the definition of particle i's stream.  `particle_streams` hashes the spawn
indices in batches of `_STREAM_CHUNK`; the properties below shrink the batch so
that short ranges cross several batch boundaries, and run ranges across the
step from one to two 32-bit words of the index.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertbarrier import particles
from inertbarrier.errors import InvalidInputError
from inertbarrier.particles import particle_stream, particle_streams


def oracle_state(seed, i, branch):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(branch, i))
    return np.random.default_rng(ss).bit_generator.state


SEEDS = st.one_of(
    st.integers(0, 2**32 + 1),
    st.sampled_from([2**32 - 1, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**128 + 1]),
    st.integers(0, 2**200),
)
STARTS = st.one_of(
    st.integers(0, 40),
    st.integers(2**32 - 30, 2**32 + 5),
    st.integers(2**64 - 30, 2**64),
)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, lo=STARTS, length=st.integers(0, 30), branch=st.sampled_from([0, 1]),
       chunk=st.sampled_from([1, 3, 7, particles._STREAM_CHUNK]))
def test_streams_equal_the_seedsequence_oracle(seed, lo, length, branch, chunk):
    hi = min(lo + length, 2**64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(particles, "_STREAM_CHUNK", chunk)
        gens = list(particle_streams(seed, lo, hi, branch))
    assert len(gens) == hi - lo
    for i, g in zip(range(lo, hi), gens):
        assert g.bit_generator.state == oracle_state(seed, i, branch)


def test_streams_across_default_batches():
    seed = 2**64 + 3
    gens = list(particle_streams(seed, 1000, 1000 + 2 * particles._STREAM_CHUNK + 10))
    for i, g in enumerate(gens, start=1000):
        assert g.bit_generator.state == oracle_state(seed, i, 0)


def test_particle_stream_takes_numpy_integer_seeds():
    for seed in (0, np.uint64(2**63 + 11), np.int32(7)):
        g = particle_stream(seed, 5, 1)
        assert g.bit_generator.state == oracle_state(int(seed), 5, 1)
        assert g.standard_normal(4).tobytes() == (
            np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(1, 5)))
            .standard_normal(4).tobytes()
        )


@given(seed=st.integers(max_value=-1))
def test_negative_seed_is_rejected(seed):
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        particle_streams(seed, 0, 3)


def test_bad_seed_and_range_are_rejected():
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        particle_streams(1.5, 0, 3)
    with pytest.raises(InvalidInputError, match="lo <= hi"):
        particle_streams(0, 3, 2)
    with pytest.raises(InvalidInputError, match="lo <= hi"):
        particle_streams(0, -1, 2)
    with pytest.raises(InvalidInputError, match="lo <= hi"):
        particle_streams(0, 0, 2**64 + 1)


@pytest.mark.parametrize("lo", [0, 2, 5])
def test_an_empty_advancing_window_leaves_every_checkpoint(lo):
    drivers = particles.DriverCheckpoints(particles.InitialDistribution.delta(0.0), 3, 5, 0.01)
    drivers.window(0, 2, 4, np.empty((2, 5)))
    state, b = drivers.state.copy(), drivers.b.copy()
    drivers.window(lo, lo, 4, np.empty((0, 5)), advance=True)
    assert drivers.state.tobytes() == state.tobytes()
    assert drivers.b.tobytes() == b.tobytes()
