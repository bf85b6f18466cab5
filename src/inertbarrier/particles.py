"""Finite particle system: n reflecting Brownian particles above one barrier.

Randomness contract: the stream for particle i is the generator
`default_rng(SeedSequence(entropy=seed, spawn_key=(branch, i)))`, for a seed
>= 0 of any size, so a particle's driver path does not depend on n, on the
other particles, or on how work is scheduled.  Identical configs produce
bitwise-identical trajectories.  This module is the only one that builds or
draws from those streams, and all of them come from `particle_streams`: it
runs SeedSequence's hash over many i at once, and `particle_stream` seeds
each PCG64 with the resulting words, bit for bit the generator above.  The
uncoupled evaluators draw fresh drivers through `_uncoupled_finals`, into one
buffer that every chunk of particles reuses; the mean-field Picard solver
holds a `DriverCheckpoints`, which builds each stream once per solve and
afterwards resumes it from a packed generator state.  `simulate`
keeps every particle's live generator and draws the horizon block by block,
on one helper thread that runs a block ahead of the barrier recursion.  Every
draw goes through `_brownian_chunk`, and `_paths` sums the row-major ones.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError
from .gamma import BarrierRecursion, BarrierTrajectory, check_barrier_parameters, overflow_error
from .paths import PathBundle, SampledPath, uniform_grid
from .wasserstein import EmpiricalMeasure

__all__ = [
    "InitialDistribution",
    "SimConfig",
    "check_seed",
    "particle_streams",
    "ParticleSystemTrajectory",
    "sample_brownian",
    "sample_initial",
    "DriverCheckpoints",
    "simulate",
    "snapshot",
    "mean_regulator_uncoupled",
    "uncoupled_positions",
]

# Spawn-key branches: one namespace per purpose so streams never collide.
_BROWNIAN_BRANCH = 0
_INITIAL_BRANCH = 1

# Initial-law kinds: the number of parameters, their range and what the range
# error says.  sample_file takes a path instead of parameters.
_INIT_KINDS = {
    "delta": (1, lambda c: c >= 0, "a location c >= 0"),
    "uniform": (2, lambda a, b: 0 <= a < b, "0 <= a < b"),
    "exponential": (1, lambda rate: rate > 0, "rate > 0"),
    "half_normal": (1, lambda scale: scale > 0, "scale > 0"),
    "sample_file": (0, None, "a path"),
}

# The uncoupled evaluators draw as many whole paths as fit in this many values
# (at least one) at a time.  `simulate` draws the horizon in time blocks of
# about this many driver values (32 MB in each of its two draw buffers), ...
_BLOCK_VALUES = 1 << 22
# ... but never of fewer steps than this: each particle's draw call costs
# about 1.2 us, which short blocks would repeat too often.
_BLOCK_MIN_STEPS = 64
# Within each draw block, `simulate` sums the drivers and runs the recursion
# over runs of about this many values (4 MB), ...
_RUN_VALUES = 1 << 19
# ... but of no fewer steps than this: shorter runs read each row of the draw
# buffer a few values at a time, and the pass that transposes them slows down
# (2x for runs of one step against 16 at n = 1e6, on a 2-core Xeon VM).
_RUN_MIN_STEPS = 16
# `mean_regulator_uncoupled` sums the regulators this many particles at a time.
# The value fixes the order of that sum; the draws do not depend on it.
_UNCOUPLED_CHUNK = 2048


# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): a pool
# of four 32-bit words and its multiply-xorshift constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# `particle_streams` hashes this many spawn indices at a time.
_STREAM_CHUNK = 1024


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of an integer >= 0, as SeedSequence splits it."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    r = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return r ^ r >> 16


def _entropy_pool(entropy: list) -> list:
    """SeedSequence's pool from its entropy words, each an int or a uint32 array.

    A spawn key follows at least `_POOL_SIZE` seed words, so the pool is
    never short of entropy.  Ints stay ints until an array word mixes in,
    so the words that every spawn index shares are hashed once.
    """
    hc = _INIT_A

    def hashmix(value):
        nonlocal hc
        value = value ^ hc
        hc = hc * _MULT_A & _M32
        value = value * hc & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seeds(pool: list) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) for every index: shape (k, 4), C order."""
    hc = _INIT_B
    half = []
    for j in range(8):
        value = pool[j % _POOL_SIZE] ^ hc
        hc = hc * _MULT_B & _M32
        value = value * hc & _M32
        half.append((value ^ value >> 16).astype(np.uint64))
    lo, hi = np.array(half[0::2]), np.array(half[1::2])
    return np.ascontiguousarray((lo | hi << 32).T)


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 the four uint64 words it was built with."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):  # all that PCG64.__init__ asks for
            raise NotImplementedError("only generate_state(4, np.uint64) is supported")
        return self.words


def check_seed(seed) -> int:
    """seed as an int; InvalidInputError unless it is an integer >= 0."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidInputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return seed


def particle_streams(seed, lo: int, hi: int, branch: int = _BROWNIAN_BRANCH):
    """Generators of particles lo..hi-1 on one spawn branch, built lazily.

    Each equals `particle_stream(seed, i, branch)` bit for bit.  For a fixed
    seed and branch only the spawn index i changes among the entropy words,
    so the words before it are hashed once and the rest of the hash runs as
    uint32 array operations over up to `_STREAM_CHUNK` indices at a time.
    Raises InvalidInputError for a seed that is not an integer >= 0.
    """
    seed = check_seed(seed)
    if not 0 <= lo <= hi <= 1 << 64:
        raise InvalidInputError(f"need 0 <= lo <= hi <= 2**64, got lo = {lo}, hi = {hi}")
    return _hashed_streams(seed, lo, hi, branch)


def _hashed_streams(seed: int, lo: int, hi: int, branch: int):
    run = _uint32_words(seed)
    # SeedSequence pads the seed's words to the pool size before a spawn key.
    prefix = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(branch)
    a = lo
    while a < hi:
        b = min(hi, a + _STREAM_CHUNK, 1 << 32 if a < 1 << 32 else 1 << 64)
        i = np.arange(a, b, dtype=np.uint64)
        index_words = [i & _M32] if a < 1 << 32 else [i & _M32, i >> 32]
        pool = _entropy_pool(prefix + [w.astype(np.uint32) for w in index_words])
        for k, words in enumerate(_pcg64_seeds(pool), start=a):
            yield particle_stream(seed, k, branch, _words=words)
        a = b


def particle_stream(
    seed, i: int, branch: int = _BROWNIAN_BRANCH, *, _words=None
) -> np.random.Generator:
    """Independent generator for particle i, a pure function of (seed, i).

    It is `default_rng(SeedSequence(entropy=seed, spawn_key=(branch, i)))`
    bit for bit.  `particle_streams` passes `_words`, the four uint64 words
    its batched hash gives for i; without them the hash runs for i alone.
    """
    if _words is None:
        return next(particle_streams(seed, i, i + 1, branch))
    return np.random.Generator(np.random.PCG64(_SeedWords(_words)))


@dataclass(frozen=True)
class InitialDistribution:
    """Distribution of initial particle positions, supported on [0, inf).

    kinds: delta(c), uniform(a, b), exponential(rate), half_normal(scale),
    sample_file(path) with one position per line.
    """

    kind: str
    params: tuple[float, ...] = ()
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise InvalidInputError(
                f"unknown init.kind {self.kind!r}; known kinds: {', '.join(_INIT_KINDS)}"
            )
        count, in_range, need = _INIT_KINDS[self.kind]
        p = self.params
        if len(p) != count:
            raise InvalidInputError(f"{self.kind} needs {count} init.params value(s), got {len(p)}")
        ok = bool(self.path) if count == 0 else all(np.isfinite(p)) and in_range(*p)
        if not ok:
            raise InvalidInputError(f"{self.kind} needs {need}")

    @classmethod
    def delta(cls, c: float) -> "InitialDistribution":
        return cls("delta", (float(c),))

    @classmethod
    def uniform(cls, a: float, b: float) -> "InitialDistribution":
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def exponential(cls, rate: float) -> "InitialDistribution":
        return cls("exponential", (float(rate),))

    @classmethod
    def half_normal(cls, scale: float) -> "InitialDistribution":
        return cls("half_normal", (float(scale),))

    @classmethod
    def from_file(cls, path: str) -> "InitialDistribution":
        return cls("sample_file", (), str(path))

    def _file_values(self) -> np.ndarray:
        try:
            vals = np.loadtxt(self.path, dtype=np.float64, ndmin=1)
        except OSError as exc:
            raise InvalidInputError(f"cannot read sample file {self.path!r}: {exc}") from exc
        except ValueError as exc:
            raise InvalidInputError(f"malformed sample file {self.path!r}: {exc}") from exc
        if vals.ndim != 1:
            raise InvalidInputError("sample file must hold one position per line")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidInputError("sample file positions must be finite and >= 0")
        return vals

    @property
    def atom(self) -> float | None:
        """Location of a delta law; None for every other kind."""
        return self.params[0] if self.kind == "delta" else None

    def upper_extent(self) -> float:
        """Finite bound on where the initial mass effectively ends."""
        if self.kind == "delta":
            return self.params[0]
        if self.kind == "uniform":
            return self.params[1]
        if self.kind == "exponential":
            return -math.log(1e-9) / self.params[0]
        if self.kind == "half_normal":
            return 6.2 * self.params[0]
        return float(np.max(self._file_values()))

    def density_on_grid(self, x: np.ndarray) -> np.ndarray:
        """Density values at grid points; InvalidInputError when no density exists."""
        if self.kind == "uniform":
            a, b = self.params
            return ((x >= a) & (x <= b)) / (b - a)
        if self.kind == "exponential":
            rate = self.params[0]
            return rate * np.exp(-rate * np.maximum(x, 0.0))
        if self.kind == "half_normal":
            s = self.params[0]
            return np.sqrt(2.0 / np.pi) / s * np.exp(-(x**2) / (2 * s**2))
        raise InvalidInputError(
            f"init.kind {self.kind!r} has no density; the density solvers accept a delta "
            "or a law with a density"
        )


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one particle-system run."""

    n: int
    T: float
    dt: float
    K: float
    v0: float
    init: InitialDistribution
    seed: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InvalidInputError(f"n must be a positive integer, got {self.n!r}")
        uniform_grid(self.T, self.dt)
        check_barrier_parameters(self.K, self.v0)
        check_seed(self.seed)

    @property
    def n_steps(self) -> int:
        return uniform_grid(self.T, self.dt)


@dataclass(frozen=True)
class ParticleSystemTrajectory:
    """Coupled trajectories: the barrier, every final position, the kept paths.

    particles[i] and m[i] are the path and regulator of particle i, for the
    leading particles that `simulate` kept (all n unless asked otherwise).
    final[i] is the position of particle i at T, for all n.
    """

    config: SimConfig
    barrier: BarrierTrajectory
    particles: PathBundle
    m: PathBundle
    final: np.ndarray

    def require_all_paths(self, what: str) -> None:
        """Raise InvalidInputError unless all n paths were kept; `what` needs them."""
        if len(self.particles) < self.config.n:
            raise InvalidInputError(
                f"{what} needs all {self.config.n} particle paths; "
                f"this trajectory kept {len(self.particles)}"
            )


def _brownian_chunk(seed, lo: int, hi: int, nsteps: int, streams=None, out=None):
    """Standard normals of particles lo..hi-1 for nsteps steps: shape (hi-lo, nsteps+1).

    Columns 1.. hold the raw normals of steps k+1..k+nsteps; column 0 is left
    for `_paths`.  The draws come from fresh streams, unless `streams` gives
    hi-lo generators that have drawn the first k normals.  They are written
    into `out` when it is given.  Each row takes one draw call.
    """
    if streams is None:
        streams = particle_streams(seed, lo, hi)
    if out is None:
        out = np.empty((hi - lo, nsteps + 1))
    # Streams first, so that a generator of them sees each draw end.
    for g, row in zip(streams, out):
        g.standard_normal(out=row[1:])
    return out


def _paths(w: np.ndarray, dt: float, b=0.0) -> np.ndarray:
    """`_brownian_chunk`'s draws w made into paths in place: column j becomes B(k+j).

    b holds the paths' values B(k) at their first step; the default 0.0
    starts fresh paths.  The scaling and the cumulative sum run row by row in
    sequence, so the values match a path drawn on its own.
    """
    w[:, 0] = b
    w[:, 1:] *= np.sqrt(dt)
    return np.add.accumulate(w, axis=1, out=w)


def _initial_chunk(init: InitialDistribution, seed, lo: int, hi: int) -> np.ndarray:
    if init.kind == "delta":
        return np.full(hi - lo, init.params[0])
    if init.kind == "sample_file":
        vals = init._file_values()
        if vals.size < hi:
            raise InvalidInputError(
                f"sample file {init.path!r} has {vals.size} positions, need {hi}"
            )
        return vals[lo:hi].copy()
    out = np.empty(hi - lo)
    for row, g in enumerate(particle_streams(seed, lo, hi, _INITIAL_BRANCH)):
        if init.kind == "uniform":
            a, b = init.params
            out[row] = a + (b - a) * g.random()
        elif init.kind == "exponential":
            out[row] = g.exponential(1.0 / init.params[0])
        else:  # half_normal
            out[row] = abs(init.params[0] * g.standard_normal())
    return out


def sample_brownian(n: int, T: float, dt: float, seed) -> PathBundle:
    """n independent Brownian paths from 0 on the uniform grid.

    Increments are N(0, dt); particle i's stream depends only on (seed, i).
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    nsteps = uniform_grid(T, dt)
    return PathBundle(0.0, dt, _paths(_brownian_chunk(seed, 0, n, nsteps), dt))


def sample_initial(init: InitialDistribution, n: int, seed) -> np.ndarray:
    """n initial positions, one independent stream per particle; each must be finite."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    xi = _initial_chunk(init, seed, 0, n)
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("initial positions must be finite")
    return xi


_WORD = (1 << 64) - 1


def _pack_state(bitgen) -> tuple[int, int, int, int]:
    """PCG64 state and increment as four 64-bit words, high word first.

    Normal draws take whole 64-bit outputs, so the generator's buffered
    32-bit half stays empty and these four words are its whole state.
    """
    st = bitgen.state["state"]
    return st["state"] >> 64, st["state"] & _WORD, st["inc"] >> 64, st["inc"] & _WORD


class DriverCheckpoints:
    """Drivers f_i = xi_i + B_i of particles 0..n-1 that resume at a common step k.

    Per particle it keeps xi_i, B_i(k) and the PCG64 state of its Brownian
    stream after k normals, packed in four uint64: 48 bytes.  Each stream is
    built once, at k = 0.  `window` draws steps k..k+nsteps from the
    checkpoint as often as asked, and with advance=True moves it to
    k+nsteps.  The values equal those of a fresh draw over the same steps.
    """

    def __init__(self, init: InitialDistribution, seed, n: int, dt: float):
        self.seed, self.dt = seed, dt
        self.xi = sample_initial(init, n, seed)
        self.b = np.zeros(n)
        self.state = np.empty((n, 4), dtype=np.uint64)
        for i, g in enumerate(particle_streams(seed, 0, n)):
            self.state[i] = _pack_state(g.bit_generator)
        # Every draw restores a checkpointed state into this one generator first.
        self._gen = np.random.Generator(np.random.PCG64(0))

    def _streams(self, lo: int, hi: int, advance: bool):
        """The shared generator, restored to each checkpoint of lo..hi-1 in turn.

        With advance=True, each path's state is saved once its draw is done.
        """
        bitgen = self._gen.bit_generator
        for i, (sh, sl, ih, il) in enumerate(map(np.ndarray.tolist, self.state[lo:hi]), start=lo):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield self._gen
            if advance:
                self.state[i] = _pack_state(bitgen)

    def window(self, lo: int, hi: int, nsteps: int, out: np.ndarray, advance: bool = False):
        """f of particles lo..hi-1 on steps k..k+nsteps, written into out (hi-lo, nsteps+1)."""
        streams = self._streams(lo, hi, advance)
        f = _paths(_brownian_chunk(self.seed, lo, hi, nsteps, streams, out), self.dt, self.b[lo:hi])
        if advance:
            self.b[lo:hi] = f[:, -1]
        f += self.xi[lo:hi, None]
        return f


def simulate(config: SimConfig, keep: int | None = None) -> ParticleSystemTrajectory:
    """Run the coupled system on the config grid.

    Drivers are f_i = xi_i + B_i; the barrier map is run at its finest
    lattice (eps = dt).  The horizon is run in blocks of steps: each block
    draws the next steps of every particle's stream, and only the barrier,
    the kept paths and the final positions outlive it.  A helper thread
    draws block k+1 while this thread runs the recursion over block k, a
    short run of steps at a time; the values do not depend on that timing
    or on the run length.  Memory is about 1 KB of generator state per
    particle, two draw buffers, one run buffer and the kept paths.

    Parameters
    ----------
    config : SimConfig
    keep : int, optional
        How many leading particles keep their full path and regulator; all
        n by default.  A trajectory that keeps fewer has no snapshot before
        T and no velocity envelope.

    Returns
    -------
    ParticleSystemTrajectory
        particles[i] = reflected path of driver i, m[i] its regulator, for
        i < keep; final = every particle's position at T; barrier the shared
        barrier trajectory.
    """
    n, nsteps, dt, seed = config.n, config.n_steps, config.dt, config.seed
    try:
        count = n if keep is None else operator.index(keep)
    except TypeError:
        count = -1
    if isinstance(keep, bool) or count < 0:  # keep=True reads as "every path", not as 1
        raise InvalidInputError(f"keep must be an integer >= 0, got {keep!r}")
    keep = min(count, n)
    xi = sample_initial(config.init, n, seed)
    recursion = BarrierRecursion(n, nsteps, dt, config.v0, config.K)
    block = min(nsteps, max(_BLOCK_MIN_STEPS, _BLOCK_VALUES // n))
    sub = min(block, max(_RUN_MIN_STEPS, _RUN_VALUES // n))
    streams = list(particle_streams(seed, 0, n))
    draws = np.empty((2, n, block + 1))  # one row per particle
    run = np.empty((sub + 1, n))  # f on a run's steps, one row per step
    x_kept = np.empty((keep, nsteps + 1))
    m_kept = np.empty((keep, nsteps + 1))
    b_start = np.zeros(n)  # B_i at the run's first step

    def draw(k0):  # the normals of the block from step k0, into alternate buffers
        b = min(block, nsteps - k0)
        out = draws[k0 // block % 2, :, : b + 1]
        return _brownian_chunk(seed, 0, n, b, streams, out)

    # Imported here, not with the module: runs that never simulate skip its cost.
    from concurrent.futures import ThreadPoolExecutor

    # The helper draws block k+1 while this thread runs block k; each stream
    # is drawn by one thread at a time, in block order.  Block 0 is drawn
    # here, so a one-block run starts no thread.
    with ThreadPoolExecutor(1) as helper:
        for k0 in range(0, nsteps, block):
            w = pending.result() if k0 else draw(0)
            if k0 + block < nsteps:
                pending = helper.submit(draw, k0 + block)
            steps = w.shape[1] - 1
            for j0 in range(0, steps, sub):  # the run over steps k0+j0..k0+j0+b
                b = min(sub, steps - j0)
                f = run[: b + 1]
                f[0] = b_start
                np.multiply(w[:, j0 + 1 : j0 + b + 1].T, np.sqrt(dt), out=f[1:])
                np.add.accumulate(f, axis=0, out=f)
                b_start[:] = f[b]
                f += xi
                kept = slice(k0 + j0, k0 + j0 + b + 1)
                x_kept[:, kept] = f[:, :keep].T
                recursion.run(f)  # the regulators overwrite the drivers
                x_kept[:, kept] += f[:, :keep].T
                m_kept[:, kept] = f[:, :keep].T
    return ParticleSystemTrajectory(
        config=config,
        barrier=recursion.barrier(),
        particles=PathBundle(0.0, dt, x_kept),
        m=PathBundle(0.0, dt, m_kept),
        final=(b_start + xi) + f[b],  # f(T) + m(T)
    )


def snapshot(traj: ParticleSystemTrajectory, t: float) -> EmpiricalMeasure:
    """Empirical measure of particle positions at grid time t."""
    k = traj.barrier.y.index_of(t)
    if k == traj.barrier.y.n_steps:
        return EmpiricalMeasure.from_samples(traj.final)
    traj.require_all_paths(f"a snapshot at t = {t} < T")
    return EmpiricalMeasure.from_samples(traj.particles.values[:, k])


def _uncoupled_finals(y: np.ndarray, init: InitialDistribution, n: int, seed, dt: float):
    """f_i(T) and m_i(T) = max(0, max_k (y_k - f_i(t_k))) of n particles above barrier y.

    The drivers f_i = xi_i + B_i are drawn as many paths at a time as fit in
    `_BLOCK_VALUES` values (at least one), into one buffer that every chunk reuses.
    """
    xi = sample_initial(init, n, seed)
    final, m = np.empty(n), np.empty(n)
    chunk = min(n, max(1, _BLOCK_VALUES // len(y)))
    buf = np.empty((chunk, len(y)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        f = _paths(_brownian_chunk(seed, lo, hi, len(y) - 1, out=buf[: hi - lo]), dt)
        f += xi[lo:hi, None]
        final[lo:hi] = f[:, -1]
        np.max(np.subtract(y, f, out=f), axis=1, out=m[lo:hi])
    return final, np.maximum(m, 0.0, out=m)


def mean_regulator_uncoupled(
    n: int,
    T: float,
    dt: float,
    seed,
    v0: float = 0.0,
    init: InitialDistribution | None = None,
) -> float:
    """Mean final regulator of n independent particles above the line v0*t.

    This is the zero-impulse (K = 0) system evaluated without storing all
    trajectories, so n can be large.  Matches simulate() up to float
    accumulation order in the barrier line.  Raises InvalidInputError unless
    v0 is finite and the line and the regulators' sum stay in the float64 range.
    """
    check_barrier_parameters(0.0, v0)
    if init is None:
        init = InitialDistribution.delta(0.0)
    nsteps = uniform_grid(T, dt)
    if not math.isfinite(v0 * (dt * nsteps)):  # the line's largest value in magnitude
        raise overflow_error(f"v0 = {v0}")
    _, m = _uncoupled_finals(v0 * (dt * np.arange(nsteps + 1)), init, n, seed, dt)
    total = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, n, _UNCOUPLED_CHUNK):
            total += float(np.add.reduce(m[lo : lo + _UNCOUPLED_CHUNK]))
    if not math.isfinite(total):
        raise overflow_error(f"the regulators' sum at v0 = {v0}")
    return total / n


def uncoupled_positions(
    g: SampledPath,
    init: InitialDistribution,
    n: int,
    seed,
) -> np.ndarray:
    """Final positions of n independent particles reflected above barrier g.

    Zero-impulse dynamics with a prescribed barrier path; memory use is
    bounded by the chunk size.  g must start at the particles' time origin,
    t0 = 0; InvalidInputError otherwise.
    """
    if g.t0 != 0:
        raise InvalidInputError(f"barrier must start at t0 = 0, the particles' origin; got {g.t0}")
    return np.add(*_uncoupled_finals(g.values, init, n, seed, g.dt))  # f_i(T) + m_i(T)
