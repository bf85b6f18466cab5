"""Golden outputs: sha256 digests of every CSV the CLI writes, at small configs.

Each case runs one subcommand with a fixed config and seed and compares the
digest of every CSV it writes, and its whole stdout with the --out directory
written as `<out>`, with the pinned values.  The per-particle random
streams are pinned too, by their first draws on both spawn branches.  A
refactor or speedup must leave all of them unchanged; a change that moves
outputs on purpose updates the digests here and says why.

The digests were taken with numpy 2.4.6, scipy 1.17.1 and Python 3.11.7.
numpy's `default_rng` streams are stable across versions, but the floating
point of its reductions is not guaranteed to be, so another numpy may need
the digests re-taken.
"""
import hashlib

import numpy as np
import pytest

from inertbarrier import particles
from inertbarrier.cli import run
from inertbarrier.particles import (
    InitialDistribution,
    mean_regulator_uncoupled,
    particle_stream,
    uncoupled_positions,
)
from inertbarrier.paths import SampledPath

# simulate: n > 32 exercises the export cap; half_normal draws on branch 1.
SIMULATE = """\
n = 40
T = 0.25
dt = 0.0078125
K = 1.0
v0 = 0.2
init.kind = half_normal
init.params = 1.0
"""

# limit-mc: M = 5000 spans two 4096-path chunks of the Picard sweep.
LIMIT_MC = """\
T = 0.25
dt = 0.015625
K = 0.5
v0 = 0.0
M = 5000
tol = 0.01
init.kind = delta
init.params = 0.0
"""

# limit-mc over three Picard windows, (0, 28), (28, 56) and (56, 64), each
# with several sweeps; M = 5000 again spans two chunks.
LIMIT_MC_WINDOWS = """\
T = 1.0
dt = 0.015625
K = 8.0
v0 = 0.0
M = 5000
tol = 0.01
init.kind = delta
init.params = 0.0
"""

# limit-pde: 2500 steps store every second row, so the mollified span seeds rows 2..10.
LIMIT_PDE = """\
T = 1.0
dt_pde = 4e-4
dx = 2e-2
K = 1.0
v0 = 0.0
init.kind = delta
init.params = 0.0
"""

LIMIT_PDE_DENSITY = """\
T = 0.25
dt_pde = 4e-4
dx = 2e-2
K = 2.0
v0 = 0.5
init.kind = exponential
init.params = 2.0
"""

DENSITY_DELTA = """\
T = 1.0
dt_pde = 4e-4
dx = 2e-2
v0 = -0.25
init.kind = delta
init.params = 1.0
"""

DENSITY_HALF_NORMAL = """\
T = 0.25
dt_pde = 4e-4
dx = 2e-2
v0 = -0.5
init.kind = half_normal
init.params = 1.0
"""

# Upwind advection: |c|*dx > 1 on this grid, for c > 0 and for c < 0.
LIMIT_PDE_UPWIND_RIGHT = """\
T = 0.05
dt_pde = 1e-4
dx = 1e-2
K = 1.0
v0 = 150.0
init.kind = exponential
init.params = 2.0
"""

LIMIT_PDE_UPWIND_LEFT = """\
T = 0.05
dt_pde = 1e-4
dx = 1e-2
K = 0.5
v0 = -150.0
init.kind = uniform
init.params = 0.5, 1.0
"""

DENSITY_UPWIND = """\
T = 0.05
dt_pde = 1e-4
dx = 1e-2
v0 = 150.0
init.kind = half_normal
init.params = 1.0
"""

HYDRO = """\
n = 100
T = 0.25
dt = 0.0078125
K = 1.0
v0 = 0.0
init.kind = delta
init.params = 0.5
n_list = 100, 400
reps = 2
dx = 2e-2
dt_pde = 4e-4
"""

CHAOS = """\
n = 4
T = 0.25
dt = 0.03125
K = 0.5
v0 = 0.0
init.kind = uniform
init.params = 0.0, 1.0
n_list = 4, 8
reps = 5
pair = 1, 2
"""

# Long horizons: 4096 particles over 3172 steps span several time blocks of
# the particle engine plus a shorter remainder; hydro simulates that n too.
SIMULATE_BLOCKS = """\
n = 4096
T = 3.09765625
dt = 0.0009765625
K = 1.5
v0 = 0.75
init.kind = exponential
init.params = 2.0
"""

HYDRO_BLOCKS = """\
n = 64
T = 3.09765625
dt = 0.0009765625
K = 1.0
v0 = -0.25
init.kind = uniform
init.params = 0.0, 1.0
n_list = 64, 4096
reps = 2
dx = 0.0625
dt_pde = 0.00390625
"""

GAMMA_RATE = "n = 3\nK = 1.0\nv0 = -0.25\nT = 1.0\n"

CASES = {
    "simulate": ("simulate", SIMULATE, 5, {
        "snapshot.csv": "ba44f9d3d8417dc6206333417f4634778c52648cb6430a86a9f8a8c27c894aca",
        "trajectory.csv": "3374e42b3996249d2636dd24a290a4cd31689bf3a44b7f1824ecac0f1a89e1a2",
        "stdout": (
            "n=40 T=0.25 Y(T)=0.0437736 V(T)=0.144253\n"
            "wrote <out>/trajectory.csv, <out>/snapshot.csv\n"
        ),
    }),
    "simulate-blocks": ("simulate", SIMULATE_BLOCKS, 13, {
        "snapshot.csv": "63020d7069c232691b55f1248578cbf2108b0bfe74b0a8d74c9211dc1f651388",
        "trajectory.csv": "759c1c45ba1b1da0d48284f589072a436d5e89ea0bd2b1bbbf3a5f289095ab0c",
        "stdout": (
            "n=4096 T=3.09765625 Y(T)=-0.713406 V(T)=-0.639761\n"
            "wrote <out>/trajectory.csv, <out>/snapshot.csv\n"
        ),
    }),
    "limit-mc": ("limit-mc", LIMIT_MC, 3, {
        "barrier_mc.csv": "973058541d329721e5da90e1dbf084ccddbee889790f0b70b2a07039989406c5",
        "stdout": (
            "converged in 2 sweeps, residual 4.881e-04\n"
            "wrote <out>/barrier_mc.csv\n"
        ),
    }),
    "limit-mc-windows": ("limit-mc", LIMIT_MC_WINDOWS, 3, {
        "barrier_mc.csv": "2dba4b5567db00edb74c4cbbfa23eef6dee9bd3bdf1e10c1c6aa53efc2823726",
        "stdout": (
            "converged in 11 sweeps, residual 4.199e-04\n"
            "wrote <out>/barrier_mc.csv\n"
        ),
    }),
    "limit-pde": ("limit-pde", LIMIT_PDE, 0, {
        "barrier_pde.csv": "07b9351da53ea021c72eace3903dc9f922aaacfb3b421267294b4ee0f6b9ce3e",
        "density.csv": "5cc20b5a6870abe21fc821b836a79dfa9ceb1a4e16733e3c2e27661ffea28456",
        "stdout": (
            "y(T)=-0.45842 mass drift 5.464e-08 free-boundary residual 1.397e-02\n"
            "wrote <out>/density.csv, <out>/barrier_pde.csv\n"
        ),
    }),
    "limit-pde-density": ("limit-pde", LIMIT_PDE_DENSITY, 0, {
        "barrier_pde.csv": "e1cc873093f228800aa3abf8ca682f9d780affc8765009e450d45317a28874ed",
        "density.csv": "fa22f706af966aedeae6c5abaeca774b23fc5b7f0ec3ee5bcdb9f7edb2f9703a",
        "stdout": (
            "y(T)=0.0748885 mass drift 1.222e-12 free-boundary residual 2.061e-06\n"
            "wrote <out>/density.csv, <out>/barrier_pde.csv\n"
        ),
    }),
    "density-delta": ("density", DENSITY_DELTA, 0, {
        "barrier.csv": "9a11dc070eb0dc4b713d11dc5e67136e20039a29622158d0c495f7f77257a5eb",
        "density.csv": "91454d2b5b2e31b843565a8be847b28a1d7e5cdde450650c20b213a55e8b899d",
        "stdout": (
            "mass drift 2.059e-09\n"
            "wrote <out>/density.csv, <out>/barrier.csv\n"
        ),
    }),
    "density-half-normal": ("density", DENSITY_HALF_NORMAL, 0, {
        "barrier.csv": "4f21515cf3c2652badaf6a5396981ec32c4734cccb1c8f6c86d26a1d89e2c626",
        "density.csv": "fd7177b655f517e676c9300240e42e03fa3d1c3d3fb8deadf711df8d078c7d58",
        "stdout": (
            "mass drift 2.198e-14\n"
            "wrote <out>/density.csv, <out>/barrier.csv\n"
        ),
    }),
    "limit-pde-upwind-right": ("limit-pde", LIMIT_PDE_UPWIND_RIGHT, 0, {
        "barrier_pde.csv": "0b97358d51380558f10ac8b4da35784174fbbe77e289c29a7c6000064951e0b5",
        "density.csv": "d66dc643a3368d35c0df5e814471f1c1a02becfe29c06b1b957e8456c0e270a9",
        "stdout": (
            "y(T)=7.43439 mass drift 1.943e-14 free-boundary residual 4.911e-05\n"
            "wrote <out>/density.csv, <out>/barrier_pde.csv\n"
        ),
    }),
    "limit-pde-upwind-left": ("limit-pde", LIMIT_PDE_UPWIND_LEFT, 0, {
        "barrier_pde.csv": "92f3fd3238319d2d0e78d37b31518bc5e23b2e53a089dc6f4ec3bd6a2c49ecc7",
        "density.csv": "eaa78cf9e48c07fb9e59eb52efadf4c8d7a34db33ce48546c398c680def91387",
        "stdout": (
            "y(T)=-7.5 mass drift 2.122e-05 free-boundary residual 3.212e-12\n"
            "wrote <out>/density.csv, <out>/barrier_pde.csv\n"
        ),
    }),
    "density-upwind": ("density", DENSITY_UPWIND, 0, {
        "barrier.csv": "4e708813f8fb32172c65f3d613bc26af4a5ae774ee5781179ae370f062e3868b",
        "density.csv": "643b5152ff28aedca044cff940b8e2dfc02e46a0dfce0c52defcb96470499e23",
        "stdout": (
            "mass drift 1.799e-14\n"
            "wrote <out>/density.csv, <out>/barrier.csv\n"
        ),
    }),
    "hydro": ("hydro", HYDRO, 2, {
        "hydro.csv": "789ca4921ab0eeef9a1160fc0fa4c045fa06f5a32a1428cbedfb70e516a175ed",
        "stdout": (
            "n=100: W1 0.0720 (sd 0.0339), supY gap 0.0014 (sd 0.0002)\n"
            "n=400: W1 0.0346 (sd 0.0065), supY gap 0.0017 (sd 0.0003)\n"
            "wrote <out>/hydro.csv\n"
        ),
    }),
    "hydro-blocks": ("hydro", HYDRO_BLOCKS, 14, {
        "hydro.csv": "c65c3c76adca992b53b81eff66edde4b9768289f366e5decb63cad7219b992b2",
        "stdout": (
            "n=64: W1 0.1613 (sd 0.0219), supY gap 0.1303 (sd 0.0769)\n"
            "n=4096: W1 0.0454 (sd 0.0048), supY gap 0.0223 (sd 0.0225)\n"
            "wrote <out>/hydro.csv\n"
        ),
    }),
    "chaos": ("chaos", CHAOS, 4, {
        "chaos.csv": "23762c6cfd3f6c683275bded3772080a0e8a42f7243e7f1a31efd8d7402fe776",
        "stdout": (
            "n=4: corr +0.9077 (ci 0.8765)\n"
            "n=8: corr +0.9075 (ci 0.8765)\n"
            "wrote <out>/chaos.csv\n"
        ),
    }),
    "gamma-rate": ("gamma-rate", GAMMA_RATE, 6, {
        "gamma_rate.csv": "db980541d2a38a0d692a8ba2a89b4cfffd4e41e554515cd7e8286fce4ed4ae10",
        "stdout": (
            "level 4: gap 6.272e-03 bound 5.851e-01\n"
            "level 5: gap 4.146e-03 bound 2.926e-01\n"
            "level 6: gap 1.867e-03 bound 1.463e-01\n"
            "level 7: gap 9.463e-04 bound 7.314e-02\n"
            "level 8: gap 4.492e-04 bound 3.657e-02\n"
            "level 9: gap 1.851e-04 bound 1.829e-02\n"
            "level 10: gap 9.910e-05 bound 9.143e-03\n"
            "level 11: gap 5.407e-05 bound 4.571e-03\n"
            "level 12: gap 2.376e-05 bound 2.286e-03\n"
            "wrote <out>/gamma_rate.csv\n"
        ),
    }),
}

# First three standard normals of particle_stream(seed, i, branch), as float.hex.
STREAM_DRAWS = {
    (7, 0, 0): ["0x1.312052d09b742p-3", "-0x1.46c539a4ffc73p-1", "0x1.7b899c4ddfe4fp-3"],
    (7, 0, 1): ["0x1.929876e7e39e3p+0", "-0x1.3949c2fc5a5bap-3", "0x1.a469dfe4c528fp-3"],
    (7, 5, 0): ["0x1.29203df65e34ap-1", "-0x1.6a5b6037b7bd4p+1", "-0x1.0e249da1e6319p-1"],
    (7, 5, 1): ["0x1.075d5e0b15e6ap+0", "0x1.46aa639372347p-1", "-0x1.19c6f36384a83p-1"],
    (2**63 + 11, 3, 0): ["-0x1.5624ee4292079p-1", "0x1.63bdbfb8ec0f1p+1", "-0x1.2107c91d5997cp-1"],
    (2**63 + 11, 3, 1): ["-0x1.528a89057449ap+0", "-0x1.82963d9077a2cp-1", "-0x1.26b6988e7a981p+0"],
    # seeds of one to five 32-bit words, and the largest one-word spawn index
    (0, 0, 0): ["0x1.92625f321f8d5p-1", "-0x1.d70412e7f5b1ep-1", "0x1.78b965b654f72p+0"],
    (0, 0, 1): ["0x1.4432802b0e22cp-1", "0x1.b1fe4502bdac4p-2", "0x1.8178ace80e8c6p-3"],
    (2**32 - 1, 2, 0): ["-0x1.6e59a91e34edap+0", "-0x1.73e8ea1f98428p-2", "-0x1.bfdf389774c9fp-1"],
    (2**32 - 1, 2, 1): ["0x1.5ee7cc799841ep-2", "-0x1.2c4c3ef7127e0p-2", "0x1.b23e5fae391abp-1"],
    (2**32, 2, 0): ["0x1.b05a5ab85e201p-3", "-0x1.ee2f60771d84ap-1", "0x1.56910d75758bap+0"],
    (2**32, 2, 1): ["-0x1.d47f078f7a1c1p-5", "0x1.9546349a825f8p+0", "-0x1.0295c0479a6f5p+0"],
    (2**64 - 1, 9, 0): ["-0x1.f9ce4a70cc188p-1", "0x1.116db6873efe2p+0", "0x1.465ba560688e3p+0"],
    (2**64 - 1, 9, 1): ["-0x1.98e35b94cf906p-2", "0x1.f5da774aeeaf6p+0", "0x1.e3018d9cdec4bp-2"],
    (2**64, 9, 0): ["-0x1.1c04c9d7fbe8ep-1", "0x1.ddc908834c2b8p-2", "0x1.77b88eb19b91ep-2"],
    (2**64, 9, 1): ["-0x1.930108727226ap-1", "-0x1.698a6f293797dp-3", "0x1.1aca487c8bc4dp+0"],
    (2**128 + 1, 4, 0): ["-0x1.34fbe4b315be5p+1", "0x1.5847f28c530c3p-3", "-0x1.08dba52e7433bp+0"],
    (2**128 + 1, 4, 1): ["0x1.db6ca14fdd4c7p-1", "0x1.aa9ed4955c9bfp+0", "-0x1.9fac75ab7a36ep-1"],
    (7, 2**32 - 1, 0): ["0x1.7219a7db1d7c7p-1", "0x1.02953ce9b1a68p+1", "0x1.0dcd629b162eep-1"],
    (7, 2**32 - 1, 1): ["-0x1.460cb55ad6879p-5", "-0x1.4f6c6be6f1c7bp+0", "-0x1.e0d55401930dap-1"],
    (2**128 + 1, 2**32 - 1, 0):
        ["0x1.f5c4ad20bebbfp-2", "0x1.2117059b41ec8p-1", "0x1.e0ae0f29c6f30p-1"],
    (2**128 + 1, 2**32 - 1, 1):
        ["0x1.4a160931f6ac1p+0", "-0x1.2d4626d1fb3ccp+0", "0x1.6a1e4459be21ep+0"],
}


def _outputs(tmp_path, capsys, command, config, seed):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
    assert run(argv) == 0
    outputs = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    outputs["stdout"] = capsys.readouterr().out.replace(str(out), "<out>")
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_digests(tmp_path, case, capsys):
    command, config, seed, expected = CASES[case]
    assert _outputs(tmp_path, capsys, command, config, seed) == expected


@pytest.mark.parametrize("key", sorted(STREAM_DRAWS))
def test_particle_stream_first_draws(key):
    seed, i, branch = key
    draws = particle_stream(seed, i, branch).standard_normal(3)
    assert [float(z).hex() for z in draws] == STREAM_DRAWS[key]


def test_streaming_evaluators_across_chunks():
    # 3000 and 5000 particles span two and three chunks of the mean's sum, 2048 each
    m = mean_regulator_uncoupled(3000, 0.25, 1 / 64, seed=8, v0=-0.5,
                                 init=InitialDistribution.exponential(1.0))
    assert m.hex() == "0x1.efd6b8b9563a7p-5"
    g = SampledPath(0.0, 1 / 64, -0.5 * np.arange(17) / 64)
    pos = uncoupled_positions(g, InitialDistribution.uniform(0.0, 0.5), 5000, seed=9)
    assert hashlib.sha256(pos.tobytes()).hexdigest() == (
        "55ed843b0a74a6f2c953de78e5668fcccfd17bdae00d3933d4d3fe294caf7684"
    )


def test_streaming_evaluators_draw_in_blocks_of_three_particles(monkeypatch):
    monkeypatch.setattr(particles, "_BLOCK_VALUES", 3 * 17)  # 17 grid values a path
    test_streaming_evaluators_across_chunks()
