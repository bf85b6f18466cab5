"""Brownian particles reflecting off an inert, momentum-absorbing barrier.

The package has three layers:

* pathwise construction — the Skorohod reflection map (`skorohod`) and the
  barrier fixed point driven by n paths (`gamma`), wrapped with Brownian
  drivers in `particles`;
* mean-field limit — a Monte Carlo fixed-point solver and a moving-frame
  free-boundary PDE solver (`meanfield`), compared through 1-d Wasserstein
  distances (`wasserstein`);
* studies — convergence tables and invariant sweeps (`harness`), CSV/config
  plumbing (`io`) and the `inertbarrier` command line (`cli`).
"""
from .errors import (
    ConvergenceError,
    InvalidInputError,
    MassDriftError,
    NumericalError,
)
from .gamma import (
    BarrierTrajectory,
    GammaResult,
    lipschitz_envelope,
    refinement_bound,
    solve_gamma,
    velocity_envelope,
)
from .harness import (
    ChaosRow,
    HydroRow,
    RateRow,
    chaos_test,
    fitted_decay_rate,
    gamma_rate_study,
    hydro_convergence,
    invariant_sweep,
)
from .meanfield import (
    ConsistencyReport,
    DensityField,
    LimitBarrier,
    consistency_check,
    density_fixed_barrier,
    reflected_heat_kernel,
    solve_limit_mc,
    solve_limit_pde,
)
from .particles import (
    InitialDistribution,
    ParticleSystemTrajectory,
    SimConfig,
    mean_regulator_uncoupled,
    sample_brownian,
    sample_initial,
    simulate,
    snapshot,
)
from .paths import PathBundle, SampledPath, sup_distance, uniform_grid
from .skorohod import ReflectionResult, reflect_against_barrier, reflect_path
from .wasserstein import EmpiricalMeasure, GridDensity, wp_vs_density

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InvalidInputError",
    "NumericalError",
    "ConvergenceError",
    "MassDriftError",
    # paths & reflection
    "SampledPath",
    "PathBundle",
    "uniform_grid",
    "sup_distance",
    "ReflectionResult",
    "reflect_path",
    "reflect_against_barrier",
    # barrier map
    "BarrierTrajectory",
    "GammaResult",
    "solve_gamma",
    "lipschitz_envelope",
    "refinement_bound",
    "velocity_envelope",
    # particle system
    "SimConfig",
    "InitialDistribution",
    "ParticleSystemTrajectory",
    "simulate",
    "snapshot",
    "sample_brownian",
    "sample_initial",
    "mean_regulator_uncoupled",
    # measures
    "EmpiricalMeasure",
    "GridDensity",
    "wp_vs_density",
    # mean-field solvers
    "LimitBarrier",
    "DensityField",
    "ConsistencyReport",
    "solve_limit_mc",
    "solve_limit_pde",
    "density_fixed_barrier",
    "consistency_check",
    "reflected_heat_kernel",
    # studies
    "HydroRow",
    "ChaosRow",
    "RateRow",
    "hydro_convergence",
    "chaos_test",
    "gamma_rate_study",
    "fitted_decay_rate",
    "invariant_sweep",
]
