"""Non-perturbative quantum Brownian motion of a damped harmonic oscillator.

Dissipation coefficients, master-equation diffusion constants, the
Dekker-Valsakumar positivity analysis with its breakdown temperature,
second-moment dynamics, Matsubara-sum thermodynamic reference values, and a
direct grid evolution of the density-matrix master equation.
"""

from .coefficients import AlphaPair, CutoffMode, alpha_arrays, alpha_pair, alpha_prime_free
from .core import (
    BracketError,
    EigenPair,
    NoEquilibriumError,
    PoleError,
    QbmError,
    Regime,
    StabilityError,
    StateError,
    StepSizeError,
    SystemParams,
    TemperatureError,
    decay_rates,
    eigenvalues,
    xcothx,
    xcothx_m1,
)
from .diffusion import (
    DiffusionConstants,
    PositivityReport,
    breakdown_temperature,
    diffusion_constants,
    high_t_diffusion,
    positivity_delta,
    tc_curve,
)
from .dynamics import (
    AnalyticCoefficients,
    MomentState,
    MomentTrajectory,
    analytic_coefficients,
    analytic_solution,
    c2_closed_form,
    equilibrium_moments,
    evolve_numeric,
    free_particle_longtime,
    moment_derivative,
)
from .grid import (
    BoundaryMassWarning,
    DensityGrid,
    evolve,
    gaussian_error,
    gaussian_state,
    moments_from_grid,
    stable_dt,
    step,
)
from .matsubara import (
    CutoffSensitivityWarning,
    MatsubaraConfig,
    drude_friction,
    matsubara_p2,
    matsubara_q2,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaPair",
    "AnalyticCoefficients",
    "BoundaryMassWarning",
    "BracketError",
    "CutoffMode",
    "CutoffSensitivityWarning",
    "DensityGrid",
    "DiffusionConstants",
    "EigenPair",
    "MatsubaraConfig",
    "MomentState",
    "MomentTrajectory",
    "NoEquilibriumError",
    "PoleError",
    "PositivityReport",
    "QbmError",
    "Regime",
    "StabilityError",
    "StateError",
    "StepSizeError",
    "SystemParams",
    "TemperatureError",
    "alpha_arrays",
    "alpha_pair",
    "alpha_prime_free",
    "analytic_coefficients",
    "analytic_solution",
    "breakdown_temperature",
    "c2_closed_form",
    "diffusion_constants",
    "drude_friction",
    "decay_rates",
    "eigenvalues",
    "equilibrium_moments",
    "evolve",
    "evolve_numeric",
    "free_particle_longtime",
    "gaussian_error",
    "gaussian_state",
    "high_t_diffusion",
    "matsubara_p2",
    "matsubara_q2",
    "moment_derivative",
    "moments_from_grid",
    "positivity_delta",
    "stable_dt",
    "step",
    "tc_curve",
    "xcothx",
    "xcothx_m1",
]
