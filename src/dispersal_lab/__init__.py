"""Numerical laboratory for dispersal-switching populations.

Two-component reaction-diffusion populations that switch between a slow
and a fast diffusion rate, their persistence thresholds, and their
competition against an ecologically identical single-rate diffuser.
"""

from .mesh import (
    Grid,
    NeumannLaplacian,
    assemble_neumann_laplacian,
    build_grid,
    integrate,
)
from .model import (
    CoefficientSpec,
    Coefficients,
    HypothesisError,
    ModelParams,
    Rectangle,
    RegimeReport,
    SystemKind,
    check_hypothesis_h,
    classify_regime,
    hypothesis_h_holds,
    reaction_rhs,
    sample_coefficient,
    sample_coefficients,
)
from .spectral import (
    ConvergenceError,
    CooperativityError,
    EigenProblem,
    EigenResult,
    ThresholdResult,
    adjoint_principal_eigen,
    find_mu_roots,
    lambda_of_mu,
    lambda_prime_at_zero,
    mu_star_scalar,
    principal_eigen,
    scalar_eigenvalue,
    scalar_problem,
    switching_problem,
)
from .dynamics import (
    SolverOptions,
    State,
    SteadyResult,
    TrajectoryLog,
    constant_state,
    eigenfunction_state,
    integrate_runs,
    integrate_to_steady,
    lyapunov_identity,
    monitor_lyapunov,
    persistence_floor,
    random_state,
)
from .analysis import (
    SweepReport,
    find_threshold,
    lambda2_eigenpair,
    lambda2_sensitivity,
    lambda2_sign_changes,
    logistic_steady,
    subsystem_steady,
    sweep_outcomes,
)

__version__ = "0.1.0"
