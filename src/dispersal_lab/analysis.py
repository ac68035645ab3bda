"""Semi-trivial equilibria, their invasion eigenvalues, threshold root-finds, and sweeps.

For the three-component competition the two semi-trivial states are
(u*, v*, 0) — the switching pair alone — and (0, 0, w*) — the single
diffuser alone, both found by dynamics.newton_steady.  Invasion of w
into the pair is governed by the scalar eigenvalue at diffusion d3 with
potential m - u* - v*; invasion of the pair into w is governed by the
coupled eigenvalue lambda2 with growth m - w*.  The threshold finders
refine the roots of these curves by Brent's method inside their proved
sign brackets; sweeps cross-check eigenvalue signs against simulated
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .mesh import Grid, integrate
from .model import (
    CoefficientSpec,
    Coefficients,
    HypothesisError,
    ModelParams,
    SystemKind,
    check_hypothesis_h,
    require_constant,
    sample_coefficients,
)
from .dynamics import (
    NEWTON_ROUNDING,
    NUMERICAL_FAILURES,
    SolverOptions,
    SteadyResult,
    constant_state,
    integrate_runs,
    newton_steady,
)
from .spectral import (
    ConvergenceError,
    EigenProblem,
    EigenResult,
    ThresholdResult,
    bisect_curve,
    eigen_curve,
    find_mu_roots,
    mu_family,
    mu_star_scalar,
    principal_eigen,
    scalar_eigenvalue,
    scalar_problem,
    scan_roots,
    switching_problem,
)

# Lattice of the d_0 scan.  It has 17 points because on 16 the halving that
# refined roots before Brent's method stalled at |f| = 1.05e-9.
D0_SCAN_POINTS = 17

# The parameters a sweep can vary, for sweep_outcomes and the CLI's sweep task.
SWEEP_PARAMETERS = ("d3", "beta", "alpha")


@dataclass(frozen=True)
class SweepPoint:
    value: float
    lambda_uv0: float
    lambda_00w: float
    outcome: str  # w_wins | uv_wins | undetermined
    floors: tuple[float, ...]
    converged: bool
    residual: float  # final right-hand-side sup-norm; nan if the simulation failed
    steps: int
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    parameter: str
    points: tuple[SweepPoint, ...]
    empirical_c1: Optional[float]
    empirical_c2: Optional[float]


def weighted_average_diffusion(params: ModelParams, alpha: float, beta: float) -> float:
    """Switching-weighted mean of the two diffusion rates."""
    return (beta * params.d1 + alpha * params.d2) / (alpha + beta)


def _positive_steady(result: SteadyResult, system: str) -> SteadyResult:
    """The result if it is a strictly positive steady state, else HypothesisError.

    Where no positive state exists, Newton from a positive start converges
    to zero, to within NEWTON_ROUNDING.
    """
    comps = result.state.components
    if not result.converged:
        raise HypothesisError(f"{system} did not reach a steady state")
    if float(np.min(comps)) <= 0 or float(np.max(comps)) <= NEWTON_ROUNDING:
        raise HypothesisError(f"{system} settled on a non-positive state; "
                              "the growth rate may not sustain a positive one")
    return result


def logistic_steady(
    params: ModelParams,
    grid: Grid,
    coeffs: Optional[Coefficients] = None,
) -> SteadyResult:
    """Positive steady state of the single-species logistic equation at rate d3."""
    if coeffs is None:
        coeffs = sample_coefficients(params, grid)
    level = 0.5 * float(np.max(coeffs.m))
    init = constant_state(SystemKind.LOGISTIC, grid, [max(level, 1e-3)])
    return _positive_steady(newton_steady(SystemKind.LOGISTIC, params, grid, init, coeffs),
                            "logistic equation")


def subsystem_steady(
    params: ModelParams, grid: Grid, coeffs: Optional[Coefficients] = None
) -> SteadyResult:
    """Positive steady state (u*, v*) of the switching pair with shared density."""
    if coeffs is None:
        coeffs = sample_coefficients(params, grid)
    init = constant_state(SystemKind.SUBMODEL, grid,
                          [0.25 * np.max(coeffs.beta), 0.25 * np.max(coeffs.alpha)])
    return _positive_steady(newton_steady(SystemKind.SUBMODEL, params, grid, init, coeffs),
                            "switching pair")


def _lambda2_problem(params: ModelParams, grid: Grid, w_star: np.ndarray,
                     coeffs: Coefficients) -> EigenProblem:
    return switching_problem(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta,
                             coeffs.m - w_star)


def lambda2_eigenpair(
    params: ModelParams, grid: Grid, w_star: np.ndarray, coeffs: Optional[Coefficients] = None
) -> EigenResult:
    """Invasion eigenpair of the switching pair at (0, 0, w*)."""
    if coeffs is None:
        coeffs = sample_coefficients(params, grid)
    return principal_eigen(_lambda2_problem(params, grid, w_star, coeffs))


def _constant_rates(params: ModelParams) -> tuple[float, float]:
    return require_constant(params.alpha, "alpha"), require_constant(params.beta, "beta")


def _check_section5_setting(params: ModelParams, coeffs: Coefficients, size_bound: str) -> tuple[float, float]:
    alpha, beta = _constant_rates(params)
    if not params.d1 < params.d3 < params.d2:
        raise HypothesisError(
            f"need d1 < d3 < d2, got d1={params.d1}, d3={params.d3}, d2={params.d2}"
        )
    m_max = float(np.max(coeffs.m))
    bound = alpha if size_bound == "alpha" else beta
    if m_max > bound:
        raise HypothesisError(f"need max m <= {size_bound}, got max m={m_max} > {size_bound}={bound}")
    return alpha, beta


@dataclass(frozen=True)
class ThresholdCurve:
    """A threshold's eigenvalue curve, built once, and every root of it in order.

    curve is set when a verified sign bracket holds the one root, which
    spectral.bisect_curve refines (d_c, beta_c, alpha_c); roots[0].bracket
    is that bracket.  curve is the memoized principal eigenvalue of
    curve.family, which maps the varied value to its eigenproblem
    (spectral.eigen_curve), and its memo curve.values holds every point
    the root-find solved: the bracket ends, alpha_c's doublings and
    Brent's iterates; curve.enclosures holds the eigenvalue enclosure of
    each of those points whose solve stalled and stopped at the
    iteration cap.  The other thresholds scan a lattice
    (spectral.scan_roots) and keep only their roots.
    """

    roots: list[ThresholdResult]
    curve: Optional[Callable[[float], float]] = None


def _scanned(roots: list[ThresholdResult], error: type[Exception], message: str) -> ThresholdCurve:
    if not roots:
        raise error(message)
    return ThresholdCurve(roots)


def _d_c(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """Zero of the scalar invasion eigenvalue at (u*, v*, 0) in d3 on (d1, weighted average)."""
    check_hypothesis_h(coeffs)
    alpha, beta = _constant_rates(params)
    lo, hi = params.d1, weighted_average_diffusion(params, alpha, beta)
    u, v = subsystem_steady(params, grid, coeffs).state.components
    potential = coeffs.m - u - v
    if float(np.max(potential)) - float(np.min(potential)) <= 1e-6:
        raise HypothesisError("m - u* - v* is numerically constant; bracket theory void")
    curve = eigen_curve(lambda d3: scalar_problem(grid, d3, potential))
    f_lo, f_hi = curve(lo), curve(hi)
    if not (f_lo > 0 > f_hi):
        raise HypothesisError(
            f"endpoint signs violate the d_c bracket: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    return ThresholdCurve([bisect_curve(curve, lo, hi, name="d_c")], curve)


def _d_0(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """Every zero of lambda2(d3) on the D0_SCAN_POINTS lattice."""
    return _scanned(lambda2_sign_changes(params, grid, coeffs),
                    ConvergenceError, "no sign change of the invasion eigenvalue found for d_0")


def _rate_family(params: ModelParams, grid: Grid, coeffs: Coefficients,
                 rate: str) -> Callable[[float], EigenProblem]:
    """The lambda2 problem at (0, 0, w*) as the constant switching rate `rate` varies,
    w* held fixed."""
    (w_star,) = logistic_steady(params, grid, coeffs).state.components
    growth = coeffs.m - w_star

    def family(value: float) -> EigenProblem:
        rates = {"alpha": coeffs.alpha, "beta": coeffs.beta, rate: np.full(grid.n, value)}
        return switching_problem(grid, params.d1, params.d2, rates["alpha"], rates["beta"],
                                 growth)
    return family


def _beta_c(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """Zero of lambda2(beta) on (1e-4 hi, hi), hi = (d2 - d3) / (d3 - d1) * alpha."""
    check_hypothesis_h(coeffs)
    alpha, _ = _check_section5_setting(params, coeffs, "alpha")
    curve = eigen_curve(_rate_family(params, grid, coeffs, "beta"))
    hi = (params.d2 - params.d3) / (params.d3 - params.d1) * alpha
    lo = 1e-4 * hi
    f_lo, f_hi = curve(lo), curve(hi)
    if not (f_lo < 0 < f_hi):
        raise HypothesisError(f"endpoint signs violate the beta_c bracket: "
                              f"f({lo:.3e})={f_lo:.3e}, f({hi:.3e})={f_hi:.3e}")
    return ThresholdCurve([bisect_curve(curve, lo, hi, name="beta_c")], curve)


def _alpha_c(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """Zero of lambda2(alpha) above lo = (d3 - d1) / (d2 - d3) * beta; hi by doubling."""
    check_hypothesis_h(coeffs)
    _, beta = _check_section5_setting(params, coeffs, "beta")
    curve = eigen_curve(_rate_family(params, grid, coeffs, "alpha"))
    lo = (params.d3 - params.d1) / (params.d2 - params.d3) * beta
    f_lo = curve(lo)
    if f_lo <= 0:
        raise HypothesisError(f"lambda2 at the lower alpha bound is not positive: {f_lo:.3e}")
    hi, f_hi = lo, f_lo
    for _ in range(40):
        hi *= 2.0
        f_hi = curve(hi)
        if f_hi < 0:
            break
    else:
        raise HypothesisError("lambda2(alpha) never became negative while doubling alpha")
    return ThresholdCurve([bisect_curve(curve, lo, hi, name="alpha_c")], curve)


def _mu_star(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """mu* = 1/d* at the zero of the scalar eigenvalue in d (spectral.mu_star_scalar)."""
    return ThresholdCurve([mu_star_scalar(grid, coeffs.m)])


def _mu_zero(params: ModelParams, grid: Grid, coeffs: Coefficients) -> ThresholdCurve:
    """Every zero of the pair eigenvalue with growth mu*m, for mu in (1e-2, 1e2)."""
    family = mu_family(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta, coeffs.m)
    return _scanned(find_mu_roots(family, (1e-2, 1e2), name="mu_zero"), HypothesisError,
                    "no critical growth scaling found; the mean growth may already be favorable")


# The one definition of each threshold.  Each entry computes its steady state
# once and returns the curve with its roots; it checks the preconditions itself
# or, for d_0 and mu_star, leaves them to the function that finds the roots.
# All take (params, grid, coeffs).
THRESHOLDS: dict[str, Callable[..., ThresholdCurve]] = {
    "d_c": _d_c, "d_0": _d_0, "beta_c": _beta_c,
    "alpha_c": _alpha_c, "mu_star": _mu_star, "mu_zero": _mu_zero,
}


def threshold_curve(name: str, params: ModelParams, grid: Grid) -> ThresholdCurve:
    """The named threshold's curve from THRESHOLDS; see find_threshold."""
    if name not in THRESHOLDS:
        raise ValueError(f"unknown threshold name {name!r}")
    return THRESHOLDS[name](params, grid, sample_coefficients(params, grid))


def find_threshold(name: str, params: ModelParams, grid: Grid) -> ThresholdResult:
    """First root of one of the six thresholds, each defined once in THRESHOLDS.

    d_c, beta_c and alpha_c refine the root of a verified sign bracket by
    Brent's method (spectral.bisect_curve).  d_0 scans lambda2(d3) on a
    fixed 17-point lattice (lambda2_sign_changes gives every root);
    mu_star and mu_zero scan 64-point log lattices (spectral.find_mu_roots)
    and do not need the growth hypothesis.
    """
    return threshold_curve(name, params, grid).roots[0]


def lambda2_sign_changes(
    params: ModelParams, grid: Grid, coeffs: Coefficients
) -> list[ThresholdResult]:
    """All zeros of lambda2(d3) on D0_SCAN_POINTS points of the bracket (uniqueness is not assumed).

    The problem at d3 solves its own w* (logistic_steady).
    """
    check_hypothesis_h(coeffs)
    alpha, beta = _constant_rates(params)
    bracket = (params.d1, weighted_average_diffusion(params, alpha, beta))

    def family(d3: float) -> EigenProblem:
        local = replace(params, d3=d3)
        (w_star,) = logistic_steady(local, grid, coeffs).state.components
        return _lambda2_problem(local, grid, w_star, coeffs)

    return scan_roots(family, np.linspace(*bracket, D0_SCAN_POINTS), "d_0")


def lambda2_sensitivity(
    params: ModelParams,
    grid: Grid,
    wrt: str,
    w_star: np.ndarray,
) -> float:
    """Derivative of lambda2 with respect to a constant switching rate.

    Evaluates the eigenfunction quotient
      d lambda2 / d beta  = (int alpha phi1 phi2 - beta phi2^2) / (int alpha phi1^2 + beta phi2^2)
      d lambda2 / d alpha = (int beta  phi1 phi2 - alpha phi1^2) / (int alpha phi1^2 + beta phi2^2)
    with (phi1, phi2) the eigenpair at the current parameters and w*.
    """
    if wrt not in ("beta", "alpha"):
        raise ValueError(f"wrt must be 'beta' or 'alpha', got {wrt!r}")
    coeffs = sample_coefficients(params, grid)
    alpha, beta = _constant_rates(params)
    phi1, phi2 = lambda2_eigenpair(params, grid, w_star, coeffs).eigenfunctions
    denom = integrate(grid, alpha * phi1**2 + beta * phi2**2)
    if wrt == "beta":
        numer = integrate(grid, alpha * phi1 * phi2 - beta * phi2**2)
    else:
        numer = integrate(grid, beta * phi1 * phi2 - alpha * phi1**2)
    return numer / denom


EXTINCT_MASS = 1e-6
PERSISTENT_MASS = 1e-4


def classify_endpoint(masses: np.ndarray) -> str:
    """w_wins / uv_wins / undetermined from final per-component masses."""
    mass_u, mass_v, mass_w = masses
    if mass_u < EXTINCT_MASS and mass_v < EXTINCT_MASS and mass_w > PERSISTENT_MASS:
        return "w_wins"
    if mass_w < EXTINCT_MASS and mass_u + mass_v > PERSISTENT_MASS:
        return "uv_wins"
    return "undetermined"


def sweep_outcomes(
    params: ModelParams,
    grid: Grid,
    parameter: str,
    values: list[float],
    opts: SolverOptions,
) -> SweepReport:
    """Eigenvalue signs and simulated outcome of the three-species race.

    For each swept value: both semi-trivial invasion eigenvalues are
    computed, the full system is integrated with opts from a fixed mixed
    initial state, and the endpoint is classified by the
    extinct/persistent mass thresholds (two orders apart).  Empirical exclusion bounds are
    the largest prefix / smallest suffix of the sorted lattice on which
    the winner is uniform.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"sweep parameter must be d3, beta or alpha, got {parameter!r}")
    base_coeffs = sample_coefficients(params, grid)
    check_hypothesis_h(base_coeffs)
    if parameter in ("beta", "alpha"):
        _check_section5_setting(params, base_coeffs, "alpha" if parameter == "beta" else "beta")
    values_sorted = sorted(float(v) for v in values)

    locals_, eigenvalues, starts = [], [], []
    pair: Optional[SteadyResult] = None
    w_res: Optional[SteadyResult] = None
    for value in values_sorted:
        if parameter == "d3":
            local = replace(params, d3=value)
        elif parameter == "beta":
            local = replace(params, beta=CoefficientSpec.constant(value))
        else:
            local = replace(params, alpha=CoefficientSpec.constant(value))
        coeffs = sample_coefficients(local, grid)
        check_hypothesis_h(coeffs)

        # (u*, v*) does not depend on d3, and w* not on the switching rates.
        if pair is None or parameter != "d3":
            pair = subsystem_steady(local, grid, coeffs)
        if w_res is None or parameter == "d3":
            w_res = logistic_steady(local, grid, coeffs)
        u, v = pair.state.components
        w_star = w_res.state.components[0]
        eigenvalues.append((scalar_eigenvalue(grid, local.d3, coeffs.m - u - v).lam,
                            lambda2_eigenpair(local, grid, w_star, coeffs).lam))
        level = 0.2 * float(np.max(coeffs.m))
        starts.append(constant_state(SystemKind.THREE_COMPONENT, grid, [level, level, level]))
        locals_.append(local)

    # All points step as one block; their errors are handled in point order.
    sims = integrate_runs(SystemKind.THREE_COMPONENT, locals_, grid, starts, opts)
    points: list[SweepPoint] = []
    for value, (lam_uv0, lam_00w), sim in zip(values_sorted, eigenvalues, sims):
        note = ""
        if isinstance(sim, SteadyResult):
            outcome = classify_endpoint(sim.state.components @ grid.quadrature_weights)
            floors = tuple(float(x) for x in sim.state.components.min(axis=1))
            converged, residual, steps = sim.converged, sim.residual, sim.steps
        elif isinstance(sim, NUMERICAL_FAILURES):  # recorded, not fatal
            outcome = "undetermined"
            floors = (np.nan, np.nan, np.nan)
            converged, residual, steps = False, np.nan, 0
            note = f"simulation failed: {sim}"
        else:
            raise sim
        points.append(
            SweepPoint(
                value=value,
                lambda_uv0=lam_uv0,
                lambda_00w=lam_00w,
                outcome=outcome,
                floors=floors,
                converged=converged,
                residual=residual,
                steps=steps,
                note=note,
            )
        )

    low_outcome = "w_wins" if parameter in ("d3", "beta") else "uv_wins"
    high_outcome = "uv_wins" if parameter in ("d3", "beta") else "w_wins"
    c1 = None
    for p in points:
        if p.outcome == low_outcome:
            c1 = p.value
        else:
            break
    c2 = None
    for p in reversed(points):
        if p.outcome == high_outcome:
            c2 = p.value
        else:
            break
    return SweepReport(
        parameter=parameter,
        points=tuple(points),
        empirical_c1=c1,
        empirical_c2=c2,
    )
