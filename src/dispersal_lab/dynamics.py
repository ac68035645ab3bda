"""Steady states of the population systems, by time integration or by Newton.

``integrate_to_steady`` steps any system with a first-order IMEX scheme: diffusion is backward Euler (one banded
Cholesky factorization per component, reused every step), the reaction
is explicit.  Fixed points of the scheme satisfy the discrete
steady-state equation exactly, so the stopping criterion is the
sup-norm of the full right-hand side, which is independent of dt.

A step validates once: the explicit stage is checked for overshoot and
for NaN or inf, each factor is applied by a direct LAPACK ``pbtrs``
call (the routine ``scipy.linalg.cho_solve_banded`` wraps, without its
per-call finiteness scans), and the new block is checked for negative
entries and clamped in place before it becomes a ``State`` without a
second validation pass.  The floating-point operations and their order
are those of the public ``State`` and ``cho_solve_banded`` path, so
results are bit-identical to it.  ``integrate_to_steady`` assembles the
Laplacian once per run for its residual checks.

``newton_steady`` finds the logistic and the switching-pair steady states
by pseudo-transient Newton on the banded layout of the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs, solve_banded

from .mesh import Grid, NeumannLaplacian, assemble_neumann_laplacian
from .model import (
    Coefficients,
    ModelParams,
    SystemKind,
    hypothesis_h_holds,
    reaction_rhs,
    sample_coefficients,
)
from .spectral import EigenResult, assemble_banded

NEGATIVITY_TOLERANCE = 1e-13
CHECK_EVERY = 10  # steps between residual checks
MAX_DT_HALVINGS = 4
TRANSIENT_FRACTION = 0.5  # share of a run that persistence_floor skips
STEADY_TOL = 1e-9  # rhs_residual at which newton_steady calls a state steady
NEWTON_MAX_ITER = 100
TAU_NEWTON = 1e8  # pseudo-time step from which a rounding-level step ends newton_steady
NEWTON_ROUNDING = 1e-12  # a step no larger than this times max(1, |x|) is at rounding level


class StepOvershootError(RuntimeError):
    """Explicit reaction stage produced meaningfully negative values."""


@dataclass(frozen=True)
class State:
    """Component fields at one instant; shape (K, n), nonnegative."""

    t: float
    components: np.ndarray

    def __post_init__(self) -> None:
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 2:
            raise ValueError(f"components must be 2-D (K, n), got shape {comps.shape}")
        _check_nonnegative(float(np.min(comps)))
        object.__setattr__(self, "components", np.maximum(comps, 0.0))

    @classmethod
    def _trusted(cls, t: float, components: np.ndarray) -> "State":
        """State from a (K, n) float block already checked and clamped by the caller."""
        state = object.__new__(cls)
        object.__setattr__(state, "t", t)
        object.__setattr__(state, "components", components)
        return state


def _check_nonnegative(worst: float) -> None:
    if worst < -NEGATIVITY_TOLERANCE:
        raise ValueError(f"state has negative entries (min {worst:.3e})")


@dataclass
class TrajectoryLog:
    """Per-sample summaries (and optionally full fields) along a run."""

    grid: Grid
    sample_times: list[float] = field(default_factory=list)
    mins: list[np.ndarray] = field(default_factory=list)
    maxs: list[np.ndarray] = field(default_factory=list)
    masses: list[np.ndarray] = field(default_factory=list)
    fields: Optional[list[np.ndarray]] = None

    def record(self, state: State) -> None:
        if self.sample_times and state.t <= self.sample_times[-1]:
            return
        comps = state.components
        self.sample_times.append(state.t)
        self.mins.append(comps.min(axis=1))
        self.maxs.append(comps.max(axis=1))
        self.masses.append(comps @ self.grid.quadrature_weights)
        if self.fields is not None:
            self.fields.append(comps.copy())

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.sample_times)


@dataclass(frozen=True)
class SteadyResult:
    """Final state of a steady-state run with its right-hand-side residual."""

    state: State
    residual: float
    converged: bool
    steps: int  # IMEX steps, or Newton iterations for newton_steady
    trajectory: TrajectoryLog


@dataclass(frozen=True)
class SolverOptions:
    dt: float = 0.01
    tol: float = 1e-9
    t_max: float = 2000.0
    sample_every: float = 1.0
    store_fields: bool = True


def kind_diffusions(kind: SystemKind, params: ModelParams) -> tuple[float, ...]:
    if kind is SystemKind.LOGISTIC:
        return (params.d3,)
    if kind is SystemKind.THREE_COMPONENT:
        return (params.d1, params.d2, params.d3)
    return (params.d1, params.d2)


class DiffusionSolver:
    """Factored solver for (I - dt*d*L) x = y with the Neumann Laplacian L.

    The matrix is symmetrized by the square root of the quadrature
    weights, factored once with a banded Cholesky, and reused for every
    step at this (d, dt).
    """

    def __init__(self, grid: Grid, d: float, dt: float):
        n, h2 = grid.n, grid.h * grid.h
        r = dt * d / h2
        sqrt_w = np.sqrt(grid.quadrature_weights)
        diag = np.full(n, 1.0 + 2.0 * r)
        upper = np.full(n - 1, -r)
        upper[0] = -2.0 * r
        # Symmetrized superdiagonal: S[i, i+1] = sqrt(w_i / w_{i+1}) * A[i, i+1].
        sym_upper = upper * sqrt_w[:-1] / sqrt_w[1:]
        ab = np.zeros((2, n))
        ab[0, 1:] = sym_upper
        ab[1, :] = diag
        self._factor = cholesky_banded(ab, lower=False)
        (self._pbtrs,) = get_lapack_funcs(("pbtrs",), (self._factor,))
        self._sqrt_w = sqrt_w

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solution for a finite right-hand side y (the caller checks finiteness)."""
        z, info = self._pbtrs(self._factor, self._sqrt_w * y, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
        z /= self._sqrt_w
        return z


class ImexStepper:
    """One-step map of the IMEX scheme for a fixed (kind, params, dt)."""

    def __init__(
        self,
        kind: SystemKind,
        params: ModelParams,
        grid: Grid,
        dt: float,
        coeffs: Optional[Coefficients] = None,
    ):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.kind = kind
        self.params = params
        self.grid = grid
        self.dt = dt
        self.coeffs = coeffs if coeffs is not None else sample_coefficients(params, grid)
        self.solvers = [DiffusionSolver(grid, d, dt) for d in kind_diffusions(kind, params)]

    def step(self, state: State) -> State:
        comps = state.components
        stage = reaction_rhs(self.kind, self.params, self.coeffs, comps)
        stage *= self.dt
        stage += comps
        worst = float(stage.min())
        if worst < -NEGATIVITY_TOLERANCE:
            raise StepOvershootError(
                f"dt={self.dt} too large: explicit stage reached {worst:.3e}"
            )
        if not np.isfinite(stage).all():
            raise ValueError("explicit stage contains infs or NaNs")
        np.maximum(stage, 0.0, out=stage)
        new = np.empty_like(stage)
        for i, solver in enumerate(self.solvers):
            new[i] = solver.solve(stage[i])
        _check_nonnegative(float(new.min()))
        np.maximum(new, 0.0, out=new)
        return State._trusted(state.t + self.dt, new)


def _steady_rhs(kind, params, coeffs, comps, lap) -> np.ndarray:
    g = reaction_rhs(kind, params, coeffs, comps)
    for i, d in enumerate(kind_diffusions(kind, params)):
        g[i] += d * lap.apply(comps[i])
    return g


def rhs_residual(kind: SystemKind, params: ModelParams, grid: Grid, coeffs: Coefficients,
                 comps: np.ndarray, lap: NeumannLaplacian) -> float:
    """Sup-norm of diffusion plus reaction at the given fields, lap the grid's Laplacian."""
    return float(np.max(np.abs(_steady_rhs(kind, params, coeffs, comps, lap))))


def integrate_to_steady(
    kind: SystemKind,
    params: ModelParams,
    grid: Grid,
    initial: State,
    opts: SolverOptions = SolverOptions(),
    coeffs: Optional[Coefficients] = None,
) -> SteadyResult:
    """Step until the right-hand side is below tol or t_max is reached.

    Overshoots of the explicit stage halve dt (rebuilding the
    factorizations) up to MAX_DT_HALVINGS times.  Non-convergence
    by t_max is reported through the converged flag, not an exception.
    """
    if coeffs is None:
        coeffs = sample_coefficients(params, grid)
    expected = (kind.n_components, grid.n)
    if initial.components.shape != expected:
        raise ValueError(f"initial state shape {initial.components.shape} != {expected}")

    log = TrajectoryLog(grid=grid, fields=[] if opts.store_fields else None)
    log.record(initial)
    stepper = ImexStepper(kind, params, grid, opts.dt, coeffs)
    lap = assemble_neumann_laplacian(grid)
    state = initial
    steps = 0
    halvings = 0
    next_sample = initial.t + opts.sample_every
    residual = rhs_residual(kind, params, grid, coeffs, state.components, lap)
    converged = residual <= opts.tol
    while not converged and state.t < opts.t_max - 1e-12:
        try:
            state = stepper.step(state)
        except StepOvershootError:
            halvings += 1
            if halvings > MAX_DT_HALVINGS:
                raise
            stepper = ImexStepper(kind, params, grid, stepper.dt / 2.0, coeffs)
            continue
        steps += 1
        if state.t >= next_sample - 1e-12:
            log.record(state)
            while next_sample <= state.t + 1e-12:
                next_sample += opts.sample_every
        if steps % CHECK_EVERY == 0:
            residual = rhs_residual(kind, params, grid, coeffs, state.components, lap)
            if residual <= opts.tol:
                converged = True
    residual = rhs_residual(kind, params, grid, coeffs, state.components, lap)
    converged = residual <= opts.tol
    log.record(state)

    if converged:
        _check_contracting_box(kind, params, grid, coeffs, state.components)
    return SteadyResult(
        state=state, residual=residual, converged=converged, steps=steps, trajectory=log
    )


def _check_contracting_box(kind: SystemKind, params: ModelParams, grid: Grid,
                           coeffs: Coefficients, comps: np.ndarray) -> None:
    """Under hypothesis H a pair steady state lies in [0, max beta] x [0, max alpha]."""
    if kind is SystemKind.SUBMODEL and hypothesis_h_holds(params, grid, coeffs):
        beta_hi, alpha_hi = float(np.max(coeffs.beta)), float(np.max(coeffs.alpha))
        slack = 1e-8 * max(1.0, beta_hi, alpha_hi)
        if np.max(comps[0]) > beta_hi + slack or np.max(comps[1]) > alpha_hi + slack:
            raise RuntimeError(
                "steady state escaped the contracting box [0, max beta] x [0, max alpha]"
            )


def _jacobian_coupling(kind: SystemKind, coeffs: Coefficients, comps: np.ndarray) -> np.ndarray:
    """Reaction part of the steady-state Jacobian as a (K, K, n) coupling field."""
    if kind is SystemKind.LOGISTIC:
        return (coeffs.m - 2.0 * comps)[None]
    (u, v), al, be = comps, coeffs.alpha, coeffs.beta
    s = coeffs.m - u - v
    return np.array([[s - al - u, be - u], [al - v, s - be - v]])


def newton_steady(kind: SystemKind, params: ModelParams, grid: Grid, initial: State,
                  coeffs: Optional[Coefficients] = None) -> SteadyResult:
    """Steady state of the logistic equation or the switching pair by pseudo-transient Newton.

    Each iteration solves (I/tau - J) dx = F, F the right-hand side and J
    its Jacobian, on the layout of spectral.assemble_banded.  tau starts
    at 1, so early iterates follow the flow, and grows by the ratio of
    successive residuals (switched evolution relaxation).  The run stops
    once tau >= TAU_NEWTON and the step is at rounding level; it has
    converged if the residual is then at most STEADY_TOL and the state
    is nonnegative.
    """
    if kind not in (SystemKind.LOGISTIC, SystemKind.SUBMODEL):
        raise ValueError(f"newton_steady solves the logistic and pair systems, not {kind}")
    if coeffs is None:
        coeffs = sample_coefficients(params, grid)
    K, n = kind.n_components, grid.n
    lap = assemble_neumann_laplacian(grid)
    x = initial.components.copy()
    f = _steady_rhs(kind, params, coeffs, x, lap)
    f_norm, tau, stopped = float(np.max(np.abs(f))), 1.0, False
    for steps in range(1, NEWTON_MAX_ITER + 1):
        jac = assemble_banded(lap, kind_diffusions(kind, params), _jacobian_coupling(kind, coeffs, x))
        dx = solve_banded((K, K), jac.shifted_bands(1.0 / tau), f.T.ravel(), overwrite_ab=True,
                          check_finite=False).reshape(n, K).T
        x += dx
        f = _steady_rhs(kind, params, coeffs, x, lap)
        new_norm = float(np.max(np.abs(f)))
        step_limit = NEWTON_ROUNDING * max(1.0, float(np.max(np.abs(x))))
        if tau >= TAU_NEWTON and float(np.max(np.abs(dx))) <= step_limit:
            stopped = True
            break
        tau = min(1e14, tau * max(2.0, f_norm / max(new_norm, 1e-300)))
        f_norm = new_norm
    state = State._trusted(initial.t, np.maximum(x, 0.0))
    residual = rhs_residual(kind, params, grid, coeffs, state.components, lap)
    converged = stopped and residual <= STEADY_TOL and float(np.min(x)) >= -NEGATIVITY_TOLERANCE
    if converged:
        _check_contracting_box(kind, params, grid, coeffs, state.components)
    log = TrajectoryLog(grid=grid)
    log.record(state)
    return SteadyResult(state, residual, converged, steps, log)


def monitor_lyapunov(trajectory: TrajectoryLog, adjoint: EigenResult) -> np.ndarray:
    """Adjoint-weighted mass integral(psi1* u + psi2* v) at each sample."""
    if trajectory.fields is None:
        raise ValueError("trajectory was recorded without fields; rerun with store_fields")
    psi = adjoint.eigenfunctions
    if psi.shape[0] != 2:
        raise ValueError("adjoint eigenpair must have two components")
    if trajectory.fields and trajectory.fields[0].shape[0] != 2:
        raise ValueError("trajectory must come from a two-component system")
    w = trajectory.grid.quadrature_weights
    return np.array(
        [float(np.sum(w * (psi[0] * f[0] + psi[1] * f[1]))) for f in trajectory.fields]
    )


def lyapunov_identity(
    kind: SystemKind,
    params: ModelParams,
    grid: Grid,
    state: State,
    dt: float,
    adjoint: EigenResult,
) -> tuple[float, float]:
    """One-step check of the decay identity for the adjoint-weighted mass.

    Returns (discrete derivative, quadratic sink).  At zero principal
    eigenvalue the derivative of integral(psi1* u + psi2* v) equals
    -integral[psi1* u (u + b v) + psi2* v (c u + v)] up to O(dt).
    """
    if kind.n_components != 2:
        raise ValueError("the decay identity applies to the two-component systems")
    b = params.b if kind is SystemKind.TWO_SPECIES_GENERAL else 1.0
    c = params.c if kind is SystemKind.TWO_SPECIES_GENERAL else 1.0
    w = grid.quadrature_weights
    psi1, psi2 = adjoint.eigenfunctions
    u, v = state.components
    before = float(np.sum(w * (psi1 * u + psi2 * v)))
    sink = -float(np.sum(w * (psi1 * u * (u + b * v) + psi2 * v * (c * u + v))))
    after_state = ImexStepper(kind, params, grid, dt).step(state)
    ua, va = after_state.components
    after = float(np.sum(w * (psi1 * ua + psi2 * va)))
    return (after - before) / dt, sink


def persistence_floor(trajectory: TrajectoryLog) -> float:
    """Worst spatial minimum over all components after the transient window."""
    times = trajectory.times
    if len(times) == 0:
        raise ValueError("empty trajectory")
    cutoff = times[0] + TRANSIENT_FRACTION * (times[-1] - times[0])
    tail = [m for t, m in zip(times, trajectory.mins) if t >= cutoff - 1e-12]
    return float(np.min(np.asarray(tail)))


def constant_state(kind: SystemKind, grid: Grid, values: Sequence[float]) -> State:
    values = np.asarray(values, dtype=float)
    if values.shape != (kind.n_components,):
        raise ValueError(f"need {kind.n_components} component values, got {values.shape}")
    return State(t=0.0, components=np.tile(values[:, None], (1, grid.n)))


def random_state(
    kind: SystemKind,
    grid: Grid,
    low: float,
    high: float,
    seed: int,
) -> State:
    if not 0 <= low < high:
        raise ValueError(f"need 0 <= low < high, got ({low}, {high})")
    rng = np.random.default_rng(seed)
    comps = rng.uniform(low, high, size=(kind.n_components, grid.n))
    return State(t=0.0, components=comps)


def eigenfunction_state(eig: EigenResult, scale: float) -> State:
    """Positive eigenfunction scaled to a given amplitude, as initial data."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return State(t=0.0, components=scale * eig.eigenfunctions)
