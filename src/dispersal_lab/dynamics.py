"""Steady states of the population systems, by time integration or by Newton.

``integrate_runs`` steps P independent runs of one system kind, with one
set of solver options, together as a (K, P, n) block with a first-order
IMEX scheme: diffusion is backward Euler, the reaction is explicit.
Fixed points of the scheme satisfy the discrete steady-state equation
exactly, so the stopping criterion is the sup-norm of the full
right-hand side, which is independent of dt.  ``integrate_to_steady``
and ``ImexStepper.step`` are its one-run case; ``_step_block`` is the
only stepping loop.

A step costs about 20 numpy and LAPACK calls, each with about 1 us of
call overhead whatever P is, so a block shares that overhead across its
runs:

- Diffusion.  I - dt*d*L, symmetrized by the square roots of the
  quadrature weights, is symmetric positive definite and tridiagonal.
  Each (component, run) field keeps its own L D L^T factor of it from
  LAPACK ``pttrf``.  ``spectral.DiffusionSolver`` lays the K*P factors
  end to end as one block-diagonal tridiagonal factor, so one ``pttrs``
  call solves every field.  The block is exact: the off-diagonal entry
  that couples the last node of one field to the first node of the next
  is exactly 0, so there the forward and back substitutions subtract
  0 * x = +0 (x is finite and nonnegative), which changes no value, and
  every other operation is the one a solve of that field alone does.
  Results are bit-identical to K*P separate solves.
- Reaction.  ``model.reaction_rhs`` is elementwise, over a block as over
  one run, in the same operation order.
- Validation.  The explicit stage is checked once per block, by its
  minimum and maximum, for overshoot and for NaN or inf; only when that
  check fails is it repeated per run, to find the runs that failed.  A
  failed run's stage is zeroed before the solve, since 0 * nan would
  cross the zero coupling entry into the next field.  The new block
  needs no check: the stage is clamped to >= +0, and
  ``spectral.DiffusionSolver`` maps a right-hand side >= +0 to a
  solution >= +0.
- Residual checks.  The reaction of each new block is computed once: it
  serves the next step's explicit stage and, every CHECK_EVERY steps,
  one block-wide evaluation of the right-hand side, whose per-run
  sup-norms are the values rhs_residual gives for each run alone.  The
  Laplacian for the checks is the grid's, assembled once per grid.

Each run keeps its own convergence test, trajectory samples, t_max stop,
converged flag, residual and step count.  Time is counted in steps: after
k steps at dt from t0 a run is at t0 + k*dt, and it reaches t_max after
the number of steps that spans t_max - t0, so rounding in a running sum
neither shifts a sample nor adds a step.  A run that converges, reaches
t_max or fails leaves the block, and the runs that remain get a new
stepper, whose ``pttrf`` factors are the old ones bit for bit: the same
call on the same inputs.  A run whose explicit stage overshoots leaves
the block at its last state and continues alone at dt/2 with its clock
re-based there, up to MAX_DT_HALVINGS times.  The runs of a block step
in lockstep, and the loop looks at a run only at the steps where it
takes a sample, checks its residual or reaches t_max, or when its step
fails.

``newton_steady`` finds the logistic and the switching-pair steady states
by pseudo-transient Newton on the banded layout of the eigensolver, and
solves each Newton step by its LAPACK call, ``spectral.solve_band``.
Both banded solvers belong to spectral's banded-solve layer, so this
module calls LAPACK only through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .mesh import Grid, NeumannLaplacian
from .model import (
    Coefficients,
    ModelParams,
    SystemKind,
    hypothesis_h_holds,
    reaction_rhs,
    sample_coefficients,
)
from .spectral import ConvergenceError, DiffusionSolver, EigenResult, assemble_banded, solve_band

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
        if not np.isfinite(comps).all():
            raise ValueError("state contains infs or NaNs")
        worst = float(np.min(comps))
        if worst < -NEGATIVITY_TOLERANCE:
            raise ValueError(f"state has negative entries (min {worst:.3e})")
        object.__setattr__(self, "components", np.maximum(comps, 0.0))

    @classmethod
    def _trusted(cls, t: float, components: np.ndarray) -> "State":
        """State from a (K, n) float block already checked and clamped by the caller."""
        state = object.__new__(cls)
        object.__setattr__(state, "t", t)
        object.__setattr__(state, "components", components)
        return state


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
    store_fields: bool = False

    def __post_init__(self) -> None:
        for name in ("dt", "sample_every"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.t_max):
            raise ValueError(f"t_max must be finite, got {self.t_max}")
        if not self.tol >= 0:  # tol = 0 steps to t_max: verify's fixed-horizon runs
            raise ValueError(f"tol must be nonnegative, got {self.tol}")


def kind_diffusions(kind: SystemKind, params: ModelParams) -> tuple[float, ...]:
    if kind is SystemKind.LOGISTIC:
        return (params.d3,)
    if kind is SystemKind.THREE_COMPONENT:
        return (params.d1, params.d2, params.d3)
    return (params.d1, params.d2)


class ImexStepper:
    """One-step map of the IMEX scheme for P runs of one kind at one dt.

    The runs form a (K, P, n) block; they may differ in diffusion rates
    and coefficient fields, and share b and c.  ``advance`` steps the
    block, and ``step`` is the one-run map.  A stepper is fixed at
    construction: other runs take a new stepper.
    """

    def __init__(self, kind: SystemKind, params: Sequence[ModelParams], grid: Grid, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if any((p.b, p.c) != (params[0].b, params[0].c) for p in params):
            raise ValueError("the runs of one block must share b and c")
        self.kind = kind
        self.params = params[0]
        self.grid = grid
        self.dt = dt
        coeffs = [sample_coefficients(p, grid) for p in params]
        self.coeffs = Coefficients(
            grid=grid,
            alpha=np.stack([c.alpha for c in coeffs]),
            beta=np.stack([c.beta for c in coeffs]),
            m=np.stack([c.m for c in coeffs]),
        )
        diffusions = np.array([kind_diffusions(kind, p) for p in params]).T  # (K, P)
        self.solver = DiffusionSolver(grid, diffusions.ravel(), dt)  # fields in (K, P) order
        self._diffusions = diffusions[:, :, None]  # (K, P, 1), as _steady_rhs takes it
        self._shape = (kind.n_components, len(params), grid.n)

    def advance(self, block: np.ndarray,
                rates: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """The (K, P, n) block one step on, and the errors of the runs whose step failed.

        rates is reaction_rhs of the block, and is consumed.  Errors are
        keyed by position in the block; the new block holds zeros at those
        positions.  The new block needs no check: the solve of a stage
        clamped to >= +0 is >= +0 (see DiffusionSolver).
        """
        if block.shape != self._shape:
            raise ValueError(f"block shape {block.shape} != {self._shape}")
        stage = rates
        stage *= self.dt
        stage += block
        failed: dict[int, Exception] = {}
        # One gate for overshoot, NaN and +-inf: each makes the comparison False.
        if not (np.minimum.reduce(stage, axis=None) >= -NEGATIVITY_TOLERANCE
                and np.maximum.reduce(stage, axis=None) < np.inf):
            for p in range(stage.shape[1]):
                worst = float(stage[:, p].min())
                if worst < -NEGATIVITY_TOLERANCE:
                    failed[p] = StepOvershootError(
                        f"dt={self.dt} too large: explicit stage reached {worst:.3e}"
                    )
                elif not np.isfinite(stage[:, p]).all():
                    failed[p] = ValueError("explicit stage contains infs or NaNs")
            for p in failed:
                stage[:, p] = 0.0  # 0 * inf or 0 * nan would cross into the next field
        np.maximum(stage, 0.0, out=stage)
        return self.solver.solve(stage), failed

    def residuals(self, block: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """rhs_residual of each run of the block, rates its reaction_rhs, bit for bit:
        the same elementwise operations, reduced per run."""
        rhs = _steady_rhs(block, self._diffusions, rates, self.grid.laplacian)
        return np.abs(rhs, out=rhs).max(axis=(0, 2))

    def step(self, state: State) -> State:
        """The state of a one-run stepper one step on; a failed step raises its error."""
        block = state.components[:, None, :]
        new, failed = self.advance(block, reaction_rhs(self.kind, self.params, self.coeffs, block))
        if failed:
            raise failed[0]
        return State._trusted(state.t + self.dt, new.reshape(state.components.shape))


def _steady_rhs(comps: np.ndarray, diffusions: np.ndarray, rates: np.ndarray,
                lap: NeumannLaplacian) -> np.ndarray:
    """Diffusion plus reaction of (K, n) or (K, P, n) fields, rates their reaction_rhs and
    diffusions the rate of each field as a column, (K, 1) or (K, P, 1)."""
    rhs = lap.apply(comps)
    rhs *= diffusions
    rhs += rates
    return rhs


def rhs_residual(kind: SystemKind, params: ModelParams, coeffs: Coefficients,
                 comps: np.ndarray) -> float:
    """Sup-norm of diffusion plus reaction at the given fields, on the grid of coeffs."""
    rates = reaction_rhs(kind, params, coeffs, comps)
    rhs = _steady_rhs(comps, np.reshape(kind_diffusions(kind, params), (-1, 1)), rates,
                      coeffs.grid.laplacian)
    return float(np.max(np.abs(rhs)))


@dataclass
class _Run:
    """Settings, latest state and counters of one run of integrate_runs."""

    params: ModelParams
    coeffs: Coefficients
    state: State
    log: TrajectoryLog
    next_sample: float
    converged: bool
    steps: int = 0
    halvings: int = 0
    error: Optional[Exception] = None


def _steps_to(t_max: float, t0: float, dt: float) -> int:
    """Number of steps of dt from t0 to t_max; a quotient within a relative 1e-12
    above an integer counts as that integer."""
    return max(0, math.ceil((t_max - t0) / dt * (1.0 - 1e-12)))


def _next_event(next_sample: float, t0: float, steps0: int, k: int, k_max: int,
                dt: float) -> int:
    """The first block step after k at which a run takes a sample, checks its residual
    or reaches k_max; steps0 is the steps the block's runs had taken when it started."""
    # A check comes within CHECK_EVERY steps, so walk the grid with the loop's own test.
    limit = min(k_max, k + CHECK_EVERY - (steps0 + k) % CHECK_EVERY)
    event = k + 1
    while event < limit and t0 + event * dt < next_sample - 1e-12:
        event += 1
    return event


def _step_block(kind: SystemKind, grid: Grid, runs: list[_Run], opts: SolverOptions) -> None:
    """Step the runs together at opts.dt until each has converged, reached t_max or failed.

    A run whose explicit stage overshoots leaves the block at its last
    state and continues alone at dt/2, up to MAX_DT_HALVINGS times.
    """
    dt = opts.dt
    stepper = ImexStepper(kind, [r.params for r in runs], grid, dt)
    block = np.stack([r.state.components for r in runs], axis=1)
    live = list(range(len(runs)))  # run number at each block position
    # The live runs step in lockstep: after k block steps at this dt a run's time is
    # t0 + k*dt and it has taken steps0 + k steps (a block starts from 0 steps, a halved
    # run, which steps alone, from its own); event_at holds each run's next event.
    t0 = [r.state.t for r in runs]
    steps0 = runs[0].steps
    k_max = [_steps_to(opts.t_max, t, dt) for t in t0]
    event_at = [_next_event(runs[i].next_sample, t0[i], steps0, 0, k_max[i], dt) for i in live]
    first_event = min(event_at)
    k = 0
    rates = reaction_rhs(kind, stepper.params, stepper.coeffs, block)
    while live:
        new, failed = stepper.advance(block, rates)
        # The reaction of the new block serves its residual checks and the next stage.
        rates = reaction_rhs(kind, stepper.params, stepper.coeffs, new)
        k += 1
        if k < first_event and not failed:
            block = new
            continue
        residuals = None
        stay = []
        for pos, i in enumerate(live):
            run = runs[i]
            if pos in failed:
                run.steps = steps0 + k - 1
                run.state = State._trusted(t0[i] + (k - 1) * dt, block[:, pos].copy())
                exc = failed[pos]
                if isinstance(exc, StepOvershootError) and run.halvings < MAX_DT_HALVINGS:
                    run.halvings += 1
                    _step_block(kind, grid, [run], replace(opts, dt=dt / 2.0))
                else:
                    run.error = exc
                continue
            if k < event_at[i]:
                stay.append(pos)
                continue
            run.steps = steps0 + k
            t = t0[i] + k * dt
            comps = new[:, pos]
            if t >= run.next_sample - 1e-12:
                run.log.record(State._trusted(t, comps.copy()))
                while run.next_sample <= t + 1e-12:
                    run.next_sample += opts.sample_every
            if run.steps % CHECK_EVERY == 0:
                if residuals is None:
                    residuals = stepper.residuals(new, rates)
                run.converged = float(residuals[pos]) <= opts.tol
            if run.converged or k >= k_max[i]:
                run.state = State._trusted(t, comps.copy())
            else:
                stay.append(pos)
                event_at[i] = _next_event(run.next_sample, t0[i], steps0, k, k_max[i], dt)
        if len(stay) < len(live):
            live = [live[pos] for pos in stay]
            if live:
                stepper = ImexStepper(kind, [runs[i].params for i in live], grid, dt)
            new = np.take(new, stay, axis=1)
            rates = np.take(rates, stay, axis=1)
        if live:
            first_event = min(event_at[i] for i in live)
        block = new


def integrate_runs(
    kind: SystemKind,
    params: Sequence[ModelParams],
    grid: Grid,
    initials: Sequence[State],
    opts: SolverOptions,
) -> list[Union[SteadyResult, Exception]]:
    """Step independent runs of one kind together, each until its
    right-hand side is below opts.tol or opts.t_max is reached.

    The runs may differ in diffusion rates, coefficient fields and
    initial state; they share b, c and the solver options.  Returns, per
    run, its result or the error that ended it: a step overshoot after
    MAX_DT_HALVINGS halvings, a non-finite or negative state, or a pair
    steady state outside its contracting box.  Non-convergence by t_max
    is reported through the converged flag, not an error.
    """
    if len(params) != len(initials):
        raise ValueError("need one params per initial state")
    expected = (kind.n_components, grid.n)
    for initial in initials:
        if initial.components.shape != expected:
            raise ValueError(f"initial state shape {initial.components.shape} != {expected}")
    runs = []
    for p, initial in zip(params, initials):
        c = sample_coefficients(p, grid)
        log = TrajectoryLog(grid=grid, fields=[] if opts.store_fields else None)
        log.record(initial)
        residual = rhs_residual(kind, p, c, initial.components)
        runs.append(_Run(p, c, initial, log, initial.t + opts.sample_every, residual <= opts.tol))
    stepping = [r for r in runs if not r.converged and _steps_to(opts.t_max, r.state.t, opts.dt)]
    if stepping:
        _step_block(kind, grid, stepping, opts)

    results: list[Union[SteadyResult, Exception]] = []
    for run in runs:
        if run.error is not None:
            results.append(run.error)
            continue
        comps = run.state.components
        residual = rhs_residual(kind, run.params, run.coeffs, comps)
        converged = residual <= opts.tol
        run.log.record(run.state)
        if converged:
            try:
                _check_contracting_box(kind, run.params, grid, run.coeffs, comps)
            except ConvergenceError as exc:
                results.append(exc)
                continue
        results.append(SteadyResult(run.state, residual, converged, run.steps, run.log))
    return results


def integrate_to_steady(
    kind: SystemKind,
    params: ModelParams,
    grid: Grid,
    initial: State,
    opts: SolverOptions = SolverOptions(),
) -> SteadyResult:
    """integrate_runs for one run: its result, or its error raised."""
    (result,) = integrate_runs(kind, [params], grid, [initial], opts)
    if isinstance(result, Exception):
        raise result
    return result


def _check_contracting_box(kind: SystemKind, params: ModelParams, grid: Grid,
                           coeffs: Coefficients, comps: np.ndarray) -> None:
    """Under hypothesis H a pair steady state lies in [0, max beta] x [0, max alpha]."""
    if kind is SystemKind.SUBMODEL and hypothesis_h_holds(params, grid, coeffs):
        beta_hi, alpha_hi = float(np.max(coeffs.beta)), float(np.max(coeffs.alpha))
        slack = 1e-8 * max(1.0, beta_hi, alpha_hi)
        if np.max(comps[0]) > beta_hi + slack or np.max(comps[1]) > alpha_hi + slack:
            raise ConvergenceError(
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
                  coeffs: Coefficients) -> SteadyResult:
    """Steady state of the logistic equation or the switching pair by pseudo-transient Newton.

    Each iteration solves (I/tau - J) dx = F, F the right-hand side and J
    its Jacobian, on the layout of spectral.assemble_banded.  tau starts
    at 1, so early iterates follow the flow, and grows by the ratio of
    successive residuals (switched evolution relaxation).  The run stops
    once tau >= TAU_NEWTON and the step is at rounding level; it has
    converged if the state is nonnegative and the residual is then at
    most STEADY_TOL, or at most four times its rounding level
    eps * max d * (4/h^2) * max|x| where that is larger (fine grids).
    """
    if kind not in (SystemKind.LOGISTIC, SystemKind.SUBMODEL):
        raise ValueError(f"newton_steady solves the logistic and pair systems, not {kind}")
    K, n = kind.n_components, grid.n
    lap = grid.laplacian
    diffusions = kind_diffusions(kind, params)
    column = np.reshape(diffusions, (K, 1))
    x = initial.components.copy()
    f = _steady_rhs(x, column, reaction_rhs(kind, params, coeffs, x), lap)
    f_norm, tau, stopped = float(np.max(np.abs(f))), 1.0, False
    for steps in range(1, NEWTON_MAX_ITER + 1):
        jac = assemble_banded(lap, diffusions, _jacobian_coupling(kind, coeffs, x))
        dx = solve_band(jac.shifted_bands(1.0 / tau), f.T.ravel()).reshape(n, K).T
        x += dx
        f = _steady_rhs(x, column, reaction_rhs(kind, params, coeffs, x), lap)
        new_norm = float(np.max(np.abs(f)))
        step_limit = NEWTON_ROUNDING * max(1.0, float(np.max(np.abs(x))))
        if tau >= TAU_NEWTON and float(np.max(np.abs(dx))) <= step_limit:
            stopped = True
            break
        tau = min(1e14, tau * max(2.0, f_norm / max(new_norm, 1e-300)))
        f_norm = new_norm
    state = State._trusted(initial.t, np.maximum(x, 0.0))
    residual = rhs_residual(kind, params, coeffs, state.components)
    # Rounding alone leaves rhs_residual near eps * max d * |L| * max|x|, |L| = 4/h^2,
    # which exceeds STEADY_TOL on fine grids.
    rounding = (4.0 * np.finfo(float).eps * max(diffusions)
                * (4.0 / (grid.h * grid.h)) * float(np.max(np.abs(x))))
    converged = (stopped and residual <= max(STEADY_TOL, rounding)
                 and float(np.min(x)) >= -NEGATIVITY_TOLERANCE)
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
    after_state = ImexStepper(kind, [params], grid, dt).step(state)
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
