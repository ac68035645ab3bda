import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dptsv

from dispersal_lab.cli import load_config
from dispersal_lab.mesh import assemble_neumann_laplacian, build_grid
from dispersal_lab.model import (
    CoefficientSpec,
    HypothesisError,
    ModelParams,
    SystemKind,
    hypothesis_h_holds,
    reaction_rhs,
    sample_coefficients,
)
from dispersal_lab.dynamics import (
    MAX_DT_HALVINGS,
    DiffusionSolver,
    NEGATIVITY_TOLERANCE,
    ImexStepper,
    STEADY_TOL,
    SolverOptions,
    State,
    StepOvershootError,
    SteadyResult,
    TrajectoryLog,
    _next_event,
    constant_state,
    integrate_runs,
    integrate_to_steady,
    kind_diffusions,
    monitor_lyapunov,
    newton_steady,
    persistence_floor,
    random_state,
    rhs_residual,
)
from dispersal_lab.spectral import (
    adjoint_principal_eigen,
    assemble_banded,
    principal_eigen,
    switching_problem,
)
from dispersal_lab.analysis import logistic_steady, subsystem_steady


@pytest.fixture(scope="module")
def grid():
    return build_grid(0, 1, 201)


def scenario_params(**overrides):
    base = dict(
        d1=0.1,
        d2=1.0,
        d3=0.4,
        alpha=CoefficientSpec.constant(1.0),
        beta=CoefficientSpec.constant(1.0),
        m=CoefficientSpec.cosine(0.4, 0.3, 1),
    )
    base.update(overrides)
    return ModelParams(**base)


def test_zero_state_is_fixed(grid):
    params = scenario_params()
    for kind in SystemKind:
        zero = constant_state(kind, grid, [0.0] * kind.n_components)
        after = ImexStepper(kind, [params], grid, 0.01).step(zero)
        assert np.max(np.abs(after.components)) == 0.0


def test_logistic_constant_step_is_exact(grid):
    params = scenario_params(m=CoefficientSpec.constant(1.0))
    start = constant_state(SystemKind.LOGISTIC, grid, [0.5])
    after = ImexStepper(SystemKind.LOGISTIC, [params], grid, 0.01).step(start)
    assert np.allclose(after.components, 0.5025, atol=1e-13)


def test_step_rejects_large_overshoot(grid):
    params = scenario_params(m=CoefficientSpec.cosine(-0.5, 1.0, 2))
    start = constant_state(SystemKind.LOGISTIC, grid, [1.0])
    with pytest.raises(StepOvershootError):
        ImexStepper(SystemKind.LOGISTIC, [params], grid, 5.0).step(start)


def test_integrate_halves_dt_on_overshoot(grid):
    params = scenario_params(m=CoefficientSpec.constant(0.5))
    start = constant_state(SystemKind.LOGISTIC, grid, [3.0])
    result = integrate_to_steady(
        SystemKind.LOGISTIC, params, grid, start,
        SolverOptions(dt=0.9, t_max=300.0, sample_every=10.0, store_fields=False),
    )
    assert result.converged
    assert np.allclose(result.state.components, 0.5, atol=1e-7)


def test_cooperative_step_stays_in_rectangle(grid):
    params = scenario_params()
    start = constant_state(SystemKind.SUBMODEL, grid, [0.3, 0.3])
    after = ImexStepper(SystemKind.SUBMODEL, [params], grid, 0.01).step(start)
    assert np.all(after.components >= 0.0)
    assert np.all(after.components[0] <= 1.0) and np.all(after.components[1] <= 1.0)


def test_logistic_constant_growth_equilibrium(grid):
    params = scenario_params(m=CoefficientSpec.constant(0.7))
    result = logistic_steady(params, grid)
    assert result.converged
    assert np.max(np.abs(result.state.components - 0.7)) < 1e-8


def test_residual_criterion_matches_recomputation(grid):
    params = scenario_params()
    result = subsystem_steady(params, grid)
    coeffs = sample_coefficients(params, grid)
    comps = result.state.components
    recomputed = rhs_residual(SystemKind.SUBMODEL, params, coeffs, comps)
    assert recomputed <= 1e-9


def test_pair_steady_under_growth_hypothesis(grid):
    params = scenario_params()
    result = subsystem_steady(params, grid)
    u, v = result.state.components
    assert np.min(u) > 0 and np.min(v) > 0
    assert np.max(u) < 1.0 and np.max(v) < 1.0


def test_fine_grid_pair_steady_converges_at_rounding_level():
    # At n = 3201 the residual's rounding floor, about eps * d2 * (4/h^2) * max|x|,
    # is above STEADY_TOL, so the absolute test alone would reject the root.
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
    grid = build_grid(0, 1, 3201)
    coeffs = sample_coefficients(config.params, grid)
    result = subsystem_steady(config.params, grid, coeffs)
    u, v = result.state.components
    assert result.converged and result.residual > STEADY_TOL
    assert np.min(u) > 0 and np.min(v) > 0
    assert np.max(u) <= np.max(coeffs.beta) and np.max(v) <= np.max(coeffs.alpha)


def test_steady_helpers_reject_extinction(grid):
    # sign-changing growth with negative mean: zero is the stable state of both systems
    params = scenario_params(m=CoefficientSpec.cosine(-0.1, 0.3, 1))
    with pytest.raises(HypothesisError, match="non-positive"):
        logistic_steady(params, grid)
    with pytest.raises(HypothesisError, match="non-positive"):
        subsystem_steady(params, grid)


# The time stepping the steady helpers used before Newton, kept as a reference.
IMEX_STEADY = SolverOptions(dt=0.05, sample_every=10.0, store_fields=False)
# IMEX stops at a residual of 1e-9, within 1e-9/gamma of the root, gamma the
# decay rate of the linearization there; with mean growth >= 0.1, gamma stayed
# above 0.08 on 40 random habitats of this kind, so 1e-7 leaves a margin of 8.
IMEX_AGREEMENT = 1e-7


@settings(max_examples=6, deadline=None)
@given(mean=st.floats(0.1, 0.6), amplitude=st.floats(0.05, 0.6), frequency=st.integers(1, 3),
       alpha=st.floats(0.3, 2.0), beta=st.floats(0.3, 2.0), d1=st.floats(0.02, 0.3),
       ratio=st.floats(1.0, 20.0), d3=st.floats(0.02, 2.0))
def test_newton_steady_matches_imex_reference(mean, amplitude, frequency, alpha, beta, d1,
                                             ratio, d3):
    grid = build_grid(0, 1, 41)
    params = ModelParams(d1=d1, d2=d1 * ratio, d3=d3, alpha=CoefficientSpec.constant(alpha),
                         beta=CoefficientSpec.constant(beta),
                         m=CoefficientSpec.cosine(mean, amplitude, frequency))
    coeffs = sample_coefficients(params, grid)
    assume(hypothesis_h_holds(coeffs))
    for kind, start, box in (
        (SystemKind.LOGISTIC, [0.5 * np.max(coeffs.m)], [np.max(coeffs.m)]),
        (SystemKind.SUBMODEL, [0.25 * beta, 0.25 * alpha], [beta, alpha]),
    ):
        initial = constant_state(kind, grid, start)
        newton = newton_steady(kind, params, grid, initial, coeffs)
        imex = integrate_to_steady(kind, params, grid, initial, IMEX_STEADY)
        assert newton.converged and imex.converged
        comps = newton.state.components
        assert np.max(np.abs(comps - imex.state.components)) <= IMEX_AGREEMENT
        assert np.min(comps) > 0
        assert np.all(comps.max(axis=1) <= np.array(box) + 1e-12)
        assert rhs_residual(kind, params, coeffs, comps) <= 1e-10


def test_pair_steady_resolution_robustness(grid):
    params = scenario_params()
    coarse = subsystem_steady(params, grid).state.components
    fine_grid = build_grid(0, 1, 401)
    fine = subsystem_steady(params, fine_grid).state.components
    for k in range(2):
        interp = np.interp(grid.nodes, fine_grid.nodes, fine[k])
        assert np.max(np.abs(interp - coarse[k])) < 1e-4


def test_logistic_steady_resolution_robustness(grid):
    params = scenario_params()
    coarse = logistic_steady(params, grid).state.components[0]
    fine_grid = build_grid(0, 1, 401)
    fine = logistic_steady(params, fine_grid).state.components[0]
    interp = np.interp(grid.nodes, fine_grid.nodes, fine)
    assert np.max(np.abs(interp - coarse)) < 1e-4


def test_comparison_principle_preserves_order(grid):
    params = scenario_params()
    opts = SolverOptions(dt=0.01, t_max=5.0, tol=0.0, sample_every=0.5, store_fields=True)
    low = integrate_to_steady(
        SystemKind.SUBMODEL, params, grid,
        constant_state(SystemKind.SUBMODEL, grid, [0.1, 0.1]), opts,
    )
    high = integrate_to_steady(
        SystemKind.SUBMODEL, params, grid,
        constant_state(SystemKind.SUBMODEL, grid, [0.2, 0.2]), opts,
    )
    assert low.trajectory.sample_times == high.trajectory.sample_times
    for f_low, f_high in zip(low.trajectory.fields, high.trajectory.fields):
        assert np.all(f_low <= f_high + 1e-12)


def test_monitor_lyapunov_zero_trajectory(grid):
    params = scenario_params()
    zero = constant_state(SystemKind.SUBMODEL, grid, [0.0, 0.0])
    result = integrate_to_steady(
        SystemKind.SUBMODEL, params, grid, zero,
        SolverOptions(dt=0.01, t_max=1.0, sample_every=0.25, store_fields=True),
    )
    coeffs = sample_coefficients(params, grid)
    problem = switching_problem(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta, coeffs.m)
    adjoint = adjoint_principal_eigen(problem, principal_eigen(problem))
    series = monitor_lyapunov(result.trajectory, adjoint)
    assert np.max(np.abs(series)) == 0.0


def test_lyapunov_decay_for_strongly_negative_growth(grid):
    params = scenario_params(m=CoefficientSpec.cosine(-0.5, 1.0, 2))
    coeffs = sample_coefficients(params, grid)
    problem = switching_problem(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta, coeffs.m)
    primal = principal_eigen(problem)
    assert primal.lam < -1e-3
    adjoint = adjoint_principal_eigen(problem, primal=primal)
    start = constant_state(SystemKind.TWO_SPECIES_GENERAL, grid, [0.3, 0.3])
    result = integrate_to_steady(
        SystemKind.TWO_SPECIES_GENERAL, params, grid, start,
        SolverOptions(dt=0.02, t_max=400.0, sample_every=5.0, store_fields=True),
    )
    series = monitor_lyapunov(result.trajectory, adjoint)
    assert np.all(np.diff(series) < 0)
    assert series[-1] < 1e-6


def test_persistence_floor_requires_window(grid):
    params = scenario_params()
    log_result = integrate_to_steady(
        SystemKind.SUBMODEL, params, grid,
        constant_state(SystemKind.SUBMODEL, grid, [0.2, 0.2]),
        SolverOptions(dt=0.01, t_max=0.005, sample_every=10.0, store_fields=False),
    )
    floor = persistence_floor(log_result.trajectory)
    assert floor >= 0.0
    empty = type(log_result.trajectory)(grid=grid)
    with pytest.raises(ValueError):
        persistence_floor(empty)


def test_random_state_is_seeded(grid):
    a = random_state(SystemKind.SUBMODEL, grid, 0.1, 0.5, seed=9)
    b = random_state(SystemKind.SUBMODEL, grid, 0.1, 0.5, seed=9)
    assert np.array_equal(a.components, b.components)
    c = random_state(SystemKind.SUBMODEL, grid, 0.1, 0.5, seed=10)
    assert not np.array_equal(a.components, c.components)


def test_state_rejects_negative_entries(grid):
    with pytest.raises(ValueError):
        State(t=0.0, components=-0.5 * np.ones((2, grid.n)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_nonfinite_entries(grid, bad):
    comps = np.full((2, grid.n), 0.3)
    comps[1, 5] = bad  # a NaN minimum compares False with any bound
    with pytest.raises(ValueError, match="infs or NaNs"):
        State(t=0.0, components=comps)


def reference_reaction(kind, params, coeffs, comps):
    """Reaction terms as separate arrays joined by np.stack."""
    al, be, m = coeffs.alpha, coeffs.beta, coeffs.m
    if kind is SystemKind.LOGISTIC:
        w = comps[0]
        return (w * (m - w))[None, :]
    if kind is SystemKind.TWO_SPECIES_GENERAL:
        u, v = comps
        g1 = (m - al - u) * u + (be - params.b * u) * v
        g2 = (m - be - v) * v + (al - params.c * v) * u
        return np.stack([g1, g2])
    if kind is SystemKind.SUBMODEL:
        u, v = comps
        shared = m - u - v
        return np.stack([-al * u + be * v + u * shared, al * u - be * v + v * shared])
    u, v, w = comps
    shared = m - u - v - w
    return np.stack([-al * u + be * v + u * shared, al * u - be * v + v * shared, w * shared])


class ReferenceStepper:
    """The IMEX step through a per-field LAPACK dptsv and the validating State(...)."""

    def __init__(self, kind, params, grid, dt):
        self.kind, self.params, self.dt = kind, params, dt
        self.coeffs = sample_coefficients(params, grid)
        self.sqrt_w = np.sqrt(grid.quadrature_weights)
        self.matrices = []
        for d in kind_diffusions(kind, params):
            r = dt * d / grid.h**2
            upper = np.full(grid.n - 1, -r)
            upper[0] = -2.0 * r
            self.matrices.append((np.full(grid.n, 1.0 + 2.0 * r),
                                  upper * self.sqrt_w[:-1] / self.sqrt_w[1:]))

    def fields(self, comps):
        """The (K, n) fields one step on."""
        stage = comps + self.dt * reference_reaction(self.kind, self.params, self.coeffs, comps)
        worst = float(np.min(stage))
        if worst < -NEGATIVITY_TOLERANCE:
            raise StepOvershootError(f"explicit stage reached {worst:.3e}")
        stage = np.maximum(stage, 0.0)
        new = np.empty_like(stage)
        for i, (diag, off) in enumerate(self.matrices):
            _, _, z, info = dptsv(diag, off, self.sqrt_w * stage[i])
            assert info == 0
            new[i] = z / self.sqrt_w
        return new

    def step(self, state):
        return State(t=state.t + self.dt, components=self.fields(state.components))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(SystemKind))
def test_step_is_bit_identical_to_reference(grid, kind):
    params = scenario_params(b=0.7, c=1.3, m=CoefficientSpec.cosine(0.2, 0.6, 1))
    dt = 0.02
    fast = ImexStepper(kind, [params], grid, dt)
    slow = ReferenceStepper(kind, params, grid, dt)
    start = random_state(kind, grid, 0.0, 0.8, seed=3)
    comps = start.components.copy()
    comps[-1, ::7] = 0.0  # exact zeros, as in a component near extinction
    a = b = State(t=0.0, components=comps)
    for _ in range(200):
        a, b = fast.step(a), slow.step(b)
        assert a.t == b.t
        assert same_bits(a.components, b.components)


def test_diffusion_solve_matches_dense_solve(grid):
    dt, diffusions = 0.02, (0.01, 0.1, 1.0, 5.0)
    lap = assemble_banded(grid.laplacian, (1.0,), np.zeros((1, 1, grid.n))).to_dense()
    y = np.random.default_rng(4).uniform(0.0, 1.0, (len(diffusions), grid.n))
    x = DiffusionSolver(grid, diffusions, dt).solve(y.copy())
    for d, xi, yi in zip(diffusions, x, y):
        dense = np.linalg.solve(np.eye(grid.n) - dt * d * lap, yi)
        assert np.max(np.abs(xi - dense)) <= 1e-12 * np.max(np.abs(dense))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 40), diffusions=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=7),
       dt=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_diffusion_block_equals_fields_solved_alone(n, diffusions, dt, seed):
    grid = build_grid(0, 1, n)
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, (len(diffusions), n))
    y[rng.uniform(size=y.shape) < 0.2] = 0.0
    alone = np.array([DiffusionSolver(grid, [d], dt).solve(y[i].copy())
                      for i, d in enumerate(diffusions)])
    assert same_bits(DiffusionSolver(grid, diffusions, dt).solve(y.copy()), alone)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 60), diffusions=st.lists(st.floats(1e-4, 100.0), min_size=1, max_size=4),
       dt=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
def test_diffusion_solve_keeps_signs(n, diffusions, dt, seed):
    """A right-hand side >= +0 gives a solution >= +0: no negative entry and no -0.0,
    for exact zeros and subnormals too, so the step need not check or clamp it."""
    grid = build_grid(0, 1, n)
    rng = np.random.default_rng(seed)
    shape = (len(diffusions), n)
    y = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.uniform(-300.0, 3.0, shape)
    draw = rng.uniform(size=shape)
    y[draw < 0.3] = 0.0
    subnormal = draw > 0.7
    y[subnormal] = rng.integers(1, 2**52, np.count_nonzero(subnormal)) * 5e-324
    x = DiffusionSolver(grid, diffusions, dt).solve(y)
    assert not np.signbit(x).any()


@pytest.mark.parametrize("diffusion, dt", [(1.0, -1e-6), (np.nan, 0.01)])
def test_diffusion_solver_rejects_a_factor_that_flips_signs(grid, diffusion, dt):
    # dt < 0 gives pttrf a positive off-diagonal; a NaN rate gives D = NaN.
    with pytest.raises(ValueError, match="does not keep signs"):
        DiffusionSolver(grid, [0.5, diffusion], dt)


@pytest.mark.parametrize("name, bad", [
    ("dt", [0.0, -0.01, np.inf, np.nan]),
    ("sample_every", [0.0, -1.0, np.inf, np.nan]),
    ("t_max", [np.nan, np.inf, -np.inf]),
    ("tol", [-1e-9, np.nan]),
])
def test_solver_options_reject_values_that_cannot_run(name, bad):
    for value in bad:
        with pytest.raises(ValueError, match=name):
            SolverOptions(**{name: value})


@settings(max_examples=10, deadline=None)
@given(t0=st.floats(0.0, 50.0), dt=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.3]),
       steps=st.integers(1, 60))
def test_run_reaching_t_max_counts_its_steps(t0, dt, steps):
    grid = build_grid(0, 1, 11)
    params = scenario_params()
    t_max = t0 + steps * dt
    start = constant_state(SystemKind.LOGISTIC, grid, [0.1])
    start = State(t=t0, components=start.components)
    result = integrate_to_steady(SystemKind.LOGISTIC, params, grid, start,
                                 SolverOptions(dt=dt, tol=0.0, t_max=t_max, sample_every=0.5))
    assert result.steps == round((t_max - t0) / dt) == steps
    assert result.state.t == t0 + steps * dt
    assert result.trajectory.sample_times[-1] == result.state.t


def test_step_rejects_nonfinite_stage(grid):
    params = scenario_params()
    stepper = ImexStepper(SystemKind.SUBMODEL, [params], grid, 0.01)
    comps = np.full((2, grid.n), 0.3)
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf):
            comps[1, 17] = bad
            with pytest.raises(FloatingPointError, match="explicit stage contains infs or NaNs"):
                stepper.step(State._trusted(0.0, comps.copy()))


def test_residual_with_shared_laplacian_matches_fresh(grid):
    params = scenario_params()
    coeffs = sample_coefficients(params, grid)
    fresh = assemble_neumann_laplacian(grid)
    for kind in SystemKind:
        comps = random_state(kind, grid, 0.0, 1.0, seed=5).components
        shared = rhs_residual(kind, params, coeffs, comps)
        rates = reaction_rhs(kind, params, coeffs, comps)
        rhs = fresh.apply(comps) * np.reshape(kind_diffusions(kind, params), (-1, 1)) + rates
        assert shared == float(np.max(np.abs(rhs)))
        assert rhs_residual(kind, params, coeffs, comps) == shared


def test_block_residuals_match_rhs_residual_per_run(grid):
    rng = np.random.default_rng(11)
    for kind in SystemKind:
        params = [scenario_params(d1=rng.uniform(0.05, 0.5), d2=1.0, d3=rng.uniform(0.1, 2.0),
                                  m=CoefficientSpec.from_samples(rng.uniform(-0.5, 1.0, grid.n)))
                  for _ in range(3)]
        stepper = ImexStepper(kind, params, grid, 0.01)
        # Smooth fields, so that reaction and diffusion are of one size, and an extinct one.
        shape = (kind.n_components, 3, 1)
        block = rng.uniform(0.2, 0.6, shape) + rng.uniform(0.0, 0.2, shape) * np.cos(
            np.pi * rng.integers(1, 4, shape) * grid.nodes)
        block[-1, 1] = 0.0
        rates = reaction_rhs(kind, params[0], stepper.coeffs, block)
        residuals = stepper.residuals(block, rates)
        for p in range(3):
            coeffs = sample_coefficients(params[p], grid)
            assert residuals[p] == rhs_residual(kind, params[p], coeffs, block[:, p])


def reference_integrate(kind, params, grid, initial, opts):
    """integrate_to_steady's loop over ReferenceStepper, with time counted in steps:
    (result, dt halvings)."""
    coeffs = sample_coefficients(params, grid)
    log = TrajectoryLog(grid=grid, fields=[] if opts.store_fields else None)
    log.record(initial)
    stepper = ReferenceStepper(kind, params, grid, opts.dt)
    state, steps, halvings = initial, 0, 0
    t0, k = initial.t, 0  # the clock: after k steps at this dt the time is t0 + k*dt
    next_sample = initial.t + opts.sample_every
    converged = rhs_residual(kind, params, coeffs, state.components) <= opts.tol
    while not converged and t0 + k * stepper.dt < opts.t_max - 1e-12:
        try:
            comps = stepper.fields(state.components)
        except StepOvershootError:
            halvings += 1
            if halvings > MAX_DT_HALVINGS:
                raise
            stepper = ReferenceStepper(kind, params, grid, stepper.dt / 2.0)
            t0, k = state.t, 0
            continue
        k += 1
        state = State(t=t0 + k * stepper.dt, components=comps)
        steps += 1
        if state.t >= next_sample - 1e-12:
            log.record(state)
            while next_sample <= state.t + 1e-12:
                next_sample += opts.sample_every
        if steps % 10 == 0:
            converged = rhs_residual(kind, params, coeffs, state.components) <= opts.tol
    residual = rhs_residual(kind, params, coeffs, state.components)
    log.record(state)
    return SteadyResult(state, residual, residual <= opts.tol, steps, log), halvings


def assert_same_run(result, expected):
    assert isinstance(result, SteadyResult)
    assert result.state.t == expected.state.t
    assert same_bits(result.state.components, expected.state.components)
    assert (result.steps, result.residual, result.converged) == (
        expected.steps, expected.residual, expected.converged)
    ours, theirs = result.trajectory, expected.trajectory
    assert ours.sample_times == theirs.sample_times
    for name in ("mins", "maxs", "masses") + (("fields",) if theirs.fields is not None else ()):
        assert len(getattr(ours, name)) == len(getattr(theirs, name))
        for a, b in zip(getattr(ours, name), getattr(theirs, name)):
            assert same_bits(a, b)


@st.composite
def block_runs(draw, kind):
    """P runs of one kind with their own fields, rates and states (with exact zeros).

    The runs share one start time, dt, tol, t_max and sample_every; their
    own fields and states make them converge, and so leave the block, at
    different steps.  Half the draws are on the step grid, as every
    shipped config is: t = 0, dt = 0.05, sample_every a multiple of dt and
    t_max on the grid.  The other half start at one nonzero t, with
    sample_every no multiple of dt and t_max off the runs' grid, so
    samples and the last step fall between grid points; at the larger dt
    some runs overshoot and go on alone at dt/2.
    """
    n_runs = draw(st.integers(1, 4))
    grid = build_grid(0, 1, 21)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, c = draw(st.floats(0.5, 1.5)), draw(st.floats(0.5, 1.5))
    tol = draw(st.sampled_from([0.0, 1e-3, 1e-2, 5e-2]))
    if draw(st.booleans()):
        start = 0.0
        opts = SolverOptions(dt=0.05, tol=tol, t_max=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
                             sample_every=0.25, store_fields=draw(st.booleans()))
    else:
        dt = draw(st.sampled_from([0.013, 0.05, 0.07, 0.6]))
        start = draw(st.floats(0.1, 50.0))
        opts = SolverOptions(dt=dt, tol=tol, t_max=start + dt * draw(st.floats(2.0, 80.0)),
                             sample_every=dt * (draw(st.integers(0, 6)) + draw(st.floats(0.1, 0.9))),
                             store_fields=draw(st.booleans()))
    params, initials = [], []
    for _ in range(n_runs):
        d1 = rng.uniform(0.05, 0.5)
        m = rng.uniform(-0.5, 1.0, grid.n)
        m[0] = 0.5
        params.append(ModelParams(
            d1=d1, d2=d1 + rng.uniform(0.0, 1.0), d3=rng.uniform(0.05, 1.5), b=b, c=c,
            alpha=CoefficientSpec.from_samples(rng.uniform(0.2, 1.5, grid.n)),
            beta=CoefficientSpec.from_samples(rng.uniform(0.2, 1.5, grid.n)),
            m=CoefficientSpec.from_samples(m)))
        comps = rng.uniform(0.0, 0.8, (kind.n_components, grid.n))
        comps[rng.uniform(size=comps.shape) < 0.2] = 0.0
        if draw(st.booleans()):
            comps[rng.integers(kind.n_components)] = 0.0  # an extinct component
        initials.append(State(t=start, components=comps))
    return params, grid, initials, opts


@pytest.mark.parametrize("kind", list(SystemKind))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_block_is_bit_identical_to_reference_runs(kind, data):
    params, grid, initials, opts = data.draw(block_runs(kind))
    results = integrate_runs(kind, params, grid, initials, opts)
    for p, result in enumerate(results):
        expected, _ = reference_integrate(kind, params[p], grid, initials[p], opts)
        assert_same_run(result, expected)


def test_overshooting_run_leaves_the_block_and_halves_dt_alone(grid):
    params = scenario_params(m=CoefficientSpec.constant(0.5))
    opts = SolverOptions(dt=0.9, t_max=30.0, sample_every=3.0)
    starts = [constant_state(SystemKind.LOGISTIC, grid, [w]) for w in (0.6, 3.0, 0.2)]
    results = integrate_runs(SystemKind.LOGISTIC, [params] * 3, grid, starts, opts)
    halvings = []
    for result, start in zip(results, starts):
        expected, halved = reference_integrate(SystemKind.LOGISTIC, params, grid, start, opts)
        assert_same_run(result, expected)
        assert_same_run(result, integrate_to_steady(SystemKind.LOGISTIC, params, grid, start, opts))
        halvings.append(halved)
    assert halvings[0] == halvings[2] == 0 and halvings[1] > 0


@settings(max_examples=300, deadline=None)
@given(t0=st.one_of(st.floats(0.0, 50.0), st.floats(1e3, 1e6)),
       dt=st.sampled_from([1e-3, 0.01, 0.013, 0.05, 0.07, 0.1, 0.3, 2.0]),
       ahead=st.integers(1, 12), offset=st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, 5e-13]),
       steps0=st.integers(0, 500), k=st.integers(0, 10**5), horizon=st.integers(1, 50))
def test_next_event_is_the_first_step_the_loop_acts_on(t0, dt, ahead, offset, steps0, k,
                                                       horizon):
    # A sample time near the step grid, where rounding decides the loop's test.
    next_sample = t0 + (k + ahead) * dt + offset
    k_max = k + horizon

    def samples(s):  # the loop's test; monotone in s
        return t0 + s * dt >= next_sample - 1e-12

    assume(not samples(k))
    last = min(k_max, next(s for s in range(k + 1, k + 11) if (steps0 + s) % 10 == 0))
    event = _next_event(next_sample, t0, steps0, k, k_max, dt)
    assert k < event <= last
    assert event == last or samples(event)
    assert event == k + 1 or not samples(event - 1)


def test_halved_run_checks_on_its_whole_step_count(grid):
    # configs/reference.json at dt = 2 halves at steps 3 and 87, so the checks of
    # each halved leg fall at offsets 7 and 3 of its own steps; it converges after 140.
    params = scenario_params()
    opts = SolverOptions(dt=2.0, t_max=200.0)
    start = constant_state(SystemKind.SUBMODEL, grid, [0.2, 0.2])
    expected, halved = reference_integrate(SystemKind.SUBMODEL, params, grid, start, opts)
    assert (halved, expected.steps, expected.converged) == (2, 140, True)
    for result in integrate_runs(SystemKind.SUBMODEL, [params] * 2, grid, [start] * 2, opts):
        assert_same_run(result, expected)


def test_nonfinite_stage_fails_its_run_only(grid):
    params = scenario_params()
    opts = SolverOptions(dt=0.01, t_max=0.5, sample_every=0.1)
    starts = [constant_state(SystemKind.SUBMODEL, grid, [0.3, 0.2]) for _ in range(3)]
    comps = np.full((2, grid.n), 0.3)
    comps[1, -1] = np.nan  # next to the first node of the following run in the band
    starts[1] = State._trusted(0.0, comps)  # State() rejects it; this start must reach the stage
    results = integrate_runs(SystemKind.SUBMODEL, [params] * 3, grid, starts, opts)
    assert isinstance(results[1], FloatingPointError) and "infs or NaNs" in str(results[1])
    expected, _ = reference_integrate(SystemKind.SUBMODEL, params, grid, starts[0], opts)
    assert_same_run(results[0], expected)
    assert_same_run(results[2], expected)
    with pytest.raises(FloatingPointError, match="infs or NaNs"):
        integrate_to_steady(SystemKind.SUBMODEL, params, grid, starts[1], opts)


def test_overflowing_run_is_a_numerical_failure_without_warnings(grid):
    params = scenario_params()
    start = constant_state(SystemKind.THREE_COMPONENT, grid, [1e308, 1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        with pytest.raises(FloatingPointError, match="infs or NaNs"):
            integrate_to_steady(SystemKind.THREE_COMPONENT, params, grid, start,
                                SolverOptions(dt=0.01, t_max=1.0))


def test_runs_of_one_call_share_a_start_time(grid):
    params = scenario_params()
    start = constant_state(SystemKind.SUBMODEL, grid, [0.3, 0.2])
    later = State(t=1.0, components=start.components)
    with pytest.raises(ValueError, match="one clock"):
        integrate_runs(SystemKind.SUBMODEL, [params] * 2, grid, [start, later], SolverOptions())
