"""Verification battery: property checks aggregated by the verify task.

Every check is oracle-based or property-based: dense eigensolves,
central differences, analytic limits, and cross-checks between the
spectral and dynamical routes.  The battery is deterministic for a
fixed seed and takes about 41 s of CPU at the default
resolutions (n = 201 for dynamics, 401 for eigenvalue thresholds, 801
for the small-diffusion limit).

Each group is a function of the scenario and its three grids only, and
returns (check name, passed, detail) triples, which run_battery turns
into rows; a group whose setting does not hold raises HypothesisError,
itself or from the analysis it calls, and gets one SKIP row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .mesh import Grid, assemble_neumann_laplacian, build_grid, integrate
from .model import (
    CoefficientSpec,
    HypothesisError,
    ModelParams,
    SystemKind,
    check_hypothesis_h,
    classify_regime,
    sample_coefficients,
)
from .dynamics import (
    SolverOptions,
    constant_state,
    integrate_runs,
    integrate_to_steady,
    lyapunov_identity,
    monitor_lyapunov,
    persistence_floor,
    random_state,
)
from .spectral import (
    adjoint_principal_eigen,
    assemble_dense,
    dense_rightmost,
    find_mu_roots,
    lambda_of_mu,
    lambda_prime_at_zero,
    mu_star_scalar,
    principal_eigen,
    scalar_eigenvalue,
    scalar_problem,
    switching_problem,
)
from . import analysis as an

Check = tuple[str, bool, str]  # (check name, passed, detail)


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str


class VerifyContext:
    """The scenario and its three grids.

    grid is the dynamics grid; the eigenvalue grid (2n - 1 nodes) and the
    fine grid (4n - 3 nodes) refine it on the same interval.
    """

    def __init__(self, params: Optional[ModelParams] = None, grid: Optional[Grid] = None,
                 seed: int = 0):
        self.params = params or reference_params()
        self.grid = grid or build_grid(0.0, 1.0, 201)
        self.seed = seed
        self.eigen_grid = build_grid(self.grid.a, self.grid.b, 2 * self.grid.n - 1)
        self.fine_grid = build_grid(self.grid.a, self.grid.b, 4 * self.grid.n - 3)


def reference_params() -> ModelParams:
    """Reference competition scenario used throughout the battery."""
    return ModelParams(
        d1=0.1,
        d2=1.0,
        d3=0.4,
        alpha=CoefficientSpec.constant(1.0),
        beta=CoefficientSpec.constant(1.0),
        m=CoefficientSpec.cosine(0.4, 0.3, 1),
    )


# ---------------------------------------------------------------------------
# Group 1: discretization order


def check_mesh_order(ctx: VerifyContext) -> list[Check]:
    errs = {}
    for n in (201, 401):
        g = build_grid(0.0, 1.0, n)
        lap = assemble_neumann_laplacian(g)
        f = np.cos(np.pi * g.nodes)
        errs[n] = float(np.max(np.abs(lap.apply(f) + np.pi**2 * f)))
    ratio = errs[201] / errs[401]
    return [
        ("second-order-ratio", ratio >= 3.5, f"error ratio 201->401 = {ratio:.3f}")
    ]


# ---------------------------------------------------------------------------
# Group 2: iterative eigensolver vs dense oracle


def check_eigen_oracle(ctx: VerifyContext) -> list[Check]:
    rng = np.random.default_rng(ctx.seed + 17)
    g = build_grid(0.0, 1.0, 101)
    results = []
    worst = 0.0
    for case in range(10):
        scalar = case % 2 == 0
        if scalar:
            d = float(rng.uniform(0.05, 1.5))
            e = rng.uniform(-1.0, 1.0, g.n)
            problem = scalar_problem(g, d, e)
        else:
            d1 = float(rng.uniform(0.05, 0.5))
            d2 = float(rng.uniform(d1, 1.5))
            alpha = rng.uniform(0.2, 1.2, g.n)
            beta = rng.uniform(0.2, 1.2, g.n)
            m = rng.uniform(-1.0, 1.0, g.n)
            problem = switching_problem(g, d1, d2, alpha, beta, m)
        lam_iter = principal_eigen(problem).lam
        lam_dense, _ = dense_rightmost(assemble_dense(problem))
        rel = abs(lam_iter - lam_dense.real) / (1.0 + abs(lam_dense.real))
        worst = max(worst, rel)
    results.append(
        ("ten-random-problems", worst <= 1e-7, f"worst relative diff {worst:.3e}")
    )
    return results


# ---------------------------------------------------------------------------
# Group 3: scalar eigenvalue laws


def check_scalar_laws(ctx: VerifyContext) -> list[Check]:
    g = ctx.eigen_grid
    out = []
    base = np.cos(2.0 * np.pi * g.nodes)
    d_lattice = (0.1, 0.3, 1.0, 3.0)
    lam = {c0: {d: scalar_eigenvalue(g, d, base + c0).lam for d in d_lattice} for c0 in (-0.1, 0.0, 0.1)}

    mono_e = all(lam[0.1][d] > lam[-0.1][d] + 1e-9 for d in d_lattice)
    out.append(("monotone-in-potential", mono_e, "lambda increases with the potential"))

    dec = all(
        lam[c0][d_lattice[i]] > lam[c0][d_lattice[i + 1]] + 1e-9
        for c0 in lam
        for i in range(len(d_lattice) - 1)
    )
    out.append(("strictly-decreasing-in-d", dec, "checked on d in {0.1,0.3,1,3}"))

    pos = all(lam[c0][d] > 1e-9 for c0 in (0.0, 0.1) for d in d_lattice)
    out.append(("positive-when-mean-nonnegative", pos, "c0 in {0, 0.1}"))

    mu = mu_star_scalar(g, base - 0.1)
    lam_half = scalar_eigenvalue(g, 0.5 / mu.root, base - 0.1).lam
    lam_twice = scalar_eigenvalue(g, 2.0 / mu.root, base - 0.1).lam
    ok = lam_half > 1e-9 and lam_twice < -1e-9
    out.append(
        (
            "critical-scaling-sign-law",
            ok,
            f"mu*={mu.root:.6f}, lambda(0.5/mu*)={lam_half:.3e}, lambda(2/mu*)={lam_twice:.3e}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Group 4: positivity of the coupled principal eigenvalue


def check_pair_positivity(ctx: VerifyContext) -> list[Check]:
    g = ctx.eigen_grid
    out = []
    x = g.nodes
    cases = [
        ("mean-dominates-switching-asymmetry", 0.1, 1.0, np.full(g.n, 1.0), np.full(g.n, 1.0)),
        ("slow-rate-already-viable", 0.01, 1.0, np.full(g.n, 0.05), np.full(g.n, 0.3)),
        ("uneven-switching", 0.1, 1.0, np.full(g.n, 0.6), np.full(g.n, 1.3)),
    ]
    m = 0.1 + 0.3 * np.cos(np.pi * x)  # sign-changing, positive mean
    for name, d1, d2, alpha, beta in cases:
        lam0 = principal_eigen(switching_problem(g, d1, d2, alpha, beta, m)).lam
        lam_a = scalar_eigenvalue(g, d1, m - alpha).lam
        lam_b = scalar_eigenvalue(g, d2, m - beta).lam
        dominated = lam0 > max(lam_a, lam_b) + 1e-9
        out.append(
            (
                f"strict-domination-{name}",
                dominated,
                f"lambda0={lam0:.6f} > max({lam_a:.6f}, {lam_b:.6f})",
            )
        )
        mean_growth = integrate(g, m)
        penalty = 0.5 * integrate(g, (np.sqrt(alpha) - np.sqrt(beta)) ** 2)
        cond = lam_a >= 0 or mean_growth >= penalty
        if cond:
            out.append(
                (
                    f"positive-when-sufficient-{name}",
                    lam0 > 1e-9,
                    f"lambda0={lam0:.6f} with lambda(d1, m-alpha)={lam_a:.4f}, "
                    f"mean={mean_growth:.4f}, penalty={penalty:.4f}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Group 5: derivative of the growth-scaled eigenvalue at zero


def check_growth_derivative(ctx: VerifyContext) -> list[Check]:
    g = ctx.eigen_grid
    x = g.nodes
    out = []
    d1, d2 = 0.1, 1.0

    alpha = 1.0 + 0.5 * np.cos(np.pi * x)
    beta = np.full(g.n, 1.0)
    m = np.cos(2.0 * np.pi * x) - 0.2
    slope = lambda_prime_at_zero(g, d1, d2, alpha, beta, m)
    h = 1e-4
    fd = (
        lambda_of_mu(g, d1, d2, alpha, beta, m, h)
        - lambda_of_mu(g, d1, d2, alpha, beta, m, -h)
    ) / (2.0 * h)
    out.append(
        (
            "closed-formula-vs-central-difference",
            abs(slope - fd) <= 1e-5,
            f"formula {slope:.9f} vs difference {fd:.9f}",
        )
    )

    state = principal_eigen(switching_problem(g, d1, d2, alpha, beta, np.zeros(g.n)))
    combo = d1 * state.eigenfunctions[0] + d2 * state.eigenfunctions[1]
    dev = (float(np.max(combo)) - float(np.min(combo))) / float(np.mean(combo))
    out.append(
        ("weighted-combination-constant", dev <= 1e-6, f"relative deviation {dev:.3e}")
    )

    beta_var = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
    for name, m_case, expected in (
        ("zero-mean", np.cos(2.0 * np.pi * x), 0.0),
        ("negative-mean", np.cos(2.0 * np.pi * x) - 0.2, -0.2),
    ):
        slope_k = lambda_prime_at_zero(g, d1, d2, 2.0 * beta_var, beta_var, m_case)
        out.append(
            (
                f"constant-ratio-slope-{name}",
                abs(slope_k - expected) <= 1e-7,
                f"slope {slope_k:.9f} vs mean growth {expected}",
            )
        )

    alpha_c = np.full(g.n, 1.0)
    m0 = np.cos(2.0 * np.pi * x) - 0.15
    curve = lambda mu: lambda_of_mu(g, d1, d2, alpha_c, alpha_c, m0, mu)
    roots = find_mu_roots(curve, (1e-2, 1e2), name="mu_zero")
    lam_at_one = curve(1.0)
    ok = len(roots) == 1 and np.sign(1.0 - roots[0].root) == np.sign(lam_at_one)
    out.append(
        (
            "unique-critical-scaling",
            ok,
            f"{len(roots)} root(s), mu0={roots[0].root:.6f} vs lambda(1)={lam_at_one:.6f}"
            if roots
            else "no root found",
        )
    )
    if roots:
        roots2 = find_mu_roots(
            lambda mu: lambda_of_mu(g, d1, d2, alpha_c, alpha_c, 2.0 * m0, mu),
            (1e-2, 1e2),
            name="mu_zero",
        )
        ok2 = len(roots2) == 1 and abs(roots2[0].root - 0.5 * roots[0].root) <= 1e-6 * roots[0].root
        out.append(
            (
                "critical-scaling-halves-under-doubled-growth",
                ok2,
                f"mu0(2m)={roots2[0].root:.8f} vs mu0(m)/2={(0.5 * roots[0].root):.8f}"
                if roots2
                else "no root found",
            )
        )

    mu_conv = [curve(mu) for mu in (0.3, 0.9, 1.5)]
    convex = mu_conv[1] <= 0.5 * (mu_conv[0] + mu_conv[2]) + 1e-9
    out.append(("convexity-on-lattice", convex, "midpoint below chord"))
    return out


# ---------------------------------------------------------------------------
# Group 6: common-diffusion scaling family


def check_diffusion_scaling(ctx: VerifyContext) -> list[Check]:
    # The family d*diag(L, d0*L) + mu*M (M the switching matrix) scales every coefficient by mu.
    out = []
    g = ctx.eigen_grid
    x = g.nodes
    alpha = np.full(g.n, 1.0)
    beta = np.full(g.n, 0.7)
    m = np.cos(2.0 * np.pi * x) - 0.1
    d0 = 10.0
    worst = 0.0
    for mu in (0.5, 2.0, 10.0):
        left = principal_eigen(switching_problem(g, 1.0, d0, mu * alpha, mu * beta, mu * m)).lam
        d = 1.0 / mu
        right = mu * principal_eigen(switching_problem(g, d, d * d0, alpha, beta, m)).lam
        worst = max(worst, abs(left - right) / (1.0 + abs(left)))
    out.append(
        ("scaling-identity", worst <= 1e-8, f"worst relative mismatch {worst:.3e}")
    )

    gf = ctx.fine_grid
    mf = -0.5 + 4.0 * np.cos(np.pi * gf.nodes)
    ones = np.full(gf.n, 1.0)
    lams = [
        principal_eigen(switching_problem(gf, d, d * 1.2, ones, ones, mf)).lam
        for d in (0.1, 0.03, 0.01, 0.003)
    ]
    spread = float(np.max(mf) - np.min(mf))
    gap = float(np.max(mf)) - lams[-1]
    mono = all(lams[i] < lams[i + 1] for i in range(len(lams) - 1))
    out.append(
        (
            "small-diffusion-limit",
            mono and gap <= 0.05 * spread,
            f"lambda at d=0.003 within {gap:.4f} of max growth (allowed {0.05 * spread:.4f})",
        )
    )

    m4 = -0.5 + 4.0 * np.cos(np.pi * x)
    ones4 = np.full(g.n, 1.0)
    curve = lambda mu: principal_eigen(
        switching_problem(g, 1.0, 1.2, mu * ones4, mu * ones4, mu * m4)
    ).lam
    lam_small = curve(0.01)
    roots = find_mu_roots(curve, (0.01, 100.0), name="mu_family", scan_points=48)
    lam_large = curve(roots[-1].root * 4.0) if roots else curve(100.0)
    ok = lam_small < 0 and lam_large > 0 and len(roots) >= 1
    out.append(
        (
            "negative-mean-sign-change",
            ok,
            f"lambda(mu=0.01)={lam_small:.4f}, {len(roots)} root(s), "
            f"lambda(beyond)={lam_large:.4f}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Group 7: extinction/persistence dichotomy


def check_dichotomy(ctx: VerifyContext) -> list[Check]:
    out = []
    g = ctx.grid
    x = g.nodes
    ones = np.full(g.n, 1.0)
    d1, d2 = 0.1, 1.0
    m0 = np.cos(2.0 * np.pi * x) - 0.15
    curve = lambda mu: lambda_of_mu(g, d1, d2, ones, ones, m0, mu)
    roots = find_mu_roots(curve, (1e-2, 1e2), name="mu_zero")
    if len(roots) != 1:
        return [("setup-critical-scaling", False, f"{len(roots)} roots found")]
    mu0 = roots[0].root

    battery = [
        ("positive-mean", 0.4 + 0.3 * np.cos(np.pi * x), SolverOptions(dt=0.02, sample_every=2.0)),
        ("sign-changing-positive-mean", 0.1 + 0.3 * np.cos(np.pi * x), SolverOptions(dt=0.02, sample_every=2.0)),
        ("well-below-critical-scaling", 0.35 * mu0 * m0, SolverOptions(dt=0.02, sample_every=2.0)),
        ("below-critical-scaling", 0.7 * mu0 * m0, SolverOptions(dt=0.02, sample_every=2.0)),
        ("at-critical-scaling", mu0 * m0,
         SolverOptions(dt=0.05, t_max=20000.0, sample_every=50.0, store_fields=True)),
        ("above-critical-scaling", 1.6 * mu0 * m0, SolverOptions(dt=0.02, sample_every=2.0)),
    ]
    params = ModelParams(
        d1=d1, d2=d2,
        alpha=CoefficientSpec.constant(1.0),
        beta=CoefficientSpec.constant(1.0),
        m=CoefficientSpec.constant(1.0),  # replaced per case below
    )
    for name, m_field, opts in battery:
        local = replace(params, m=CoefficientSpec.from_samples(m_field))
        problem = switching_problem(g, d1, d2, ones, ones, m_field)
        primal = principal_eigen(problem)
        lam0 = primal.lam
        start = constant_state(SystemKind.TWO_SPECIES_GENERAL, g, [0.3, 0.3])
        res = integrate_to_steady(SystemKind.TWO_SPECIES_GENERAL, local, g, start, opts)
        floor = persistence_floor(res.trajectory)
        mass = float(np.sum(res.state.components @ g.quadrature_weights))
        persistent = floor > an.PERSISTENT_MASS
        extinct = mass < an.EXTINCT_MASS
        if lam0 > 1e-6:
            ok, expect = persistent and not extinct, "persistence"
        elif lam0 < -1e-6:
            ok, expect = extinct and not persistent, "extinction"
        else:
            ok, expect = (not persistent) and (not extinct), "slow algebraic decay"
        out.append(
            (
                f"dichotomy-{name}",
                ok,
                f"lambda0={lam0:+.6f}, expected {expect}: floor={floor:.3e}, mass={mass:.3e}",
            )
        )
        if name == "at-critical-scaling":
            adjoint = adjoint_principal_eigen(problem, primal=primal)
            series = monitor_lyapunov(res.trajectory, adjoint)
            decreasing = bool(np.all(np.diff(series) < 0))
            out.append(
                (
                    "weighted-mass-strictly-decreasing",
                    decreasing,
                    f"{len(series)} samples from {series[0]:.4e} to {series[-1]:.4e}",
                )
            )
            # Probe after a short transient so the state sits near the decaying
            # eigenline, where the one-step difference is well resolved.
            warmup = integrate_to_steady(
                SystemKind.TWO_SPECIES_GENERAL, local, g,
                constant_state(SystemKind.TWO_SPECIES_GENERAL, g, [0.3, 0.25]),
                SolverOptions(dt=0.01, t_max=2.0, tol=0.0, sample_every=1.0),
            )
            probe = warmup.state
            dt_id = 0.01
            lhs, rhs = lyapunov_identity(
                SystemKind.TWO_SPECIES_GENERAL, local, g, probe, dt_id, adjoint
            )
            rel = abs(lhs - rhs) / abs(rhs)
            out.append(
                (
                    "decay-identity-one-step",
                    rel <= 5.0 * dt_id,
                    f"discrete d/dt {lhs:.6e} vs quadratic sink {rhs:.6e} (rel {rel:.3e})",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Group 8: uniqueness of the competitive positive steady state


def check_competitive_uniqueness(ctx: VerifyContext) -> list[Check]:
    out = []
    g = ctx.grid
    params = ModelParams(
        d1=0.1, d2=1.0, b=0.5, c=0.5,
        alpha=CoefficientSpec.constant(0.05),
        beta=CoefficientSpec.constant(0.05),
        m=CoefficientSpec.cosine(1.0, 0.2, 1),
    )
    regime = classify_regime(params, g)
    out.append(
        (
            "eventually-competitive-regime",
            regime.in_s1 and params.b * params.c <= 1.0,
            f"in_s1={regime.in_s1}, k={regime.k:.3f}, bc={params.b * params.c}",
        )
    )
    opts = SolverOptions(dt=0.02, sample_every=5.0)
    finals = []
    for i in range(3):
        start = random_state(SystemKind.TWO_SPECIES_GENERAL, g, 0.1, 1.0, ctx.seed + 100 + i)
        res = integrate_to_steady(SystemKind.TWO_SPECIES_GENERAL, params, g, start, opts)
        if not res.converged:
            out.append((f"steady-run-{i}", False, "did not converge"))
            return out
        finals.append(res.state.components)
    worst = max(
        float(np.max(np.abs(finals[i] - finals[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    out.append(
        ("three-seeds-agree", worst <= 1e-6, f"worst pairwise sup distance {worst:.3e}")
    )
    mean_state = sum(finals) / 3.0
    coeffs = sample_coefficients(params, g)
    lam, _ = dense_rightmost(
        an.pair_linearization_dense(params, g, coeffs, mean_state[0], mean_state[1])
    )
    out.append(
        (
            "limit-linearly-stable",
            lam.real < -1e-9,
            f"rightmost eigenvalue {lam.real:.6e}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Group 9: invasion eigenvalue brackets


def check_invasion_brackets(ctx: VerifyContext) -> list[Check]:
    check_hypothesis_h(ctx.params, ctx.grid)
    out = []
    g = ctx.eigen_grid
    params = ctx.params
    coeffs = sample_coefficients(params, g)
    u, v = an.subsystem_steady(params, g, coeffs).state.components
    pot = coeffs.m - u - v
    nonconst = float(np.max(pot) - np.min(pot))
    out.append(
        ("leftover-growth-non-constant", nonconst > 1e-6, f"spread {nonconst:.3e}")
    )
    alpha = float(np.max(coeffs.alpha))
    beta = float(np.max(coeffs.beta))
    d_avg = an.weighted_average_diffusion(params, alpha, beta)
    lam_lo = scalar_eigenvalue(g, params.d1, pot).lam
    lam_hi = scalar_eigenvalue(g, d_avg, pot).lam
    out.append(
        (
            "pair-state-endpoint-signs",
            lam_lo > 1e-9 and lam_hi < -1e-9,
            f"lambda({params.d1})={lam_lo:.5f}, lambda({d_avg})={lam_hi:.5f}",
        )
    )
    dc = an.threshold_curve("d_c", params, g).roots[0]
    out.append(
        (
            "pair-state-threshold-inside-bracket",
            params.d1 < dc.root < d_avg and dc.residual <= 1e-8,
            f"d_c={dc.root:.6f} in ({params.d1}, {d_avg:.3f}), residual {dc.residual:.2e}",
        )
    )

    def lambda2_at(d3: float) -> float:
        local = replace(params, d3=d3)
        w_star = an.logistic_steady(local, g, coeffs).state.components[0]
        return an.lambda2_eigenpair(local, g, w_star, coeffs).lam

    lam2_lo, lam2_hi = lambda2_at(params.d1), lambda2_at(d_avg)
    out.append(
        (
            "single-state-endpoint-signs",
            lam2_lo < -1e-9 and lam2_hi > 1e-9,
            f"lambda2({params.d1})={lam2_lo:.5f}, lambda2({d_avg:.3f})={lam2_hi:.5f}",
        )
    )
    roots = an.lambda2_sign_changes(params, g)
    out.append(
        (
            "single-state-sign-change-found",
            len(roots) >= 1,
            f"{len(roots)} sign change(s): {[f'{r.root:.5f}' for r in roots]}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Group 10: exclusion dynamics in the diffusion rate


def check_exclusion_dynamics(ctx: VerifyContext) -> list[Check]:
    check_hypothesis_h(ctx.params, ctx.grid)
    out = []
    g = ctx.grid
    params = ctx.params
    sweep = an.sweep_outcomes(params, g, "d3", [0.05, 0.08, 0.6, 1.5],
                              SolverOptions(dt=0.02, sample_every=5.0))
    expected = {0.05: "w_wins", 0.08: "w_wins", 0.6: "uv_wins", 1.5: "uv_wins"}
    for point in sweep.points:
        out.append(
            (
                f"outcome-at-d3-{point.value}",
                point.outcome == expected[point.value],
                f"outcome={point.outcome}, lambda_uv0={point.lambda_uv0:+.5f}, "
                f"lambda2={point.lambda_00w:+.5f}",
            )
        )
        if point.outcome == "w_wins":
            consistent = point.lambda_00w < 1e-6 and point.lambda_uv0 > -1e-6
        elif point.outcome == "uv_wins":
            consistent = point.lambda_uv0 < 1e-6 and point.lambda_00w > -1e-6
        else:
            consistent = True
        out.append(
            (f"signs-consistent-at-d3-{point.value}", consistent,
             "winner stable, loser invadable")
        )

    # The 5 seeds at both end members step as one block of 10 runs.
    opts = SolverOptions(dt=0.05, sample_every=5.0)
    ends = (0.05, 1.5)
    starts = [random_state(SystemKind.THREE_COMPONENT, g, 0.05, 0.4, ctx.seed + 200 + i)
              for i in range(5)]
    runs = integrate_runs(SystemKind.THREE_COMPONENT,
                          [replace(params, d3=d3) for d3 in ends for _ in starts],
                          g, starts * len(ends), opts)
    for e, d3 in enumerate(ends):
        loser_max = 0.0
        winner_min = np.inf
        for res in runs[e * len(starts):(e + 1) * len(starts)]:
            if isinstance(res, Exception):
                raise res
            masses = res.state.components @ g.quadrature_weights
            if d3 < params.d1:
                loser_max = max(loser_max, masses[0] + masses[1])
                winner_min = min(winner_min, masses[2])
            else:
                loser_max = max(loser_max, masses[2])
                winner_min = min(winner_min, masses[0] + masses[1])
        out.append(
            (
                f"no-coexistence-at-d3-{d3}",
                loser_max < an.EXTINCT_MASS and winner_min > an.PERSISTENT_MASS,
                f"5 seeds: loser mass <= {loser_max:.2e}, winner mass >= {winner_min:.2e}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Group 11: switching-rate thresholds


def check_switching_thresholds(ctx: VerifyContext) -> list[Check]:
    params = ctx.params
    g = ctx.eigen_grid
    out = []
    beta = an.threshold_curve("beta_c", params, g)
    w_star = an.logistic_steady(params, g).state.components[0]
    hi_beta = beta.bracket[1]
    lattice_roots = find_mu_roots(beta.curve, beta.bracket, name="beta_c", scan_points=64)
    out.append(
        (
            "one-sign-change-in-beta",
            len(lattice_roots) == 1,
            f"{len(lattice_roots)} sign change(s) on the 64-point lattice",
        )
    )
    beta_c = beta.roots[0]
    out.append(
        (
            "beta-threshold-inside-bracket",
            0.0 < beta_c.root < hi_beta and beta_c.residual <= 1e-8,
            f"beta_c={beta_c.root:.6f} in (0, {hi_beta:.3f}), residual {beta_c.residual:.2e}",
        )
    )

    def rate_slope(rate: str, value: float) -> float:
        local = replace(params, **{rate: CoefficientSpec.constant(value)})
        return an.lambda2_sensitivity(local, g, rate, w_star)

    h = 1e-3
    probe = 1.0
    fd = (beta.curve(probe + h) - beta.curve(probe - h)) / (2.0 * h)
    slope = rate_slope("beta", probe)
    out.append(
        (
            "beta-derivative-formula",
            abs(slope - fd) <= 1e-4,
            f"formula {slope:.7f} vs difference {fd:.7f}",
        )
    )
    slope_at_root = rate_slope("beta", beta_c.root)
    out.append(
        ("beta-derivative-positive-at-root", slope_at_root > 0,
         f"slope {slope_at_root:.6f}")
    )

    alpha = an.threshold_curve("alpha_c", params, g)
    lo_alpha = alpha.bracket[0]
    alpha_c = alpha.roots[0]
    out.append(
        (
            "alpha-threshold-beyond-lower-bound",
            alpha_c.root > lo_alpha and alpha_c.residual <= 1e-8,
            f"alpha_c={alpha_c.root:.6f} > {lo_alpha:.3f}, residual {alpha_c.residual:.2e}",
        )
    )

    fd_a = (alpha.curve(probe + h) - alpha.curve(probe - h)) / (2.0 * h)
    slope_a = rate_slope("alpha", probe)
    out.append(
        (
            "alpha-derivative-formula",
            abs(slope_a - fd_a) <= 1e-4,
            f"formula {slope_a:.7f} vs difference {fd_a:.7f}",
        )
    )
    slope_a_root = rate_slope("alpha", alpha_c.root)
    out.append(
        ("alpha-derivative-negative-at-root", slope_a_root < 0,
         f"slope {slope_a_root:.6f}")
    )
    return out


# ---------------------------------------------------------------------------
# Group 12: switching-rate dynamics


def check_switching_dynamics(ctx: VerifyContext) -> list[Check]:
    params = ctx.params
    g = ctx.grid
    out = []
    beta = an.threshold_curve("beta_c", params, ctx.eigen_grid)
    beta_c, hi_beta = beta.roots[0], beta.bracket[1]
    alpha_c = an.threshold_curve("alpha_c", params, ctx.eigen_grid).roots[0]

    # Far from the thresholds the invasion eigenvalues are still only a few
    # 1e-3 for this scenario, so exclusion needs a long horizon.
    slow_opts = SolverOptions(dt=0.05, t_max=8000.0, sample_every=20.0)
    beta_vals = [0.05 * beta_c.root, min(4.0 * beta_c.root, 0.95 * hi_beta)]
    alpha_vals = [0.05 * alpha_c.root, 4.0 * alpha_c.root]
    for rate, values, outcomes in (("beta", beta_vals, ("w_wins", "uv_wins")),
                                   ("alpha", alpha_vals, ("uv_wins", "w_wins"))):
        sweep = an.sweep_outcomes(params, g, rate, values, opts=slow_opts)
        expected = dict(zip(values, outcomes))
        for point in sweep.points:
            out.append(
                (
                    f"outcome-at-{rate}-{point.value:.4f}",
                    point.outcome == expected[point.value],
                    f"outcome={point.outcome}, lambda_uv0={point.lambda_uv0:+.5f}, "
                    f"lambda2={point.lambda_00w:+.5f}",
                )
            )
    return out


# The one list of groups, in battery order.
CHECKERS: dict[str, Callable[[VerifyContext], list[Check]]] = {
    "mesh-order": check_mesh_order,
    "eigen-oracle": check_eigen_oracle,
    "scalar-eigenvalue-laws": check_scalar_laws,
    "pair-positivity": check_pair_positivity,
    "growth-derivative": check_growth_derivative,
    "diffusion-scaling": check_diffusion_scaling,
    "extinction-persistence": check_dichotomy,
    "competitive-uniqueness": check_competitive_uniqueness,
    "invasion-brackets": check_invasion_brackets,
    "exclusion-dynamics": check_exclusion_dynamics,
    "switching-thresholds": check_switching_thresholds,
    "switching-dynamics": check_switching_dynamics,
}


def run_battery(
    ctx: Optional[VerifyContext] = None, groups: Optional[list[str]] = None
) -> list[CheckResult]:
    """Run the named check groups (all if groups is None) and collect results."""
    ctx = ctx or VerifyContext()
    selected = list(CHECKERS) if groups is None else groups
    unknown = [gname for gname in selected if gname not in CHECKERS]
    if unknown:
        raise ValueError(f"unknown verify groups: {unknown}")
    results: list[CheckResult] = []
    for gname in selected:
        try:
            results.extend(CheckResult(gname, name, "PASS" if ok else "FAIL", detail)
                           for name, ok, detail in CHECKERS[gname](ctx))
        except HypothesisError as exc:
            results.append(CheckResult(gname, "all", "SKIP", f"hypothesis violation: {exc}"))
        except Exception as exc:
            results.append(CheckResult(gname, "execution", "FAIL", f"{type(exc).__name__}: {exc}"))
    return results
