import dataclasses

import numpy as np
import pytest

from dispersal_lab.mesh import build_grid, integrate
from dispersal_lab.model import (
    CoefficientSpec,
    Coefficients,
    HypothesisError,
    ModelParams,
    SystemKind,
    classify_regime,
    hypothesis_h_holds,
    larger_quadratic_root_k0,
    reaction_jacobian,
    reaction_rhs,
    require_constant,
    sample_coefficient,
    sample_coefficients,
)
from dispersal_lab.dynamics import SolverOptions, constant_state, integrate_to_steady
from dispersal_lab.spectral import switching_problem


@pytest.fixture
def grid():
    return build_grid(0, 1, 101)


def make_params(m_spec, alpha=1.0, beta=1.0, b=1.0, c=1.0, d1=0.1, d2=1.0):
    return ModelParams(
        d1=d1,
        d2=d2,
        alpha=CoefficientSpec.constant(alpha) if np.isscalar(alpha) else alpha,
        beta=CoefficientSpec.constant(beta) if np.isscalar(beta) else beta,
        m=m_spec,
        b=b,
        c=c,
    )


def test_sample_constant(grid):
    field = sample_coefficient(CoefficientSpec.constant(2.0), grid)
    assert np.all(field == 2.0)


def test_sample_cosine_profile(grid):
    field = sample_coefficient(CoefficientSpec.cosine(1.0, 0.5, 1), grid)
    assert np.allclose(field, 1.0 + 0.5 * np.cos(np.pi * grid.nodes))
    zero_mean = sample_coefficient(CoefficientSpec.cosine(0.0, 1.0, 2), grid)
    assert abs(integrate(grid, zero_mean)) < 1e-10


def test_sample_length_mismatch(grid):
    with pytest.raises(ValueError):
        sample_coefficient(CoefficientSpec.from_samples(np.ones(7)), grid)


@pytest.mark.parametrize("make", [
    lambda: CoefficientSpec.constant(np.nan),
    lambda: CoefficientSpec.cosine(np.inf, 0.3),
    lambda: CoefficientSpec.cosine(0.4, 0.3, np.inf),
    lambda: CoefficientSpec.cosine(0.4, 0.3, np.nan),
    lambda: CoefficientSpec.from_samples([1.0, np.inf]),
    lambda: CoefficientSpec.from_samples([10**400]),
])
def test_coefficient_spec_rejects_non_finite_numbers(make):
    with pytest.raises(ValueError):
        make()


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(CoefficientSpec.constant(1.0), d1=1.0, d2=0.5)
    with pytest.raises(ValueError):
        ModelParams(
            d1=0.1, d2=1.0, d3=-1.0,
            alpha=CoefficientSpec.constant(1.0),
            beta=CoefficientSpec.constant(1.0),
            m=CoefficientSpec.constant(1.0),
        )
    base = make_params(CoefficientSpec.constant(1.0))
    for non_finite in (dict(d2=np.inf), dict(d3=np.inf), dict(b=np.nan), dict(c=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(base, **non_finite)


@pytest.mark.parametrize(
    "kind",
    [SystemKind.TWO_SPECIES_GENERAL, SystemKind.SUBMODEL, SystemKind.LOGISTIC,
     SystemKind.THREE_COMPONENT],
)
def test_origin_is_equilibrium(grid, kind):
    params = make_params(CoefficientSpec.constant(1.0))
    coeffs = sample_coefficients(params, grid)
    zero = np.zeros((kind.n_components, grid.n))
    assert np.max(np.abs(reaction_rhs(kind, params, coeffs, zero))) == 0.0


def reaction_at_node(kind, params, coeffs, values, node):
    """Scalar reaction terms at one node, written out per system: the oracle for reaction_rhs."""
    al, be, m = coeffs.alpha[node], coeffs.beta[node], coeffs.m[node]
    if kind is SystemKind.LOGISTIC:
        (w,) = values
        return (w * (m - w),)
    if kind is SystemKind.TWO_SPECIES_GENERAL:
        u, v = values
        return ((m - al - u) * u + (be - params.b * u) * v,
                (m - be - v) * v + (al - params.c * v) * u)
    if kind is SystemKind.SUBMODEL:
        u, v = values
        shared = m - u - v
        return (-al * u + be * v + u * shared, al * u - be * v + v * shared)
    u, v, w = values
    shared = m - u - v - w
    return (-al * u + be * v + u * shared, al * u - be * v + v * shared, w * shared)


def test_logistic_carrying_capacity(grid):
    params = make_params(CoefficientSpec.constant(1.0))
    coeffs = sample_coefficients(params, grid)
    value = reaction_rhs(SystemKind.LOGISTIC, params, coeffs, np.ones((1, grid.n)))
    assert np.all(value == 0.0)


def test_two_species_hand_value(grid):
    # (1 - 0.2 - 0.5)*0.5 + (0.2 - 0.5)*0.5 = 0
    params = make_params(CoefficientSpec.constant(1.0), alpha=0.2, beta=0.2)
    coeffs = sample_coefficients(params, grid)
    g = reaction_rhs(SystemKind.TWO_SPECIES_GENERAL, params, coeffs, np.full((2, grid.n), 0.5))
    assert np.max(np.abs(g)) < 1e-15


def test_reaction_terms_match_vectorized(grid):
    params = make_params(CoefficientSpec.cosine(0.4, 0.3, 1), alpha=0.7, beta=1.2, b=0.8, c=1.1)
    coeffs = sample_coefficients(params, grid)
    rng = np.random.default_rng(5)
    for kind in SystemKind:
        comps = rng.uniform(0, 1, size=(kind.n_components, grid.n))
        full = reaction_rhs(kind, params, coeffs, comps)
        for node in (0, 17, grid.n - 1):
            point = reaction_at_node(kind, params, coeffs, comps[:, node], node)
            assert np.allclose(point, full[:, node], atol=1e-14)


def varying_rate_params(b=1.0, c=1.0):
    """Growth and switching rates that all vary in space."""
    return make_params(CoefficientSpec.cosine(0.4, 0.3, 1), alpha=CoefficientSpec.cosine(0.7, 0.3, 2),
                       beta=CoefficientSpec.cosine(1.2, 0.4, 1), b=b, c=c)


@pytest.mark.parametrize(
    "kind", [SystemKind.LOGISTIC, SystemKind.SUBMODEL, SystemKind.TWO_SPECIES_GENERAL]
)
def test_reaction_jacobian_matches_central_differences(kind):
    grid = build_grid(0, 1, 41)
    params = varying_rate_params(b=0.6, c=1.7)
    coeffs = sample_coefficients(params, grid)
    comps = np.random.default_rng(11).uniform(0.05, 2.0, (kind.n_components, grid.n))
    jac = reaction_jacobian(kind, params, coeffs, comps)
    assert jac.shape == (kind.n_components, kind.n_components, grid.n)
    step = 1e-5
    for j in range(kind.n_components):
        shift = np.zeros_like(comps)
        shift[j] = step  # the reaction is local, so one shift per component covers every node
        diff = (reaction_rhs(kind, params, coeffs, comps + shift)
                - reaction_rhs(kind, params, coeffs, comps - shift)) / (2.0 * step)
        assert np.max(np.abs(jac[:, j] - diff)) <= 1e-8


def test_pair_jacobian_at_zero_is_the_persistence_coupling():
    """The persistence eigenproblem is the pair's linearization at the trivial state."""
    grid = build_grid(0, 1, 41)
    params = varying_rate_params()
    coeffs = sample_coefficients(params, grid)
    jac = reaction_jacobian(SystemKind.SUBMODEL, params, coeffs, np.zeros((2, grid.n)))
    problem = switching_problem(grid, params.d1, params.d2, coeffs.alpha, coeffs.beta, coeffs.m)
    assert jac.tobytes() == problem.coupling.tobytes()
    with pytest.raises(ValueError):
        reaction_jacobian(SystemKind.THREE_COMPONENT, params, coeffs, np.zeros((3, grid.n)))


def test_component_count_mismatch(grid):
    params = make_params(CoefficientSpec.constant(1.0))
    coeffs = sample_coefficients(params, grid)
    with pytest.raises(ValueError):
        reaction_rhs(SystemKind.LOGISTIC, params, coeffs, np.zeros((2, grid.n)))
    with pytest.raises(ValueError):
        reaction_rhs(SystemKind.SUBMODEL, params, coeffs, np.zeros((3, grid.n)))


def test_block_coefficients_check_every_run(grid):
    """A (P, n) block is valid only if each run's row is valid on its own."""
    ones, zeros = np.ones(grid.n), np.zeros(grid.n)
    good = np.stack([ones, ones])
    Coefficients(grid=grid, alpha=good.copy(), beta=good.copy(), m=good.copy())
    for field, message in (("alpha", "positive somewhere"), ("beta", "positive somewhere"),
                           ("m", "growth rate")):
        bad = dict(alpha=good.copy(), beta=good.copy(), m=good.copy())
        bad[field] = np.stack([ones, zeros])  # the other run is positive everywhere
        with pytest.raises(ValueError, match=message):
            Coefficients(grid=grid, **bad)
    with pytest.raises(ValueError, match="nonnegative"):
        Coefficients(grid=grid, alpha=np.stack([ones, ones - 1.5 * (grid.nodes < 0.5)]),
                     beta=good.copy(), m=good.copy())
    with pytest.raises(ValueError, match="does not match grid size"):
        Coefficients(grid=grid, alpha=np.ones((2, grid.n + 1)), beta=good.copy(), m=good.copy())
    with pytest.raises(ValueError, match="differ in shape"):
        Coefficients(grid=grid, alpha=ones.copy(), beta=good.copy(), m=good.copy())
    for bad_value in (np.nan, np.inf):
        m = good.copy()
        m[1, 3] = bad_value
        with pytest.raises(ValueError, match="must be finite"):
            Coefficients(grid=grid, alpha=good.copy(), beta=good.copy(), m=m)


def test_k0_symmetric_unit_case():
    assert abs(larger_quadratic_root_k0(1.0, 1.0) - 2.0) < 1e-14


def test_k0_satisfies_defining_equation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        b, c = rng.uniform(0.2, 3.0, size=2)
        k0 = larger_quadratic_root_k0(b, c)
        assert abs((b * k0 - c) * (c * k0 - b) - 1.0) < 1e-12 * max(1.0, b * c * k0**2)
        assert k0 > max(b / c, c / b)


def test_competitive_regime_example(grid):
    params = make_params(CoefficientSpec.constant(1.0), alpha=0.05, beta=0.05, b=0.5, c=0.5)
    report = classify_regime(params, grid)
    assert report.k == 1.0 and report.k1 == 1.0
    assert report.in_s1
    rect = report.competitive_rectangle
    assert rect is not None
    assert np.allclose(rect.lower, (0.1, 0.1))
    assert np.allclose(rect.upper, (1.0, 1.0))


def test_cooperative_regime_example(grid):
    params = make_params(CoefficientSpec.constant(1.0), alpha=2.0, beta=2.0)
    report = classify_regime(params, grid)
    assert report.in_s2
    rect = report.cooperative_rectangle
    assert rect is not None
    assert np.allclose(rect.upper, (2.0, 2.0))


def test_constant_rates_give_unit_ratios(grid):
    params = make_params(CoefficientSpec.constant(1.0), alpha=0.3, beta=0.8)
    report = classify_regime(params, grid)
    assert report.k == 1.0 and report.k1 == 1.0
    varying = make_params(
        CoefficientSpec.constant(1.0),
        alpha=CoefficientSpec.cosine(1.0, 0.4, 1),
        beta=0.8,
    )
    report = classify_regime(varying, grid)
    assert report.k < 1.0 < report.k1


def test_s1_requires_positive_min_growth(grid):
    params = make_params(CoefficientSpec.cosine(0.0, 1.0, 2), alpha=0.05, beta=0.05, b=0.5, c=0.5)
    report = classify_regime(params, grid)
    assert not report.in_s1 and report.competitive_rectangle is None


def test_s1_membership_implies_edge_inequalities(grid):
    params = make_params(CoefficientSpec.constant(1.0), alpha=0.05, beta=0.05, b=0.5, c=0.5)
    coeffs = sample_coefficients(params, grid)
    report = classify_regime(params, grid)
    assert report.in_s1
    m_hi = float(np.max(coeffs.m))
    b_hi = float(np.max(coeffs.beta))
    a_hi = float(np.max(coeffs.alpha))
    for v in np.linspace(0.0, m_hi, 7):
        g1_top = (coeffs.m - coeffs.alpha - m_hi) * m_hi + (coeffs.beta - params.b * m_hi) * v
        assert np.max(g1_top) < 0
    for v in np.linspace(a_hi / params.c, m_hi, 7):
        lower_u = b_hi / params.b
        g1_low = (coeffs.m - coeffs.alpha - lower_u) * lower_u + (
            coeffs.beta - params.b * lower_u
        ) * v
        assert np.min(g1_low) > 0


def test_trajectory_settles_inside_competitive_rectangle(grid):
    params = make_params(CoefficientSpec.constant(1.0), alpha=0.05, beta=0.05, b=0.5, c=0.5)
    rect = classify_regime(params, grid).competitive_rectangle
    start = constant_state(SystemKind.TWO_SPECIES_GENERAL, grid, [0.5, 0.5])
    result = integrate_to_steady(
        SystemKind.TWO_SPECIES_GENERAL, params, grid, start,
        SolverOptions(dt=0.02, t_max=200.0, sample_every=5.0, store_fields=False),
    )
    u, v = result.state.components
    assert np.max(u) <= rect.upper[0] + 1e-9 and np.max(v) <= rect.upper[1] + 1e-9
    assert np.min(u) > rect.lower[0] and np.min(v) > rect.lower[1]


def test_hypothesis_h(grid):
    scenario = make_params(CoefficientSpec.cosine(0.4, 0.3, 1))
    assert hypothesis_h_holds(sample_coefficients(scenario, grid))
    constant = make_params(CoefficientSpec.constant(0.5))
    assert not hypothesis_h_holds(sample_coefficients(constant, grid))
    big_m = make_params(CoefficientSpec.cosine(2.0, 0.5, 1))
    assert not hypothesis_h_holds(sample_coefficients(big_m, grid))
    negative_mean = make_params(CoefficientSpec.cosine(-0.2, 0.5, 2))
    assert not hypothesis_h_holds(sample_coefficients(negative_mean, grid))


def test_require_constant():
    assert require_constant(CoefficientSpec.constant(2.5), "alpha") == 2.5
    with pytest.raises(HypothesisError):
        require_constant(CoefficientSpec.cosine(1.0, 0.5, 1), "alpha")
