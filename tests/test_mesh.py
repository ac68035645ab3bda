import numpy as np
import pytest

from dispersal_lab.mesh import (
    assemble_neumann_laplacian,
    build_grid,
    integrate,
)


def test_grid_five_nodes():
    g = build_grid(0, 1, 5)
    assert np.allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1])
    assert np.allclose(g.quadrature_weights, [0.125, 0.25, 0.25, 0.25, 0.125])


@pytest.mark.parametrize("n", [3, 11, 201])
def test_weights_sum_to_length(n):
    g = build_grid(0, 1, n)
    assert abs(np.sum(g.quadrature_weights) - 1.0) < 1e-14


def test_spacing():
    g = build_grid(-1, 2, 301)
    assert abs(g.h - 0.01) < 1e-15


@pytest.mark.parametrize("a,b,n", [(0, 1, 2), (0, 1, 1), (1, 1, 5), (2, 1, 5)])
def test_grid_rejects_bad_arguments(a, b, n):
    with pytest.raises(ValueError):
        build_grid(a, b, n)


@pytest.mark.parametrize("n", [3, 11, 201])
def test_laplacian_kills_constants(n):
    g = build_grid(0, 1, n)
    lap = assemble_neumann_laplacian(g)
    assert np.max(np.abs(lap.apply(np.ones(n)))) == 0.0


def test_laplacian_second_order_on_cosine():
    errs = {}
    for n in (201, 401):
        g = build_grid(0, 1, n)
        lap = assemble_neumann_laplacian(g)
        f = np.cos(np.pi * g.nodes)
        errs[n] = np.max(np.abs(lap.apply(f) + np.pi**2 * f))
    assert errs[201] / errs[401] >= 3.5


def test_laplacian_spectrum_matches_neumann_modes():
    g = build_grid(0, 1, 201)
    dense = assemble_neumann_laplacian(g).to_dense()
    eigs = np.sort(np.linalg.eigvals(-dense).real)
    for k in (0, 1, 2):
        target = (k * np.pi) ** 2
        assert abs(eigs[k] - target) <= 1e-2 * (1 + target)


def test_laplacian_self_adjoint_in_weighted_product():
    g = build_grid(0, 1, 101)
    lap = assemble_neumann_laplacian(g)
    rng = np.random.default_rng(3)
    f, h = rng.normal(size=g.n), rng.normal(size=g.n)
    lhs = integrate(g, lap.apply(f) * h)
    rhs = integrate(g, f * lap.apply(h))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_integrate_basics():
    g = build_grid(0, 1, 201)
    assert abs(integrate(g, np.ones(g.n)) - 1.0) < 1e-14
    assert abs(integrate(g, np.cos(2 * np.pi * g.nodes))) < 1e-10
    g11 = build_grid(0, 1, 11)
    assert abs(integrate(g11, g11.nodes) - 0.5) < 1e-14


def test_integrate_rejects_mismatched_field():
    g = build_grid(0, 1, 11)
    with pytest.raises(ValueError):
        integrate(g, np.ones(10))


def dirichlet_energy(g, f):
    """Integral of |grad f|^2 from the per-cell differences."""
    jumps = np.diff(f)
    return float(np.sum(jumps * jumps) / g.h)


def test_dirichlet_energy_basics():
    # The pairing -<f, L f> gives the energies of a constant (0) and of x (1).
    g = build_grid(0, 1, 51)
    lap = assemble_neumann_laplacian(g)
    assert dirichlet_energy(g, np.ones(g.n)) == 0.0 == -integrate(g, lap.apply(np.ones(g.n)))
    assert abs(dirichlet_energy(g, g.nodes) - 1.0) < 1e-10
    assert abs(-integrate(g, g.nodes * lap.apply(g.nodes)) - 1.0) < 1e-10


def test_dirichlet_energy_integration_by_parts():
    g = build_grid(0, 1, 173)
    lap = assemble_neumann_laplacian(g)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.normal(size=g.n)
        energy = dirichlet_energy(g, f)
        pairing = -integrate(g, f * lap.apply(f))
        assert abs(energy - pairing) <= 1e-10 * max(energy, 1.0)


def test_grid_equality_and_hash_use_a_b_n():
    g = build_grid(0, 1, 11)
    assert g == build_grid(0.0, 1.0, 11)
    assert hash(g) == hash(build_grid(0.0, 1.0, 11))
    assert g != build_grid(0, 1, 12)
    assert g != build_grid(0, 2, 11)
    assert g in {build_grid(0, 1, 11)}
    assert build_grid(0, 1, 12) not in {g}
    assert len({g, build_grid(0, 1, 11), build_grid(0, 1, 21)}) == 2


def test_grid_laplacian_is_built_once_and_read_only():
    g = build_grid(0, 1, 11)
    lap = g.laplacian
    assert g.laplacian is lap
    fresh = assemble_neumann_laplacian(build_grid(0, 1, 11))
    for shared, new in ((lap.lower, fresh.lower), (lap.diag, fresh.diag), (lap.upper, fresh.upper)):
        assert not shared.flags.writeable
        assert shared.tobytes() == new.tobytes()
    with pytest.raises(ValueError):
        lap.diag[0] = 0.0
