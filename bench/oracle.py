"""Oracles computed apart from the lab.

Nothing here imports ``dispersal_lab``.  The benchmark assembles its own
mirror-closure stencil (boundary rows [-2, 2]/h^2 and [2, -2]/h^2),
finds steady states by its own Newton iteration on the discrete
steady-state equations, and takes rightmost eigenvalues from a dense
``numpy.linalg.eigvals``.  Operators use a block layout (all of u, then
all of v), not the lab's node-interleaved one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

EPS = np.finfo(float).eps


def coefficient(spec: dict, n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    """A config coefficient ('constant' or 'cosine_profile') at the n nodes."""
    x = np.linspace(a, b, n)
    if spec["kind"] == "constant":
        return np.full(n, float(spec["value"]))
    if spec["kind"] == "cosine_profile":
        phase = spec.get("frequency", 1) * np.pi * (x - a) / (b - a)
        return spec["mean"] + spec["amplitude"] * np.cos(phase)
    raise ValueError(f"oracle does not know coefficient kind {spec['kind']!r}")


def laplacian(n: int, a: float = 0.0, b: float = 1.0) -> sp.csr_matrix:
    """Second differences with mirror closure at both ends."""
    h = (b - a) / (n - 1)
    lower = np.ones(n - 1)
    upper = np.ones(n - 1)
    upper[0] = 2.0
    lower[-1] = 2.0
    return (sp.diags([lower, np.full(n, -2.0), upper], [-1, 0, 1]) / (h * h)).tocsr()


def scalar_operator(lap: sp.spmatrix, d: float, potential: np.ndarray) -> sp.csr_matrix:
    return (d * lap + sp.diags(potential)).tocsr()


def pair_operator(
    lap: sp.spmatrix, d1: float, d2: float, alpha: np.ndarray, beta: np.ndarray, growth: np.ndarray
) -> sp.csr_matrix:
    """[[d1 L + growth - alpha, beta], [alpha, d2 L + growth - beta]] in block layout."""
    return sp.bmat(
        [
            [d1 * lap + sp.diags(growth - alpha), sp.diags(beta)],
            [sp.diags(alpha), d2 * lap + sp.diags(growth - beta)],
        ]
    ).tocsr()


def weighted_adjoint(op: sp.spmatrix, n: int, a: float = 0.0, b: float = 1.0) -> sp.csr_matrix:
    """W^-1 A^T W: the adjoint under the trapezoid inner product, per block."""
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w = np.tile(w, op.shape[0] // n)
    return (sp.diags(1.0 / w) @ op.T @ sp.diags(w)).tocsr()


def rightmost(op: sp.spmatrix) -> float:
    """Largest real part among the eigenvalues of the dense matrix.

    For an irreducible matrix with nonnegative off-diagonal entries this
    is the principal (Perron) eigenvalue, which is real.
    """
    return float(np.max(np.linalg.eigvals(op.toarray()).real))


def inf_norm(op: sp.spmatrix) -> float:
    return float(abs(op).sum(axis=1).max())


def eigenpair_defects(op: sp.spmatrix, lam: float, phi: np.ndarray) -> dict:
    """Residual, positivity and Collatz-Wielandt enclosure of a claimed eigenpair.

    phi is the stacked eigenfunction (block layout).  For a positive phi
    the principal eigenvalue lies in [min(A phi / phi), max(A phi / phi)],
    so a lambda outside that interval (beyond rounding) is wrong even
    when the residual looks small.
    """
    a_phi = op @ phi
    scale = float(np.max(np.abs(phi)))
    rounding = 64.0 * EPS * inf_norm(op) * scale
    out = {
        "residual": float(np.max(np.abs(a_phi - lam * phi))),
        "rounding": rounding,
        "min_phi": float(np.min(phi)),
    }
    if out["min_phi"] > 0:
        ratios = a_phi / phi
        slack = rounding / out["min_phi"]
        out["cw_gap"] = max(float(np.min(ratios)) - slack - lam, lam - float(np.max(ratios)) - slack, 0.0)
    return out


def _newton(residual, jacobian, x0: np.ndarray, max_iter: int = 300) -> np.ndarray:
    """Newton with pseudo-transient continuation, from a positive start.

    Each step solves (I/tau - J) dx = F; tau grows as the residual falls
    (switched evolution relaxation), so early steps follow the flow to
    the attracting state and late steps are plain Newton steps.
    """
    x = x0.copy()
    f = residual(x)
    f_norm = float(np.max(np.abs(f)))
    tau = 1.0
    eye = sp.identity(len(x), format="csc")
    for _ in range(max_iter):
        dx = spsolve((eye / tau - jacobian(x)).tocsc(), f)
        x = x + dx
        f = residual(x)
        new_norm = float(np.max(np.abs(f)))
        if tau >= 1e8 and float(np.max(np.abs(dx))) <= 1e-12 * max(1.0, float(np.max(np.abs(x)))):
            return x
        tau = min(1e14, tau * max(2.0, f_norm / max(new_norm, 1e-300)))
        f_norm = new_norm
    raise RuntimeError("oracle Newton iteration did not converge")


def logistic_state(lap: sp.spmatrix, d: float, m: np.ndarray) -> np.ndarray:
    """Positive solution of d L w + w (m - w) = 0."""
    dl = (d * lap).tocsr()
    w = _newton(
        lambda w: dl @ w + w * (m - w),
        lambda w: dl + sp.diags(m - 2.0 * w),
        np.full(len(m), max(0.5 * float(np.max(m)), 1e-3)),
    )
    if np.min(w) <= 0:
        raise RuntimeError("oracle logistic state is not positive")
    return w


def pair_state(
    lap: sp.spmatrix, d1: float, d2: float, alpha: np.ndarray, beta: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positive solution (u, v) of the shared-density switching pair at steady state."""
    n = len(m)
    l1, l2 = (d1 * lap).tocsr(), (d2 * lap).tocsr()

    def residual(x):
        u, v = x[:n], x[n:]
        s = m - u - v
        return np.concatenate([l1 @ u - alpha * u + beta * v + u * s,
                               l2 @ v + alpha * u - beta * v + v * s])

    def jacobian(x):
        u, v = x[:n], x[n:]
        s = m - u - v
        return sp.bmat(
            [
                [l1 + sp.diags(s - alpha - u), sp.diags(beta - u)],
                [sp.diags(alpha - v), l2 + sp.diags(s - beta - v)],
            ]
        )

    start = np.concatenate([np.full(n, 0.25 * np.max(beta)), np.full(n, 0.25 * np.max(alpha))])
    x = _newton(residual, jacobian, start)
    if np.min(x) <= 0:
        raise RuntimeError("oracle pair state is not positive")
    return x[:n], x[n:]
