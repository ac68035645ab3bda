"""1-D interval mesh, Neumann Laplacian stencil, and trapezoid quadrature.

Everything downstream (eigenvalue solves, time stepping, variational
identities) is built on the three objects here: a uniform grid with
trapezoid weights, the second-difference Laplacian closed with mirror
(ghost-node) rows at the boundary, and trapezoid quadrature.  The mirror
closure is chosen so that the operator kills constants and is
self-adjoint under the trapezoid inner product, which makes the discrete
integration-by-parts identity exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np


def finite_number(value, convert: Callable = float):
    """convert(value), raising ValueError unless the result is finite.  TypeError and
    ValueError keep their messages; json reads NaN, Infinity and 1e400 (as inf), so a
    non-finite result, or an OverflowError (int() of an infinity, float() of a huge int),
    raises ValueError.  So do a boolean, or a list holding one, and for convert=int a
    float that is not integral, which int() would truncate."""
    if any(isinstance(x, bool) for x in (value if isinstance(value, list) else [value])):
        raise ValueError(f"booleans are not numbers: {value!r}")
    try:
        number = convert(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc
    if convert is int and isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    if not (isinstance(number, int) or np.isfinite(number).all()):
        raise ValueError(f"{value!r} is not a finite number")
    return number


float_array = partial(np.asarray, dtype=float)  # a list of numbers, converted as one array


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [a, b] with trapezoid quadrature weights.

    Grids compare and hash on (a, b, n); the other fields follow from them.
    """

    a: float
    b: float
    n: int
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, compare=False)
    quadrature_weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got {self.n}")
        if not self.a < self.b:
            raise ValueError(f"invalid interval: a={self.a} must be < b={self.b}")
        if not np.isfinite([self.a, self.b, self.n]).all():
            raise ValueError(f"grid a, b, n must be finite, got a={self.a}, b={self.b}, n={self.n}")
        h = (self.b - self.a) / (self.n - 1)
        nodes = np.linspace(self.a, self.b, self.n)
        weights = np.full(self.n, h)
        weights[0] = weights[-1] = 0.5 * h
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quadrature_weights", weights)
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @cached_property
    def laplacian(self) -> NeumannLaplacian:
        """The Neumann Laplacian of this grid, assembled on first use and then shared."""
        return assemble_neumann_laplacian(self)

    def check_field(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n,):
            raise ValueError(
                f"field shape {values.shape} does not match grid size ({self.n},)"
            )
        return values


def build_grid(a: float, b: float, n: int) -> Grid:
    """Uniform grid on [a, b] with n nodes (n >= 3)."""
    return Grid(finite_number(a), finite_number(b), finite_number(n, int))


@dataclass(frozen=True)
class NeumannLaplacian:
    """Second-difference Laplacian with mirror (no-flux) boundary rows.

    Stored as three diagonals.  Row i of the dense matrix is
    [lower[i-1], diag[i], upper[i]] / h^2 scaling already applied; the
    boundary rows are [-2, 2]/h^2 and [2, -2]/h^2 so every row sums to
    zero and the matrix is self-adjoint in the trapezoid inner product.
    """

    grid: Grid
    lower: np.ndarray  # entry (i, i-1), length n-1
    diag: np.ndarray  # entry (i, i), length n
    upper: np.ndarray  # entry (i, i+1), length n-1

    def apply(self, f: np.ndarray) -> np.ndarray:
        """L f for a field f, or for each field of a stack (..., n)."""
        f = np.asarray(f, dtype=float)
        if f.ndim == 0 or f.shape[-1] != self.grid.n:
            raise ValueError(f"field shape {f.shape} does not match grid size ({self.grid.n},)")
        out = self.diag * f
        out[..., :-1] += self.upper * f[..., 1:]
        out[..., 1:] += self.lower * f[..., :-1]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.grid.n
        dense = np.zeros((n, n))
        dense[np.arange(n), np.arange(n)] = self.diag
        dense[np.arange(n - 1), np.arange(1, n)] = self.upper
        dense[np.arange(1, n), np.arange(n - 1)] = self.lower
        return dense


def assemble_neumann_laplacian(grid: Grid) -> NeumannLaplacian:
    """Central second differences, ghost-node closure at both ends."""
    n, h2 = grid.n, grid.h * grid.h
    diag = np.full(n, -2.0 / h2)
    upper = np.full(n - 1, 1.0 / h2)
    lower = np.full(n - 1, 1.0 / h2)
    # Mirror closure: ghost value equals the first interior neighbour.
    upper[0] = 2.0 / h2
    lower[-1] = 2.0 / h2
    for band in (lower, diag, upper):  # read-only, so one grid's operator can be shared
        band.setflags(write=False)
    return NeumannLaplacian(grid, lower, diag, upper)


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Trapezoid quadrature of f over the interval."""
    f = grid.check_field(f)
    return float(grid.quadrature_weights @ f)

