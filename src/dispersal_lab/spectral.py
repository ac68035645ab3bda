"""Principal eigenvalues of cooperative elliptic operators on the grid.

The discrete operators are blocks d_i * L + multiplication couplings,
assembled in a node-interleaved banded layout that dynamics also uses for
its Newton steps.  An EigenProblem requires nonnegative off-diagonal
couplings (cooperativity): then a shifted resolvent (sigma*I - A)^{-1}
with sigma above the principal eigenvalue is an inverse M-matrix, hence
entrywise positive, and power iteration on it converges to the unique
positive eigenpair.  Shifts are updated from Collatz-Wielandt / residual
information, so convergence is superlinear in practice.

The same iteration has a sign mode for lattice scans: started from the
iterate of the previous lattice point, it stops as soon as the
Collatz-Wielandt enclosure [min (Av)_i/v_i, max (Av)_i/v_i] of its
iterate clears 0 by more than the rounding of A v.  scan_roots reads
each lattice point's sign that way and solves to convergence only
where a value is used, so its roots are those of a scan that solves
every point.

This module is also the lab's one banded-solve layer, and the only one
that binds LAPACK: ``solve_band`` makes the one-shot ``gtsv``/``gbsv``
solves of the eigensolver and of dynamics' Newton steps, and
``DiffusionSolver`` the factor-once ``pttrf``/``pttrs`` solves of the
IMEX diffusion step.  The four routines are called through ``ctypes``
from the OpenBLAS that numpy's wheel bundles (``numpy.libs/``) and
``import numpy`` has already loaded; it exports them, with 64-bit
integer arguments, as ``scipy_d<routine>_64_``.  So the lab runs on
numpy alone and loads no second BLAS.  The binding hands raw
pointers to LAPACK, so it checks what a wrapper would (float64, memory
order, shapes) and raises ValueError before any call it cannot make
safely.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .mesh import Grid, NeumannLaplacian, integrate
from .model import HypothesisError

EIGEN_TOL = 1e-10  # eigenvalue stabilization, and the least residual floor
EIGEN_MAX_ITER = 200
EIGEN_STALL_ITER = 64  # solves within 4x the residual floor, up to the cap, for a stalled stop
ADJOINT_MATCH_TOL = 1e-8  # relative primal/adjoint eigenvalue agreement
RESIDUAL_TOL = 1e-9  # |curve| at which bisect_curve accepts a root
BISECT_MAX_ITER = 200  # curve evaluations bisect_curve may make
MAX_ROOTS = 8  # per log-lattice scan
D_BRACKET = (1e-3, 1e3)  # diffusion rates scanned for mu*
GROUND_STATE_TOL = 1e-6  # relative, for lambda_prime_at_zero's checks of the mu = 0 state
SIGN_ROUNDING = 8.0 * np.finfo(float).eps  # per band term, in the rounding bound of a sign


class CooperativityError(ValueError):
    """Off-diagonal coupling is negative or the coupling graph is reducible."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


@dataclass(frozen=True)
class EigenProblem:
    """Diffusion rates plus a pointwise coupling-matrix field.

    coupling[i, j, :] multiplies component j in the equation for
    component i.  K = 1 gives the scalar operator d*L + e(x).
    """

    grid: Grid
    diffusions: tuple[float, ...]
    coupling: np.ndarray  # shape (K, K, n)

    def __post_init__(self) -> None:
        K = len(self.diffusions)
        if K not in (1, 2):
            raise ValueError(f"supported component counts are 1 and 2, got {K}")
        if any(d <= 0 for d in self.diffusions):
            raise ValueError(f"diffusion rates must be positive, got {self.diffusions}")
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (K, K, self.grid.n):
            raise ValueError(
                f"coupling shape {coupling.shape} does not match ({K}, {K}, {self.grid.n})"
            )
        object.__setattr__(self, "coupling", coupling)
        for i in range(K):
            for j in range(K):
                if i != j and coupling[i, j].min() < 0:
                    raise CooperativityError(
                        f"coupling[{i},{j}] is negative somewhere "
                        f"(min {coupling[i, j].min():.3e}); operator is not cooperative"
                    )
        if K == 2 and (coupling[0, 1].max() <= 0 or coupling[1, 0].max() <= 0):
            raise CooperativityError(
                "both off-diagonal couplings must be positive somewhere (irreducibility)"
            )

    @property
    def n_components(self) -> int:
        return len(self.diffusions)

    def adjoint(self) -> "EigenProblem":
        """Adjoint under the quadrature inner product: couplings transposed pointwise."""
        return EigenProblem(
            grid=self.grid,
            diffusions=self.diffusions,
            coupling=np.swapaxes(self.coupling, 0, 1).copy(),
        )


def scalar_problem(grid: Grid, d: float, potential: np.ndarray) -> EigenProblem:
    potential = grid.check_field(potential)
    return EigenProblem(grid=grid, diffusions=(float(d),), coupling=potential[None, None, :])


def switching_problem(
    grid: Grid,
    d1: float,
    d2: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    growth: np.ndarray,
) -> EigenProblem:
    """Coupled problem [[growth - alpha, beta], [alpha, growth - beta]].

    The growth field is m, mu*m, or m - w_star depending on which
    linearization is being assembled.
    """
    alpha = grid.check_field(alpha)
    beta = grid.check_field(beta)
    growth = grid.check_field(growth)
    coupling = np.empty((2, 2, grid.n))
    np.subtract(growth, alpha, out=coupling[0, 0])
    coupling[0, 1], coupling[1, 0] = beta, alpha
    np.subtract(growth, beta, out=coupling[1, 1])
    return EigenProblem(grid=grid, diffusions=(float(d1), float(d2)), coupling=coupling)


class BandedOperator:
    """Square matrix in LAPACK band storage: ab[u + i - j, j] = A[i, j], u the half-bandwidth."""

    def __init__(self, ab: np.ndarray):
        self.ab = ab
        self.halfband, self.size = (ab.shape[0] - 1) // 2, ab.shape[1]
        # (rows of A x, band row of ab, columns) of each off-diagonal band, offsets
        # +-u down to +-1.
        u, size = self.halfband, self.size
        self._terms = []
        for k in range(u, 0, -1):
            self._terms.append((slice(0, size - k), u - k, slice(k, None)))
            self._terms.append((slice(k, None), u + k, slice(0, size - k)))

    def _row_sums(self, products: np.ndarray) -> np.ndarray:
        """Each row's sum of the band-stored products: the main band plus 0.0, then
        each off-diagonal band added in turn (so a row of -0.0 products gives +0.0)."""
        y = products[self.halfband] + 0.0
        for rows, band, cols in self._terms:
            y[rows] += products[band, cols]
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x: every product ab[r, j] * x[j] in one multiply, then their row sums.

        The sums have the bits of adding each band in turn to a zero
        accumulator: the main band's p + 0.0 is 0.0 + p bit for bit, -0.0
        included, and the other bands follow in the same order."""
        return self._row_sums(self.ab * x)

    def inf_norm(self) -> float:
        """max_i sum_j |A[i, j]|: the row sums of |ab|, in matvec's order, with the bits
        of the matvec of the operator |A| on a ones vector (|a| * 1.0 is |a|)."""
        return float(self._row_sums(np.abs(self.ab)).max())

    def to_dense(self) -> np.ndarray:
        return np.column_stack([self.matvec(e) for e in np.eye(self.size)])

    def shifted_bands(self, sigma: float) -> np.ndarray:
        """A new band storage of sigma*I - A, in this layout."""
        ab = -self.ab
        ab[self.halfband] += sigma
        return ab

    def solve_shifted(self, sigma: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (sigma*I - A) x = rhs with one LAPACK call (see solve_band); rhs is kept."""
        return solve_band(self.shifted_bands(sigma), rhs)


_OPENBLAS = "libscipy_openblas64_*.so"  # in numpy.libs/ of numpy's Linux wheels


def _openblas_lapack():
    """The float64 gtsv, gbsv, pttrf and pttrs of numpy's bundled OpenBLAS, which
    ``import numpy`` has loaded: loading it again only looks its symbols up."""
    directory = Path(np.__file__).parent.parent / "numpy.libs"
    found = sorted(directory.glob(_OPENBLAS))
    if not found:
        raise ImportError(f"the lab binds LAPACK from numpy's bundled OpenBLAS, and found no "
                          f"{_OPENBLAS} in {directory}", path=str(directory))
    library = ctypes.CDLL(str(found[0]))
    routines = []
    for name in ("gtsv", "gbsv", "pttrf", "pttrs"):
        routine = getattr(library, f"scipy_d{name}_64_")
        # A Fortran subroutine: every argument is a ctypes reference, passed as it is.
        routine.restype = None
        routines.append(routine)
    return routines


_GTSV, _GBSV, _PTTRF, _PTTRS = _openblas_lapack()


@functools.lru_cache(maxsize=None)
def _int(value: int):
    """A reference to value as LAPACK's 64-bit integer, for an argument LAPACK only reads."""
    return ctypes.byref(ctypes.c_int64(value))


def _data(a: np.ndarray, shape: tuple[int, ...]) -> ctypes.c_double:
    """a's first entry as a ctypes object that shares a's memory and keeps a alive, once
    a is a C-contiguous float64 array of this shape."""
    if a.dtype != np.float64 or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"LAPACK needs a C-contiguous float64 array of shape {shape}, "
                         f"got {a.dtype} of shape {a.shape} with strides {a.strides}")
    return ctypes.c_double.from_buffer(a)


def _gtsv(ab: np.ndarray, x: np.ndarray) -> int:
    """LAPACK gtsv on the tridiagonal matrix in the (3, n) band storage ab, in place:
    ab is overwritten, x turns from the right-hand side into the solution.  Returns info.
    Each diagonal is passed as an offset from ab's first entry."""
    info, n = ctypes.c_int64(), ab.shape[-1]
    first, size = _data(ab, (3, n)), _int(n)
    _GTSV(size, _int(1), ctypes.byref(first, 16 * n), ctypes.byref(first, 8 * n),
          ctypes.byref(first, 8), ctypes.byref(_data(x, (n,))), size, ctypes.byref(info))
    return info.value


def _gbsv(work: np.ndarray, u: int, x: np.ndarray) -> int:
    """LAPACK gbsv, in place, on the matrix with u sub- and superdiagonals whose band
    storage fills the last 2u + 1 of the 3u + 1 rows of the Fortran-ordered work, which
    the LU factors overwrite; x turns from the right-hand side into the solution.
    Returns info."""
    info, n = ctypes.c_int64(), work.shape[-1]
    size, band = _int(n), _int(u)
    pivots = (ctypes.c_int64 * n)()
    # work is Fortran-ordered where its transpose is C-ordered.
    _GBSV(size, band, band, _int(1), ctypes.byref(_data(work.T, (n, 3 * u + 1))),
          _int(3 * u + 1), ctypes.byref(pivots), ctypes.byref(_data(x, (n,))), size,
          ctypes.byref(info))
    return info.value


def _pttrf(d: np.ndarray, e: np.ndarray) -> int:
    """LAPACK pttrf, in place: factors the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e as L D L^T, into d and e.  Returns info."""
    info, n = ctypes.c_int64(), d.shape[0]
    _PTTRF(_int(n), ctypes.byref(_data(d, (n,))), ctypes.byref(_data(e, (n - 1,))),
           ctypes.byref(info))
    return info.value


def _bind_pttrs(d: np.ndarray, e: np.ndarray, b: np.ndarray, info: ctypes.c_int64):
    """LAPACK pttrs with its arguments bound once: each call solves L D L^T x = b in place
    in b, from pttrf's factors d and e, and sets info."""
    n = d.shape[0]
    size = _int(n)
    return functools.partial(_PTTRS, size, _int(1), ctypes.byref(_data(d, (n,))),
                             ctypes.byref(_data(e, (n - 1,))), ctypes.byref(_data(b, (n,))),
                             size, ctypes.byref(info))


def solve_band(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs, M square in band storage ab with half-bandwidth u >= 1 on both sides.

    Makes the LAPACK call a general banded solve makes on the same values:
    gtsv on the three diagonals for u = 1, gbsv on ab under u zero rows
    otherwise.  So x has the same bits as that solve's, without its
    finiteness scans: the caller passes a finite C-contiguous float64 ab
    and a finite float64 vector rhs.  ab is overwritten and rhs is kept.
    A singular M raises np.linalg.LinAlgError.
    """
    u = (ab.shape[0] - 1) // 2
    x = rhs.copy()
    if u == 1:
        info = _gtsv(ab, x)
    else:
        work = np.empty((3 * u + 1, ab.shape[1]), order="F")
        work[:u] = 0.0  # the rows of the LU factors' fill-in
        work[u:] = ab
        info = _gbsv(work, u, x)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gtsv/gbsv")
    return x


class DiffusionSolver:
    """Block-diagonal solver for (I - dt*d_i*L) x_i = y_i over a stack of fields.

    Each field i has its own factor: the matrix, symmetrized by the square
    roots of the quadrature weights, is symmetric positive definite and
    tridiagonal, and LAPACK ``pttrf`` factors it once as L D L^T.  The
    factors are laid end to end, in the order of ``diffusions``, so
    ``solve`` handles the whole stack with one ``pttrs`` call; the
    off-diagonal entry between two fields is exactly 0.  That call's
    arguments are bound once, around a right-hand-side buffer the solver
    owns, so a solve reads no data pointer.  A solver is fixed at
    construction: a different set of fields takes a new solver.

    Each factor has D > 0 and an off-diagonal <= 0, which ``__init__``
    checks.  A solve therefore keeps signs: each forward step
    b_i - b_{i-1}*l and each backward step b_i/d_i - b_{i+1}*l adds two
    nonnegative terms, and the scaling by the positive square roots of
    the weights keeps every sign, so a right-hand side >= +0 (no -0.0)
    gives a solution >= +0.
    """

    def __init__(self, grid: Grid, diffusions: Sequence[float], dt: float):
        n, h2 = grid.n, grid.h * grid.h
        sqrt_w = np.sqrt(grid.quadrature_weights)
        diags, offs = [], []
        for d in diffusions:
            r = dt * d / h2
            upper = np.full(n - 1, -r)
            upper[0] = -2.0 * r
            # Symmetrized off-diagonal: S[i, i+1] = sqrt(w_i / w_{i+1}) * A[i, i+1].
            diag, off = np.full(n, 1.0 + 2.0 * r), upper * sqrt_w[:-1] / sqrt_w[1:]
            info = _pttrf(diag, off)
            if info != 0:
                raise ValueError(f"LAPACK pttrf failed with info={info} for d={d}, dt={dt}")
            if not (diag.min() > 0.0 and off.max(initial=0.0) <= 0.0):
                raise ValueError(f"pttrf factor for d={d}, dt={dt} does not keep signs: "
                                 "it needs D > 0 and an off-diagonal <= 0")
            diags.append(diag)
            # The trailing 0 is the off-diagonal entry to the next field of the block.
            offs.append(np.append(off, 0.0))
        self._diag = np.concatenate(diags)
        self._off = np.concatenate(offs)[:-1]
        # The weights' square roots once per field, so that solve scales arrays of one
        # shape instead of broadcasting.
        self._scale = np.tile(sqrt_w, len(diags))
        self._rhs = np.empty_like(self._scale)  # pttrs solves in place here
        self._info = ctypes.c_int64()
        self._pttrs = _bind_pttrs(self._diag, self._off, self._rhs, self._info)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solution for a finite right-hand side whose rows are the solver's fields in
        order, e.g. (K, P, n) (the caller checks finiteness)."""
        if y.size != self._rhs.size:
            raise ValueError(f"right-hand side has {y.size} entries, the solver's fields "
                             f"{self._rhs.size}")
        np.multiply(self._scale, y.reshape(-1), out=self._rhs)
        self._pttrs()
        if self._info.value != 0:
            raise ValueError(f"illegal value in argument {-self._info.value} of LAPACK pttrs")
        return (self._rhs / self._scale).reshape(y.shape)


def assemble_banded(lap: NeumannLaplacian, diffusions: tuple[float, ...],
                    coupling: np.ndarray) -> BandedOperator:
    """Node-interleaved band form of diag(d_i L) + coupling: unknown index = K*node + component.

    coupling has shape (K, K, n), K = 1 or 2, and may have any signs: the
    cooperativity check belongs to EigenProblem, not to the layout.  The
    caller passes the Laplacian, usually the one its grid assembles once and shares.
    """
    K, n = len(diffusions), lap.grid.n
    ab = np.zeros((2 * K + 1, K * n))
    for c, d in enumerate(diffusions):
        ab[K, c::K] = d * lap.diag + coupling[c, c]
        ab[0, K + c::K] = d * lap.upper
        ab[2 * K, c : K * (n - 1) : K] = d * lap.lower
    if K == 2:
        ab[1, 1::2] = coupling[0, 1]
        ab[3, 0::2] = coupling[1, 0]
    return BandedOperator(ab)


def assemble_dense(problem: EigenProblem) -> np.ndarray:
    return assemble_banded(problem.grid.laplacian, problem.diffusions, problem.coupling).to_dense()


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenvalue with its positive eigenfunction(s).

    eigenfunctions has shape (K, n), componentwise positive and
    normalized to sup-norm one over all components; residual is the
    sup-norm of A*phi - lambda*phi at that normalization.
    """

    lam: float
    eigenfunctions: np.ndarray
    residual: float
    iterations: int
    certified_sign: int = 0  # sign mode only: the certified sign of the eigenvalue, or 0
    # Cold mode only: where the iteration stalled and stopped at the cap, the rigorous
    # Collatz-Wielandt enclosure (lo, up) that holds lam; otherwise None.
    enclosure: Optional[tuple[float, float]] = None


def principal_eigen(problem: EigenProblem, sign_from: Optional[np.ndarray] = None) -> EigenResult:
    """Rightmost eigenpair via inverse iteration on the shifted resolvent.

    Iteration 0 reads the start vector, ones; every later iteration first
    takes one solve of the shifted resolvent.  The shift stays above the
    principal eigenvalue (the Collatz-Wielandt upper bound after
    iteration 0, the eigenvalue estimate plus a residual margin after
    each solve), so every iterate is an inverse M-matrix image of a
    positive vector and stays positive.  Stops when the eigenpair
    residual reaches the rounding floor of the operator norm and, after
    a solve, the eigenvalue estimate has stabilized to EIGEN_TOL.

    Sign mode: sign_from is a positive start vector in the interleaved
    layout, say the iterate of a neighbouring problem, in place of ones.
    The iteration then also stops as soon as the Collatz-Wielandt
    enclosure [min (Av)_i/v_i, max (Av)_i/v_i] of an iterate v, which
    holds the principal eigenvalue, clears 0 by more than the rounding
    bound of A v; certified_sign is then that sign, and lam only the
    estimate at v.  The enclosure is read in one place, where the first
    shift and the sign test use it.  Where no iterate certifies a sign,
    certified_sign is 0: the iteration then ends where the cold one
    would stop or raise, and sign mode never raises ConvergenceError.

    Stalled stop, cold mode only: at large ||A|| the residual can stay
    just above its floor while lam no longer moves, or stay under it
    while lam jitters by about eps*||A|| and never passes the EIGEN_TOL
    test.  A solve that converges may only be one whose residual or lam
    settled by chance, at any iteration up to the cap.  So the stop is at
    the cap, once the convergence test has failed there too: if the last
    EIGEN_STALL_ITER solves before it all left a residual of at most
    4*floor, the enclosure at the iterate is read once with the
    rounding of y = A v counted, [min (y_i - e_i)/v_i, max (y_i + e_i)/v_i]
    with e_i = SIGN_ROUNDING*(2K+1)*(|A| v)_i.  It holds the principal
    eigenvalue (Collatz 1942, Wielandt 1950).  If it also holds lam, the
    iterate is returned with that enclosure in place of the
    ConvergenceError, and every solve that converges is unchanged.
    """
    A = assemble_banded(problem.grid.laplacian, problem.diffusions, problem.coupling)
    K = problem.n_components
    w = problem.grid.quadrature_weights
    w_big = w if K == 1 else np.repeat(w, K)  # in the interleaved layout
    if not np.isfinite(A.ab).all():
        raise ValueError("array must not contain infs or NaNs")
    anorm = A.inf_norm()
    resid_floor = max(EIGEN_TOL, 40.0 * np.finfo(float).eps * anorm)
    # A computed (Av)_i, a sum of 2K+1 band products, is off by at most about
    # (2K+1)*eps*||A||_inf*max v, and a computed ratio by that over v_i: a sign
    # needs the enclosure to clear 0 by eight times that bound.
    sign_slack = SIGN_ROUNDING * (2 * K + 1) * anorm

    v = np.ones(A.size) if sign_from is None else np.asarray(sign_from, dtype=float)
    failures = stalled = 0  # stalled: consecutive solves with a residual of at most 4*floor
    lam_prev = np.inf
    for it in range(EIGEN_MAX_ITER + 1):
        if it:
            try:
                x = A.solve_shifted(sigma, v)
            except np.linalg.LinAlgError:
                x_min = x_max = np.nan
            else:
                x_min, x_max = x.min(), x.max()  # NaN if x has a NaN
                if x_max < 0:
                    np.negative(x, out=x)
                    x_min, x_max = -x_max, -x_min
            if not (x_min > 0 and x_max < np.inf):
                # Shift slipped at or below the principal eigenvalue; back away.
                failures += 1
                stalled = 0
                if failures > 25:
                    failure = f"inverse iteration could not find a stable shift after {it} steps"
                    break
                sigma = lam + backoff
                backoff *= 4.0
                continue
            x /= x_max
            v = x
        y = A.matvec(v)
        lam = float((w_big @ (v * y)) / (w_big @ (v * v)))
        residual = float(np.abs(y - lam * v).max())
        if it == 0 or sign_from is not None:
            ratio = y / v
            lo, up = float(ratio.min()), float(ratio.max())  # the enclosure at v
        if sign_from is not None:
            margin = sign_slack * float(v.max()) / float(v.min())
            sign = 1 if lo > margin else -1 if up < -margin else 0
            if sign:
                return _finish(problem, v, lam, residual, it, sign)
        if residual <= resid_floor and (
                it == 0 or abs(lam - lam_prev) <= EIGEN_TOL * (1.0 + abs(lam))):
            return _finish(problem, v, lam, residual, it)
        if it and sign_from is None:
            stalled = stalled + 1 if residual <= 4.0 * resid_floor else 0
            if it == EIGEN_MAX_ITER and stalled >= EIGEN_STALL_ITER:
                rounding = SIGN_ROUNDING * (2 * K + 1) * A._row_sums(np.abs(A.ab) * v)
                lo, up = float(np.min((y - rounding) / v)), float(np.max((y + rounding) / v))
                if lo <= lam <= up:
                    return _finish(problem, v, lam, residual, it, enclosure=(lo, up))
        if it == 0:
            sigma = up + max(0.25 * (up - lo), 1e-3 * (1.0 + abs(up)))
            backoff = max(up - lo, 1e-6 * (1.0 + abs(up)))
        else:
            lam_prev = lam
            backoff = max(10.0 * residual, 1e-12 * (1.0 + abs(lam)))
            sigma = lam + max(3.0 * residual, 1e-12 * (1.0 + abs(lam)))
    else:
        failure = (f"principal eigenvalue iteration did not converge in {EIGEN_MAX_ITER} steps "
                   f"(last residual {residual:.3e}, floor {resid_floor:.3e})")
    if sign_from is not None:  # no sign certified; the caller solves from ones
        return _finish(problem, v, lam, residual, it)
    raise ConvergenceError(failure)


def _finish(problem: EigenProblem, v: np.ndarray, lam: float, residual: float, it: int,
            sign: int = 0, enclosure: Optional[tuple[float, float]] = None) -> EigenResult:
    K, n = problem.n_components, problem.grid.n
    fields = v.reshape(n, K).T.copy()
    if fields.min() <= 0:
        raise ConvergenceError("computed eigenfunction is not strictly positive")
    return EigenResult(lam=lam, eigenfunctions=fields, residual=residual, iterations=it,
                       certified_sign=sign, enclosure=enclosure)


def adjoint_principal_eigen(problem: EigenProblem, primal: EigenResult) -> EigenResult:
    """Positive eigenpair of the quadrature-adjoint operator.

    The adjoint eigenvalue must agree with primal's, the principal
    eigenpair of problem; a mismatch beyond ADJOINT_MATCH_TOL (relative)
    signals a solver failure.
    """
    result = principal_eigen(problem.adjoint())
    if abs(result.lam - primal.lam) > ADJOINT_MATCH_TOL * (1.0 + abs(primal.lam)):
        raise ConvergenceError(
            f"adjoint eigenvalue {result.lam:.12e} does not match primal {primal.lam:.12e}"
        )
    return result


def scalar_eigenvalue(grid: Grid, d: float, potential: np.ndarray) -> EigenResult:
    """Principal eigenpair of d*L + potential(x)."""
    return principal_eigen(scalar_problem(grid, d, potential))


def mu_family(
    grid: Grid,
    d1: float,
    d2: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    m: np.ndarray,
) -> Callable[[float], EigenProblem]:
    """mu -> the switching pair with growth scaled by mu, the family that mu_zero scans."""
    m = np.asarray(m, dtype=float)
    return lambda mu: switching_problem(grid, d1, d2, alpha, beta, mu * m)


def eigen_curve(family: Callable[[float], EigenProblem]) -> Callable[[float], float]:
    """x -> the principal eigenvalue of family(x), memoized; family must be pure.

    The memo is the curve's attribute values, the one store of its solved
    points: every x evaluated so far, with its eigenvalue, in the order of
    evaluation.  Its attribute enclosures holds, for each of those points
    whose solve stalled and stopped at the iteration cap, the enclosure
    of the eigenvalue that the solve returned (EigenResult.enclosure).  A
    caller that solved a point cold may keep it there, by the curve's
    attribute keep(x, result); a root finder then reads it without
    solving it again, and a plot reads every point without solving any.
    The curve's attribute family is the family it evaluates.
    """
    values: dict[float, float] = {}
    enclosures: dict[float, tuple[float, float]] = {}

    def keep(x: float, result: EigenResult) -> None:
        values[x] = result.lam
        if result.enclosure is not None:
            enclosures[x] = result.enclosure

    def curve(x: float) -> float:
        if x not in values:
            keep(x, principal_eigen(family(x)))
        return values[x]

    curve.values, curve.enclosures, curve.keep, curve.family = values, enclosures, keep, family
    return curve


def lambda_prime_at_zero(
    grid: Grid,
    d1: float,
    d2: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    m: np.ndarray,
) -> float:
    """Slope of mu -> lambda(mu) at mu = 0 from the closed quotient formula.

    Also verifies the structure of the mu = 0 ground state: the
    combination d1*phi1 + d2*phi2 must be spatially constant and equal
    to integral((d2*alpha + d1*beta)*phi1) / integral(beta).  Failures
    indicate the eigensolve (or the mesh) is too inaccurate to trust
    the derivative.
    """
    m = grid.check_field(m)
    state = principal_eigen(switching_problem(grid, d1, d2, alpha, beta, np.zeros(grid.n)))
    if abs(state.lam) > 1e-7:
        raise ConvergenceError(f"zero-growth eigenvalue should vanish, got {state.lam:.3e}")
    phi1, phi2 = state.eigenfunctions
    combo = d1 * phi1 + d2 * phi2
    mean_combo = integrate(grid, combo) / (grid.b - grid.a)
    deviation = (float(np.max(combo)) - float(np.min(combo))) / mean_combo
    if deviation > GROUND_STATE_TOL:
        raise ConvergenceError(
            f"d1*phi1 + d2*phi2 deviates from constant by {deviation:.3e} "
            f"(> {GROUND_STATE_TOL:.1e})"
        )
    c_direct = integrate(grid, (d2 * np.asarray(alpha) + d1 * np.asarray(beta)) * phi1)
    c_direct /= integrate(grid, np.asarray(beta, dtype=float))
    if abs(mean_combo - c_direct) > GROUND_STATE_TOL * abs(c_direct):
        raise ConvergenceError(
            f"constant level {mean_combo:.9e} disagrees with quotient formula {c_direct:.9e}"
        )
    return integrate(grid, m * (phi1 + phi2)) / integrate(grid, phi1 + phi2)


@dataclass(frozen=True)
class ThresholdResult:
    """A located sign change of an eigenvalue curve."""

    name: str
    bracket: tuple[float, float]
    root: float
    residual: float
    sign_left: int
    sign_right: int
    evaluations: int = 0  # curve calls bisect_curve made to refine the root

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo < self.root < hi:
            raise ValueError(f"root {self.root} not strictly inside bracket ({lo}, {hi})")
        if self.sign_left == self.sign_right:
            raise ValueError("bracket endpoints must have opposite signs")
        if self.residual > 1e-8:
            raise ValueError(f"threshold residual {self.residual:.3e} exceeds 1e-8")


def bisect_curve(curve: Callable[[float], float], lo: float, hi: float,
                 name: str) -> ThresholdResult:
    """The sign change of curve in (lo, hi), refined by Brent's method.

    The curve at lo and at hi must have opposite signs.  It reads them
    first and does not count them among the evaluations; on an
    eigen_curve whose memo holds them they are no eigensolves.  Each step
    is Brent's (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): an inverse quadratic or secant step on the shrinking sign
    bracket, or halving when the interpolated point would leave the
    bracket or not shrink it fast enough.  The first point with
    |curve| <= RESIDUAL_TOL is the root; it lies strictly inside (lo, hi).
    A curve that never gets there (a jump, say) raises ConvergenceError
    after BISECT_MAX_ITER evaluations.  The name is kept from the
    halving this replaced.

    Brent's method needs a simple root to be fast: on a multiple root its
    interpolation converges linearly and can take more evaluations than
    halving would (22 against 8 on -(x - 0.3)^3 in (0, 1)).  The
    threshold curves have simple roots, since the eigenvalue is strictly
    monotone in each of d, beta, alpha and mu.
    """
    f_lo, f_hi = curve(lo), curve(hi)
    if f_lo == 0.0 or f_hi == 0.0 or f_lo * f_hi > 0:
        raise ValueError(f"endpoints do not bracket a sign change: f({lo})={f_lo}, f({hi})={f_hi}")
    # cur is the best point so far and blk the bracketing point on the other
    # side of the root; pre is the point before cur.  s_cur and s_pre are the
    # last two steps.
    x_pre, f_pre, x_cur, f_cur = lo, f_lo, hi, f_hi
    x_blk, f_blk = x_pre, f_pre
    s_pre = s_cur = x_cur - x_pre
    for evaluations in range(1, BISECT_MAX_ITER + 1):
        if (f_pre > 0) != (f_cur > 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 2.0 * np.finfo(float).eps * abs(x_cur)
        s_bis = 0.5 * (x_blk - x_cur)
        interpolate = abs(s_pre) > delta and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            interpolate = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if interpolate else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x = x_cur + (s_cur if abs(s_cur) > delta else np.copysign(delta, s_bis))
        if not min(x_cur, x_blk) < x < max(x_cur, x_blk):
            x = x_cur + s_bis
        x_cur, f_cur = x, curve(x)
        if abs(f_cur) <= RESIDUAL_TOL:
            return ThresholdResult(
                name=name,
                bracket=(lo, hi),
                root=x_cur,
                residual=abs(f_cur),
                sign_left=int(np.sign(f_lo)),
                sign_right=int(np.sign(f_hi)),
                evaluations=evaluations,
            )
    raise ConvergenceError(
        f"root finding for {name} stalled: |f({x_cur})| = {abs(f_cur):.3e} > {RESIDUAL_TOL:.1e}"
    )


def scan_roots(family: Callable[[float], EigenProblem], lattice: np.ndarray,
               name: str) -> list[ThresholdResult]:
    """Every sign change of the principal eigenvalue of a problem family on a lattice, in order.

    family(x) is the problem at x, a pure function of x.  The sign at a
    lattice point comes from principal_eigen's sign mode, started from
    the previous point's iterate (from ones at the first).  The cold
    principal_eigen gives the value wherever a value is used: at a point
    whose sign is not certified, and at both ends of each cell whose
    signs differ.  Each cold value goes into the memo of
    eigen_curve(family), on which bisect_curve refines each cell's root.
    An interior lattice point whose value is exactly zero, between
    neighbours of opposite sign, is a root as it stands; only a cold
    value is zero.  So the roots are those of a scan that solves every
    point cold.
    """
    curve = eigen_curve(family)
    signs: list[float] = []
    start = previous = None
    for i, x in enumerate(lattice):
        problem = family(x)
        if start is None:
            start = np.ones(problem.n_components * problem.grid.n)
        result = principal_eigen(problem, sign_from=start)
        if not result.certified_sign:
            result = principal_eigen(problem)
            curve.keep(x, result)
        signs.append(result.certified_sign or np.sign(result.lam))
        if i and signs[i - 1] * signs[i] < 0:
            for y, p in ((lattice[i - 1], previous), (x, problem)):
                if y not in curve.values:
                    curve.keep(y, principal_eigen(p))
        start, previous = result.eigenfunctions.T.ravel(), problem
    if not np.isfinite(list(curve.values.values())).all():
        raise ValueError("non-finite eigenvalue on the scan lattice")
    roots: list[ThresholdResult] = []
    for i in range(len(lattice) - 1):
        if signs[i] * signs[i + 1] < 0:
            roots.append(bisect_curve(curve, lattice[i], lattice[i + 1], name=name))
        elif signs[i + 1] == 0 and i + 2 < len(lattice) and signs[i] * signs[i + 2] < 0:
            roots.append(ThresholdResult(name, (lattice[i], lattice[i + 2]), lattice[i + 1], 0.0,
                                         int(signs[i]), int(signs[i + 2])))
    return roots


def find_mu_roots(family: Callable[[float], EigenProblem], bracket: tuple[float, float],
                  name: str, scan_points: int = 64) -> list[ThresholdResult]:
    """All sign changes of a family's eigenvalue on a log-spaced lattice (see scan_roots).

    An empty list is a valid outcome (no sign change on the bracket).
    Uniqueness is not assumed: every detected crossing is refined and
    returned, and exceeding MAX_ROOTS raises.
    """
    lo, hi = bracket
    if not 0 < lo < hi or scan_points < 2:
        raise ValueError(f"need 0 < lo < hi and scan_points >= 2, got {bracket}, {scan_points}")
    roots = scan_roots(family, np.geomspace(lo, hi, scan_points), name)
    if len(roots) > MAX_ROOTS:
        raise ConvergenceError(f"more than {MAX_ROOTS} roots found for {name}")
    return roots


def mu_star_scalar(grid: Grid, e: np.ndarray) -> ThresholdResult:
    """Critical scaling mu* for a sign-changing potential with negative mean.

    Located through the unique diffusion rate d* where the scalar
    eigenvalue crosses zero; mu* = 1/d*, so sign(1 - d*mu*) matches the
    sign of the eigenvalue at diffusion d.
    """
    e = grid.check_field(e)
    if np.min(e) >= 0 or np.max(e) <= 0:
        raise HypothesisError("mu* requires a sign-changing potential")
    if integrate(grid, e) >= 0:
        raise HypothesisError("mu* requires a potential with negative integral")
    roots = find_mu_roots(lambda d: scalar_problem(grid, d, e), D_BRACKET, name="d_root")
    if len(roots) != 1:
        raise ConvergenceError(
            f"expected exactly one zero crossing in d for mu*, found {len(roots)}"
        )
    d_root = roots[0]
    return ThresholdResult(
        name="mu_star",
        bracket=(1.0 / d_root.bracket[1], 1.0 / d_root.bracket[0]),
        root=1.0 / d_root.root,
        residual=d_root.residual,
        sign_left=d_root.sign_right,
        sign_right=d_root.sign_left,
        evaluations=d_root.evaluations,
    )


def dense_rightmost(matrix: np.ndarray) -> tuple[complex, np.ndarray]:
    """Rightmost eigenvalue (max real part) of a dense matrix, with eigenvector."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    idx = int(np.argmax(eigvals.real))
    return complex(eigvals[idx]), eigvecs[:, idx]
