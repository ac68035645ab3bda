"""Model parameters, coefficient fields, reaction terms, and regime tests.

The two-population system tracks a slow diffuser u (rate d1) and a fast
diffuser v (rate d2) exchanging members at per-capita rates alpha(x)
(u -> v) and beta(x) (v -> u), with local growth m(x) and intraspecific
pressure controlled by b, c.  Depending on coefficient sizes the coupled
system is eventually competitive (large growth, small switching) or
eventually cooperative (switching dominates growth); ``classify_regime``
evaluates the explicit sufficient conditions for each case and returns
the absorbing state-space box that each one proves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mesh import Grid, finite_number, float_array, integrate


class HypothesisError(ValueError):
    """A structural hypothesis required by the requested analysis fails."""


@dataclass(frozen=True)
class CoefficientSpec:
    """Serializable recipe for a spatial coefficient.

    kind is one of 'constant', 'cosine_profile', 'samples'.  The cosine
    profile evaluates mean + amplitude*cos(frequency*pi*(x-a)/(b-a)), so
    frequency 1 is one half-wave across the interval and even
    frequencies integrate to zero.
    """

    kind: str
    value: float = 0.0
    mean: float = 0.0
    amplitude: float = 0.0
    frequency: int = 1
    values: Optional[np.ndarray] = None

    @staticmethod
    def constant(value: float) -> "CoefficientSpec":
        return CoefficientSpec(kind="constant", value=finite_number(value))

    @staticmethod
    def cosine(mean: float, amplitude: float, frequency: int = 1) -> "CoefficientSpec":
        return CoefficientSpec(
            kind="cosine_profile",
            mean=finite_number(mean),
            amplitude=finite_number(amplitude),
            frequency=finite_number(frequency, int),
        )

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "CoefficientSpec":
        return CoefficientSpec(kind="samples", values=finite_number(samples, float_array))


def sample_coefficient(spec: CoefficientSpec, grid: Grid) -> np.ndarray:
    """Evaluate a coefficient spec on the grid nodes."""
    if spec.kind == "constant":
        return np.full(grid.n, spec.value)
    if spec.kind == "cosine_profile":
        phase = spec.frequency * np.pi * (grid.nodes - grid.a) / (grid.b - grid.a)
        return spec.mean + spec.amplitude * np.cos(phase)
    if spec.kind == "samples":
        if spec.values is None or spec.values.shape != (grid.n,):
            got = None if spec.values is None else spec.values.shape
            raise ValueError(f"sample array shape {got} does not match grid ({grid.n},)")
        return spec.values.copy()
    raise ValueError(f"unknown coefficient kind: {spec.kind!r}")


class SystemKind(enum.Enum):
    """Which right-hand side the state evolves under."""

    TWO_SPECIES_GENERAL = "two_species_general"  # free b, c
    SUBMODEL = "submodel"  # shared density u+v (b = c = 1)
    LOGISTIC = "logistic"  # single component w
    THREE_COMPONENT = "three_component"  # (u, v) switching pair vs w

    @property
    def n_components(self) -> int:
        return _N_COMPONENTS[self]


_N_COMPONENTS = {SystemKind.TWO_SPECIES_GENERAL: 2, SystemKind.SUBMODEL: 2,
                 SystemKind.LOGISTIC: 1, SystemKind.THREE_COMPONENT: 3}


@dataclass(frozen=True)
class ModelParams:
    """Diffusion rates, interaction constants and coefficient recipes."""

    d1: float
    d2: float
    alpha: CoefficientSpec
    beta: CoefficientSpec
    m: CoefficientSpec
    d3: float = 1.0
    b: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.d1 <= self.d2:
            raise ValueError(f"need 0 < d1 <= d2, got d1={self.d1}, d2={self.d2}")
        if self.d3 <= 0.0:
            raise ValueError(f"d3 must be positive, got {self.d3}")
        if self.b < 0.0 or self.c < 0.0:
            raise ValueError(f"b, c must be nonnegative, got b={self.b}, c={self.c}")
        if not np.isfinite([self.d1, self.d2, self.d3, self.b, self.c]).all():
            raise ValueError("d1, d2, d3, b and c must be finite")


@dataclass(frozen=True)
class Coefficients:
    """alpha, beta, m sampled on a grid, with sign checks applied.

    Each field has shape (n,), or (P, n) for a block of P runs; every
    run's row passes the checks on its own.
    """

    grid: Grid
    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        fields = (self.alpha, self.beta, self.m)
        for alpha, beta, m in zip(*(np.atleast_2d(arr) for arr in fields)):
            for row in (alpha, beta, m):
                self.grid.check_field(row)
            if np.min(alpha) < 0 or np.min(beta) < 0:
                raise ValueError("switching rates alpha, beta must be nonnegative")
            if np.max(alpha) <= 0 or np.max(beta) <= 0:
                raise ValueError("alpha and beta must each be positive somewhere")
            if np.max(m) <= 0:
                raise ValueError("growth rate m must be positive somewhere")
        if len({arr.shape for arr in fields}) != 1:
            raise ValueError(f"alpha, beta and m differ in shape: {[a.shape for a in fields]}")
        if not all(np.isfinite(arr).all() for arr in fields):
            raise ValueError("alpha, beta and m must be finite")
        for arr in fields:
            arr.setflags(write=False)


def sample_coefficients(params: ModelParams, grid: Grid) -> Coefficients:
    return Coefficients(
        grid=grid,
        alpha=sample_coefficient(params.alpha, grid),
        beta=sample_coefficient(params.beta, grid),
        m=sample_coefficient(params.m, grid),
    )


def reaction_rhs(
    kind: SystemKind, params: ModelParams, coeffs: Coefficients, comps: np.ndarray
) -> np.ndarray:
    """Non-diffusive right-hand side, elementwise over nodes and runs.

    comps has shape (K, n) with K = kind.n_components, or (K, P, n) for
    a block of P runs, with coefficient fields of shape (n,) or (P, n).
    Returns the same shape; each entry is computed by the same
    operations as for one run, so results match bit for bit.  Growth
    terms use the shared density u+v(+w) for the submodel and
    three-component systems, and the b, c cross terms for the general
    two-species system.
    """
    comps = np.asarray(comps, dtype=float)
    if comps.shape[0] != kind.n_components or comps.shape[-1] != coeffs.grid.n:
        raise ValueError(
            f"state shape {comps.shape} does not match "
            f"({kind.n_components}, ..., {coeffs.grid.n}) for kind {kind.value!r}"
        )
    al, be, m = coeffs.alpha, coeffs.beta, coeffs.m
    out = np.empty_like(comps)
    if kind is SystemKind.LOGISTIC:
        w = comps[0]
        np.multiply(w, m - w, out=out[0])
        return out
    if kind is SystemKind.TWO_SPECIES_GENERAL:
        u, v = comps
        out[0] = (m - al - u) * u + (be - params.b * u) * v
        out[1] = (m - be - v) * v + (al - params.c * v) * u
        return out
    if kind is SystemKind.SUBMODEL:
        u, v = comps
        shared = m - u - v
    elif kind is SystemKind.THREE_COMPONENT:
        u, v, w = comps
        shared = m - u - v - w
        np.multiply(w, shared, out=out[2])
    else:
        raise ValueError(f"unknown system kind: {kind}")
    # The operations of g1 = -al*u + be*v + u*shared and
    # g2 = al*u - be*v + v*shared, in that order; -(al*u) == (-al)*u bit
    # for bit, signed zeros included.
    g1, g2 = out[0], out[1]
    np.multiply(al, u, out=g2)
    np.negative(g2, out=g1)
    be_v = be * v
    g1 += be_v
    g1 += u * shared
    g2 -= be_v
    g2 += v * shared
    return out


@dataclass(frozen=True)
class Rectangle:
    """Product box [lower] x [upper] in (u, v) state space."""

    lower: tuple[float, float]
    upper: tuple[float, float]

    def __post_init__(self) -> None:
        for lo, hi in zip(self.lower, self.upper):
            if not (0.0 <= lo < hi):
                raise ValueError(f"degenerate rectangle bounds: lower={self.lower}, upper={self.upper}")


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the asymptotic competitive/cooperative classification."""

    k: float
    k1: float
    k0: float
    in_s1: bool
    in_s2: bool
    competitive_rectangle: Optional[Rectangle]
    cooperative_rectangle: Optional[Rectangle]


def larger_quadratic_root_k0(b: float, c: float) -> float:
    """Larger root of (b*x - c)(c*x - b) - 1 = 0, i.e. bc x^2 - (b^2+c^2) x + (bc - 1) = 0."""
    if b <= 0 or c <= 0:
        raise HypothesisError("k0 is only defined for b > 0 and c > 0")
    bc = b * c
    s = b * b + c * c
    disc = s * s - 4.0 * bc * (bc - 1.0)
    return (s + np.sqrt(disc)) / (2.0 * bc)


def classify_regime(params: ModelParams, grid: Grid) -> RegimeReport:
    """Evaluate the eventual-competition and eventual-cooperation tests.

    S1 (eventually competitive) needs min m, min alpha and min beta all
    positive, so a growth rate or a switching rate that reaches 0 is not
    in S1.  Raises HypothesisError unless b > 0 and c > 0.
    """
    if params.b <= 0 or params.c <= 0:
        raise HypothesisError("regime classification requires b > 0 and c > 0")
    coeffs = sample_coefficients(params, grid)
    a_lo, a_hi = float(np.min(coeffs.alpha)), float(np.max(coeffs.alpha))
    b_lo, b_hi = float(np.min(coeffs.beta)), float(np.max(coeffs.beta))
    m_lo, m_hi = float(np.min(coeffs.m)), float(np.max(coeffs.m))
    b_, c_ = params.b, params.c

    k = min(a_lo / a_hi, b_lo / b_hi)
    k1 = max(b_hi / b_lo, a_hi / a_lo) if min(a_lo, b_lo) > 0 else np.inf
    k0 = larger_quadratic_root_k0(b_, c_)

    ratio_ok = k > max(1.0 - m_lo / (b_ * m_hi), 1.0 - m_lo / (c_ * m_hi))
    s1_first = m_lo + b_ * (k - 1.0) * m_hi - a_hi - b_hi / b_ > 0.0
    s1_second = m_lo + c_ * (k - 1.0) * m_hi - b_hi - a_hi / c_ > 0.0
    in_s1 = bool(min(m_lo, a_lo, b_lo) > 0 and ratio_ok and s1_first and s1_second)
    competitive = None
    if in_s1:
        competitive = Rectangle(lower=(b_hi / b_, a_hi / c_), upper=(m_hi, m_hi))

    in_s2 = False
    cooperative = None
    x, y = b_lo / b_, a_lo / c_
    if np.isfinite(k1) and k1 < 1.0 + k0 and x > 0 and y > 0:
        s2_first = m_hi - x + (b_ * (k1 - 1.0) - c_) * y < 0.0
        s2_second = m_hi - y + (c_ * (k1 - 1.0) - b_) * x < 0.0
        in_s2 = bool(s2_first and s2_second)
        if in_s2:
            cooperative = Rectangle(lower=(0.0, 0.0), upper=(x, y))

    return RegimeReport(
        k=k,
        k1=float(k1),
        k0=k0,
        in_s1=in_s1,
        in_s2=in_s2,
        competitive_rectangle=competitive,
        cooperative_rectangle=cooperative,
    )


def hypothesis_h_holds(coeffs: Coefficients) -> bool:
    """Non-constant m, nonnegative mean growth, and max m below alpha+beta, on coeffs' grid."""
    m_hi, m_lo = float(np.max(coeffs.m)), float(np.min(coeffs.m))
    if m_hi - m_lo <= 1e-12 * max(1.0, abs(m_hi)):
        return False
    if integrate(coeffs.grid, coeffs.m) < -1e-12:
        return False
    switching_floor = float(np.min(coeffs.alpha + coeffs.beta))
    return 0.0 < m_hi < switching_floor


def check_hypothesis_h(coeffs: Coefficients) -> None:
    if not hypothesis_h_holds(coeffs):
        raise HypothesisError(
            "growth hypothesis fails: need m non-constant, nonnegative mean, "
            "and 0 < max m < alpha + beta"
        )


def require_constant(spec: CoefficientSpec, name: str) -> float:
    """Constant value of a spec, for analyses that assume spatially constant rates."""
    if spec.kind == "constant":
        return spec.value
    if spec.kind == "samples" and spec.values is not None:
        lo, hi = float(np.min(spec.values)), float(np.max(spec.values))
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            return lo
    if spec.kind == "cosine_profile" and spec.amplitude == 0.0:
        return spec.mean
    raise HypothesisError(f"{name} must be spatially constant for this analysis")
