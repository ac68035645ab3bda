"""Numerical laboratory for dispersal-switching populations.

Two-component reaction-diffusion populations that switch between a slow
and a fast diffusion rate, their persistence thresholds, and their
competition against an ecologically identical single-rate diffuser.
"""

from .mesh import build_grid
from .model import CoefficientSpec, ModelParams, sample_coefficients
from .spectral import principal_eigen, switching_problem
from .analysis import find_threshold

__version__ = "0.1.0"
