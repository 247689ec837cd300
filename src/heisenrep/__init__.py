"""Numerical harmonic analysis on the Weyl-Heisenberg group.

Uniform-grid L^2 machinery, Fourier/Hilbert/Hardy transforms, the group's
unitary representation and its generators, Schwartz seminorm towers, a
constructive moment-annihilation algorithm, and half-line semigroup
experiments, plus a batch verification harness.
"""

from .errors import (
    CapabilityError,
    ClassMembershipError,
    ConfigurationError,
    GridMismatchError,
    HeisenrepError,
    NotExactlyIntegrable,
    PrecisionError,
    SemigroupDomainError,
)
from .grid import (
    GridSpec,
    SampledFunction,
    dual_grid,
    make_grid,
    norm,
    restrict_halfline,
)
from .heisenberg import GroupElement, LieElement, act, bracket, multiply
from .transforms import fourier, hilbert, inverse_fourier, proj_hardy

__all__ = [
    "CapabilityError",
    "ClassMembershipError",
    "ConfigurationError",
    "GridMismatchError",
    "GridSpec",
    "GroupElement",
    "HeisenrepError",
    "LieElement",
    "NotExactlyIntegrable",
    "PrecisionError",
    "SampledFunction",
    "SemigroupDomainError",
    "act",
    "bracket",
    "dual_grid",
    "fourier",
    "hilbert",
    "inverse_fourier",
    "make_grid",
    "multiply",
    "norm",
    "proj_hardy",
    "restrict_halfline",
]

__version__ = "0.1.0"
