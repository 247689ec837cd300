"""Uniform symmetric grids and sampled complex functions.

The grid covers [-L, L) with N points, x_j = -L + j*dx.  All spectral
machinery in the package assumes this layout; the matching frequency grid
(see :func:`dual_grid`) covers [-pi/dx, pi/dx) with the same point count,
so Fourier transforms map SampledFunction -> SampledFunction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of N points on [-L, L), N a power of two."""

    half_width: float
    size: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.size

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.size)


def make_grid(half_width: float, size: int) -> GridSpec:
    """Validated GridSpec constructor."""
    if not 0 < half_width < math.inf:
        raise ConfigurationError(f"half_width must be positive and finite, got {half_width}")
    if not isinstance(size, (int, np.integer)) or not _is_power_of_two(int(size)):
        raise ConfigurationError(f"size must be a power of two, got {size}")
    if size < 4:
        raise ConfigurationError(f"size must be at least 4, got {size}")
    return GridSpec(float(half_width), int(size))


def dual_grid(grid: GridSpec) -> GridSpec:
    """Frequency grid matching `grid`: spacing pi/L, half-width pi/dx.

    Involutive: dual_grid(dual_grid(g)) == g.
    """
    return GridSpec(np.pi / grid.spacing, grid.size)


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a GridSpec; the numerical stand-in for an L^2 element."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid size {self.grid.size}"
            )
        vals = vals.copy()
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

    def to_csv(self, path) -> None:
        """Write columns x, re, im."""
        xs = self.grid.points
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "re", "im"])
            for x, v in zip(xs, self.values):
                writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])


def _check_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError("operands live on different grids")


def zeros(grid: GridSpec) -> SampledFunction:
    return SampledFunction(grid, np.zeros(grid.size, dtype=complex))


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
