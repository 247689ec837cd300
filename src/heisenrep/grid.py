"""Uniform symmetric grids and sampled complex functions.

The grid covers [-L, L) with N points, x_j = -L + j*dx.  All spectral
machinery in the package assumes this layout; the matching frequency grid
(see :func:`dual_grid`) covers [-pi/dx, pi/dx) with the same point count,
so Fourier transforms map SampledFunction -> SampledFunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError


# largest complex sample array a grid may ask for: 256 MiB, 2^24 points
MAX_GRID_BYTES = 2 ** 28


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of N points on [-L, L), N a power of two from 4 to
    MAX_GRID_BYTES / 16.

    The points, the table i*x of the generator M and the dual grid are
    computed once per instance; the points and the table are read-only.
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
        if 16 * int(self.size) > MAX_GRID_BYTES:
            raise ConfigurationError(
                f"size {self.size} needs {16 * int(self.size)} bytes per complex array, "
                f"past MAX_GRID_BYTES = {MAX_GRID_BYTES}")
        try:
            spacing = self.spacing
        except OverflowError:  # an integer beyond the float range
            raise ConfigurationError("half_width and size must be within the float range") from None
        if not 0 < spacing < math.inf:
            raise ConfigurationError(
                f"spacing 2*half_width/size must be positive and finite, got {spacing} "
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
    def _i_points(self) -> np.ndarray:
        # i*x: M's multiplier here, and D's on the grid this one is dual to
        ix = np.multiply(1j, self.points)
        ix.setflags(write=False)
        return ix

    @cached_property
    def _dual(self) -> "GridSpec":
        # the pair is built once: the dual's dual is this grid, whether or
        # not pi/(pi/dx) rounds back to dx
        dual = GridSpec(np.pi / self.spacing, self.size)
        dual.__dict__["_dual"] = self
        return dual

    def __getstate__(self):
        # pickle the fields only; the caches are rebuilt on demand
        return {"half_width": self.half_width, "size": self.size}


def make_grid(half_width: float, size: int) -> GridSpec:
    """GridSpec with a float half-width; GridSpec validates (a size of 64.5 is refused)."""
    return GridSpec(float(half_width), size)


def dual_grid(grid: GridSpec) -> GridSpec:
    """Frequency grid matching `grid`: spacing pi/L, half-width pi/dx.

    Involutive: dual_grid(dual_grid(g)) is g.  The same instance is returned
    on every call, so its points are computed once.
    """
    return grid._dual


# bytes of complex samples in one chunk of stacked draws; see per_chunk
_STACK_BYTES = 2 ** 18


def per_chunk(grid: GridSpec, draws, measure) -> np.ndarray:
    """measure(draws[i:i + k]) on consecutive slices of k = max(1, 2^18 // (16 N))
    draws (4 at N = 4096, 1 from N = 2^14 on: a slice's stack holds 256 KiB),
    joined along the last axis in draw order.  measure stacks its slice and
    returns one value per draw, or a tuple of such rows, one per quantity;
    with no draws it sees the empty slice once, so the result keeps its rows.
    At N = 4096, on a 2-CPU host, the 100 norm-growth towers went 169 -> 121
    ms in chunks of 4 and the 100 homomorphism draws 116 -> 72 ms; chunks of
    8 were slower than 4, and at 16 the towers were slower than one draw at
    a time (239 against 203 ms), as a stack outgrows a core's 2 MiB L2 cache.
    """
    rows = max(1, _STACK_BYTES // (16 * grid.size))
    return np.concatenate([np.asarray(measure(draws[i:i + rows]))
                           for i in range(0, max(len(draws), 1), rows)], axis=-1)


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a GridSpec; the numerical stand-in for an L^2 element.

    values may have shape (..., N): a stack of functions on one grid, one per
    row.  The spectral primitives (fourier, inverse_fourier, spectral_multiply,
    act, generator_apply) and norm work along the last axis; the moment
    functionals refuse a stack with GridMismatchError.

    values are read-only.  The constructor copies its input into a fresh
    complex array, so no caller's array aliases the result, and refuses values
    that are not complex numbers, not finite, or whose last axis is not N.  The
    buffers the library's primitives fill are shared through _adopt instead.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            vals = np.array(self.values, dtype=complex)
        except (TypeError, ValueError) as err:
            raise ConfigurationError(f"values must be complex numbers: {err}") from None
        if vals.shape[-1:] != (self.grid.size,):
            raise GridMismatchError(
                f"values shape {vals.shape} does not end in grid size {self.grid.size}"
            )
        if not np.isfinite(vals).all():
            raise ConfigurationError("values must be finite, got NaN or infinite samples")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # pickled or copied, a function comes back through the constructor, read-only
        return SampledFunction, (self.grid, self.values)

    # small immutable-vector algebra; enough for the operator expressions used here
    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return _adopt(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return _adopt(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledFunction":
        return _adopt(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SampledFunction":
        return _adopt(self.grid, -self.values)


def _adopt(grid: GridSpec, buf: np.ndarray) -> SampledFunction:
    """SampledFunction on buf, shared without a copy or a check: buf is a fresh
    complex array of shape (..., grid.size) that nothing else writes.  It is
    marked read-only here, and __post_init__ does not run."""
    buf.setflags(write=False)
    f = object.__new__(SampledFunction)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "values", buf)
    return f


def _require_function(f) -> None:
    """Refuse what is not a SampledFunction with ConfigurationError, not an AttributeError."""
    if not isinstance(f, SampledFunction):
        raise ConfigurationError(f"takes a SampledFunction, got {type(f).__name__}")


def _check_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    _require_function(f)
    _require_function(g)
    if f.grid != g.grid:
        raise GridMismatchError("operands live on different grids")


def _require_single(*fs: SampledFunction) -> None:
    """Refuse a stack where one function is summed whole."""
    for f in fs:
        _require_function(f)
        if f.values.ndim != 1:
            raise GridMismatchError(f"takes one function, got a stack of shape {f.values.shape}")


def norm(f: SampledFunction):
    """L^2 norm sqrt(dx) * ||values||, a float; an array of one per row for a
    stack.  Each row is summed by np.linalg.norm on its own, so a row has the
    norm it has alone (a norm along an axis sums in another order)."""
    _require_function(f)
    if f.values.ndim == 1:
        return float(np.sqrt(f.grid.spacing) * np.linalg.norm(f.values))
    rows = [np.linalg.norm(row) for row in f.values.reshape(-1, f.grid.size)]
    return np.sqrt(f.grid.spacing) * np.reshape(rows, f.values.shape[:-1])


def restrict_halfline(f: SampledFunction, side: str) -> SampledFunction:
    """Q+ / Q- support restriction.

    The grid point x = 0 belongs to the plus half-line, so Q+ + Q- = I holds
    exactly on samples.
    """
    _require_function(f)
    x = f.grid.points
    if side == "plus":
        mask = x >= 0
    elif side == "minus":
        mask = x < 0
    else:
        raise ConfigurationError(f"side must be 'plus' or 'minus', got {side!r}")
    return _adopt(f.grid, np.where(mask, f.values, 0.0))
