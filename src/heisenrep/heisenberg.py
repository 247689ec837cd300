"""Weyl-Heisenberg group arithmetic and its unitary action on sampled functions.

Group law: (a, b, c)(alpha, beta, gamma) = (a+alpha, b+beta, c+gamma+a*beta);
the action is (U(xi) f)(x) = e^{i xi3} e^{i x xi2} f(x + xi1), so translation
is applied first and modulation second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, GridMismatchError, PrecisionError, require_order
from .grid import GridSpec, SampledFunction, _adopt, _require_function, dual_grid
from .transforms import _backward, _forward, _multiply_into, spectral_multiply


@dataclass(frozen=True)
class GroupElement:
    """(xi1, xi2, xi3); components of shape (k,) hold k elements, a stack."""
    xi1: float
    xi2: float
    xi3: float


@dataclass(frozen=True)
class LieElement:
    a: float
    b: float
    c: float


IDENTITY = GroupElement(0.0, 0.0, 0.0)
CHI1 = LieElement(1.0, 0.0, 0.0)
CHI2 = LieElement(0.0, 1.0, 0.0)
CHI3 = LieElement(0.0, 0.0, 1.0)


class Semigroup(NamedTuple):
    """One subsemigroup: its exact, elementwise membership predicate on
    (x1, x2, x3); a stored member whose inverse falls outside it; and its
    sampler, which maps the draws x1, x2 in [0, 5) and x3 in [-5, 5) to a
    member's components, taking any further coordinate from draw(low, high)."""
    contains: Callable
    witness: GroupElement
    sample: Callable


SEMIGROUPS = {
    "S1zero": Semigroup(lambda x1, x2, x3: (x1 >= 0) & (x2 == 0), GroupElement(1.0, 0.0, 0.0),
                        lambda x1, x2, x3, draw: (x1, 0.0, x3)),
    "S1": Semigroup(lambda x1, x2, x3: x1 >= 0, GroupElement(1.0, 2.0, 3.0),
                    lambda x1, x2, x3, draw: (x1, draw(-5.0, 5.0), x3)),
    "S2zero": Semigroup(lambda x1, x2, x3: (x1 == 0) & (x2 >= 0), GroupElement(0.0, 1.0, 0.0),
                        lambda x1, x2, x3, draw: (0.0, x2, x3)),
    "S2": Semigroup(lambda x1, x2, x3: x2 >= 0, GroupElement(1.0, 2.0, 3.0),
                    lambda x1, x2, x3, draw: (draw(-5.0, 5.0), x2, x3)),
    "S3": Semigroup(lambda x1, x2, x3: (x1 >= 0) & (x2 >= 0), GroupElement(1.0, 2.0, 3.0),
                    lambda x1, x2, x3, draw: (x1, x2, x3)),
    "S4": Semigroup(lambda x1, x2, x3: (x1 >= 0) & (x2 >= 0) & (x1 * x2 >= x3) & (x3 >= 0),
                    GroupElement(1.0, 2.0, 1.0),
                    lambda x1, x2, x3, draw: (x1, x2, draw(0.0, 1.0) * x1 * x2)),
}


def _semigroup(base: str) -> Semigroup:
    """The SEMIGROUPS entry named base; ConfigurationError for any other value."""
    if not isinstance(base, str) or base not in SEMIGROUPS:
        raise ConfigurationError(f"unknown semigroup {base!r}; expected one of {tuple(SEMIGROUPS)}")
    return SEMIGROUPS[base]


def multiply(xi: GroupElement, eta: GroupElement) -> GroupElement:
    return GroupElement(
        xi.xi1 + eta.xi1,
        xi.xi2 + eta.xi2,
        xi.xi3 + eta.xi3 + xi.xi1 * eta.xi2,
    )


def inverse(xi: GroupElement) -> GroupElement:
    return GroupElement(-xi.xi1, -xi.xi2, -xi.xi3 + xi.xi1 * xi.xi2)


def bracket(u: LieElement, v: LieElement) -> LieElement:
    return LieElement(0.0, 0.0, u.a * v.b - v.a * u.b)


def in_semigroup(xi: GroupElement, base: str):
    """Exact, elementwise membership predicate of the semigroup named base;
    in_semigroup(inverse(xi), base) tests membership of its inverse set."""
    return _semigroup(base).contains(xi.xi1, xi.xi2, xi.xi3)


# ---------------------------------------------------------------------------
# representation

def act(xi: GroupElement, f: SampledFunction, mode: str = "spectral") -> SampledFunction:
    """(U(xi) f)(x) = e^{i xi3} e^{i x xi2} f(x + xi1).

    spectral mode translates by a frequency-domain phase (any xi1, periodic
    wraparound, exact homomorphism); grid mode shifts samples by an integer
    number of cells with zero fill (exact support semantics) and demands
    every xi1 be a multiple of the grid spacing.  Both act on each row of a
    stacked f, and take a stack of k elements (components of shape (k,)),
    which gives k rows, each moved by its own element; spectral mode
    transforms a single f once for all of them.  Components that are not
    real and finite, or put a phase xi2 x (in spectral mode also xi1 y) past
    the float range, raise ConfigurationError; unbroadcastable ones, GridMismatchError.
    """
    _require_function(f)
    if not all(np.asarray(c).dtype.kind in "iuf" and np.isfinite(c).all()
               for c in (xi.xi1, xi.xi2, xi.xi3)):
        raise ConfigurationError(f"group element components must be real and finite, got {xi}")
    try:
        np.broadcast(xi.xi1, xi.xi2, xi.xi3, f.values[..., 0])
    except ValueError:
        raise GridMismatchError(
            f"element components of shapes {np.shape(xi.xi1)}, {np.shape(xi.xi2)}, "
            f"{np.shape(xi.xi3)} do not fit a stack of shape {f.values.shape[:-1]}") from None
    with np.errstate(over="ignore"):  # a phase past the float range is refused below
        x_phase = np.abs(xi.xi2) * f.grid.half_width
        y_phase = np.abs(xi.xi1) * dual_grid(f.grid).half_width
    if not (np.isfinite(x_phase).all() and (mode == "grid" or np.isfinite(y_phase).all())):
        raise ConfigurationError(f"the phase arguments of {xi} pass the float range on {f.grid}")
    if mode == "spectral":
        vals = _backward(_phase(xi.xi1, dual_grid(f.grid)), _forward(f), dual_grid(f.grid))
    elif mode == "grid":
        dx = f.grid.spacing
        with np.errstate(over="ignore"):  # a quotient past the float range is refused below
            m = np.divide(xi.xi1, dx)
        cells = np.rint(m)
        if not (np.isfinite(m).all() and (np.abs(m - cells) <= 1e-9).all()):
            raise PrecisionError(
                f"grid-mode translation needs xi1 a finite multiple of spacing {dx}, got {xi.xi1}"
            )
        n = f.grid.size
        vals = np.zeros(np.broadcast_shapes(cells.shape + (1,), f.values.shape), dtype=complex)
        cells, rows = np.broadcast_to(cells, vals.shape[:-1]), np.broadcast_to(f.values, vals.shape)
        # f(x + xi1): values move toward lower indices for xi1 > 0, each row by its own
        for i in np.ndindex(cells.shape):
            k = int(cells[i])
            if 0 <= k < n:
                vals[i][: n - k] = rows[i][k:]
            elif -n < k < 0:
                vals[i][-k:] = rows[i][: n + k]
    else:
        raise ConfigurationError(f"unknown act mode {mode!r}")
    return _adopt(f.grid, _multiply_into(_phase(xi.xi2, f.grid, np.exp(1j * xi.xi3)), vals))


def _phase(a: float, grid: GridSpec, factor: complex = 1.0) -> np.ndarray:
    """factor * e^{i a x_j} at the grid points x_j = x_0 + j*h, from two short tables;
    a and factor may hold one value per row of a stack, which gives one row each.

    With j = b*B + r and B = 2^floor(log2(N)/2), which divides every grid
    size (a power of two), e^{i a x_j} = e^{i a x_{bB}} * e^{i a r h}: the
    outer product of an N/B-point coarse table, which holds the factor, and
    a B-point fine one, so N/B + B exponentials are evaluated instead of N.
    Both tables come from half_width and spacing (the coarse one reads the
    grid points), never from a difference of points, so the error stays
    that of rounding the argument a*x_j, plus a few ulps for the products.
    """
    n = int(grid.size)
    block = 1 << ((n.bit_length() - 1) // 2)
    a = np.asarray(a)[..., None]
    coarse = np.asarray(factor)[..., None] * np.exp(1j * (a * grid.points[::block]))
    fine = np.exp(1j * (a * (grid.spacing * np.arange(block))))
    table = coarse[..., :, None] * fine[..., None, :]
    return table.reshape(table.shape[:-2] + (n,))


def generator_apply(gen: str, f: SampledFunction) -> SampledFunction:
    """Lie-algebra generators: M = i*x*, D = d/dx (spectral), C = i*identity.

    M multiplies by the grid's read-only table i*x, D by the dual grid's i*y."""
    _require_function(f)
    if gen == "M":
        return _adopt(f.grid, np.multiply(f.grid._i_points, f.values))
    if gen == "D":
        return spectral_multiply(f, dual_grid(f.grid)._i_points)
    if gen == "C":
        return _adopt(f.grid, np.multiply(1j, f.values))
    raise ConfigurationError(f"unknown generator {gen!r}; expected 'M', 'D' or 'C'")


def conjugate_by_fourier(xi: GroupElement) -> GroupElement:
    """F U(xi) F^{-1} = U((-xi2, xi1, xi3 - xi1*xi2))."""
    return GroupElement(-xi.xi2, xi.xi1, xi.xi3 - xi.xi1 * xi.xi2)


def random_in_semigroup(rng: np.random.Generator, base: str, size=None) -> GroupElement:
    """Rejection-free sampler of members of the semigroup named base.

    size as in numpy: None draws one element, n >= 0 gives array components.
    Draw order: x1, x2, x3, then the extra coordinate of S1, S2 or S4."""
    semigroup = _semigroup(base)
    if size is not None:
        require_order("size", size)
    x1 = rng.uniform(0.0, 5.0, size)
    x2 = rng.uniform(0.0, 5.0, size)
    x3 = rng.uniform(-5.0, 5.0, size)
    return GroupElement(*semigroup.sample(
        x1, x2, x3, lambda low, high: rng.uniform(low, high, size)))


def element_from_lie(v: LieElement, t: float = 1.0) -> GroupElement:
    """Straight-line parameterization t*v used by convergence diagnostics."""
    return GroupElement(t * v.a, t * v.b, t * v.c)
