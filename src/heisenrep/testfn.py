"""Closed-form test functions with exact derivative, support, and moment oracles.

A descriptor is one of two immutable nodes: `GaussianPoly` or
`PiecewisePoly`.  The constructors below return one of them, already
lowered, so no descriptor is a tree.  Moments and L^2 norms of a
`PiecewisePoly` are computed in closed form; Gaussian descriptors evaluate
pointwise but signal `NotExactlyIntegrable` when an exact moment is
requested.

Conventions:
  Affine(f, r, s, g)(x) = g * f(r * (x - s))   (r != 0)
  Translated(f, s)      = Affine(f, shift=s):  f(x - s), support moves right for s > 0
  Mirrored(f)           = Affine(f, rate=-1):  f(-x)
  Summed(terms)         = one PiecewisePoly holding every term's pieces
  CompactBump(a, b, p)  = one PiecewisePoly piece: (x - a)^p (b - x)^p on (a, b)
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    CapabilityError, ConfigurationError, NotExactlyIntegrable, require_order, require_type,
)
from .grid import GridSpec, SampledFunction

# midpoint-rule cells per support interval in exact_l1_norm
L1_CELLS = 4096

TestFunction = Union["GaussianPoly", "PiecewisePoly"]


def _require_finite(node: str, coefficients, **fields) -> tuple:
    """Refuse a non-finite field by name, then a non-finite coefficient by
    index (an int past the float range or a non-number is non-finite), and
    return the coefficients as Python floats, or Python complex numbers where
    they are not real, so equal coefficients compute alike whatever their type."""
    for name, value in fields.items():
        if not _is_finite(value):
            raise ConfigurationError(f"{node} {name} must be finite, got {value!r}")
    kept = []
    for j, cj in enumerate(coefficients):
        if not _is_finite(cj):
            raise ConfigurationError(f"{node} coefficient {j} must be finite, got {cj!r}")
        # the ABC check is slow, so floats and ints (numpy's float64 too) pass first
        real = isinstance(cj, (float, int)) or isinstance(cj, numbers.Real)
        kept.append(float(cj) if real else complex(cj))
    return tuple(kept)


def _is_finite(value) -> bool:
    try:
        return cmath.isfinite(value)
    except (OverflowError, TypeError):  # an int too large for a float, or not a number
        return False


@dataclass(frozen=True)
class GaussianPoly:
    """p(x - c) * exp(-(x - c)^2 / (2 w^2)); coefficients ascending in (x - c)."""
    center: float
    width: float
    coefficients: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        _require_finite("GaussianPoly", self.coefficients, center=self.center, width=self.width)
        if self.width <= 0:
            raise ConfigurationError("GaussianPoly width must be positive")
        # sampling divides by 2 w^2 and differentiating by w^2
        square = float(self.width) * float(self.width)
        if not (square > 0.0 and 1.0 / square < math.inf and 2.0 * square < math.inf):
            raise ConfigurationError(
                f"GaussianPoly width {self.width!r} has a square beyond the float range")


@dataclass(frozen=True)
class Piece:
    """Polynomial in the local variable v = (x - x0)/scale on (a, b).

    The local offset and scale keep coefficient magnitudes stable no matter
    how far the piece sits from the origin or how wide it is; translation
    and dilation of pieces touch only x0/scale, never the coefficients.
    """
    x0: float
    a: float
    b: float
    coefficients: Tuple[complex, ...]
    scale: float = 1.0

    def __post_init__(self):
        coefficients = _require_finite("piece", self.coefficients,
                                       x0=self.x0, a=self.a, b=self.b, scale=self.scale)
        if not coefficients:
            raise ConfigurationError("piece needs at least one coefficient")
        object.__setattr__(self, "coefficients", coefficients)
        # a == b stays allowed: a narrow piece far from the origin can round
        # to a single point
        if not self.a <= self.b:
            raise ConfigurationError(f"piece needs a <= b, got ({self.a}, {self.b})")
        if not self.scale > 0:
            raise ConfigurationError("piece scale must be positive")


@dataclass(frozen=True)
class PiecewisePoly:
    """Sum of polynomial pieces; `smooth` is the trusted derivative budget."""
    pieces: Tuple[Piece, ...]
    smooth: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))


def Affine(inner: TestFunction, rate: float = 1.0, shift: float = 0.0,
           gain: complex = 1.0) -> TestFunction:
    """gain * inner(rate * (x - shift)): a change of variable times a constant.

    A piece maps x0 -> x0/r + s, (a, b) -> sorted((a/r + s, b/r + s)),
    scale -> scale/|r| and c_j -> gain (sign r)^j c_j: the coefficients see
    only signs and the gain, so no rate over/underflows them.  A Gaussian
    maps to center s + c/r, width w/|r| and coefficients gain r^j c_j.
    """
    _require_finite("Affine", (), rate=rate, shift=shift, gain=gain)
    r, s = rate, shift
    if r == 0:
        raise ConfigurationError("Affine rate must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, or by the node built
        if isinstance(inner, GaussianPoly):
            rate_powers = _powers(float(r), len(inner.coefficients))
            c = tuple(gain * rj * cj for rj, cj in zip(rate_powers, inner.coefficients))
            if not all(map(cmath.isfinite, c)):
                raise ConfigurationError(f"Affine rate {r} and gain {gain} take the coefficients "
                                         f"of {inner!r} beyond the float range")
            return GaussianPoly(s + inner.center / r, inner.width / abs(r), c)
        inner = to_piecewise(inner)
        pieces = []
        for pc in inner.pieces:
            c = pc.coefficients
            if r < 0:
                c = tuple(cj * (-1.0) ** j for j, cj in enumerate(c))
            a, b = sorted((pc.a / r + s, pc.b / r + s))
            pieces.append(Piece(pc.x0 / r + s, a, b, tuple(gain * cj for cj in c),
                                pc.scale / abs(r)))
    return PiecewisePoly(tuple(pieces), smooth=inner.smooth)


def Translated(inner: TestFunction, shift: float) -> TestFunction:
    return Affine(inner, shift=shift)


def Mirrored(inner: TestFunction) -> TestFunction:
    return Affine(inner, rate=-1.0)


def CompactBump(a: float, b: float, p: int) -> PiecewisePoly:
    """(x - a)^p (b - x)^p on (a, b), zero outside; C^(p-1) on the line.

    One piece in v = (x - x0)/half: half^{2p} (1 - v^2)^p, whose coefficient
    of v^{2j} is (-1)^j C(p, j) half^{2p}.
    """
    if not a < b:
        raise ConfigurationError("CompactBump needs a < b")
    require_type("CompactBump p", p, numbers.Integral, "an integer")
    if p < 1:
        raise ConfigurationError("CompactBump needs p >= 1")
    _require_float_binomials(p)
    x0 = 0.5 * (a + b)
    half = 0.5 * (b - a)
    c = np.zeros(2 * p + 1)
    c[::2] = [(-1) ** j * math.comb(p, j) for j in range(p + 1)]
    # libm's pow, as Python's **; past the float range inf, which Piece refuses
    with np.errstate(over="ignore", invalid="ignore"):
        c = c * np.float_power(half, 2 * p)
    return PiecewisePoly((Piece(x0, a, b, tuple(c), half),), smooth=p - 1)


def Summed(terms) -> PiecewisePoly:
    """The sum of polynomial descriptors: their pieces side by side, with the
    smallest smoothness budget among them (0 for no terms)."""
    terms = [to_piecewise(t) for t in terms]
    return PiecewisePoly(tuple(pc for t in terms for pc in t.pieces),
                         smooth=min((t.smooth for t in terms), default=0))


# ---------------------------------------------------------------------------
# evaluation

def evaluate(tf: TestFunction, x) -> np.ndarray:
    """Pointwise value at x (scalar or array); exactly zero outside support."""
    x = np.asarray(x, dtype=float)
    out = _eval(tf, x)
    return out if out.shape else out[()]


def _eval(tf, x) -> np.ndarray:
    if isinstance(tf, GaussianPoly):
        u = x - tf.center
        return _horner(u, tf.coefficients) * np.exp(-(u * u) / (2.0 * tf.width ** 2)) + 0j
    if isinstance(tf, PiecewisePoly):
        return _eval_pieces(tf.pieces, x)
    raise ConfigurationError(f"not a TestFunction descriptor: {tf!r}")


def _eval_pieces(pieces, x) -> np.ndarray:
    """The sum of the pieces at x, each exactly zero outside (a, b)."""
    acc = np.zeros(np.shape(x), dtype=complex)
    for pc in pieces:
        inside = (x > pc.a) & (x < pc.b)
        if inside.all():  # no cell to mask
            acc += _horner((x - pc.x0) / pc.scale, pc.coefficients)
        elif inside.any():
            v = (np.where(inside, x, pc.x0) - pc.x0) / pc.scale
            acc += np.where(inside, _horner(v, pc.coefficients), 0.0)
    return acc


def _horner(v, coefficients):
    """P.polyval(v, coefficients), bit for bit on finite v, in one array
    updated in place: the same c_j + acc * v steps from the top down."""
    c = np.asarray(coefficients)
    acc = c[-1] + v * 0
    for cj in c[-2::-1]:
        acc *= v
        acc += cj
    return acc


def sample(tf: TestFunction, grid: GridSpec) -> SampledFunction:
    """Samples of tf on the grid points; NaN or infinite samples are refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        values = np.atleast_1d(evaluate(tf, grid.points))
    if not np.isfinite(values).all():
        raise ConfigurationError(f"{tf!r} has non-finite samples on the grid")
    return SampledFunction(grid, values)


# ---------------------------------------------------------------------------
# smoothness and support

def smoothness_budget(tf: TestFunction) -> float:
    """Largest derivative order that keeps the descriptor in closed form."""
    if isinstance(tf, GaussianPoly):
        return math.inf
    if isinstance(tf, PiecewisePoly):
        return tf.smooth
    raise ConfigurationError(f"not a TestFunction descriptor: {tf!r}")


def support(tf: TestFunction):
    """Finite union of intervals, as a tuple of (lo, hi) pairs (may be infinite)."""
    if isinstance(tf, GaussianPoly):
        return ((-math.inf, math.inf),)
    if isinstance(tf, PiecewisePoly):
        return _merge_intervals([(pc.a, pc.b) for pc in tf.pieces])
    raise ConfigurationError(f"not a TestFunction descriptor: {tf!r}")


def _merge_intervals(ivals):
    ivals = sorted(ivals)
    merged = []
    for lo, hi in ivals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


# ---------------------------------------------------------------------------
# derivatives

def derivative(tf: TestFunction, k: int) -> TestFunction:
    """Exact k-th derivative as a new descriptor.

    Raises CapabilityError when k exceeds the smoothness budget (e.g. order
    p of a CompactBump(a, b, p): only p-1 derivatives stay continuous).
    """
    require_order("derivative order", k)
    if k == 0:
        return tf
    budget = smoothness_budget(tf)
    if k > budget:
        raise CapabilityError(
            f"derivative order {k} exceeds smoothness budget {budget} of {type(tf).__name__}"
        )
    return _deriv(tf, k)


def _deriv(tf, k):
    if isinstance(tf, GaussianPoly):
        # the coefficients keep their dtype: a complex gain makes them complex
        c = np.asarray(tf.coefficients)
        for _ in range(k):
            # d/dx [p(u) e^{-u^2/2w^2}] = (p'(u) - p(u) u / w^2) e^{-u^2/2w^2}
            c = P.polysub(P.polyder(c), P.polymul([0.0, 1.0 / tf.width ** 2], c))
        return GaussianPoly(tf.center, tf.width, tuple(c))
    # derivative() has already refused anything but the two node types
    pieces = []
    for pc in tf.pieces:
        c = np.asarray(pc.coefficients)
        for _ in range(k):
            c = P.polyder(c) / pc.scale
        pieces.append(Piece(pc.x0, pc.a, pc.b, tuple(c), pc.scale))
    return PiecewisePoly(tuple(pieces), smooth=tf.smooth - k)


# ---------------------------------------------------------------------------
# piecewise-polynomial forms

def _require_float_binomials(n: int) -> None:
    """Refuse a degree n whose middle binomial passes the float range (from
    1030 on); past 1100 none is computed, as C(n, n // 2) >= 2^n / (n + 1)."""
    if n > 1100 or math.comb(n, n // 2) > sys.float_info.max:
        raise ConfigurationError(f"binomials of degree {n} lie beyond the float range")


@functools.lru_cache(maxsize=None)
def _pascal(n: int):
    """Read-only [j, i] tables for degrees below n: comb(j, i), the power
    j - i of the shift (0 where i > j), and the mask of the terms i <= j;
    a degree past _require_float_binomials is refused before any table is
    built."""
    _require_float_binomials(n - 1)
    # Pascal's rule in exact integers, row j padded with zeros past i = j,
    # and one rounding to float per entry
    rows, row = [], [1]
    for jj in range(n):
        rows.append(row + [0] * (n - 1 - jj))
        row = [1, *map(operator.add, row, row[1:]), 1]
    j, i = np.ogrid[:n, :n]
    tables = (np.array(rows, dtype=float), np.maximum(j - i, 0), i <= j)
    for t in tables:
        t.setflags(write=False)
    return tables


def _affine_poly(coeffs, alpha: float, beta: float) -> np.ndarray:
    """Coefficients of P(alpha*w + beta) given those of P(v).

    Output i sums the terms ((c_j * C(j, i)) * alpha^i) * beta^(j-i) over
    j >= i in increasing j: a cumulative sum along j, not a pairwise np.sum.
    """
    n = len(coeffs)
    binom, shift, upper = _pascal(n)
    c = np.asarray(coeffs)[:, None]
    alpha_pow = np.array(_powers(alpha, n))
    beta_pow = np.array(_powers(beta, n))[shift]
    terms = np.where(upper, c * binom * alpha_pow * beta_pow, 0.0)
    return np.cumsum(terms, axis=0)[-1]


def to_piecewise(tf: TestFunction) -> PiecewisePoly:
    """tf itself when it is a PiecewisePoly; every other descriptor has no
    exact piecewise-polynomial form."""
    if isinstance(tf, PiecewisePoly):
        return tf
    raise NotExactlyIntegrable(
        f"{type(tf).__name__} has no exact piecewise-polynomial form; use quadrature"
    )


# ---------------------------------------------------------------------------
# exact integrals

def _powers(base: float, count: int) -> list:
    """base ** m for m = 0..count-1 by Python's scalar pow (np.power's
    vector kernel rounds differently); a power past the float range is NaN,
    so every value computed from it is refused where it is read."""
    out = []
    try:
        for m in range(count):
            out.append(base ** m)
    except OverflowError:  # so does every higher power
        out += [math.nan] * (count - len(out))
    return out


def _fsum_or_nan(terms) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum past the range; inf - inf
        return math.nan


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry is refused when read
def _piece_moments(pc: Piece, n_max: int) -> list:
    """integrals over (a, b) of x^n P((x - x0)/scale) dx, n = 0..n_max, in
    closed form; an entry beyond the float range is NaN or infinite.

    Substituting x = x0 + scale*v keeps every power of v order-one; the
    large magnitudes enter only through x0^{n-i} * scale^{i+1} factors.
    Order n sums its (n+1) x len(c) terms w_i c_j (B^q - A^q) / q,
    w_i = C(n, i) x0^{n-i} scale^{i+1} and q = i + j + 1, with one fsum;
    fsum is correctly rounded, so the order of the terms is immaterial.  The
    terms of every order come from one set of power tables.
    """
    s = pc.scale
    A = (pc.a - pc.x0) / s
    B = (pc.b - pc.x0) / s
    c = np.asarray(pc.coefficients)
    orders, size = n_max + 1, len(c)
    binom, shift, _ = _pascal(orders)
    # w[n, i] = (C(n, i) x0^(n-i)) s^(i+1); entries i > n are never summed
    w = binom * np.array(_powers(pc.x0, orders))[shift] * np.array(_powers(s, orders + 1)[1:])
    q = np.add.outer(np.arange(orders), np.arange(1, size + 1))
    ends = [bm - am for am, bm in zip(_powers(A, orders + size), _powers(B, orders + size))]
    t = w[:, :, None] * c * np.array(ends)[q]  # t[n, i, j] = w[n, i] c_j (B^q - A^q)
    if t.dtype.kind != "c":
        rows = (t / q).reshape(orders, -1).tolist()
        return [complex(_fsum_or_nan(rows[n][:(n + 1) * size]), 0.0) for n in range(orders)]
    re, im = ((part / q).reshape(orders, -1).tolist() for part in (t.real, t.imag))
    return [complex(_fsum_or_nan(re[n][:(n + 1) * size]), _fsum_or_nan(im[n][:(n + 1) * size]))
            for n in range(orders)]


def _finite(quantity: str, tf: TestFunction, value):
    """value, or ConfigurationError if it is beyond the float range: the one
    check of a closed form, made where its value is read."""
    if not cmath.isfinite(value):
        raise ConfigurationError(f"{quantity} of {tf!r} is not finite in floating point")
    return value


def exact_moment(tf: TestFunction, n: int) -> complex:
    """Closed-form integral of x^n * tf(x) over the line.

    Only a PiecewisePoly qualifies; a Gaussian raises NotExactlyIntegrable,
    and a moment beyond the float range ConfigurationError.  A descriptor
    with real coefficients has an imaginary part of exactly 0.
    """
    require_order("moment order", n)
    return _summed_moment(tf, [_piece_moments(pc, n) for pc in to_piecewise(tf).pieces], n)


def exact_moments(tf: TestFunction, n_max: int) -> list:
    """[exact_moment(tf, n) for n = 0..n_max], bit for bit, from one moment
    table per piece; the lowest order beyond the float range is refused as
    exact_moment refuses it."""
    require_order("moment order", n_max)
    tables = [_piece_moments(pc, n_max) for pc in to_piecewise(tf).pieces]
    return [_summed_moment(tf, tables, n) for n in range(n_max + 1)]


def _summed_moment(tf: TestFunction, tables, n: int) -> complex:
    """The order-n moment of tf from the moment tables of its pieces, as
    `exact_moment` returns it, refused the same way."""
    return _finite(f"the order-{n} moment", tf, complex(_fsum_or_nan(t[n].real for t in tables),
                                                        _fsum_or_nan(t[n].imag for t in tables)))


def exact_l2_norm(tf: TestFunction) -> float:
    """Closed-form L^2 norm; handles overlapping pieces by refinement.

    Each elementary interval between piece endpoints is mapped to (-1, 1)
    (w = (x - mid)/half) and every covering piece is re-expressed there via
    a well-conditioned affine substitution before squaring and integrating.
    A squared norm beyond the float range raises ConfigurationError.
    """
    squared = _l2_squared(to_piecewise(tf))  # 0 for the zero function
    return math.sqrt(max(_finite("the squared L^2 norm", tf, squared), 0.0))


@np.errstate(over="ignore", invalid="ignore")  # exact_l2_norm refuses a non-finite sum
def _l2_squared(low: PiecewisePoly) -> float:
    cuts = sorted({pc.a for pc in low.pieces} | {pc.b for pc in low.pieces})
    total = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        # v = (x - x0)/s = (half/s) * w + (mid - x0)/s
        parts = [_affine_poly(pc.coefficients, half / pc.scale, (mid - pc.x0) / pc.scale)
                 for pc in low.pieces if pc.a <= lo and hi <= pc.b]
        combined = np.zeros(max(map(len, parts), default=1), dtype=complex)
        for part in parts:
            combined[:len(part)] += part
        if not np.any(combined):
            continue
        sq = np.convolve(np.conj(combined), combined)
        # the even terms (c_j * 2 * half / (j + 1)).real, j = 0, 2, 4, ...
        total.extend((sq[::2] * 2.0 * half / np.arange(1, len(sq) + 1, 2)).real.tolist())
    return _fsum_or_nan(total)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is refused at the end
def exact_l1_norm(tf: TestFunction) -> float:
    """L^1 norm of a compact descriptor by dense Gauss-free quadrature.

    Not exact (|f| is not polynomial) but accurate far beyond its uses
    (degeneracy guards and relative-defect denominators).  Each support
    interval evaluates only the pieces that meet it.  The zero function has
    norm 0; a norm beyond the float range raises ConfigurationError.
    """
    sup = support(tf)
    if sup and sup[0][0] == -math.inf:
        raise NotExactlyIntegrable("L^1 quadrature needs compact support")
    pieces = to_piecewise(tf).pieces
    total = 0.0
    for lo, hi in sup:
        xs = np.linspace(lo, hi, L1_CELLS, endpoint=False) + 0.5 * (hi - lo) / L1_CELLS
        met = [pc for pc in pieces if pc.a < hi and lo < pc.b]
        total += float(np.mean(np.abs(_eval_pieces(met, xs))) * (hi - lo))
    return _finite("the L^1 norm", tf, total)
