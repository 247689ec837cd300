"""Closed-form test functions with exact derivative, support, and moment oracles.

Descriptors form an immutable tree.  Compactly supported polynomial trees
lower to a canonical piecewise-polynomial form (`to_piecewise`) on which
moments and L^2 norms are computed in closed form; Gaussian and modulated
descriptors evaluate pointwise but signal `NotExactlyIntegrable` when an
exact moment is requested.

Conventions:
  Translated(f, s)(x) = f(x - s)      (support moves right for s > 0)
  Scaled(f, r)(x)     = f(r * x)
  Mirrored(f)(x)      = f(-x)
  Modulated(f, w, t)(x) = exp(i t) exp(i w x) f(x)
  Amplified(f, g)(x)  = g * f(x)
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Tuple, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import CapabilityError, ConfigurationError, NotExactlyIntegrable, require_type
from .grid import GridSpec, SampledFunction

# midpoint-rule cells per support interval in exact_l1_norm
L1_CELLS = 4096

TestFunction = Union[
    "GaussianPoly", "CompactBump", "PiecewisePoly", "Derivative",
    "Translated", "Mirrored", "Scaled", "Modulated", "Amplified", "Summed",
]


@dataclass(frozen=True)
class GaussianPoly:
    """p(x - c) * exp(-(x - c)^2 / (2 w^2)); coefficients ascending in (x - c)."""
    center: float
    width: float
    coefficients: Tuple[float, ...]

    def __post_init__(self):
        if self.width <= 0:
            raise ConfigurationError("GaussianPoly width must be positive")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


@dataclass(frozen=True)
class CompactBump:
    """(x - a)^p (b - x)^p on (a, b), zero outside; C^(p-1) on the line."""
    a: float
    b: float
    p: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ConfigurationError("CompactBump needs a < b")
        require_type("CompactBump p", self.p, numbers.Integral, "an integer")
        if self.p < 1:
            raise ConfigurationError("CompactBump needs p >= 1")


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
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise ConfigurationError("piece needs at least one coefficient")
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


@dataclass(frozen=True)
class Derivative:
    inner: TestFunction
    order: int


@dataclass(frozen=True)
class Translated:
    inner: TestFunction
    shift: float


@dataclass(frozen=True)
class Mirrored:
    inner: TestFunction


@dataclass(frozen=True)
class Scaled:
    inner: TestFunction
    rate: float

    def __post_init__(self):
        if self.rate == 0:
            raise ConfigurationError("Scaled rate must be nonzero")


@dataclass(frozen=True)
class Modulated:
    inner: TestFunction
    omega: float
    theta: float = 0.0


@dataclass(frozen=True)
class Amplified:
    inner: TestFunction
    gain: complex


@dataclass(frozen=True)
class Summed:
    terms: Tuple[TestFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


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
        return P.polyval(u, tf.coefficients) * np.exp(-(u * u) / (2.0 * tf.width ** 2)) + 0j
    if isinstance(tf, CompactBump):
        inside = (x > tf.a) & (x < tf.b)
        u = np.where(inside, x, tf.a)
        val = (u - tf.a) ** tf.p * (tf.b - u) ** tf.p
        return np.where(inside, val, 0.0) + 0j
    if isinstance(tf, PiecewisePoly):
        acc = np.zeros(np.shape(x), dtype=complex)
        for pc in tf.pieces:
            inside = (x > pc.a) & (x < pc.b)
            if np.any(inside):
                v = (np.where(inside, x, pc.x0) - pc.x0) / pc.scale
                acc = acc + np.where(inside, P.polyval(v, np.asarray(pc.coefficients)), 0.0)
        return acc
    if isinstance(tf, Derivative):
        return _eval(derivative(tf.inner, tf.order), x)
    if isinstance(tf, Translated):
        return _eval(tf.inner, x - tf.shift)
    if isinstance(tf, Mirrored):
        return _eval(tf.inner, -x)
    if isinstance(tf, Scaled):
        return _eval(tf.inner, tf.rate * x)
    if isinstance(tf, Modulated):
        return np.exp(1j * tf.theta) * np.exp(1j * tf.omega * x) * _eval(tf.inner, x)
    if isinstance(tf, Amplified):
        return tf.gain * _eval(tf.inner, x)
    if isinstance(tf, Summed):
        acc = np.zeros(np.shape(x), dtype=complex)
        for t in tf.terms:
            acc = acc + _eval(t, x)
        return acc
    raise TypeError(f"not a TestFunction descriptor: {tf!r}")


def sample(tf: TestFunction, grid: GridSpec) -> SampledFunction:
    """Samples of tf on the grid points; NaN or infinite samples are refused."""
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
    if isinstance(tf, CompactBump):
        return tf.p - 1
    if isinstance(tf, PiecewisePoly):
        return tf.smooth
    if isinstance(tf, Derivative):
        return smoothness_budget(tf.inner) - tf.order
    if isinstance(tf, (Translated, Mirrored, Scaled, Modulated, Amplified)):
        return smoothness_budget(tf.inner)
    if isinstance(tf, Summed):
        return min((smoothness_budget(t) for t in tf.terms), default=math.inf)
    raise TypeError(f"not a TestFunction descriptor: {tf!r}")


def support(tf: TestFunction):
    """Finite union of intervals, as a tuple of (lo, hi) pairs (may be infinite)."""
    if isinstance(tf, GaussianPoly):
        return ((-math.inf, math.inf),)
    if isinstance(tf, CompactBump):
        return ((tf.a, tf.b),)
    if isinstance(tf, PiecewisePoly):
        return _merge_intervals([(pc.a, pc.b) for pc in tf.pieces])
    if isinstance(tf, Derivative):
        return support(tf.inner)
    if isinstance(tf, Translated):
        return tuple((lo + tf.shift, hi + tf.shift) for lo, hi in support(tf.inner))
    if isinstance(tf, Mirrored):
        return _merge_intervals([(-hi, -lo) for lo, hi in support(tf.inner)])
    if isinstance(tf, Scaled):
        ivals = [(lo / tf.rate, hi / tf.rate) for lo, hi in support(tf.inner)]
        if tf.rate < 0:
            ivals = [(hi, lo) for lo, hi in ivals]
        return _merge_intervals(ivals)
    if isinstance(tf, (Modulated, Amplified)):
        return support(tf.inner)
    if isinstance(tf, Summed):
        acc = []
        for t in tf.terms:
            acc.extend(support(t))
        return _merge_intervals(acc)
    raise TypeError(f"not a TestFunction descriptor: {tf!r}")


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
    if k < 0:
        raise ConfigurationError("derivative order must be nonnegative")
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
        c = np.asarray(tf.coefficients, dtype=float)
        for _ in range(k):
            # d/dx [p(u) e^{-u^2/2w^2}] = (p'(u) - p(u) u / w^2) e^{-u^2/2w^2}
            c = P.polysub(P.polyder(c), P.polymul([0.0, 1.0 / tf.width ** 2], c))
        return GaussianPoly(tf.center, tf.width, tuple(c))
    if isinstance(tf, CompactBump):
        return _deriv(_bump_to_piecewise(tf), k)
    if isinstance(tf, PiecewisePoly):
        pieces = []
        for pc in tf.pieces:
            c = np.asarray(pc.coefficients)
            for _ in range(k):
                c = P.polyder(c) / pc.scale
            pieces.append(Piece(pc.x0, pc.a, pc.b, tuple(c), pc.scale))
        return PiecewisePoly(tuple(pieces), smooth=tf.smooth - k)
    if isinstance(tf, Derivative):
        return derivative(tf.inner, tf.order + k)
    if isinstance(tf, Translated):
        return Translated(_deriv(tf.inner, k), tf.shift)
    if isinstance(tf, Mirrored):
        d = Mirrored(_deriv(tf.inner, k))
        return d if k % 2 == 0 else Amplified(d, -1.0)
    if isinstance(tf, Scaled):
        return Amplified(Scaled(_deriv(tf.inner, k), tf.rate), tf.rate ** k)
    if isinstance(tf, Modulated):
        inner = tf.inner
        for _ in range(k):
            inner = Summed((Amplified(inner, 1j * tf.omega), _deriv(inner, 1)))
        return Modulated(inner, tf.omega, tf.theta)
    if isinstance(tf, Amplified):
        return Amplified(_deriv(tf.inner, k), tf.gain)
    if isinstance(tf, Summed):
        return Summed(tuple(_deriv(t, k) for t in tf.terms))
    raise TypeError(f"not a TestFunction descriptor: {tf!r}")


# ---------------------------------------------------------------------------
# exact piecewise-polynomial lowering

@functools.lru_cache(maxsize=None)
def _pascal(n: int):
    """Read-only [j, i] tables for degrees below n: comb(j, i), the power
    j - i of the shift (0 where i > j), and the mask of the terms i <= j."""
    j, i = np.ogrid[:n, :n]
    tables = (np.array([[float(math.comb(jj, ii)) for ii in range(n)] for jj in range(n)]),
              np.maximum(j - i, 0), i <= j)
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
    alpha_pow = np.array([alpha ** i for i in range(n)])
    beta_pow = np.array([beta ** m for m in range(n)])[shift]
    terms = np.where(upper, c * binom * alpha_pow * beta_pow, 0.0)
    return np.cumsum(terms, axis=0)[-1]


def _bump_to_piecewise(tf: CompactBump) -> PiecewisePoly:
    x0 = 0.5 * (tf.a + tf.b)
    half = 0.5 * (tf.b - tf.a)
    # in v = (x - x0)/half:  (x-a)^p (b-x)^p = half^{2p} (1 - v^2)^p,
    # whose coefficient of v^{2j} is (-1)^j C(p, j)
    c = np.zeros(2 * tf.p + 1)
    c[::2] = [(-1) ** j * math.comb(tf.p, j) for j in range(tf.p + 1)]
    c = c * half ** (2 * tf.p)
    return PiecewisePoly((Piece(x0, tf.a, tf.b, tuple(c), half),), smooth=tf.p - 1)


def to_piecewise(tf: TestFunction) -> PiecewisePoly:
    """Canonical compact piecewise-polynomial form; exact for polynomial trees."""
    if isinstance(tf, CompactBump):
        return _bump_to_piecewise(tf)
    if isinstance(tf, PiecewisePoly):
        return tf
    if isinstance(tf, Derivative):
        return to_piecewise(derivative(tf.inner, tf.order))
    if isinstance(tf, Translated):
        inner = to_piecewise(tf.inner)
        s = tf.shift
        return PiecewisePoly(
            tuple(Piece(pc.x0 + s, pc.a + s, pc.b + s, pc.coefficients, pc.scale)
                  for pc in inner.pieces),
            smooth=inner.smooth,
        )
    if isinstance(tf, Mirrored):
        inner = to_piecewise(tf.inner)
        pieces = []
        for pc in inner.pieces:
            c = tuple(cj * (-1.0) ** j for j, cj in enumerate(pc.coefficients))
            pieces.append(Piece(-pc.x0, -pc.b, -pc.a, c, pc.scale))
        return PiecewisePoly(tuple(pieces), smooth=inner.smooth)
    if isinstance(tf, Scaled):
        r = tf.rate
        if r < 0:
            return to_piecewise(Scaled(Mirrored(tf.inner), -r))
        inner = to_piecewise(tf.inner)
        # f(r x): only the local frame moves; coefficients are untouched,
        # which keeps extreme dilation rates free of over/underflow
        return PiecewisePoly(
            tuple(Piece(pc.x0 / r, pc.a / r, pc.b / r, pc.coefficients, pc.scale / r)
                  for pc in inner.pieces),
            smooth=inner.smooth,
        )
    if isinstance(tf, Amplified):
        inner = to_piecewise(tf.inner)
        return PiecewisePoly(
            tuple(Piece(pc.x0, pc.a, pc.b,
                        tuple(tf.gain * cj for cj in pc.coefficients), pc.scale)
                  for pc in inner.pieces),
            smooth=inner.smooth,
        )
    if isinstance(tf, Summed):
        pieces = []
        smooth = math.inf
        for t in tf.terms:
            low = to_piecewise(t)
            pieces.extend(low.pieces)
            smooth = min(smooth, low.smooth)
        return PiecewisePoly(tuple(pieces), smooth=int(smooth) if smooth != math.inf else 0)
    raise NotExactlyIntegrable(
        f"{type(tf).__name__} has no exact piecewise-polynomial form; use quadrature"
    )


# ---------------------------------------------------------------------------
# exact integrals

def _piece_moment(pc: Piece, n: int) -> complex:
    """integral over (a, b) of x^n P((x - x0)/scale) dx in closed form.

    Substituting x = x0 + scale*v keeps every power of v order-one; the
    large magnitudes enter only through x0^{n-i} * scale^{i+1} factors.
    The terms w_i c_j (B^q - A^q) / q, q = i + j + 1, form one table; fsum
    is correctly rounded, so the order in which they are summed is immaterial.
    """
    s = pc.scale
    A = (pc.a - pc.x0) / s
    B = (pc.b - pc.x0) / s
    c = np.asarray(pc.coefficients)
    q = np.add.outer(np.arange(n + 1), np.arange(1, len(c) + 1))
    # Python's scalar pow, not np.power, whose vector kernel rounds differently
    w = np.array([math.comb(n, i) * pc.x0 ** (n - i) * s ** (i + 1)
                  for i in range(n + 1)])[:, None]
    t = w * c * np.array([B ** m - A ** m for m in range(n + len(c) + 1)])[q]
    if t.dtype.kind != "c":
        return complex(math.fsum((t / q).ravel().tolist()), 0.0)
    # numpy complex scalars divide by multiplying with 1/q, Python ones by dividing
    by_reciprocal = [isinstance(cj, np.complexfloating) for cj in pc.coefficients]
    re, im = (np.where(by_reciprocal, part * (1.0 / q), part / q) for part in (t.real, t.imag))
    return complex(math.fsum(re.ravel().tolist()), math.fsum(im.ravel().tolist()))


def exact_moment(tf: TestFunction, n: int):
    """Closed-form integral of x^n * tf(x) over the line.

    Only descriptor trees that lower to piecewise polynomials qualify;
    Gaussian or modulated trees raise NotExactlyIntegrable.  The result is
    a float when its imaginary part is at most 1e-14 of its real part.
    """
    parts = [_piece_moment(pc, n) for pc in to_piecewise(tf).pieces]
    m = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
    if abs(m.imag) <= 1e-14 * abs(m.real):
        return m.real
    return m


def exact_l2_norm(tf: TestFunction) -> float:
    """Closed-form L^2 norm; handles overlapping pieces by refinement.

    Each elementary interval between piece endpoints is mapped to (-1, 1)
    (w = (x - mid)/half) and every covering piece is re-expressed there via
    a well-conditioned affine substitution before squaring and integrating.
    """
    low = to_piecewise(tf)
    if not low.pieces:
        return 0.0
    cuts = sorted({pc.a for pc in low.pieces} | {pc.b for pc in low.pieces})
    total = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        combined = np.zeros(1, dtype=complex)
        for pc in low.pieces:
            if pc.a <= lo and hi <= pc.b:
                # v = (x - x0)/s = (half/s) * w + (mid - x0)/s
                shifted = _affine_poly(pc.coefficients, half / pc.scale,
                                       (mid - pc.x0) / pc.scale)
                combined = P.polyadd(combined, shifted)
        if not np.any(combined):
            continue
        sq = P.polymul(np.conj(combined), combined)
        for j, cj in enumerate(sq):
            if j % 2 == 0:
                total.append((cj * 2.0 * half / (j + 1)).real)
    return math.sqrt(max(math.fsum(total), 0.0))


def exact_l1_norm(tf: TestFunction) -> float:
    """L^1 norm of a compact descriptor by dense Gauss-free quadrature.

    Not exact (|f| is not polynomial) but accurate far beyond its uses
    (degeneracy guards and relative-defect denominators).
    """
    sup = support(tf)
    if not sup or sup[0][0] == -math.inf:
        raise NotExactlyIntegrable("L^1 quadrature needs compact support")
    total = 0.0
    for lo, hi in sup:
        xs = np.linspace(lo, hi, L1_CELLS, endpoint=False) + 0.5 * (hi - lo) / L1_CELLS
        total += float(np.mean(np.abs(evaluate(tf, xs))) * (hi - lo))
    return total


# ---------------------------------------------------------------------------
# JSON form: the tag plus the dataclass fields.  Field annotations pick the
# encoding: descriptors recurse, pieces are untagged field dicts, complex
# values are [re, im] and tuples are lists.

_TAGS = {
    "gaussian_poly": GaussianPoly, "compact_bump": CompactBump,
    "piecewise_poly": PiecewisePoly, "derivative": Derivative,
    "translated": Translated, "mirrored": Mirrored, "scaled": Scaled,
    "modulated": Modulated, "amplified": Amplified, "summed": Summed,
}
_TAG_OF = {cls: tag for tag, cls in _TAGS.items()}


def _convert(value, kind: str, decode: bool):
    """Encode (or decode) one field value by its annotation `kind`."""
    if kind.startswith("Tuple["):  # "Tuple[X, ...]" holds X
        items = [_convert(v, kind[6:-6], decode) for v in value]
        return tuple(items) if decode else items
    if kind == "complex":
        return complex(*value) if decode else [complex(value).real, complex(value).imag]
    if kind == "TestFunction":
        return from_json(value) if decode else to_json(value)
    if kind == "Piece":
        return _fields_from_json(Piece, value) if decode else _fields_to_json(value)
    return value


def _fields_to_json(obj) -> dict:
    return {f.name: _convert(getattr(obj, f.name), f.type, False) for f in fields(obj)}


def _fields_from_json(cls, obj: dict):
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is MISSING]
    if missing:
        raise ConfigurationError(f"{cls.__name__} JSON lacks fields {missing}")
    kwargs = {f.name: _convert(obj[f.name], f.type, True) for f in fields(cls) if f.name in obj}
    return cls(**kwargs)


def to_json(tf: TestFunction) -> dict:
    if type(tf) not in _TAG_OF:
        raise TypeError(f"not a TestFunction descriptor: {tf!r}")
    return {"tag": _TAG_OF[type(tf)], **_fields_to_json(tf)}


def from_json(obj: dict) -> TestFunction:
    if obj.get("tag") not in _TAGS:
        raise ConfigurationError(f"unknown descriptor tag {obj.get('tag')!r}")
    return _fields_from_json(_TAGS[obj["tag"]], obj)
