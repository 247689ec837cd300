"""Fourier transform, Hilbert transform, and Hardy projections on sampled grids.

Fourier convention: fhat(y) = (1/sqrt(2*pi)) * integral f(x) e^{-ixy} dx.
The discrete transform maps samples on a grid to samples on its dual grid
(frequencies y_k = -pi/dx + k*pi/L) and is exactly unitary with respect to
the weighted norms on both grids.  Because N/2 is even for every grid this
package accepts, the transform matrix is symmetric, which makes
inverse_fourier = conj . fourier . conj an exact inverse.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, SampledFunction, _adopt, dual_grid

# zero-padding factor of the line Hilbert route
LINE_PADDING = 16


def fourier(f: SampledFunction) -> SampledFunction:
    """Unitary discrete Fourier transform onto the dual grid, of each row of a stack.

    With x_j = -L + j*dx and y_k = -pi/dx + k*pi/L one has
    x_j y_k = N*pi/2 - (j+k)*pi + 2*pi*j*k/N, so the quadrature sum
    (dx/sqrt(2*pi)) sum_j f_j e^{-i x_j y_k} reduces to a standard FFT
    with alternating-sign pre/post twiddles (N/2 even kills the constant).
    """
    return _adopt(dual_grid(f.grid), _transform(f.values, f.grid))


def inverse_fourier(f: SampledFunction) -> SampledFunction:
    """Exact inverse of :func:`fourier` (the transform matrix is symmetric)."""
    return _adopt(dual_grid(f.grid), _transform(f.values, f.grid, inverse=True))


def _transform(values: np.ndarray, grid: GridSpec, inverse: bool = False, buf=None) -> np.ndarray:
    """The rows of :func:`fourier` (conj . fourier . conj when `inverse`) of
    samples on `grid`, computed in place in a fresh buffer, or in `buf`,
    which may be `values`; each step rounds as alt * fft(alt * values) did."""
    alt = _alternating_signs(grid.size)
    if inverse:
        values = buf = np.conjugate(values, out=buf)
    buf = np.multiply(alt, values, out=buf)
    np.fft.fft(buf, out=buf)
    np.multiply(alt, buf, out=buf)
    buf *= grid.spacing / np.sqrt(2.0 * np.pi)
    if inverse:
        np.conjugate(buf, out=buf)
    return buf


@cache
def _alternating_signs(n: int) -> np.ndarray:
    """Read-only twiddle (+1, -1, +1, ...) of length n, built once per size;
    sizes are powers of two, so all held twiddles take at most twice the
    memory of the largest."""
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    alt.setflags(write=False)
    return alt


def spectral_multiply(f: SampledFunction, mult) -> SampledFunction:
    """Frequency multiplier: inverse_fourier(mult * fourier(f)), two FFTs.

    `mult` holds one factor per point of the dual grid, or a stack of such
    rows; a stacked mult on a single f transforms f once for every row.  It
    stays the left operand: complex products are not bitwise commutative
    under FMA.
    """
    return _adopt(f.grid, _multiplied(f, mult))


def _multiplied(f: SampledFunction, mult) -> np.ndarray:
    """The rows of spectral_multiply(f, mult) in one fresh, writeable buffer
    (two when a stacked mult outgrows f's rows)."""
    spec = _multiply_into(mult, _transform(f.values, f.grid))
    return _transform(spec, dual_grid(f.grid), inverse=True, buf=spec)


def _multiply_into(a, buf: np.ndarray) -> np.ndarray:
    """a * buf, a the left operand, written into buf when it has the product's shape."""
    return np.multiply(a, buf, out=buf if np.broadcast(a, buf).shape == buf.shape else None)


@cache
def _hardy_multipliers(n: int) -> np.ndarray:
    """Read-only rows (1 + sgn y)/2 of P+ and (1 - sgn y)/2 of P- on the dual
    grid of any grid of n points, built once per size: y_k = (k - n/2) pi/L
    has the sign of k - n/2 whatever L."""
    table = 0.5 * (1.0 + np.outer((1.0, -1.0), np.sign(np.arange(n) - n // 2)))
    table.setflags(write=False)
    return table


@cache
def _hilbert_multiplier(n: int) -> np.ndarray:
    """Read-only -i * sgn(y) = -i (P+ - P-) on the dual grid of any grid of n
    points, built once per size."""
    mult = -1j * np.subtract(*_hardy_multipliers(n))
    mult.setflags(write=False)
    return mult


def hilbert(f: SampledFunction, method: str = "multiplier") -> SampledFunction:
    """Hilbert transform, H f(x) = (1/pi) PV integral f(t)/(x - t) dt.

    multiplier:       the exact periodic operator: fhat -> -i * sgn(y) * fhat
                      with sgn(0) = 0, i.e. the Hilbert transform of the
                      periodized input (period 2L).
    line:             the same multiplier applied to the input zero-padded
                      LINE_PADDING-fold onto a window of half-width
                      LINE_PADDING * L, restricted back to the grid; it
                      approximates the line transform of the input extended
                      by zeros outside [-L, L).  Restricted to the grid,
                      that wide circulant operator is a linear convolution
                      over lags |m| < N with a closed-form kernel.
    principal_value:  the odd-point trapezoid rule
                      h_t = (2/pi) sum_{m odd} f_{t-m} / m (Kress & Martensen
                      1970; Weideman 1995), exact at the grid points on the
                      band-limited interpolant of the samples.

    The line and principal-value routes are linear convolutions with odd
    kernels, evaluated through a zero-padded FFT (three of length 2N).  All
    routes share the sign fixed by the multiplier -i*sgn(y); on this
    convention the transform of a real even function is real odd.
    """
    if method == "multiplier":
        return spectral_multiply(f, _hilbert_multiplier(f.grid.size))
    if method in ("line", "principal_value"):
        # odd kernels on lags |m| < N, lag m at index m mod 2N (index N, lag
        # +-N, stays 0).  The wide multiplier's is (2/M) cot(pi m/M) on odd m
        # plus i(-1)^m/M from its Nyquist bin, whose sign is -1, with
        # M = LINE_PADDING*N; its M -> inf limit is the principal-value
        # kernel 2/(pi m), whose entries 0 +- x are written exactly
        n = f.grid.size
        m = np.arange(1, n, 2)
        if method == "line":
            wide = LINE_PADDING * n
            kernel = (1j / wide) * _alternating_signs(2 * n)
            kernel[n] = 0.0
            odd = 2.0 / (wide * np.tan(np.pi * m / wide))
        else:
            # complex, so it is transformed in place; a real kernel is
            # transformed as its complex cast, bit for bit
            kernel = np.zeros(2 * n, dtype=complex)
            odd = 2.0 / (np.pi * m)
        kernel[1:n:2] += odd  # lags m = 1, 3, ..., N - 1
        kernel[:n:-2] -= odd  # lags -m, at indices 2N - m
        del odd  # before the FFTs, which set the route's peak memory
        # padding f to 2N keeps the circular wrap off the grid
        conv = np.zeros(f.values.shape[:-1] + (2 * n,), dtype=complex)
        conv[..., :n] = f.values
        np.fft.fft(conv, out=conv)
        conv *= np.fft.fft(kernel, out=kernel)
        np.fft.ifft(conv, out=conv)
        return _adopt(f.grid, conv[..., :n].copy())
    raise ConfigurationError(f"unknown hilbert method {method!r}")


def proj_hardy(f: SampledFunction, side: str) -> SampledFunction:
    """Hardy projections: the frequency multipliers (1 +/- sgn(y))/2 of _hardy_multipliers.

    The zero-frequency bin gets weight 1/2 on both sides so that
    P+ + P- = I holds exactly on samples.
    """
    if side not in ("plus", "minus"):
        raise ConfigurationError(f"side must be 'plus' or 'minus', got {side!r}")
    return spectral_multiply(f, _hardy_multipliers(f.grid.size)[int(side == "minus")])
