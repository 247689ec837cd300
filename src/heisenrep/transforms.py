"""Fourier transform, Hilbert transform, and Hardy projections on sampled grids.

Fourier convention: fhat(y) = (1/sqrt(2*pi)) * integral f(x) e^{-ixy} dx.
The discrete transform maps samples on a grid to samples on its dual grid
(frequencies y_k = -pi/dx + k*pi/L) and is exactly unitary with respect to
the weighted norms on both grids.  Because N/2 is even for every grid this
package accepts, the transform matrix is symmetric, which makes
inverse_fourier = conj . fourier . conj (the backward FFT) an exact inverse.

Every spectral primitive is built from two half-transforms: _forward, the
spectrum of f's values, and _backward, a multiplier and the inverse
transform.  _forward keeps the one spectrum it made last, read-only, for as
long as the values array it came from lives, so operators applied in turn
to one f (act, the Hilbert multiplier, proj_hardy, D, fourier) transform it
once.
"""

from __future__ import annotations

import weakref
from functools import cache

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, SampledFunction, _adopt, _require_function, dual_grid

# zero-padding factor of the line Hilbert route
LINE_PADDING = 16


def fourier(f: SampledFunction) -> SampledFunction:
    """Unitary discrete Fourier transform onto the dual grid, of each row of a stack.

    With x_j = -L + j*dx and y_k = -pi/dx + k*pi/L one has
    x_j y_k = N*pi/2 - (j+k)*pi + 2*pi*j*k/N, so the quadrature sum
    (dx/sqrt(2*pi)) sum_j f_j e^{-i x_j y_k} reduces to a standard FFT
    with alternating-sign pre/post twiddles (N/2 even kills the constant).
    """
    _require_function(f)
    return _adopt(dual_grid(f.grid), np.multiply(_alternating_signs(f.grid.size), _forward(f)))


def inverse_fourier(f: SampledFunction) -> SampledFunction:
    """Exact inverse of :func:`fourier` (the transform matrix is symmetric)."""
    _require_function(f)
    return _adopt(dual_grid(f.grid), _backward(_alternating_signs(f.grid.size), f.values, f.grid))


# the memo of _forward: (weak reference to the values array it transformed
# last, that array's grid, the read-only spectrum), or None
_last = None


def _forward(f: SampledFunction) -> np.ndarray:
    """The rows of fourier(f) before its post-twiddle, fft(alt * values) scaled, read-only.
    alt is +-1, so that post-twiddle and _backward's pre-twiddle cancel: a multiplier
    applies neither, and every nonzero component rounds as if it had, bit for bit.

    The last spectrum is kept, and returned without an FFT while its values array (the
    same object) is transformed again on an equal grid.  A values array is never written:
    SampledFunction copies what a caller hands it, and _adopt takes only the fresh buffers
    of the library.  The entry holds the array by a weak reference and goes when it dies."""
    global _last
    last = _last
    if last is not None and last[0]() is f.values and last[1] == f.grid:
        return last[2]
    buf = np.multiply(_alternating_signs(f.grid.size), f.values)
    np.fft.fft(buf, out=buf)
    buf *= f.grid.spacing / np.sqrt(2.0 * np.pi)
    buf.setflags(write=False)
    _last = (weakref.ref(f.values, _forget), f.grid, buf)
    return buf


def _forget(ref: weakref.ref) -> None:
    """Drop the memo entry whose values array has died.  The entry is one tuple,
    read once per call, so threads racing here can lose an entry, never serve
    a spectrum for another array."""
    global _last
    if _last is not None and _last[0] is ref:
        _last = None


def _backward(mult, spec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """alt * ifft(mult * spec) scaled, on samples of `grid`, in a fresh buffer: the unscaled
    backward FFT, conj . fft . conj bit for bit up to the sign of zeros."""
    buf = np.multiply(mult, spec)
    np.fft.ifft(buf, out=buf, norm="forward")
    np.multiply(_alternating_signs(grid.size), buf, out=buf)
    buf *= grid.spacing / np.sqrt(2.0 * np.pi)
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
    _require_function(f)
    return _adopt(f.grid, _backward(mult, _forward(f), dual_grid(f.grid)))


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


@cache
def _kernel_spectrum(n: int, method: str) -> np.ndarray:
    """Read-only FFT of the odd kernel, of length 2n, of the "line" or
    "principal_value" route of hilbert on any grid of n points, built once
    per size and route (2 MiB each at n = 2^16).

    The kernel holds lags |m| < n, lag m at index m mod 2n (index n, lag
    +-n, stays 0).  The wide multiplier's is (2/M) cot(pi m/M) on odd m plus
    i(-1)^m/M from its Nyquist bin, whose sign is -1, with M = LINE_PADDING*n;
    its M -> inf limit is the principal-value kernel 2/(pi m), whose entries
    0 +- x are written exactly.
    """
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
    kernel[1:n:2] += odd  # lags m = 1, 3, ..., n - 1
    kernel[:n:-2] -= odd  # lags -m, at indices 2n - m
    np.fft.fft(kernel, out=kernel)
    kernel.setflags(write=False)
    return kernel


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
    kernels, evaluated through a zero-padded FFT: two of length 2N per call,
    the kernel's spectrum being built once per size (_kernel_spectrum).  All
    routes share the sign fixed by the multiplier -i*sgn(y); on this
    convention the transform of a real even function is real odd.
    """
    _require_function(f)
    if method == "multiplier":
        return spectral_multiply(f, _hilbert_multiplier(f.grid.size))
    if method in ("line", "principal_value"):
        # padding f to 2N keeps the circular wrap off the grid
        n = f.grid.size
        conv = np.zeros(f.values.shape[:-1] + (2 * n,), dtype=complex)
        conv[..., :n] = f.values
        np.fft.fft(conv, out=conv)
        conv *= _kernel_spectrum(n, method)
        np.fft.ifft(conv, out=conv)
        return _adopt(f.grid, conv[..., :n].copy())
    raise ConfigurationError(f"unknown hilbert method {method!r}")


def proj_hardy(f: SampledFunction, side: str) -> SampledFunction:
    """Hardy projections: the frequency multipliers (1 +/- sgn(y))/2 of _hardy_multipliers.

    The zero-frequency bin gets weight 1/2 on both sides so that
    P+ + P- = I holds exactly on samples.
    """
    _require_function(f)
    if side not in ("plus", "minus"):
        raise ConfigurationError(f"side must be 'plus' or 'minus', got {side!r}")
    return spectral_multiply(f, _hardy_multipliers(f.grid.size)[int(side == "minus")])
