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
from .grid import GridSpec, SampledFunction, dual_grid

# zero-padding factor of the line Hilbert route
LINE_PADDING = 16


def fourier(f: SampledFunction) -> SampledFunction:
    """Unitary discrete Fourier transform onto the dual grid.

    With x_j = -L + j*dx and y_k = -pi/dx + k*pi/L one has
    x_j y_k = N*pi/2 - (j+k)*pi + 2*pi*j*k/N, so the quadrature sum
    (dx/sqrt(2*pi)) sum_j f_j e^{-i x_j y_k} reduces to a standard FFT
    with alternating-sign pre/post twiddles (N/2 even kills the constant).
    """
    alt = _alternating_signs(f.grid.size)
    spec = alt * np.fft.fft(alt * f.values)
    spec *= f.grid.spacing / np.sqrt(2.0 * np.pi)
    return SampledFunction(dual_grid(f.grid), spec)


@cache
def _alternating_signs(n: int) -> np.ndarray:
    """Read-only twiddle (+1, -1, +1, ...) of length n, built once per size;
    sizes are powers of two, so all held twiddles take at most twice the
    memory of the largest."""
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    alt.setflags(write=False)
    return alt


def inverse_fourier(f: SampledFunction) -> SampledFunction:
    """Exact inverse of :func:`fourier` (the transform matrix is symmetric)."""
    out = fourier(SampledFunction(f.grid, np.conj(f.values)))
    return SampledFunction(out.grid, np.conj(out.values))


def spectral_multiply(f: SampledFunction, mult) -> SampledFunction:
    """Frequency multiplier: inverse_fourier(mult * fourier(f)), two FFTs.

    `mult` holds one factor per point of the dual grid.  It stays the left
    operand: complex products are not bitwise commutative under FMA.
    """
    spec = fourier(f)
    return inverse_fourier(SampledFunction(spec.grid, mult * spec.values))


def _sign_of_frequency(grid: GridSpec) -> np.ndarray:
    y = dual_grid(grid).points
    return np.sign(y)


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
                      over lags |m| < N with its kernel (_line_kernel_spectrum).
    principal_value:  the odd-point trapezoid rule
                      h_t = (2/pi) sum_{m odd} f_{t-m} / m (Kress & Martensen
                      1970; Weideman 1995), exact at the grid points on the
                      band-limited interpolant of the samples.

    The line and principal-value routes are linear convolutions evaluated
    through a zero-padded FFT.  All routes share the sign fixed by the
    multiplier -i*sgn(y); on this convention the transform of a real even
    function is real odd.
    """
    if method == "multiplier":
        return spectral_multiply(f, -1j * _sign_of_frequency(f.grid))
    if method == "line":
        return _convolve(f, _line_kernel_spectrum(f.grid.size))
    if method == "principal_value":
        n = f.grid.size
        # the odd kernel k_m = 2/(pi*m) on odd m and 0 on even m
        m = np.arange(1, n, 2)
        kernel = np.zeros(2 * n)
        kernel[m] = 2.0 / (np.pi * m)
        kernel[2 * n - m] = -2.0 / (np.pi * m)
        return _convolve(f, np.fft.fft(kernel))
    raise ConfigurationError(f"unknown hilbert method {method!r}")


def _convolve(f: SampledFunction, kernel_spectrum: np.ndarray) -> SampledFunction:
    """Linear convolution sum_m k_{t-m} f_m of the samples with a kernel on
    lags |m| < N, restricted to the grid.

    `kernel_spectrum` is the length-2N FFT of the kernel stored circularly
    (lag m at index m mod 2N); padding f to 2N keeps the wrap off the grid.
    """
    n = f.grid.size
    conv = np.fft.ifft(np.fft.fft(f.values, 2 * n) * kernel_spectrum)[:n]
    return SampledFunction(f.grid, conv)


@cache
def _line_kernel_spectrum(n: int) -> np.ndarray:
    """Read-only kernel spectrum of the line route at grid size n.

    The kernel is the response of the wide multiplier -i*sgn(y) to an
    impulse at the centre c = M/2 of M = LINE_PADDING*n points.  On the wide
    grid, fourier and its inverse are FFTs between alternating-sign
    twiddles whose scale factors cancel, the frequency of bin k has the sign
    of k - M/2, and the impulse's FFT is (-1)^k, so the response is
    alt * ifft(alt * mult) whatever the half-width.  Lags |m| < n are kept.
    """
    wide = LINE_PADDING * n
    alt = _alternating_signs(wide)
    response = alt * np.fft.ifft(alt * (-1j * np.sign(np.arange(wide) - wide // 2)))
    centre = wide // 2
    kernel = np.zeros(2 * n, dtype=complex)
    kernel[:n] = response[centre:centre + n]
    kernel[n + 1:] = response[centre - n + 1:centre]
    spectrum = np.fft.fft(kernel)
    spectrum.setflags(write=False)
    return spectrum


def proj_hardy(f: SampledFunction, side: str) -> SampledFunction:
    """Hardy projections: frequency multipliers (1 +/- sgn(y))/2.

    The zero-frequency bin gets weight 1/2 on both sides so that
    P+ + P- = I holds exactly on samples.
    """
    s = _sign_of_frequency(f.grid)
    if side == "plus":
        mult = 0.5 * (1.0 + s)
    elif side == "minus":
        mult = 0.5 * (1.0 - s)
    else:
        raise ConfigurationError(f"side must be 'plus' or 'minus', got {side!r}")
    return spectral_multiply(f, mult)
