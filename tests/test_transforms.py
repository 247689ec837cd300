import gc
import sys
import threading

import numpy as np
import pytest
from scipy.special import dawsn

from heisenrep import (
    ConfigurationError, SampledFunction, dual_grid, fourier, hilbert,
    inverse_fourier, make_grid, norm, proj_hardy,
)
from heisenrep import transforms
from heisenrep.grid import _adopt
from heisenrep.heisenberg import GroupElement, act, generator_apply
from heisenrep.testfn import GaussianPoly, sample
from heisenrep.transforms import (
    LINE_PADDING, _alternating_signs, _hardy_multipliers, _hilbert_multiplier,
    _kernel_spectrum, spectral_multiply,
)

GRID = make_grid(32.0, 4096)


def _gauss(width=1.0):
    return sample(GaussianPoly(0.0, width, (1.0,)), GRID)


def _random(seed=0, band=10.0):
    rng = np.random.default_rng(seed)
    dg = dual_grid(GRID)
    spec = np.where(np.abs(dg.points) < band,
                    rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size),
                    0.0)
    return inverse_fourier(SampledFunction(dg, spec))


def test_gaussian_is_fixed_point():
    fhat = fourier(_gauss())
    assert np.max(np.abs(fhat.values - np.exp(-fhat.grid.points ** 2 / 2))) < 1e-12


@pytest.mark.parametrize("n", [4, 2 ** 10, 2 ** 12, 2 ** 16])
def test_fourier_bitwise_equals_fresh_twiddle_formula(n):
    grid = make_grid(16.0, n)
    rng = np.random.default_rng(n)
    f = SampledFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    # the transform with its twiddle built on every call
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spec = alt * np.fft.fft(alt * f.values)
    spec *= grid.spacing / np.sqrt(2.0 * np.pi)
    for _ in range(2):  # first call builds the twiddle, the second reuses it
        fhat = fourier(f)
        assert fhat.grid == dual_grid(grid)
        assert fhat.values.tobytes() == spec.tobytes()


def test_twiddle_read_only():
    alt = _alternating_signs(64)
    assert alt is _alternating_signs(64)
    with pytest.raises(ValueError):
        alt[0] = -1.0


def _sign_of_frequency(size):
    """sgn(y) on the dual grid of any grid of `size` points."""
    return np.sign(dual_grid(make_grid(1.0, size)).points)


def test_sign_of_frequency_is_the_sign_of_the_dual_points():
    # the dual points are (k - N/2) pi/L, so their signs, the zero at k = N/2
    # included, depend on N alone, from the smallest window to the widest; the
    # Hardy table holds sgn(y) as the difference of its rows, P+ - P-
    for size in (4, 64, 4096, 65536):
        plus, minus = _hardy_multipliers(size)
        for half_width in (1e-300, 1e-100, 1e-3, 1.0, 32.0, 1e3, 1e100, 1e300):
            points = dual_grid(make_grid(half_width, size)).points
            assert (plus - minus).tobytes() == np.sign(points).tobytes(), (size, half_width)


def test_hilbert_multiplier_is_one_read_only_table_per_size():
    for size in (4, 64, 4096):
        table = _hilbert_multiplier(size)
        assert table is _hilbert_multiplier(size)
        assert table.tobytes() == (-1j * _sign_of_frequency(size)).tobytes()
        with pytest.raises(ValueError):
            table[0] = 1.0
    f = _random(3)
    expected = spectral_multiply(f, -1j * _sign_of_frequency(GRID.size))
    assert hilbert(f, "multiplier").values.tobytes() == expected.values.tobytes()


def test_hardy_multipliers_are_one_read_only_table_per_size():
    # rows (1 + sgn y)/2 and (1 - sgn y)/2; proj_hardy reads one row each
    for size in (4, 64, 4096):
        table = _hardy_multipliers(size)
        assert table is _hardy_multipliers(size)
        assert table.shape == (2, size)
        s = _sign_of_frequency(size)
        assert table[0].tobytes() == (0.5 * (1.0 + s)).tobytes()
        assert table[1].tobytes() == (0.5 * (1.0 - s)).tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    f = _random(4)
    for row, side in enumerate(("plus", "minus")):
        expected = spectral_multiply(f, _hardy_multipliers(GRID.size)[row])
        assert proj_hardy(f, side).values.tobytes() == expected.values.tobytes()
    for side in ("both", True, 0):
        with pytest.raises(ConfigurationError, match="side"):
            proj_hardy(f, side)


def test_kernel_spectrum_is_one_read_only_table_per_size_and_route():
    for size in (4, 64, 4096):
        for method in ("line", "principal_value"):
            table = _kernel_spectrum(size, method)
            assert table is _kernel_spectrum(size, method)
            assert table.shape == (2 * size,)
            with pytest.raises(ValueError):
                table[0] = 1.0
            with pytest.raises(ValueError):
                table *= 2.0
        assert not np.array_equal(_kernel_spectrum(size, "line"),
                                  _kernel_spectrum(size, "principal_value"))


@pytest.mark.parametrize("method", ["line", "principal_value"])
def test_convolution_routes_transform_their_kernel_once_per_size(monkeypatch, method):
    # 3 numpy FFTs on the first call at a size (f, the kernel, the inverse), 2 after
    f = _random(5)
    want = hilbert(f, method).values.tobytes()
    calls = []
    for name in ("fft", "ifft"):
        def counting(a, *args, transform=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    _kernel_spectrum.cache_clear()
    transforms._last = None
    counts = []
    for _ in range(3):
        calls.clear()
        assert hilbert(f, method).values.tobytes() == want
        counts.append(len(calls))
    assert counts == [3, 2, 2]


def _spectral_primitives(f):
    """Every primitive that transforms f forward, by name."""
    rng = np.random.default_rng(f.grid.size)
    rows = f.values.shape[:-1] or (2,)
    xis = GroupElement(*rng.uniform(-5, 5, (3,) + rows))
    mult = rng.standard_normal(f.grid.size) + 1j * rng.standard_normal(f.grid.size)
    return {"fourier": lambda: fourier(f),
            "spectral_multiply": lambda: spectral_multiply(f, mult),
            "hilbert": lambda: hilbert(f),
            "proj_hardy plus": lambda: proj_hardy(f, "plus"),
            "proj_hardy minus": lambda: proj_hardy(f, "minus"),
            "D": lambda: generator_apply("D", f),
            "act": lambda: act(GroupElement(1.5, -0.25, 0.5), f),
            "act stacked": lambda: act(xis, f)}


@pytest.mark.parametrize("size", [4, 64, 1024, 2 ** 14])
def test_kept_spectrum_changes_no_byte(size):
    # a primitive reading the spectrum kept for its input gives the bytes it
    # gives from a cold memo, on single rows and stacks
    grid = make_grid(16.0, size)
    rng = np.random.default_rng(size)
    for shape in ((size,), (3, size)):
        f = SampledFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for name, run in _spectral_primitives(f).items():
            transforms._last = None
            cold = run().values.tobytes()
            assert transforms._last[0]() is f.values, name
            assert run().values.tobytes() == cold, name


def test_kept_spectrum_is_keyed_by_the_grid():
    # one values array on two grids of one size: each gets its own scale dx
    values = np.exp(-np.linspace(-4.0, 4.0, 64, endpoint=False) ** 2) + 0j
    narrow, wide = (_adopt(make_grid(hw, 64), values) for hw in (4.0, 8.0))
    assert narrow.values is wide.values
    cold = {}
    for f in (narrow, wide):
        transforms._last = None
        cold[f.grid] = fourier(f).values.tobytes()
    assert cold[narrow.grid] != cold[wide.grid]
    for f in (narrow, wide, narrow, narrow, wide):
        assert fourier(f).values.tobytes() == cold[f.grid]


def test_kept_spectrum_is_the_spectrum_of_the_values_held():
    # the caller's frozen array is copied, so writing into it after a
    # transform changes neither f nor the spectrum kept for f
    values = _random(9).values.copy()
    values.setflags(write=False)
    f = SampledFunction(GRID, values)
    kept = fourier(f).values.tobytes()
    values.setflags(write=True)
    values[:] = 0.0
    assert norm(f) > 0.0
    assert fourier(f).values.tobytes() == kept
    transforms._last = None
    assert fourier(f).values.tobytes() == kept


def test_kept_spectrum_dies_with_its_input():
    f = _random(6)
    fourier(f)
    assert transforms._last[0]() is f.values
    del f
    gc.collect()
    assert transforms._last is None


def test_no_primitive_writes_into_the_kept_spectrum():
    for f in (_random(7), SampledFunction(GRID, np.stack([_random(8).values] * 2))):
        transforms._last = None
        kept = transforms._forward(f)
        before = kept.tobytes()
        assert not kept.flags.writeable
        for name, run in _spectral_primitives(f).items():
            run()
            assert transforms._last[2] is kept, name
            assert kept.tobytes() == before, name
        inverse_fourier(f)
        hilbert(f, "line")
        hilbert(f, "principal_value")
        assert kept.tobytes() == before


def test_kept_spectrum_serves_only_its_own_array_across_threads():
    # threads share the one entry: a race may lose it, never hand one
    # thread another's spectrum
    grid = make_grid(8.0, 256)
    inputs = [SampledFunction(grid, np.random.default_rng(k).standard_normal(256) + 0j)
              for k in range(6)]
    want = []
    for f in inputs:
        transforms._last = None
        want.append((fourier(f).values.tobytes(), hilbert(f).values.tobytes()))
    wrong, done = [], []

    def work(k):
        for _ in range(200):
            got = fourier(inputs[k]).values.tobytes(), hilbert(inputs[k]).values.tobytes()
            if got != want[k]:
                wrong.append(k)
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(inputs))) and wrong == []


def test_unitary_and_roundtrip():
    f = _random()
    assert abs(norm(fourier(f)) - norm(f)) < 1e-13 * norm(f)
    assert norm(inverse_fourier(fourier(f)) - f) < 1e-13 * norm(f)


def test_double_transform_is_parity():
    f = _random(1)
    ff = fourier(fourier(f))
    # f(-x) on the grid: index j -> (N - j) mod N
    n = GRID.size
    mirrored = f.values[(-np.arange(n)) % n]
    assert np.max(np.abs(ff.values - mirrored)) < 1e-12 * np.max(np.abs(f.values))


def test_translation_modulation_duality():
    f = _random(2)
    a = 8 * np.pi / GRID.half_width  # whole number of frequency bins
    mod = SampledFunction(GRID, np.exp(1j * a * GRID.points) * f.values)
    assert norm(fourier(mod) - SampledFunction(
        dual_grid(GRID), np.roll(fourier(f).values, 8))) < 1e-12 * norm(f)


def test_hilbert_periodized_oracle():
    # sum_m 1/(x - i + 2Lm) = (pi/2L) cot(pi (x-i)/(2L)); its imaginary part
    # is the periodization of the Poisson kernel 1/(1+x^2) and its real part
    # the periodization of the conjugate kernel x/(1+x^2)
    L = GRID.half_width
    z = (np.pi / (2 * L)) / np.tan(np.pi * (GRID.points - 1j) / (2 * L))
    f = SampledFunction(GRID, z.imag)
    target = SampledFunction(GRID, z.real)
    assert norm(hilbert(f, "multiplier") - target) < 1e-12 * norm(target)


def test_hilbert_pv_lorentzian():
    f = SampledFunction(GRID, 1.0 / (1.0 + GRID.points ** 2))
    target = SampledFunction(GRID, GRID.points / (1.0 + GRID.points ** 2))
    # the odd-point rule is exact on the band-limited interpolant; what is
    # left (about 2e-3) is the truncation of the slowly decaying input at |x| = L
    assert norm(hilbert(f, "principal_value") - target) < 1e-2 * norm(target)


def _gauss_and_dawson():
    # H e^{-x^2} = (2/sqrt(pi)) F(x), F Dawson's integral
    x = GRID.points
    return (SampledFunction(GRID, np.exp(-x ** 2)),
            SampledFunction(GRID, 2.0 / np.sqrt(np.pi) * dawsn(x)))


def test_hilbert_pv_gaussian_dawson():
    # e^{-x^2} is band-limited to double precision at this spacing, so the
    # odd-point rule reproduces the line transform to rounding
    f, target = _gauss_and_dawson()
    assert norm(hilbert(f, "principal_value") - target) < 1e-12 * norm(target)


def test_hilbert_line_gaussian_dawson():
    # the zero-padded multiplier approximates the line transform; its error
    # is the periodization over the padded window
    f, target = _gauss_and_dawson()
    assert norm(hilbert(f, "line") - target) < 1e-3 * norm(target)


def _hilbert_line_zero_padded(f):
    """The line route as defined: the multiplier on the input zero-padded
    onto a LINE_PADDING-fold wider grid, restricted back to f's window."""
    n = f.grid.size
    start = (LINE_PADDING - 1) * n // 2
    values = np.zeros(LINE_PADDING * n, dtype=complex)
    values[start:start + n] = f.values
    wide = make_grid(LINE_PADDING * f.grid.half_width, LINE_PADDING * n)
    back = spectral_multiply(SampledFunction(wide, values), -1j * _sign_of_frequency(wide.size))
    return SampledFunction(f.grid, back.values[start:start + n])


@pytest.mark.parametrize("half_width, n", [(32.0, 4096), (100.0, 1024), (3.0, 4)])
def test_hilbert_line_matches_zero_padded_multiplier(half_width, n):
    # the closed-form kernel convolution and the wide multiplier are the
    # same linear operator; both round O(log N) times per sample
    grid = make_grid(half_width, n)
    x = grid.points
    rng = np.random.default_rng(n)
    for values in (1.0 / (1.0 + x ** 2), np.exp(-x ** 2),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        f = SampledFunction(grid, values)
        reference = _hilbert_line_zero_padded(f)
        assert norm(hilbert(f, "line") - reference) <= 1e-14 * norm(reference)


def test_hilbert_gaussian_sign():
    # H maps even to odd with positive slope at 0 under the -i*sgn convention
    h = hilbert(_gauss(), "multiplier")
    mid = GRID.size // 2
    assert h.values.real[mid + 8] > 0.0
    assert h.values.real[mid - 8] < 0.0


def test_hilbert_unknown_method():
    with pytest.raises(ConfigurationError):
        hilbert(_gauss(), "cauchy")


def test_hardy_projection_algebra():
    f = _random(3)
    plus = proj_hardy(f, "plus")
    minus = proj_hardy(f, "minus")
    assert norm(plus + minus - f) < 1e-13 * norm(f)
    # the ranges are orthogonal on mean-free inputs; the zero-frequency bin
    # belongs half to each projection and would otherwise contribute
    mf = generator_apply("D", f)
    plus, minus = proj_hardy(mf, "plus").values, proj_hardy(mf, "minus").values
    assert abs(mf.grid.spacing * np.vdot(plus, minus)) < 1e-13 * norm(mf) ** 2


def test_hardy_projects_spectrum():
    f = _random(4)
    spec = fourier(proj_hardy(f, "plus"))
    y = spec.grid.points
    assert np.max(np.abs(spec.values[y < 0])) < 1e-13 * np.max(np.abs(spec.values))


def test_hardy_plus_is_i_hilbert_combination():
    # P+- = (I +- iH)/2 on mean-free functions
    f = _random(5)
    h = hilbert(f, "multiplier")
    lhs = proj_hardy(f, "plus") - proj_hardy(f, "minus")
    assert norm(lhs - h * 1j) < 1e-12 * norm(f)
