"""Stacked SampledFunctions: values of shape (..., N) are worked along the last
axis, and a stack gives, row for row and bit for bit, what one function at a
time gives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenrep import (
    GridMismatchError, GroupElement, PrecisionError, SampledFunction, act,
    dual_grid, fourier, hilbert, inner, inverse_fourier, make_grid, norm, proj_hardy,
)
from heisenrep import transforms
from heisenrep.grid import per_chunk
from heisenrep.heisenberg import _phase, generator_apply
from heisenrep.schwartz import (
    class_defects, generator_convergence, moment_orders, n_defect, norm_growth_check,
    seminorm_tower,
)
from heisenrep.transforms import LINE_PADDING, _kernel_spectrum, spectral_multiply

PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None)
GRIDS = (make_grid(8.0, 64), make_grid(32.0, 4096))
stacks = st.tuples(st.sampled_from(GRIDS), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))


def _random_values(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stack(grid, rows, rng):
    return SampledFunction(grid, _random_values(rng, (rows, grid.size)))


def _elements(rng, rows):
    """rows elements drawn as one array, as the suites draw them: the stack,
    and each row as a single element with Python float components."""
    draws = rng.uniform(-5, 5, (rows, 3))
    return GroupElement(*draws.T), [GroupElement(*d) for d in draws.tolist()]


def _rows(f):
    return [SampledFunction(f.grid, row) for row in f.values]


def _assert_rows(stacked, singles):
    assert stacked.values.shape == (len(singles), stacked.grid.size)
    for row, single in zip(stacked.values, singles):
        assert stacked.grid == single.grid
        assert row.tobytes() == single.values.tobytes()


@PROPERTY
@given(stacks)
def test_stacked_transforms_match_rows(case):
    grid, rows, seed = case
    rng = np.random.default_rng(seed)
    f = _stack(grid, rows, rng)
    single = SampledFunction(grid, _random_values(rng, grid.size))
    mult = _random_values(rng, grid.size)
    mults = _random_values(rng, (rows, grid.size))
    _assert_rows(fourier(f), [fourier(g) for g in _rows(f)])
    _assert_rows(inverse_fourier(f), [inverse_fourier(g) for g in _rows(f)])
    _assert_rows(spectral_multiply(f, mult), [spectral_multiply(g, mult) for g in _rows(f)])
    # a stacked multiplier on one function transforms it once for every row
    _assert_rows(spectral_multiply(single, mults), [spectral_multiply(single, m) for m in mults])
    for method in ("multiplier", "line", "principal_value"):
        _assert_rows(hilbert(f, method), [hilbert(g, method) for g in _rows(f)])
    _assert_rows(proj_hardy(f, "plus"), [proj_hardy(g, "plus") for g in _rows(f)])


@PROPERTY
@given(stacks)
def test_stacked_act_matches_rows(case):
    grid, rows, seed = case
    rng = np.random.default_rng(seed)
    f = _stack(grid, rows, rng)
    single = SampledFunction(grid, _random_values(rng, grid.size))
    xi, xis = _elements(rng, rows)
    assert xi.xi1.shape == xi.xi2.shape == xi.xi3.shape == (rows,)
    # one function, moved by every element of the stack
    _assert_rows(act(xi, single), [act(e, single) for e in xis])
    # row i moved by element i
    _assert_rows(act(xi, f), [act(e, g) for e, g in zip(xis, _rows(f))])
    # every row moved by one element
    _assert_rows(act(xis[0], f), [act(xis[0], g) for g in _rows(f)])


@PROPERTY
@given(stacks)
def test_stacked_generators_match_rows(case):
    grid, rows, seed = case
    f = _stack(grid, rows, np.random.default_rng(seed))
    for gen in ("M", "D", "C"):
        _assert_rows(generator_apply(gen, f), [generator_apply(gen, g) for g in _rows(f)])


@PROPERTY
@given(stacks)
def test_stacked_norm_and_tower_match_rows(case):
    grid, rows, seed = case
    f = _stack(grid, rows, np.random.default_rng(seed))
    got = norm(f)
    assert got.shape == (rows,)
    assert got.tobytes() == np.array([norm(g) for g in _rows(f)]).tobytes()
    for n in range(4):
        tower = seminorm_tower(f, n)
        singles = [seminorm_tower(g, n) for g in _rows(f)]
        assert len(tower) == n + 1
        for k, order in enumerate(tower):
            assert order.tobytes() == np.array([s[k] for s in singles]).tobytes(), (n, k)


def test_tower_of_a_large_stack_matches_rows():
    # squaring a norm by multiplying rounds otherwise than Python's ** on a
    # float in about 1 square in 1,200; 15,000 squares make that show
    grid = GRIDS[0]
    f = _stack(grid, 1000, np.random.default_rng(7))
    singles = [seminorm_tower(g, 3) for g in _rows(f)]
    for k, order in enumerate(seminorm_tower(f, 3)):
        assert order.tobytes() == np.array([s[k] for s in singles]).tobytes(), k


def test_stacks_of_more_axes_work_along_the_last():
    rng = np.random.default_rng(3)
    grid = GRIDS[0]
    f = SampledFunction(grid, _random_values(rng, (2, 3, grid.size)))
    flat = SampledFunction(grid, f.values.reshape(6, grid.size))
    assert fourier(f).values.shape == (2, 3, grid.size)
    assert fourier(f).values.tobytes() == fourier(flat).values.tobytes()
    assert norm(f).shape == (2, 3)
    assert norm(f).tobytes() == norm(flat).tobytes()


def test_sampled_function_refuses_a_last_axis_off_the_grid():
    grid = make_grid(4.0, 8)
    for shape in ((9,), (3, 9), (8, 3), (2, 8, 1), ()):
        with pytest.raises(GridMismatchError):
            SampledFunction(grid, np.ones(shape))
    assert SampledFunction(grid, np.ones((3, 8))).values.shape == (3, 8)


def test_whole_sums_refuse_a_stack():
    f = _stack(GRIDS[0], 2, np.random.default_rng(6))
    single = _rows(f)[0]
    for call in (lambda: inner(f, single), lambda: inner(single, f),
                 lambda: next(moment_orders(f)), lambda: n_defect(f), lambda: class_defects(f)):
        with pytest.raises(GridMismatchError, match="takes one function"):
            call()


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_mode_act_shifts_each_row_by_its_own_xi1(grid):
    # shifts of -N - 3, -N, -N + 1, -5, 0, 7, N - 1, N and 2N cells: partial,
    # zero and whole moves either way, each row bit-identical to a call alone
    n, dx = grid.size, grid.spacing
    rng = np.random.default_rng(8)
    cells = np.array([-n - 3, -n, -n + 1, -5, 0, 7, n - 1, n, 2 * n])
    xi1 = cells * dx
    xi2, xi3 = rng.uniform(-5, 5, (2, len(cells)))
    f = _stack(grid, len(cells), rng)
    single = _rows(f)[0]
    # a single f with a stacked xi, then a stacked f with each xi alone
    _assert_rows(act(GroupElement(xi1, xi2, xi3), single, mode="grid"),
                 [act(GroupElement(a, b, c), single, mode="grid")
                  for a, b, c in zip(xi1.tolist(), xi2.tolist(), xi3.tolist())])
    for a in xi1.tolist():
        _assert_rows(act(GroupElement(a, 1.5, 0.5), f, mode="grid"),
                     [act(GroupElement(a, 1.5, 0.5), g, mode="grid") for g in _rows(f)])
    # both stacked: row i of f moves by xi1[i]
    _assert_rows(act(GroupElement(xi1, xi2, 0.0), f, mode="grid"),
                 [act(GroupElement(a, b, 0.0), g, mode="grid")
                  for a, b, g in zip(xi1.tolist(), xi2.tolist(), _rows(f))])
    # the shifts themselves: zero fill, and no row moves past the window
    moved = act(GroupElement(xi1, 0.0, 0.0), f, mode="grid").values
    assert not moved[[0, 1, 7, 8]].any()
    assert np.array_equal(moved[2, n - 1:], f.values[2, :1])
    assert np.array_equal(moved[3], np.concatenate([np.zeros(5), f.values[3, :-5]]))
    assert np.array_equal(moved[4], f.values[4])
    assert np.array_equal(moved[5], np.concatenate([f.values[5, 7:], np.zeros(7)]))
    assert np.array_equal(moved[6, :1], f.values[6, n - 1:])


def test_grid_mode_act_refuses_a_stacked_xi1_off_the_grid():
    grid = GRIDS[0]
    f = SampledFunction(grid, np.ones(grid.size))
    dx = grid.spacing
    with pytest.raises(PrecisionError, match="finite multiple"):
        act(GroupElement(np.array([dx, 2.5 * dx]), 0.0, 0.0), f, mode="grid")


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_mode_act_stacks_modulations(grid):
    # one shift shared by every row, and one row per stacked xi2 and xi3
    rng = np.random.default_rng(7)
    f = SampledFunction(grid, _random_values(rng, grid.size))
    xi2, xi3 = rng.uniform(-5, 5, (2, 5))
    for xi1 in (0.0, 3 * grid.spacing, -2 * grid.spacing):
        stacked = act(GroupElement(xi1, xi2, xi3), f, mode="grid")
        _assert_rows(stacked, [act(GroupElement(xi1, b, c), f, mode="grid")
                               for b, c in zip(xi2.tolist(), xi3.tolist())])
        _assert_rows(act(GroupElement(xi1, xi2, 0.0), f, mode="grid"),
                     [act(GroupElement(xi1, b, 0.0), f, mode="grid") for b in xi2.tolist()])


def test_grid_mode_act_refuses_a_stack_that_does_not_fit():
    # the check spectral mode makes, before either mode acts
    grid = GRIDS[0]
    f = _stack(grid, 2, np.random.default_rng(5))
    three = np.array([0.5, 1.0, 1.5])
    for xi, g in ((GroupElement(0.0, three, three), f),
                  (GroupElement(0.0, three, np.array([0.0, 1.0])), _rows(f)[0])):
        with pytest.raises(GridMismatchError, match=r"shapes \(\).*stack of shape"):
            act(xi, g, mode="grid")
    with pytest.raises(GridMismatchError, match=r"shapes \(3,\).*stack of shape \(2,\)"):
        act(GroupElement(three * grid.spacing, 0.0, 0.0), f, mode="grid")


def test_grid_mode_act_moves_each_row_of_a_stack():
    grid = GRIDS[0]
    f = _stack(grid, 3, np.random.default_rng(4))
    xi = GroupElement(5 * grid.spacing, 1.0, 0.5)
    for m in (xi, GroupElement(-7 * grid.spacing, 0.0, 0.0)):
        _assert_rows(act(m, f, mode="grid"), [act(m, g, mode="grid") for g in _rows(f)])


def test_spectral_act_refuses_a_stack_that_does_not_fit():
    grid = GRIDS[0]
    f = _stack(grid, 2, np.random.default_rng(5))
    three = np.array([0.5, 1.0, 1.5])
    for xi, g in ((GroupElement(three, three, three), f),
                  (GroupElement(three, np.array([0.0, 1.0]), 0.0), _rows(f)[0])):
        with pytest.raises(GridMismatchError, match=r"shapes \(3,\).*stack of shape"):
            act(xi, g)


def test_per_chunk_hands_over_256_kib_in_draw_order():
    # max(1, 2^18 // (16 N)) draws a slice: 4 at N = 4096, 1 from N = 2^14 on
    for size, count, slices in ((4096, 10, [4, 4, 2]), (2 ** 14, 3, [1, 1, 1]),
                                (2 ** 16, 2, [1, 1]), (1024, 20, [16, 4])):
        seen = []

        def measure(d):
            seen.append(len(d))
            return d, -d

        draws = np.arange(count, dtype=float)
        plus, minus = per_chunk(make_grid(32.0, size), draws, measure)
        assert seen == slices
        assert plus.tolist() == draws.tolist()
        assert minus.tolist() == (-draws).tolist()
    # no draws: measure sees the empty slice once, so the results keep their rows
    assert per_chunk(make_grid(32.0, 4096), np.empty(0), lambda d: (d, d)).shape == (2, 0)
    f = SampledFunction(GRIDS[0], np.exp(-GRIDS[0].points ** 2 / 2.0))
    assert generator_convergence("D", f, [], 1) == [[], []]
    empty = np.empty(0)
    ratios = norm_growth_check(GroupElement(empty, empty, empty), f, 2)
    assert ratios.shape == (0,)


# The formulas each primitive computed with a fresh array per step, before
# they filled one buffer; every step must round as it did there.
def _formula_fourier(v, grid):
    alt = np.where(np.arange(grid.size) % 2 == 0, 1.0, -1.0)
    spec = alt * np.fft.fft(alt * v)
    spec *= grid.spacing / np.sqrt(2.0 * np.pi)
    return spec


def _formula_inverse(v, grid):
    return np.conj(_formula_fourier(np.conj(v), grid))


def _formula_multiply(v, grid, mult):
    # the spectrum is held by a name, as the SampledFunction held it: numpy
    # writes a product of large arrays into a temporary right operand, and
    # then multiplies in the other order, which rounds otherwise
    spec = _formula_fourier(v, grid)
    return _formula_inverse(mult * spec, dual_grid(grid))


def _formula_convolution(v, method):
    n = v.shape[-1]
    m = np.arange(1, n, 2)
    if method == "line":
        wide = LINE_PADDING * n
        kernel = (1j / wide) * np.where(np.arange(2 * n) % 2 == 0, 1.0, -1.0)
        kernel[n] = 0.0
        odd = 2.0 / (wide * np.tan(np.pi * m / wide))
    else:
        kernel = np.zeros(2 * n)
        odd = 2.0 / (np.pi * m)
    kernel[1:n:2] += odd
    kernel[:n:-2] -= odd
    return np.fft.ifft(np.fft.fft(v, 2 * n) * np.fft.fft(kernel))[..., :n]


def _formula_act(xi, v, grid, mode):
    if mode == "spectral":
        vals = _formula_multiply(v, grid, _phase(xi.xi1, dual_grid(grid)))
    else:
        m = round(xi.xi1 / grid.spacing)
        vals = np.zeros(v.shape, dtype=complex)
        vals[..., : grid.size - m] = v[..., m:]
    return _phase(xi.xi2, grid, np.exp(1j * xi.xi3)) * vals


@pytest.mark.parametrize("size", [2 ** 10, 2 ** 16])
def test_one_buffer_primitives_equal_their_formulas(size):
    grid = make_grid(16.0, size)
    dual = dual_grid(grid)
    rng = np.random.default_rng(size)
    sign = np.sign(np.arange(size) - size // 2).astype(float)
    mults = _random_values(rng, (3, size))
    xis, _ = _elements(rng, 3)
    grid_xi = GroupElement(7 * grid.spacing, 1.25, -0.5)
    for v in (_random_values(rng, size), _random_values(rng, (3, size))):
        f = SampledFunction(grid, v)
        expected = [
            (fourier(f), _formula_fourier(v, grid)),
            (inverse_fourier(f), _formula_inverse(v, grid)),
            (spectral_multiply(f, mults), _formula_multiply(v, grid, mults)),
            (hilbert(f), _formula_multiply(v, grid, -1j * sign)),
            (proj_hardy(f, "plus"), _formula_multiply(v, grid, 0.5 * (1.0 + sign))),
            (proj_hardy(f, "minus"), _formula_multiply(v, grid, 0.5 * (1.0 - sign))),
            (hilbert(f, "line"), _formula_convolution(v, "line")),
            (hilbert(f, "principal_value"), _formula_convolution(v, "principal_value")),
            (act(xis, f), _formula_act(xis, v, grid, "spectral")),
            (act(grid_xi, f), _formula_act(grid_xi, v, grid, "spectral")),
            (act(grid_xi, f, "grid"), _formula_act(grid_xi, v, grid, "grid")),
            (generator_apply("M", f), 1j * grid.points * v),
            (generator_apply("D", f), _formula_multiply(v, grid, 1j * dual.points)),
            (generator_apply("C", f), 1j * v),
        ]
        for k, (got, want) in enumerate(expected):
            # bytes, not np.array_equal, which holds -0.0 == +0.0
            assert got.values.tobytes() == np.asarray(want, dtype=complex).tobytes(), k
            assert not got.values.flags.writeable, k


@pytest.mark.parametrize("method", ["line", "principal_value"])
def test_convolution_routes_equal_their_formula_bytes(method):
    # the kernel spectrum cached per size changes no byte, on the first call
    # at a size or later, on single rows and stacks
    _kernel_spectrum.cache_clear()
    for size in (4, 64, 1024, 2 ** 14):
        grid = make_grid(16.0, size)
        rng = np.random.default_rng(size)
        for shape in ((3, size), (2, 2, size), (size,)):
            v = _random_values(rng, shape)
            want = _formula_convolution(v, method).tobytes()
            for _ in range(2):
                assert hilbert(SampledFunction(grid, v), method).values.tobytes() == want


def _multiply_passes(monkeypatch, cold):
    """np.multiply calls per primitive on one 3-row stack, the memo of
    transforms._forward cleared before each call when cold; else f's
    spectrum is kept from the call before.  M and D multiply by a table i*x
    built once per grid, so each primitive runs once unpinned first."""
    grid = make_grid(16.0, 256)
    f = _stack(grid, 3, np.random.default_rng(3))
    xis, _ = _elements(np.random.default_rng(4), 3)
    calls = []

    def counting(*args, multiply=np.multiply, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    runs = {"fourier": lambda: fourier(f),
            "inverse_fourier": lambda: inverse_fourier(f),
            "proj_hardy": lambda: proj_hardy(f, "plus"),
            "hilbert": lambda: hilbert(f),
            "M": lambda: generator_apply("M", f),
            "D": lambda: generator_apply("D", f),
            "act": lambda: act(xis, f)}
    for run in runs.values():
        run()
    monkeypatch.setattr(np, "multiply", counting)
    counts = {}
    for name, run in runs.items():
        if cold:
            transforms._last = None
        calls.clear()
        run()
        counts[name] = len(calls)
    return counts


def test_multiplier_passes_pinned(monkeypatch):
    # pins the elementwise products each primitive makes, as the FFT pins pin
    # its transforms: a multiplier runs the forward half-transform and the
    # backward one, and the twiddle pair between them, which cancels, is
    # never applied; spectral act adds its modulation
    assert _multiply_passes(monkeypatch, cold=True) == {
        "fourier": 2, "inverse_fourier": 2, "proj_hardy": 3, "hilbert": 3, "M": 1, "D": 3,
        "act": 4}


def test_multiplier_passes_on_a_kept_spectrum_pinned(monkeypatch):
    # the same f transformed again skips the forward half-transform, its
    # pre-twiddle included: one pass fewer for every primitive that transforms f
    assert _multiply_passes(monkeypatch, cold=False) == {
        "fourier": 1, "inverse_fourier": 2, "proj_hardy": 2, "hilbert": 2, "M": 1, "D": 2,
        "act": 3}
