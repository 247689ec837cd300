import copy
import math
import pickle

import numpy as np
import pytest

from heisenrep import (
    ConfigurationError, GridMismatchError, GridSpec, SampledFunction, act, dual_grid,
    fourier, hilbert, inverse_fourier, make_grid, norm, proj_hardy, restrict_halfline,
)
from heisenrep.grid import MAX_GRID_BYTES, _adopt
from heisenrep.heisenberg import IDENTITY, generator_apply
from heisenrep.psi import hardy_semigroup_step, pair_terms, psi_norm, tilde_norm, tilde_synthesize
from heisenrep.schwartz import (
    class_defects, generator_convergence, moment_orders, n_defect, norm_growth_check,
    seminorm_iter, seminorm_tower,
)
from heisenrep.transforms import spectral_multiply


def test_make_grid_layout():
    g = make_grid(32.0, 4096)
    assert g.spacing == 64.0 / 4096
    x = g.points
    assert x[0] == -32.0
    assert x[-1] == 32.0 - g.spacing
    assert 0.0 in x  # the origin is a sample


def test_make_grid_validation():
    with pytest.raises(ConfigurationError):
        make_grid(-1.0, 64)
    with pytest.raises(ConfigurationError):
        make_grid(32.0, 100)  # not a power of two
    with pytest.raises(ConfigurationError):
        make_grid(32.0, 2)
    with pytest.raises(ConfigurationError):
        make_grid(math.inf, 64)
    with pytest.raises(ConfigurationError):
        make_grid(math.nan, 64)
    with pytest.raises(ConfigurationError):
        make_grid(32.0, 64.5)
    # the dataclass itself validates, not only make_grid
    # 1e308 and 5e-324 leave the spacing 2L/N infinite or zero
    for half_width, size in ((math.inf, 64), (math.nan, 64), (0.0, 64), (32.0, 6), (32.0, 2),
                             (1e308, 4096), (5e-324, 4096)):
        with pytest.raises(ConfigurationError):
            GridSpec(half_width, size)


def test_grid_size_capped_in_bytes():
    # a complex array of the grid may take MAX_GRID_BYTES; nothing is allocated
    # to refuse a larger one
    top = MAX_GRID_BYTES // 16
    assert top >= 2 ** 20
    assert make_grid(1.0, top).size == top
    for size in (2 * top, 2 ** 40, np.int64(2 ** 62)):
        with pytest.raises(ConfigurationError, match="MAX_GRID_BYTES"):
            make_grid(1.0, size)


def test_dual_grid_involutive():
    # pi/(pi/dx) rounds back to dx at L = 32; at L = 100 and 12.5 it is one ulp off
    for half_width in (32.0, 100.0, 12.5):
        g = make_grid(half_width, 256)
        d = dual_grid(g)
        assert d.half_width == np.pi / g.spacing
        assert dual_grid(d) is g


def test_grid_arrays_cached_and_read_only():
    g = make_grid(32.0, 256)
    assert dual_grid(g) is dual_grid(g)
    assert g.points is g.points
    # the cache is per instance, built by the original formula
    assert np.array_equal(g.points, -32.0 + g.spacing * np.arange(256))
    for x in (g.points, dual_grid(g).points):
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            x *= 2.0


def test_generator_table_is_one_read_only_table_per_grid():
    # i*x, M's multiplier; the dual grid's serves D
    for g in (make_grid(32.0, 256), dual_grid(make_grid(32.0, 256)), make_grid(1e-3, 4)):
        table = g._i_points
        assert table is g._i_points
        assert table.tobytes() == (1j * g.points).tobytes()
        with pytest.raises(ValueError):
            table[0] = 0.0
        with pytest.raises(ValueError):
            table *= 2.0


def test_pickled_grid_does_not_carry_the_generator_table():
    g = make_grid(32.0, 256)
    bare = pickle.dumps(g)
    tables = g._i_points, dual_grid(g)._i_points  # built, and cached on both grids
    assert pickle.dumps(g) == bare
    for back in (pickle.loads(bare), copy.deepcopy(g)):
        assert "_i_points" not in vars(back)
        assert back._i_points.tobytes() == tables[0].tobytes()


# a function on the grid the refusal cases below are handed with their input
_ONES = SampledFunction(make_grid(4.0, 8), np.ones(8))


@pytest.mark.parametrize("call", [
    fourier, inverse_fourier, norm,
    lambda f: spectral_multiply(f, np.ones(8)),
    lambda f: hilbert(f),
    lambda f: hilbert(f, "line"),
    lambda f: hilbert(f, "principal_value"),
    lambda f: proj_hardy(f, "plus"),
    lambda f: act(IDENTITY, f),
    lambda f: act(IDENTITY, f, "grid"),
    lambda f: generator_apply("M", f),
    lambda f: generator_apply("D", f),
    lambda f: generator_apply("C", f),
    lambda f: restrict_halfline(f, "plus"),
    lambda f: next(moment_orders(f)),
    lambda f: n_defect(f),
    lambda f: psi_norm(f, f, 1),
    lambda f: pair_terms(f, f),
    lambda f: tilde_synthesize(f, f),
    lambda f: tilde_norm(f, f, 1),
    lambda f: tilde_norm(_ONES, f, 1),
    lambda f: hardy_semigroup_step(f, [0.5]),
    lambda f: _ONES + f,
    lambda f: seminorm_tower(f, 1),
    lambda f: seminorm_iter(f, 1),
    lambda f: generator_convergence("M", f, [0.5]),
    lambda f: norm_growth_check(IDENTITY, f, 1),
    lambda f: class_defects(f),
], ids=["fourier", "inverse_fourier", "norm", "spectral_multiply", "hilbert",
        "hilbert-line", "hilbert-pv", "proj_hardy", "act", "act-grid", "M", "D", "C",
        "restrict_halfline", "moment_orders", "n_defect", "psi_norm", "pair_terms",
        "tilde_synthesize", "tilde_norm", "tilde_norm-second", "hardy_semigroup_step", "add",
        "seminorm_tower", "seminorm_iter", "generator_convergence", "norm_growth_check",
        "class_defects"])
def test_what_is_not_a_sampled_function_is_refused_typed(call):
    for thing in ("x", np.zeros(8), [1.0, 2.0], None, make_grid(4.0, 8)):
        with pytest.raises(ConfigurationError, match="takes a SampledFunction"):
            call(thing)


@pytest.mark.parametrize("half_width", [32.0, 100.0])  # round trip exact / inexact
def test_repeated_transforms_reuse_grid_instances(half_width):
    g = make_grid(half_width, 256)
    assert dual_grid(dual_grid(g)) is g
    f = SampledFunction(g, np.exp(-g.points ** 2))
    grids = set()
    for _ in range(20):
        f = inverse_fourier(fourier(f))
        grids.add(id(f.grid))
    # without a closed cycle every transform would cache one more grid
    assert grids == {id(dual_grid(dual_grid(g)))}
    d = dual_grid(g)
    assert dual_grid(dual_grid(d)) is d


def test_spectral_results_stay_on_the_input_grid():
    # L = 100 does not round-trip the spacing; every result is still on f.grid
    g = make_grid(100.0, 256)
    f = SampledFunction(g, np.exp(-(g.points / 10.0) ** 2))
    results = [
        inverse_fourier(fourier(f)),
        generator_apply("D", f),
        proj_hardy(f, "plus") + proj_hardy(f, "minus"),
        hilbert(f),
    ]
    for out in results:
        assert out.grid is g
        assert (out - f).grid is g
    assert norm(results[0] - f) < 1e-13 * norm(f)
    assert norm(results[2] - f) < 1e-13 * norm(f)


def test_grid_pickles_without_caches():
    g = make_grid(32.0, 64)
    spec = fourier(SampledFunction(g, np.exp(-g.points ** 2)))
    for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert back.grid == spec.grid
        assert np.array_equal(back.values, spec.values)
        assert np.array_equal(back.grid.points, spec.grid.points)
        assert dual_grid(back.grid) == g


def test_pickled_or_copied_function_stays_read_only():
    g = make_grid(32.0, 64)
    f = SampledFunction(g, np.exp(-g.points ** 2))
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert back.values.tobytes() == f.values.tobytes() and back.values is not f.values
        with pytest.raises(ValueError):
            back.values[0] = 0.0


def test_sampled_function_immutable():
    g = make_grid(4.0, 8)
    f = SampledFunction(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_sampled_function_takes_only_a_frozen_complex_buffer():
    g = make_grid(4.0, 8)
    # a writeable caller array is copied: mutating it later changes nothing
    a = np.arange(8, dtype=complex)
    f = SampledFunction(g, a)
    a[0] = 99.0
    assert f.values[0] == 0.0 and f.values is not a
    # a read-only view of a writeable array is copied
    view = a[:]
    view.setflags(write=False)
    f = SampledFunction(g, view)
    a[1] = 99.0
    assert f.values[1] == 1.0 and f.values is not view
    # real samples are copied into a complex array, even when read-only
    real = np.arange(8.0)
    real.setflags(write=False)
    assert SampledFunction(g, real).values.dtype == complex
    # a complex, read-only array that owns its data is copied too: its owner
    # may turn writing back on, and a write after that changes nothing
    frozen = np.arange(8, dtype=complex)
    frozen.setflags(write=False)
    kept = SampledFunction(g, frozen)
    assert kept.values is not frozen
    frozen.setflags(write=True)
    frozen[2] = 99.0
    assert kept.values[2] == 2.0
    # only the library's _adopt shares a buffer, a fresh one it marks read-only
    buf = np.arange(8, dtype=complex)
    assert _adopt(g, buf).values is buf and not buf.flags.writeable
    # every result is read-only, the arithmetic's included
    h = SampledFunction(g, np.ones(8))
    for result in (h, h + h, h - h, 2.0 * h, -h):
        assert not result.values.flags.writeable


def test_public_constructor_always_copies():
    g = make_grid(4.0, 8)
    complex_frozen = np.arange(16, dtype=complex).reshape(2, 8)
    complex_frozen.setflags(write=False)
    fortran = np.asfortranarray(np.ones((8, 8), dtype=complex))
    fortran.setflags(write=False)
    for a in (np.arange(8.0), np.arange(8), np.ones(8, dtype=complex), complex_frozen,
              complex_frozen[1], fortran, np.ones(8, dtype=np.complex64)):
        f = SampledFunction(g, a)
        assert f.values is not a and not np.shares_memory(f.values, a)
        assert f.values.dtype == complex and not f.values.flags.writeable
        assert np.array_equal(f.values, a)
    # a function's own values are copied as any other array
    f = SampledFunction(g, np.ones(8))
    assert SampledFunction(g, f.values).values is not f.values


def test_sampled_function_refuses_non_finite_samples():
    g = make_grid(4.0, 8)
    stack = np.ones((3, 8))
    stack[1, 5] = np.nan
    for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)):
        values = np.ones(8, dtype=complex)
        values[3] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            SampledFunction(g, values)
    with pytest.raises(ConfigurationError, match="finite"):
        SampledFunction(g, stack)
    with pytest.raises(ConfigurationError, match="finite"):
        SampledFunction(g, [np.inf] * 8)


@pytest.mark.filterwarnings("error")
def test_arithmetic_refuses_a_factor_that_is_not_finite_or_does_not_broadcast():
    # refused before numpy multiplies, so no RuntimeWarning and no NaN function
    g = make_grid(4.0, 8)
    f = SampledFunction(g, np.ones(8))
    column = np.ones((3, 1))
    column[1] = np.nan
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), column, 10 ** 400, "x", None, f):
        with pytest.raises(ConfigurationError, match="finite numbers"):
            f * bad
        with pytest.raises(ConfigurationError, match="finite numbers"):
            bad * f
    for call in (lambda: f * np.ones(3), lambda: spectral_multiply(f, np.ones(3)),
                 lambda: SampledFunction(g, np.ones((2, 8))) * np.ones((3, 8))):
        with pytest.raises(GridMismatchError, match="does not broadcast"):
            call()
    # a column of factors makes a stack, one row per factor, as a stacked multiplier does
    assert (f * np.arange(1.0, 4.0)[:, None]).values.tobytes() == (
        np.arange(1.0, 4.0)[:, None] * np.ones(8, dtype=complex)).tobytes()
    assert spectral_multiply(f, np.ones((3, 8))).values.shape == (3, 8)


def test_sampled_function_shape_check():
    g = make_grid(4.0, 8)
    with pytest.raises(GridMismatchError):
        SampledFunction(g, np.ones(9))


def test_sampled_function_refuses_values_that_are_not_numbers():
    g = make_grid(4.0, 8)
    for values in (["a"] * 8, [[1.0] * 8, [1.0] * 7], object()):
        with pytest.raises(ConfigurationError, match="complex numbers"):
            SampledFunction(g, values)


def test_algebra_and_grid_mismatch():
    g = make_grid(4.0, 8)
    f = SampledFunction(g, np.arange(8))
    h = SampledFunction(g, np.ones(8))
    assert np.allclose((f + h).values, np.arange(8) + 1)
    assert np.allclose((f - h).values, np.arange(8) - 1)
    assert np.allclose((2.0 * f).values, 2 * np.arange(8))
    assert np.allclose((-f).values, -np.arange(8))
    other = SampledFunction(make_grid(8.0, 8), np.ones(8))
    with pytest.raises(GridMismatchError):
        _ = f + other


def test_inner_norm():
    g = make_grid(16.0, 1024)
    gauss = SampledFunction(g, np.exp(-g.points ** 2 / 2.0))
    assert abs(norm(gauss) ** 2 - np.sqrt(np.pi)) < 1e-12


def test_restrict_halfline_partition():
    g = make_grid(4.0, 16)
    f = SampledFunction(g, np.random.default_rng(0).standard_normal(16))
    plus = restrict_halfline(f, "plus")
    minus = restrict_halfline(f, "minus")
    assert np.array_equal((plus + minus).values, f.values)
    assert plus.values[np.where(g.points == 0.0)[0][0]] != 0.0 or True
    assert np.all(plus.values[g.points < 0] == 0.0)
    assert np.all(minus.values[g.points >= 0] == 0.0)
    with pytest.raises(ConfigurationError):
        restrict_halfline(f, "left")
