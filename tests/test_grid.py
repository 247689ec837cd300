import copy
import math
import pickle

import numpy as np
import pytest

from heisenrep import (
    ConfigurationError, GridMismatchError, GridSpec, SampledFunction, dual_grid, fourier,
    inner, integrate, inverse_fourier, make_grid, norm, restrict_halfline,
)


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


def test_dual_grid_involutive():
    g = make_grid(32.0, 256)
    d = dual_grid(g)
    assert d.half_width == np.pi / g.spacing
    assert dual_grid(d) == g


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


@pytest.mark.parametrize("half_width", [32.0, 100.0])  # round trip exact / inexact
def test_repeated_transforms_reuse_grid_instances(half_width):
    g = make_grid(half_width, 256)
    assert (dual_grid(dual_grid(g)) == g) == (half_width == 32.0)
    f = SampledFunction(g, np.exp(-g.points ** 2))
    grids = set()
    for _ in range(20):
        f = inverse_fourier(fourier(f))
        grids.add(id(f.grid))
    # without a closed cycle every transform would cache one more grid
    assert grids == {id(dual_grid(dual_grid(g)))}
    d = dual_grid(g)
    assert dual_grid(dual_grid(d)) is d


def test_grid_pickles_without_caches():
    g = make_grid(32.0, 64)
    spec = fourier(SampledFunction(g, np.exp(-g.points ** 2)))
    for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert back.grid == spec.grid
        assert np.array_equal(back.values, spec.values)
        assert np.array_equal(back.grid.points, spec.grid.points)
        assert dual_grid(back.grid) == g


def test_sampled_function_immutable():
    g = make_grid(4.0, 8)
    f = SampledFunction(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_sampled_function_shape_check():
    g = make_grid(4.0, 8)
    with pytest.raises(GridMismatchError):
        SampledFunction(g, np.ones(9))


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


def test_integrate_inner_norm():
    g = make_grid(16.0, 1024)
    gauss = SampledFunction(g, np.exp(-g.points ** 2 / 2.0))
    assert abs(integrate(gauss) - np.sqrt(2 * np.pi)) < 1e-12
    assert abs(norm(gauss) ** 2 - np.sqrt(np.pi)) < 1e-12
    assert abs(inner(gauss, gauss) - norm(gauss) ** 2) < 1e-12
    # conjugate-linear in the first slot
    assert abs(inner(gauss * 1j, gauss) - (-1j) * inner(gauss, gauss)) < 1e-12


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
