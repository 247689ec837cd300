import numpy as np
import pytest

from heisenrep import (
    GroupElement, LieElement, SampledFunction, SemigroupId, act, bracket,
    dual_grid, fourier, inverse_fourier, make_grid, multiply, norm,
)
from heisenrep.errors import ConfigurationError, PrecisionError
from heisenrep.heisenberg import (
    CHI1, CHI2, CHI3, IDENTITY, _phase, conjugate_by_fourier, element_from_lie,
    generator_apply, generator_convergence, in_semigroup, inverse,
    norm_growth_check, random_in_semigroup, semigroup_noninverse_witness,
)
from heisenrep.testfn import GaussianPoly, sample

GRID = make_grid(32.0, 4096)
GAUSS = sample(GaussianPoly(0.0, 1.0, (1.0,)), GRID)
EPS = np.finfo(float).eps


def test_group_law_and_inverse():
    xi = GroupElement(1.0, 2.0, 3.0)
    eta = GroupElement(0.5, -1.0, 2.0)
    assert multiply(xi, eta) == GroupElement(1.5, 1.0, 5.0 + 1.0 * (-1.0))
    assert multiply(xi, inverse(xi)) == IDENTITY
    assert multiply(inverse(xi), xi) == IDENTITY
    assert multiply(xi, IDENTITY) == xi


def test_noncommutativity():
    xi = GroupElement(1.0, 0.0, 0.0)
    eta = GroupElement(0.0, 1.0, 0.0)
    assert multiply(xi, eta) != multiply(eta, xi)


def test_bracket_table():
    assert bracket(CHI1, CHI2) == CHI3
    assert bracket(CHI2, CHI1) == LieElement(0.0, 0.0, -1.0)
    assert bracket(CHI1, CHI3) == LieElement(0.0, 0.0, 0.0)
    assert bracket(CHI2, CHI3) == LieElement(0.0, 0.0, 0.0)


def test_semigroup_membership_and_witnesses():
    rng = np.random.default_rng(0)
    for base in ("S1zero", "S1", "S2zero", "S2", "S3", "S4"):
        sid = SemigroupId(base)
        assert in_semigroup(IDENTITY, sid)
        for _ in range(50):
            a = random_in_semigroup(rng, sid)
            b = random_in_semigroup(rng, sid)
            assert in_semigroup(multiply(a, b), sid)
        w = semigroup_noninverse_witness(sid)
        assert in_semigroup(w, sid)
        assert not in_semigroup(inverse(w), sid)
        # inverse-flagged id mirrors membership
        assert in_semigroup(inverse(w), SemigroupId(base, inverted=True))
        # array-valued draws, tested elementwise
        for array_sid in (sid, SemigroupId(base, inverted=True)):
            batch = random_in_semigroup(rng, array_sid, 1000)
            assert np.shape(batch.xi3) == (1000,)
            assert np.all(in_semigroup(batch, array_sid))
            assert np.all(in_semigroup(multiply(batch, batch), array_sid))


def test_semigroup_unknown_base():
    with pytest.raises(ConfigurationError):
        SemigroupId("S9")


def test_act_identity_and_unitarity():
    assert norm(act(IDENTITY, GAUSS) - GAUSS) < 1e-13
    xi = GroupElement(1.3, -0.7, 0.2)
    assert abs(norm(act(xi, GAUSS)) - norm(GAUSS)) < 1e-13 * norm(GAUSS)


def test_act_spectral_translation_matches_closed_form():
    xi = GroupElement(2.0, 0.0, 0.0)
    moved = act(xi, GAUSS)
    expected = np.exp(-((GRID.points + 2.0) ** 2) / 2.0)
    assert np.max(np.abs(moved.values - expected)) < 1e-10


def test_act_grid_mode_exact_support():
    xi = GroupElement(4 * GRID.spacing, 0.0, 0.0)
    moved = act(xi, GAUSS, mode="grid")
    assert np.array_equal(moved.values[:-4], GAUSS.values[4:])
    assert np.all(moved.values[-4:] == 0.0)
    with pytest.raises(PrecisionError):
        act(GroupElement(0.1 * GRID.spacing, 0.0, 0.0), GAUSS, mode="grid")


def test_homomorphism_spectral_commensurate_modulation():
    dy = np.pi / GRID.half_width
    rng = np.random.default_rng(1)
    f = GAUSS
    for _ in range(10):
        xi = GroupElement(float(rng.uniform(-4, 4)),
                          dy * int(rng.integers(-40, 41)), float(rng.uniform(-4, 4)))
        eta = GroupElement(float(rng.uniform(-4, 4)),
                           dy * int(rng.integers(-40, 41)), float(rng.uniform(-4, 4)))
        lhs = act(xi, act(eta, f))
        rhs = act(multiply(xi, eta), f)
        assert norm(lhs - rhs) < 1e-12 * norm(f)


def test_generator_commutator():
    dm = generator_apply("D", generator_apply("M", GAUSS))
    md = generator_apply("M", generator_apply("D", GAUSS))
    assert norm(dm - md - generator_apply("C", GAUSS)) < 1e-10 * norm(GAUSS)


def test_generator_convergence_first_order():
    t_list = [1e-2, 5e-3, 2.5e-3]
    for gen in ("M", "D", "C"):
        curves = generator_convergence(gen, GAUSS, t_list, n=1)
        assert len(curves) == 2
        for curve in curves:
            assert [t for t, _ in curve] == t_list
            errs = [e for _, e in curve]
            assert 1.8 <= errs[0] / errs[1] <= 2.2
            assert 1.8 <= errs[1] / errs[2] <= 2.2


def _act_reference(xi, f, mode):
    """act with every phase formed as np.exp(1j * ...), its original formula."""
    x = f.grid.points
    if mode == "spectral":
        spec = fourier(f)
        y = dual_grid(f.grid).points
        vals = inverse_fourier(SampledFunction(spec.grid, np.exp(1j * xi.xi1 * y) * spec.values)).values
    else:
        m = round(xi.xi1 / f.grid.spacing)
        vals = np.zeros(f.grid.size, dtype=complex)
        if m >= 0:
            vals[: f.grid.size - m] = f.values[m:]
        else:
            vals[-m:] = f.values[: f.grid.size + m]
    phase = np.exp(1j * xi.xi3) * np.exp(1j * xi.xi2 * x)
    return phase * vals


def _phase_bound(a, grid):
    """Error allowed for a phase e^{i a x} on `grid`, |x| <= half_width:
    rounding x and a*x moves the argument by at most eps*|a x|, and cos/sin,
    the table product and a factor add a few ulps; 4 eps (1 + |a| max|x|)
    holds both with room.  Fixed from the error model, not from observed
    errors."""
    return 4 * EPS * (1.0 + abs(a) * grid.half_width)


@pytest.mark.parametrize("size", [4, 1024, 4096, 65536])
def test_phase_tables_match_long_double_reference(size):
    rng = np.random.default_rng(size)
    amplitudes = [0.0, 5.0, -5.0, *rng.uniform(-5, 5, 7)]
    space = make_grid(32.0, size)
    for grid in (space, dual_grid(space)):
        # the grid the tables represent: x_j = -L + j*h from L and h exactly
        j = np.arange(grid.size, dtype=np.longdouble)
        x = -np.longdouble(grid.half_width) + np.longdouble(grid.spacing) * j
        for a in amplitudes:
            theta = float(rng.uniform(-4, 4))
            factor = np.exp(1j * theta)
            t = np.longdouble(a) * x
            exact = np.clongdouble(factor) * (np.cos(t) + 1j * np.sin(t))
            got = _phase(a, grid, factor)
            assert got.shape == (grid.size,)
            err = float(np.max(np.abs(got.astype(np.clongdouble) - exact)))
            assert err <= _phase_bound(a, grid), (grid, a, err)
        assert np.array_equal(_phase(0.0, grid), np.ones(grid.size))


def _act_reference(xi, f, mode):
    """act with every phase formed as np.exp(1j * ...), its original formula."""
    x = f.grid.points
    if mode == "spectral":
        spec = fourier(f)
        y = dual_grid(f.grid).points
        vals = inverse_fourier(SampledFunction(spec.grid, np.exp(1j * xi.xi1 * y) * spec.values)).values
    else:
        m = round(xi.xi1 / f.grid.spacing)
        vals = np.zeros(f.grid.size, dtype=complex)
        if m >= 0:
            vals[: f.grid.size - m] = f.values[m:]
        else:
            vals[-m:] = f.values[: f.grid.size + m]
    phase = np.exp(1j * xi.xi3) * np.exp(1j * xi.xi2 * x)
    return phase * vals


@pytest.mark.parametrize("mode", ["spectral", "grid"])
def test_act_matches_exponential_phases(mode):
    rng = np.random.default_rng(5)
    f = SampledFunction(GRID, rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size))
    draws = [rng.uniform(-5, 5, 3) for _ in range(12)]
    draws += [(0.0, 1.3, 0.7), (2.1, 0.0, -0.4), (0.0, 0.0, 0.9), (0.0, 0.0, 0.0)]
    for x1, x2, x3 in draws:
        if mode == "grid":
            x1 = round(x1 / GRID.spacing) * GRID.spacing
        xi = GroupElement(float(x1), float(x2), float(x3))
        # each side's phases are within _phase_bound of exact, pointwise, so
        # they differ by twice that in the l2 norm relative to ||f||; the
        # spectral side adds the rounding of four FFTs, eps*log2(N) each
        tol = 2 * _phase_bound(xi.xi2, GRID)
        if mode == "spectral":
            tol += 2 * _phase_bound(xi.xi1, dual_grid(GRID)) + 4 * EPS * np.log2(GRID.size)
        diff = act(xi, f, mode=mode).values - _act_reference(xi, f, mode)
        assert np.linalg.norm(diff) <= tol * np.linalg.norm(f.values), (xi, mode)


def test_norm_growth_bound():
    rng = np.random.default_rng(2)
    xis = [GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3))) for _ in range(20)]
    ratios = norm_growth_check(xis, GAUSS, 2)
    assert ratios.shape == (20, 3)
    assert np.all(ratios <= 1.0 + 1e-10)


def test_conjugate_by_fourier_formula():
    assert conjugate_by_fourier(GroupElement(1.0, 0.0, 0.0)) == GroupElement(0.0, 1.0, 0.0)
    xi = GroupElement(1.0, 2.0, 3.0)
    assert conjugate_by_fourier(xi) == GroupElement(-2.0, 1.0, 1.0)


def test_element_from_lie():
    assert element_from_lie(CHI1, 0.5) == GroupElement(0.5, 0.0, 0.0)
