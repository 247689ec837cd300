import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenrep import (
    GroupElement, LieElement, SampledFunction, act, bracket,
    dual_grid, fourier, inverse_fourier, make_grid, multiply, norm,
)
from heisenrep.errors import ConfigurationError, PrecisionError
from heisenrep.heisenberg import (
    CHI1, CHI2, CHI3, IDENTITY, SEMIGROUPS, _phase, conjugate_by_fourier,
    element_from_lie, generator_apply, in_semigroup, inverse,
    random_in_semigroup,
)
from heisenrep.schwartz import generator_convergence, norm_growth_check
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
    bases = ("S1zero", "S1", "S2zero", "S2", "S3", "S4")
    assert tuple(SEMIGROUPS) == bases
    for base, semigroup in SEMIGROUPS.items():
        assert in_semigroup(IDENTITY, base)
        for _ in range(50):
            a = random_in_semigroup(rng, base)
            b = random_in_semigroup(rng, base)
            assert in_semigroup(multiply(a, b), base)
        w = semigroup.witness
        assert in_semigroup(w, base)
        assert not in_semigroup(inverse(w), base)
        # array-valued draws, tested elementwise
        batch = random_in_semigroup(rng, base, 1000)
        assert np.shape(batch.xi3) == (1000,)
        assert np.all(in_semigroup(batch, base))
        assert np.all(in_semigroup(multiply(batch, batch), base))
        # the inverse set S^-1 = {xi : inverse(xi) in S} holds the inverted
        # draws and is closed under the product
        batch = inverse(random_in_semigroup(rng, base, 1000))
        assert np.all(in_semigroup(inverse(batch), base))
        assert np.all(in_semigroup(inverse(multiply(batch, batch)), base))


def _refused(base):
    # refused with the names the table holds, before any draw
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError, match="unknown semigroup .*expected one of"):
        in_semigroup(IDENTITY, base)
    with pytest.raises(ConfigurationError, match="unknown semigroup .*expected one of"):
        random_in_semigroup(rng, base, 3)
    assert rng.uniform() == np.random.default_rng(0).uniform()


def test_semigroup_unknown_base():
    _refused("S9")


@pytest.mark.parametrize("base", [["S1"], ("S1",), 1, None])
def test_semigroup_refuses_a_base_that_is_not_a_str(base):
    _refused(base)


def test_random_in_semigroup_refuses_a_negative_size():
    with pytest.raises(ConfigurationError, match="size"):
        random_in_semigroup(np.random.default_rng(0), "S1", -1)
    assert np.shape(random_in_semigroup(np.random.default_rng(0), "S1", 0).xi1) == (0,)


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
    # PrecisionError means a finite xi1 off the grid; a non-finite one is
    # refused by the component check both modes make
    for xi1 in (0.1 * GRID.spacing, 1e308):
        with pytest.raises(PrecisionError):
            act(GroupElement(xi1, 0.0, 0.0), GAUSS, mode="grid")
    for xi1 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="real and finite"):
            act(GroupElement(xi1, 0.0, 0.0), GAUSS, mode="grid")


@pytest.mark.parametrize("mode", ["spectral", "grid"])
def test_act_refuses_components_not_real_and_finite(mode):
    # one ConfigurationError, before either mode acts, for each component
    bad = ("a", np.inf, -np.inf, np.nan, 1j, 10 ** 400, np.array([0.0, np.nan]),
           np.array(["a", "b"]), None)
    for value in bad:
        for xi in (GroupElement(value, 0.0, 0.0), GroupElement(0.0, value, 0.0),
                   GroupElement(0.0, 0.0, value)):
            with pytest.raises(ConfigurationError, match="real and finite"):
                act(xi, GAUSS, mode=mode)
    # integers and numpy floats are real
    dx = GRID.spacing
    assert act(GroupElement(0, np.float64(0.0), np.int64(0)), GAUSS, mode=mode).grid == GRID
    assert act(GroupElement(np.float32(4 * dx), 1, 0), GAUSS, mode=mode).grid == GRID


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["spectral", "grid"])
def test_act_refuses_phase_arguments_past_the_float_range(mode):
    # xi2 * x on f's grid in both modes, xi1 * y on the dual in spectral
    # mode; the largest components whose arguments stay finite still act
    big = np.finfo(float).max
    huge = [GroupElement(0.0, 1e308, 0.0), GroupElement(0.0, np.array([0.0, -1e308]), 0.0)]
    if mode == "spectral":
        huge += [GroupElement(1e308, 0.0, 0.0), GroupElement(np.array([1e308, 0.0]), 0.0, 0.0)]
    else:
        with pytest.raises(PrecisionError):
            act(GroupElement(1e308, 0.0, 0.0), GAUSS, mode=mode)
    for xi in huge:
        with pytest.raises(ConfigurationError, match="float range"):
            act(xi, GAUSS, mode=mode)
    edge = [GroupElement(0.0, np.nextafter(big / GRID.half_width, 0.0), 0.0)]
    if mode == "spectral":
        edge.append(GroupElement(np.nextafter(big / dual_grid(GRID).half_width, 0.0), 0.0, 0.0))
    for xi in edge:
        assert np.isfinite(act(xi, GAUSS, mode=mode).values).all()


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


def test_generator_convergence_refuses_non_finite_steps():
    # refused with the non-positive steps, before any element is formed
    for t_list in ([0.0], [-1e-3], [np.inf], [np.nan], [1e-3, np.inf]):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            generator_convergence("D", GAUSS, t_list)


@pytest.mark.filterwarnings("error")
def test_generator_convergence_refuses_a_step_with_an_infinite_reciprocal():
    # 1/t of a subnormal step overflows (the curve read NaN)
    for t_list in ([1e-320], [1e-3, 5e-324]):
        with pytest.raises(ConfigurationError, match="positive and finite, as must 1/t"):
            generator_convergence("D", GAUSS, t_list)


@pytest.mark.filterwarnings("error")
def test_norm_growth_check_refuses_a_bound_past_the_float_range():
    # xi1 ** 2 overflows at 1e200, the order-3 power at 1e110; 1e100 still measures
    for xi1 in (1e200, 1e110, -1e200):
        xis = GroupElement(np.array([0.5, xi1]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        message = re.escape(f"bound of ({xi1!r}, 0.0, 0.0) overflows")
        with pytest.raises(ConfigurationError, match=message):
            norm_growth_check(xis, GAUSS, 3)
    ratios = norm_growth_check(GroupElement(np.array([1e100]), np.array([0.0]), np.array([0.0])),
                               GAUSS, 3)
    assert np.isfinite(ratios).all()


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
    xis = GroupElement(*rng.uniform(-5, 5, (20, 3)).T)
    ratios = norm_growth_check(xis, GAUSS, 2)
    assert ratios.shape == (20, 3)
    assert np.all(ratios <= 1.0 + 1e-10)


def test_conjugate_by_fourier_formula():
    assert conjugate_by_fourier(GroupElement(1.0, 0.0, 0.0)) == GroupElement(0.0, 1.0, 0.0)
    xi = GroupElement(1.0, 2.0, 3.0)
    assert conjugate_by_fourier(xi) == GroupElement(-2.0, 1.0, 1.0)


def test_element_from_lie():
    assert element_from_lie(CHI1, 0.5) == GroupElement(0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# property tests: the group law and the representation
#
# Bounds come from the rounding model fl(a op b) = (a op b)(1 + d) + e with
# |d| <= eps/2 and |e| <= TINY (gradual underflow), fixed before measuring.
# Summing k terms and forming the products in them then errs by at most
# about (k + 1) eps/2 times the sum of the magnitudes of the terms.

TINY = np.finfo(float).smallest_subnormal
PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)
coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
elements = st.builds(GroupElement, coords, coords, coords)


def _close(got, want, terms, c):
    """|got - want| <= c eps (sum |terms|) + c TINY, componentwise."""
    return abs(got - want) <= c * EPS * sum(abs(t) for t in terms) + c * TINY


@PROPERTY
@given(elements, elements, elements)
def test_group_law_associative(xi, eta, zeta):
    # components 1, 2: two sums of three terms on each side, eps per side;
    # component 3: five terms and three products on each side, 3 eps per
    # side; c = 8 covers both sides of either
    lhs = multiply(multiply(xi, eta), zeta)
    rhs = multiply(xi, multiply(eta, zeta))
    assert _close(lhs.xi1, rhs.xi1, (xi.xi1, eta.xi1, zeta.xi1), 8)
    assert _close(lhs.xi2, rhs.xi2, (xi.xi2, eta.xi2, zeta.xi2), 8)
    assert _close(lhs.xi3, rhs.xi3,
                  (xi.xi3, eta.xi3, zeta.xi3, xi.xi1 * eta.xi2,
                   xi.xi1 * zeta.xi2, eta.xi1 * zeta.xi2), 8)


@PROPERTY
@given(elements)
def test_group_law_inverse_and_identity(xi):
    # x + (-x) is exactly 0; the third component rounds one product and
    # three sums of the terms xi3 and xi1*xi2, 2 eps at most, so c = 4
    for prod in (multiply(xi, inverse(xi)), multiply(inverse(xi), xi)):
        assert prod.xi1 == 0.0 and prod.xi2 == 0.0
        assert _close(prod.xi3, 0.0, (xi.xi3, xi.xi1 * xi.xi2), 4)
    # adding zeros and multiplying by zero round nothing: exact
    assert multiply(xi, IDENTITY) == xi
    assert multiply(IDENTITY, xi) == xi


@PROPERTY
@given(elements, elements)
def test_conjugate_by_fourier_is_homomorphism(xi, eta):
    # components 1, 2 are the same sums up to an exact negation; component
    # 3 is six terms (xi3, eta3 and four cross products) with about 3 eps
    # per side, so c = 8
    lhs = conjugate_by_fourier(multiply(xi, eta))
    rhs = multiply(conjugate_by_fourier(xi), conjugate_by_fourier(eta))
    assert lhs.xi1 == rhs.xi1 and lhs.xi2 == rhs.xi2
    assert _close(lhs.xi3, rhs.xi3,
                  (xi.xi3, eta.xi3, xi.xi1 * eta.xi2, xi.xi1 * xi.xi2,
                   eta.xi1 * eta.xi2, xi.xi2 * eta.xi1), 8)


SMALL = make_grid(16.0, 256)
BIN = np.pi / SMALL.half_width
spans = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
commensurate = st.builds(
    lambda x1, k, x3: GroupElement(x1, BIN * k, x3), spans, st.integers(-8, 8), spans)


@PROPERTY
@given(commensurate, commensurate, spans)
def test_representation_homomorphism_spectral(xi, eta, center):
    # bin-commensurate modulations shift the spectrum by whole bins, so
    # U(xi)U(eta) = U(xi eta) holds exactly on samples up to the spectrum
    # that wraps past the band edge, which for this Gaussian is below
    # e^{-200}.  What remains is rounding: each of the six phase tables is
    # within _phase_bound of exact pointwise, each of the six FFTs adds
    # eps*log2(N) in l2, and the group law rounds the arguments of the
    # right side's phases by eps times |xi1 + eta1| max|y|, |xi2 + eta2| L
    # and twice the magnitudes in its third component
    f = sample(GaussianPoly(center, 1.0, (1.0,)), SMALL)
    dual = dual_grid(SMALL)
    prod = multiply(xi, eta)
    tol = (_phase_bound(xi.xi1, dual) + _phase_bound(eta.xi1, dual)
           + _phase_bound(prod.xi1, dual)
           + _phase_bound(xi.xi2, SMALL) + _phase_bound(eta.xi2, SMALL)
           + _phase_bound(prod.xi2, SMALL)
           + 6 * EPS * np.log2(SMALL.size)
           + EPS * (abs(prod.xi1) * dual.half_width + abs(prod.xi2) * SMALL.half_width
                    + 2 * (abs(xi.xi3) + abs(eta.xi3) + abs(xi.xi1 * eta.xi2))))
    lhs = act(xi, act(eta, f, mode="spectral"), mode="spectral")
    rhs = act(prod, f, mode="spectral")
    assert norm(lhs - rhs) <= tol * norm(f)
