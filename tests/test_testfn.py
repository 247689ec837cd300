import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from heisenrep import SampledFunction, make_grid
from heisenrep import schwartz
from heisenrep import testfn as T
from heisenrep.annihilator import AnnihilatorConfig, moment_defects
from heisenrep.errors import CapabilityError, ConfigurationError, NotExactlyIntegrable
from heisenrep.psi import certify_nminus
from heisenrep.testfn import (
    Affine, CompactBump, GaussianPoly, Mirrored, Piece, PiecewisePoly, Summed,
    Translated, derivative, evaluate, exact_l1_norm, exact_l2_norm, exact_moment,
    sample, smoothness_budget, support, to_piecewise,
)

EPS = np.finfo(float).eps


def test_gaussian_evaluate():
    g = GaussianPoly(0.0, 1.0, (1.0,))
    assert evaluate(g, 0.0) == 1.0
    assert abs(evaluate(g, 2.0) - math.exp(-2.0)) < 1e-15


def test_bump_support_and_smoothness():
    b = CompactBump(1.0, 2.0, 4)
    assert support(b) == ((1.0, 2.0),)
    assert smoothness_budget(b) == 3
    assert evaluate(b, 0.999) == 0.0
    assert evaluate(b, 2.0) == 0.0
    assert evaluate(b, 1.5) == 0.5 ** 8


def test_derivative_gaussian_recurrence():
    g = GaussianPoly(0.0, 1.0, (1.0,))
    d2 = derivative(g, 2)
    x = np.linspace(-3, 3, 41)
    expected = (x ** 2 - 1.0) * np.exp(-x ** 2 / 2.0)
    assert np.max(np.abs(evaluate(d2, x) - expected)) < 1e-13


def test_derivative_budget_enforced():
    b = CompactBump(0.0, 1.0, 3)
    derivative(b, 2)
    with pytest.raises(CapabilityError):
        derivative(b, 3)


def test_derivative_matches_finite_difference():
    b = CompactBump(-1.0, 1.0, 6)
    d = derivative(b, 1)
    x = np.linspace(-0.9, 0.9, 19)
    h = 1e-6
    fd = (evaluate(b, x + h) - evaluate(b, x - h)) / (2 * h)
    assert np.max(np.abs(evaluate(d, x) - fd)) < 1e-4


def test_wrappers_evaluate_consistently():
    b = CompactBump(0.0, 1.0, 4)
    x = np.linspace(-3, 3, 241)
    assert np.allclose(evaluate(Translated(b, 2.0), x), evaluate(b, x - 2.0))
    assert np.allclose(evaluate(Mirrored(b), x), evaluate(b, -x))
    assert np.allclose(evaluate(Affine(b, rate=2.0), x), evaluate(b, 2.0 * x))
    assert np.allclose(evaluate(Affine(b, gain=3.0 - 1j), x), (3.0 - 1j) * evaluate(b, x))
    assert np.allclose(evaluate(Summed((b, Translated(b, 1.0))), x),
                       evaluate(b, x) + evaluate(b, x - 1.0))


def test_exact_moment_bump():
    # integral of x^n (x-a)^p (b-x)^p over (a, b), checked against quadrature
    b = CompactBump(1.0, 2.0, 3)
    xs = np.linspace(1.0, 2.0, 200001)
    for n in range(4):
        quad = np.trapezoid(xs ** n * evaluate(b, xs).real, xs)
        assert abs(complex(exact_moment(b, n)).real - quad) < 1e-10


def test_exact_moment_translation_binomial():
    b = CompactBump(0.0, 1.0, 4)
    s = 3.0
    m0 = complex(exact_moment(b, 0)).real
    m1 = complex(exact_moment(b, 1)).real
    m2 = complex(exact_moment(b, 2)).real
    shifted = Translated(b, s)
    assert abs(complex(exact_moment(shifted, 2)).real
               - (m2 + 2 * s * m1 + s * s * m0)) < 1e-14


def test_exact_moment_derivative_kills_low_orders():
    d = derivative(CompactBump(0.0, 1.0, 10), 5)
    scale = exact_l1_norm(d)
    for n in range(5):
        assert abs(complex(exact_moment(d, n))) < 1e-12 * scale


def test_exact_l2_norm_oracle():
    b = CompactBump(-1.0, 1.0, 2)
    # (1-x^2)^2 squared integrates to 256/315 on (-1, 1)
    assert abs(exact_l2_norm(b) - math.sqrt(256.0 / 315.0)) < 1e-14


def test_exact_l2_norm_scale_invariance_extreme():
    # blocks far from the origin with huge widths must not lose precision
    base = derivative(CompactBump(0.0, 1.0, 8), 3)
    ref = exact_l2_norm(base)
    for h in (1.0, 1e6, 1e13):
        moved = Translated(Affine(base, rate=1.0 / h), 1e13)
        # dilation by h scales the L2 norm by sqrt(h)
        assert abs(exact_l2_norm(moved) / (ref * math.sqrt(h)) - 1.0) < 1e-9


def test_exact_moment_keeps_small_imaginary_parts():
    # a moment is always complex: a function of tiny magnitude keeps its
    # imaginary part, and a real tree's is exactly 0
    tiny = CompactBump(0.0, 0.1, 5)
    m = exact_moment(tiny, 0)
    assert m.imag == 0.0 and 0.0 < m.real < 1e-14
    assert exact_moment(Affine(tiny, gain=1.0 + 1.0j), 0) == complex(m.real, m.real)
    assert type(exact_moment(Affine(tiny, gain=2.0 + 0.0j), 0)) is complex


def test_exact_moment_refuses_gaussian():
    with pytest.raises(NotExactlyIntegrable):
        exact_moment(GaussianPoly(0.0, 1.0, (1.0,)), 0)


def test_to_piecewise_touches_only_frame():
    b = CompactBump(0.0, 1.0, 4)
    pw = to_piecewise(Translated(Affine(b, rate=0.5), 7.0))
    base = to_piecewise(b)
    assert pw.pieces[0].coefficients == base.pieces[0].coefficients
    assert pw.pieces[0].scale == 2.0 * base.pieces[0].scale
    x = np.linspace(6.0, 10.0, 101)
    assert np.allclose(evaluate(pw, x), evaluate(b, 0.5 * (x - 7.0)))


def test_bump_is_one_piece():
    b = CompactBump(1.0, 3.0, 4)
    assert isinstance(b, PiecewisePoly)
    (pc,) = b.pieces
    assert (pc.x0, pc.a, pc.b, pc.scale, b.smooth) == (2.0, 1.0, 3.0, 1.0, 3)
    for bad in ((1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0)):
        with pytest.raises(ConfigurationError):
            CompactBump(*bad)


def test_bump_evaluate_matches_factored_form():
    # The bump is half^{2p} (1 - v^2)^p in v = (x - x0)/half, summed by
    # Horner's rule over 2p + 1 coefficients whose absolute sum is
    # 2^p half^{2p}: that rounds by at most 2(2p + 1) eps 2^p half^{2p} on
    # |v| <= 1.  v itself rounds by about 2 eps (|x0| + half)/half, and the
    # monomial form's slope is at most 2p 2^p half^{2p}.  The factored
    # reference (x - a)^p (b - x)^p rounds by about 2p eps times its value,
    # below the first term.  A bound derived from the form, not fitted.
    rng = np.random.default_rng(22)
    for _ in range(500):
        a = float(rng.uniform(-50.0, 50.0))
        b = a + float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        p = int(rng.integers(1, 14))
        x0, half = 0.5 * (a + b), 0.5 * (b - a)
        x = np.concatenate([[a, b], a + (b - a) * rng.uniform(0.0, 1.0, 64)])
        x = x[(x >= a) & (x <= b)]
        factored = np.where((x > a) & (x < b), (x - a) ** p * (b - x) ** p, 0.0)
        bound = (EPS * 2.0 ** p * (2 * (2 * p + 1) + 2 * p * (abs(x0) + half) / half)
                 * half ** (2 * p))
        assert np.max(np.abs(evaluate(CompactBump(a, b, p), x) - factored)) <= bound, (a, b, p)


def test_sample_matches_evaluate():
    g = make_grid(8.0, 256)
    b = CompactBump(-2.0, 2.0, 4)
    assert np.array_equal(sample(b, g).values, evaluate(b, g.points).astype(complex))


@pytest.mark.parametrize("tf", [
    GaussianPoly(0.0, 1.0, (1e308, 1e308)),  # finite fields, overflowing samples
    GaussianPoly(0.0, 1.0, (0.0, 0.0, 1e308)),  # finite fields, infinite samples
])
def test_sample_refuses_non_finite_values(tf):
    with pytest.raises(ConfigurationError, match="non-finite"):
        sample(tf, make_grid(8.0, 64))


def test_nodes_refuse_non_finite_frames():
    # a NaN or infinite frame or coefficient used to be accepted and surfaced
    # later as a NaN moment or a RuntimeWarning; a coefficient is named by
    # its index
    for kwargs, field in (({"x0": math.nan}, "x0"), ({"a": -math.inf, "b": math.inf}, "a"),
                          ({"b": math.inf}, "b"), ({"scale": math.inf}, "scale"),
                          ({"coefficients": (math.nan,)}, "coefficient 0"),
                          ({"coefficients": (1.0, 2.0, complex(0.0, -math.inf))},
                           "coefficient 2")):
        with pytest.raises(ConfigurationError, match=f"piece {field} must be finite"):
            Piece(**{"x0": 0.0, "a": -1.0, "b": 1.0, "coefficients": (1.0,), **kwargs})
    for center, width, field in ((math.nan, 1.0, "center"), (math.inf, 1.0, "center"),
                                 (0.0, math.nan, "width"), (0.0, math.inf, "width")):
        with pytest.raises(ConfigurationError, match=f"GaussianPoly {field} must be finite"):
            GaussianPoly(center, width, (1.0,))
    for coefficients, field in (((math.inf,), "coefficient 0"),
                                ((1.0, complex(math.nan, 0.0)), "coefficient 1")):
        with pytest.raises(ConfigurationError, match=f"GaussianPoly {field} must be finite"):
            GaussianPoly(0.0, 1.0, coefficients)
    bump, gauss = CompactBump(0.0, 1.0, 3), GaussianPoly(1.0, 1.0, (1.0,))
    for kwargs in ({"rate": math.nan}, {"rate": math.inf}, {"shift": -math.inf},
                   {"gain": complex(1.0, math.nan)}, {"gain": math.inf}):
        (field,) = kwargs
        for tf in (bump, gauss):
            with pytest.raises(ConfigurationError, match=f"Affine {field} must be finite"):
                Affine(tf, **kwargs)
    # finite parameters whose lowered frame overflows are refused by the node
    with pytest.raises(ConfigurationError, match="piece x0 must be finite"):
        Translated(Affine(CompactBump(1.0, 2.0, 3), rate=1e-320), 0.0)
    with pytest.raises(ConfigurationError, match="piece coefficient 0 must be finite"):
        Affine(CompactBump(0.0, 100.0, 2), gain=1e305)
    with pytest.raises(ConfigurationError, match="GaussianPoly center must be finite"):
        Affine(gauss, rate=1e-320)
    with pytest.raises(ConfigurationError, match="nonzero"):
        Affine(bump, rate=0.0)


@pytest.mark.parametrize("width", [1e200, 1e-200, 1.4e154, 7e-155, 9.5e153, 10 ** 200])
def test_gaussian_refuses_a_width_whose_square_leaves_the_float_range(width):
    # sample divides by 2 w^2 and derivative by w^2, so the width is refused
    # by name, with no other error or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="GaussianPoly width"):
            GaussianPoly(0.0, width, (1.0,))
        with pytest.raises(ConfigurationError, match="GaussianPoly width"):
            Affine(GaussianPoly(0.0, 1.0, (1.0,)), rate=1.0 / width)


def test_gaussian_keeps_widths_whose_square_is_in_range():
    grid = make_grid(8.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width in (1e-154, 1e-3, 1.0, 1e3, 1e150):
            g = GaussianPoly(0.0, width, (1.0,))
            u = grid.points
            with np.errstate(over="ignore"):  # as sample's own quiet scope
                expected = np.exp(-(u * u) / (2.0 * width ** 2)) + 0j
            assert sample(g, grid).values.tobytes() == expected.tobytes()
            assert derivative(g, 1).coefficients == (0.0, -1.0 / width ** 2)


def test_integers_past_the_float_range_are_refused_by_name():
    # an int that cannot convert to float is refused like a non-finite value
    for build, field in ((lambda: Piece(10 ** 400, 0.0, 1.0, (1.0,)), "piece x0"),
                         (lambda: Piece(0.0, 0.0, 1.0, (1.0, 10 ** 400)), "piece coefficient 1"),
                         (lambda: GaussianPoly(0.0, 10 ** 400, (1.0,)), "GaussianPoly width"),
                         (lambda: Affine(CompactBump(0.0, 1.0, 2), gain=10 ** 400), "Affine gain"),
                         (lambda: Affine(CompactBump(0.0, 1.0, 2), shift=-10 ** 400),
                          "Affine shift")):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            build()
    # integers inside the range stay accepted
    assert Piece(10 ** 300, 0.0, 1.0, (1,)).x0 == 10 ** 300


def test_pascal_tables_equal_the_binomials():
    for n in (1, 2, 3, 7, 64, 301, 401):
        binom, shift, upper = T._pascal(n)
        expected = np.array([[float(math.comb(j, i)) for i in range(n)] for j in range(n)])
        assert binom.tobytes() == expected.tobytes(), n
        j, i = np.ogrid[:n, :n]
        assert np.array_equal(shift, np.maximum(j - i, 0))
        assert np.array_equal(upper, i <= j)
        for table in (binom, shift, upper):
            assert not table.flags.writeable


def test_closed_forms_refuse_results_beyond_the_float_range():
    # finite coefficients whose moment and squared norm overflow used to give
    # inf+0j and nan with a RuntimeWarning; now a ConfigurationError naming
    # the descriptor, and no warning
    big = PiecewisePoly((Piece(0.0, -1.0, 1.0, (1e308, 1e308)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, 4):
            with pytest.raises(ConfigurationError, match=f"order-{n} moment of PiecewisePoly"):
                exact_moment(big, n)
        with pytest.raises(ConfigurationError, match="L\\^2 norm of PiecewisePoly"):
            exact_l2_norm(big)
        # a Python float power that overflows (x0^2) is refused the same way,
        # and the finite orders are still served
        far = PiecewisePoly((Piece(1e155, 1e155 - 1e150, 1e155 + 1e150, (1.0,), 1e150),))
        with pytest.raises(ConfigurationError, match="order-2 moment"):
            exact_moment(far, 2)
        assert exact_moment(far, 1) == pytest.approx(2e305)
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigurationError):
            exact_moment(CompactBump(0.0, 1.0, 2), bad)


@pytest.mark.parametrize("refused, message", [
    # binomials past the float range, refused before a table is built (a bare
    # OverflowError after seconds of work)
    (lambda: exact_moment(CompactBump(0.0, 1.0, 2), 1100), "binomials of degree 1100"),
    (lambda: moment_defects(CompactBump(0.0, 1.0, 2), 1100), "binomials of degree 1100"),
    # comb(1030, 515) is the first middle binomial past the range
    (lambda: exact_moment(CompactBump(0.0, 1.0, 2), 1030), "binomials of degree 1030"),
    # moments that cancel to 0 over a scale sum |m_i| past the range (a bare
    # OverflowError from fsum)
    (lambda: moment_defects(PiecewisePoly((Piece(0.0, -1.0, 1.0, (0.6e308,)),
                                           Piece(0.0, -1.0, 1.0, (-0.6e308,)))), 0),
     "order-0 moment scale of PiecewisePoly"),
    # an L^1 norm past the range (inf after two RuntimeWarnings)
    (lambda: exact_l1_norm(PiecewisePoly((Piece(0.0, -1.0, 1.0, (1e308, 1e308)),))),
     "L\\^1 norm of PiecewisePoly"),
    # a bump whose binomials C(p, j) pass the range (a bare OverflowError
    # after 0.14 s), and one whose half-width^(2p) does (a bare OverflowError)
    (lambda: CompactBump(0.0, 1.0, 2000), "binomials of degree 2000"),
    (lambda: CompactBump(0.0, 1.0, 10 ** 9), "binomials of degree 1000000000"),
    (lambda: CompactBump(0.0, 100.0, 200), "piece coefficient 0 must be finite"),
], ids=["moment-order-1100", "defects-order-1100", "moment-order-1030", "defect-scale", "l1",
        "bump-binomials", "bump-binomials-huge", "bump-power"])
def test_closed_forms_refuse_past_the_float_range_in_one_way(refused, message):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message):
            refused()
    assert time.perf_counter() - start < 1.0


def test_equal_pieces_give_equal_moments():
    # two pieces that are == and hash alike, one built from Python complex
    # coefficients and one from numpy's; their order-3 moments differed in
    # the last digits, as numpy's complex scalars divided by a reciprocal
    c = 0.0709297482015403 + 2.702782177955612j
    built = [Piece(-3.5584038728036624, -6.409487269501669, -0.7073204761056551,
                   (1.0, cj, cj), 2.8510833966980074) for cj in (c, np.complex128(c))]
    assert built[0] == built[1] and hash(built[0]) == hash(built[1])
    for pc in built:
        assert [type(cj) for cj in pc.coefficients] == [float, complex, complex]
    first, second = (exact_moment(PiecewisePoly((pc,)), 3) for pc in built)
    assert first.imag == 128.87301056603798
    assert first == second


@st.composite
def extreme_pieces(draw):
    """A piece at the edges of the float range: coefficients up to
    +-1.7e308, x0 up to +-1e300, scale 1e-300..1e300, and ends either a few
    scales from x0 or anywhere in +-1e300."""
    x0 = draw(st.floats(-1e300, 1e300))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    near = st.floats(-4.0, 4.0).map(lambda u: x0 + scale * u)
    a, b = sorted(draw(st.one_of(near, st.floats(-1e300, 1e300))) for _ in range(2))
    coeffs = draw(st.lists(st.floats(-1.7e308, 1.7e308), min_size=1, max_size=5))
    return Piece(x0, a, b, tuple(coeffs), scale)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.lists(extreme_pieces(), min_size=1, max_size=2), st.integers(0, 8),
       st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0), st.floats(-1e300, 1e300),
       st.floats(-1e300, 1e300))
def test_closed_forms_are_finite_or_refused(pieces, n, sign, log_rate, shift, gain):
    # past the float range every closed form raises ConfigurationError, never
    # another error, a warning or a non-finite value
    tf = PiecewisePoly(tuple(pieces))
    rate = sign * 10.0 ** log_rate
    grid = make_grid(8.0, 64)
    calls = (lambda: exact_moment(tf, n), lambda: exact_l2_norm(tf), lambda: exact_l1_norm(tf),
             lambda: moment_defects(tf, n), lambda: Affine(tf, rate, shift, gain),
             # a scale whose square leaves the range is refused as a width
             lambda: Affine(GaussianPoly(pieces[0].x0, pieces[0].scale, pieces[0].coefficients),
                            rate, shift, gain),
             lambda: sample(tf, grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                value = call()
            except ConfigurationError:
                continue
            if isinstance(value, (GaussianPoly, PiecewisePoly)):
                continue  # the node constructors refuse non-finite fields
            if isinstance(value, SampledFunction):
                value = value.values
            assert np.isfinite(value).all(), value


def test_affine_refuses_an_overflowing_gaussian_rate():
    # r ** j raised a bare OverflowError; a product beyond the range gave an
    # infinite coefficient
    gauss = GaussianPoly(0.0, 1.0, (1.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="Affine rate 1e\\+200"):
            Affine(gauss, rate=1e200)
        with pytest.raises(ConfigurationError, match="beyond the float range"):
            Affine(GaussianPoly(0.0, 1.0, (1.0, np.float64(1e200))), rate=1e200)
    assert Affine(gauss, rate=1e100).coefficients == (1.0, 0.0, 1e200)


def test_orders_must_be_nonnegative_integers():
    bump, gauss = CompactBump(0.0, 1.0, 4), GaussianPoly(0.0, 1.0, (1.0,))
    for bad in (1.5, True, "1", 2.0):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            derivative(bump, bad)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        derivative(bump, -1)
    assert derivative(bump, np.int64(2)) == derivative(bump, 2)
    # a negative m used to scan |f/x| on points that miss 0 (6.6e8 here);
    # a fractional m ended in a RuntimeWarning
    for m, n in ((-1, 0), (0.5, 0), (0, -1), (0, 1.5)):
        with pytest.raises(ConfigurationError):
            schwartz.seminorm_sup(gauss, m, n)
    assert schwartz.seminorm_sup(gauss, np.int64(0), 0) == 1.0
    # the tower and the annihilator use the same check; the tower took 1.5
    # for a TypeError, -1 for a CapabilityError and True for order 1
    sampled = sample(gauss, make_grid(8.0, 256))
    for bad in (1.5, -1, True):
        with pytest.raises(ConfigurationError):
            schwartz.seminorm_iter(sampled, bad)
        with pytest.raises(ConfigurationError, match="K must be"):
            AnnihilatorConfig(K=bad, epsilon=1e-2, a0=2.0, mother=bump)


def test_derivative_of_complex_gaussian():
    # the coefficients keep their dtype; a moved Gaussian with a complex gain
    # has complex coefficients, and derivative used to cast them to float
    assert derivative(GaussianPoly(0.0, 1.0, (1j,)), 1) == GaussianPoly(0.0, 1.0, (0j, -1j))
    w, c = 1.5, (0.5 - 1j, 2.0 + 0.25j, -1j)
    tf = GaussianPoly(0.0, w, c)
    u = np.linspace(-6.0, 6.0, 97)
    p, dp = P.polyval(u, c), P.polyval(u, P.polyder(c))
    expected = (dp - p * u / w ** 2) * np.exp(-u ** 2 / (2 * w ** 2))
    assert np.max(np.abs(evaluate(derivative(tf, 1), u) - expected)) < 1e-14
    moved = Affine(tf, rate=-2.0, shift=0.5, gain=1 + 1j)
    assert isinstance(moved, GaussianPoly)
    x = 0.5 + u / -2.0
    assert np.max(np.abs(evaluate(derivative(moved, 1), x)
                         - (1 + 1j) * -2.0 * evaluate(derivative(tf, 1), u))) < 1e-13


# ---------------------------------------------------------------------------
# the scalar closed forms the table-driven ones replaced, kept as references:
# the tables keep every term's operand order, so results must be bit-identical

def _piece_moment_scalar(pc, n):
    s = pc.scale
    A = (pc.a - pc.x0) / s
    B = (pc.b - pc.x0) / s
    terms = []
    for i in range(n + 1):
        w = math.comb(n, i) * pc.x0 ** (n - i) * s ** (i + 1)
        for j, cj in enumerate(pc.coefficients):
            q = i + j + 1
            terms.append(w * cj * (B ** q - A ** q) / q)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _affine_poly_scalar(coeffs, alpha, beta):
    out = np.zeros(len(coeffs), dtype=complex)
    for j, cj in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += cj * math.comb(j, i) * alpha ** i * beta ** (j - i)
    return out


def _random_coefficients(rng, kind):
    """Degree <= 25; numpy reals, Python complex, numpy complex, or a mix of
    Python floats and complex (the element type decides scalar arithmetic)."""
    size = int(rng.integers(1, 27))
    re = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    im = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    if kind == "real":
        return tuple(re)
    if kind == "numpy complex":
        return tuple(re + 1j * im)
    if kind == "python complex":
        return tuple(complex(r, i) for r, i in zip(re, im))
    return tuple(complex(r, i) if k % 2 else float(r) for k, (r, i) in enumerate(zip(re, im)))


KINDS = ("real", "numpy complex", "python complex", "mixed")


def test_piece_moment_bit_identical_to_scalar_reference():
    rng = np.random.default_rng(20)
    for trial in range(400):
        x0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 13))
        scale = float(10.0 ** rng.uniform(-6, 6))
        lo, hi = sorted(rng.uniform(-1.5, 1.5, 2))
        pc = Piece(x0, x0 + scale * lo, x0 + scale * hi,
                   _random_coefficients(rng, KINDS[trial % 4]), scale)
        table = T._piece_moments(pc, 8)
        assert len(table) == 9
        for n in range(9):
            assert repr(table[n]) == repr(_piece_moment_scalar(pc, n)), (trial, n)


@st.composite
def moment_pieces(draw):
    """One piece with x0 up to +-1e13, scale 1e-6..1e6 and real, Python
    complex or numpy complex coefficients."""
    x0 = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 13.0))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    lo = draw(st.floats(-1.5, 1.5))
    hi = draw(st.floats(lo, 1.5))
    size = draw(st.integers(1, 12))
    parts = st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)
    re, im = np.array(draw(parts)), np.array(draw(parts))
    kind = draw(st.sampled_from(["real", "python complex", "numpy complex"]))
    coeffs = {"real": tuple(re), "numpy complex": tuple(re + 1j * im),
              "python complex": tuple(complex(r, i) for r, i in zip(re, im))}[kind]
    return Piece(x0, x0 + scale * lo, x0 + scale * hi, coeffs, scale)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(moment_pieces())
def test_piece_moments_match_scalar_reference(pc):
    # every entry of the table, signed zeros included, is the order's scalar sum
    assert [repr(m) for m in T._piece_moments(pc, 8)] == [
        repr(_piece_moment_scalar(pc, n)) for n in range(9)]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
       st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10),
       st.booleans(), st.booleans(),
       st.lists(st.floats(-50.0, 50.0), min_size=0, max_size=40))
def test_horner_bit_identical_to_polyval(re, im, complex_coeffs, zero_lead, points):
    c = np.array(re) + 1j * np.array(im[:len(re)]) if complex_coeffs else np.array(re)
    if zero_lead:
        c = np.append(c, 0.0)
    for v in (np.array(points), np.asarray(points[0] if points else 0.5)):
        got, expected = T._horner(v, tuple(c)), P.polyval(v, c)
        assert np.asarray(got).dtype == np.asarray(expected).dtype
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _evaluate_whole_tree(tf, x):
    # every piece masked on every point and evaluated through P.polyval
    acc = np.zeros(np.shape(x), dtype=complex)
    for pc in tf.pieces:
        inside = (x > pc.a) & (x < pc.b)
        if np.any(inside):
            v = (np.where(inside, x, pc.x0) - pc.x0) / pc.scale
            acc = acc + np.where(inside, P.polyval(v, np.asarray(pc.coefficients)), 0.0)
    return acc


def _l1_whole_tree(tf):
    total = 0.0
    for lo, hi in support(tf):
        xs = np.linspace(lo, hi, T.L1_CELLS, endpoint=False) + 0.5 * (hi - lo) / T.L1_CELLS
        total += float(np.mean(np.abs(_evaluate_whole_tree(tf, xs))) * (hi - lo))
    return total


@st.composite
def overlapping_sums(draw):
    """Two to five moved bumps and derivatives, some overlapping and some
    apart, with real or complex gains."""
    terms = []
    for _ in range(draw(st.integers(2, 5))):
        p = draw(st.integers(1, 6))
        a = draw(st.floats(-4.0, 4.0))
        tf = CompactBump(a, a + draw(st.floats(0.05, 3.0)), p)
        if draw(st.booleans()):
            tf = derivative(tf, draw(st.integers(0, p - 1)))
        gain = complex(draw(st.floats(-2.0, 2.0)), draw(st.sampled_from([0.0, 0.5, -1.5])))
        terms.append(Affine(tf, shift=draw(st.sampled_from([0.0, 1e13, -7.5])), gain=gain))
    return Summed(terms)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(overlapping_sums())
def test_l1_norm_bit_identical_to_whole_tree_evaluation(tf):
    # each support interval evaluates only the pieces that meet it, and a
    # piece that covers every cell skips the masks: the bits do not move
    assert repr(exact_l1_norm(tf)) == repr(_l1_whole_tree(tf))
    sup = support(tf)
    xs = np.linspace(sup[0][0] - 0.5, sup[-1][1] + 0.5, 301)
    assert evaluate(tf, xs).tobytes() == _evaluate_whole_tree(tf, xs).tobytes()


def _l2_squared_series(low):
    # covering pieces summed with P.polyadd and squared with P.polymul
    cuts = sorted({pc.a for pc in low.pieces} | {pc.b for pc in low.pieces})
    total = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        combined = np.zeros(1, dtype=complex)
        for pc in low.pieces:
            if pc.a <= lo and hi <= pc.b:
                combined = P.polyadd(combined, T._affine_poly(
                    pc.coefficients, half / pc.scale, (mid - pc.x0) / pc.scale))
        if np.any(combined):
            sq = P.polymul(np.conj(combined), combined)
            total.extend((cj * 2.0 * half / (j + 1)).real for j, cj in enumerate(sq) if j % 2 == 0)
    return math.fsum(total)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(overlapping_sums(), st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 1j]), max_size=6))
def test_l2_squared_bit_identical_to_series_arithmetic(tf, padding):
    # plain arrays and np.convolve give the sums that polyadd and polymul
    # give; the extra piece carries exact, signed and trailing zeros
    lo, hi = support(tf)[0]
    pc = tf.pieces[0]
    extra = Piece(pc.x0, lo, 0.5 * (lo + hi), (-0.0, *padding, 0.0, -0.0), pc.scale)
    for low in (tf, PiecewisePoly(tf.pieces + (extra,))):
        assert repr(T._l2_squared(low)) == repr(_l2_squared_series(low))


def test_l1_norm_of_the_zero_function_is_zero():
    # as its L^2 norm and its moments are; a Gaussian still has no compact support
    zero = Summed(())
    assert exact_l1_norm(zero) == 0.0 and exact_l2_norm(zero) == 0.0
    assert exact_moment(zero, 3) == 0j
    with pytest.raises(NotExactlyIntegrable, match="compact support"):
        exact_l1_norm(GaussianPoly(0.0, 1.0, (1.0,)))


def test_moment_table_refuses_an_order_when_it_is_read():
    # x^n on (0, 1e100): the order-3 moment needs scale^4 = 1e400, past the
    # float range, while orders 0..2 stay finite; the table is still built,
    # the finite orders are served and the order-3 read is refused
    pc = Piece(0.0, 0.0, 1e100, (1.0,), 1e100)
    tf = PiecewisePoly((pc,))
    table = T._piece_moments(pc, 4)
    assert all(map(math.isfinite, (table[0].real, table[1].real, table[2].real)))
    assert not all(map(math.isfinite, (table[3].real, table[4].real)))
    assert exact_moment(tf, 2) == pytest.approx(1e300 / 3)
    with pytest.raises(ConfigurationError) as refused:
        exact_moment(tf, 3)
    assert str(refused.value) == f"the order-3 moment of {tf!r} is not finite in floating point"


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.one_of(overlapping_sums(), moment_pieces().map(lambda pc: PiecewisePoly((pc,)))),
       st.integers(0, 12))
def test_exact_moments_equal_exact_moment_bit_for_bit(tf, n_max):
    moments = T.exact_moments(tf, n_max)
    assert [repr(m) for m in moments] == [repr(exact_moment(tf, n)) for n in range(n_max + 1)]


def test_exact_moments_tabulate_each_piece_once(monkeypatch):
    tables = []
    build = T._piece_moments

    def counting(pc, n_max):
        tables.append(n_max)
        return build(pc, n_max)

    monkeypatch.setattr(T, "_piece_moments", counting)
    tf = Summed((CompactBump(0.0, 1.0, 3), derivative(CompactBump(-2.0, 0.5, 4), 2)))
    assert len(T.exact_moments(tf, 6)) == 7
    assert tables == [6] * len(tf.pieces)


def test_exact_moments_refuse_an_order_as_exact_moment_does():
    # the order-3 moment of x^n on (0, 1e100) passes the float range
    tf = PiecewisePoly((Piece(0.0, 0.0, 1e100, (1.0,), 1e100),))
    assert T.exact_moments(tf, 2) == [exact_moment(tf, n) for n in range(3)]
    with pytest.raises(ConfigurationError) as refused:
        T.exact_moments(tf, 4)
    assert str(refused.value) == f"the order-3 moment of {tf!r} is not finite in floating point"
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigurationError):
            T.exact_moments(tf, bad)
    with pytest.raises(NotExactlyIntegrable):
        T.exact_moments(GaussianPoly(0.0, 1.0, (1.0,)), 2)


def test_affine_poly_bit_identical_to_scalar_reference():
    rng = np.random.default_rng(21)
    for trial in range(400):
        coeffs = _random_coefficients(rng, KINDS[trial % 4])
        alpha = float(10.0 ** rng.uniform(-6, 0))
        beta = float(rng.uniform(-1.0, 1.0))
        got = T._affine_poly(coeffs, alpha, beta)
        assert np.array_equal(got, _affine_poly_scalar(coeffs, alpha, beta)), trial


def test_bump_coefficients_bit_identical_to_polypow():
    for p in range(1, 13):
        a, b = 0.1 * p, 0.1 * p + 0.37 * p
        half = 0.5 * (b - a)
        expected = P.polypow(np.array([1.0, 0.0, -1.0]), p) * half ** (2 * p)
        assert to_piecewise(CompactBump(a, b, p)).pieces[0].coefficients == tuple(expected)


# ---------------------------------------------------------------------------
# property tests: closed forms against Gauss-Legendre quadrature of `evaluate`

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _wrapped(draw, tf, budget):
    """tf after up to four constructor steps, derivatives of total order <= budget."""
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["translate", "scale", "mirror", "amplify", "derive"]))
        if kind == "translate":
            tf = Translated(tf, draw(st.floats(-5.0, 5.0)))
        elif kind == "scale":
            rate = draw(st.floats(0.5, 2.0))
            tf = Affine(tf, rate=rate if draw(st.booleans()) else -rate)
        elif kind == "mirror":
            tf = Mirrored(tf)
        elif kind == "amplify":
            tf = Affine(tf, gain=complex(draw(st.floats(0.25, 3.0)), draw(st.floats(-3.0, 3.0))))
        elif budget > 0:
            k = draw(st.integers(1, budget))
            budget -= k
            tf = derivative(tf, k)
    return tf


@st.composite
def polynomial_trees(draw):
    """A bump of order p <= 8 after up to four constructor steps,
    derivatives of total order below p.  Every such descriptor is one
    polynomial piece on its support, and the support stays in [-40, 40]."""
    p = draw(st.integers(1, 8))
    a = draw(st.floats(-3.0, 3.0))
    return _wrapped(draw, CompactBump(a, a + draw(st.floats(0.1, 4.0)), p), p - 1), p


@st.composite
def gaussian_trees(draw):
    """A Gaussian polynomial after up to four constructor steps, derivatives
    of total order <= 3."""
    coeffs = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)))
    gauss = GaussianPoly(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.25, 4.0)), coeffs)
    return _wrapped(draw, gauss, 3)


def _gauss_legendre(g, lo, hi, panels=4):
    """Composite Gauss-Legendre integral of g over (lo, hi); 32 nodes per
    panel integrate polynomials of degree <= 63 exactly."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * GL_NODES
    return np.sum(half * GL_WEIGHTS * g(x))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(polynomial_trees())
def test_closed_forms_match_quadrature(tree):
    # Both sides round O(1) times per monomial term, and the monomial form of
    # (1 - v^2)^p and its derivatives amplifies rounding by at most
    # kappa = sum_j |c_j| / int |f| <= 4^p (p <= 8): a bound of the family,
    # not of any observed error.  A moment rounds like R^n int |f|, R the
    # largest |x| on the support; the squared norm rounds like kappa^2 ||f||^2.
    tf, p = tree
    (lo, hi), = support(tf)
    kappa = 4.0 ** p
    mass = _gauss_legendre(lambda x: np.abs(evaluate(tf, x)), lo, hi)
    radius = max(abs(lo), abs(hi))
    for n in range(5):
        quad = _gauss_legendre(lambda x: x ** n * evaluate(tf, x), lo, hi)
        scale = radius ** n * mass
        assert abs(complex(exact_moment(tf, n)) - quad) <= 64 * kappa * EPS * scale
    norm_sq = _gauss_legendre(lambda x: np.abs(evaluate(tf, x)) ** 2, lo, hi)
    assert abs(exact_l2_norm(tf) ** 2 - norm_sq) <= 64 * kappa ** 2 * EPS * norm_sq


def _derivative_bound(c, k):
    """sum_j |c_j| j!/(j-k)!: bounds |d^k/dv^k sum_j c_j v^j| on |v| <= 1."""
    return sum(abs(cj) * math.perm(j, k) for j, cj in enumerate(c))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(polynomial_trees())
def test_derivative_matches_central_difference(tree):
    # On its support the tree is one piece c(v), v = (x - x0)/s, |v| <= 1, so
    # A_k = _derivative_bound(c, k) bounds the v-derivatives.  The central
    # difference with step h errs by h^2/6 * A_3/s^3; each evaluation rounds
    # by at most 2(d+1) eps A_0 in Horner's rule plus A_1 dv, dv the rounding
    # of v; the derivative's own evaluation rounds like that with A_1, A_2.
    # A bound of the family, doubled once, not fitted to any observed error.
    tf, _ = tree
    if smoothness_budget(tf) < 1:
        with pytest.raises(CapabilityError):
            derivative(tf, 1)
        return
    (pc,) = to_piecewise(tf).pieces
    c, s, d = pc.coefficients, pc.scale, len(pc.coefficients) - 1
    A = [_derivative_bound(c, k) for k in range(4)]
    (lo, hi), = support(tf)
    h = 1e-5 * s
    dv = 4 * EPS * (max(abs(lo), abs(hi)) + h + abs(pc.x0)) / s
    x = lo + (hi - lo) * np.linspace(0.05, 0.95, 19)
    fd = (evaluate(tf, x + h) - evaluate(tf, x - h)) / (2 * h)
    bound = 2 * (h * h / 6 * A[3] / s ** 3
                 + (2 * (d + 1) * EPS * A[0] + A[1] * dv) / h
                 + (2 * (d + 1) * EPS * A[1] + A[2] * dv) / s)
    assert np.max(np.abs(evaluate(derivative(tf, 1), x) - fd)) <= bound


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(polynomial_trees())
def test_support_matches_nonzero_samples(tree):
    # outside the support every sample is exactly zero; inside, a nonzero
    # polynomial of degree d has at most d roots, so at most d zero samples
    tf, _ = tree
    (lo, hi), = support(tf)
    (pc,) = to_piecewise(tf).pieces
    u = np.linspace(1e-3, 1.0, 50)
    outside = np.concatenate([lo - (hi - lo) * u, hi + (hi - lo) * u])
    assert np.all(evaluate(tf, outside) == 0)
    inside = evaluate(tf, lo + (hi - lo) * np.linspace(0.01, 0.99, 99))
    assert np.count_nonzero(inside == 0) <= len(pc.coefficients) - 1


def test_piece_refuses_malformed_input():
    with pytest.raises(ConfigurationError):
        Piece(0.0, -1.0, 1.0, ())
    with pytest.raises(ConfigurationError):
        Piece(0.0, 1.0, -1.0, (1.0,))
    with pytest.raises(ConfigurationError):
        Piece(0.0, math.nan, 1.0, (1.0,))
    # a == b stays allowed: a narrow piece far out rounds to one point
    pc = Piece(1e13, 1e13 - 5e-7, 1e13 + 5e-7, (1.0,), 1e-6)
    assert pc.a == pc.b
    assert exact_moment(PiecewisePoly((pc,)), 0) == 0.0
    assert exact_l2_norm(PiecewisePoly((pc,))) == 0.0


@pytest.mark.parametrize("call", [
    lambda: sample("x", make_grid(8.0, 64)),
    lambda: evaluate("x", 0.0),
    lambda: support("x"),
    lambda: derivative("x", 1),
    lambda: AnnihilatorConfig(K=1, epsilon=0.1, a0=2.0, mother="x"),
    lambda: schwartz.seminorm_sup("x", 1, 1),
    lambda: certify_nminus("x", make_grid(8.0, 64)),
    lambda: GaussianPoly(0.0, "a", (1.0,)),
    lambda: Piece(0.0, "a", 1.0, (1.0,)),
    lambda: Affine(CompactBump(0.0, 1.0, 3), rate="a"),
], ids=["sample", "evaluate", "support", "derivative", "annihilator-config",
        "seminorm-sup", "certify-nminus", "gaussian-width", "piece-bound", "affine-rate"])
def test_what_is_not_a_descriptor_or_a_number_is_refused_typed(call):
    # neither a bare TypeError nor a traceback: a typed refusal, exit status 2
    with pytest.raises(ConfigurationError):
        call()


def _abs_terms(tf, y, k):
    """Sum of |each term| of the k-th y-derivative (k = 0, 1) of tf's closed
    form at y, every sign dropped.  Rounding each coefficient by a few eps
    moves evaluate(tf, y) by a few eps times the k = 0 sum; rounding the
    variable by dy moves it by at most dy times the k = 1 sum."""
    if isinstance(tf, GaussianPoly):
        u, a, w2 = np.abs(y - tf.center), np.abs(tf.coefficients), tf.width ** 2
        terms = P.polyval(u, a)
        if k:
            terms = P.polyval(u, P.polyder(a)) + terms * u / w2
        return terms * np.exp(-u * u / (2.0 * w2))
    (pc,) = tf.pieces
    a = np.abs(pc.coefficients)
    return P.polyval(np.abs(y - pc.x0) / pc.scale, P.polyder(a, k)) / pc.scale ** k


def _frame_origin(tf):
    return tf.center if isinstance(tf, GaussianPoly) else tf.pieces[0].x0


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.one_of(polynomial_trees().map(lambda t: (t[0], True)),
                 gaussian_trees().map(lambda t: (t, False))),
       st.floats(0.25, 4.0), st.booleans(), st.floats(-5.0, 5.0),
       st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_affine_matches_nested_wrappers(tree, rate, negative, s, g):
    # the annihilator's blocks, act_psi and the random N- draws build one
    # Affine where the wrappers nested three.  Polynomial forms lower bit
    # for bit alike.  Both forms evaluate g f(r (x - s)) to within the
    # rounding of a Horner sum: the gain is folded into the coefficients
    # (a complex product, a few eps per term), each Horner step rounds
    # (2(d + 1) eps of the absolute terms), and the variable y = r (x - s)
    # is formed in another order from the frame (dy, a few eps of every
    # magnitude entering it, the width's rounding counted as eps |u|), plus
    # the spacing of subnormals where values underflow.  A bound of the
    # family, doubled once, not fitted to any observed error.
    tf, polynomial = tree
    r = -rate if negative else rate
    fused = Affine(tf, r, s, g)
    nested = Affine(Translated(Affine(tf, rate=r), s), gain=g)
    if polynomial:
        assert fused == nested
    assert support(fused) == support(nested)
    x = s + np.linspace(-50.0, 50.0, 201) / r
    y = r * (x - s)
    d = len(tf.coefficients if not polynomial else tf.pieces[0].coefficients) - 1
    dy = 8 * EPS * (abs(r) * (np.abs(x) + abs(s)) + abs(_frame_origin(tf))
                    + np.abs(y - _frame_origin(tf)))
    tiny = np.finfo(float).tiny
    bound = 2 * abs(g) * ((4 * (d + 1) + 8) * EPS * _abs_terms(tf, y, 0)
                          + _abs_terms(tf, y, 1) * dy) + tiny
    for moved in (fused, nested):
        assert np.all(np.abs(evaluate(moved, x) - g * evaluate(tf, y)) <= bound)
    if smoothness_budget(tf) >= 1:
        # the moved descriptor's derivative differentiates its own pieces:
        # each coefficient rounds a few times more than the reference's
        # g r f'(y), relative to the absolute terms of f'
        df = derivative(tf, 1)
        bound = 2 * abs(g * r) * ((4 * (d + 1) + 16) * EPS * _abs_terms(tf, y, 1)
                                  + _abs_terms(df, y, 1) * dy) + tiny
        assert np.all(np.abs(evaluate(derivative(fused, 1), x)
                             - g * r * evaluate(df, y)) <= bound)
        if polynomial:
            frame = lambda f: [(pc.x0, pc.a, pc.b, pc.scale) for pc in f.pieces]
            assert frame(derivative(fused, 1)) == frame(Affine(df, r, s, g * r))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.one_of(polynomial_trees().map(lambda t: t[0]), gaussian_trees()),
       st.floats(-5.0, 5.0), st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_descriptors_are_one_of_two_nodes(tf, s, g):
    # every constructor lowers when it is called: a descriptor built by
    # _wrapped is one node, and each further step returns a node of its type
    kind = type(tf)
    assert kind in (GaussianPoly, PiecewisePoly)
    moved = (Translated(tf, s), Mirrored(tf), Affine(tf, -0.75, s, g),
             derivative(tf, min(1, smoothness_budget(tf))))
    assert all(type(m) is kind for m in moved)
    if kind is PiecewisePoly:
        total = Summed((tf, *moved))
        assert type(total) is PiecewisePoly and to_piecewise(total) is total
        assert total.pieces == tf.pieces + sum((m.pieces for m in moved), ())


def test_summed_refuses_gaussian_terms():
    gauss = GaussianPoly(0.0, 1.0, (1.0,))
    for terms in ((gauss,), (CompactBump(0.0, 1.0, 2), gauss), (Translated(gauss, 1.0),)):
        with pytest.raises(NotExactlyIntegrable):
            Summed(terms)
    assert Summed(()) == PiecewisePoly((), smooth=0)
    assert smoothness_budget(Summed((CompactBump(0.0, 1.0, 4), CompactBump(1.0, 2.0, 2)))) == 1
