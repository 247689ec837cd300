import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from heisenrep import make_grid
from heisenrep import testfn as T
from heisenrep.errors import CapabilityError, ConfigurationError, NotExactlyIntegrable
from heisenrep.testfn import (
    Amplified, CompactBump, Derivative, GaussianPoly, Mirrored, Modulated, Piece,
    PiecewisePoly, Scaled, Summed, Translated, derivative, evaluate, exact_l1_norm,
    exact_l2_norm, exact_moment, from_json, sample, smoothness_budget,
    support, to_json, to_piecewise,
)


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
    assert np.allclose(evaluate(Scaled(b, 2.0), x), evaluate(b, 2.0 * x))
    assert np.allclose(evaluate(Amplified(b, 3.0 - 1j), x), (3.0 - 1j) * evaluate(b, x))
    assert np.allclose(evaluate(Summed((b, Translated(b, 1.0))), x),
                       evaluate(b, x) + evaluate(b, x - 1.0))
    assert np.allclose(evaluate(Modulated(b, 2.0, 0.5), x),
                       np.exp(1j * (2.0 * x + 0.5)) * evaluate(b, x))


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
    d = Derivative(CompactBump(0.0, 1.0, 10), 5)
    scale = exact_l1_norm(d)
    for n in range(5):
        assert abs(complex(exact_moment(d, n))) < 1e-12 * scale


def test_exact_l2_norm_oracle():
    b = CompactBump(-1.0, 1.0, 2)
    # (1-x^2)^2 squared integrates to 256/315 on (-1, 1)
    assert abs(exact_l2_norm(b) - math.sqrt(256.0 / 315.0)) < 1e-14


def test_exact_l2_norm_scale_invariance_extreme():
    # blocks far from the origin with huge widths must not lose precision
    base = Derivative(CompactBump(0.0, 1.0, 8), 3)
    ref = exact_l2_norm(base)
    for h in (1.0, 1e6, 1e13):
        moved = Translated(Scaled(base, 1.0 / h), 1e13)
        # dilation by h scales the L2 norm by sqrt(h)
        assert abs(exact_l2_norm(moved) / (ref * math.sqrt(h)) - 1.0) < 1e-9


def test_exact_moment_keeps_small_imaginary_parts():
    # whether a moment is real is judged relative to its real part, so a
    # function of tiny magnitude keeps its imaginary part
    tiny = CompactBump(0.0, 0.1, 5)
    m = exact_moment(tiny, 0)
    assert 0.0 < m < 1e-14
    assert exact_moment(Amplified(tiny, 1.0 + 1.0j), 0) == complex(m, m)
    assert isinstance(exact_moment(Amplified(tiny, 2.0 + 0.0j), 0), float)


def test_exact_moment_refuses_gaussian():
    with pytest.raises(NotExactlyIntegrable):
        exact_moment(GaussianPoly(0.0, 1.0, (1.0,)), 0)


def test_to_piecewise_touches_only_frame():
    b = CompactBump(0.0, 1.0, 4)
    pw = to_piecewise(Translated(Scaled(b, 0.5), 7.0))
    base = to_piecewise(b)
    assert pw.pieces[0].coefficients == base.pieces[0].coefficients
    assert pw.pieces[0].scale == 2.0 * base.pieces[0].scale
    x = np.linspace(6.0, 10.0, 101)
    assert np.allclose(evaluate(pw, x), evaluate(b, 0.5 * (x - 7.0)))


def test_sample_matches_evaluate():
    g = make_grid(8.0, 256)
    b = CompactBump(-2.0, 2.0, 4)
    assert np.array_equal(sample(b, g).values, evaluate(b, g.points).astype(complex))


@pytest.mark.parametrize("tf", [
    GaussianPoly(math.nan, 1.0, (1.0,)),  # NaN samples
    GaussianPoly(0.0, 1.0, (math.inf,)),  # infinite samples
])
def test_sample_refuses_non_finite_values(tf):
    with pytest.raises(ConfigurationError, match="non-finite"):
        sample(tf, make_grid(8.0, 64))


def test_json_roundtrip():
    desc = Amplified(
        Translated(Derivative(CompactBump(0.0, 1.0, 10), 5), -1.0), 2.0 + 1j)
    again = from_json(to_json(desc))
    assert again == desc
    x = np.linspace(-2.5, 1.0, 57)
    assert np.array_equal(evaluate(again, x), evaluate(desc, x))

    # wire format: pieces untagged, complex values as [re, im], tuples as lists
    tree = Summed((
        Amplified(PiecewisePoly((Piece(0.5, 0.0, 1.0, (1.0, 2.0j), 0.5),), smooth=2),
                  2.0 - 1.0j),
        Translated(CompactBump(0.0, 1.0, 3), -1.5),
        Modulated(GaussianPoly(0.0, 1.0, (1.0, 0.5)), 2.0, 0.5),
    ))
    golden = {"tag": "summed", "terms": [
        {"tag": "amplified", "gain": [2.0, -1.0],
         "inner": {"tag": "piecewise_poly", "smooth": 2,
                   "pieces": [{"x0": 0.5, "a": 0.0, "b": 1.0, "scale": 0.5,
                               "coefficients": [[1.0, 0.0], [0.0, 2.0]]}]}},
        {"tag": "translated", "shift": -1.5,
         "inner": {"tag": "compact_bump", "a": 0.0, "b": 1.0, "p": 3}},
        {"tag": "modulated", "omega": 2.0, "theta": 0.5,
         "inner": {"tag": "gaussian_poly", "center": 0.0, "width": 1.0,
                   "coefficients": [1.0, 0.5]}},
    ]}
    assert to_json(tree) == golden
    assert from_json(golden) == tree
    # fields with a default may be left out; the others may not
    assert from_json({"tag": "modulated", "omega": 2.0,
                      "inner": golden["terms"][2]["inner"]}).theta == 0.0
    with pytest.raises(ConfigurationError):
        from_json({"tag": "translated", "shift": 1.0})
    with pytest.raises(ConfigurationError):
        from_json({"tag": "piecewise_poly", "pieces": [{"x0": 0.0, "a": -1.0, "b": 1.0}]})
    with pytest.raises(ConfigurationError):
        from_json({"tag": "no_such_tag"})


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
        for n in range(9):
            assert T._piece_moment(pc, n) == _piece_moment_scalar(pc, n), (trial, n)


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

EPS = np.finfo(float).eps
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@st.composite
def polynomial_trees(draw):
    """A bump of order p <= 8 under up to four wrappers, derivatives of
    total order below p.  Every such tree is one polynomial piece on its
    support, and the support stays in [-40, 40]."""
    p = draw(st.integers(1, 8))
    a = draw(st.floats(-3.0, 3.0))
    tf = CompactBump(a, a + draw(st.floats(0.1, 4.0)), p)
    budget = p - 1
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["translate", "scale", "mirror", "amplify", "derive"]))
        if kind == "translate":
            tf = Translated(tf, draw(st.floats(-5.0, 5.0)))
        elif kind == "scale":
            rate = draw(st.floats(0.5, 2.0))
            tf = Scaled(tf, rate if draw(st.booleans()) else -rate)
        elif kind == "mirror":
            tf = Mirrored(tf)
        elif kind == "amplify":
            tf = Amplified(tf, complex(draw(st.floats(0.25, 3.0)), draw(st.floats(-3.0, 3.0))))
        elif budget > 0:
            k = draw(st.integers(1, budget))
            budget -= k
            tf = Derivative(tf, k)
    return tf, p


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


@st.composite
def descriptor_trees(draw):
    """Polynomial trees, alone, lowered to pieces, or summed with a
    modulated Gaussian: every descriptor kind the JSON form encodes."""
    tf, _ = draw(polynomial_trees())
    form = draw(st.sampled_from(["tree", "lowered", "summed"]))
    if form == "lowered":
        return to_piecewise(tf)
    if form == "summed":
        coeffs = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)))
        gauss = GaussianPoly(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.25, 4.0)), coeffs)
        return Summed((tf, Modulated(gauss, draw(st.floats(-5.0, 5.0)),
                                     draw(st.floats(-3.0, 3.0)))))
    return tf


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(descriptor_trees())
def test_json_roundtrip_property(tf):
    # through JSON text: floats keep their shortest round-trip repr, so the
    # decoded tree is equal and evaluates bit for bit alike
    again = from_json(json.loads(json.dumps(to_json(tf))))
    assert again == tf
    x = np.linspace(-45.0, 45.0, 181)
    assert np.array_equal(evaluate(again, x), evaluate(tf, x))


def test_piece_refuses_malformed_input():
    with pytest.raises(ConfigurationError):
        Piece(0.0, -1.0, 1.0, ())
    with pytest.raises(ConfigurationError):
        Piece(0.0, 1.0, -1.0, (1.0,))
    with pytest.raises(ConfigurationError):
        Piece(0.0, math.nan, 1.0, (1.0,))
    for bad in ({"x0": 0.0, "a": -1.0, "b": 1.0, "coefficients": []},
                {"x0": 0.0, "a": 1.0, "b": -1.0, "coefficients": [[1.0, 0.0]]}):
        with pytest.raises(ConfigurationError):
            from_json({"tag": "piecewise_poly", "pieces": [bad]})
    # a == b stays allowed: a narrow piece far out rounds to one point
    pc = Piece(1e13, 1e13 - 5e-7, 1e13 + 5e-7, (1.0,), 1e-6)
    assert pc.a == pc.b
    assert exact_moment(PiecewisePoly((pc,)), 0) == 0.0
    assert exact_l2_norm(PiecewisePoly((pc,))) == 0.0
