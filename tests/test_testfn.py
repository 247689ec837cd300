import math

import numpy as np
import pytest

from heisenrep import make_grid
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
