import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import heisenrep.schwartz
from heisenrep import fourier, make_grid, proj_hardy
from heisenrep.errors import CapabilityError
from heisenrep.schwartz import (
    class_defects, moment, moment_defect, n_defect, psi_norm, seminorm_iter,
    seminorm_sup, seminorm_tower,
)
from heisenrep.testfn import (
    CompactBump, GaussianPoly, Translated, derivative, sample,
)

GRID = make_grid(32.0, 4096)
GAUSS = sample(GaussianPoly(0.0, 1.0, (1.0,)), GRID)


@pytest.mark.parametrize("n", range(4))
def test_seminorm_gaussian_oracle(n):
    # ||e^{-x^2/2}||_n^2 = (n+1)! sqrt(pi) by Hermite algebra; order 0 is the
    # L^2 norm pi^(1/4), order 1 is ||xf||^2 + ||f'||^2 + ||f||^2 = 2 sqrt(pi)
    exact = (math.factorial(n + 1) * math.sqrt(math.pi)) ** 0.5
    assert abs(seminorm_iter(GAUSS, n) - exact) < 1e-12
    assert seminorm_tower(GAUSS, 3)[n] == seminorm_iter(GAUSS, n)


def test_seminorm_tower_applies_each_word_once(monkeypatch):
    calls = []
    apply = heisenrep.schwartz.generator_apply

    def counting(gen, f):
        calls.append(gen)
        return apply(gen, f)

    monkeypatch.setattr(heisenrep.schwartz, "generator_apply", counting)
    assert len(seminorm_tower(GAUSS, 3)) == 4
    # the words of length 0, 1, 2 each get one M and one D
    assert calls.count("M") == 7 and calls.count("D") == 7 and len(calls) == 14


def test_seminorm_monotone_and_capped():
    vals = [seminorm_iter(GAUSS, n) for n in range(4)]
    assert all(vals[i + 1] >= vals[i] for i in range(3))
    with pytest.raises(CapabilityError):
        seminorm_iter(GAUSS, 4)


def test_seminorm_sup_oracles():
    g = GaussianPoly(0.0, 1.0, (1.0,))
    assert abs(seminorm_sup(g, 0, 0) - 1.0) < 1e-12
    # sup |x e^{-x^2/2}| = e^{-1/2} at x = 1
    assert abs(seminorm_sup(g, 1, 0) - math.exp(-0.5)) < 1e-10
    # sup |f'| = e^{-1/2}
    assert abs(seminorm_sup(g, 0, 1) - math.exp(-0.5)) < 1e-10


def _sup_oracle(g, m, n):
    # with u = x - c, x^m f^(n)(x) = r(u) e^{-u^2/(2w^2)}, r(u) = (u + c)^m q(u);
    # its extrema sit at the real roots of r'(u) - u r(u)/w^2
    q = derivative(g, n)
    c, w = q.center, q.width
    r = P.polymul(P.polypow([c, 1.0], m), q.coefficients)
    roots = P.polyroots(P.polysub(P.polyder(r), P.polymul([0.0, 1.0 / w ** 2], r)))
    u = roots[np.abs(roots.imag) < 1e-9].real
    return float(np.max(np.abs(P.polyval(u, r)) * np.exp(-u ** 2 / (2 * w ** 2))))


def test_seminorm_sup_random_gaussian_polys():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = GaussianPoly(rng.uniform(-5, 5), rng.uniform(0.3, 3.0),
                         tuple(rng.normal(size=rng.integers(1, 5))))
        m, n = (int(k) for k in rng.integers(0, 3, size=2))
        exact = _sup_oracle(g, m, n)
        assert abs(seminorm_sup(g, m, n) - exact) <= 1e-12 * exact


def test_moment_oracles():
    assert abs(moment(GAUSS, 0) - math.sqrt(2 * math.pi)) < 1e-12
    assert abs(moment(GAUSS, 1)) < 1e-14
    assert abs(moment(GAUSS, 2) - math.sqrt(2 * math.pi)) < 1e-12


def test_moment_defect_scales():
    # the descriptor's moments vanish exactly; the grid quadrature of x^n f
    # leaves only truncation error, well under the certificate threshold
    d = sample(Translated(derivative(CompactBump(0.0, 2.0, 10), 5), -3.0), GRID)
    assert n_defect(d, 4) < 1e-6
    assert moment_defect(GAUSS, 0) > 0.5  # a Gaussian has no vanishing moments


def test_class_defects_fields():
    out = class_defects(GAUSS, 4)
    assert set(out) == {"n_defect", "m_defect", "hardy_plus", "hardy_minus",
                        "support_plus", "support_minus"}
    # projections are clean class members only on mean-free inputs (the
    # zero-frequency bin is shared with weight 1/2 by both projections)
    from heisenrep.heisenberg import generator_apply
    plus = proj_hardy(generator_apply("D", GAUSS), "plus")
    assert class_defects(plus, 4)["hardy_plus"] < 1e-12


def test_m_defect_detects_flat_spectrum():
    # moments of f vanish iff the transform is flat at 0: check via the dual
    d = sample(Translated(derivative(CompactBump(0.0, 2.0, 10), 5), -3.0), GRID)
    out = class_defects(d, 4)
    assert out["n_defect"] < 1e-6
    spec = fourier(d)
    mid = GRID.size // 2
    assert abs(spec.values[mid]) < 1e-10 * np.max(np.abs(spec.values))


def test_psi_norm_symmetric_and_positive():
    g = sample(Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0), GRID)
    h = sample(Translated(derivative(CompactBump(0.0, 10.0, 10), 5), -10.0), GRID)
    a = psi_norm(g, h, 1)
    assert a > 0
    assert abs(a - psi_norm(h, g, 1)) < 1e-12 * a


def test_psi_norm_regression_anchor():
    # pinned once from this configuration; any drift signals a behavioral
    # change in the projections, the seminorm tower, or the descriptors
    g = sample(Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0), GRID)
    h = sample(Translated(derivative(CompactBump(0.0, 10.0, 10), 5), -10.0), GRID)
    assert abs(psi_norm(g, h, 1) / 2258002163555908.0 - 1.0) < 1e-10
