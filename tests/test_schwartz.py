import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from heisenrep import (
    SampledFunction, dual_grid, fourier, inverse_fourier, make_grid, norm, proj_hardy, transforms,
)
from heisenrep.errors import CapabilityError, ConfigurationError
from heisenrep.heisenberg import generator_apply
from heisenrep.psi import certify_nminus, psi_norm
from heisenrep.schwartz import (
    TOWER_MAX_ORDER, class_defects, moment_orders, n_defect, seminorm_iter, seminorm_sup,
    seminorm_tower,
)
from heisenrep.testfn import (
    Affine, CompactBump, GaussianPoly, Summed, Translated, derivative, sample,
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
    # every word in {M, D}^{<=n} is one product by the table i*x of the grid
    # that holds the node (on the dual grid, i*y: the image of D), and a node
    # is transformed only for its child of the other generator: 2^n - 1 numpy
    # FFTs from a cold memo, one fewer when f was just transformed, since f's
    # own spectrum is the one transforms._forward keeps
    dual = dual_grid(GRID)
    tables = {id(GRID._i_points): GRID, id(dual._i_points): dual}
    ffts, products = [], []
    multiply = np.multiply

    def counting_products(a, *args, **kwargs):
        if id(a) in tables:
            products.append(tables[id(a)])
        return multiply(a, *args, **kwargs)

    for name in ("fft", "ifft"):
        def counting(a, *args, transform=getattr(np.fft, name), **kwargs):
            ffts.append(name)
            return transform(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    monkeypatch.setattr(np, "multiply", counting_products)
    counts = {}
    for warm in (False, True):
        counts[warm] = []
        for n in range(4):
            transforms._last = None
            if warm:
                fourier(GAUSS)
            ffts.clear()
            products.clear()
            assert len(seminorm_tower(GAUSS, n)) == n + 1
            assert len(products) == 2 ** (n + 1) - 2
            # a node leaves f's grid only for the dual, and comes back to f's grid
            assert set(products) == ({GRID, dual} if n else set())
            counts[warm].append(len(ffts))
    assert counts == {False: [0, 1, 3, 7], True: [0, 0, 2, 6]}


def _reference_tower_sq(node, n, spectral=False):
    """The tower as a plain recursion of the public primitives: each node a
    SampledFunction, each product generator_apply("M", .), each switch of
    domain fourier or inverse_fourier."""
    sq = [np.float_power(norm(node), 2)]
    if n > 0:
        same = _reference_tower_sq(generator_apply("M", node), n - 1, spectral)
        switch = inverse_fourier if spectral else fourier
        other = _reference_tower_sq(generator_apply("M", switch(node)), n - 1, not spectral)
        for k in range(n):
            sq.append(same[k] + other[k] + sq[k])
    return sq


@pytest.mark.parametrize("size", [4, 64, 1024, 2 ** 14])
def test_seminorm_tower_matches_the_plain_recursion_bit_for_bit(size):
    # the tower's private buffers, its nodes held in _forward's frame and its
    # root read through the memo change no byte of any order, from a cold memo
    # or from one holding f's spectrum; f and its kept spectrum stay as they were
    grid = make_grid(16.0, size)
    rng = np.random.default_rng(size)
    stack = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
    stack[1] = 0.0
    for values in (stack[0], stack, np.zeros(size), np.zeros((2, size))):
        f = SampledFunction(grid, values)
        before = f.values.tobytes()
        want = [np.sqrt(sq).tobytes() for sq in _reference_tower_sq(f, TOWER_MAX_ORDER)]
        for n in range(TOWER_MAX_ORDER + 1):
            for warm in (False, True):
                transforms._last = None
                kept = transforms._forward(f) if warm else None
                got = seminorm_tower(f, n)
                assert [np.asarray(order).tobytes() for order in got] == want[:n + 1]
                assert f.values.tobytes() == before
                if warm or n:
                    assert transforms._last[0]() is f.values
                    assert transforms._last[2].tobytes() == transforms._spectrum(
                        f.values, grid).tobytes()
                if warm:
                    assert transforms._last[2] is kept


def _gaussian_poly_tower_sq(center, width, coefficients, n):
    """Exact [||f||_k^2 / sqrt(pi)] for k <= n, f = p(u) e^{-u^2/(2w^2)}, u = x - c.

    M and D keep the form: M p = i(u + c) p and D p = p' - u p / w^2, and
    ||q e^{-u^2/(2w^2)}||^2 = sum_{j,k} conj(q_j) q_k int u^{j+k} e^{-u^2/w^2} du
    with int u^{2m} e^{-u^2/w^2} du = sqrt(pi) w^{2m+1} (2m)! / (4^m m!).
    Coefficients are (re, im) pairs of Fractions, so only the final
    conversion to float rounds.
    """
    c, w2 = Fraction(center), Fraction(width) ** 2

    def sq(q):
        total = Fraction(0)
        for j, (aj, bj) in enumerate(q):
            for k, (ak, bk) in enumerate(q):
                if (j + k) % 2 == 0:
                    m = (j + k) // 2
                    total += ((aj * ak + bj * bk) * w2 ** m * math.factorial(2 * m)
                              / (4 ** m * math.factorial(m)))
        return total * Fraction(width)

    def gen_m(q):
        shifted = [(c * a, c * b) for a, b in q] + [(Fraction(0), Fraction(0))]
        for k, (a, b) in enumerate(q):
            shifted[k + 1] = (shifted[k + 1][0] + a, shifted[k + 1][1] + b)
        return [(-b, a) for a, b in shifted]

    def gen_d(q):
        out = [(Fraction(0), Fraction(0))] * (len(q) + 1)
        for k, (a, b) in enumerate(q):
            if k:
                out[k - 1] = (out[k - 1][0] + k * a, out[k - 1][1] + k * b)
            out[k + 1] = (out[k + 1][0] - a / w2, out[k + 1][1] - b / w2)
        return out

    def tower(q, order):
        out = [sq(q)]
        if order:
            m_sq, d_sq = tower(gen_m(q), order - 1), tower(gen_d(q), order - 1)
            for k in range(order):
                out.append(m_sq[k] + d_sq[k] + out[k])
        return out

    q = [(Fraction(z.real), Fraction(z.imag)) for z in coefficients]
    return tower(q, n)


def test_seminorm_tower_gaussian_poly_oracle():
    # Rounding model on GRID (u the unit roundoff, N points, half-width L):
    # every stage of a word -- sampling, one multiplication by i times the
    # points, one transform -- adds at most C u of relative error in the
    # grid's L^2 norm, C = 6 log2(N) + 4 (the FFT's bound, Higham 2002,
    # Thm 24.2, plus the products around it), and multiplies the error it
    # receives by at most A = max(L, pi/dx), the largest multiplier.  A word
    # of length k then carries an error <= (k + 1) C u A^k ||f||.  Order n is
    # a weighted l^2 norm of word norms whose weights sum to 3^n, so its
    # error is <= 3^(n/2) (n + 1) C u A^n ||f||, and ||f|| <= ||f||_n.  The
    # window and the spacing cost nothing at this resolution: the Gaussians
    # (|c| <= 4, w <= 2) and their spectra (w >= 1/2), times any polynomial
    # the words make, are below e^-70 at the window's edge and at the dual's.  The oracle rounds only in
    # its final float conversion, square root and product with pi^(1/4).
    u = np.finfo(float).eps / 2
    big_c = 6 * math.log2(GRID.size) + 4
    big_a = max(GRID.half_width, math.pi / GRID.spacing)
    tolerance = [3 ** (n / 2) * (n + 1) * big_c * u * big_a ** n + 8 * u for n in range(4)]
    rng = np.random.default_rng(16)
    for _ in range(20):
        center, width = rng.uniform(-4.0, 4.0), rng.uniform(0.5, 2.0)
        degree = int(rng.integers(0, 4))
        coefficients = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        exact = [math.sqrt(float(sq)) * math.pi ** 0.25
                 for sq in _gaussian_poly_tower_sq(center, width, coefficients, 3)]
        f = sample(GaussianPoly(center, width, tuple(coefficients)), GRID)
        for n, (got, want) in enumerate(zip(seminorm_tower(f, 3), exact)):
            assert abs(got - want) <= tolerance[n] * want, (n, got, want)


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


@pytest.mark.parametrize("tf, m, exact", [
    # window centred on the centre: the unit window [-64, 64] misses it
    (GaussianPoly(100.0, 1.0, (1.0,)), 0, 1.0),
    # sup |x e^{-x^2/(2 w^2)}| = w e^{-1/2} at x = w, w = 100
    (GaussianPoly(0.0, 100.0, (1.0,)), 1, 100.0 * math.exp(-0.5)),
    # a peak far narrower than the unit window's cells
    (GaussianPoly(0.0, 1e-4, (1.0,)), 0, 1.0),
    # two bumps 1e4 apart, each scanned on its own: 100 * (1/2)^4
    (Summed((CompactBump(0.0, 1.0, 2),
             Affine(CompactBump(0.0, 1.0, 2), shift=1e4, gain=100.0))), 0, 6.25),
])
def test_seminorm_sup_scans_where_the_descriptor_lives(tf, m, exact):
    assert abs(seminorm_sup(tf, m, 0) - exact) <= 1e-12 * exact


def _sup_oracle(g, m, n):
    # with u = x - c, x^m f^(n)(x) = r(u) e^{-u^2/(2w^2)}, r(u) = (u + c)^m q(u);
    # its extrema sit at the real roots of r'(u) - u r(u)/w^2
    q = derivative(g, n)
    c, w = q.center, q.width
    r = P.polymul(P.polypow([c, 1.0], m), q.coefficients)
    roots = P.polyroots(P.polysub(P.polyder(r), P.polymul([0.0, 1.0 / w ** 2], r)))
    u = roots[np.abs(roots.imag) < 1e-9].real
    return float(np.max(np.abs(P.polyval(u, r)) * np.exp(-u ** 2 / (2 * w ** 2))))


@pytest.mark.parametrize("m", [2, 50, 200])
def test_seminorm_sup_past_the_range_of_x_to_the_m(m):
    # sup |x^m e^{-x^2/2}| = (m/e)^{m/2} at x = sqrt(m); at m = 200 it is about
    # 1e186 while x^200 overflows on the scan's window
    exact = math.exp(m / 2 * math.log(m / math.e))
    assert abs(seminorm_sup(GaussianPoly(0.0, 1.0, (1.0,)), m, 0) - exact) < 1e-12 * exact


def test_seminorm_sup_past_the_float_range_refused():
    with pytest.raises(ConfigurationError, match="float range"):
        seminorm_sup(GaussianPoly(0.0, 1.0, (1.0,)), 600, 0)


def test_seminorm_sup_random_gaussian_polys():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = GaussianPoly(rng.uniform(-5, 5), rng.uniform(0.3, 3.0),
                         tuple(rng.normal(size=rng.integers(1, 5))))
        m, n = (int(k) for k in rng.integers(0, 3, size=2))
        exact = _sup_oracle(g, m, n)
        assert abs(seminorm_sup(g, m, n) - exact) <= 1e-12 * exact


def test_moment_oracles():
    m0, m1, m2 = (order.value for _, order in zip(range(3), moment_orders(GAUSS)))
    assert abs(m0 - math.sqrt(2 * math.pi)) < 1e-12
    assert abs(m1) < 1e-14
    assert abs(m2 - math.sqrt(2 * math.pi)) < 1e-12


def test_moment_defect_scales():
    # the descriptor's moments vanish exactly; the grid quadrature of x^n f
    # leaves only truncation error, well under the certificate threshold
    d = sample(Translated(derivative(CompactBump(0.0, 2.0, 10), 5), -3.0), GRID)
    assert n_defect(d, 4) < 1e-6
    assert next(moment_orders(GAUSS)).defect > 0.5  # a Gaussian has no vanishing moments


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
    assert len(a) == 2 and 0 < a[0] < a[1]
    assert abs(a[1] - psi_norm(h, g, 1)[1]) < 1e-12 * a[1]
    # order k of a call does not depend on the top order asked for
    assert psi_norm(g, h, 0) == a[:1]
    assert psi_norm(g, h, 2)[:2] == a


def test_psi_norm_regression_anchor():
    # pinned once from this configuration; any drift signals a behavioral
    # change in the projections, the seminorm tower, or the descriptors
    g = sample(Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0), GRID)
    h = sample(Translated(derivative(CompactBump(0.0, 10.0, 10), 5), -10.0), GRID)
    assert abs(psi_norm(g, h, 1)[1] / 2258002163555908.0 - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# grid moments from a running power of the points

EDGE = Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0)


def _power_moment(f, n):
    """The formula the running power replaced, kept as the reference: x ** n
    from numpy's power, then the moment and its L^1 scale of x^n f."""
    term = f.grid.points ** n * f.values
    return (complex(f.grid.spacing * np.sum(term)),
            f.grid.spacing * float(np.sum(np.abs(term))))


def _random_samples(grid, seed):
    rng = np.random.default_rng(seed)
    return SampledFunction(grid, rng.standard_normal(grid.size)
                           + 1j * rng.standard_normal(grid.size))


@pytest.mark.parametrize("f", [GAUSS, sample(EDGE, GRID), _random_samples(GRID, 5)],
                         ids=["gaussian", "edge-witness", "random"])
def test_low_moment_orders_bit_identical_to_power(f):
    # numpy's x ** 0, x ** 1 and x ** 2 are 1, x and x * x, so the running
    # power matches them bit for bit
    for n, order in zip(range(3), moment_orders(f)):
        value, scale = _power_moment(f, n)
        assert order == (value, scale)
        assert order.defect == (0.0 if scale == 0.0 else abs(value) / scale)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("size", [4096, 2 ** 16])
def test_moment_orders_within_rounding_of_long_double(size):
    # Bound fixed from the operation count before measuring: per point, x^n
    # carried as a product takes n - 1 roundings (Higham, Accuracy and
    # Stability of Numerical Algorithms, section 3.1) and the product with f
    # one more; numpy's pairwise sum is at most log2(N) + 11 roundings deep
    # (8 accumulators of 16 terms per 128-block, then halving); times dx is
    # one more.  Each rounding costs at most eps/2 of dx * sum |x^n f|; eps
    # is allowed for each.  The L^1 scale takes one more rounding, in abs.
    eps = np.finfo(float).eps
    grid = make_grid(32.0, size)
    x = grid.points.astype(np.longdouble)
    dx = np.longdouble(grid.spacing)
    for f in (sample(EDGE, grid), _random_samples(grid, size)):
        re, im = (part.astype(np.longdouble) for part in (f.values.real, f.values.imag))
        for n, order in zip(range(9), moment_orders(f)):
            xn = x ** n
            exact = (dx * np.sum(xn * re), dx * np.sum(xn * im))
            exact_scale = dx * np.sum(np.hypot(xn * re, xn * im))
            bound = (max(n - 1, 0) + math.log2(size) + 13) * eps * exact_scale
            assert abs(np.longdouble(order.value.real) - exact[0]) <= bound
            assert abs(np.longdouble(order.value.imag) - exact[1]) <= bound
            assert abs(np.longdouble(order.scale) - exact_scale) <= bound + eps * exact_scale


def test_running_power_within_n_roundings_at_each_point():
    # on a unit mass at x_j the sum is exact, so the moment is dx * x_j^n as
    # carried by the running power with one more rounding for dx: within
    # gamma_n = n u / (1 - n u) of the exact value (u = eps/2)
    u = np.finfo(float).eps / 2
    for j in (0, 1, 5, 1000, 2047, 2049, 3000, GRID.size - 1):
        unit = np.zeros(GRID.size)
        unit[j] = 1.0
        x = np.longdouble(GRID.points[j])
        for n, order in zip(range(9), moment_orders(SampledFunction(GRID, unit))):
            exact = np.longdouble(GRID.spacing) * x ** n
            gamma = n * u / (1 - n * u)
            assert abs(np.longdouble(order.value.real) - exact) <= gamma * abs(exact) * (1 + 1e-3)
            assert order.value.imag == 0.0


class _NoPower(np.ndarray):
    """Grid points that refuse to be raised to a power."""

    def __pow__(self, other):
        raise AssertionError("grid points raised to a power")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.power:
            raise AssertionError("grid points raised to a power")
        inputs = tuple(a.view(np.ndarray) if isinstance(a, _NoPower) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_moment_walks_never_raise_points_to_a_power():
    grid = make_grid(32.0, 4096)  # its own instance: its cached points are replaced
    for g in (grid, dual_grid(grid)):
        g.__dict__["points"] = g.points.view(_NoPower)
    with pytest.raises(AssertionError):
        grid.points ** 3  # the guard holds
    with pytest.raises(AssertionError):
        np.power(dual_grid(grid).points, 3)
    f, defect = certify_nminus(EDGE, grid, 4)
    assert isinstance(f.grid.points, _NoPower)
    assert n_defect(f, 8) >= defect
    assert set(class_defects(f, 8)) >= {"n_defect", "m_defect"}


def test_moment_orders_refuse_bad_orders():
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigurationError):
            n_defect(GAUSS, bad)
    assert n_defect(GAUSS, np.int64(2)) == n_defect(GAUSS, 2)
