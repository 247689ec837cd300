"""Seminorm towers, moment functionals, and class-membership defects.

Two seminorm families are provided: the iterative L^2 tower
||f||_{n+1}^2 = ||Mf||_n^2 + ||Df||_n^2 + ||f||_n^2 built from the group
generators, and the sup family ||f||_{m,n} = sup_x |x^m f^(n)(x)| evaluated
on closed-form descriptors.  Their equivalence constants are not pinned
down anywhere usable, so no cross-family comparison is attempted.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import testfn
from .errors import CapabilityError, ConfigurationError, require_order
from .grid import (
    GridSpec, SampledFunction, _norm, _require_single, dual_grid, norm, per_chunk,
    restrict_halfline,
)
from .heisenberg import CHI1, CHI2, CHI3, GroupElement, act, element_from_lie, generator_apply
from .transforms import (
    _forward, _hardy_multipliers, _spectrum, _synthesis, inverse_fourier, spectral_multiply,
)

# seminorm_sup scan: a Gaussian's half-window in units of its width, and the
# point count of each scan
SUP_SPAN = 64.0
SUP_SAMPLES = 8192
# highest order of the iterative tower
TOWER_MAX_ORDER = 3


def seminorm_iter(f: SampledFunction, n: int) -> float:
    """||f||_n alone: the last entry of :func:`seminorm_tower`."""
    return seminorm_tower(f, n)[n]


def seminorm_tower(f: SampledFunction, n: int) -> list:
    """[||f||_0, ..., ||f||_n] of the iterative tower in one depth-first pass.

    Each word in {M, D}^{<=n} is applied once (2^{n+1} - 2 generator
    applications) and only one branch is held at a time.  A node stays in
    the domain of the last generator applied to it: on f's grid after M
    (i*x times the samples), on the dual grid after D (i*y times the
    spectrum), and its norm is taken there, which Parseval allows.  A node
    is transformed only for its child of the other generator, so the tower
    makes 2^n - 1 transforms (7 at n = 3, where a spectral D in every word
    made 14), and the values agree with that plain recursion to rounding,
    not bit for bit.  f is transformed by transforms._forward, so an f just
    transformed costs one FFT less and its spectrum stays kept; the inner
    nodes are buffers private to the tower, transformed without the memo
    and overwritten by their children (see _node_sq).  Order k is summed as
    ||Mf||_{k-1}^2 + ||Df||_{k-1}^2 + ||f||_{k-1}^2, the recursion's order.
    Spectral differentiation amplifies rounding roughly by N per order,
    so orders beyond TOWER_MAX_ORDER are refused rather than silently noisy.
    A stacked f gives one value per row at each order.
    """
    require_order("seminorm order", n)
    if n > TOWER_MAX_ORDER:
        raise CapabilityError(f"seminorm order {n} exceeds TOWER_MAX_ORDER {TOWER_MAX_ORDER}")
    # libm's pow, as Python's ** takes a float: ** 2 on an array multiplies,
    # which rounds otherwise in about 1 square in 1,200
    sq = [np.float_power(norm(f), 2)]
    if n > 0:
        grid, dual = f.grid, dual_grid(f.grid)
        # one block for the call: a buffer per level below f, in which each
        # node's children are written (see _node_sq)
        levels = np.empty((n,) + f.values.shape, dtype=complex)
        other = _node_sq(np.multiply(dual._i_points, _forward(f), out=levels[0]),
                         levels[1:], n - 1, dual, True)
        same = _node_sq(np.multiply(grid._i_points, f.values, out=levels[0]),
                        levels[1:], n - 1, grid, False)
        _sum_orders(sq, same, other)
    return [np.sqrt(order) for order in sq]


def _node_sq(node: np.ndarray, below: np.ndarray, n: int, grid: GridSpec, spectral: bool) -> list:
    """Squared orders 0..n of an inner node: samples on `grid` in a buffer of
    the tower's, which this call overwrites, as it does the n buffers `below`.
    A node on the dual grid (`spectral`) is held in _forward's frame, without
    fourier's post-twiddle: a sign per bin, so its norms are the same bit
    for bit, i*y commutes with it, and its transform back skips _backward's
    pre-twiddle.  Both children are i times the points of the grid that
    holds them (M on f's grid, the image of D on the dual), written in
    place: first the other-domain child, into the next level's buffer as the
    node is transformed there, then the same-domain child, into the node's
    own buffer.  One block per call, rather than a fresh buffer per child,
    keeps glibc from trimming the top of the heap, and faulting its pages in
    again, each time the recursion unwinds."""
    sq = [np.float_power(_norm(node, grid.spacing), 2)]
    if n > 0:
        to = dual_grid(grid)
        child = (_synthesis if spectral else _spectrum)(node, grid, out=below[0])
        other = _node_sq(np.multiply(to._i_points, child, out=child), below[1:], n - 1,
                         to, not spectral)
        same = _node_sq(np.multiply(grid._i_points, node, out=node), below, n - 1,
                        grid, spectral)
        _sum_orders(sq, same, other)
    return sq


def _sum_orders(sq: list, same: list, other: list) -> None:
    """Append orders 1..n to [||f||_0^2] from the same- and other-domain
    children's orders 0..n-1, as ||Mf||^2 + ||Df||^2 + ||f||^2."""
    for k in range(len(same)):
        sq.append(same[k] + other[k] + sq[k])


# one-parameter subgroups matched to their infinitesimal generators:
# D <-> translations t*chi1, M <-> modulations t*chi2, C <-> phases t*chi3
_GENERATOR_DIRECTION = {"D": CHI1, "M": CHI2, "C": CHI3}


def generator_convergence(gen: str, f: SampledFunction, t_list, n: int = 0) -> list:
    """Difference-quotient error curves ||((U(t chi) - I)/t - X) f||_k per t.

    Returns one curve [(t, error), ...] for each order k = 0..n; the
    quotients of each chunk of t values (see grid.per_chunk) are measured by
    one seminorm tower.  A quotient is about 1e-16/t times f where U(t chi) f
    rounds, so a small enough t takes an error past the float range: that
    order is refused with ConfigurationError naming t.
    """
    if gen not in _GENERATOR_DIRECTION:
        raise ConfigurationError(f"unknown generator {gen!r}")
    if not all(0 < t < math.inf and 1.0 / t < math.inf for t in map(float, t_list)):
        raise ConfigurationError("t_list entries must be positive and finite, as must 1/t")
    exact = generator_apply(gen, f)

    def errors(t):
        step = element_from_lie(_GENERATOR_DIRECTION[gen], t)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            tower = seminorm_tower((act(step, f) - f) * (1.0 / t)[:, None] - exact, n)
        for k, order in enumerate(tower):
            if not np.isfinite(order).all():
                raise ConfigurationError(
                    f"the order-{k} error of the {gen} difference quotient at "
                    f"t = {float(t[~np.isfinite(order)][0])!r} is not finite in floating point")
        return tower

    curves = per_chunk(f.grid, np.array(t_list, dtype=float), errors)
    return [[(t, err) for t, err in zip(t_list, curve)] for curve in curves]


def norm_growth_check(xis: GroupElement, f: SampledFunction, n: int) -> np.ndarray:
    """Ratios ||U(xi) f||_k / ((1 + xi1^2 + xi2^2)^{k/2} ||f||_k), one row per
    element of the stack xis and one column per order k = 0..n; f's tower is
    computed once, and the towers of U(xi) f a chunk of stacked draws at a
    time (see grid.per_chunk).  A bound past the float range raises
    ConfigurationError naming its element."""
    f_tower = [float(v) for v in seminorm_tower(f, n)]
    draws = np.stack(np.broadcast_arrays(xis.xi1, xis.xi2, xis.xi3), axis=-1).reshape(-1, 3)
    towers = per_chunk(f.grid, draws, lambda d: seminorm_tower(act(GroupElement(*d.T), f), n))
    ratios = []
    for (xi1, xi2, xi3), row in zip(draws.tolist(), towers.T):
        try:  # Python floats: their ** is libm's pow, where an array's ** 2 multiplies
            bounds = [(1.0 + xi1 ** 2 + xi2 ** 2) ** (k / 2.0) * f_tower[k] for k in range(n + 1)]
        except OverflowError:
            bounds = [math.inf]
        if not max(bounds) < math.inf:
            raise ConfigurationError(f"the norm-growth bound of ({xi1}, {xi2}, {xi3}) overflows")
        ratios.append([lhs / b for lhs, b in zip(row, bounds)])
    return np.array(ratios)


def seminorm_sup(tf, m: int, n: int) -> float:
    """sup_x |x^m * (d^n tf)(x)| via a dense scan, rerun on its own bracket,
    of each interval where d^n tf lives: each support interval of a compact
    descriptor, and a Gaussian's centre +- SUP_SPAN widths.

    The scan compares m*log|x| + log|d^n tf(x)|, as x^m may overflow where the
    product does not; a sup past the float range raises ConfigurationError.
    """
    require_order("seminorm_sup m", m)
    require_order("seminorm_sup n", n)
    d = testfn.derivative(tf, n)
    if isinstance(d, testfn.GaussianPoly):
        windows = ((d.center - SUP_SPAN * d.width, d.center + SUP_SPAN * d.width),)
    else:
        windows = testfn.support(d)
    best = -math.inf
    for lo, hi in windows:
        # one scan, then two rescans of the +-2-cell bracket around the
        # argmax; each rescan shrinks the cell about 2,048-fold (1.6e-2 ->
        # 3.7e-9 on a 128-wide window), and at a smooth maximum the value
        # error goes as the square of the x-error, far below 1e-12 relative
        for _ in range(3):
            xs = np.linspace(lo, hi, SUP_SAMPLES)
            with np.errstate(divide="ignore"):  # log 0 = -inf, a zero of the product
                logs = np.log(np.abs(testfn.evaluate(d, xs)))
                if m:
                    logs += m * np.log(np.abs(xs))
            j = int(np.argmax(logs))
            best = max(best, float(logs[j]))
            h = (hi - lo) / (SUP_SAMPLES - 1)
            lo, hi = max(lo, xs[j] - 2 * h), min(hi, xs[j] + 2 * h)
    try:
        return math.exp(best)
    except OverflowError:
        raise ConfigurationError(f"sup of |x^{m} d^{n} f| is about "
                                 f"10^{best / math.log(10):.1f}, past the float range") from None


class GridMoment(NamedTuple):
    """One order of :func:`moment_orders`: the grid moment dx * sum x^n f and
    its L^1 scale dx * sum |x^n f|."""
    value: complex
    scale: float

    @property
    def defect(self) -> float:
        """|value| relative to the scale; 0/0 counts as 0."""
        return 0.0 if self.scale == 0.0 else abs(self.value) / self.scale


def moment_orders(f: SampledFunction):
    """The grid moments of f for n = 0, 1, 2, ..., lazily, as `GridMoment`s.

    Both sums of an order come from one product x^n * f.values, and x^n is
    carried from order to order as x * x^(n-1): one real multiply per order
    and no pow.  Orders 0-2 equal the power x ** n bit for bit (numpy squares
    by multiplying); at order n each point is within n - 1 roundings of x^n
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1).
    """
    _require_single(f)
    x, dx = f.grid.points, f.grid.spacing
    xn = np.ones(f.grid.size)
    while True:
        term = xn * f.values
        yield GridMoment(complex(dx * np.sum(term)), dx * float(np.sum(np.abs(term))))
        xn = xn * x


def n_defect(f: SampledFunction, max_order: int = 8) -> float:
    """Worst relative moment defect over orders 0..max_order, in one walk."""
    require_order("max_order", max_order)
    return max(m.defect for m in itertools.islice(moment_orders(f), max_order + 1))


def class_defects(f: SampledFunction, max_order: int = 8) -> dict:
    """Membership defects for the vanishing-moment class, its Fourier image,
    the two Hardy classes, and the two half-line support classes.

    Every entry is a nonnegative number; zero means perfect membership at
    this resolution.  The Fourier-image defect reuses the moment diagnostic
    on the inverse transform (moments of f^ vanish iff derivatives of f
    vanish at the origin, and vice versa).
    """
    _require_single(f)
    nf = norm(f)
    if nf == 0.0:
        zero = 0.0
        return {"n_defect": zero, "m_defect": zero, "hardy_plus": zero,
                "hardy_minus": zero, "support_plus": zero, "support_minus": zero}
    plus, minus = norm(spectral_multiply(f, _hardy_multipliers(f.grid.size))) / nf
    return {
        "n_defect": n_defect(f, max_order),
        "m_defect": n_defect(inverse_fourier(f), max_order),
        "hardy_plus": float(minus),
        "hardy_minus": float(plus),
        "support_plus": norm(restrict_halfline(f, "minus")) / nf,
        "support_minus": norm(restrict_halfline(f, "plus")) / nf,
    }
