"""Constructive moment annihilation for compactly supported functions.

Given a mother function g supported in (0, a0) with nonzero integral I and a
budget epsilon, append blocks f_k (k = 0..K) — scaled k-th derivatives of g
pushed to disjoint intervals (a_k, a_{k+1}) further and further right — such
that the sum f = g + f_0 + ... + f_K has vanishing moments of orders 0..K
while ||f - g|| < epsilon.  Block k annihilates the k-th moment of the
partial sum without disturbing moments below k (a k-th derivative of a
compact function kills all monomials of degree < k by parts).

All moments and norms are evaluated in closed form on the pieces of the
descriptors: the intervals grow too fast for any reasonable grid to hold
them.  Each block is built once, as a lowered `PiecewisePoly`, and every
moment and norm of it reads those pieces; the moments of each piece of the
running sum, orders 0..K, come from one table computed when it joins.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

from . import testfn
from .errors import CapabilityError, ConfigurationError, require_order, require_type
from .testfn import (
    Affine, Mirrored, PiecewisePoly, Summed, TestFunction, derivative,
    exact_l1_norm, exact_l2_norm, support,
)


@dataclass(frozen=True)
class AnnihilatorConfig:
    K: int
    epsilon: float
    a0: float
    mother: TestFunction

    def __post_init__(self):
        require_order("K", self.K)
        require_type("epsilon", self.epsilon, numbers.Real, "a number")
        require_type("a0", self.a0, numbers.Real, "a number")
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 1 < self.a0 < math.inf:
            raise ConfigurationError(f"a0 must exceed 1 and be finite, got {self.a0}")
        sup = support(self.mother)
        if not sup or sup[0][0] < 0 or sup[-1][1] > self.a0:
            raise ConfigurationError(
                f"mother support {sup} must lie inside (0, a0) = (0, {self.a0})"
            )
        if testfn.smoothness_budget(self.mother) < self.K:
            raise CapabilityError(
                f"mother smoothness budget {testfn.smoothness_budget(self.mother)} "
                f"cannot supply derivatives up to order {self.K}; "
                f"use a bump of order p >= {self.K + 1}"
            )


@dataclass(frozen=True)
class BlockRecord:
    k: int
    a_k: float
    a_k1: float
    gamma_k: float
    lambda_k: float
    f_k: TestFunction
    norm_fk: float
    norm_bound: float
    # relative error of the closed-form k-th moment, and the largest moment
    # below k relative to its scale (both 0.0 where lambda_k == 0)
    moment_error: float
    lower_defect: float


def _gamma(k: int, lam: float, I: float, a0: float, h: float) -> float:
    return ((-1.0) ** k * lam) / (math.factorial(k) * I) * (a0 / h) ** (k + 1)


def choose_interval(k: int, a_k: float, lambda_k: float,
                    config: AnnihilatorConfig, I: float, gk: TestFunction) -> float:
    """Smallest a_{k+1} = a_k + 2^m passing the width inequality

        (a_{k+1} - a_k)^{k+3/2} / a_{k+1}^k
            > (|lambda| 2^{k+1} / (eps |I| k!)) * a0^{k+3/2} * ||g^(k)||

    and, belt and braces, the exact norm budget ||f_k|| < eps/(2^{k+1} a_{k+1}^k).
    The closed-form norm scaling behind the width inequality is checked
    directly because the two can disagree when the block is wider than a0.
    """
    if lambda_k == 0.0:
        return a_k + 1.0
    gk_norm = exact_l2_norm(gk)
    if gk_norm == 0.0:  # g^(k) of a nonzero mother whose square underflows
        raise ConfigurationError(f"block {k}: the L^2 norm of g^({k}) underflows to zero")
    # evaluate both conditions in log space: the widths can overflow any
    # float power long before the search terminates
    log_rhs = (math.log(abs(lambda_k)) + (k + 1) * math.log(2.0)
               - math.log(config.epsilon) - math.log(abs(I)) - math.lgamma(k + 1)
               + (k + 1.5) * math.log(config.a0) + math.log(gk_norm))
    log_gamma_fixed = (math.log(abs(lambda_k)) - math.lgamma(k + 1) - math.log(abs(I))
                       + (k + 1) * math.log(config.a0))
    # every later power of a_{k+1} (moments up to order K, the norm budget)
    # must stay inside float range; refuse configurations that cannot
    cap = 10.0 ** (250.0 / (config.K + 2))
    for m in itertools.count():  # a_{k+1} >= 2^m passes cap <= 10^125 < 2^416 by m = 416
        log_h = m * math.log(2.0)
        h = 2.0 ** m
        a_k1 = a_k + h
        if a_k1 > cap:
            raise ConfigurationError(
                f"block {k}: interval endpoint {a_k1:.3e} exceeds the "
                f"workable range {cap:.3e}; enlarge epsilon*|I| or reduce K"
            )
        log_a_k1 = math.log(a_k1)
        width_ok = (k + 1.5) * log_h - k * log_a_k1 > log_rhs
        if width_ok:
            log_norm = (log_gamma_fixed - (k + 1) * log_h
                        + 0.5 * (log_h - math.log(config.a0)) + math.log(gk_norm))
            log_bound = (math.log(config.epsilon) - (k + 1) * math.log(2.0)
                         - k * log_a_k1)
            # small safety margin so the exact-arithmetic re-check in
            # build_block cannot flip on rounding
            if log_norm < log_bound - 1e-6:
                return a_k1


def build_block(k: int, a_k: float, a_k1: float, lambda_k: float, config: AnnihilatorConfig,
                I: float, gk: TestFunction, tables: list | None = None) -> BlockRecord:
    """Assemble f_k(x) = gamma_k g^(k)(a0 (x - a_k) / h) and verify its
    invariants in closed form:

    moments below k vanish; the k-th moment equals lambda_k (the closed-form
    identity int x^k f_k = (-1)^k k! I gamma_k (h/a0)^{k+1} collapses to
    lambda_k after substituting gamma_k); the L^2 norm respects the budget.
    The record keeps f_k, the measured moment error and the lower-moment
    defect.  The moments are read from one table per piece of f_k, orders
    0..max(k, K); when `tables` is given, a verified block appends those
    tables to it.
    """
    h = a_k1 - a_k
    if h <= 0:
        raise ConfigurationError("a_{k+1} must exceed a_k")
    gamma = _gamma(k, lambda_k, I, config.a0, h)
    f_k = Affine(gk, config.a0 / h, a_k, gamma)
    norm_fk = exact_l2_norm(f_k)
    bound = config.epsilon / (2.0 ** (k + 1) * a_k1 ** k)
    moment_error = lower_defect = 0.0
    if lambda_k != 0.0:
        closed_form = ((-1.0) ** k * math.factorial(k) * I * gamma * (h / config.a0) ** (k + 1))
        moments = [testfn._piece_moments(pc, max(k, config.K)) for pc in f_k.pieces]
        measured = testfn._summed_moment(f_k, moments, k).real
        moment_error = abs(measured - closed_form) / max(abs(closed_form), 1e-300)
        if moment_error > 1e-8:
            raise CapabilityError(
                f"block {k}: closed-form k-th moment {closed_form} vs exact "
                f"integration {measured} disagree (rel {moment_error:.3e})"
            )
        mass = exact_l1_norm(f_k) if k else 0.0  # order 0 has no lower moments
        for i in range(k):
            m_i = abs(testfn._summed_moment(f_k, moments, i))
            scale = max(mass * max(a_k1, 1.0) ** i, 1e-300)
            if m_i > 1e-10 * scale:
                raise CapabilityError(f"block {k}: moment of order {i} fails to vanish")
            lower_defect = max(lower_defect, m_i / scale)
        if norm_fk >= bound:
            raise CapabilityError(
                f"block {k}: norm {norm_fk} violates budget {bound}"
            )
        if tables is not None:
            tables.extend(moments)
    return BlockRecord(k, a_k, a_k1, gamma, lambda_k, f_k, norm_fk, bound,
                       moment_error, lower_defect)


def moment_defects(f: PiecewisePoly, K: int):
    """Relative residual moments of an assembled sum, orders 0..K, from
    its pieces.

    The scale is the sum of the absolute closed-form moments of the pieces:
    the natural yardstick for how much cancellation each order achieved.
    For a mother of several pieces it sums over each piece, not each block.
    """
    return _defects(f, [testfn._piece_moments(pc, K) for pc in f.pieces], K)


def _defects(f: PiecewisePoly, tables, K: int):
    """moment_defects(f, K) from the moment tables of f's pieces; an order,
    or its scale, beyond the float range is refused as exact_moment refuses it."""
    defects = []
    for n in range(K + 1):
        total = testfn._summed_moment(f, tables, n).real
        scale = testfn._finite(f"the order-{n} moment scale", f,
                               testfn._fsum_or_nan(abs(t[n].real) for t in tables))
        defects.append(abs(total) / scale if scale > 0 else 0.0)
    return defects


def annihilate(config: AnnihilatorConfig):
    """Run the construction; returns (f, blocks, report).

    Each piece of the running sum f gets one moment table, orders 0..K,
    when it joins the sum; lambda_k and the report's moment defects read
    those tables.
    """
    g = config.mother
    tables = [testfn._piece_moments(pc, config.K) for pc in g.pieces]
    I = testfn._summed_moment(g, tables, 0).real
    if not abs(I) > 1e-12 * exact_l1_norm(g):  # also refuses an I that underflows to 0
        raise ConfigurationError("mother integral is (numerically) zero")

    blocks: list[BlockRecord] = []
    f = g
    gk = g
    a_k = config.a0
    for k in range(config.K + 1):
        lambda_k = -testfn._summed_moment(f, tables, k).real
        gk = derivative(gk, min(k, 1))  # g^(k) from g^(k-1)
        a_k1 = choose_interval(k, a_k, lambda_k, config, I, gk)
        block_tables = []
        block = build_block(k, a_k, a_k1, lambda_k, config, I, gk, tables=block_tables)
        blocks.append(block)
        if block.gamma_k != 0.0:
            f = Summed((f, block.f_k))
            tables += block_tables
        a_k = a_k1

    l2_distance = math.sqrt(math.fsum(b.norm_fk ** 2 for b in blocks))
    report = {
        "K": config.K,
        "epsilon": config.epsilon,
        "I": I,
        "blocks": [
            {"k": b.k, "a_k": b.a_k, "a_k1": b.a_k1, "gamma_k": b.gamma_k,
             "lambda_k": b.lambda_k, "norm_fk": b.norm_fk, "bound": b.norm_bound}
            for b in blocks
        ],
        "moment_defects": _defects(f, tables, config.K),
        "l2_distance": l2_distance,
    }
    return f, blocks, report


def mirror(f: TestFunction, blocks):
    """Reflection x -> -x of an annihilated sum and its blocks, which moves
    the support into (-a_{K+1}, 0); returns (f_neg, blocks_neg)."""
    return Mirrored(f), [replace(b, a_k=-b.a_k1, a_k1=-b.a_k, f_k=Mirrored(b.f_k))
                         for b in blocks]


def annihilate_negative(config: AnnihilatorConfig):
    """Mirror image of :func:`annihilate`: returns (f_neg, blocks_neg, report)."""
    f, blocks, report = annihilate(config)
    return (*mirror(f, blocks), report)
