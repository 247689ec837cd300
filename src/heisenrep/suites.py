"""The named verification suites run by the batch harness.

Each suite function receives a SuiteConfig and a Recorder and appends
check records {id, description, claim anchor, measured, threshold, pass}.
Checks cite the claim they exercise through a short anchor string
("plumbing" for artifact-internal checks).  All randomness flows from the
config seed, and nothing time- or path-dependent enters the report, so a
fixed config reproduces a byte-identical report.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import testfn
from .annihilator import (
    AnnihilatorConfig, annihilate, annihilate_negative, moment_defects,
)
from .errors import ConfigurationError, require_type
from .grid import (
    GridSpec, SampledFunction, dual_grid, make_grid, norm, restrict_halfline,
)
from .heisenberg import (
    CHI1, CHI2, CHI3, GroupElement, LieElement, SemigroupId, act, bracket,
    conjugate_by_fourier, generator_apply, generator_convergence, in_semigroup,
    inverse, multiply, norm_growth_check, random_in_semigroup,
    semigroup_noninverse_witness,
)
from .psi import (
    act_psi, certify_nminus, coincidence_defect, contraction_contrast,
    halfline_contraction, hardy_semigroup_step, invariance_witness,
    synthesize, tilde_norm, tilde_synthesize,
)
from .schwartz import moment, psi_norm, seminorm_iter, seminorm_sup, seminorm_tower
from .transforms import fourier, hilbert, inverse_fourier, proj_hardy

SUITE_IDS = (
    "group-axioms", "transforms", "paley-wiener", "generators", "norms",
    "appendix-a", "psi-invariance", "tilde-space", "semigroup-evolution",
    "conjugation",
)


# typed SuiteConfig fields: (accepted type, how an error message names it, the
# type stored, so a report's environment is the same from file, flag or API)
_FIELD_TYPES = {
    "half_width": (numbers.Real, "a number", float),
    "size": (numbers.Integral, "an integer", int),
    "seed": (numbers.Integral, "an integer", int),
    "max_moment": (numbers.Integral, "an integer", int),
    "epsilon": (numbers.Real, "a number", float),
}


@dataclass
class SuiteConfig:
    """Harness settings: the one schema of config-file keys and CLI flags."""

    suite: str
    half_width: float = 32.0
    size: int = 4096
    seed: int = 0
    max_moment: int = 4
    epsilon: float = 1e-2
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    emit_csv: bool = False

    @classmethod
    def from_settings(cls, settings: dict) -> "SuiteConfig":
        """SuiteConfig from a mapping keyed by field names; other keys are refused."""
        unknown = set(settings) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**settings)

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise ConfigurationError(
                f"unknown suite {self.suite!r}; expected one of {SUITE_IDS}"
            )
        for name, (kind, label, stored) in _FIELD_TYPES.items():
            require_type(name, getattr(self, name), kind, label)
            setattr(self, name, stored(getattr(self, name)))
        if not isinstance(self.emit_csv, bool):
            raise ConfigurationError(f"emit_csv must be true or false, got {self.emit_csv!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ConfigurationError(f"out must be a directory path, got {self.out!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigurationError(f"tolerances must be a mapping, got {self.tolerances!r}")
        for key, value in self.tolerances.items():
            require_type(f"tolerance {key}", value, numbers.Real, "a number")
            if not value >= 0:
                raise ConfigurationError(f"tolerance {key}={value} must be nonnegative")
        self.tolerances = {key: float(value) for key, value in self.tolerances.items()}
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.max_moment < 0:
            raise ConfigurationError(f"max_moment must be nonnegative, got {self.max_moment}")
        self._grid = make_grid(self.half_width, self.size)

    def grid(self) -> GridSpec:
        return self._grid


class Recorder:
    """Accumulates check records and optional CSV curves for one suite."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.checks: list[dict] = []
        self.curves: dict[str, list] = {}

    def threshold(self, check_id: str, default: float) -> float:
        return float(self.config.tolerances.get(check_id, default))

    def check(self, check_id: str, description: str, ref: str,
              measured, default_threshold: float, kind: str = "upper") -> bool:
        thr = self.threshold(check_id, default_threshold)
        passed = measured <= thr if kind == "upper" else measured > thr
        self.checks.append({
            "check": check_id,
            "description": description,
            "claim": ref,
            "measured": measured,
            "threshold": thr,
            "pass": bool(passed),
        })
        return bool(passed)

    def curve(self, name: str, rows) -> None:
        self.curves[name] = [[float(a), float(b)] for a, b in rows]


# ---------------------------------------------------------------------------
# shared helpers

def _random_bandlimited(grid: GridSpec, rng) -> SampledFunction:
    dg = dual_grid(grid)
    y = dg.points
    spec = np.where(
        np.abs(y) < 10.0,  # band limit
        rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size),
        0.0,
    )
    return inverse_fourier(SampledFunction(dg, spec))


def _random_modulation(grid: GridSpec, rng) -> float:
    """Modulation parameter in [-5, 5] commensurate with the dual grid spacing.

    Composition of modulation and spectral translation reproduces the group
    law exactly only when modulations shift whole frequency bins; arbitrary
    rates leak across bins and the defect is O(1), not rounding.
    """
    dy = np.pi / grid.half_width
    top = int(5.0 / dy)
    return dy * float(rng.integers(-top, top + 1))


def _edge_witness():
    """Moment-free descriptor hugging x = 0: its translate spills fast."""
    return testfn.Translated(testfn.Derivative(testfn.CompactBump(0.0, 1.0, 10), 5), -1.0)


def _wide_witness():
    """Moment-free descriptor with spectral weight near |y| = 1."""
    return testfn.Translated(testfn.Derivative(testfn.CompactBump(0.0, 10.0, 10), 5), -10.0)


def _random_nminus(rng):
    """Random certified negatively supported moment-free descriptor."""
    width = float(rng.uniform(1.0, 6.0))
    gap = float(rng.uniform(0.5, 12.0))
    gain = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    d = testfn.Derivative(testfn.CompactBump(0.0, width, 10), 5)
    return testfn.Amplified(testfn.Translated(d, -(width + gap)), gain)


def _lorentzian(grid: GridSpec) -> SampledFunction:
    x = grid.points
    return SampledFunction(grid, 1.0 / (1.0 + x * x))


def _gaussian(grid: GridSpec, width: float = 1.0) -> SampledFunction:
    return testfn.sample(testfn.GaussianPoly(0.0, width, (1.0,)), grid)


def _sample_fixed(tf, grid: GridSpec, dual: bool = False) -> SampledFunction:
    """Samples of one of a suite's fixed test functions on the grid, or on its
    dual; a grid on which they all vanish is refused, because a relative
    measure of the suite would then divide by zero or measure nothing."""
    f = testfn.sample(tf, dual_grid(grid) if dual else grid)
    if not f.values.any():
        raise ConfigurationError(
            f"{tf!r} samples to zero on the {'dual of the ' if dual else ''}grid "
            f"with half_width={grid.half_width}, size={grid.size}")
    return f


def _hardy_plus_function(grid: GridSpec, spectrum) -> SampledFunction:
    """Inverse transform of exact samples of a compactly supported spectrum."""
    return inverse_fourier(_sample_fixed(spectrum, grid, dual=True))


def _rel(a: SampledFunction, b: SampledFunction, scale: SampledFunction = None) -> float:
    return norm(a - b) / norm(scale if scale is not None else b)


# ---------------------------------------------------------------------------
# suites

def suite_group_axioms(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    n = 100_000
    a = rng.uniform(-10, 10, (3, n))
    b = rng.uniform(-10, 10, (3, n))
    c = rng.uniform(-10, 10, (3, n))

    # ((a b) c) vs (a (b c)); only the third component can differ, and only
    # it is kept alive (the draws hold 1e5 elements each)
    a, b, c = GroupElement(*a), GroupElement(*b), GroupElement(*c)
    assoc = float(np.max(np.abs(multiply(multiply(a, b), c).xi3
                                - multiply(a, multiply(b, c)).xi3)))
    rec.check("associativity", "associativity of the group product over 1e5 random triples",
              "group multiplication law", assoc, 1e-12)

    inv = float(np.max(np.abs(multiply(a, inverse(a)).xi3)))
    rec.check("inverse-identity", "x * x^-1 = identity over 1e5 random elements",
              "group inverse formula", inv, 1e-12)

    table_ok = (
        bracket(CHI1, CHI2) == CHI3
        and bracket(CHI1, CHI3) == LieElement(0, 0, 0)
        and bracket(CHI2, CHI3) == LieElement(0, 0, 0)
        and bracket(CHI2, CHI1) == LieElement(0, 0, -1)
    )
    rec.check("bracket-table", "commutation table of the Lie basis",
              "Heisenberg commutation relations", 0.0 if table_ok else 1.0, 0.0)

    m = 10_000
    for base in ("S1zero", "S1", "S2zero", "S2", "S3", "S4"):
        sid = SemigroupId(base)
        prod = multiply(random_in_semigroup(rng, sid, m), random_in_semigroup(rng, sid, m))
        closed = bool(np.all(in_semigroup(prod, sid)))
        rec.check(f"closure-{base}", f"product closure of {base} over 1e4 in-set pairs",
                  "subsemigroup definitions", 0.0 if closed else 1.0, 0.0)
        bad = in_semigroup(inverse(semigroup_noninverse_witness(sid)), sid)
        rec.check(f"noninverse-{base}", f"stored witness of {base} has out-of-set inverse",
                  "subsemigroups are not groups", 0.0 if not bad else 1.0, 0.0)

    # representation property, spectral mode
    grid = cfg.grid()
    f = _random_bandlimited(grid, rng)
    worst_h = 0.0
    worst_u = 0.0
    for _ in range(100):
        xi = GroupElement(float(rng.uniform(-5, 5)), _random_modulation(grid, rng),
                          float(rng.uniform(-5, 5)))
        eta = GroupElement(float(rng.uniform(-5, 5)), _random_modulation(grid, rng),
                           float(rng.uniform(-5, 5)))
        lhs = act(xi, act(eta, f))
        rhs = act(multiply(xi, eta), f)
        worst_h = max(worst_h, _rel(lhs, rhs, f))
        worst_u = max(worst_u, abs(norm(lhs) - norm(f)) / norm(f))
    rec.check("homomorphism", "U(xi eta) = U(xi) U(eta) over 100 random pairs, spectral mode",
              "unitary representation", worst_h, 1e-12)
    rec.check("unitarity", "norm preservation of the action over the same draws",
              "unitary representation", worst_u, 1e-13)


def suite_transforms(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    gauss = _gaussian(grid)
    ghat = fourier(gauss)
    y = ghat.grid.points
    gauss_err = float(np.max(np.abs(ghat.values - np.exp(-y * y / 2.0))))
    rec.check("gaussian-transform", "transform of exp(-x^2/2) is itself, pointwise",
              "transform convention", gauss_err, 1e-10)

    worst_u = 0.0
    worst_r = 0.0
    for _ in range(50):
        f = _random_bandlimited(grid, rng)
        fhat = fourier(f)
        worst_u = max(worst_u, abs(norm(fhat) - norm(f)) / norm(f))
        worst_r = max(worst_r, _rel(inverse_fourier(fhat), f))
    rec.check("unitarity", "norm preservation over 50 random band-limited functions",
              "transform extends to a unitary map", worst_u, 1e-13)
    rec.check("roundtrip", "inverse transform of the transform is the identity",
              "transform inversion", worst_r, 1e-13)

    # modulation identity at a bin-commensurate rate
    f = _random_bandlimited(grid, rng)
    a = 16 * np.pi / grid.half_width
    mod = act(GroupElement(0.0, a, 0.0), f, mode="grid")
    shifted = np.roll(fourier(f).values, 16)
    mod_err = float(norm(SampledFunction(ghat.grid, fourier(mod).values - shifted)) / norm(f))
    rec.check("modulation-shift", "transform of e^{iax} f equals the transform shifted by a",
              "modulation-translation duality", mod_err, 1e-12)

    # Hilbert transform against the exact periodized Poisson-kernel pair:
    # sum_m 1/(x - i + 2Lm) = (pi/2L) cot(pi (x - i)/(2L)); the imaginary
    # part is the periodization of 1/(1+x^2) and the real part its partner
    L = grid.half_width
    z = (np.pi / (2 * L)) / np.tan(np.pi * (grid.points - 1j) / (2 * L))
    fp = SampledFunction(grid, z.imag)
    target = SampledFunction(grid, z.real)
    mult_err = _rel(hilbert(fp, "multiplier"), target)
    rec.check("multiplier-oracle", "multiplier route matches the periodized conjugate pair",
              "Hilbert transform multiplier identity", mult_err, 1e-12)

    lor = _lorentzian(grid)
    pv_err = _rel(hilbert(lor, "principal_value"),
                  SampledFunction(grid, grid.points / (1.0 + grid.points ** 2)))
    rec.check("pv-lorentzian", "principal-value quadrature on 1/(1+x^2) vs x/(1+x^2)",
              "Hilbert transform principal value", pv_err, 1e-2)

    meanfree = generator_apply("D", gauss)
    hh = hilbert(hilbert(meanfree, "multiplier"), "multiplier")
    rec.check("involution", "H(H(f)) = -f for mean-free f",
              "multiplier squares to -1 off the zero bin",
              _rel(hh, meanfree * (-1.0)), 1e-10)

    hg = hilbert(gauss, "multiplier")
    r = hg.values.real
    peak = float(np.max(np.abs(r)))
    imag_defect = float(np.max(np.abs(hg.values.imag))) / peak
    # oddness under the periodic mirror j <-> N - j (the j = 0 sample is its
    # own mirror and is excluded)
    j = np.arange(1, grid.size)
    odd_defect = float(np.max(np.abs(r[j] + r[grid.size - j]))) / peak
    rec.check("real-even-to-real-odd", "transform of a real even function is real odd",
              "kernel antisymmetry", max(imag_defect, odd_defect), 1e-12)


def suite_paley_wiener(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    lor = _lorentzian(grid)
    mult_vs_pv = _rel(hilbert(lor, "line"), hilbert(lor, "principal_value"), lor)
    rec.check(
        "multiplier-vs-pv",
        "line multiplier (input zero-padded 16-fold) vs odd-point "
        "principal-value rule on 1/(1+x^2); both approximate the line "
        "transform, so they agree up to the truncation of the input at |x| = L",
        "the two Hilbert transform definitions", mult_vs_pv, 1e-3)

    fine = make_grid(grid.half_width, max(grid.size, 8192))
    bump = _sample_fixed(testfn.CompactBump(1.0, 2.0, 4), fine)
    pw_plus = norm(proj_hardy(fourier(bump), "plus")) / norm(bump)
    rec.check("pw-positive-support", "transform of a bump on (1,2) has no upper-Hardy mass",
              "support / half-plane analyticity duality", pw_plus, 1e-6)

    f_plus = _hardy_plus_function(grid, testfn.CompactBump(0.5, 5.0, 6))
    pw_minus = norm(proj_hardy(f_plus, "minus")) / norm(f_plus)
    rec.check("pw-positive-spectrum", "positive-spectrum function has no lower-Hardy mass",
              "support / half-plane analyticity duality", pw_minus, 1e-10)

    f = _random_bandlimited(grid, rng)
    resolution = _rel(proj_hardy(f, "plus") + proj_hardy(f, "minus"), f)
    rec.check("projection-resolution", "P+ + P- = identity on random samples",
              "Hardy projections are complementary", resolution, 1e-13)

    # the shared zero-frequency bin carries weight 1/2 in each projection,
    # so idempotence only holds on mean-free inputs; D kills that bin exactly
    mf = generator_apply("D", f)
    idem = _rel(proj_hardy(proj_hardy(mf, "plus"), "plus"), proj_hardy(mf, "plus"))
    rec.check("projection-idempotent", "P+ P+ = P+ on a mean-free random function",
              "Hardy projections are projections", idem, 1e-13)

    hf = hilbert(f, "multiplier")
    worst = 0.0
    for _ in range(10):
        shift = GroupElement(float(rng.uniform(-5, 5)), 0.0, 0.0)
        worst = max(worst, _rel(hilbert(act(shift, f), "multiplier"), act(shift, hf), f))
    rec.check("hilbert-translation", "H commutes with spectral translations",
              "translations commute with the Hilbert transform", worst, 1e-10)


def suite_generators(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    gauss = _gaussian(grid)

    t_list = [1e-1 / 2 ** i for i in range(8)]
    for gen in ("M", "D", "C"):
        for n, curve in enumerate(generator_convergence(gen, gauss, t_list, 2)):
            errs = [e for _, e in curve]
            ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
            rec.check(f"convergence-{gen}-n{n}",
                      f"difference-quotient error for {gen} halves with t at order {n}",
                      "differentiable representation limits",
                      float(max(abs(r - 2.0) for r in ratios)), 0.2)
            rec.curve(f"convergence_{gen}_n{n}", curve)

    # terminal consistency at tiny t; the remainder is t/2 * ||X^2 f||_n, so
    # each generator gets a width that keeps its own second power small.
    # For C that constant is exactly 1/2 (C^2 = -I), so its t must be
    # proportionally smaller to clear the same relative threshold.
    for gen, width, t_end in (("M", 1.0 / 3.0, 1e-5), ("D", 3.0, 1e-5), ("C", 1.0, 1e-6)):
        f = _gaussian(grid, width)
        err = generator_convergence(gen, f, [t_end], 1)[1][0][1] / seminorm_iter(f, 1)
        rec.check(f"terminal-{gen}",
                  f"difference quotient for {gen} within 1e-6 of the generator "
                  f"at t={t_end:g}",
                  "generators coincide with the classical operators", err, 1e-6)

    dm = generator_apply("D", generator_apply("M", gauss))
    md = generator_apply("M", generator_apply("D", gauss))
    comm = norm(dm - md - generator_apply("C", gauss)) / norm(gauss)
    rec.check("commutator", "DM - MD = C at operator level on a Gaussian",
              "Heisenberg commutation relations", comm, 1e-10)

    xis = [GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3))) for _ in range(100)]
    worst = np.max(norm_growth_check(xis, gauss, 3))
    rec.check("norm-growth", "||U(xi) f||_n <= (1 + xi1^2 + xi2^2)^{n/2} ||f||_n",
              "polynomial growth bound for the action", worst, 1.0 + 1e-10)


def suite_norms(cfg: SuiteConfig, rec: Recorder) -> None:
    grid = cfg.grid()
    gauss = _gaussian(grid)

    tower = seminorm_tower(gauss, 3)
    rec.check("seminorm-0", "||exp(-x^2/2)||_0 = pi^(1/4)", "base norm of the tower",
              abs(tower[0] - np.pi ** 0.25), 1e-10)
    rec.check("seminorm-1", "||exp(-x^2/2)||_1 = (2 sqrt(pi))^(1/2)",
              "first rung of the iterative tower",
              abs(tower[1] - (2 * np.sqrt(np.pi)) ** 0.5), 1e-10)

    mono = all(tower[n + 1] >= tower[n] for n in range(3))
    rec.check("monotone-tower", "the iterative tower is monotone in the order",
              "tower is a sum of squares", 0.0 if mono else 1.0, 0.0)

    gp = testfn.GaussianPoly(0.0, 1.0, (1.0,))
    rec.check("sup-00", "sup-seminorm (0,0) of the Gaussian is 1",
              "sup-seminorm family", abs(seminorm_sup(gp, 0, 0) - 1.0), 1e-10)
    rec.check("sup-10", "sup-seminorm (1,0) of the Gaussian is e^(-1/2)",
              "sup-seminorm family",
              abs(seminorm_sup(gp, 1, 0) - math.exp(-0.5)), 1e-10)

    # moments vs derivatives of the transform at zero; spec holds D^n fhat
    f = testfn.sample(testfn.GaussianPoly(0.3, 1.1, (0.5, 1.0, 0.25)), grid)
    spec = fourier(f)
    worst = 0.0
    for n_ord in range(5):
        m_val = moment(f, n_ord)
        d_val = (1j ** n_ord) * math.sqrt(2 * np.pi) * complex(spec.values[grid.size // 2])
        scale = max(abs(m_val),
                    grid.spacing * float(np.sum(np.abs(grid.points ** n_ord * f.values))))
        worst = max(worst, abs(m_val - d_val) / scale)
        spec = generator_apply("D", spec)
    rec.check("moment-derivative-duality",
              "moment_n(f) = sqrt(2 pi) i^n (d/dt)^n fhat(0) for n <= 4",
              "vanishing moments transform to flatness at the origin", worst, 1e-6)

    g = _edge_witness()
    h = _wide_witness()
    gs = _sample_fixed(g, grid)
    hs = _sample_fixed(h, grid)
    total = psi_norm(gs, hs, 1)
    sym = abs(total - psi_norm(hs, gs, 1)) / total
    rec.check("pair-norm-symmetry", "the four-term pair norm is symmetric in (g, h)",
              "pair norm family", sym, 1e-13)

    parts = [
        seminorm_iter(proj_hardy(gs, "plus"), 1),
        seminorm_iter(proj_hardy(hs, "minus"), 1),
        seminorm_iter(proj_hardy(gs, "minus"), 1),
        seminorm_iter(proj_hardy(hs, "plus"), 1),
    ]
    rec.check("pair-norm-bound", "pair norm dominates each of its four constituents",
              "pair norm family", max(parts) / total, 1.0)


def suite_appendix_a(cfg: SuiteConfig, rec: Recorder) -> None:
    mother = testfn.CompactBump(0.1, 0.9, 6)
    config = AnnihilatorConfig(K=cfg.max_moment, epsilon=cfg.epsilon,
                               a0=1.0001, mother=mother)
    f, blocks, report = annihilate(config)

    disjoint = all(blocks[i].a_k1 <= blocks[i + 1].a_k for i in range(len(blocks) - 1))
    rec.check("blocks-disjoint", "block supports are pairwise disjoint and increasing",
              "block condition 1", 0.0 if disjoint else 1.0, 0.0)

    worst_low = 0.0
    for b in blocks:
        if b.gamma_k == 0.0 or b.k == 0:
            continue
        mass = testfn.exact_l1_norm(b.f_k)
        for i in range(b.k):
            scale = mass * max(b.a_k1, 1.0) ** i
            worst_low = max(worst_low, abs(float(testfn.exact_moment(b.f_k, i))) / scale)
    rec.check("blocks-lower-moments", "moments below each block's order vanish",
              "block condition 2", worst_low, 1e-10)

    worst_cf = 0.0
    for b in blocks:
        if b.gamma_k == 0.0:
            continue
        h = b.a_k1 - b.a_k
        closed = ((-1.0) ** b.k * math.factorial(b.k) * report["I"] * b.gamma_k
                  * (h / config.a0) ** (b.k + 1))
        worst_cf = max(worst_cf,
                       abs(float(testfn.exact_moment(b.f_k, b.k)) - closed) / abs(closed))
    rec.check("block-moment-identity", "closed-form block moment matches exact integration",
              "block moment identity", worst_cf, 1e-8)

    budget_ok = all(b.norm_fk < b.norm_bound for b in blocks)
    rec.check("norm-budget", "every block obeys its geometric norm budget",
              "block condition 4", 0.0 if budget_ok else 1.0, 0.0)

    rec.check("final-moments", "residual moments of the assembled sum, orders 0..K",
              "annihilation of all moments through order K",
              max(report["moment_defects"]), 1e-6)

    tail = testfn.Summed(tuple(b.f_k for b in blocks if b.gamma_k != 0.0))
    direct = testfn.exact_l2_norm(tail)
    pythag = abs(direct - report["l2_distance"]) / max(direct, 1e-300)
    rec.check("pythagorean", "||f - g|| equals the root-sum-square of block norms",
              "disjoint supports give an orthogonal sum", pythag, 1e-12)

    rec.check("distance", "||f - g|| stays below epsilon",
              "approximation within epsilon", report["l2_distance"], cfg.epsilon)

    neg_f, _, _ = annihilate_negative(config)
    # defects of the mirror's own parts; reflection multiplies every order-n
    # moment term by (-1)^n exactly, so a true mirror matches bit for bit
    neg_parts = [testfn.to_piecewise(testfn.Mirrored(p)) for p in neg_f.inner.terms]
    mirror_gap = max(abs(a - b) for a, b in
                     zip(report["moment_defects"], moment_defects(neg_parts, config.K)))
    rec.check("mirror-defects", "mirrored run reproduces the moment defects",
              "reflection symmetry of moments", mirror_gap, 1e-12)
    sup = testfn.support(neg_f)
    neg_ok = sup[-1][1] <= 0.0
    rec.check("mirror-support", "mirrored output is supported in (-inf, 0)",
              "negatively supported class", 0.0 if neg_ok else 1.0, 0.0)

    shifted = testfn.Translated(neg_f, -2.5)
    worst_shift = 0.0
    neg_mass = testfn.exact_l1_norm(neg_f)
    for n_ord in range(cfg.max_moment + 1):
        m_val = abs(float(complex(testfn.exact_moment(shifted, n_ord)).real))
        scale = neg_mass * max(abs(sup[0][0]) + 2.5, 1.0) ** n_ord
        worst_shift = max(worst_shift, m_val / scale)
    rec.check("translation-invariance", "left translation preserves the vanishing moments",
              "binomial expansion of translated moments", worst_shift, 1e-10)


def suite_psi_invariance(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    g_desc = _edge_witness()
    h_desc = _wide_witness()
    psi = synthesize(g_desc, h_desc, grid, cfg.max_moment)

    worst_cert = 0.0
    for xi1 in (0.0, grid.spacing, 1.0, 5.0):
        moved, snapped = act_psi(GroupElement(xi1, 0.0, 0.3), psi, cfg.max_moment)
        cert = certify_nminus(moved.g_desc, grid, cfg.max_moment)
        worst_cert = max(worst_cert, cert["n_defect"], cert["support_plus"])
    rec.check("invariance-survival",
              "certification survives semigroup translations xi1 in {0, dx, 1, 5}",
              "invariance under the translation semigroup", worst_cert, 1e-6)

    w_neg = invariance_witness(GroupElement(-0.5, 0.0, 0.0), psi)
    rec.check("witness-negative-translation",
              "xi1 = -0.5 pushes support mass onto (0, inf)",
              "non-invariance under backward translation", w_neg, 0.1, kind="lower")

    psi_wide = synthesize(_wide_witness(), _wide_witness(), grid, cfg.max_moment)
    w_mod = invariance_witness(GroupElement(0.0, 1.0, 0.0), psi_wide)
    rec.check("witness-modulation",
              "xi2 = 1 breaks the vanishing zeroth moment",
              "non-invariance under modulations", w_mod, 0.1, kind="lower")

    curve = []
    for xi1 in np.linspace(-2.0, 0.0, 17):
        curve.append((float(xi1),
                      invariance_witness(GroupElement(float(xi1), 0.0, 0.0), psi)))
    rec.curve("witness_vs_xi1", curve)
    mono = all(curve[i][1] >= curve[i + 1][1] - 1e-12 for i in range(len(curve) - 1))
    rec.check("witness-monotone", "spillover grows monotonically with |xi1|, xi1 < 0",
              "non-invariance under backward translation",
              0.0 if mono else 1.0, 0.0)

    worst_coin = 0.0
    for _ in range(20):
        u = _random_nminus(rng)
        worst_coin = max(worst_coin, coincidence_defect(u, grid))
    rec.check("coincidence", "(-i P+ u) and (i P- u) coincide on (0, inf) for 20 draws",
              "the two projections agree on the positive half-line", worst_coin, 1e-8)

    gs = testfn.sample(g_desc, grid)
    f_gg = synthesize(g_desc, g_desc, grid, cfg.max_moment).samples
    rec.check("equal-pair-hilbert", "g = h collapses the synthesis to the Hilbert transform",
              "projector algebra P+ - P- = iH",
              _rel(f_gg, hilbert(gs, "multiplier")), 1e-10)

    moved, snapped = act_psi(GroupElement(1.0, 0.0, 0.3), psi, cfg.max_moment)
    ref = act(snapped, psi.samples, mode="spectral")
    rec.check("action-compatibility",
              "acting on the pair matches acting on the synthesized samples",
              "translations commute with the Hilbert transform",
              _rel(moved.samples, ref, psi.samples), 1e-10)

    two_step, _ = act_psi(GroupElement(0.5, 0.0, 0.1),
                          act_psi(GroupElement(1.5, 0.0, 0.2), psi, cfg.max_moment)[0],
                          cfg.max_moment)
    one_step, _ = act_psi(multiply(GroupElement(0.5, 0.0, 0.1),
                                   GroupElement(1.5, 0.0, 0.2)), psi, cfg.max_moment)
    rec.check("action-composition", "two semigroup steps equal their product in one step",
              "restriction of the group law", _rel(two_step.samples, one_step.samples,
                                                   psi.samples), 1e-10)


def suite_tilde_space(cfg: SuiteConfig, rec: Recorder) -> None:
    grid = cfg.grid()
    g_desc = _edge_witness()
    h_desc = _wide_witness()

    phi = tilde_synthesize(g_desc, h_desc, grid, cfg.max_moment)
    via_fourier = fourier(synthesize(g_desc, h_desc, grid, cfg.max_moment).samples)
    rec.check("route-agreement", "sign-split synthesis equals the transform route",
              "the conjugate space is the transform image", _rel(phi, via_fourier), 1e-8)

    worst = 0.0
    for n in (0, 1, 2):
        a = tilde_norm(g_desc, h_desc, grid, n)
        b = psi_norm(testfn.sample(g_desc, grid), testfn.sample(h_desc, grid), n)
        worst = max(worst, abs(a - b) / b)
    rec.check("norm-routes", "transform-side and pair-side norms agree at n <= 2",
              "norm transport under the transform", worst, 1e-6)

    # a null second component leaves a single projection: phi supported y > 0
    ghat = fourier(testfn.sample(g_desc, grid))
    s = np.sign(ghat.grid.points)
    phi_g = SampledFunction(ghat.grid, -0.5j * (1.0 + s) * ghat.values)
    neg_mass = norm(restrict_halfline(phi_g, "minus")) / norm(phi_g)
    rec.check("single-component-support", "h = 0 leaves phi supported on y > 0",
              "sign-split structure formula", neg_mass, 1e-8)

    phi_gg = tilde_synthesize(g_desc, g_desc, grid, cfg.max_moment)
    combined = SampledFunction(ghat.grid, phi_gg.values + 1j * s * ghat.values)
    rec.check("equal-pair-sign", "g = h reduces phi to -i sgn(y) ghat(y)",
              "sign-split structure formula", norm(combined) / norm(ghat), 1e-8)


def suite_semigroup_evolution(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    worst = 0.0
    for _ in range(100):
        width = float(rng.uniform(0.5, 4.0))
        left = float(rng.uniform(0.1, 10.0))
        f = _sample_fixed(testfn.CompactBump(left, left + width, 4), grid)
        xi = GroupElement(-float(rng.uniform(0, 5)), float(rng.uniform(-5, 5)),
                          float(rng.uniform(-5, 5)))
        before, after = halfline_contraction(xi, f)
        worst = max(worst, after / before)
    rec.check("contraction", "||Q+ U(xi) f|| <= ||f|| over 100 random right-shifts",
              "contraction representation on the half-line", worst, 1.0 + 1e-12)

    f = _sample_fixed(testfn.CompactBump(0.5, 1.5, 4), grid)
    before, after = contraction_contrast(GroupElement(1.0, 0.0, 0.0), f)
    rec.check("strict-contrast", "a forward shift across the origin loses >= 10% norm",
              "strict contraction away from the semigroup", after / before, 0.9)

    smooth = _hardy_plus_function(grid, testfn.CompactBump(0.25, 6.0, 10))
    worst_step = 0.0
    for xi2 in (0.0, 1.0, 5.0):
        worst_step = max(worst_step, hardy_semigroup_step(smooth, xi2))
    rec.check("hardy-forward", "forward modulations keep the Hardy-plus class, xi2 in {0,1,5}",
              "modulation semigroup on the Hardy space", worst_step, 1e-6)

    witness = _hardy_plus_function(grid, testfn.CompactBump(0.1, 1.0, 8))
    back = hardy_semigroup_step(witness, -0.5)
    rec.check("hardy-backward", "xi2 = -0.5 spills near-zero spectrum below the axis",
              "no extension to the full modulation group", back, 1e-2, kind="lower")

    curve = [(float(x2), hardy_semigroup_step(witness, float(x2)))
             for x2 in np.linspace(-1.0, 1.0, 21)]
    rec.curve("hardy_step_vs_xi2", curve)


def suite_conjugation(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    gauss = _gaussian(grid)

    formula_ok = (conjugate_by_fourier(GroupElement(1, 0, 0)) == GroupElement(0, 1, 0)
                  and conjugate_by_fourier(GroupElement(0, 0, 0)) == GroupElement(0, 0, 0))
    rec.check("formula", "transform conjugation swaps translation into modulation",
              "conjugation formula", 0.0 if formula_ok else 1.0, 0.0)

    gauss_inv = inverse_fourier(gauss)
    worst = 0.0
    for _ in range(50):
        xi = GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)))
        lhs = fourier(act(xi, gauss_inv))
        rhs = act(conjugate_by_fourier(xi), gauss)
        worst = max(worst, _rel(lhs, rhs, gauss))
    rec.check("operator-identity", "F U(xi) F^-1 = U(conjugated xi) over 50 random xi",
              "conjugation formula at operator level", worst, 1e-8)

    gauss_inv2 = inverse_fourier(gauss_inv)
    worst2 = 0.0
    for _ in range(20):
        xi = GroupElement(*(float(v) for v in rng.uniform(-3, 3, 3)))
        twice = conjugate_by_fourier(conjugate_by_fourier(xi))
        lhs = fourier(fourier(act(xi, gauss_inv2)))
        rhs = act(twice, gauss)
        worst2 = max(worst2, _rel(lhs, rhs, gauss))
    rec.check("double-conjugation", "conjugating twice implements the parity-twisted element",
              "conjugation formula iterated", worst2, 1e-8)

    # conjugation transports right-translation data into the modulation step
    smooth = _hardy_plus_function(grid, testfn.CompactBump(0.25, 6.0, 10))
    xi2 = 1.0
    direct = act(GroupElement(0.0, xi2, 0.0), smooth, mode="grid")
    transported = fourier(act(GroupElement(xi2, 0.0, 0.0), inverse_fourier(smooth)))
    conj_xi = conjugate_by_fourier(GroupElement(xi2, 0.0, 0.0))
    assert conj_xi == GroupElement(0.0, xi2, 0.0)
    rec.check("semigroup-transport",
              "the modulation evolution is the conjugate of half-line translation",
              "identification of the two semigroup pictures",
              _rel(transported, direct, smooth), 1e-8)


SUITES = {
    "group-axioms": suite_group_axioms,
    "transforms": suite_transforms,
    "paley-wiener": suite_paley_wiener,
    "generators": suite_generators,
    "norms": suite_norms,
    "appendix-a": suite_appendix_a,
    "psi-invariance": suite_psi_invariance,
    "tilde-space": suite_tilde_space,
    "semigroup-evolution": suite_semigroup_evolution,
    "conjugation": suite_conjugation,
}
