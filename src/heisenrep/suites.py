"""The named verification suites run by the batch harness.

A suite only measures: it receives a SuiteConfig and a Recorder and hands
each measurement to `rec.check(id, measured)`.  The catalogue CHECKS
declares, per suite and in report order, each check's id, description,
claim anchor, default threshold and kind, and the Recorder turns a
measurement into the record {check, description, claim, measured,
threshold, pass}.  A claim anchor is a short string naming the statement a
check exercises ("plumbing" for artifact-internal checks).  All randomness
flows from the config seed, and nothing time- or path-dependent enters the
report, so a fixed config reproduces a byte-identical report.  A window
that cannot resolve a check is refused where its arithmetic fails, by the
runner, or here where none fails: a fixed function sampling to zero.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import testfn
from .annihilator import (
    AnnihilatorConfig, annihilate, mirror, moment_defects,
)
from .errors import ConfigurationError, require_order, require_type
from .grid import (
    GridSpec, SampledFunction, dual_grid, make_grid, norm, per_chunk, restrict_halfline,
)
from .heisenberg import (
    CHI1, CHI2, CHI3, SEMIGROUPS, GroupElement, LieElement, act, bracket,
    conjugate_by_fourier, generator_apply, in_semigroup, inverse, multiply,
    random_in_semigroup,
)
from .psi import (
    act_psi, coincidence_defect, contraction_contrast,
    halfline_contraction, hardy_semigroup_step, invariance_witness, pair_terms,
    psi_norm, synthesize, tilde_norm, tilde_synthesize,
)
from .schwartz import (
    generator_convergence, moment_orders, norm_growth_check, seminorm_iter,
    seminorm_sup, seminorm_tower,
)
from .transforms import fourier, hilbert, inverse_fourier, proj_hardy

# typed SuiteConfig fields: the check each must pass, and the type stored, so
# a report's environment is the same from file, flag or API
_REAL = functools.partial(require_type, kind=numbers.Real, label="a number")
_FIELD_TYPES = {
    "half_width": (_REAL, float),
    "size": (functools.partial(require_type, kind=numbers.Integral, label="an integer"), int),
    "seed": (require_order, int),
    "max_moment": (require_order, int),
    "epsilon": (_REAL, float),
}


@dataclass(frozen=True)
class SuiteConfig:
    """Harness settings: the one schema of config-file keys and CLI flags.
    suite None means every suite.  Frozen: the grid is built once, here."""

    suite: str | None = None
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
        if self.suite is not None and self.suite not in SUITE_IDS:
            raise ConfigurationError(
                f"unknown suite {self.suite!r}; expected one of {SUITE_IDS}"
            )
        for name, (require, stored) in _FIELD_TYPES.items():
            require(name, getattr(self, name))
            object.__setattr__(self, name, stored(getattr(self, name)))
        if not isinstance(self.emit_csv, bool):
            raise ConfigurationError(f"emit_csv must be true or false, got {self.emit_csv!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ConfigurationError(f"out must be a directory path, got {self.out!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigurationError(f"tolerances must be a mapping, got {self.tolerances!r}")
        for key, value in self.tolerances.items():
            require_type(f"tolerance {key}", value, numbers.Real, "a number")
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"tolerance {key}={value} must be nonnegative and finite")
        object.__setattr__(self, "tolerances",
                           {key: float(value) for key, value in self.tolerances.items()})
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "_grid", make_grid(self.half_width, self.size))

    def grid(self) -> GridSpec:
        return self._grid


@dataclass(frozen=True)
class Check:
    """One catalogued check.  threshold is the default bound, or the name of
    the SuiteConfig field that sets it; kind says how a measurement meets it:
    "upper" at most, "lower" above, "flag" a bool recorded as 0.0 (holds) or
    1.0 against 0.0."""

    id: str
    description: str
    claim: str
    threshold: float | str
    kind: str = "upper"


class Recorder:
    """Turns one suite's measurements into check records; keeps optional CSV curves."""

    def __init__(self, config: SuiteConfig, suite_id: str):
        self.config = config
        self.catalogue = {c.id: c for c in CHECKS[suite_id]}
        self.checks: list[dict] = []
        self.curves: dict[str, list] = {}

    def check(self, check_id: str, measured) -> None:
        """Record the catalogued check check_id.  measured is a number, a bool
        for a flag, or the draws of an upper bound, of which the largest is
        recorded.  A non-finite measurement or draw is refused, because it
        says only that the window cannot resolve what the check measures.  It
        alone guards a suite's Python floats, which the runner's np.errstate
        trap never sees: 1e308 / 0.1 is inf, and max(0.0, nan) is 0.0."""
        entry = self.catalogue[check_id]
        if entry.kind == "flag":
            measured = 0.0 if measured else 1.0
        draws = [measured] if isinstance(measured, numbers.Real) else list(measured)
        for value in draws:
            if not math.isfinite(value):
                raise ConfigurationError(f"measured {value}")
        measured = max(draws)
        default = entry.threshold
        thr = float(self.config.tolerances.get(
            check_id, getattr(self.config, default) if isinstance(default, str) else default))
        self.checks.append({
            "check": check_id,
            "description": entry.description,
            "claim": entry.claim,
            "measured": measured,
            "threshold": thr,
            "pass": bool(measured > thr if entry.kind == "lower" else measured <= thr),
        })

    def curve(self, name: str, rows) -> None:
        self.curves[name] = [[float(a), float(b)] for a, b in rows]


# ---------------------------------------------------------------------------
# check catalogue

# the generators whose difference quotients converge, and the top seminorm order
_CONVERGENCE_GENERATORS = ("M", "D", "C")
_CONVERGENCE_ORDER = 2
# terminal consistency at tiny t: (generator, Gaussian width, t); the
# remainder is t/2 * ||X^2 f||_n, so each generator gets a width that keeps
# its own second power small.  For C that constant is exactly 1/2 (C^2 = -I),
# so its t must be proportionally smaller to clear the same relative threshold.
_TERMINAL = (("M", 1.0 / 3.0, 1e-5), ("D", 3.0, 1e-5), ("C", 1.0, 1e-6))

CHECKS = {
    "group-axioms": (
        Check("associativity", "associativity of the group product over 1e5 random triples",
              "group multiplication law", 1e-12),
        Check("inverse-identity", "x * x^-1 = identity over 1e5 random elements",
              "group inverse formula", 1e-12),
        Check("bracket-table", "commutation table of the Lie basis",
              "Heisenberg commutation relations", 0.0, "flag"),
        *(check for base in SEMIGROUPS for check in (
            Check(f"closure-{base}", f"product closure of {base} over 1e4 in-set pairs",
                  "subsemigroup definitions", 0.0, "flag"),
            Check(f"noninverse-{base}", f"stored witness of {base} has out-of-set inverse",
                  "subsemigroups are not groups", 0.0, "flag"))),
        Check("homomorphism", "U(xi eta) = U(xi) U(eta) over 100 random pairs, spectral mode",
              "unitary representation", 1e-12),
        Check("unitarity", "norm preservation of the action over the same draws",
              "unitary representation", 1e-13),
    ),
    "transforms": (
        Check("gaussian-transform", "transform of exp(-x^2/2) is itself, pointwise",
              "transform convention", 1e-10),
        Check("unitarity", "norm preservation over 50 random band-limited functions",
              "transform extends to a unitary map", 1e-13),
        Check("roundtrip", "inverse transform of the transform is the identity",
              "transform inversion", 1e-13),
        Check("modulation-shift", "transform of e^{iax} f equals the transform shifted by a",
              "modulation-translation duality", 1e-12),
        Check("multiplier-oracle", "multiplier route matches the periodized conjugate pair",
              "Hilbert transform multiplier identity", 1e-12),
        Check("pv-lorentzian", "principal-value quadrature on 1/(1+x^2) vs x/(1+x^2)",
              "Hilbert transform principal value", 1e-2),
        Check("involution", "H(H(f)) = -f for mean-free f",
              "multiplier squares to -1 off the zero bin", 1e-10),
        Check("real-even-to-real-odd", "transform of a real even function is real odd",
              "kernel antisymmetry", 1e-12),
    ),
    "paley-wiener": (
        Check("multiplier-vs-pv",
              "line multiplier (input zero-padded 16-fold) vs odd-point "
              "principal-value rule on 1/(1+x^2); both approximate the line "
              "transform, so they agree up to the truncation of the input at |x| = L",
              "the two Hilbert transform definitions", 1e-3),
        Check("pw-positive-support", "transform of a bump on (1,2) has no upper-Hardy mass",
              "support / half-plane analyticity duality", 1e-6),
        Check("pw-positive-spectrum", "positive-spectrum function has no lower-Hardy mass",
              "support / half-plane analyticity duality", 1e-10),
        Check("projection-resolution", "P+ + P- = identity on random samples",
              "Hardy projections are complementary", 1e-13),
        Check("projection-idempotent", "P+ P+ = P+ on a mean-free random function",
              "Hardy projections are projections", 1e-13),
        Check("hilbert-translation", "H commutes with spectral translations",
              "translations commute with the Hilbert transform", 1e-10),
    ),
    "generators": (
        *(Check(f"convergence-{gen}-n{n}",
                f"difference-quotient error for {gen} halves with t at order {n}",
                "differentiable representation limits", 0.2)
          for gen in _CONVERGENCE_GENERATORS for n in range(_CONVERGENCE_ORDER + 1)),
        *(Check(f"terminal-{gen}",
                f"difference quotient for {gen} within 1e-6 of the generator at t={t_end:g}",
                "generators coincide with the classical operators", 1e-6)
          for gen, _, t_end in _TERMINAL),
        Check("commutator", "DM - MD = C at operator level on a Gaussian",
              "Heisenberg commutation relations", 1e-10),
        Check("norm-growth", "||U(xi) f||_n <= (1 + xi1^2 + xi2^2)^{n/2} ||f||_n",
              "polynomial growth bound for the action", 1.0 + 1e-10),
    ),
    "norms": (
        Check("seminorm-0", "||exp(-x^2/2)||_0 = pi^(1/4)", "base norm of the tower", 1e-10),
        Check("seminorm-1", "||exp(-x^2/2)||_1 = (2 sqrt(pi))^(1/2)",
              "first rung of the iterative tower", 1e-10),
        Check("monotone-tower", "the iterative tower is monotone in the order",
              "tower is a sum of squares", 0.0, "flag"),
        Check("sup-00", "sup-seminorm (0,0) of the Gaussian is 1", "sup-seminorm family", 1e-10),
        Check("sup-10", "sup-seminorm (1,0) of the Gaussian is e^(-1/2)",
              "sup-seminorm family", 1e-10),
        Check("moment-derivative-duality",
              "moment_n(f) = sqrt(2 pi) i^n (d/dt)^n fhat(0) for n <= 4",
              "vanishing moments transform to flatness at the origin", 1e-6),
        Check("pair-norm-symmetry", "the four-term pair norm is symmetric in (g, h)",
              "pair norm family", 1e-13),
        Check("pair-norm-bound", "pair norm dominates each of its four constituents",
              "pair norm family", 1.0),
    ),
    "appendix-a": (
        Check("blocks-disjoint", "block supports are pairwise disjoint and increasing",
              "block condition 1", 0.0, "flag"),
        Check("blocks-lower-moments", "moments below each block's order vanish",
              "block condition 2", 1e-10),
        Check("block-moment-identity", "closed-form block moment matches exact integration",
              "block moment identity", 1e-8),
        Check("norm-budget", "every block obeys its geometric norm budget",
              "block condition 4", 0.0, "flag"),
        Check("final-moments", "residual moments of the assembled sum, orders 0..K",
              "annihilation of all moments through order K", 1e-6),
        Check("pythagorean", "||f - g|| equals the root-sum-square of block norms",
              "disjoint supports give an orthogonal sum", 1e-12),
        Check("distance", "||f - g|| stays below epsilon",
              "approximation within epsilon", "epsilon"),
        Check("mirror-defects", "mirrored run reproduces the moment defects",
              "reflection symmetry of moments", 1e-12),
        Check("mirror-support", "mirrored output is supported in (-inf, 0)",
              "negatively supported class", 0.0, "flag"),
        Check("translation-invariance", "left translation preserves the vanishing moments",
              "binomial expansion of translated moments", 1e-10),
    ),
    "psi-invariance": (
        Check("invariance-survival",
              "certification survives semigroup translations xi1 in {0, dx, 1, 5}",
              "invariance under the translation semigroup", 1e-6),
        Check("witness-negative-translation", "xi1 = -0.5 pushes support mass onto (0, inf)",
              "non-invariance under backward translation", 0.1, "lower"),
        Check("witness-modulation", "xi2 = 1 breaks the vanishing zeroth moment",
              "non-invariance under modulations", 0.1, "lower"),
        Check("witness-monotone", "spillover grows monotonically with |xi1|, xi1 < 0",
              "non-invariance under backward translation", 0.0, "flag"),
        Check("coincidence", "(-i P+ u) and (i P- u) coincide on (0, inf) for 20 draws",
              "the two projections agree on the positive half-line", 1e-8),
        Check("equal-pair-hilbert", "g = h collapses the synthesis to the Hilbert transform",
              "projector algebra P+ - P- = iH", 1e-10),
        Check("action-compatibility",
              "acting on the pair matches acting on the synthesized samples",
              "translations commute with the Hilbert transform", 1e-10),
        Check("action-composition", "two semigroup steps equal their product in one step",
              "restriction of the group law", 1e-10),
    ),
    "tilde-space": (
        Check("route-agreement", "sign-split synthesis equals the transform route",
              "the conjugate space is the transform image", 1e-8),
        Check("norm-routes", "transform-side and pair-side norms agree at n <= 2",
              "norm transport under the transform", 1e-6),
        Check("single-component-support", "h = 0 leaves phi supported on y > 0",
              "sign-split structure formula", 1e-8),
        Check("equal-pair-sign", "g = h reduces phi to -i sgn(y) ghat(y)",
              "sign-split structure formula", 1e-8),
    ),
    "semigroup-evolution": (
        Check("contraction", "||Q+ U(xi) f|| <= ||f|| over 100 random right-shifts",
              "contraction representation on the half-line", 1.0 + 1e-12),
        Check("strict-contrast", "a forward shift across the origin loses >= 10% norm",
              "strict contraction away from the semigroup", 0.9),
        Check("hardy-forward", "forward modulations keep the Hardy-plus class, xi2 in {0,1,5}",
              "modulation semigroup on the Hardy space", 1e-6),
        Check("hardy-backward", "xi2 = -0.5 spills near-zero spectrum below the axis",
              "no extension to the full modulation group", 1e-2, "lower"),
    ),
    "conjugation": (
        Check("formula", "transform conjugation swaps translation into modulation",
              "conjugation formula", 0.0, "flag"),
        Check("operator-identity", "F U(xi) F^-1 = U(conjugated xi) over 50 random xi",
              "conjugation formula at operator level", 1e-8),
        Check("double-conjugation", "conjugating twice implements the parity-twisted element",
              "conjugation formula iterated", 1e-8),
        Check("semigroup-transport",
              "the modulation evolution is the conjugate of half-line translation",
              "identification of the two semigroup pictures", 1e-8),
    ),
}


# ---------------------------------------------------------------------------
# shared helpers

def _random_bandlimited(grid: GridSpec, rng, rows: int = 0) -> SampledFunction:
    """A random function band-limited to |y| < 10, or a stack of `rows` of
    them, drawn one after another."""
    dg = dual_grid(grid)
    spectra = [rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
               for _ in range(max(rows, 1))]
    spec = np.where(np.abs(dg.points) < 10.0, spectra if rows else spectra[0], 0.0)
    return inverse_fourier(SampledFunction(dg, spec))


def _random_modulation(grid: GridSpec, rng) -> float:
    """Modulation parameter in [-5, 5] commensurate with the dual grid spacing.

    Composition of modulation and spectral translation reproduces the group
    law exactly only when modulations shift whole frequency bins; arbitrary
    rates leak across bins and the defect is O(1), not rounding.
    """
    dy = np.pi / grid.half_width
    top = int(5.0 / dy)
    if top > np.iinfo(np.int64).max:
        raise ConfigurationError("modulation bins in [-5, 5] outnumber int64")
    return dy * float(rng.integers(-top, top + 1))


def _edge_witness():
    """Moment-free descriptor hugging x = 0: its translate spills fast."""
    return testfn.Translated(testfn.derivative(testfn.CompactBump(0.0, 1.0, 10), 5), -1.0)


def _wide_witness():
    """Moment-free descriptor with spectral weight near |y| = 1."""
    return testfn.Translated(testfn.derivative(testfn.CompactBump(0.0, 10.0, 10), 5), -10.0)


def _random_nminus(rng):
    """Random certified negatively supported moment-free descriptor."""
    width = float(rng.uniform(1.0, 6.0))
    gap = float(rng.uniform(0.5, 12.0))
    gain = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    d = testfn.derivative(testfn.CompactBump(0.0, width, 10), 5)
    return testfn.Affine(d, shift=-(width + gap), gain=gain)


def _lorentzian(grid: GridSpec) -> SampledFunction:
    x = grid.points
    return SampledFunction(grid, 1.0 / (1.0 + x * x))


def _gaussian(grid: GridSpec, width: float = 1.0) -> SampledFunction:
    return testfn.sample(testfn.GaussianPoly(0.0, width, (1.0,)), grid)


def _sample_fixed(tf, grid: GridSpec, dual: bool = False) -> SampledFunction:
    """Samples of one of a suite's fixed test functions on the grid, or on its
    dual; a grid on which they all vanish is refused, because a check would
    then measure nothing, and not every such check divides by zero."""
    f = testfn.sample(tf, dual_grid(grid) if dual else grid)
    if not f.values.any():
        raise ConfigurationError(f"the {'spectrum' if dual else 'test function'} supported on "
                                 f"{testfn.support(tf)} samples to zero at {grid.size} points")
    return f


def _sample_stack(descs, grid: GridSpec) -> SampledFunction:
    """Samples of each descriptor, one row each, refused as _sample_fixed refuses."""
    return SampledFunction(grid, [_sample_fixed(tf, grid).values for tf in descs])


def _hardy_plus_function(grid: GridSpec, spectrum) -> SampledFunction:
    """Inverse transform of exact samples of a compactly supported spectrum."""
    return inverse_fourier(_sample_fixed(spectrum, grid, dual=True))


def _rel(a: SampledFunction, b: SampledFunction, scale: SampledFunction = None):
    """||a - b|| / ||scale||, scale defaulting to b; one per row of a stack."""
    return norm(a - b) / norm(b if scale is None else scale)


# ---------------------------------------------------------------------------
# suites

def suite_group_axioms(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    # ((a b) c) vs (a (b c)); only the third component can differ, and only
    # it is kept alive (the draws hold 1e5 elements each)
    a, b, c = (GroupElement(*rng.uniform(-10, 10, (3, 100_000))) for _ in range(3))
    rec.check("associativity", float(np.max(np.abs(multiply(multiply(a, b), c).xi3
                                                   - multiply(a, multiply(b, c)).xi3))))
    rec.check("inverse-identity", float(np.max(np.abs(multiply(a, inverse(a)).xi3))))
    rec.check("bracket-table", bracket(CHI1, CHI2) == CHI3
              and bracket(CHI1, CHI3) == LieElement(0, 0, 0)
              and bracket(CHI2, CHI3) == LieElement(0, 0, 0)
              and bracket(CHI2, CHI1) == LieElement(0, 0, -1))

    m = 10_000
    for base, semigroup in SEMIGROUPS.items():
        prod = multiply(random_in_semigroup(rng, base, m), random_in_semigroup(rng, base, m))
        rec.check(f"closure-{base}", np.all(in_semigroup(prod, base)))
        rec.check(f"noninverse-{base}", not in_semigroup(inverse(semigroup.witness), base))

    # representation property, spectral mode
    grid = cfg.grid()
    f = _random_bandlimited(grid, rng)
    # rows (xi, eta); the modulation draws interleave, so one row at a time
    pairs = np.array([[rng.uniform(-5, 5), _random_modulation(grid, rng), rng.uniform(-5, 5)]
                      for _ in range(200)]).reshape(100, 6)

    def representation(d):
        xi, eta = GroupElement(*d.T[:3]), GroupElement(*d.T[3:])
        lhs = act(xi, act(eta, f))
        rhs = act(multiply(xi, eta), f)
        return _rel(lhs, rhs, f), abs(norm(lhs) - norm(f)) / norm(f)

    homomorphism, unitarity = per_chunk(grid, pairs, representation)
    rec.check("homomorphism", homomorphism)
    rec.check("unitarity", unitarity)


def suite_transforms(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    gauss = _gaussian(grid)
    ghat = fourier(gauss)
    rec.check("gaussian-transform",
              float(np.max(np.abs(ghat.values - _gaussian(ghat.grid).values))))

    # a slice draws its own functions, so only a chunk of them is held at once
    def transform(draws):
        f = _random_bandlimited(grid, rng, len(draws))
        fhat = fourier(f)
        return abs(norm(fhat) - norm(f)) / norm(f), _rel(inverse_fourier(fhat), f)

    unitarity, roundtrip = per_chunk(grid, range(50), transform)
    rec.check("unitarity", unitarity)
    rec.check("roundtrip", roundtrip)

    # modulation identity at a bin-commensurate rate
    f = _random_bandlimited(grid, rng)
    a = 16 * np.pi / grid.half_width
    mod = act(GroupElement(0.0, a, 0.0), f, mode="grid")
    shifted = np.roll(fourier(f).values, 16)
    rec.check("modulation-shift",
              float(norm(SampledFunction(ghat.grid, fourier(mod).values - shifted)) / norm(f)))

    # Hilbert transform against the exact periodized Poisson-kernel pair:
    # sum_m 1/(x - i + 2Lm) = (pi/2L) cot(pi (x - i)/(2L)); the imaginary
    # part is the periodization of 1/(1+x^2) and the real part its partner
    L = grid.half_width
    z = (np.pi / (2 * L)) / np.tan(np.pi * (grid.points - 1j) / (2 * L))
    fp = SampledFunction(grid, z.imag)
    target = SampledFunction(grid, z.real)
    rec.check("multiplier-oracle", _rel(hilbert(fp, "multiplier"), target))

    lor = _lorentzian(grid)
    rec.check("pv-lorentzian", _rel(hilbert(lor, "principal_value"),
                                    SampledFunction(grid, grid.points / (1.0 + grid.points ** 2))))

    meanfree = generator_apply("D", gauss)
    hh = hilbert(hilbert(meanfree, "multiplier"), "multiplier")
    rec.check("involution", _rel(hh, meanfree * (-1.0)))

    hg = hilbert(gauss, "multiplier")
    r = hg.values.real
    peak = float(np.max(np.abs(r)))
    imag_defect = float(np.max(np.abs(hg.values.imag))) / peak
    # oddness under the periodic mirror j <-> N - j (the j = 0 sample is its
    # own mirror and is excluded)
    j = np.arange(1, grid.size)
    odd_defect = float(np.max(np.abs(r[j] + r[grid.size - j]))) / peak
    rec.check("real-even-to-real-odd", (imag_defect, odd_defect))


def suite_paley_wiener(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    lor = _lorentzian(grid)
    rec.check("multiplier-vs-pv",
              _rel(hilbert(lor, "line"), hilbert(lor, "principal_value"), lor))

    fine = make_grid(grid.half_width, max(grid.size, 8192))
    bump = _sample_fixed(testfn.CompactBump(1.0, 2.0, 4), fine)
    rec.check("pw-positive-support", norm(proj_hardy(fourier(bump), "plus")) / norm(bump))

    f_plus = _hardy_plus_function(grid, testfn.CompactBump(0.5, 5.0, 6))
    rec.check("pw-positive-spectrum", norm(proj_hardy(f_plus, "minus")) / norm(f_plus))

    f = _random_bandlimited(grid, rng)
    rec.check("projection-resolution", _rel(proj_hardy(f, "plus") + proj_hardy(f, "minus"), f))

    # the shared zero-frequency bin carries weight 1/2 in each projection,
    # so idempotence only holds on mean-free inputs; D kills that bin exactly
    mf_plus = proj_hardy(generator_apply("D", f), "plus")
    rec.check("projection-idempotent", _rel(proj_hardy(mf_plus, "plus"), mf_plus))

    hf = hilbert(f, "multiplier")
    def hilbert_translation(xi1):
        s = GroupElement(xi1, 0.0, 0.0)
        return _rel(hilbert(act(s, f), "multiplier"), act(s, hf), f)

    rec.check("hilbert-translation", per_chunk(grid, rng.uniform(-5, 5, 10), hilbert_translation))


def suite_generators(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    gauss = _gaussian(grid)

    t_list = [1e-1 / 2 ** i for i in range(8)]
    for gen in _CONVERGENCE_GENERATORS:
        for n, curve in enumerate(generator_convergence(gen, gauss, t_list, _CONVERGENCE_ORDER)):
            errs = np.array([e for _, e in curve])
            rec.check(f"convergence-{gen}-n{n}", np.abs(errs[:-1] / errs[1:] - 2.0))
            rec.curve(f"convergence_{gen}_n{n}", curve)

    for gen, width, t_end in _TERMINAL:
        f = _gaussian(grid, width)
        rec.check(f"terminal-{gen}",
                  generator_convergence(gen, f, [t_end], 1)[1][0][1] / seminorm_iter(f, 1))

    dm = generator_apply("D", generator_apply("M", gauss))
    md = generator_apply("M", generator_apply("D", gauss))
    rec.check("commutator", norm(dm - md - generator_apply("C", gauss)) / norm(gauss))

    xis = GroupElement(*rng.uniform(-5, 5, (100, 3)).T)
    rec.check("norm-growth", norm_growth_check(xis, gauss, 3).ravel())


def suite_norms(cfg: SuiteConfig, rec: Recorder) -> None:
    grid = cfg.grid()
    gauss = _gaussian(grid)

    tower = seminorm_tower(gauss, 3)
    rec.check("seminorm-0", abs(tower[0] - np.pi ** 0.25))
    rec.check("seminorm-1", abs(tower[1] - (2 * np.sqrt(np.pi)) ** 0.5))
    rec.check("monotone-tower", all(tower[n + 1] >= tower[n] for n in range(3)))

    gp = testfn.GaussianPoly(0.0, 1.0, (1.0,))
    rec.check("sup-00", abs(seminorm_sup(gp, 0, 0) - 1.0))
    rec.check("sup-10", abs(seminorm_sup(gp, 1, 0) - math.exp(-0.5)))

    # moments vs derivatives of the transform at zero; spec holds D^n fhat
    f = testfn.sample(testfn.GaussianPoly(0.3, 1.1, (0.5, 1.0, 0.25)), grid)
    spec = fourier(f)
    duality = []
    for n_ord, (m_val, l1) in zip(range(5), moment_orders(f)):
        d_val = (1j ** n_ord) * math.sqrt(2 * np.pi) * complex(spec.values[grid.size // 2])
        duality.append(abs(m_val - d_val) / max(abs(m_val), l1))
        spec = generator_apply("D", spec)
    rec.check("moment-derivative-duality", duality)

    gs = _sample_fixed(_edge_witness(), grid)
    hs = _sample_fixed(_wide_witness(), grid)
    total = psi_norm(gs, hs, 1)[1]
    rec.check("pair-norm-symmetry", abs(total - psi_norm(hs, gs, 1)[1]) / total)
    rec.check("pair-norm-bound", seminorm_tower(pair_terms(gs, hs), 1)[1] / total)


def suite_appendix_a(cfg: SuiteConfig, rec: Recorder) -> None:
    mother = testfn.CompactBump(0.1, 0.9, 6)
    config = AnnihilatorConfig(K=cfg.max_moment, epsilon=cfg.epsilon,
                               a0=1.0001, mother=mother)
    f, blocks, report = annihilate(config)

    rec.check("blocks-disjoint",
              all(blocks[i].a_k1 <= blocks[i + 1].a_k for i in range(len(blocks) - 1)))
    rec.check("blocks-lower-moments", [b.lower_defect for b in blocks])
    rec.check("block-moment-identity", [b.moment_error for b in blocks])
    rec.check("norm-budget", all(b.norm_fk < b.norm_bound for b in blocks))
    rec.check("final-moments", report["moment_defects"])

    tail = testfn.Summed(tuple(b.f_k for b in blocks if b.gamma_k != 0.0))
    direct = testfn.exact_l2_norm(tail)
    rec.check("pythagorean", abs(direct - report["l2_distance"]) / max(direct, 1e-300))
    rec.check("distance", report["l2_distance"])

    neg_f, _ = mirror(f, blocks)
    # defects of the mirror's own pieces; reflection multiplies every order-n
    # moment term by (-1)^n exactly, so a true mirror matches bit for bit
    rec.check("mirror-defects", [abs(a - b) for a, b in zip(
        report["moment_defects"], moment_defects(neg_f, config.K))])
    sup = testfn.support(neg_f)
    rec.check("mirror-support", sup[-1][1] <= 0.0)

    shifted = testfn.Translated(neg_f, -2.5)
    neg_mass = testfn.exact_l1_norm(neg_f)
    rec.check("translation-invariance", [
        abs(moment.real) / (neg_mass * max(abs(sup[0][0]) + 2.5, 1.0) ** n)
        for n, moment in enumerate(testfn.exact_moments(shifted, cfg.max_moment))])


def suite_psi_invariance(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    psi = synthesize(_edge_witness(), _wide_witness(), grid, cfg.max_moment)

    rec.check("invariance-survival", [act_psi(GroupElement(xi1, 0.0, 0.3), psi)[0].n_defect
                                      for xi1 in (0.0, grid.spacing, 1.0, 5.0)])
    # steps of 1/8, so xi1 = -0.5 is a point of the curve
    xi1s = np.linspace(-2.0, 0.0, 17)
    spill = per_chunk(grid, xi1s, lambda d: invariance_witness(GroupElement(d, 0.0, 0.0), psi.g))
    rec.check("witness-negative-translation", spill[xi1s.tolist().index(-0.5)])
    rec.check("witness-modulation", invariance_witness(GroupElement(0.0, 1.0, 0.0), psi.h))
    rec.curve("witness_vs_xi1", zip(xi1s, spill))
    rec.check("witness-monotone", all(spill[:-1] >= spill[1:] - 1e-12))

    descs = [_random_nminus(rng) for _ in range(20)]
    rec.check("coincidence", per_chunk(grid, descs,
                                       lambda d: coincidence_defect(_sample_stack(d, grid))))

    f_gg = synthesize(psi.g_desc, psi.g_desc, grid, cfg.max_moment).samples
    rec.check("equal-pair-hilbert", _rel(f_gg, hilbert(psi.g, "multiplier")))

    moved, snapped = act_psi(GroupElement(1.0, 0.0, 0.3), psi)
    ref = act(snapped, psi.samples, mode="spectral")
    rec.check("action-compatibility", _rel(moved.samples, ref, psi.samples))

    two_step, _ = act_psi(GroupElement(0.5, 0.0, 0.1),
                          act_psi(GroupElement(1.5, 0.0, 0.2), psi)[0])
    one_step, _ = act_psi(multiply(GroupElement(0.5, 0.0, 0.1),
                                   GroupElement(1.5, 0.0, 0.2)), psi)
    rec.check("action-composition", _rel(two_step.samples, one_step.samples, psi.samples))


def suite_tilde_space(cfg: SuiteConfig, rec: Recorder) -> None:
    psi = synthesize(_edge_witness(), _wide_witness(), cfg.grid(), cfg.max_moment)

    phi = tilde_synthesize(psi.g, psi.h)
    rec.check("route-agreement", _rel(phi, fourier(psi.samples)))

    rec.check("norm-routes", [abs(a - b) / b for a, b in zip(tilde_norm(psi.g, psi.h, 2),
                                                             psi_norm(psi.g, psi.h, 2))])

    # a null second component leaves a single projection: phi supported y > 0
    ghat = fourier(psi.g)
    s = np.sign(ghat.grid.points)
    phi_g = SampledFunction(ghat.grid, -0.5j * (1.0 + s) * ghat.values)
    rec.check("single-component-support",
              norm(restrict_halfline(phi_g, "minus")) / norm(phi_g))

    phi_gg = tilde_synthesize(psi.g, psi.g)
    combined = SampledFunction(ghat.grid, phi_gg.values + 1j * s * ghat.values)
    rec.check("equal-pair-sign", norm(combined) / norm(ghat))


def suite_semigroup_evolution(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()

    # rows (width, left, xi1, xi2, xi3), drawn one row at a time
    draws = np.array([[rng.uniform(0.5, 4.0), rng.uniform(0.1, 10.0), -rng.uniform(0, 5),
                       rng.uniform(-5, 5), rng.uniform(-5, 5)] for _ in range(100)])

    def contraction(d):
        f = _sample_stack([testfn.CompactBump(left, left + width, 4)
                           for width, left in d[:, :2].tolist()], grid)
        before, after = halfline_contraction(GroupElement(*d[:, 2:].T), f)
        return after / before

    rec.check("contraction", per_chunk(grid, draws, contraction))

    f = _sample_fixed(testfn.CompactBump(0.5, 1.5, 4), grid)
    before, after = contraction_contrast(GroupElement(1.0, 0.0, 0.0), f)
    rec.check("strict-contrast", after / before)

    smooth = _hardy_plus_function(grid, testfn.CompactBump(0.25, 6.0, 10))
    rec.check("hardy-forward", hardy_semigroup_step(smooth, (0.0, 1.0, 5.0)))

    witness = _hardy_plus_function(grid, testfn.CompactBump(0.1, 1.0, 8))
    xi2s = np.linspace(-1.0, 1.0, 21)
    curve = dict(zip(xi2s.tolist(), hardy_semigroup_step(witness, xi2s)))
    rec.check("hardy-backward", curve[-0.5])
    rec.curve("hardy_step_vs_xi2", curve.items())


def suite_conjugation(cfg: SuiteConfig, rec: Recorder) -> None:
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    gauss = _gaussian(grid)

    rec.check("formula", conjugate_by_fourier(GroupElement(1, 0, 0)) == GroupElement(0, 1, 0)
              and conjugate_by_fourier(GroupElement(0, 0, 0)) == GroupElement(0, 0, 0))

    gauss_inv = inverse_fourier(gauss)

    def operator_identity(d):
        xi = GroupElement(*d.T)
        return _rel(fourier(act(xi, gauss_inv)), act(conjugate_by_fourier(xi), gauss), gauss)

    rec.check("operator-identity", per_chunk(grid, rng.uniform(-5, 5, (50, 3)), operator_identity))

    gauss_inv2 = inverse_fourier(gauss_inv)

    def double_conjugation(d):
        xi = GroupElement(*d.T)
        return _rel(fourier(fourier(act(xi, gauss_inv2))),
                    act(conjugate_by_fourier(conjugate_by_fourier(xi)), gauss), gauss)

    rec.check("double-conjugation",
              per_chunk(grid, rng.uniform(-3, 3, (20, 3)), double_conjugation))

    # conjugation transports right-translation data into the modulation step
    smooth = _hardy_plus_function(grid, testfn.CompactBump(0.25, 6.0, 10))
    xi2 = 1.0
    direct = act(GroupElement(0.0, xi2, 0.0), smooth, mode="grid")
    transported = fourier(act(GroupElement(xi2, 0.0, 0.0), inverse_fourier(smooth)))
    rec.check("semigroup-transport", _rel(transported, direct, smooth))


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
# run order: run_all's sequence and the CLI's choices
SUITE_IDS = tuple(SUITES)
