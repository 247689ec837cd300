"""Hardy-projected function pairs and half-line semigroup experiments.

An element is synthesized from two negatively supported, moment-vanishing
descriptors g, h as f = -i P+ g + i P- h.  Membership in the underlying
class is a *certificate*: exact support on (-inf, 0) plus moment defects
below a threshold up to a finite order — not the infinite condition.

Translations with xi1 >= 0 move support further left and leave every
vanishing moment intact, so the certificate survives; negative translations
and nonzero modulations break it, and the witness functions quantify by
how much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import testfn
from .errors import ClassMembershipError, ConfigurationError, SemigroupDomainError
from .grid import (
    GridSpec, SampledFunction, _adopt, _check_same_grid, _require_single, norm, per_chunk,
    restrict_halfline,
)
from .heisenberg import GroupElement, act, in_semigroup, inverse
from .schwartz import moment_orders, seminorm_tower
from .transforms import _hardy_multipliers, fourier, proj_hardy, spectral_multiply

# relative moment defect a certificate tolerates at every certified order
CERTIFICATE_THRESHOLD = 1e-6
# Hardy-minus mass an input of hardy_semigroup_step may carry
HARDY_INPUT_THRESHOLD = 1e-8


def snap_to_grid(shift, grid: GridSpec):
    """Nearest multiple of the grid spacing, a float, or an array of one per
    shift of a stack; halves round to even.  Callers record the adjustment."""
    with np.errstate(over="ignore"):  # a quotient past the float range is refused below
        snapped = np.rint(np.divide(shift, grid.spacing)) * grid.spacing
    if not np.isfinite(snapped).all():
        raise ConfigurationError(f"a grid shift must be finite, got {shift}")
    return snapped if snapped.ndim else float(snapped)


def certify_nminus(desc, grid: GridSpec,
                   max_moment: int = 4) -> tuple[SampledFunction, float]:
    """Certificate for the negatively supported vanishing-moment class.

    Requires: closed-form support inside (-L, 0]; exactly zero samples on
    x >= 0; relative moment defects below CERTIFICATE_THRESHOLD for orders
    0..max_moment.
    Returns the samples and the worst moment defect; raises
    ClassMembershipError naming the first failed requirement.
    """
    sup = testfn.support(desc)
    if not sup:
        raise ClassMembershipError("empty descriptor cannot be certified")
    lo = min(iv[0] for iv in sup)
    hi = max(iv[1] for iv in sup)
    if hi > 0:
        raise ClassMembershipError(f"support extends to x = {hi} > 0")
    if lo <= -grid.half_width:
        raise ClassMembershipError(
            f"support reaches x = {lo}, outside the grid window (-{grid.half_width}, 0]"
        )
    f = testfn.sample(desc, grid)
    nf = norm(f)
    if nf == 0.0:
        raise ClassMembershipError("descriptor samples to zero")
    leak = norm(restrict_halfline(f, "plus")) / nf
    if leak != 0.0:
        raise ClassMembershipError(f"samples leak onto x >= 0 (defect {leak})")
    # orders upward, stopping at the first that fails (a NaN defect fails):
    # a max_moment beyond what desc certifies is refused at once, however large
    worst = 0.0
    for n, order in zip(range(max_moment + 1), moment_orders(f)):
        defect = order.defect
        if not defect < CERTIFICATE_THRESHOLD:
            raise ClassMembershipError(
                f"moment defect {defect:.3e} at order {n} exceeds threshold "
                f"{CERTIFICATE_THRESHOLD:.1e}"
            )
        worst = max(worst, defect)
    return f, worst


@dataclass(frozen=True)
class PsiElement:
    """A synthesized pair: its descriptors, the moment order 0..max_moment
    they were certified to, f = -i P+ g + i P- h, their certified samples g
    and h, and the larger of their two moment defects."""
    g_desc: object
    h_desc: object
    max_moment: int
    samples: SampledFunction
    g: SampledFunction
    h: SampledFunction
    n_defect: float


def synthesize(g_desc, h_desc, grid: GridSpec, max_moment: int = 4) -> PsiElement:
    """f = -i P+ g + i P- h from two certified descriptors; one descriptor
    passed as both g and h is certified once."""
    g, g_defect = certify_nminus(g_desc, grid, max_moment)
    h, h_defect = (g, g_defect) if h_desc is g_desc else certify_nminus(h_desc, grid, max_moment)
    plus_g, minus_h = spectral_multiply(_pair(g, h), _hardy_multipliers(grid.size)).values
    samples = _adopt(grid, plus_g * (-1j) + minus_h * 1j)
    return PsiElement(g_desc, h_desc, max_moment, samples, g, h, max(g_defect, h_defect))


def _pair(g: SampledFunction, h: SampledFunction) -> SampledFunction:
    """The stack [g, h] of one function g and one h on one grid, or GridMismatchError."""
    _check_same_grid(g, h)
    _require_single(g, h)
    return _adopt(g.grid, np.stack([g.values, h.values]))


def pair_terms(g: SampledFunction, h: SampledFunction) -> SampledFunction:
    """-iP+g, iP-h, iP-g and -iP+h, the pair norm's terms, as one stack: the
    Hardy table's two rows times the stack [g, h] give the halves [side, function]."""
    halves = spectral_multiply(_pair(g, h), _hardy_multipliers(g.grid.size)[:, None]).values
    return _adopt(g.grid, halves[[0, 1, 1, 0], [0, 1, 0, 1]] * np.array([[-1j], [1j], [1j], [-1j]]))


def psi_norm(g: SampledFunction, h: SampledFunction, n: int) -> list:
    """[||f||_0, ..., ||f||_n] of the pair (g, h) defining f = -i P+ g + i P- h,
    from one seminorm tower of its terms: ||f||_k^2 = ||-iP+g||_k^2 +
    ||iP-h||_k^2 + ||iP-g||_k^2 + ||-iP+h||_k^2."""
    return [float(np.sqrt(sum(t ** 2 for t in order)))
            for order in seminorm_tower(pair_terms(g, h), n)]


def coincidence_defect(u: SampledFunction):
    """|| Q+ (-i P+ u - i P- u) || / ||u|| for negatively supported samples u,
    one per row of a stack; a zero row raises ClassMembershipError.

    Since -iP+ - iP- = -i * identity, the quantity is exactly the plus-side
    mass of u itself; certified samples give machine zero.
    """
    nu = norm(u)
    if np.any(nu == 0.0):
        raise ClassMembershipError("samples are zero")
    table = _hardy_multipliers(u.grid.size).reshape((2,) + (1,) * (u.values.ndim - 1) + (-1,))
    plus, minus = spectral_multiply(u, table).values
    return norm(restrict_halfline(_adopt(u.grid, plus * (-1j) + minus * (-1j)), "plus")) / nu


def act_psi(xi: GroupElement, psi: PsiElement):
    """Translate/re-phase a certified pair by xi = (xi1, 0, xi3), xi1 >= 0.

    xi1 is snapped to the grid so support semantics stay exact; the moved
    pair is certified again to psi's own order.  Returns the new element
    together with the snapped group parameter.  Elements outside the
    semigroup are refused — measure the failure with invariance_witness.
    """
    if not in_semigroup(xi, "S1zero"):
        raise SemigroupDomainError(
            f"({xi.xi1}, {xi.xi2}, {xi.xi3}) lies outside the xi1>=0, xi2=0 "
            "semigroup; use invariance_witness to quantify the breakage"
        )
    xi1 = snap_to_grid(xi.xi1, psi.g.grid)
    snapped = GroupElement(xi1, 0.0, xi.xi3)
    phase = complex(np.exp(1j * xi.xi3))
    # (U(xi) u)(x) = e^{i xi3} u(x + xi1): support moves left by xi1
    g_new = testfn.Affine(psi.g_desc, shift=-xi1, gain=phase)
    h_new = testfn.Affine(psi.h_desc, shift=-xi1, gain=phase)
    return synthesize(g_new, h_new, psi.g.grid, psi.max_moment), snapped


def invariance_witness(xi: GroupElement, g: SampledFunction):
    """How badly U(xi), xi1 snapped to the grid, breaks the certificate of
    certified samples g, such as a PsiElement's g or h.

    A translation (xi2 = 0): the share ||Q+ U(xi) g|| / ||g|| of mass moved
    onto x >= 0, one per element of a stack; it is zero for xi1 >= 0, and
    zero samples raise ClassMembershipError.
    Any other element: the relative order-0 moment defect of U(xi) g.
    """
    if np.all(xi.xi2 == 0):
        before, after = contraction_contrast(xi, g)
        if np.any(before == 0.0):
            raise ClassMembershipError("samples are zero")
        return after / before
    moved = act(GroupElement(snap_to_grid(xi.xi1, g.grid), xi.xi2, xi.xi3), g, mode="grid")
    return next(moment_orders(moved)).defect


# ---------------------------------------------------------------------------
# Fourier-conjugate construction

def tilde_synthesize(g: SampledFunction, h: SampledFunction) -> SampledFunction:
    """phi(y) = -(i/2)(1 + sgn y) ghat(y) + (i/2)(1 - sgn y) hhat(y).

    Lives on the dual grid; by construction it equals the Fourier transform
    of the direct synthesis, so the two routes cross-check each other.
    g and h must be single functions on one grid (GridMismatchError otherwise).
    """
    spec = fourier(_pair(g, h))
    plus, minus = _hardy_multipliers(g.grid.size)
    return _adopt(spec.grid, -1j * plus * spec.values[0] + 1j * minus * spec.values[1])


def tilde_norm(g: SampledFunction, h: SampledFunction, n: int) -> list:
    """Norms of phi through the transform pair, (||ghat||_k^2 + ||hhat||_k^2)^(1/2)
    for k = 0..n, from one seminorm tower of the stacked transforms."""
    return [math.hypot(*order) for order in seminorm_tower(fourier(_pair(g, h)), n)]


# ---------------------------------------------------------------------------
# semigroup experiments

def halfline_contraction(xi: GroupElement, f: SampledFunction):
    """(||f||, ||Q+ U(xi) f||) for xi with inverse in the xi1 >= 0 semigroup;
    each is one per row for a stack of elements or of functions (see act).

    Such xi translate right (xi1 <= 0), keeping mass inside (0, inf), so the
    action contracts (indeed preserves) the half-line norm.
    """
    if not np.all(in_semigroup(inverse(xi), "S1")):
        raise SemigroupDomainError("xi must have its inverse in the xi1>=0 semigroup")
    if np.any(norm(restrict_halfline(f, "minus")) != 0.0):
        raise ClassMembershipError("input carries mass on x < 0")
    return contraction_contrast(xi, f)


def contraction_contrast(xi: GroupElement, f: SampledFunction):
    """Same measurement without the semigroup guard, xi1 snapped to the grid: for
    xi1 > 0 part of the mass crosses into x < 0 and Q+ U(xi) genuinely loses norm."""
    xi1 = snap_to_grid(xi.xi1, f.grid)
    moved = act(GroupElement(xi1, xi.xi2, xi.xi3), f, mode="grid")
    return norm(f), norm(restrict_halfline(moved, "plus"))


def hardy_semigroup_step(f: SampledFunction, xi2s) -> np.ndarray:
    """Hardy-plus defects of e^{i x xi2} f, one per modulation of the sequence
    xi2s, a chunk of them stacked at a time (see grid.per_chunk); the input f
    must itself be one Hardy-plus function, which is checked once.

    Nonnegative xi2 shifts the spectrum right and preserves the class;
    negative xi2 pushes spectral mass below zero and the defect records it.
    """
    _require_single(f)
    before = norm(proj_hardy(f, "minus")) / norm(f)
    if before >= HARDY_INPUT_THRESHOLD:
        raise ClassMembershipError(
            f"input Hardy-plus defect {before:.3e} exceeds {HARDY_INPUT_THRESHOLD:.1e}"
        )

    def defects(xi2):
        modulated = act(GroupElement(0.0, xi2, 0.0), f, mode="grid")
        return norm(proj_hardy(modulated, "minus")) / norm(modulated)

    return per_chunk(f.grid, np.asarray(xi2s, dtype=float).reshape(-1), defects)
