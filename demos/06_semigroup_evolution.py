"""Half-line contraction, Hardy-space evolution, and transform conjugation.

Run with:  python3 demos/06_semigroup_evolution.py
"""

import numpy as np

from heisenrep import GroupElement, dual_grid, fourier, inverse_fourier, make_grid, norm
from heisenrep.heisenberg import act, conjugate_by_fourier
from heisenrep.psi import contraction_contrast, halfline_contraction, hardy_semigroup_step
from heisenrep.testfn import CompactBump, GaussianPoly, sample

grid = make_grid(32.0, 4096)

# right-translations (inverses of the xi1 >= 0 semigroup) keep mass inside
# (0, inf): the half-line restricted action is a contraction (here isometric)
f = sample(CompactBump(1.0, 2.0, 4), grid)
before, after = halfline_contraction(GroupElement(-1.5, 0.7, 0.2), f)
print(f"right shift: ||f|| = {before:.6f}, ||Q+ U(xi) f|| = {after:.6f}")

# pushing the support across the origin genuinely loses norm
g = sample(CompactBump(0.5, 1.5, 4), grid)
b2, a2 = contraction_contrast(GroupElement(1.0, 0.0, 0.0), g)
print(f"left shift across 0: ||f|| = {b2:.6f}, ||Q+ U(xi) f|| = {a2:.6f} "
      f"({100 * (1 - a2 / b2):.1f}% lost)")

# on the Hardy-plus class, forward modulations shift the spectrum right and
# stay inside; backward ones leak spectrum below zero when it hugs the axis
smooth = inverse_fourier(sample(CompactBump(0.25, 6.0, 10), dual_grid(grid)))
witness = inverse_fourier(sample(CompactBump(0.1, 1.0, 8), dual_grid(grid)))
print("\nHardy-plus defect after modulation e^{i x xi2}:")
xi2s = (0.0, 1.0, 5.0)
for xi2, defect in zip(xi2s, hardy_semigroup_step(smooth, xi2s)):
    print(f"  xi2 = {xi2:4.1f}: {defect:.3e}")
(backward,) = hardy_semigroup_step(witness, [-0.5])
print(f"  xi2 = -0.5 (near-zero-spectrum witness): {backward:.3e}")

# the two semigroup pictures are conjugate under the Fourier transform:
# F U(xi) F^-1 = U((-xi2, xi1, xi3 - xi1 xi2))
gauss = sample(GaussianPoly(0.0, 1.0, (1.0,)), grid)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    xi = GroupElement(*(float(v) for v in rng.uniform(-5, 5, 3)))
    lhs = fourier(act(xi, inverse_fourier(gauss)))
    rhs = act(conjugate_by_fourier(xi), gauss)
    worst = max(worst, norm(lhs - rhs) / norm(gauss))
print(f"\nconjugation identity over 50 random xi: worst rel defect {worst:.3e}")
print(f"conjugate of a pure translation: "
      f"{conjugate_by_fourier(GroupElement(1.0, 0.0, 0.0))} (a pure modulation)")
