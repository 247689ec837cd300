"""Certified negatively supported moment-free elements, Hardy-projected
pairs, and which group directions preserve or break the certificates.

Run with:  python3 demos/05_invariant_pairs.py
"""

from heisenrep import GroupElement, make_grid, norm
from heisenrep.psi import (
    act_psi, certify_nminus, coincidence_defect, invariance_witness,
    synthesize, tilde_norm, tilde_synthesize,
)
from heisenrep.schwartz import psi_norm
from heisenrep.testfn import CompactBump, Translated, derivative
from heisenrep.transforms import fourier

grid = make_grid(32.0, 4096)

# a 5th derivative of a compact bump has exactly vanishing moments 0..4;
# translating it onto (-1-w, -1) (resp. (-10-w, -10)) puts it strictly left
# of the origin.  The narrow one hugs x = 0, the wide one carries spectral
# weight near |y| = 1 — each is the sharp witness for a different breakage.
edge = Translated(derivative(CompactBump(0.0, 1.0, 10), 5), -1.0)
wide = Translated(derivative(CompactBump(0.0, 10.0, 10), 5), -10.0)

# a certificate returns the samples, which vanish on x >= 0, and the worst
# relative moment defect over orders 0..4
for name, desc in (("edge", edge), ("wide", wide)):
    _, defect = certify_nminus(desc, grid, max_moment=4)
    print(f"{name}: certified; moment defect {defect:.3e}")

# synthesis f = -i P+ g + i P- h keeps the certified samples g and h
psi = synthesize(edge, wide, grid)
print(f"\ncoincidence defect of the two projections on (0, inf): "
      f"{coincidence_defect(psi.g):.3e}")
print(f"pair norm ||(g,h)||_1 = {psi_norm(psi.g, psi.h, 1)[1]:.6e}")

# forward translations keep the class; the moved pair is certified again
moved, snapped = act_psi(GroupElement(1.0, 0.0, 0.3), psi)
print(f"\nafter U(xi), xi1 = {snapped.xi1}: moment defect {moved.n_defect:.3e} "
      "(certificate survives)")

# backward translations and modulations break it, measurably
w1 = invariance_witness(GroupElement(-0.5, 0.0, 0.0), psi.g)
w2 = invariance_witness(GroupElement(0.0, 1.0, 0.0), psi.h)
print(f"witness xi1 = -0.5 (support spills right): {w1:.4f}")
print(f"witness xi2 = 1   (zeroth moment reappears): {w2:.4f}")

# the transform-side picture: sign-split synthesis equals the Fourier route,
# and the norms of orders 0..2 agree through either side
phi = tilde_synthesize(psi.g, psi.h)
via = fourier(psi.samples)
print(f"\ntransform-side synthesis vs Fourier route: rel err "
      f"{norm(phi - via) / norm(via):.3e}")
for n, (a, b) in enumerate(zip(tilde_norm(psi.g, psi.h, 2), psi_norm(psi.g, psi.h, 2))):
    print(f"norm route agreement at n={n}: rel gap {abs(a - b) / b:.3e}")
