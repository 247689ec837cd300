"""The Weyl-Heisenberg group, its subsemigroups, and the unitary action.

Run with:  python3 demos/02_group_action.py
"""

import numpy as np

from heisenrep import GroupElement, act, bracket, make_grid, multiply, norm
from heisenrep.heisenberg import (
    CHI1, CHI2, SEMIGROUPS, in_semigroup, inverse, random_in_semigroup,
)
from heisenrep.testfn import GaussianPoly, sample

# group law (a,b,c)(alpha,beta,gamma) = (a+alpha, b+beta, c+gamma+a*beta)
xi = GroupElement(1.0, 2.0, 3.0)
eta = GroupElement(0.5, -1.0, 2.0)
print("xi * eta      =", multiply(xi, eta))
print("eta * xi      =", multiply(eta, xi), " (noncommutative)")
print("xi * xi^-1    =", multiply(xi, inverse(xi)))
print("[chi1, chi2]  =", bracket(CHI1, CHI2))

# subsemigroups: closed under the product, not under inversion
rng = np.random.default_rng(0)
for base, semigroup in SEMIGROUPS.items():
    a, b = random_in_semigroup(rng, base), random_in_semigroup(rng, base)
    print(f"{base:7s}: product closed = {in_semigroup(multiply(a, b), base)}, "
          f"witness inverse inside = {in_semigroup(inverse(semigroup.witness), base)}")

# the action (U(xi) f)(x) = e^{i xi3} e^{i x xi2} f(x + xi1) is unitary for
# every xi; the homomorphism U(xi eta) = U(xi) U(eta) is exact on the grid
# when modulation rates are whole multiples of the dual spacing pi/L
grid = make_grid(32.0, 4096)
f = sample(GaussianPoly(0.0, 1.0, (1.0,)), grid)
dy = np.pi / grid.half_width

xi = GroupElement(1.7, 12 * dy, 0.3)
eta = GroupElement(-0.9, -5 * dy, 1.1)
lhs = act(xi, act(eta, f))
rhs = act(multiply(xi, eta), f)
print(f"\nhomomorphism defect (bin-commensurate modulations): "
      f"{norm(lhs - rhs) / norm(f):.3e}")

xi_bad = GroupElement(1.7, 12.5 * dy, 0.3)
lhs = act(xi_bad, act(eta, f))
rhs = act(multiply(xi_bad, eta), f)
print(f"homomorphism defect (half-bin modulation):          "
      f"{norm(lhs - rhs) / norm(f):.3e}  <- periodic wraparound, not rounding")
print(f"unitarity holds regardless: | ||U f|| - ||f|| | = "
      f"{abs(norm(act(xi_bad, f)) - norm(f)):.3e}")
