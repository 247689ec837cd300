"""Generators of the one-parameter subgroups and the seminorm tower.

Run with:  python3 demos/03_generators_and_norms.py
"""

import math

import numpy as np

from heisenrep import GroupElement, make_grid, norm
from heisenrep.heisenberg import generator_apply
from heisenrep.schwartz import (
    generator_convergence, moment_orders, norm_growth_check, seminorm_sup, seminorm_tower,
)
from heisenrep.testfn import GaussianPoly, sample
from heisenrep.transforms import fourier

grid = make_grid(32.0, 4096)
gauss = sample(GaussianPoly(0.0, 1.0, (1.0,)), grid)

# difference quotients of the three one-parameter subgroups converge to the
# generators M = i x, D = d/dx, C = i at first order in t
print("difference-quotient error, order-1 seminorm:")
t_list = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
for gen in ("M", "D", "C"):
    errs = [e for _, e in generator_convergence(gen, gauss, t_list, n=1)[1]]
    ratios = " ".join(f"{errs[i] / errs[i + 1]:.3f}" for i in range(len(errs) - 1))
    print(f"  {gen}: errors {['%.2e' % e for e in errs]}, halving ratios {ratios}")

# the commutator identity DM - MD = C closes the Lie algebra
dm = generator_apply("D", generator_apply("M", gauss))
md = generator_apply("M", generator_apply("D", gauss))
comm = norm(dm - md - generator_apply("C", gauss)) / norm(gauss)
print(f"\n||(DM - MD - C) f|| / ||f|| = {comm:.3e}")

# seminorm tower ||f||_{n+1}^2 = ||Mf||_n^2 + ||Df||_n^2 + ||f||_n^2
# (one depth-first pass yields every order)
print("\nseminorm tower on the Gaussian:")
for n, value in enumerate(seminorm_tower(gauss, 3)):
    print(f"  ||f||_{n} = {value:.6f}")
print(f"  oracle ||f||_0 = pi^(1/4) = {math.pi ** 0.25:.6f}")
print(f"  oracle ||f||_1 = (2 sqrt(pi))^(1/2) = {(2 * math.sqrt(math.pi)) ** 0.5:.6f}")

g = GaussianPoly(0.0, 1.0, (1.0,))
print(f"sup-seminorm (1,0): {seminorm_sup(g, 1, 0):.6f} (oracle e^-0.5 = "
      f"{math.exp(-0.5):.6f})")

# norm growth under the action is polynomially controlled; the check takes
# the draws as one stacked element and returns one ratio per draw and order
rng = np.random.default_rng(0)
xis = GroupElement(*rng.uniform(-5, 5, (50, 3)).T)
worst = np.max(norm_growth_check(xis, gauss, 2))
print(f"worst ||U f||_n / ((1+xi1^2+xi2^2)^(n/2) ||f||_n) = {worst:.12f}")

# moments of f are derivatives of the transform at the origin:
# moment_n(f) = i^n sqrt(2 pi) (d/dy)^n fhat(0)
f = sample(GaussianPoly(0.3, 1.1, (0.5, 1.0, 0.25)), grid)
spec = fourier(f)
mid = grid.size // 2
print("\nmoments vs spectral derivatives at the origin:")
for n, (m, _) in zip(range(3), moment_orders(f)):
    d = (1j ** n) * math.sqrt(2 * math.pi) * complex(spec.values[mid])
    print(f"  n={n}: moment {m:.8f}   transform route {d:.8f}")
    spec = generator_apply("D", spec)
