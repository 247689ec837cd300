"""Constructive moment annihilation: cancel moments 0..K of a bump while
staying epsilon-close in L^2, by appending disjointly supported scaled
derivatives further and further to the right.

Run with:  python3 demos/04_moment_annihilation.py
"""

from heisenrep.annihilator import AnnihilatorConfig, annihilate
from heisenrep.testfn import CompactBump, exact_moment

config = AnnihilatorConfig(K=4, epsilon=1e-2, a0=1.0001,
                           mother=CompactBump(0.1, 0.9, 6))
f, blocks, report = annihilate(config)

print(f"mother integral I = {report['I']:.6e}, K = {report['K']}, "
      f"epsilon = {report['epsilon']}")
print("\nblocks (each f_k is a scaled k-th derivative of the mother, pushed")
print("onto (a_k, a_k+1); it cancels the residual k-th moment lambda_k while")
print("leaving every lower moment untouched):")
for b in report["blocks"]:
    print(f"  k={b['k']}: interval ({b['a_k']:.4g}, {b['a_k1']:.4g}), "
          f"lambda={b['lambda_k']:.4e}, gamma={b['gamma_k']:.4e}, "
          f"||f_k||={b['norm_fk']:.3e} < budget {b['bound']:.3e}")

print("\nresidual relative moment defects of the assembled sum:")
for n, d in enumerate(report["moment_defects"]):
    print(f"  order {n}: {d:.3e}")

print(f"\n||f - g|| = {report['l2_distance']:.6e} < epsilon = {config.epsilon}")
print("(disjoint supports make this exactly the root-sum-square of block norms)")

# everything above is closed-form descriptor arithmetic: the last interval
# ends near 1.8e13, far beyond any feasible grid
print(f"\nlast interval endpoint: {blocks[-1].a_k1:.4e}")
print(f"raw zeroth moment of the mother:        {exact_moment(config.mother, 0).real:.4e}")
print(f"zeroth moment of the assembled sum:     {exact_moment(f, 0).real:.4e}")
