"""Area law of the block entropy.

Computes the entropy of centered L x L blocks on a periodic lattice and in
the infinite-lattice limit, then fits E vs L: the entropy grows with the
block boundary, not its volume, even very close to the transition.
"""

import numpy as np

from spinwave import CouplingParams, LatticeSpec, area_law_fit, critical_g_equal, entropy_vs_L


def params(g):
    return CouplingParams(omega=500.0, kappa=1.0, n_atoms=1000, g1=g, g2=g)


Ls = [2, 4, 6, 8, 10, 12]
gc = critical_g_equal(params(0.0))

for g in (1.25, 1.5):
    finite = entropy_vs_L(params(g), LatticeSpec.periodic(40), Ls, mode="count_all")
    infinite = entropy_vs_L(params(g), LatticeSpec.infinite_lattice(), Ls, mode="count_all")
    fit = area_law_fit(finite)
    print(f"g = {g} kappa:")
    print(f"  {'L':>3} {'E (M=40)':>12} {'E (infinite)':>13}")
    for (L, Ef), (_, Ei) in zip(finite, infinite):
        print(f"  {L:3d} {Ef:12.6f} {Ei:13.6f}")
    print(f"  linear fit: E = {fit.slope:.4f} L + {fit.intercept:+.4f}, "
          f"max residual {fit.max_rel_residual:.2%}\n")

# eleven-digit approach to the critical point
near = gc * (1 - 1e-11)
curve = entropy_vs_L(params(near), LatticeSpec.infinite_lattice(), Ls, mode="count_all")
fit = area_law_fit(curve)
print(f"g = g_c (1 - 1e-11), infinite lattice:")
for L, E in curve:
    print(f"  {L:3d} {E:12.6f}")
print(f"  linear fit: E = {fit.slope:.4f} L + {fit.intercept:+.4f}, "
      f"max residual {fit.max_rel_residual:.2%}")
print("  still boundary-law, with a steeper slope than away from criticality")
