"""Picard iteration for a solution-dependent conductivity.

The coefficient lambda(x, u) = kappa1(x) + exp(alpha u) kappa2(x) is
frozen blockwise at each step, turning the nonlinear problem into a
short sequence of linear multiscale solves in one precomputed offline
space.
"""

import numpy as np

from gmsfem import BoundaryCondition, multiscale_pou, picard_solve
from gmsfem.fields import channels_and_inclusions, channels_and_inclusions_alt
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.nonlinear import NonlinearCoefficient, build_nonlinear_offline

fine = build_fine_mesh(40, 40)
coarse = build_coarse_mesh(fine, 4, 4)
nl = NonlinearCoefficient(
    kappa1=channels_and_inclusions(fine, 1e3),
    kappa2=channels_and_inclusions_alt(fine, 1e3),
    alpha=1.0)
bc = BoundaryCondition(lambda x, y: x + y)
samples = np.linspace(0.0, 2.5, 6)
pou = multiscale_pou(coarse, nl.at_value(samples.mean()))

# 6 spectral snapshots per sample, 6 offline modes per neighborhood
offline = build_nonlinear_offline(coarse, nl, samples, 6, 6)
state = picard_solve(coarse, nl, 1.0, bc, pou, samples, offline)
print(f"converged: {state.converged} in {state.iterations} iterations")
print(f"coarse dim {state.dims}, lambda* {state.lambda_star:.3e}")
print("relative update per iteration:")
for k, upd in enumerate(state.updates, start=1):
    print(f"  step {k}: {upd:.3e}")
