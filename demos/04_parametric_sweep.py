"""Fast parameter sweeps with precomputed affine coarse blocks.

For an affinely parametrized coefficient the coarse matrix at any
parameter is a weighted sum of per-term blocks assembled once, so a mu
sweep costs one small dense solve per point.
"""

import time

import numpy as np

from gmsfem import (BoundaryCondition, assemble_load, build_affine_operator,
                    build_coarse_basis, build_coarse_mesh, build_fine_mesh,
                    evaluate, multiscale_pou, offline_spaces)
from gmsfem.fem import free_nodes
from gmsfem.fields import affine_four_term

fine = build_fine_mesh(40, 40)
coarse = build_coarse_mesh(fine, 4, 4)
aff = affine_four_term(fine, eta=1e3)
print(f"affine coefficient with {aff.Q} terms, parameter box "
      f"[{aff.box[0, 0]:g}, {aff.box[0, 1]:g}]^4")

# offline: one basis at the box midpoint
k_mid = evaluate(aff, aff.parameter([0.5] * 4))
pou = multiscale_pou(coarse, k_mid)
spaces = offline_spaces(coarse, k_mid, "fine", pou=pou, count=4)
basis = build_coarse_basis(coarse, pou, spaces)
op = build_affine_operator(fine, aff, basis)
print(f"precomputed {aff.Q} coarse blocks of size {basis.dim}x{basis.dim}")

# online: sweep many parameters reusing the blocks
rng = np.random.default_rng(0)
b = assemble_load(fine, 1.0)
fr = free_nodes(fine)
rhs = basis.P[fr].T @ b[fr]
t0 = time.time()
n_sweep = 50
for _ in range(n_sweep):
    mu = aff.parameter(rng.uniform(0.1, 1.0, 4))
    Ac = op.coarse_matrix(mu)
    uc = np.linalg.solve(Ac, rhs)
dt = time.time() - t0
print(f"swept {n_sweep} parameters in {dt:.2f}s "
      f"({1e3 * dt / n_sweep:.1f} ms per solve)")
