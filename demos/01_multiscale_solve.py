"""A first multiscale solve on a high-contrast channel field.

Builds a 40x40 fine grid, a 4x4 coarse grid, local spectral spaces from
fine-grid snapshots, and compares the coarse Galerkin solution against
the fine direct solve.
"""

import numpy as np

from gmsfem import (BoundaryCondition, assemble_load, assemble_stiffness,
                    build_coarse_basis, build_coarse_mesh, build_fine_mesh,
                    multiscale_pou, offline_spaces, relative_errors,
                    solve_coarse_galerkin, solve_fine)
from gmsfem.fields import channels_and_inclusions

fine = build_fine_mesh(40, 40)
coarse = build_coarse_mesh(fine, 4, 4)
kappa = channels_and_inclusions(fine, eta=1e4)
print(f"fine {fine.nx}x{fine.ny}, coarse {coarse.Nx}x{coarse.Ny}, "
      f"contrast {kappa.contrast:.0e}")

pou = multiscale_pou(coarse, kappa)
print(f"multiscale partition of unity: sum defect {pou.sum_defect():.2e}")

spaces = offline_spaces(coarse, kappa, "fine", pou=pou, count=4)
print(f"local spaces: 4 modes on each of {len(spaces)} neighborhoods")

basis = build_coarse_basis(coarse, pou, spaces)
bc = BoundaryCondition(lambda x, y: x + y)
A = assemble_stiffness(fine, kappa)
b = assemble_load(fine, 1.0)
u = solve_coarse_galerkin(fine, A, b, bc, basis)

u_ref, A_k, M_k = solve_fine(fine, kappa, 1.0, bc)
err = relative_errors(u, u_ref, A_k, M_k)
e, l2 = err.as_percent()
print(f"coarse dim {basis.dim} vs fine dim {fine.n_nodes}")
print(f"squared relative errors: energy {e:.3f}%, weighted-L2 {l2:.5f}%")
