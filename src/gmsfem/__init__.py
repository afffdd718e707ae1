"""Generalized multiscale finite element solver for parametric
high-contrast elliptic problems on structured grids."""

from .mesh import (FineMesh, CoarseMesh, Neighborhood, OverlapDecomposition,
                   build_fine_mesh, build_coarse_mesh, build_overlap)
from .coeff import (CoefficientField, AffineCoefficient, ParameterPoint,
                    evaluate, generate_inclusions_channels,
                    anisotropic_from_scalar, read_field, write_field)
from .fem import (BoundaryCondition, assemble_stiffness, assemble_mass,
                  assemble_load, apply_dirichlet, reduce_dirichlet,
                  relative_errors, ErrorReport)
from .pou import (PartitionOfUnity, bilinear_pou, multiscale_pou,
                  energy_min_pou)
from .spaces import (LocalRegion, SnapshotSpace, ReducedSpace,
                     harmonic_snapshots, fine_grid_snapshots,
                     spectral_snapshots, build_offline, build_online,
                     offline_spaces, truncate, count_unbounded)
from .coupling import (CoarseBasis, CoarseSolution, build_coarse_basis,
                       solve_coarse_galerkin, solve_coarse_pg, solve_fine,
                       solve_multiscale, build_affine_operator)
from .solvers import (NumericalError, dense_gen_eig, SparseFactor, pcg, cg,
                      TwoLevelPreconditioner, build_two_level, PcgReport)
from .nonlinear import NonlinearCoefficient, PicardState, picard_solve

__version__ = "0.1.0"
