"""Picard iteration for a mildly nonlinear conductivity.

The conductivity lambda(x, u) = lam0 * (kappa1(x) + exp(alpha u) kappa2(x))
is treated as a parametric family: the scalar exponent is frozen blockwise
at local averages of the current iterate, which turns every Picard step
into a linear multiscale solve in a precomputed offline space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField
from .fem import BoundaryCondition, assemble_load, assemble_stiffness
from .mesh import CoarseMesh
from .coupling import build_coarse_basis, solve_coarse_galerkin
from .solvers import NumericalError
from .spaces import offline_spaces


@dataclass
class NonlinearCoefficient:
    """lambda(x, u) = lam0 * (kappa1(x) + exp(alpha u) kappa2(x))."""

    kappa1: CoefficientField
    kappa2: CoefficientField
    alpha: float
    lam0: float = 1.0

    def __post_init__(self):
        if self.kappa1.n_cells != self.kappa2.n_cells:
            raise ValueError("kappa1 and kappa2 must share the grid")
        if self.kappa1.is_tensor or self.kappa2.is_tensor:
            raise ValueError("nonlinear conductivity is scalar only")
        if self.lam0 <= 0:
            raise ValueError("lam0 must be positive")

    def at_value(self, mu) -> CoefficientField:
        """Coefficient with the exponent frozen at scalar or per-cell mu."""
        e = np.exp(self.alpha * np.asarray(mu, dtype=float))
        return CoefficientField(self.lam0 * (self.kappa1.values + e * self.kappa2.values))


def _averages(fine, u: np.ndarray, cell_sets) -> np.ndarray:
    """Area-weighted average of u over each set of fine cells.

    The P1 mean of u over a triangle is the mean of its three nodal
    values; a cell's two triangles have equal area, and so do all cells.
    """
    tri = u[fine.triangles].mean(axis=1)
    cell_mean = 0.5 * (tri[0::2] + tri[1::2])
    return np.array([cell_mean[cells].mean() for cells in cell_sets])


def block_averages(coarse: CoarseMesh, u: np.ndarray) -> np.ndarray:
    """Mass-weighted average of u over every coarse block."""
    boxes = (coarse.block_node_box(K) for K in range(coarse.n_blocks))
    return _averages(coarse.fine, u, (coarse.fine.cells_in_box(*b) for b in boxes))


def node_averages(coarse: CoarseMesh, u: np.ndarray) -> np.ndarray:
    """Mass-weighted average of u over every coarse node neighborhood."""
    return _averages(coarse.fine, u, (nb.cells for nb in coarse.neighborhoods))


def cellwise_parameter(coarse: CoarseMesh, block_avg: np.ndarray) -> np.ndarray:
    """Per-fine-cell frozen exponent values from block averages."""
    return (np.asarray(block_avg, dtype=float).reshape(coarse.Ny, coarse.Nx)
            .repeat(coarse.my, 0).repeat(coarse.mx, 1).ravel())


@dataclass
class PicardState:
    converged: bool
    iterations: int
    u: np.ndarray
    updates: list           # relative update sizes per iteration
    dims: int               # coarse space dimension
    lambda_star: float


def build_nonlinear_offline(coarse: CoarseMesh, nl: NonlinearCoefficient,
                            sample_values: np.ndarray, snap_per_sample: int,
                            offline_count: int) -> dict:
    """Offline spaces from spectral snapshots over the frozen-exponent samples.

    Per neighborhood and sample value: the dominant eigenvectors of the
    Neumann pencil (kappa-mass, kappa-stiffness); their union is reduced
    with the sample-averaged coefficient, keeping offline_count modes.
    The kept modes are eigen-ordered, so spaces.truncate of one build gives
    the space of any smaller count, to 1e-12 relative: each build solves
    its own count + 1 leading pairs, which round differently.
    """
    fields = [nl.at_value(v) for v in sample_values]
    avg = CoefficientField(np.mean([f.values for f in fields], axis=0))
    return offline_spaces(coarse, avg, "spectral", "kappa_mass",
                          count=offline_count, samples=fields,
                          snap_per_sample=snap_per_sample)


def picard_solve(coarse: CoarseMesh, nl: NonlinearCoefficient, f,
                 bc: BoundaryCondition, pou, sample_values: np.ndarray,
                 offline: dict, tol: float = 1e-6,
                 max_it: int = 20) -> PicardState:
    """Fixed-point iteration with a blockwise-frozen conductivity.

    The initial iterate is the linear solve at the sample midpoint.  Each
    step freezes the exponent at the block averages of the previous
    iterate and solves the coarse Galerkin system in the offline space,
    whose coarse basis is built once; convergence is a relative update
    below tol in the unit-coefficient energy norm.  offline is the
    offline space, as from build_nonlinear_offline over the same
    sample_values.
    """
    sample_values = np.asarray(sample_values, dtype=float)
    lo, hi = sample_values.min(), sample_values.max()
    fine = coarse.fine
    A1 = assemble_stiffness(fine, CoefficientField(np.ones(fine.n_cells)))
    b = assemble_load(fine, f)
    basis = build_coarse_basis(coarse, pou, offline)

    def clamp(vals):
        clipped = np.clip(vals, lo, hi)
        if np.any(clipped != vals):
            warnings.warn("frozen exponent clamped into the sampled range",
                          RuntimeWarning)
        return clipped

    def step(u_prev):
        mu_cells = cellwise_parameter(coarse, clamp(block_averages(coarse, u_prev)))
        kappa = nl.at_value(mu_cells)
        A = assemble_stiffness(fine, kappa)
        return solve_coarse_galerkin(fine, A, b, bc, basis)

    mid = 0.5 * (lo + hi)
    u = step(np.full(fine.n_nodes, mid))
    updates = []
    grow = 0
    for it in range(1, max_it + 1):
        u_new = step(u)
        d = u_new - u
        denom = float(u_new @ (A1 @ u_new))
        upd = np.sqrt(float(d @ (A1 @ d)) / denom) if denom > 0 else 0.0
        updates.append(upd)
        u = u_new
        if upd <= tol:
            return PicardState(True, it, u, updates, basis.dim,
                               basis.lambda_star())
        if len(updates) > 1 and upd > updates[-2]:
            grow += 1
            if grow >= 3:
                raise NumericalError(
                    f"Picard iteration diverging; updates {updates[-3:]}"
                )
        else:
            grow = 0
    return PicardState(False, max_it, u, updates, basis.dim,
                       basis.lambda_star())
