"""Picard iteration for a mildly nonlinear conductivity.

The conductivity lambda(x, u) = lam0 * (kappa1(x) + exp(alpha u) kappa2(x))
is treated as a parametric family: the scalar exponent is frozen blockwise
at local averages of the current iterate, which turns every Picard step
into a linear multiscale solve in a precomputed offline space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .coeff import CoefficientField
from .fem import BoundaryCondition, assemble_load, assemble_mass, assemble_stiffness
from .mesh import CoarseMesh
from .coupling import build_coarse_basis, solve_coarse_galerkin
from .solvers import NumericalError
from .spaces import build_online, offline_spaces


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


def block_averages(coarse: CoarseMesh, u: np.ndarray) -> np.ndarray:
    """Mass-weighted average of u over every coarse block."""
    fine = coarse.fine
    ones = np.ones(fine.n_nodes)
    out = np.empty(coarse.n_blocks)
    for K in range(coarse.n_blocks):
        Mb = assemble_mass(fine, cells=fine.cells_in_box(*coarse.block_node_box(K)))
        out[K] = float(u @ (Mb @ ones)) / float(ones @ (Mb @ ones))
    return out


def node_averages(coarse: CoarseMesh, u: np.ndarray) -> np.ndarray:
    """Mass-weighted average of u over every coarse node neighborhood."""
    fine = coarse.fine
    ones = np.ones(fine.n_nodes)
    out = np.empty(coarse.N_v)
    for nb in coarse.neighborhoods:
        Mb = assemble_mass(fine, cells=nb.cells)
        out[nb.coarse_node] = float(u @ (Mb @ ones)) / float(ones @ (Mb @ ones))
    return out


def cellwise_parameter(coarse: CoarseMesh, block_avg: np.ndarray) -> np.ndarray:
    """Per-fine-cell frozen exponent values from block averages."""
    fine = coarse.fine
    out = np.empty(fine.n_cells)
    for K in range(coarse.n_blocks):
        out[fine.cells_in_box(*coarse.block_node_box(K))] = block_avg[K]
    return out


@dataclass
class PicardState:
    converged: bool
    iterations: int
    u: np.ndarray
    updates: list           # relative update sizes per iteration
    dims: int               # coarse space dimension
    lambda_star: float
    sample_values: np.ndarray


def build_nonlinear_offline(coarse: CoarseMesh, nl: NonlinearCoefficient,
                            sample_values: np.ndarray, snap_per_sample: int,
                            offline_count) -> dict | list:
    """Offline spaces from spectral snapshots over the frozen-exponent samples.

    Per neighborhood and sample value: the dominant eigenvectors of the
    Neumann pencil (kappa-mass, kappa-stiffness); their union is reduced
    with the sample-averaged coefficient.  A list of offline counts gives
    a list of spaces, one per count, from one snapshot stage.
    """
    fields = [nl.at_value(v) for v in sample_values]
    avg = CoefficientField(np.mean([f.values for f in fields], axis=0))
    return offline_spaces(coarse, avg, "spectral", "kappa_mass",
                          count=offline_count, samples=fields,
                          snap_per_sample=snap_per_sample)


def picard_solve(coarse: CoarseMesh, nl: NonlinearCoefficient, f,
                 bc: BoundaryCondition, pou, sample_values: np.ndarray,
                 snap_per_sample: int = 8, offline_count: int = 10,
                 online_count: int = None, tol: float = 1e-6,
                 max_it: int = 20, offline: dict = None) -> PicardState:
    """Fixed-point iteration with a blockwise-frozen conductivity.

    The initial iterate is the linear solve at the sample midpoint.  Each
    step freezes the exponent at the block averages of the previous
    iterate (the online spaces use the neighborhood averages), and solves
    the coarse Galerkin system; convergence is a relative update below
    tol in the unit-coefficient energy norm.

    offline is a prebuilt offline space (as from build_nonlinear_offline
    over the same sample_values); without it one is built here from
    snap_per_sample and offline_count, which are otherwise unused.
    """
    sample_values = np.asarray(sample_values, dtype=float)
    lo, hi = sample_values.min(), sample_values.max()
    fine = coarse.fine
    if offline is None:
        offline = build_nonlinear_offline(coarse, nl, sample_values,
                                          snap_per_sample, offline_count)
    A1 = assemble_stiffness(fine, CoefficientField(np.ones(fine.n_cells)))
    b = assemble_load(fine, f)

    def clamp(vals):
        clipped = np.clip(vals, lo, hi)
        if np.any(clipped != vals):
            warnings.warn("frozen exponent clamped into the sampled range",
                          RuntimeWarning)
        return clipped

    def build_basis(node_mu):
        spaces = {}
        for i, off in offline.items():
            region = off.region
            kmu = nl.at_value(float(node_mu[i]))
            a_mat = assemble_mass(fine, weight=kmu, restrict_to=region.nodes,
                                  cells=region.cells)
            s_mat = assemble_stiffness(fine, kmu, restrict_to=region.nodes,
                                       cells=region.cells)
            spaces[i] = build_online(off, a_mat, s_mat,
                                     count=online_count or off.dim)
        return build_coarse_basis(coarse, pou, spaces)

    def step(u_prev):
        node_mu = clamp(node_averages(coarse, u_prev))
        mu_cells = cellwise_parameter(coarse, clamp(block_averages(coarse, u_prev)))
        kappa = nl.at_value(mu_cells)
        basis = build_basis(node_mu)
        A = assemble_stiffness(fine, kappa)
        sol = solve_coarse_galerkin(fine, A, b, bc, basis)
        return sol, basis

    mid = 0.5 * (lo + hi)
    sol, basis = step(np.full(fine.n_nodes, mid))
    u = sol.u
    updates = []
    grow = 0
    for it in range(1, max_it + 1):
        sol, basis = step(u)
        d = sol.u - u
        denom = float(sol.u @ (A1 @ sol.u))
        upd = np.sqrt(float(d @ (A1 @ d)) / denom) if denom > 0 else 0.0
        updates.append(upd)
        u = sol.u
        if upd <= tol:
            return PicardState(True, it, u, updates, basis.dim,
                               basis.lambda_star(), sample_values)
        if len(updates) > 1 and upd > updates[-2]:
            grow += 1
            if grow >= 3:
                raise NumericalError(
                    f"Picard iteration diverging; updates {updates[-3:]}"
                )
        else:
            grow = 0
    return PicardState(False, max_it, u, updates, basis.dim,
                       basis.lambda_star(), sample_values)
