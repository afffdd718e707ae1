"""Partition-of-unity families: bilinear hats, multiscale harmonic functions,
and energy-minimizing functions via a Lagrange-multiplier solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField
from .fem import _triangle_geometry, assemble_mass, assemble_stiffness
from .mesh import CoarseMesh
from .solvers import NumericalError, SparseFactor, pcg

# relative residual at which CG stops on the energy-minimizing multiplier
MULTIPLIER_TOL = 1e-10


@dataclass
class PartitionOfUnity:
    """chi_i vectors on fine nodes, one per coarse node, summing to one."""

    kind: str
    coarse: CoarseMesh
    chi: np.ndarray  # (N_v, n_fine_nodes), hard zeros outside omega_i

    def sum_defect(self) -> float:
        return float(np.abs(self.chi.sum(axis=0) - 1.0).max())

    def energy(self, kappa: CoefficientField) -> float:
        """Total energy functional sum_i int kappa |grad chi_i|^2."""
        A = assemble_stiffness(self.coarse.fine, kappa)
        return float(sum(self.chi[i] @ (A @ self.chi[i]) for i in range(len(self.chi))))


def _normalized(kind: str, coarse: CoarseMesh, chi: np.ndarray) -> PartitionOfUnity:
    # divide by the nodal sum so the partition identity holds to rounding
    s = chi.sum(axis=0)
    if np.any(s <= 0.0):
        raise NumericalError(f"{kind} POU sum vanishes at a fine node")
    chi = chi / s
    return PartitionOfUnity(kind=kind, coarse=coarse, chi=chi)


def bilinear_pou(coarse: CoarseMesh) -> PartitionOfUnity:
    """Tensor-product hat per coarse node, evaluated at fine nodes."""
    fine = coarse.fine
    x = fine.node_coords[:, 0]
    y = fine.node_coords[:, 1]
    Hx, Hy = 1.0 / coarse.Nx, 1.0 / coarse.Ny
    chi = np.zeros((coarse.N_v, fine.n_nodes))
    for i in range(coarse.N_v):
        I, J = coarse.coarse_node_ij(i)
        hx = np.maximum(0.0, 1.0 - np.abs(x - I * Hx) / Hx)
        hy = np.maximum(0.0, 1.0 - np.abs(y - J * Hy) / Hy)
        chi[i] = hx * hy
    return _normalized("bilinear", coarse, chi)


def multiscale_pou(coarse: CoarseMesh, kappa: CoefficientField) -> PartitionOfUnity:
    """kappa-harmonic extension of the bilinear traces inside every coarse cell."""
    fine = coarse.fine
    hats = bilinear_pou(coarse)
    chi = np.zeros((coarse.N_v, fine.n_nodes))
    for K in range(coarse.n_blocks):
        box = coarse.block_node_box(K)
        nodes = fine.nodes_in_cell_box(*box)
        interior = fine.interior_nodes_of_cell_box(*box)
        bnd = np.setdiff1d(nodes, interior, assume_unique=True)
        cells = fine.cells_in_box(*box)
        A = assemble_stiffness(fine, kappa, restrict_to=nodes, cells=cells)
        lut = {n: k for k, n in enumerate(nodes)}
        li = np.array([lut[n] for n in interior], dtype=np.int64)
        lb = np.array([lut[n] for n in bnd], dtype=np.int64)
        lu = SparseFactor(A[li][:, li])
        bi, bj = K % coarse.Nx, K // coarse.Nx
        corners = [coarse.coarse_node_id(bi + di, bj + dj)
                   for dj in (0, 1) for di in (0, 1)]
        Ab = A[li][:, lb]
        for c in corners:
            g = hats.chi[c][bnd]
            chi[c, bnd] = g
            if len(li):
                chi[c, interior] = lu.solve(-(Ab @ g))
    return _normalized("multiscale", coarse, chi)


def energy_min_pou(coarse: CoarseMesh, kappa: CoefficientField) -> PartitionOfUnity:
    """Minimize the total POU energy subject to the partition constraint.

    Stationarity of the Lagrangian gives chi_i = A_i^{-1} R_i p with the
    multiplier p solving (sum_i R_i' A_i^{-1} R_i) p = 1; that system is
    solved by CG, preconditioned with the global stiffness-plus-mass
    operator (the sum acts like an inverse stiffness).
    """
    fine = coarse.fine
    A = assemble_stiffness(fine, kappa)
    free_sets = []
    factors = []
    for nb in coarse.neighborhoods:
        fn = fine.free_nodes_of_cell_box(*nb.cell_box)
        free_sets.append(fn)
        factors.append(SparseFactor(A[fn][:, fn]))

    n = fine.n_nodes
    cover = np.zeros(n)
    for fn in free_sets:
        cover[fn] += 1
    if np.any(cover == 0):
        raise NumericalError("a fine node is free in no neighborhood")

    def apply_T(v):
        out = np.zeros(n)
        for fn, f in zip(free_sets, factors):
            out[fn] += f.solve(v[fn])
        return out

    B = (A + assemble_mass(fine, weight=kappa)).tocsr()
    ones = np.ones(n)
    p, report = pcg(apply_T, ones, M_inv=lambda v: B @ v, tol=MULTIPLIER_TOL,
                     max_it=10 * n)
    if not report.converged:
        raise NumericalError(
            f"energy-minimizing multiplier CG stalled at residual {report.residuals[-1]:.3e}"
        )
    chi = np.zeros((coarse.N_v, n))
    for i, (fn, f) in enumerate(zip(free_sets, factors)):
        chi[i, fn] = f.solve(p[fn])
    return _normalized("energy-minimizing", coarse, chi)


def pou_gradient_weight(pou: PartitionOfUnity, kappa: CoefficientField) -> np.ndarray:
    """Per-triangle weight sum_k kappa |grad chi_k|^2 (piecewise constant)."""
    fine = pou.coarse.fine
    tris = np.arange(2 * fine.n_cells)
    b, c, area = _triangle_geometry(fine, tris)
    conn = fine.triangles
    inv2a = 1.0 / (2.0 * area)
    k1 = kappa.k11()[tris // 2]
    k2 = kappa.k22()[tris // 2]
    total = np.zeros(len(tris))
    for i in range(pou.coarse.N_v):
        vals = pou.chi[i][conn]  # (T, 3)
        gx = (vals * b).sum(axis=1) * inv2a
        gy = (vals * c).sum(axis=1) * inv2a
        total += k1 * gx * gx + k2 * gy * gy
    return total
