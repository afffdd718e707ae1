"""Partition-of-unity families: bilinear hats, multiscale harmonic functions,
and energy-minimizing functions via a Lagrange-multiplier solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientField
from .fem import (_cells_to_triangles, _triangle_geometry, assemble_mass,
                  assemble_stiffness, harmonic_extension)
from .mesh import CoarseMesh
from .solvers import NumericalError, block_factor, pcg

# relative residual at which CG stops on the energy-minimizing multiplier
MULTIPLIER_TOL = 1e-10


@dataclass
class PartitionOfUnity:
    """chi_i per coarse node, stored on its neighborhood omega_i only.

    local[i] holds chi_i at coarse.neighborhoods[i].nodes; chi_i is zero at
    every other fine node, and the functions sum to one at every node.
    """

    coarse: CoarseMesh
    local: list  # local[i] aligned with coarse.neighborhoods[i].nodes

    def at(self, i: int, nodes: np.ndarray) -> np.ndarray:
        """chi_i at the given fine nodes (any shape), zero outside omega_i."""
        pos = self.coarse.fine.box_position(self.coarse.neighborhoods[i].cell_box,
                                            np.asarray(nodes))
        return np.append(self.local[i], 0.0)[pos]

    def sum_defect(self) -> float:
        return float(np.abs(_nodal_sum(self.coarse, self.local) - 1.0).max())


def _nodal_sum(coarse: CoarseMesh, local: list) -> np.ndarray:
    # ascending i from 0.0: the same bits as summing the dense rows
    s = np.zeros(coarse.fine.n_nodes)
    for nb, v in zip(coarse.neighborhoods, local):
        s[nb.nodes] += v
    return s


def _normalized(kind: str, coarse: CoarseMesh, local: list) -> PartitionOfUnity:
    # divide by the nodal sum so the partition identity holds to rounding
    s = _nodal_sum(coarse, local)
    if np.any(s <= 0.0):
        raise NumericalError(f"{kind} POU sum vanishes at a fine node")
    local = [v / s[nb.nodes] for nb, v in zip(coarse.neighborhoods, local)]
    return PartitionOfUnity(coarse=coarse, local=local)


def bilinear_pou(coarse: CoarseMesh) -> PartitionOfUnity:
    """Tensor-product hat per coarse node at fine nodes, from their integer
    offsets, so a hat is exactly 0 on its neighborhood's boundary."""
    nx1 = coarse.fine.nx + 1
    local = []
    for i, nb in enumerate(coarse.neighborhoods):
        I, J = coarse.coarse_node_ij(i)
        hx = np.maximum(0.0, 1.0 - np.abs(nb.nodes % nx1 - I * coarse.mx) / coarse.mx)
        hy = np.maximum(0.0, 1.0 - np.abs(nb.nodes // nx1 - J * coarse.my) / coarse.my)
        local.append(hx * hy)
    return _normalized("bilinear", coarse, local)


def multiscale_pou(coarse: CoarseMesh, kappa: CoefficientField) -> PartitionOfUnity:
    """kappa-harmonic extension of the bilinear traces inside every coarse
    cell.  The hats of one parity colour I % 2 + 2 * (J % 2) never share a
    cell, so one fem.harmonic_extension of the four colour sums serves all."""
    fine = coarse.fine
    I, J = coarse.coarse_node_ij(np.arange(coarse.N_v))
    colour = I % 2 + 2 * (J % 2)
    G = np.zeros((fine.n_nodes, 4))
    for nb, c, v in zip(coarse.neighborhoods, colour, bilinear_pou(coarse).local):
        G[nb.nodes, c] += v
    inner = [fine.interior_nodes_of_cell_box(*coarse.block_node_box(K))
             for K in range(coarse.n_blocks)]
    ext = harmonic_extension(assemble_stiffness(fine, kappa), inner, G)
    local = [ext[nb.nodes, c] for nb, c in zip(coarse.neighborhoods, colour)]
    return _normalized("multiscale", coarse, local)


def energy_min_pou(coarse: CoarseMesh, kappa: CoefficientField) -> PartitionOfUnity:
    """Minimize the total POU energy subject to the partition constraint.

    Stationarity of the Lagrangian gives chi_i = A_i^{-1} R_i p with the
    multiplier p solving (sum_i R_i' A_i^{-1} R_i) p = 1; that system is
    solved by CG, preconditioned with the global stiffness-plus-mass
    operator (the sum acts like an inverse stiffness).  All A_i share one
    factor from solvers.block_factor, which names a singular neighborhood.
    """
    fine = coarse.fine
    A = assemble_stiffness(fine, kappa)
    free_sets = [fine.free_nodes_of_cell_box(*nb.cell_box)
                 for nb in coarse.neighborhoods]
    n = fine.n_nodes
    if np.any(np.bincount(np.concatenate(free_sets), minlength=n) == 0):
        raise NumericalError("a fine node is free in no neighborhood")
    factor, R = block_factor(A, free_sets, "neighborhood")
    R_t = R.T.tocsr()
    B = (A + assemble_mass(fine, weight=kappa)).tocsr()
    p, report = pcg(lambda v: R_t @ factor.solve(R @ v), np.ones(n),
                    M_inv=lambda v: B @ v, tol=MULTIPLIER_TOL, max_it=10 * n)
    if not report.converged:
        raise NumericalError(
            f"energy-minimizing multiplier CG stalled at residual {report.residuals[-1]:.3e}"
        )
    chi = np.split(factor.solve(R @ p), np.cumsum([len(fn) for fn in free_sets])[:-1])
    local = []
    for nb, fn, c in zip(coarse.neighborhoods, free_sets, chi):
        v = np.zeros(nb.n_nodes)
        v[fine.box_position(nb.cell_box, fn)] = c
        local.append(v)
    return _normalized("energy-minimizing", coarse, local)


def pou_gradient_weight(pou: PartitionOfUnity, kappa: CoefficientField,
                        cells: np.ndarray) -> np.ndarray:
    """Weight sum_k kappa |grad chi_k|^2 on the triangles of the given cells.

    One value per triangle, in the order of fem._cells_to_triangles(cells).
    Each chi_k is read only on the given triangles of its neighborhood, and
    each triangle sums its terms in ascending k from 0.0, so a triangle's
    weight has the same bits whichever cells are asked for.
    """
    fine = pou.coarse.fine
    cells = np.asarray(cells, dtype=np.int64)
    tris = _cells_to_triangles(cells)
    b, c, area = _triangle_geometry(fine, tris)
    inv2a = 1.0 / (2.0 * area)
    k1 = kappa.k11()[tris // 2]
    k2 = kappa.k22()[tris // 2]
    pos = np.full(fine.n_cells, -1, dtype=np.int64)
    pos[cells] = np.arange(len(cells))
    ci, cj = cells % fine.nx, cells // fine.nx
    total = np.zeros(len(tris))
    for k in pou.coarse.nodes_meeting((ci.min(), ci.max() + 1, cj.min(), cj.max() + 1)):
        p = pos[pou.coarse.neighborhoods[k].cells]
        t = _cells_to_triangles(p[p >= 0])  # positions in tris
        vals = pou.at(k, fine.triangles[tris[t]])  # (T, 3)
        gx = (vals * b[t]).sum(axis=1) * inv2a[t]
        gy = (vals * c[t]).sum(axis=1) * inv2a[t]
        total[t] += k1[t] * gx * gx + k2[t] * gy * gy
    return total
