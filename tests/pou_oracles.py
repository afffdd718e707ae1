"""Dense oracles for the neighborhood-local partition of unity: chi_i as a
vector over all fine nodes, chi as an (N_v, n_fine) array, the total
energy, the O(N_v * triangles) loops the local code replaced, the
energy-minimizing POU with one factor and one solve per neighborhood, and
the multiscale POU with hand-built block index sets and one solve per
corner."""

import numpy as np

from gmsfem.fem import (_cells_to_triangles, _triangle_geometry, assemble_mass,
                        assemble_stiffness)
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.pou import (MULTIPLIER_TOL, _normalized, bilinear_pou,
                        energy_min_pou, multiscale_pou)
from gmsfem.solvers import SparseFactor, pcg

# (fine, coarse) sizes the oracle tests run at
ORACLE_SIZES = [(20, 4), (30, 3)]


def pou_problem(n: int, c: int):
    """(fine, coarse, kappa, {kind: pou}) for channels at eta 1e3."""
    fine = build_fine_mesh(n, n)
    coarse = build_coarse_mesh(fine, c, c)
    kappa = channels_and_inclusions(fine, 1e3)
    pous = {"bilinear": bilinear_pou(coarse),
            "multiscale": multiscale_pou(coarse, kappa),
            "energy-minimizing": energy_min_pou(coarse, kappa)}
    return fine, coarse, kappa, pous


def chi_dense(pou, i: int) -> np.ndarray:
    """chi_i as a vector over all fine nodes."""
    out = np.zeros(pou.coarse.fine.n_nodes)
    out[pou.coarse.neighborhoods[i].nodes] = pou.local[i]
    return out


def dense_chi(pou) -> np.ndarray:
    return np.array([chi_dense(pou, i) for i in range(pou.coarse.N_v)])


def pou_energy(pou, kappa) -> float:
    """Total energy functional sum_i int kappa |grad chi_i|^2."""
    A = assemble_stiffness(pou.coarse.fine, kappa)
    chis = (chi_dense(pou, i) for i in range(pou.coarse.N_v))
    return float(sum(c @ (A @ c) for c in chis))


def looped_energy_min_pou(coarse, kappa):
    """energy_min_pou with a SparseFactor per neighborhood and a Python
    loop over them in every application of sum_i R_i' A_i^{-1} R_i."""
    fine = coarse.fine
    A = assemble_stiffness(fine, kappa)
    free_sets = [fine.free_nodes_of_cell_box(*nb.cell_box)
                 for nb in coarse.neighborhoods]
    factors = [SparseFactor(A[fn][:, fn]) for fn in free_sets]
    n = fine.n_nodes

    def apply_T(v):
        out = np.zeros(n)
        for fn, f in zip(free_sets, factors):
            out[fn] += f.solve(v[fn])
        return out

    B = (A + assemble_mass(fine, weight=kappa.k11())).tocsr()
    p, report = pcg(apply_T, np.ones(n), M_inv=lambda v: B @ v,
                    tol=MULTIPLIER_TOL, max_it=10 * n)
    assert report.converged
    local = []
    for nb, fn, f in zip(coarse.neighborhoods, free_sets, factors):
        v = np.zeros(nb.n_nodes)
        v[fine.box_position(nb.cell_box, fn)] = f.solve(p[fn])
        local.append(v)
    return _normalized("energy-minimizing", coarse, local)


def looped_multiscale_pou(coarse, kappa):
    """multiscale_pou with each coarse block's node, interior and boundary
    sets built by hand, the interior rows read from the global stiffness,
    and one solve per corner trace."""
    fine = coarse.fine
    hats = bilinear_pou(coarse)
    A = assemble_stiffness(fine, kappa)
    local = [np.zeros(nb.n_nodes) for nb in coarse.neighborhoods]
    for K in range(coarse.n_blocks):
        box = coarse.block_node_box(K)
        nodes = fine.nodes_in_cell_box(*box)
        interior = fine.interior_nodes_of_cell_box(*box)
        bnd = np.setdiff1d(nodes, interior, assume_unique=True)
        A_i = A[interior]
        lu = SparseFactor(A_i[:, interior]) if len(interior) else None
        bi, bj = K % coarse.Nx, K // coarse.Nx
        for c in [coarse.coarse_node_id(bi + di, bj + dj)
                  for dj in (0, 1) for di in (0, 1)]:
            nb_box = coarse.neighborhoods[c].cell_box
            g = hats.at(c, bnd)
            local[c][fine.box_position(nb_box, bnd)] = g
            if lu is not None:
                local[c][fine.box_position(nb_box, interior)] = lu.solve(
                    -(A_i[:, bnd] @ g))
    return _normalized("multiscale", coarse, local)


def dense_gradient_weight(pou, kappa, cells) -> np.ndarray:
    """sum_k kappa |grad chi_k|^2 over every k, on the triangles of cells."""
    fine = pou.coarse.fine
    tris = _cells_to_triangles(np.asarray(cells))
    b, c, area = _triangle_geometry(fine, tris)
    conn = fine.triangles[tris]
    inv2a = 1.0 / (2.0 * area)
    k1 = kappa.k11()[tris // 2]
    k2 = kappa.k22()[tris // 2]
    total = np.zeros(len(tris))
    for chi in dense_chi(pou):
        vals = chi[conn]
        gx = (vals * b).sum(axis=1) * inv2a
        gy = (vals * c).sum(axis=1) * inv2a
        total += k1 * gx * gx + k2 * gy * gy
    return total
