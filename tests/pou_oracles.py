"""Dense oracles for the neighborhood-local partition of unity: chi as an
(N_v, n_fine) array and the O(N_v * triangles) loops the local code replaced."""

import numpy as np

from gmsfem.fem import _cells_to_triangles, _triangle_geometry
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.pou import bilinear_pou, energy_min_pou, multiscale_pou

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


def dense_chi(pou) -> np.ndarray:
    return np.array([pou.dense(i) for i in range(pou.coarse.N_v)])


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
