"""P1 assembly on the structured fine grid, globally or on a LocalRegion.

Coefficients are cellwise constant and the basis is P1, so all element
integrals below are exact; there is no quadrature parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coeff import CoefficientField
from .mesh import FineMesh, LocalRegion
from .solvers import block_factor


@dataclass
class BoundaryCondition:
    """Dirichlet data g(x, y) on all boundary nodes."""

    g: object = 0.0  # constant or callable (x, y) -> value

    def values(self, mesh: FineMesh, nodes: np.ndarray) -> np.ndarray:
        xy = mesh.node_coords[nodes]
        if callable(self.g):
            return np.asarray(self.g(xy[:, 0], xy[:, 1]), dtype=float)
        return np.full(len(nodes), float(self.g))


def _triangle_geometry(mesh: FineMesh, tris: np.ndarray):
    """Edge coefficients b, c and areas of the given triangles.

    grad(phi_k) = (b_k, c_k) / (2A) on each triangle.
    """
    p = mesh.node_coords[mesh.triangles[tris]]  # (T, 3, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    return b, c, area


def _cells_to_triangles(cells: np.ndarray) -> np.ndarray:
    t = np.empty(2 * len(cells), dtype=np.int64)
    t[0::2] = 2 * cells
    t[1::2] = 2 * cells + 1
    return t


def _triangles(mesh: FineMesh, region) -> np.ndarray:
    return (np.arange(2 * mesh.n_cells) if region is None
            else _cells_to_triangles(region.cells))


def _assemble(mesh, tris, local_mats, region):
    """Scatter (T, 3, 3) element matrices into CSR; with a region, rows and
    columns are its node box (FineMesh.box_position)."""
    conn = mesh.triangles[tris]
    if region is None:
        n = mesh.n_nodes
    else:
        conn = mesh.box_position(region.cell_box, conn)
        n = region.n_nodes
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    data = local_mats.reshape(len(tris), 9).ravel()
    A = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


def assemble_stiffness(mesh: FineMesh, kappa: CoefficientField,
                       region: LocalRegion = None) -> sp.csr_matrix:
    """kappa-weighted stiffness matrix, scalar or diagonal-tensor kappa.

    With a region, only its cells are assembled (the Neumann matrix of the
    region), on its nodes.
    """
    if kappa.n_cells != mesh.n_cells:
        raise ValueError(f"field has {kappa.n_cells} cells, mesh has {mesh.n_cells}")
    tris = _triangles(mesh, region)
    b, c, area = _triangle_geometry(mesh, tris)
    k11 = kappa.k11()[tris // 2]
    k22 = kappa.k22()[tris // 2]
    inv4a = 1.0 / (4.0 * area)
    local = (k11[:, None, None] * b[:, :, None] * b[:, None, :]
             + k22[:, None, None] * c[:, :, None] * c[:, None, :]) * inv4a[:, None, None]
    return _assemble(mesh, tris, local, region)


_MASS_REF = (np.ones((3, 3)) + np.eye(3)) / 12.0


def assemble_mass(mesh: FineMesh, weight=None, region: LocalRegion = None,
                  triangle_weight=None) -> sp.csr_matrix:
    """Weighted mass matrix; weight is a CoefficientField or per-cell array.

    region works as in assemble_stiffness.  triangle_weight overrides with
    one value per assembled triangle, in _cells_to_triangles(region.cells)
    order (used for weights built from POU gradients, which are constant
    per triangle, not per cell).
    """
    tris = _triangles(mesh, region)
    _, _, area = _triangle_geometry(mesh, tris)
    if triangle_weight is not None:
        w = np.asarray(triangle_weight, dtype=float)
        if len(w) != len(tris):
            raise ValueError("triangle_weight needs one value per assembled triangle")
    else:
        if weight is None:
            wc = np.ones(mesh.n_cells)
        elif isinstance(weight, CoefficientField):
            if weight.is_tensor:
                raise ValueError("mass weight must be scalar")
            wc = weight.values
        else:
            wc = np.asarray(weight, dtype=float)
        if len(wc) != mesh.n_cells:
            raise ValueError(f"weight has {len(wc)} cells, mesh has {mesh.n_cells}")
        w = wc[tris // 2]
    local = (w * area)[:, None, None] * _MASS_REF[None, :, :]
    return _assemble(mesh, tris, local, region)


def harmonic_extension(A, inner: list, G: np.ndarray) -> np.ndarray:
    """G with its rows in each index set of inner replaced by the A-harmonic
    extension of its other rows.  A's rows at the sets must be whole stiffness
    rows (of nodes off a box boundary) that reach no other set; every nonempty
    set's principal block is factored at once by solvers.block_factor."""
    sets = [idx for idx in inner if len(idx)]
    out = np.array(G, dtype=float, order="C")  # the layout moves BLAS bits
    if sets:
        rows = np.concatenate(sets)
        out[rows] = 0.0
        out[rows] = block_factor(A, sets, "box")[0].solve(-(A[rows] @ out))
    return out


def assemble_load(mesh: FineMesh, f) -> np.ndarray:
    """Load vector for cellwise-constant f (scalar or per-cell array)."""
    tris = np.arange(2 * mesh.n_cells)
    _, _, area = _triangle_geometry(mesh, tris)
    fv = np.asarray(f, dtype=float)
    if fv.ndim == 0:
        fv = np.full(len(tris), float(fv))
    elif len(fv) == mesh.n_cells:
        fv = fv[tris // 2]
    else:
        raise ValueError("f must be scalar or per-cell")
    contrib = (fv * area / 3.0)
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, mesh.triangles.ravel(), np.repeat(contrib, 3))
    return b


def free_nodes(mesh: FineMesh) -> np.ndarray:
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[mesh.boundary_nodes] = False
    return np.flatnonzero(mask)


def reduce_dirichlet(A: sp.csr_matrix, b: np.ndarray, mesh: FineMesh,
                     bc: BoundaryCondition) -> tuple:
    """Free-node system plus the boundary lift vector (full length).

    Returns (A_ff, b_f, free, lift) with the solution recovered as
    lift + scatter(free, x).
    """
    bnd = mesh.boundary_nodes
    fr = free_nodes(mesh)
    lift = np.zeros(mesh.n_nodes)
    lift[bnd] = bc.values(mesh, bnd)
    b_f = (b - A @ lift)[fr]
    A_ff = A[fr][:, fr].tocsr()
    return A_ff, b_f, fr, lift


@dataclass
class ErrorReport:
    energy_sq: float
    l2w_sq: float
    relative: bool  # False when the reference norm vanished

    def as_percent(self) -> tuple:
        return (100.0 * self.energy_sq, 100.0 * self.l2w_sq)


def norms(u: np.ndarray, v: np.ndarray, A_kappa: sp.csr_matrix,
          M_kappa: sp.csr_matrix) -> tuple:
    """Squared energy and weighted-L2 norms of u - v."""
    if len(u) != len(v) or len(u) != A_kappa.shape[0]:
        raise ValueError("size mismatch")
    d = u - v
    e = float(d @ (A_kappa @ d))
    m = float(d @ (M_kappa @ d))
    return e, m


def relative_errors(u: np.ndarray, ref: np.ndarray, A_kappa, M_kappa) -> ErrorReport:
    """Squared relative errors against ref, absolute with a flag if ref is zero."""
    e, m = norms(u, ref, A_kappa, M_kappa)
    re = float(ref @ (A_kappa @ ref))
    rm = float(ref @ (M_kappa @ ref))
    if re <= 0.0 or rm <= 0.0:
        return ErrorReport(e, m, relative=False)
    return ErrorReport(e / re, m / rm, relative=True)
