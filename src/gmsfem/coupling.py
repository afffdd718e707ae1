"""Coarse coupling of the local reduced spaces.

Conforming coupling multiplies each local basis function by its partition
of unity function and assembles a global Galerkin system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .coeff import AffineCoefficient, CoefficientField, ParameterPoint
from .fem import (BoundaryCondition, assemble_load, assemble_mass,
                  assemble_stiffness, free_nodes, reduce_dirichlet)
from .mesh import CoarseMesh, FineMesh
from .solvers import NumericalError, SparseFactor, galerkin_factor

# relative pivot size below which the compressed solve drops a basis column
RANK_TOL = 1e-12


@dataclass
class CoarseBasis:
    """Global conforming coarse basis chi_i * psi_ij as fine-grid columns.

    Rows at Dirichlet boundary nodes are zero, so every column conforms to
    homogeneous boundary data; inhomogeneous data enters through a lift.
    """

    coarse: CoarseMesh
    P: sp.csr_matrix          # (n_fine_nodes, dim)
    spaces: dict              # coarse_node -> ReducedSpace
    pou: object = None

    @property
    def dim(self) -> int:
        return self.P.shape[1]

    def lambda_star(self) -> float:
        """Largest finite first-discarded eigenvalue over the nodes.

        Tracks the coarse approximation error: the dominant contribution
        comes from the worst node's first excluded mode.
        """
        vals = [s.lambda_star() for s in self.spaces.values()]
        vals = [v for v in vals if np.isfinite(v)]
        return float(max(vals)) if vals else 0.0


def build_coarse_basis(coarse: CoarseMesh, pou, spaces: dict) -> CoarseBasis:
    """Multiply each node's reduced basis by its POU function.

    spaces maps coarse node ids (normally the interior ones) to a
    ReducedSpace on that node's neighborhood.
    """
    fine = coarse.fine
    bnd_mask = np.zeros(fine.n_nodes, dtype=bool)
    bnd_mask[fine.boundary_nodes] = True
    rows, cols, data = [], [], []
    col = 0
    for i in sorted(spaces):
        space = spaces[i]
        nb_nodes = space.region.nodes
        V = pou.at(i, nb_nodes)[:, None] * space.columns
        V[bnd_mask[nb_nodes]] = 0.0
        r, c = np.nonzero(V)
        rows.append(nb_nodes[r])
        cols.append(c + col)
        data.append(V[r, c])
        col += space.dim
    if col == 0:
        raise ValueError("coarse basis is empty; no modes were selected")
    P = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_nodes, col),
    ).tocsr()
    return CoarseBasis(coarse=coarse, P=P, spaces=spaces, pou=pou)


def coarse_dirichlet_lift(basis: CoarseBasis, bc: BoundaryCondition) -> np.ndarray:
    """Boundary data carried by the coarse-boundary POU functions.

    Coarse nodes without a reduced space (the ones on the coarse-grid
    boundary) get their POU function scaled by the boundary value at that
    node; fine boundary nodes are then overwritten with the exact data, so
    the lift conforms and covers the strip the interior spaces miss.
    """
    coarse = basis.coarse
    fine = coarse.fine
    lift = np.zeros(fine.n_nodes)
    g = bc.values(fine, coarse.coarse_node_fine_ids)
    for i in range(coarse.N_v):
        if i not in basis.spaces:
            lift[coarse.neighborhoods[i].nodes] += g[i] * basis.pou.local[i]
    lift[fine.boundary_nodes] = bc.values(fine, fine.boundary_nodes)
    return lift


def solve_coarse_galerkin(mesh: FineMesh, A: sp.csr_matrix, b: np.ndarray,
                          bc: BoundaryCondition, basis: CoarseBasis) -> np.ndarray:
    """Galerkin projection of the fine system onto the coarse basis.

    Boundary data is carried by the coarse POU lift, so the coarse space
    only has to correct the interior.  Returns the fine-grid solution,
    lift included.
    """
    fr = free_nodes(mesh)
    u = coarse_dirichlet_lift(basis, bc)
    A_ff = A[fr][:, fr].tocsr()
    b_f = (b - A @ u)[fr]
    P_ff = basis.P[fr]
    if basis.dim <= len(fr):
        try:
            coarse = galerkin_factor(P_ff.T @ (A_ff @ P_ff))
            u[fr] += P_ff @ coarse.solve(P_ff.T @ b_f)
            return u
        except NumericalError:
            warnings.warn("coarse basis is rank deficient; compressing it "
                          "by pivoted QR", RuntimeWarning)
    # overlapping local spaces can make the global basis dependent; the
    # Galerkin solution is still unique on the span, so solve in an
    # orthonormal basis of the span
    u[fr] += _solve_compressed(np.asarray(P_ff.todense()), A_ff, b_f)
    return u


def _solve_compressed(P: np.ndarray, A_ff, b_f: np.ndarray) -> np.ndarray:
    """Galerkin correction in span(P), through a column-pivoted QR of P."""
    Q, R, _ = la.qr(P, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int(np.sum(diag > RANK_TOL * max(diag[0], np.finfo(float).tiny)))
    if r == 0:
        raise NumericalError("coarse basis has numerical rank zero")
    Q = Q[:, :r]
    Ar = Q.T @ (A_ff @ Q)
    w = la.cho_solve(la.cho_factor(0.5 * (Ar + Ar.T)), Q.T @ b_f)
    return Q @ w


@dataclass
class AffineOperator:
    """Precomputed coarse blocks P' A_q P for fast mu sweeps."""

    blocks: list        # sparse CSR (dim, dim) per affine term

    def coarse_matrix(self, mu: ParameterPoint) -> sp.csr_matrix:
        return sum(m * B for m, B in zip(mu.mu, self.blocks))


def build_affine_operator(mesh: FineMesh, aff: AffineCoefficient,
                          basis: CoarseBasis) -> AffineOperator:
    fr = free_nodes(mesh)
    P_ff = basis.P[fr]
    blocks = []
    for f in aff.fields:
        A_ff = assemble_stiffness(mesh, f)[fr][:, fr].tocsr()
        blocks.append((P_ff.T @ (A_ff @ P_ff)).tocsr())
    return AffineOperator(blocks=blocks)


def solve_fine(mesh: FineMesh, kappa: CoefficientField, f, bc: BoundaryCondition):
    """Direct fine-grid reference solve; returns (u, A_kappa, M_kappa)."""
    A = assemble_stiffness(mesh, kappa)
    M = assemble_mass(mesh, weight=kappa.k11())
    b = assemble_load(mesh, f)
    A_ff, b_f, fr, lift = reduce_dirichlet(A, b, mesh, bc)
    u = lift.copy()
    u[fr] += SparseFactor(A_ff).solve(b_f)
    return u, A, M
