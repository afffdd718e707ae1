"""P1 assembly against closed-form integrals.

With cellwise-constant coefficients every element integral is exact, so
linear and quadratic test functions give machine-precision oracles.
"""

import numpy as np
import pytest

from gmsfem.coeff import CoefficientField
from gmsfem.fem import (BoundaryCondition, assemble_load, assemble_mass,
                        assemble_stiffness, free_nodes, norms,
                        reduce_dirichlet, relative_errors)
from gmsfem.coupling import solve_fine
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh


def _linear(mesh, fx, fy, c=0.0):
    x, y = mesh.node_coords[:, 0], mesh.node_coords[:, 1]
    return fx * x + fy * y + c


def test_stiffness_energy_of_linear_functions():
    mesh = build_fine_mesh(8, 6)
    rng = np.random.default_rng(0)
    kvals = rng.uniform(1.0, 100.0, mesh.n_cells)
    A = assemble_stiffness(mesh, CoefficientField(kvals))
    area = (1.0 / 8) * (1.0 / 6)
    # int kappa |grad(ax + by)|^2 = (a^2 + b^2) sum_c kappa_c area_c
    for a, b in ((1.0, 0.0), (0.0, 1.0), (2.0, -3.0)):
        u = _linear(mesh, a, b, 0.7)
        want = (a * a + b * b) * kvals.sum() * area
        assert u @ (A @ u) == pytest.approx(want, rel=1e-13)


def test_stiffness_tensor_separates_directions():
    mesh = build_fine_mesh(5, 5)
    rng = np.random.default_rng(1)
    k11 = rng.uniform(1.0, 10.0, mesh.n_cells)
    k22 = rng.uniform(1.0, 10.0, mesh.n_cells)
    A = assemble_stiffness(mesh, CoefficientField(np.column_stack([k11, k22])))
    area = 1.0 / 25
    ux = _linear(mesh, 1.0, 0.0)
    uy = _linear(mesh, 0.0, 1.0)
    assert ux @ (A @ ux) == pytest.approx(k11.sum() * area, rel=1e-13)
    assert uy @ (A @ uy) == pytest.approx(k22.sum() * area, rel=1e-13)


def test_stiffness_constant_nullspace():
    mesh = build_fine_mesh(6, 6)
    A = assemble_stiffness(mesh, CoefficientField(np.ones(mesh.n_cells)))
    ones = np.ones(mesh.n_nodes)
    assert np.abs(A @ ones).max() < 1e-13


def test_mass_matrix_exact_moments():
    mesh = build_fine_mesh(7, 9)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    x = mesh.node_coords[:, 0]
    assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-14)
    assert x @ (M @ x) == pytest.approx(1.0 / 3.0, rel=1e-13)  # int x^2
    assert x @ (M @ ones) == pytest.approx(0.5, rel=1e-13)     # int x


def test_mass_weight_variants():
    mesh = build_fine_mesh(4, 4)
    w = np.arange(1.0, mesh.n_cells + 1.0)
    M1 = assemble_mass(mesh, weight=w)
    M2 = assemble_mass(mesh, weight=CoefficientField(w))
    assert np.abs((M1 - M2).toarray()).max() == 0.0
    ones = np.ones(mesh.n_nodes)
    assert ones @ (M1 @ ones) == pytest.approx(w.sum() / 16.0, rel=1e-13)
    with pytest.raises(ValueError):
        assemble_mass(mesh, weight=CoefficientField(np.ones((16, 2))))
    with pytest.raises(ValueError):
        assemble_mass(mesh, weight=np.ones(5))


def test_mass_triangle_weight():
    mesh = build_fine_mesh(3, 3)
    tw = np.arange(1.0, 2 * mesh.n_cells + 1.0)
    M = assemble_mass(mesh, triangle_weight=tw)
    ones = np.ones(mesh.n_nodes)
    tri_area = 0.5 / 9.0
    assert ones @ (M @ ones) == pytest.approx(tw.sum() * tri_area, rel=1e-13)


@pytest.mark.parametrize("node", [(0, 2), (2, 2)], ids=["edge", "interior"])
def test_region_assembly_is_the_global_matrix_at_interior_rows(node):
    # a node off the box boundary has every triangle inside the box, so its
    # row of the region's Neumann matrix is its global row, bit for bit
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e4)
    region = coarse.neighborhoods[coarse.coarse_node_id(*node)]
    inner = np.ones(region.n_nodes, dtype=bool)
    inner[region.local_index(fine, region.boundary_nodes)] = False
    rows = region.nodes[inner]
    for local, whole in [
            (assemble_stiffness(fine, kappa, region=region),
             assemble_stiffness(fine, kappa)),
            (assemble_mass(fine, weight=kappa, region=region),
             assemble_mass(fine, weight=kappa))]:
        assert local.shape == (region.n_nodes, region.n_nodes)
        assert whole[rows].nnz == whole[rows][:, region.nodes].nnz
        assert np.array_equal(local[inner].toarray(),
                              whole[rows][:, region.nodes].toarray())
    A = assemble_stiffness(fine, kappa, region=region)
    assert np.abs(A @ np.ones(region.n_nodes)).max() <= 1e-12 * np.abs(A).max()


def test_load_vector():
    mesh = build_fine_mesh(6, 4)
    b = assemble_load(mesh, 2.0)
    assert b.sum() == pytest.approx(2.0, rel=1e-14)  # int f over unit square
    per_cell = np.full(mesh.n_cells, 3.0)
    b2 = assemble_load(mesh, per_cell)
    assert b2.sum() == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        assemble_load(mesh, np.ones(7))


def apply_dirichlet(A, b, mesh, bc) -> tuple:
    """Symmetric Dirichlet elimination: identity rows/cols, rhs correction.
    The slow reference path that reduce_dirichlet is checked against."""
    if A.shape[0] != len(b):
        raise ValueError("matrix and rhs sizes differ")
    bnd = mesh.boundary_nodes
    g = bc.values(mesh, bnd)
    bb = b - A[:, bnd] @ g
    bb[bnd] = g
    A = A.tolil(copy=True)
    A[bnd, :] = 0.0
    A[:, bnd] = 0.0
    A[bnd, bnd] = 1.0
    return A.tocsr(), bb


def test_dirichlet_paths_agree():
    mesh = build_fine_mesh(6, 6)
    rng = np.random.default_rng(2)
    kappa = CoefficientField(rng.uniform(1.0, 50.0, mesh.n_cells))
    A = assemble_stiffness(mesh, kappa)
    b = assemble_load(mesh, 1.0)
    bc = BoundaryCondition(lambda x, y: x * x - y)
    Ad, bd = apply_dirichlet(A, b, mesh, bc)
    import scipy.sparse.linalg as spla
    u1 = spla.spsolve(Ad.tocsc(), bd)
    A_ff, b_f, fr, lift = reduce_dirichlet(A, b, mesh, bc)
    u2 = lift.copy()
    u2[fr] += spla.spsolve(A_ff.tocsc(), b_f)
    assert np.abs(u1 - u2).max() < 1e-10


def test_free_nodes_complement_boundary():
    mesh = build_fine_mesh(5, 5)
    fr = free_nodes(mesh)
    assert len(fr) + len(mesh.boundary_nodes) == mesh.n_nodes
    assert not np.intersect1d(fr, mesh.boundary_nodes).size


def test_solve_fine_reproduces_linear_solution():
    # u = x + y is harmonic for constant kappa and lies in the P1 space,
    # so the discrete solution matches it exactly
    mesh = build_fine_mesh(9, 9)
    kappa = CoefficientField(np.full(mesh.n_cells, 4.0))
    bc = BoundaryCondition(lambda x, y: x + y)
    u, A, M = solve_fine(mesh, kappa, 0.0, bc)
    want = _linear(mesh, 1.0, 1.0)
    assert np.abs(u - want).max() < 1e-11


def test_norms_and_relative_errors():
    mesh = build_fine_mesh(4, 4)
    kappa = CoefficientField(np.ones(mesh.n_cells))
    A = assemble_stiffness(mesh, kappa)
    M = assemble_mass(mesh, weight=kappa)
    u = _linear(mesh, 1.0, 0.0)
    z = np.zeros(mesh.n_nodes)
    e, m = norms(u, z, A, M)
    assert e == pytest.approx(1.0, rel=1e-13)
    assert m == pytest.approx(1.0 / 3.0, rel=1e-13)
    rep = relative_errors(1.1 * u, u, A, M)
    assert rep.relative
    assert rep.energy_sq == pytest.approx(0.01, rel=1e-10)
    assert rep.as_percent()[0] == pytest.approx(1.0, rel=1e-10)
    rep0 = relative_errors(u, z, A, M)
    assert not rep0.relative
    with pytest.raises(ValueError):
        norms(u, z[:-1], A, M)
