"""P1 assembly against closed-form integrals.

With cellwise-constant coefficients every element integral is exact, so
linear and quadratic test functions give machine-precision oracles.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from gmsfem import fem
from gmsfem.coeff import CoefficientField
from gmsfem.fem import (BoundaryCondition, assemble_load, assemble_mass,
                        assemble_stiffness, free_nodes, norms,
                        reduce_dirichlet, relative_errors)
from gmsfem.coupling import solve_fine
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import LocalRegion, build_coarse_mesh, build_fine_mesh
from gmsfem.pou import multiscale_pou
from gmsfem.spaces import A_FORMS, assemble_a_form, offline_spaces


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


@pytest.mark.parametrize("box", [
    lambda coarse: coarse.neighborhoods[coarse.coarse_node_id(0, 2)].cell_box,
    lambda coarse: coarse.neighborhoods[coarse.coarse_node_id(2, 2)].cell_box,
    lambda coarse: coarse.block_node_box(5)], ids=["edge", "interior", "cell"])
def test_region_assembly_is_the_global_matrix_at_interior_rows(box):
    # a node off the box boundary has every triangle inside the box, so its
    # row of the region's Neumann matrix is its global row, bit for bit:
    # the premise of fem.harmonic_extension on the global stiffness, which
    # multiscale_pou solves in every coarse-cell box
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e4)
    region = LocalRegion.from_cell_box(fine, box(coarse))
    inner = np.ones(region.n_nodes, dtype=bool)
    inner[region.local_index(fine, region.boundary_nodes)] = False
    rows = region.nodes[inner]
    assert np.array_equal(rows, fine.interior_nodes_of_cell_box(*region.cell_box))
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


def coo_assembly(mesh, tris, local_mats, region):
    """The scatter that fem._assemble replaces: COO triplets of the element
    matrices, summed by scipy's COO->CSR conversion."""
    conn = mesh.triangles[tris]
    n = mesh.n_nodes
    if region is not None:
        conn = mesh.box_position(region.cell_box, conn)
        n = region.n_nodes
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    return sp.coo_matrix((local_mats.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def same_bits(a, b) -> bool:
    """Equal structure, index dtypes and data bits, the sign of a zero too."""
    return (a.shape == b.shape and a.indptr.dtype == b.indptr.dtype
            and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.int64), b.data.view(np.int64)))


@pytest.mark.parametrize("fine_n, coarse_n", [(20, 4), (30, 3), (60, 6)])
def test_pattern_assembly_is_the_coo_scatter_bit_for_bit(fine_n, coarse_n, monkeypatch):
    # every assembly below, the padded boxes of the pou_stiffness form
    # included, is checked against the COO->CSR scatter of the same terms
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    kappa = channels_and_inclusions(fine, 1e6)
    rng = np.random.default_rng(fine_n)
    tensor = CoefficientField(np.column_stack([kappa.k11(),
                                               rng.uniform(1.0, 1e3, fine.n_cells)]))
    pou = multiscale_pou(coarse, kappa)
    checked, pattern = [], fem._assemble

    def spy(mesh, tris, local_mats, region):
        got = pattern(mesh, tris, local_mats, region)
        checked.append((None if region is None else region.cell_box,
                        same_bits(got, coo_assembly(mesh, tris, local_mats, region))))
        return got

    monkeypatch.setattr(fem, "_assemble", spy)
    for region in [None] + coarse.neighborhoods:
        n_tris = 2 * (fine.n_cells if region is None else len(region.cells))
        assemble_stiffness(fine, kappa, region=region)
        assemble_stiffness(fine, tensor, region=region)
        assemble_mass(fine, weight=kappa, region=region)
        assemble_mass(fine, region=region)
        assemble_mass(fine, region=region, triangle_weight=rng.uniform(0.0, 1.0, n_tris))
        if region is not None:
            for a_form in A_FORMS:
                assemble_a_form(fine, region, kappa, a_form, pou)
    assert [box for box, ok in checked if not ok] == []
    boxes = {box for box, _ in checked}
    padded = {(max(x0 - 1, 0), min(x1 + 1, fine_n), max(y0 - 1, 0), min(y1 + 1, fine_n))
              for x0, x1, y0, y1 in (nb.cell_box for nb in coarse.neighborhoods)}
    assert boxes == {None} | {nb.cell_box for nb in coarse.neighborhoods} | padded


def test_offline_spaces_cache_one_pattern_per_box_shape():
    fine = build_fine_mesh(24, 24)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e4)
    pou = multiscale_pou(coarse, kappa)
    offline_spaces(coarse, kappa, pou=pou, count=3)
    shapes = {(x1 - x0, y1 - y0) for x0, x1, y0, y1 in
              (nb.cell_box for nb in coarse.neighborhoods)}
    assert len(shapes) == 4
    # the global stiffness of multiscale_pou has the grid's own shape
    assert set(fine.cache) == shapes | {(24, 24), "geometry"}


def test_threads_on_a_fresh_mesh_assemble_the_serial_bits():
    # concurrent first use may build a pattern twice, each one whole
    def forms(mesh, kappa, region):
        return (assemble_stiffness(mesh, kappa, region=region),
                assemble_mass(mesh, weight=kappa, region=region))

    meshes = [build_fine_mesh(20, 20) for _ in range(2)]
    coarses = [build_coarse_mesh(m, 4, 4) for m in meshes]
    kappa = channels_and_inclusions(meshes[0], 1e5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            threaded = list(pool.map(lambda nb: forms(meshes[0], kappa, nb),
                                     coarses[0].neighborhoods, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    serial = [forms(meshes[1], kappa, nb) for nb in coarses[1].neighborhoods]
    assert len(threaded) == 25
    assert all(same_bits(a, b) for pair in zip(threaded, serial) for a, b in zip(*pair))
    assert set(meshes[0].cache) == set(meshes[1].cache)


def test_load_vector_is_the_add_at_sum_bit_for_bit():
    fine = build_fine_mesh(30, 30)
    kappa = channels_and_inclusions(fine, 1e4)
    _, _, area = fem._triangle_geometry(fine, np.arange(2 * fine.n_cells))
    for f, per_tri in ((0.7, np.full(2 * fine.n_cells, 0.7)),
                       (kappa.values, np.repeat(kappa.values, 2))):
        want = np.zeros(fine.n_nodes)
        np.add.at(want, fine.triangles.ravel(), np.repeat(per_tri * area / 3.0, 3))
        assert np.array_equal(assemble_load(fine, f).view(np.int64), want.view(np.int64))


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
