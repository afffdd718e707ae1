"""Conforming coarse coupling, parametric operator, and the discontinuous
variant."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from gmsfem.coeff import CoefficientField, evaluate
from gmsfem.coupling import (assemble_dg, build_affine_operator,
                             build_coarse_basis, build_dg_basis,
                             coarse_dirichlet_lift, dg_expand, dg_rhs,
                             solve_coarse_galerkin, solve_coarse_pg,
                             solve_fine, solve_multiscale)
from gmsfem.fem import (BoundaryCondition, assemble_load, assemble_stiffness,
                        free_nodes, relative_errors)
from gmsfem.fields import affine_four_term, channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.pou import multiscale_pou
from gmsfem.spaces import offline_spaces

BC = BoundaryCondition(lambda x, y: x + y)


@pytest.fixture(scope="module")
def setup():
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e3)
    pou = multiscale_pou(coarse, kappa)
    return fine, coarse, kappa, pou


def test_basis_support_and_boundary_rows(setup):
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=3)
    basis = build_coarse_basis(coarse, pou, spaces)
    assert basis.dim == 3 * coarse.N_v
    P = basis.P.toarray()
    assert np.abs(P[fine.boundary_nodes]).max() == 0.0
    for col, (i, j) in enumerate(basis.index):
        nb = coarse.neighborhoods[i]
        outside = np.setdiff1d(np.arange(fine.n_nodes), nb.nodes)
        assert np.abs(P[outside, col]).max() == 0.0


def test_empty_basis_raises(setup):
    fine, coarse, kappa, pou = setup
    with pytest.raises(ValueError):
        build_coarse_basis(coarse, pou, {})


def test_lift_matches_boundary_data(setup):
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=2)
    basis = build_coarse_basis(coarse, pou, spaces)
    lift = coarse_dirichlet_lift(basis, BC)
    want = BC.values(fine, fine.boundary_nodes)
    assert np.abs(lift[fine.boundary_nodes] - want).max() < 1e-14


def test_full_retention_reproduces_fine_solution(setup):
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    u_ref, A_k, M_k = solve_fine(fine, kappa, 1.0, BC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve_coarse_galerkin(fine, A, b, BC, basis)
    err = relative_errors(sol.u, u_ref, A_k, M_k)
    assert err.energy_sq < 1e-16


def test_galerkin_energy_optimality(setup):
    # the Galerkin solution minimizes the energy error over the coarse
    # space, so perturbing the dofs can only increase it
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=3)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    u_ref, A_k, _ = solve_fine(fine, kappa, 1.0, BC)
    sol = solve_coarse_galerkin(fine, A, b, BC, basis)
    d0 = sol.u - u_ref
    e0 = float(d0 @ (A_k @ d0))
    fr = free_nodes(fine)
    rng = np.random.default_rng(1)
    for _ in range(5):
        dc = 1e-2 * rng.standard_normal(basis.dim)
        u_pert = sol.u.copy()
        u_pert[fr] += basis.P[fr] @ dc
        d = u_pert - u_ref
        assert float(d @ (A_k @ d)) >= e0


def test_petrov_galerkin_with_equal_bases_matches_galerkin(setup):
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=3)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    g = solve_coarse_galerkin(fine, A, b, BC, basis)
    pg = solve_coarse_pg(fine, A, b, BC, basis, basis)
    assert np.abs(g.u - pg.u).max() < 1e-8


def test_petrov_galerkin_dim_mismatch(setup):
    fine, coarse, kappa, pou = setup
    trial = build_coarse_basis(
        coarse, pou, offline_spaces(coarse, kappa, pou=pou, count=3))
    test = build_coarse_basis(
        coarse, pou, offline_spaces(coarse, kappa, pou=pou, count=2))
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    with pytest.raises(ValueError):
        solve_coarse_pg(fine, A, b, BC, trial, test)


def test_solve_multiscale_wrapper(setup):
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=2)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    a = solve_multiscale(fine, kappa, 1.0, BC, basis)
    g = solve_coarse_galerkin(fine, A, b, BC, basis)
    assert np.array_equal(a.u, g.u)


def test_affine_operator_matches_direct_assembly(setup):
    fine, coarse, _, _ = setup
    aff = affine_four_term(fine, 1e3)
    kappa0 = evaluate(aff, aff.parameter([0.5] * 4))
    pou = multiscale_pou(coarse, kappa0)
    spaces = offline_spaces(coarse, kappa0, pou=pou, count=2)
    basis = build_coarse_basis(coarse, pou, spaces)
    op = build_affine_operator(fine, aff, basis)
    mu = aff.parameter([0.9, 0.1, 0.4, 0.7])
    k_mu = evaluate(aff, mu)
    A_mu = assemble_stiffness(fine, k_mu)
    fr = free_nodes(fine)
    P_ff = basis.P[fr]
    want = np.asarray((P_ff.T @ (A_mu[fr][:, fr] @ P_ff)).todense())
    got = op.coarse_matrix(mu)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
    fine_got = op.fine_matrix(mu)
    assert np.abs((fine_got - A_mu[fr][:, fr]).toarray()).max() < 1e-10


# --------------------------------------------------------------------------
# discontinuous coupling


def _dg_setup():
    fine = build_fine_mesh(12, 12)
    coarse = build_coarse_mesh(fine, 3, 3)
    rng = np.random.default_rng(3)
    kappa = CoefficientField(rng.uniform(1.0, 10.0, fine.n_cells))
    cols = []
    for K in range(coarse.n_blocks):
        bn = fine.nodes_in_cell_box(*coarse.block_node_box(K))
        xy = fine.node_coords[bn]
        cols.append(np.column_stack([np.ones(len(bn)), xy[:, 0], xy[:, 1]]))
    basis = build_dg_basis(coarse, cols)
    return fine, coarse, kappa, basis


def test_dg_matrix_symmetric_with_constant_nullspace():
    fine, coarse, kappa, basis = _dg_setup()
    Adg = assemble_dg(basis, kappa)
    assert Adg.shape == (basis.dim, basis.dim)
    assert np.abs(Adg - Adg.T).max() < 1e-12
    # the globally constant function (constant mode on, linears off in
    # every block) is in the kernel: no jumps, no fluxes, no stiffness
    c = np.zeros(basis.dim)
    c[basis.offsets[:-1]] = 1.0
    assert np.abs(Adg @ c).max() < 1e-9 * np.abs(Adg).max()


def test_dg_penalty_part_is_psd():
    fine, coarse, kappa, basis = _dg_setup()
    A1 = assemble_dg(basis, kappa, penalty=4.0)
    A2 = assemble_dg(basis, kappa, penalty=8.0)
    D = A2 - A1  # one extra unit of the penalty form
    w = np.linalg.eigvalsh(0.5 * (D + D.T))
    assert w.min() > -1e-10 * max(abs(w).max(), 1.0)


def test_dg_rhs_and_expand():
    fine, coarse, kappa, basis = _dg_setup()
    b = assemble_load(fine, 1.0)
    rb = dg_rhs(basis, b)
    assert rb.shape == (basis.dim,)
    coeffs = np.arange(1.0, basis.dim + 1.0)
    parts = dg_expand(basis, coeffs)
    assert len(parts) == coarse.n_blocks
    for K, part in enumerate(parts):
        sl = slice(basis.offsets[K], basis.offsets[K + 1])
        assert np.allclose(part, basis.columns[K] @ coeffs[sl])


def test_dg_basis_shape_check():
    fine = build_fine_mesh(8, 8)
    coarse = build_coarse_mesh(fine, 2, 2)
    bad = [np.ones((3, 1)) for _ in range(coarse.n_blocks)]
    with pytest.raises(ValueError):
        build_dg_basis(coarse, bad)
