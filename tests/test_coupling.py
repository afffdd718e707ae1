"""Conforming coarse coupling and the parametric operator."""

import warnings

import numpy as np
import pytest

from gmsfem.coeff import evaluate
from gmsfem.coupling import (_solve_compressed, build_affine_operator,
                             build_coarse_basis, coarse_dirichlet_lift,
                             solve_coarse_galerkin, solve_fine)
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
    # columns run over the nodes in order, each node's modes in order
    index = [(i, j) for i in sorted(spaces) for j in range(spaces[i].dim)]
    for col, (i, j) in enumerate(index):
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
        u = solve_coarse_galerkin(fine, A, b, BC, basis)
    err = relative_errors(u, u_ref, A_k, M_k)
    assert err.energy_sq < 1e-16


def test_dependent_basis_takes_the_qr_path():
    # 25 neighborhoods x 20 modes on 529 free nodes: the basis fits, but its
    # columns are numerically dependent and the coarse matrix is not SPD
    fine = build_fine_mesh(24, 24)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e6)
    pou = multiscale_pou(coarse, kappa)
    basis = build_coarse_basis(coarse, pou,
                               offline_spaces(coarse, kappa, pou=pou, count=20))
    fr = free_nodes(fine)
    assert basis.dim <= len(fr)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    with pytest.warns(RuntimeWarning, match="coarse basis is rank deficient"):
        u = solve_coarse_galerkin(fine, A, b, BC, basis)
    want = coarse_dirichlet_lift(basis, BC)
    b_f = (b - A @ want)[fr]
    want[fr] += _solve_compressed(basis.P[fr].toarray(), A[fr][:, fr].tocsr(), b_f)
    assert np.array_equal(u, want)


def test_galerkin_energy_optimality(setup):
    # the Galerkin solution minimizes the energy error over the coarse
    # space, so perturbing the dofs can only increase it
    fine, coarse, kappa, pou = setup
    spaces = offline_spaces(coarse, kappa, pou=pou, count=3)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    u_ref, A_k, _ = solve_fine(fine, kappa, 1.0, BC)
    u = solve_coarse_galerkin(fine, A, b, BC, basis)
    d0 = u - u_ref
    e0 = float(d0 @ (A_k @ d0))
    fr = free_nodes(fine)
    rng = np.random.default_rng(1)
    for _ in range(5):
        dc = 1e-2 * rng.standard_normal(basis.dim)
        u_pert = u.copy()
        u_pert[fr] += basis.P[fr] @ dc
        d = u_pert - u_ref
        assert float(d @ (A_k @ d)) >= e0


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
