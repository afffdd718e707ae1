"""Picard iteration with the blockwise-frozen exponential coefficient."""

import warnings

import numpy as np
import pytest

from gmsfem.coeff import CoefficientField
from gmsfem.fem import BoundaryCondition, assemble_load, assemble_mass, \
    assemble_stiffness, relative_errors
from gmsfem.coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from gmsfem.fields import channels_and_inclusions, channels_and_inclusions_alt
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.nonlinear import (NonlinearCoefficient, block_averages,
                              build_nonlinear_offline, cellwise_parameter,
                              node_averages, picard_solve)
from gmsfem.pou import multiscale_pou
from gmsfem.studies import fine_picard_reference

BC = BoundaryCondition(lambda x, y: x + y)


@pytest.fixture(scope="module")
def setup():
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    nl = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, 1e3),
        kappa2=channels_and_inclusions_alt(fine, 1e3),
        alpha=1.0)
    return fine, coarse, nl


def test_nonlinear_coefficient_validation(setup):
    fine, _, _ = setup
    k = channels_and_inclusions(fine, 10.0)
    with pytest.raises(ValueError):
        NonlinearCoefficient(k, CoefficientField(np.ones(4)), alpha=1.0)
    with pytest.raises(ValueError):
        NonlinearCoefficient(k, k, alpha=1.0, lam0=0.0)


def test_at_value(setup):
    fine, _, nl = setup
    f = nl.at_value(0.5)
    want = nl.kappa1.values + np.exp(0.5) * nl.kappa2.values
    assert np.allclose(f.values, want, rtol=1e-15)
    per_cell = np.linspace(0.0, 1.0, fine.n_cells)
    f2 = nl.at_value(per_cell)
    want2 = nl.kappa1.values + np.exp(per_cell) * nl.kappa2.values
    assert np.allclose(f2.values, want2, rtol=1e-15)


def test_averages_of_constant(setup):
    fine, coarse, _ = setup
    u = np.full(fine.n_nodes, 3.5)
    assert np.allclose(block_averages(coarse, u), 3.5, atol=1e-12)
    assert np.allclose(node_averages(coarse, u), 3.5, atol=1e-12)


def test_cellwise_parameter_scatter(setup):
    fine, coarse, _ = setup
    vals = np.arange(float(coarse.n_blocks))
    cells = cellwise_parameter(coarse, vals)
    for K in range(coarse.n_blocks):
        in_block = fine.cells_in_box(*coarse.block_node_box(K))
        assert np.all(cells[in_block] == vals[K])


def test_alpha_zero_is_bit_exact_linear(setup):
    # with alpha = 0 the coefficient never depends on the iterate, so the
    # Picard solve must terminate immediately and coincide bitwise with
    # the one linear multiscale solve built through the same offline path
    fine, coarse, _ = setup
    nl0 = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, 1e3),
        kappa2=channels_and_inclusions_alt(fine, 1e3),
        alpha=0.0)
    samples = np.linspace(0.0, 2.0, 5)
    kappa = nl0.at_value(0.0)  # any value gives the same field
    pou = multiscale_pou(coarse, kappa)
    state = picard_solve(coarse, nl0, 1.0, BC, pou, samples,
                         snap_per_sample=4, offline_count=4)
    assert state.converged and state.iterations == 1
    assert state.updates[-1] == 0.0

    offline = build_nonlinear_offline(coarse, nl0, samples, 4, 4)
    from gmsfem.spaces import build_online
    spaces = {}
    for i, off in offline.items():
        region = off.region
        a_mat = assemble_mass(fine, weight=kappa, restrict_to=region.nodes,
                              cells=region.cells)
        s_mat = assemble_stiffness(fine, kappa, restrict_to=region.nodes,
                                   cells=region.cells)
        spaces[i] = build_online(off, a_mat, s_mat, count=off.dim)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    sol = solve_coarse_galerkin(fine, A, b, BC, basis)
    assert np.array_equal(state.u, sol.u)


def test_shared_snapshot_stage_matches_offline_built_inside(setup):
    # the fast path (one snapshot stage, reduced per offline count and
    # passed in) must give the very bits of the slow path, which builds
    # the whole offline space inside picard_solve
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    offlines = build_nonlinear_offline(coarse, nl, samples, 4, [3, 5])
    for count, offline in zip((3, 5), offlines):
        fast = picard_solve(coarse, nl, 1.0, BC, pou, samples,
                            offline=offline)
        slow = picard_solve(coarse, nl, 1.0, BC, pou, samples,
                            snap_per_sample=4, offline_count=count)
        assert fast.dims == slow.dims
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.u, slow.u)


def test_fine_reference_alpha_zero_matches_direct_solve(setup):
    fine, _, _ = setup
    nl0 = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, 1e3),
        kappa2=channels_and_inclusions_alt(fine, 1e3),
        alpha=0.0)
    u = fine_picard_reference(fine, nl0, 1.0, BC)
    u_direct, _, _ = solve_fine(fine, nl0.at_value(0.0), 1.0, BC)
    assert np.abs(u - u_direct).max() < 1e-12


def test_picard_converges_and_approximates(setup):
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 6)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    state = picard_solve(coarse, nl, 1.0, BC, pou, samples,
                         snap_per_sample=6, offline_count=6)
    assert state.converged
    assert state.iterations <= 8
    assert state.updates[-1] <= 1e-6
    u_ref = fine_picard_reference(fine, nl, 1.0, BC)
    nxp = fine.nx + 1
    idx = np.arange(fine.n_cells)
    a = (idx // fine.nx) * nxp + (idx % fine.nx)
    cells = 0.25 * (u_ref[a] + u_ref[a + 1] + u_ref[a + nxp] + u_ref[a + nxp + 1])
    k_ref = nl.at_value(cells)
    A_k = assemble_stiffness(fine, k_ref)
    M_k = assemble_mass(fine, weight=k_ref)
    err = relative_errors(state.u, u_ref, A_k, M_k)
    assert err.energy_sq < 0.25  # 50% relative energy error budget


def test_clamp_warns_when_samples_too_narrow(setup):
    fine, coarse, nl = setup
    samples = np.array([0.0, 1e-6])  # iterates leave this range at once
    pou = multiscale_pou(coarse, nl.at_value(0.0))
    with pytest.warns(RuntimeWarning, match="clamped"):
        picard_solve(coarse, nl, 1.0, BC, pou, samples,
                     snap_per_sample=3, offline_count=3, max_it=2)
