"""Picard iteration with the blockwise-frozen exponential coefficient."""

import warnings

import numpy as np
import pytest

from gmsfem import nonlinear, spaces
from gmsfem.coeff import CoefficientField
from gmsfem.fem import BoundaryCondition, assemble_load, assemble_mass, \
    assemble_stiffness, relative_errors
from gmsfem.coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from gmsfem.fields import channels_and_inclusions, channels_and_inclusions_alt
from gmsfem.mesh import LocalRegion, build_coarse_mesh, build_fine_mesh
from gmsfem.nonlinear import (NonlinearCoefficient, block_averages,
                              build_nonlinear_offline, cellwise_parameter,
                              node_averages, picard_solve)
from gmsfem.pou import multiscale_pou
from gmsfem.solvers import NumericalError
from gmsfem.spaces import truncate
from gmsfem.studies import fine_picard_reference
from test_spaces import assert_same_eigenvalues

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


def test_averages_match_the_mass_matrix_formula(setup):
    # the average over a cell set S is u @ (M_S 1) / (1' M_S 1)
    fine, coarse, _ = setup
    x, y = fine.node_coords.T
    u = np.sin(3.0 * x) * np.exp(y) + x * y ** 2

    def mass_average(region):
        m = assemble_mass(fine, region=region) @ np.ones(region.n_nodes)
        return float(u[region.nodes] @ m) / float(m.sum())

    blocks = [mass_average(LocalRegion.from_cell_box(fine, coarse.block_node_box(K)))
              for K in range(coarse.n_blocks)]
    nodes = [mass_average(nb) for nb in coarse.neighborhoods]
    assert np.allclose(block_averages(coarse, u), blocks, rtol=1e-13, atol=0)
    assert np.allclose(node_averages(coarse, u), nodes, rtol=1e-13, atol=0)


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
    # the one linear multiscale solve in the same offline space
    fine, coarse, _ = setup
    nl0 = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, 1e3),
        kappa2=channels_and_inclusions_alt(fine, 1e3),
        alpha=0.0)
    samples = np.linspace(0.0, 2.0, 5)
    kappa = nl0.at_value(0.0)  # any value gives the same field
    pou = multiscale_pou(coarse, kappa)
    offline = build_nonlinear_offline(coarse, nl0, samples, 4, 4)
    state = picard_solve(coarse, nl0, 1.0, BC, pou, samples, offline)
    assert state.converged and state.iterations == 1
    assert state.updates[-1] == 0.0

    basis = build_coarse_basis(coarse, pou, offline)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    u = solve_coarse_galerkin(fine, A, b, BC, basis)
    assert np.array_equal(state.u, u)


def test_shared_snapshot_stage_matches_offline_built_inside(setup):
    # truncating one offline build at the largest count must give a build
    # per count, and so the same Picard solve, to 1e-12 relative: a build
    # solves count + 1 leading pairs, which round differently per count
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    top = build_nonlinear_offline(coarse, nl, samples, 4, 5)

    def close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    for count in (3, 5):
        fast = {i: truncate(s, count) for i, s in top.items()}
        slow = build_nonlinear_offline(coarse, nl, samples, 4, count)
        for i in slow:
            assert close(fast[i].columns, slow[i].columns)
            n = len(slow[i].eigenvalues)
            assert_same_eigenvalues(fast[i].eigenvalues[:n], slow[i].eigenvalues)
        a = picard_solve(coarse, nl, 1.0, BC, pou, samples, fast)
        b = picard_solve(coarse, nl, 1.0, BC, pou, samples, slow)
        assert a.dims == b.dims
        assert a.iterations == b.iterations
        assert close(a.u, b.u)


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_snapshot_eigensolves_stay_sparse(setup, monkeypatch):
    # the only dense eigensolves are build_offline's reductions, one per
    # node; the spectral snapshots use the sparse kernel
    fine, coarse, nl = setup
    calls = {"dense": 0, "sparse": 0}
    monkeypatch.setattr(spaces, "full_gen_eig",
                        _counted(calls, "dense", spaces.full_gen_eig))
    monkeypatch.setattr(spaces, "leading_gen_eig",
                        _counted(calls, "sparse", spaces.leading_gen_eig))
    samples = np.linspace(0.0, 2.5, 3)
    build_nonlinear_offline(coarse, nl, samples, 4, 5)
    assert calls["dense"] == coarse.N_v
    assert calls["sparse"] == coarse.N_v * len(samples)


def test_picard_solves_in_the_offline_space(setup, monkeypatch):
    # every step reuses the offline space's coarse basis: no eigensolve,
    # and one basis build for the whole iteration
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    offline = build_nonlinear_offline(coarse, nl, samples, 4, 4)
    calls = {"dense": 0, "sparse": 0, "basis": 0}
    monkeypatch.setattr(spaces, "full_gen_eig",
                        _counted(calls, "dense", spaces.full_gen_eig))
    monkeypatch.setattr(spaces, "leading_gen_eig",
                        _counted(calls, "sparse", spaces.leading_gen_eig))
    monkeypatch.setattr(nonlinear, "build_coarse_basis",
                        _counted(calls, "basis", nonlinear.build_coarse_basis))
    state = picard_solve(coarse, nl, 1.0, BC, pou, samples, offline)
    assert state.iterations > 1
    assert calls == {"dense": 0, "sparse": 0, "basis": 1}


def test_lambda_star_is_the_offline_spaces(setup):
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    offline = build_nonlinear_offline(coarse, nl, samples, 4, 4)
    state = picard_solve(coarse, nl, 1.0, BC, pou, samples, offline)
    want = build_coarse_basis(coarse, pou, offline).lambda_star()
    assert state.lambda_star == want
    assert state.lambda_star > 0


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
                         build_nonlinear_offline(coarse, nl, samples, 6, 6))
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
                     build_nonlinear_offline(coarse, nl, samples, 3, 3),
                     max_it=2)


def test_picard_stops_unconverged_at_max_it(setup):
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    offline = build_nonlinear_offline(coarse, nl, samples, 4, 4)
    state = picard_solve(coarse, nl, 1.0, BC, pou, samples, offline, max_it=2)
    assert not state.converged
    assert state.iterations == 2 and len(state.updates) == 2
    assert state.updates[-1] > 1e-6


def test_picard_raises_on_three_growing_updates(setup, monkeypatch):
    # iterates a * v with v in [0.5, 1] stay inside the sampled range (no
    # clamp) while their relative updates grow: 0.05, 0.12, 0.31, 1.6
    fine, coarse, nl = setup
    samples = np.linspace(0.0, 2.5, 4)
    pou = multiscale_pou(coarse, nl.at_value(1.25))
    offline = build_nonlinear_offline(coarse, nl, samples, 4, 4)
    v = 0.5 + 0.5 * fine.node_coords[:, 0]
    iterates = iter([a * v for a in (2.0, 1.9, 1.7, 1.3, 0.5)])
    monkeypatch.setattr(nonlinear, "solve_coarse_galerkin",
                        lambda *args: next(iterates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no clamp either
        with pytest.raises(NumericalError, match="Picard iteration diverging"):
            picard_solve(coarse, nl, 1.0, BC, pou, samples, offline)
    assert next(iterates, None) is None  # it stopped at the fourth update
