"""Partition-of-unity families: partition identity, support, and energy
ordering."""

import numpy as np
import pytest
import scipy.sparse as sp

import gmsfem.pou as pou_module

from gmsfem.coeff import CoefficientField, cell_box_from_coords
from gmsfem.fem import _triangle_geometry, assemble_mass, assemble_stiffness
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.pou import (bilinear_pou, energy_min_pou, multiscale_pou,
                        pou_gradient_weight)
from gmsfem.solvers import NumericalError
from gmsfem.spaces import LocalRegion
from pou_oracles import (ORACLE_SIZES, chi_dense, dense_chi,
                         dense_gradient_weight, looped_energy_min_pou,
                         looped_multiscale_pou, pou_energy, pou_problem)


@pytest.fixture(scope="module")
def setup():
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e3)
    return fine, coarse, kappa


def _all_pous(coarse, kappa):
    return {
        "bilinear": bilinear_pou(coarse),
        "multiscale": multiscale_pou(coarse, kappa),
        "energy-minimizing": energy_min_pou(coarse, kappa),
    }


def test_partition_identity(setup):
    fine, coarse, kappa = setup
    for name, pou in _all_pous(coarse, kappa).items():
        assert pou.sum_defect() <= 1e-12, name
        assert pou.kind == name


def test_support_contained_in_neighborhood(setup):
    fine, coarse, kappa = setup
    for name, pou in _all_pous(coarse, kappa).items():
        for nb in coarse.neighborhoods:
            outside = np.setdiff1d(np.arange(fine.n_nodes), nb.nodes)
            leak = np.abs(chi_dense(pou, nb.label)[outside]).max()
            assert leak == 0.0, (name, nb.label)


def test_bilinear_is_nodal(setup):
    fine, coarse, kappa = setup
    pou = bilinear_pou(coarse)
    fid = coarse.coarse_node_fine_ids
    vals = dense_chi(pou)[np.arange(coarse.N_v), fid]
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_energy_ordering(setup):
    fine, coarse, kappa = setup
    pous = _all_pous(coarse, kappa)
    e = {k: pou_energy(p, kappa) for k, p in pous.items()}
    assert e["energy-minimizing"] <= e["multiscale"] * (1 + 1e-12)
    assert e["multiscale"] <= e["bilinear"] * (1 + 1e-12)


def test_energy_min_is_constrained_minimum(setup):
    # any feasible perturbation (zero sum, supported where each chi may be
    # nonzero) must not decrease the total energy
    fine, coarse, kappa = setup
    pou = energy_min_pou(coarse, kappa)
    A = assemble_stiffness(fine, kappa)
    base = pou_energy(pou, kappa)
    rng = np.random.default_rng(0)
    i, j = 6, 7  # adjacent interior coarse nodes
    fi = fine.free_nodes_of_cell_box(*coarse.neighborhoods[i].cell_box)
    fj = fine.free_nodes_of_cell_box(*coarse.neighborhoods[j].cell_box)
    shared = np.intersect1d(fi, fj)
    assert len(shared) > 0
    for _ in range(5):
        d = np.zeros(fine.n_nodes)
        d[shared] = rng.standard_normal(len(shared))
        chi = dense_chi(pou)
        chi[i] += 1e-3 * d
        chi[j] -= 1e-3 * d  # keeps the sum exactly one
        perturbed = float(sum(c @ (A @ c) for c in chi))
        assert perturbed >= base - 1e-9 * base


def test_gradient_weight_totals_energy(setup):
    fine, coarse, kappa = setup
    for name, pou in _all_pous(coarse, kappa).items():
        w = pou_gradient_weight(pou, kappa, np.arange(fine.n_cells))
        _, _, area = _triangle_geometry(fine, np.arange(2 * fine.n_cells))
        assert float((w * area).sum()) == pytest.approx(
            pou_energy(pou, kappa), rel=1e-10), name


def test_gradient_weight_tensor_field(setup):
    fine, coarse, _ = setup
    rng = np.random.default_rng(4)
    tens = CoefficientField(rng.uniform(1.0, 5.0, (fine.n_cells, 2)))
    pou = bilinear_pou(coarse)
    w = pou_gradient_weight(pou, tens, np.arange(fine.n_cells))
    assert w.shape == (2 * fine.n_cells,)
    assert np.all(w >= 0)


@pytest.fixture(scope="module", params=ORACLE_SIZES,
                ids=lambda p: f"{p[0]}/{p[1]}")
def sized(request):
    return pou_problem(*request.param)


def test_local_values_match_dense_chi(sized):
    fine, coarse, _, pous = sized
    for name, pou in pous.items():
        chi = dense_chi(pou)
        for i, nb in enumerate(coarse.neighborhoods):
            assert np.array_equal(chi[i][nb.nodes], pou.local[i]), name
            assert np.array_equal(pou.at(i, np.arange(fine.n_nodes)), chi[i])
        assert pou.sum_defect() == float(np.abs(chi.sum(axis=0) - 1.0).max())


def test_gradient_weight_matches_dense_oracle(sized):
    fine, coarse, kappa, pous = sized
    target = LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, 0.4, 0.6, 0.4, 0.6))
    cell_sets = ([nb.cells for nb in coarse.neighborhoods]
                 + [np.arange(fine.n_cells), target.cells])
    for name, pou in pous.items():
        for cells in cell_sets:
            assert np.array_equal(pou_gradient_weight(pou, kappa, cells),
                                  dense_gradient_weight(pou, kappa, cells)), name


def test_energy_min_matches_the_per_neighborhood_loop(sized):
    _, coarse, kappa, pous = sized
    looped = looped_energy_min_pou(coarse, kappa)
    for mine, theirs in zip(pous["energy-minimizing"].local, looped.local):
        assert np.array_equal(mine, theirs)


def test_multiscale_matches_the_per_block_loop(sized):
    _, coarse, kappa, pous = sized
    looped = looped_multiscale_pou(coarse, kappa)
    for mine, theirs in zip(pous["multiscale"].local, looped.local):
        assert np.array_equal(mine, theirs)


def test_energy_min_names_a_singular_neighborhood(setup, monkeypatch):
    # zero the stiffness rows and columns inside coarse cell 5; of the
    # neighborhoods 6, 7, 11 and 12 that hold them, 6 is factored first
    fine, coarse, kappa = setup
    keep = np.ones(fine.n_nodes)
    keep[fine.interior_nodes_of_cell_box(*coarse.block_node_box(5))] = 0.0
    D = sp.diags(keep)
    monkeypatch.setattr(pou_module, "assemble_stiffness",
                        lambda f, k: (D @ assemble_stiffness(f, k) @ D).tocsr())
    with pytest.raises(NumericalError, match="^neighborhood 6: "):
        energy_min_pou(coarse, kappa)


def test_local_storage_holds_one_value_per_neighborhood_node():
    fine = build_fine_mesh(40, 40)
    coarse = build_coarse_mesh(fine, 8, 8)
    kappa = channels_and_inclusions(fine, 1e3)
    dense_size = coarse.N_v * fine.n_nodes
    for name, pou in _all_pous(coarse, kappa).items():
        arrays = []
        for key, value in vars(pou).items():
            if key == "coarse":
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                arrays += [v for v in value if isinstance(v, np.ndarray)]
        assert all(a.size < dense_size for a in arrays), name
        assert sum(a.size for a in arrays) == sum(
            nb.n_nodes for nb in coarse.neighborhoods), name
