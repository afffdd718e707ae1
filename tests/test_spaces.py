"""Snapshot spaces, offline/online reduction, and mode selection."""

import numpy as np
import pytest
import scipy.sparse as sp

from gmsfem.coeff import CoefficientField
from gmsfem.fem import assemble_mass, assemble_stiffness
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.pou import multiscale_pou, pou_gradient_weight
from gmsfem.solvers import dense_gen_eig
from gmsfem.spaces import (LocalRegion, SnapshotSpace, assemble_a_form,
                           assemble_s_form, build_offline, build_online,
                           count_unbounded, fine_grid_snapshots,
                           harmonic_snapshots, offline_spaces,
                           spectral_snapshots, truncate)


@pytest.fixture(scope="module")
def setup():
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e3)
    pou = multiscale_pou(coarse, kappa)
    nb = coarse.neighborhoods[coarse.coarse_node_id(2, 2)]
    region = LocalRegion.from_neighborhood(nb)
    return fine, coarse, kappa, pou, region


def test_local_region_index_and_embed(setup):
    fine, _, _, _, region = setup
    idx = region.local_index(fine, region.nodes[:5])
    assert np.array_equal(idx, np.arange(5))
    with pytest.raises(ValueError):
        region.local_index(fine, np.array([0]))  # node 0 is outside
    cols = np.ones((region.n_nodes, 2))
    full = region.embed(fine, cols)
    assert full.shape == (fine.n_nodes, 2)
    assert full.sum() == 2 * region.n_nodes


def test_harmonic_snapshots_are_harmonic_and_partition(setup):
    fine, _, kappa, _, region = setup
    snap = harmonic_snapshots(fine, region, [kappa])
    assert snap.M_snap == len(region.boundary_nodes)
    A = assemble_stiffness(fine, kappa, restrict_to=region.nodes,
                           cells=region.cells)
    bnd = region.local_index(fine, region.boundary_nodes)
    interior = np.setdiff1d(np.arange(region.n_nodes), bnd)
    # each column is kappa-harmonic inside the region
    res = (A @ snap.columns)[interior]
    assert np.abs(res).max() < 1e-9
    # unit boundary data sums to one, so the columns sum to one everywhere
    s = snap.columns.sum(axis=1)
    assert np.abs(s - 1.0).max() < 1e-10
    with pytest.raises(ValueError):
        harmonic_snapshots(fine, region, [])


def test_fine_grid_snapshots_identity(setup):
    _, _, _, _, region = setup
    snap = fine_grid_snapshots(region)
    assert snap.M_snap == region.n_nodes
    assert np.array_equal(snap.columns, np.eye(region.n_nodes))


def test_spectral_snapshots_count(setup):
    fine, _, kappa, _, region = setup
    A_t = assemble_mass(fine, weight=kappa, restrict_to=region.nodes,
                        cells=region.cells)
    S_t = assemble_stiffness(fine, kappa, restrict_to=region.nodes,
                             cells=region.cells)
    snap = spectral_snapshots(A_t, S_t, 6, region)
    assert snap.columns.shape == (region.n_nodes, 6)
    assert snap.kind == "local-spectral"
    # skipping the inf-mode count leaves the eigenvectors bit-identical
    _, vecs = dense_gen_eig(np.asarray(A_t.todense()),
                            np.asarray(S_t.todense()))
    assert np.array_equal(snap.columns, vecs[:, :6])


def test_a_form_requires_pou(setup):
    fine, _, kappa, pou, region = setup
    with pytest.raises(ValueError):
        assemble_a_form(fine, region, kappa, "pou_grad_mass", pou=None)
    for form in ("pou_grad_mass", "pou_stiffness", "kappa_mass",
                 "kappa_stiffness"):
        M = assemble_a_form(fine, region, kappa, form, pou)
        assert M.shape == (region.n_nodes, region.n_nodes)
        d = np.abs((M - M.T)).max()
        assert d < 1e-10
    # the gradient weight computed once for all regions gives the same bits
    M = assemble_a_form(fine, region, kappa, "pou_grad_mass", pou)
    w = pou_gradient_weight(pou, kappa)
    M_w = assemble_a_form(fine, region, kappa, "pou_grad_mass", pou, w)
    assert np.array_equal(M.toarray(), M_w.toarray())


def test_offline_reproduces_dense_eigenproblem(setup):
    # with identity snapshots the reduction is exactly the dense pencil
    fine, _, kappa, pou, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, count=8, drop_tol=None)
    lam, _ = dense_gen_eig(np.asarray(a_mat.todense()),
                           np.asarray(s_mat.todense()))
    fin = np.isfinite(off.eigenvalues) & np.isfinite(lam)
    rel = np.abs(off.eigenvalues[fin] - lam[fin]) / np.abs(lam[fin])
    assert rel.max() < 1e-7
    assert np.sum(np.isinf(off.eigenvalues)) == np.sum(np.isinf(lam))
    assert off.dim == 8
    assert off.stage == "offline"
    assert off.selection["snapshot_kind"] == "fine-grid"


def test_threshold_selection(setup):
    fine, _, kappa, pou, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, threshold=0.1)
    lam = off.eigenvalues
    n_inf = int(np.sum(np.isinf(lam)))
    finite = lam[np.isfinite(lam)]
    want = n_inf + int(np.sum(finite >= 0.1 * finite[0]))
    assert off.dim == want
    # every kept finite eigenvalue is above the cut, the first excluded below
    assert off.lambda_star() < 0.1 * finite[0]


def test_online_from_offline(setup):
    fine, _, kappa, pou, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, count=10)
    on = build_online(off, a_mat, s_mat, count=4)
    assert on.dim == 4 and on.stage == "online"
    # online columns stay inside the offline span
    proj, *_ = np.linalg.lstsq(off.columns, on.columns, rcond=None)
    assert np.abs(off.columns @ proj - on.columns).max() < 1e-8
    with pytest.raises(ValueError):
        build_online(on, a_mat, s_mat, count=2)


def test_truncate(setup):
    fine, _, kappa, _, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, count=6)
    t = truncate(off, 3)
    assert t.dim == 3
    assert np.array_equal(t.columns, off.columns[:, :3])
    assert t.lambda_star() == off.eigenvalues[3]
    with pytest.raises(ValueError):
        truncate(t, 5)


def test_lambda_star_full_retention(setup):
    fine, _, kappa, _, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, count=None, drop_tol=None)
    assert off.lambda_star() == 0.0


def _hand_written_offline(fine, coarse, kappa, pou, snapshots, sel):
    spaces = {}
    for i, nb in enumerate(coarse.neighborhoods):
        region = LocalRegion.from_neighborhood(nb)
        snap = (fine_grid_snapshots(region) if snapshots == "fine"
                else harmonic_snapshots(fine, region, [kappa]))
        spaces[i] = build_offline(
            snap, assemble_a_form(fine, region, kappa, "pou_grad_mass", pou),
            assemble_s_form(fine, region, kappa), **sel)
    return spaces


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("snapshots,sel", [
    ("fine", {"count": 3}), ("fine", {"threshold": 0.2}),
    ("harmonic", {"count": 3}), ("harmonic", {"threshold": 0.2})])
def test_offline_spaces_match_the_hand_written_loop(setup, snapshots, sel,
                                                    workers):
    fine, coarse, kappa, pou, _ = setup
    want = _hand_written_offline(fine, coarse, kappa, pou, snapshots, sel)
    got = offline_spaces(coarse, kappa, snapshots, pou=pou, workers=workers,
                         **sel)
    assert list(got) == list(want)
    for i, space in got.items():
        assert np.array_equal(space.columns, want[i].columns)
        assert np.array_equal(space.eigenvalues, want[i].eigenvalues)


@pytest.mark.parametrize("workers", [1, 2])
def test_offline_spaces_spectral_union_matches_the_hand_written_loop(
        setup, workers):
    fine, coarse, kappa, _, _ = setup
    samples = [kappa, CoefficientField(np.sqrt(kappa.values))]
    avg = CoefficientField(np.mean([f.values for f in samples], axis=0))
    counts = [2, 4]
    got = offline_spaces(coarse, avg, "spectral", "kappa_mass", count=counts,
                         samples=samples, snap_per_sample=3, workers=workers)
    assert len(got) == len(counts)
    for i, nb in enumerate(coarse.neighborhoods):
        region = LocalRegion.from_neighborhood(nb)
        cols = [spectral_snapshots(
                    assemble_mass(fine, weight=f, restrict_to=region.nodes,
                                  cells=region.cells),
                    assemble_stiffness(fine, f, restrict_to=region.nodes,
                                       cells=region.cells), 3, region).columns
                for f in samples]
        snap = SnapshotSpace(region=region, columns=np.hstack(cols),
                             kind="local-spectral")
        a_mat = assemble_mass(fine, weight=avg, restrict_to=region.nodes,
                              cells=region.cells)
        s_mat = assemble_stiffness(fine, avg, restrict_to=region.nodes,
                                   cells=region.cells)
        for spaces, count in zip(got, counts):
            want = build_offline(snap, a_mat, s_mat, count=count)
            assert np.array_equal(spaces[i].columns, want.columns)
            assert np.array_equal(spaces[i].eigenvalues, want.eigenvalues)


def test_count_unbounded_handcrafted():
    inf = np.inf
    hi = np.array([inf, 200.0, 30.0, 5.0])
    lo = np.array([inf, 1.0, 1.0, 4.0])
    # growth factor 10: the inf mode and the two fast growers count,
    # position 3 stops the scan
    assert count_unbounded(hi, lo, 10.0) == 3
    assert count_unbounded(hi, lo, 250.0) == 1
    # an inf mode at the high contrast always counts
    assert count_unbounded(np.array([inf, 2.0]), np.array([1.0, 2.0]), 10.0) == 1
    assert count_unbounded(np.array([5.0]), np.array([4.0]), 10.0) == 0
