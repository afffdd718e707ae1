"""Snapshot spaces, offline/online reduction, and mode selection."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from gmsfem import solvers, spaces
from gmsfem.coeff import CoefficientField, cell_box_from_coords, evaluate
from gmsfem.coupling import build_coarse_basis, coarse_dirichlet_lift
from gmsfem.fem import (BoundaryCondition, _cells_to_triangles, assemble_mass,
                        assemble_stiffness)
from gmsfem.fields import (affine_four_term, channels_and_inclusions,
                           channels_and_inclusions_alt)
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.nonlinear import NonlinearCoefficient
from gmsfem.pou import multiscale_pou, pou_gradient_weight
from gmsfem.solvers import (NumericalError, dense_gen_eig, full_gen_eig,
                            leading_gen_eig)
from gmsfem.spaces import (A_FORMS, LocalRegion, SnapshotSpace,
                           assemble_a_form, assemble_s_form, build_offline,
                           build_online, count_unbounded, fine_grid_snapshots,
                           harmonic_snapshots, local_forms, offline_spaces,
                           spectral_snapshots, truncate)
from gmsfem.studies import PARAM_SAMPLES
from pou_oracles import (ORACLE_SIZES, dense_chi, dense_gradient_weight,
                         pou_problem)


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


def test_harmonic_snapshots_are_harmonic_and_partition(setup):
    fine, _, kappa, _, region = setup
    snap = harmonic_snapshots(fine, region, [kappa])
    assert snap.M_snap == len(region.boundary_nodes)
    A = assemble_stiffness(fine, kappa, region=region)
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


def test_harmonic_snapshots_without_interior_are_unit_columns():
    # a corner neighborhood of one fine cell has only boundary nodes
    fine = build_fine_mesh(8, 8)
    coarse = build_coarse_mesh(fine, 8, 8)
    kappa = CoefficientField(np.random.default_rng(3).uniform(1.0, 1e3, fine.n_cells))
    region = coarse.neighborhoods[0]
    snap = harmonic_snapshots(fine, region, [kappa])
    assert np.array_equal(snap.columns, np.eye(region.n_nodes))


def test_fine_grid_snapshots_identity(setup):
    _, _, _, _, region = setup
    snap = fine_grid_snapshots(region)
    assert snap.M_snap == region.n_nodes
    # sparse: no n x n dense identity per neighborhood
    assert snap.columns.nnz == region.n_nodes
    assert np.array_equal(snap.columns.toarray(), np.eye(region.n_nodes))


def _neumann_pencil(fine, region, kappa):
    return (assemble_mass(fine, weight=kappa, region=region),
            assemble_stiffness(fine, kappa, region=region))


def _assert_matches_dense_oracle(A_t, S_t, cols):
    """Sparse leading eigenvectors against dense_gen_eig on one pencil.

    A_t-orthonormal to 1e-10, and wherever the spectrum has a gap
    (nu_{j+1}/nu_j > 1 + 1e-6) the leading j columns span the dense
    leading j eigenvectors: sine of the largest A_t-principal angle
    <= 1e-8.  nu = 1/lambda; the S-null mode has nu = 0.
    """
    k = cols.shape[1]
    A = np.asarray(A_t.todense())
    lam, vecs = dense_gen_eig(A, np.asarray(S_t.todense()))
    nu = 1.0 / lam  # inf -> 0
    assert np.abs(cols.T @ A @ cols - np.eye(k)).max() <= 1e-10
    for j in range(1, k + 1):
        if nu[j] <= (1.0 + 1e-6) * nu[j - 1]:
            continue
        V, D = cols[:, :j], vecs[:, :j]
        R = V - D @ (D.T @ (A @ V))  # A-orthogonal residual of span(V)
        sin_max = np.sqrt(max(np.linalg.eigvalsh(R.T @ A @ R)[-1], 0.0))
        assert sin_max <= 1e-8, (j, sin_max)
    return nu


def test_spectral_snapshots_count(setup):
    fine, coarse, kappa, _, region = setup
    A_t, S_t = _neumann_pencil(fine, region, kappa)
    snap = spectral_snapshots(A_t, S_t, 6, region)
    assert snap.columns.shape == (region.n_nodes, 6)
    assert snap.kind == "local-spectral"
    _assert_matches_dense_oracle(A_t, S_t, snap.columns)
    # count >= n - 1 takes the dense path: its columns are full_gen_eig's
    corner = LocalRegion.from_neighborhood(coarse.neighborhoods[0])
    assert corner.n_nodes == 36
    A_c, S_c = _neumann_pencil(fine, corner, kappa)
    _, vecs = full_gen_eig(A_c, S_c)
    for count in (35, 36, 40):
        snap = spectral_snapshots(A_c, S_c, count, corner)
        assert np.array_equal(snap.columns, vecs[:, :min(count, 36)])


def _oracle_pencils():
    """(name, fine, region, field): 121- and 441-node interior regions."""
    for n, c in ((20, 4), (40, 4)):
        fine = build_fine_mesh(n, n)
        coarse = build_coarse_mesh(fine, c, c)
        region = LocalRegion.from_neighborhood(
            coarse.neighborhoods[coarse.coarse_node_id(2, 2)])
        for eta in (1e3, 1e5):
            nl = NonlinearCoefficient(
                kappa1=channels_and_inclusions(fine, eta),
                kappa2=channels_and_inclusions_alt(fine, eta), alpha=1.0)
            yield f"nonlinear-{eta:.0e}", fine, region, nl.at_value(1.25)
        aff = affine_four_term(fine, 1e4)
        yield "affine", fine, region, evaluate(aff, aff.parameter(PARAM_SAMPLES[0]))


@pytest.mark.parametrize("name,fine,region,kappa", [
    pytest.param(*p, id=f"{p[2].n_nodes}-{p[0]}") for p in _oracle_pencils()])
def test_spectral_snapshots_match_dense_oracle(name, fine, region, kappa):
    # snap_per_sample 8 of the studies, and 10 of the parametric study
    A_t, S_t = _neumann_pencil(fine, region, kappa)
    for k in (8, 10):
        cols = spectral_snapshots(A_t, S_t, k, region).columns
        assert cols.shape == (region.n_nodes, k)
        nu = _assert_matches_dense_oracle(A_t, S_t, cols)
        lam_s, _ = leading_gen_eig(A_t, S_t, k)
        nu_s = 1.0 / lam_s
        assert np.all(np.abs(nu_s - nu[:k])
                      <= 1e-9 * nu[:k] + 1e-12 * nu[k - 1])


def test_spectral_snapshots_fail_loudly(setup, monkeypatch):
    fine, _, kappa, _, region = setup
    A_t, S_t = _neumann_pencil(fine, region, kappa)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                  np.empty((0, 0)))

    def no_dense(*args, **kwargs):
        raise AssertionError("silent dense fallback")

    monkeypatch.setattr(solvers.spla, "eigsh", no_convergence)
    monkeypatch.setattr(spaces, "full_gen_eig", no_dense)
    with pytest.raises(NumericalError, match=f"region {region.label}: "):
        spectral_snapshots(A_t, S_t, 6, region)

    # the dense branch (count >= n - 1) names the region too
    def kernel_error(*args, **kwargs):
        raise NumericalError("kernel error")

    monkeypatch.setattr(spaces, "full_gen_eig", kernel_error)
    with pytest.raises(NumericalError,
                       match=f"region {region.label}: kernel error"):
        spectral_snapshots(A_t, S_t, region.n_nodes, region)


def test_a_form_requires_pou(setup):
    fine, _, kappa, pou, region = setup
    with pytest.raises(ValueError):
        assemble_a_form(fine, region, kappa, "pou_grad_mass", pou=None)
    for form in ("pou_grad_mass", "pou_stiffness", "kappa_mass"):
        M = assemble_a_form(fine, region, kappa, form, pou)
        assert M.shape == (region.n_nodes, region.n_nodes)
        d = np.abs((M - M.T)).max()
        assert d < 1e-10


@pytest.fixture(scope="module", params=ORACLE_SIZES,
                ids=lambda p: f"{p[0]}/{p[1]}")
def sized(request):
    return pou_problem(*request.param)


def dense_pou_stiffness_form(mesh, region, kappa, pou):
    """sum over every k of D_k A D_k on the padded box, D_k = diag(chi_k)
    zeroed outside the region, with chi_k dense."""
    cx0, cx1, cy0, cy1 = region.cell_box
    pad = LocalRegion.from_cell_box(mesh, (max(cx0 - 1, 0), min(cx1 + 1, mesh.nx),
                                           max(cy0 - 1, 0), min(cy1 + 1, mesh.ny)))
    pad_nodes = pad.nodes
    A_pad = assemble_stiffness(mesh, kappa, region=pad)
    in_region = np.isin(pad_nodes, region.nodes)
    total = sp.csr_matrix((len(pad_nodes), len(pad_nodes)))
    for chi in dense_chi(pou):
        d = np.where(in_region, chi[pad_nodes], 0.0)
        if np.any(d):
            total = total + sp.diags(d) @ A_pad @ sp.diags(d)
    r = np.searchsorted(pad_nodes, region.nodes)
    return total[r][:, r].toarray()


def test_pou_a_forms_match_dense_oracle(sized):
    fine, coarse, kappa, pous = sized
    regions = [LocalRegion.from_neighborhood(nb) for nb in coarse.neighborhoods]
    regions.append(LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, 0.4, 0.6, 0.4, 0.6)))
    for name, pou in pous.items():
        for region in regions:
            w = dense_gradient_weight(pou, kappa, region.cells)
            want = assemble_mass(fine, region=region, triangle_weight=w)
            got = assemble_a_form(fine, region, kappa, "pou_grad_mass", pou)
            assert np.array_equal(got.toarray(), want.toarray()), name
            # one entrywise product instead of a sum of D_k A D_k: rounding
            got = assemble_a_form(fine, region, kappa, "pou_stiffness", pou)
            want = dense_pou_stiffness_form(fine, region, kappa, pou)
            assert (np.abs(got.toarray() - want).max()
                    <= 1e-14 * np.abs(want).max()), name


def test_one_pass_gradient_weight_is_the_per_region_weight(sized):
    # local_forms computes the pou_grad_mass weight once on every cell and
    # gathers it per region: the very bits of the per-region weight
    fine, coarse, kappa, pous = sized
    for name, pou in pous.items():
        whole = pou_gradient_weight(pou, kappa, np.arange(fine.n_cells))
        forms = local_forms(fine, kappa, "pou_grad_mass", pou)
        for nb in coarse.neighborhoods:
            region = LocalRegion.from_neighborhood(nb)
            own = pou_gradient_weight(pou, kappa, region.cells)
            assert np.array_equal(whole[_cells_to_triangles(region.cells)],
                                  own), name
            got = forms(region)[0]
            want = assemble_a_form(fine, region, kappa, "pou_grad_mass", pou)
            assert np.array_equal(got.toarray(), want.toarray()), name


def test_coarse_basis_and_lift_match_dense_oracle(sized):
    fine, coarse, kappa, pous = sized
    bc = BoundaryCondition(lambda x, y: x + y)
    interior = set(coarse.interior_coarse_nodes.tolist())
    bnd = fine.boundary_nodes
    for name, pou in pous.items():
        spaces = {i: s for i, s in offline_spaces(
            coarse, kappa, "harmonic", pou=pou, count=2).items() if i in interior}
        basis = build_coarse_basis(coarse, pou, spaces)
        chi = dense_chi(pou)
        cols = []
        for i in sorted(spaces):
            for j in range(spaces[i].dim):
                col = np.zeros(fine.n_nodes)
                col[spaces[i].region.nodes] = chi[i][spaces[i].region.nodes] * \
                    spaces[i].columns[:, j]
                col[bnd] = 0.0
                cols.append(col)
        assert np.array_equal(basis.P.toarray(), np.column_stack(cols)), name
        lift = np.zeros(fine.n_nodes)
        for i in range(coarse.N_v):
            if i not in spaces:
                g_i = bc.values(fine, coarse.coarse_node_fine_ids[[i]])[0]
                lift += g_i * chi[i]
        lift[bnd] = bc.values(fine, bnd)
        assert np.array_equal(coarse_dirichlet_lift(basis, bc), lift), name


@pytest.mark.parametrize("n,c", [(20, 4), (24, 4), (30, 3), (60, 6)])
def test_assembled_forms_are_exactly_symmetric(n, c):
    # nothing symmetrises the local forms before full_gen_eig, whose eigh
    # reads their lower triangles: every neighborhood, POU and a-form
    fine, coarse, kappa, pous = pou_problem(n, c)
    for name, pou in pous.items():
        for a_form in A_FORMS:
            forms = local_forms(fine, kappa, a_form, pou)
            for nb in coarse.neighborhoods:
                for M in forms(nb):
                    assert (M != M.T).nnz == 0, (name, a_form, nb.label)


def test_offline_does_not_depend_on_the_snapshot_layout(setup):
    # the rounding of the projection follows the layout of the columns, so
    # _reduce makes them C-contiguous: F order gives the same bits
    fine, _, kappa, pou, region = setup
    snap = harmonic_snapshots(fine, region, [kappa])
    f_snap = SnapshotSpace(region, np.asfortranarray(snap.columns), "harmonic")
    assert not f_snap.columns.flags.c_contiguous
    a_mat, s_mat = local_forms(fine, kappa, "pou_grad_mass", pou)(region)
    want = build_offline(snap, a_mat, s_mat, count=3)
    got = build_offline(f_snap, a_mat, s_mat, count=3)
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)


def test_offline_reproduces_dense_eigenproblem(setup):
    # with identity snapshots the reduction is exactly the dense pencil
    fine, _, kappa, pou, region = setup
    snap = fine_grid_snapshots(region)
    a_mat = assemble_a_form(fine, region, kappa, "kappa_mass")
    s_mat = assemble_s_form(fine, region, kappa)
    off = build_offline(snap, a_mat, s_mat, count=8, drop_tol=None)
    lam, _ = dense_gen_eig(np.asarray(a_mat.todense()),
                           np.asarray(s_mat.todense()))
    # count + 1 leading eigenvalues are solved: lambda_star is the last
    assert len(off.eigenvalues) == 9
    lam = lam[:9]
    fin = np.isfinite(off.eigenvalues) & np.isfinite(lam)
    rel = np.abs(off.eigenvalues[fin] - lam[fin]) / np.abs(lam[fin])
    assert rel.max() < 1e-7
    assert np.sum(np.isinf(off.eigenvalues)) == np.sum(np.isinf(lam))
    assert off.dim == 8
    assert off.stage == "offline"
    assert off.selection["snapshot_kind"] == "fine-grid"


def _fine_offline_at_24_4(eta, count):
    """Fine-grid offline spaces and their pou_grad_mass / stiffness forms
    at fine 24 / coarse 4 with the multiscale POU."""
    fine = build_fine_mesh(24, 24)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, eta)
    pou = multiscale_pou(coarse, kappa)
    forms = local_forms(fine, kappa, "pou_grad_mass", pou)
    got = offline_spaces(coarse, kappa, "fine", pou=pou, count=count)
    return [(got[i], forms(LocalRegion.from_neighborhood(nb)))
            for i, nb in enumerate(coarse.neighborhoods)]


def test_fine_offline_eigenpairs_are_accurate_at_high_contrast():
    # cond(A) is near 1e13 at eta 1e7; whitening A+S lost these pairs
    # (relative residual up to 0.93)
    for space, (a_mat, s_mat) in _fine_offline_at_24_4(1e7, 8):
        for j in range(space.dim):
            lam = space.eigenvalues[j]
            if np.isinf(lam):
                continue
            ap = a_mat @ space.columns[:, j]
            sp_ = s_mat @ space.columns[:, j]
            res = np.linalg.norm(ap - lam * sp_) / (
                np.linalg.norm(ap) + lam * np.linalg.norm(sp_))
            assert res <= 1e-6, (space.region.label, j, res)


@pytest.mark.parametrize("eta", [1e2, 1e4, 1e6, 1e7])
def test_fine_offline_finds_one_inf_mode_per_neighborhood(eta):
    # the S-null mode of each Neumann stiffness is the constant
    for space, _ in _fine_offline_at_24_4(eta, 3):
        assert np.sum(np.isinf(space.eigenvalues)) == 1, space.region.label


def test_fine_offline_skips_whitening(setup, monkeypatch):
    # identity snapshots solve the local pencil directly; harmonic
    # snapshots are still whitened once per node; both take one kernel
    # call per node
    _, coarse, kappa, pou, _ = setup
    calls = {"whiten": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spaces, "_orthonormal_transform",
                        counted("whiten", spaces._orthonormal_transform))
    monkeypatch.setattr(spaces, "full_gen_eig",
                        counted("kernel", spaces.full_gen_eig))
    offline_spaces(coarse, kappa, "fine", pou=pou, count=3)
    assert calls == {"whiten": 0, "kernel": coarse.N_v}
    offline_spaces(coarse, kappa, "harmonic", pou=pou, count=3)
    assert calls == {"whiten": coarse.N_v, "kernel": 2 * coarse.N_v}


def test_fine_offline_columns_own_their_data():
    # kept columns are fresh arrays, not views of each node's whole
    # eigenvector matrix
    built = [space for space, _ in _fine_offline_at_24_4(1e4, 3)]
    assert all(space.columns.base is None for space in built)
    assert sum(space.columns.nbytes for space in built) == sum(
        space.region.n_nodes * space.dim * 8 for space in built)


def test_fine_offline_fails_loudly(setup):
    fine, _, kappa, _, region = setup
    snap = fine_grid_snapshots(region)
    s_mat = assemble_s_form(fine, region, kappa)
    # a vanishing a-form leaves every column without an a-norm (mu = 1
    # exactly for diagonal forms)
    n = region.n_nodes
    with pytest.raises(NumericalError,
                       match=f"region {region.label}: .*no a-norm"):
        build_offline(snap, sp.csr_matrix((n, n)), sp.identity(n, format="csr"),
                      count=1)
    with pytest.raises(NumericalError,
                       match=f"region {region.label}: .*not positive definite"):
        build_offline(snap, -2 * s_mat, s_mat, count=1)


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
    got = offline_spaces(coarse, avg, "spectral", "kappa_mass", count=4,
                         samples=samples, snap_per_sample=3, workers=workers)
    assert list(got) == list(range(coarse.N_v))
    for i, nb in enumerate(coarse.neighborhoods):
        region = LocalRegion.from_neighborhood(nb)
        cols = [spectral_snapshots(
                    assemble_mass(fine, weight=f, region=region),
                    assemble_stiffness(fine, f, region=region), 3, region).columns
                for f in samples]
        snap = SnapshotSpace(region=region, columns=np.hstack(cols),
                             kind="local-spectral")
        a_mat = assemble_mass(fine, weight=avg, region=region)
        s_mat = assemble_stiffness(fine, avg, region=region)
        want = build_offline(snap, a_mat, s_mat, count=4)
        assert np.array_equal(got[i].columns, want.columns)
        assert np.array_equal(got[i].eigenvalues, want.eigenvalues)


# eigenvalues below the cut are compared to 1e-12 relative; above it a
# near S-null mode is known only as well as the solved mu = 1/(1 + lambda)
LAMBDA_CUT = 1e8


def assert_same_eigenvalues(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    low = want < LAMBDA_CUT
    assert np.all(np.abs(got[low] - want[low]) <= 1e-12 * want[low])
    mu_got, mu_want = 1.0 / (1.0 + got[~low]), 1.0 / (1.0 + want[~low])
    assert np.all(np.abs(mu_got - mu_want) <= 1e-12)


def _reduced_pencils(setup, monkeypatch, snapshots):
    """The pencils that offline_spaces hands the kernel, per node."""
    fine, coarse, kappa, pou, _ = setup
    pencils = []

    def recording(A, S, n=None):
        pencils.append((A, S))
        return full_gen_eig(A, S, n)

    monkeypatch.setattr(spaces, "full_gen_eig", recording)
    if snapshots == "spectral":
        samples = [kappa, CoefficientField(np.sqrt(kappa.values))]
        offline_spaces(coarse, kappa, "spectral", "kappa_mass", count=4,
                       samples=samples, snap_per_sample=4)
    else:
        offline_spaces(coarse, kappa, snapshots, pou=pou, count=4)
    return pencils


@pytest.mark.parametrize("snapshots", ["fine", "harmonic", "spectral"])
def test_leading_pairs_match_the_whole_spectrum(setup, monkeypatch, snapshots):
    # the fine-grid pencil, the whitened harmonic one and the whitened
    # spectral union
    pencils = _reduced_pencils(setup, monkeypatch, snapshots)
    n_inf = 0
    for A, S in pencils:
        lam_all, vec_all = full_gen_eig(A, S)
        n_inf += int(np.isinf(lam_all).sum())
        for n in (1, 2, 5, 9):
            lam, vec = full_gen_eig(A, S, n)
            n = min(n, A.shape[0])
            assert vec.shape == (A.shape[0], n)
            assert_same_eigenvalues(lam, lam_all[:n])
            # a mode well apart from its neighbours is the same vector
            mu = np.append(1.0 / (1.0 + lam_all), 1.0)
            for j in range(n):
                if min(mu[j + 1] - mu[j], mu[j] - mu[j - 1] if j else 1.0) > 1e-3:
                    d = min(np.linalg.norm(vec[:, j] - s * vec_all[:, j])
                            for s in (1.0, -1.0))
                    assert d <= 1e-8 * np.linalg.norm(vec_all[:, j])
    assert n_inf >= 1  # the flag is exercised


def test_count_below_one_fails_before_any_eigensolve(setup, monkeypatch):
    fine, _, kappa, _, region = setup

    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the count check")

    monkeypatch.setattr(spaces, "full_gen_eig", no_solve)
    with pytest.raises(ValueError, match="count must be >= 1"):
        build_offline(fine_grid_snapshots(region),
                      assemble_a_form(fine, region, kappa, "kappa_mass"),
                      assemble_s_form(fine, region, kappa), count=0)


@pytest.mark.parametrize("count", [0, -2])
def test_offline_spaces_reject_counts_below_one(setup, count):
    _, coarse, kappa, pou, _ = setup
    with pytest.raises(ValueError, match="count must be >= 1"):
        offline_spaces(coarse, kappa, "fine", pou=pou, count=count)


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
