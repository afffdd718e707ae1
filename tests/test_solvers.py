"""Eigensolver oracle checks, sparse factors, PCG, and the two-level
preconditioner."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from gmsfem import solvers
from gmsfem.coeff import CoefficientField
from gmsfem.coupling import build_coarse_basis
from gmsfem.fem import (BoundaryCondition, assemble_load, assemble_mass,
                        assemble_stiffness, reduce_dirichlet)
from gmsfem.fields import channels_and_inclusions
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh, build_overlap
from gmsfem.pou import bilinear_pou, energy_min_pou, multiscale_pou
from gmsfem.solvers import (NumericalError, SparseFactor, build_two_level,
                            dense_gen_eig, full_gen_eig, galerkin_factor,
                            leading_gen_eig, pcg, _lanczos_condition)
from gmsfem.spaces import local_forms, offline_spaces
from pou_oracles import dense_chi


def _random_spd(rng, n, cond=1e3):
    Q, _ = la.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return Q @ np.diag(d) @ Q.T


def test_eigenvalues_match_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        A = _random_spd(rng, n)
        B = rng.standard_normal((n, n))
        S = B.T @ B + 1e-3 * np.eye(n)
        lam, V = dense_gen_eig(A, S)
        nu = la.eigh(S, A, eigvals_only=True)  # independent oracle
        want = np.sort(1.0 / nu)[::-1]
        assert np.all(np.isfinite(lam))
        rel = np.abs(lam - want) / np.abs(want)
        assert rel.max() < 1e-8
        # eigenvectors are A-orthonormal
        G = V.T @ A @ V
        assert np.abs(G - np.eye(n)).max() < 1e-7


def test_constructed_rank_deficiency_gives_exact_inf_count():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(1, n))
        A = _random_spd(rng, n)
        B = rng.standard_normal((m, n))
        S = B.T @ B  # rank m exactly
        lam, _ = dense_gen_eig(A, S)
        assert int(np.sum(np.isinf(lam))) == n - m
        assert np.all(np.diff(lam[np.isfinite(lam)]) <= 1e-12)


def test_eigen_pencil_residual():
    rng = np.random.default_rng(7)
    n = 12
    A = _random_spd(rng, n)
    B = rng.standard_normal((n, n))
    S = B.T @ B
    lam, V = dense_gen_eig(A, S)
    for k in range(n):
        if np.isfinite(lam[k]):
            r = A @ V[:, k] - lam[k] * (S @ V[:, k])
            assert np.linalg.norm(r) < 1e-6 * max(lam[k], 1.0)


def test_indefinite_a_raises():
    A = np.diag([1.0, -1.0])
    S = np.eye(2)
    with pytest.raises(NumericalError):
        dense_gen_eig(A, S)


def test_singular_a_falls_back_to_forward_pencil():
    # A PSD singular, S PD: the forward pencil is still solvable
    A = np.diag([2.0, 1.0, 0.0])
    S = np.eye(3)
    lam, _ = dense_gen_eig(A, S)
    assert np.allclose(lam, [2.0, 1.0, 0.0], atol=1e-10)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        dense_gen_eig(np.eye(3), np.eye(4))


def test_full_gen_eig_matches_dense_oracle():
    # criterion-02 pencils, full-rank and S-deficient: the same finite
    # spectrum and inf count as dense_gen_eig, A-orthonormal columns
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        Q, _ = la.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(np.geomspace(1.0, 1e4, n)) @ Q.T
        deficient = trial % 2 == 1 and n > 2
        m = int(rng.integers(1, n)) if deficient else n
        U, _ = la.qr(rng.standard_normal((m, m)))
        W, _ = la.qr(rng.standard_normal((n, n)))
        B = U @ np.diag(np.geomspace(1.0, 30.0, m)) @ W[:m]
        S = B.T @ B
        lam, V = full_gen_eig(A, S)
        want, _ = dense_gen_eig(A, S)
        assert int(np.sum(np.isinf(lam))) == int(np.sum(np.isinf(want))) == n - m
        fin = np.isfinite(want)
        assert np.all(np.abs(lam[fin] - want[fin]) <= 1e-8 * want[fin])
        assert np.all(np.diff(lam[fin]) <= 0)
        assert np.abs(V.T @ A @ V - np.eye(n)).max() <= 1e-10


def test_full_gen_eig_edges():
    # A-null directions get lambda = 0; A + S must be definite
    lam, V = full_gen_eig(np.diag([2.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]))
    assert lam[0] == np.inf and lam[2] == 0.0
    assert abs(lam[1] - 2.0) < 1e-14
    assert np.allclose(np.abs(V), [[0, 1 / np.sqrt(2), 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NumericalError, match="not positive definite"):
        full_gen_eig(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        full_gen_eig(np.eye(3), np.eye(4))


# thread counts of numpy's and scipy's bundled OpenBLAS pools before and
# after `import gmsfem`, as JSON; None where a package bundles none
POOLS = """
import ctypes, json
from pathlib import Path
import numpy, scipy, scipy.linalg

def threads(pkg, suffix):
    libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            return getattr(lib, f"scipy_openblas_get_num_threads{suffix}")()
        except (OSError, AttributeError):
            continue
    return None

before = [threads(numpy, "64_"), threads(scipy, "")]
import gmsfem
print(json.dumps(before + [threads(numpy, "64_"), threads(scipy, "")]))
"""


def test_import_pins_both_blas_pools_to_one_thread():
    # in a fresh interpreter, importing the package leaves numpy's and
    # scipy's pools on one thread each: the workers split the eigen stage
    src = str(Path(solvers.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", POOLS], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    numpy_before, scipy_before, numpy_after, scipy_after = json.loads(r.stdout)
    if numpy_before is None and scipy_before is None:
        pytest.skip("neither numpy nor scipy bundles scipy-openblas")
    assert [numpy_after, scipy_after] == [None if before is None else 1
                                          for before in (numpy_before, scipy_before)]


def _interior_pencil():
    # the a- and s-forms of a fine 24 / coarse 4 pou_grad_mass pencil at an
    # interior coarse node: 169 rows
    fine = build_fine_mesh(24, 24)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e6)
    forms = local_forms(fine, kappa, "pou_grad_mass", multiscale_pou(coarse, kappa))
    nb = coarse.neighborhoods[coarse.coarse_node_id(2, 2)]
    return [m.toarray() for m in forms(nb)]


@pytest.mark.skipif(solvers.EIGEN_KERNEL != "dsygvx",
                    reason="scipy bundles no scipy-openblas with LAPACKE")
def test_dsygvx_kernel_gives_the_bits_of_eigh():
    # the same pairs as eigh's subset driver, bit for bit, also when more
    # threads than cores call the kernel at once (criterion 11 needs it)
    a, s = _interior_pencil()
    assert a.shape == (169, 169)
    for n in (1, 5, 9):
        want = la.eigh(s, a + s, subset_by_index=[0, n - 1])
        with ThreadPoolExecutor(max_workers=8) as ex:
            runs = list(ex.map(lambda _: solvers._leading_eigh(s, a + s, n),
                               range(16)))
        for w, v in runs:
            assert np.array_equal(w, want[0]) and np.array_equal(v, want[1])


def test_eigh_fallback_gives_the_same_pairs(monkeypatch):
    a, s = _interior_pencil()
    lam, vecs = full_gen_eig(a, s, 5)
    monkeypatch.setattr(solvers, "_dsygvx", None)
    lam_eigh, vecs_eigh = full_gen_eig(a, s, 5)
    assert np.array_equal(lam, lam_eigh) and np.array_equal(vecs, vecs_eigh)


@pytest.mark.skipif(solvers.EIGEN_KERNEL != "dsygvx",
                    reason="scipy bundles no scipy-openblas with LAPACKE")
def test_dsygvx_kernel_raises_on_a_singular_pencil(monkeypatch):
    calls, kernel = [], solvers._dsygvx

    def counted(*args):
        calls.append(kernel(*args))
        return calls[-1]

    monkeypatch.setattr(solvers, "_dsygvx", counted)
    with pytest.raises(NumericalError, match="not positive definite"):
        full_gen_eig(np.diag([1.0, 0.0, 2.0]), np.diag([1.0, 0.0, 0.0]), 1)
    assert calls[0] > 3  # info > n: B's factorization failed


def test_leading_gen_eig_is_deterministic():
    # the seeded start vector and restart generator make the result the
    # same on every call and in concurrent threads (criterion 11 needs it)
    fine = build_fine_mesh(40, 40)
    coarse = build_coarse_mesh(fine, 4, 4)
    nb = coarse.neighborhoods[coarse.coarse_node_id(2, 2)]
    kappa = channels_and_inclusions(fine, 1e5)
    A = assemble_mass(fine, weight=kappa, region=nb)
    S = assemble_stiffness(fine, kappa, region=nb)
    lam, vecs = leading_gen_eig(A, S, 8)
    assert vecs.shape == (441, 8)
    assert np.all(np.diff(lam) <= 0)
    runs = [leading_gen_eig(A, S, 8)]
    with ThreadPoolExecutor(max_workers=2) as ex:
        runs += list(ex.map(lambda _: leading_gen_eig(A, S, 8), range(2)))
    for lam_r, vecs_r in runs:
        assert np.array_equal(lam_r, lam)
        assert np.array_equal(vecs_r, vecs)


def test_sparse_factor():
    rng = np.random.default_rng(8)
    A = sp.csr_matrix(_random_spd(rng, 15))
    f = SparseFactor(A)
    b = rng.standard_normal(15)
    x = f.solve(b)
    assert np.linalg.norm(A @ x - b) < 1e-9
    with pytest.raises(ValueError):
        SparseFactor(sp.csr_matrix(np.ones((2, 3))))
    # a zero diagonal pivot: only a row swap factors it
    with pytest.raises(NumericalError, match="not positive definite"):
        SparseFactor(sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]]))


def test_galerkin_factor_takes_tiny_pivots():
    # the energy-min POU is about 1e-12 at the corner coarse nodes, so the
    # coarse matrix is SPD with pivots near 5e-26: no relative cut-off
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e6)
    pou = energy_min_pou(coarse, kappa)
    spaces = offline_spaces(coarse, kappa, "harmonic", pou=pou, count=4)
    A = assemble_stiffness(fine, kappa)
    A_ff, b_f, fr, _ = reduce_dirichlet(A, assemble_load(fine, 1.0), fine,
                                        BoundaryCondition(0.0))
    P = build_coarse_basis(coarse, pou, spaces).P[fr]
    S0 = P.T @ (A_ff @ P)
    factor = galerkin_factor(S0)
    assert factor._lu.U.diagonal().min() < 1e-20
    r = P.T @ b_f
    assert np.linalg.norm(S0 @ factor.solve(r) - r) < 1e-10 * np.linalg.norm(r)


def test_galerkin_factor_rejects_indefinite_and_singular():
    with pytest.raises(NumericalError, match="not positive definite"):
        galerkin_factor(sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]]))
    A_ff, b_f, P, _ = _laplace_problem()
    # a duplicated interior column cancels to an exactly zero pivot
    P2 = sp.hstack([P, P[:, [12]]], format="csr")
    with pytest.raises(NumericalError):
        galerkin_factor(P2.T @ (A_ff @ P2))
    # next to the boundary the cancellation leaves a pivot of +4e-16, which
    # the sign test may take; the right-hand side is consistent, so P c is
    # then still the Galerkin solution
    want = P @ galerkin_factor(P.T @ (A_ff @ P)).solve(P.T @ b_f)
    P3 = sp.hstack([P, P[:, [3]]], format="csr")
    try:
        got = P3 @ galerkin_factor(P3.T @ (A_ff @ P3)).solve(P3.T @ b_f)
    except NumericalError:
        return
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_cg_solves_spd_system():
    rng = np.random.default_rng(9)
    A = _random_spd(rng, 30, cond=50.0)
    b = rng.standard_normal(30)
    x, rep = pcg(sp.csr_matrix(A), b, M_inv=None, tol=1e-12, max_it=500)
    assert rep.converged
    assert np.linalg.norm(A @ x - b) < 1e-8
    # Lanczos estimate is bounded by and close to the true condition number
    true = np.linalg.cond(A)
    assert rep.condition_estimate <= true * (1 + 1e-6)
    assert rep.condition_estimate > 0.5 * true


def test_pcg_with_exact_preconditioner_converges_in_one_step():
    rng = np.random.default_rng(10)
    A = _random_spd(rng, 20)
    Ainv = la.inv(A)
    b = rng.standard_normal(20)
    x, rep = pcg(sp.csr_matrix(A), b, M_inv=lambda v: Ainv @ v, tol=1e-10)
    assert rep.converged and rep.iterations <= 2
    assert np.linalg.norm(A @ x - b) < 1e-8


def test_pcg_zero_rhs():
    rng = np.random.default_rng(11)
    A = sp.csr_matrix(_random_spd(rng, 10))
    x, rep = pcg(A, np.zeros(10))
    assert rep.iterations == 0 and rep.converged
    assert np.array_equal(x, np.zeros(10))


def test_pcg_rejects_indefinite_operator():
    with pytest.raises(NumericalError):
        pcg(sp.csr_matrix(-np.eye(4)), np.ones(4))


def test_pcg_rejects_negative_preconditioner():
    rng = np.random.default_rng(12)
    A = sp.csr_matrix(_random_spd(rng, 6))
    with pytest.raises(NumericalError):
        pcg(A, np.ones(6), M_inv=lambda v: -v)


def test_lanczos_condition_edges():
    assert _lanczos_condition([], []) == 1.0
    assert _lanczos_condition([0.5], []) == 1.0


def _laplace_problem():
    """(A_ff, b_f, P, subs) of the unit-kappa Laplacian at fine 24 / coarse 4:
    bilinear coarse space and the 16 subdomains of overlap 2."""
    fine = build_fine_mesh(24, 24)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = CoefficientField(np.ones(fine.n_cells))
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    bc = BoundaryCondition(0.0)
    A_ff, b_f, fr, _ = reduce_dirichlet(A, b, fine, bc)
    pou = bilinear_pou(coarse)
    P = sp.csr_matrix(dense_chi(pou).T)[fr]
    pos = np.full(fine.n_nodes, -1, dtype=np.int64)
    pos[fr] = np.arange(len(fr))
    ov = build_overlap(coarse, delta_layers=2)
    subs = []
    for ints in ov.interior_nodes:
        idx = pos[ints]
        subs.append(idx[idx >= 0])
    return A_ff, b_f, P, subs


def test_two_level_preconditioner_on_laplace():
    A_ff, b_f, P, subs = _laplace_problem()
    assert len(subs) == 16
    M = build_two_level(A_ff, P, subs)
    # M is symmetric positive definite
    v, w = np.random.default_rng(3).standard_normal((2, len(b_f)))
    assert v @ M(w) == pytest.approx(w @ M(v), rel=1e-12)
    assert v @ M(v) > 0.0
    x, rep = pcg(A_ff, b_f, M_inv=M, tol=1e-10, max_it=200)
    _, rep_plain = pcg(A_ff, b_f, tol=1e-10, max_it=2000)
    assert rep.converged
    assert rep.iterations < rep_plain.iterations
    assert rep.condition_estimate < rep_plain.condition_estimate
    assert np.linalg.norm(A_ff @ x - b_f) < 1e-8


def test_two_level_apply_matches_subdomain_loop():
    # the block-diagonal factor and the stacked restriction give the bits
    # of one factor and one scatter-add per subdomain, in subdomain order;
    # the coarse part also matches a dense Cholesky of P'AP to 1e-12
    # relative (a different elimination order moves the last bits)
    A_ff, b_f, P, subs = _laplace_problem()
    M = build_two_level(A_ff, P, subs)
    c0 = galerkin_factor(P.T @ (A_ff @ P))
    S0 = (P.T @ (A_ff @ P)).toarray()
    c_dense = la.cho_factor(0.5 * (S0 + S0.T))
    factors = [SparseFactor(A_ff[idx][:, idx]) for idx in subs]
    rng = np.random.default_rng(11)
    for v in [b_f, *rng.standard_normal((3, len(b_f)))]:
        out = P @ c0.solve(P.T @ v)
        dense = P @ la.cho_solve(c_dense, P.T @ v)
        assert np.abs(out - dense).max() <= 1e-12 * np.abs(dense).max()
        for idx, f in zip(subs, factors):
            out[idx] += f.solve(v[idx])
        assert np.array_equal(M(v), out)


def test_two_level_names_a_singular_subdomain():
    # zero the rows and columns of subdomain 1 only: the coarse matrix
    # stays SPD and the joint factor of the blocks fails
    A_ff, _, P, _ = _laplace_problem()
    n = A_ff.shape[0]
    subs = [np.arange(0, 100), np.arange(100, 110), np.arange(110, n)]
    keep = sp.diags(np.where((np.arange(n) >= 100) & (np.arange(n) < 110), 0.0, 1.0))
    with pytest.raises(NumericalError, match="^subdomain 1: "):
        build_two_level((keep @ A_ff @ keep).tocsr(), P, subs)


def test_two_level_and_energy_min_pou_factor_once(monkeypatch):
    # one SparseFactor holds every subdomain (or neighborhood) block, after
    # the coarse matrix's own
    shapes = []
    init = SparseFactor.__init__

    def counted(self, A):
        shapes.append(A.shape[0])
        init(self, A)

    monkeypatch.setattr(SparseFactor, "__init__", counted)
    A_ff, _, P, subs = _laplace_problem()
    build_two_level(A_ff, P, subs)
    assert shapes == [P.shape[1], sum(map(len, subs))]
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    energy_min_pou(coarse, channels_and_inclusions(fine, 1e3))
    assert shapes[2:] == [sum(len(fine.free_nodes_of_cell_box(*nb.cell_box))
                              for nb in coarse.neighborhoods)]


def test_two_level_rejects_empty_subdomain():
    fine = build_fine_mesh(8, 8)
    coarse = build_coarse_mesh(fine, 2, 2)
    kappa = CoefficientField(np.ones(fine.n_cells))
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    A_ff, _, fr, _ = reduce_dirichlet(A, b, fine, BoundaryCondition(0.0))
    P = sp.csr_matrix(dense_chi(bilinear_pou(coarse)).T)[fr]
    with pytest.raises(NumericalError, match="subdomain 0 has no interior nodes"):
        build_two_level(A_ff, P, [np.array([], dtype=np.int64)])
