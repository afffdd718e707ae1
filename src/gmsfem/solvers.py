"""Numerical kernels: the dense leading-subset and the sparse shift-invert
generalized eigensolvers (with a dense oracle for the tests), direct factors, and PCG with a two-level additive Schwarz preconditioner
and a Lanczos condition estimate recovered from the CG coefficients."""

from __future__ import annotations

import contextlib
import ctypes
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NumericalError(RuntimeError):
    """Factorization or iteration failure."""


INF_CUTOFF = 1e-12  # relative rank tolerance on the S side


def _bundled(pkg, name):
    """Function name of pkg's bundled scipy-openblas (in <pkg>.libs), or None."""
    libs = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            return getattr(ctypes.CDLL(str(path)), name)
    return None


for _set_threads in (_bundled(np, "scipy_openblas_set_num_threads64_"),
                     _bundled(scipy, "scipy_openblas_set_num_threads")):
    if _set_threads is not None:
        _set_threads(1)  # one thread for each bundled OpenBLAS pool (README)

# scipy's LAPACKE dsygvx: a ctypes call releases the GIL (README)
_dsygvx = _bundled(scipy, "scipy_LAPACKE_dsygvx")
EIGEN_KERNEL = "scipy.linalg.eigh" if _dsygvx is None else "dsygvx"
if _dsygvx is not None:
    _I, _D, _P, _C = ctypes.c_int, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
    _dsygvx.argtypes = [_I, _I, _C, _C, _C, _I, _P, _I, _P, _I, _D, _D, _I, _I,
                        _D, _P, _P, _P, _I, _P]


def _leading_eigh(S, B, n):
    """la.eigh(S, B, subset_by_index=[0, n - 1]) with the arguments it gives
    LAPACK dsygvx (column-major, lower triangles, abstol 0), so the same bits."""
    if _dsygvx is None:
        return la.eigh(S, B, subset_by_index=[0, n - 1])
    size = S.shape[0]
    a, b = (np.array(M, dtype=float, order="F") for M in (S, B))  # overwritten
    m, ifail = np.zeros(1, np.intc), np.zeros(size, np.intc)
    w, z = np.empty(size), np.empty((size, n), order="F")
    info = _dsygvx(102, 1, b"V", b"I", b"L", size, a.ctypes.data, size,
                   b.ctypes.data, size, 0.0, 0.0, 1, n, 0.0, m.ctypes.data,
                   w.ctypes.data, z.ctypes.data, size, ifail.ctypes.data)
    if info != 0:
        raise la.LinAlgError(f"dsygvx info {info}")
    return w[:n], z


def dense_gen_eig(A: np.ndarray, S: np.ndarray):
    """Eigenpairs of A psi = lambda S psi with A positive definite: the
    independent oracle that the tests check full_gen_eig and
    leading_gen_eig against; the library itself does not call it.

    Solved as the reversed pencil S v = nu A v by congruence with the
    Cholesky factor of A; lambda = 1/nu.  The lambda = inf modes are the
    S-null directions, so their count is read off the rank of S (relative
    eigenvalue tolerance INF_CUTOFF) rather than from the nu values, which
    keeps the detection independent of the conditioning of A.  Returns
    eigenvalues in non-increasing order (inf modes first) and
    A-orthonormal eigenvectors as columns.
    """
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=float)
    if A.shape != S.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and S must be square of equal size")
    A, S = 0.5 * (A + A.T), 0.5 * (S + S.T)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(A)
        scale = max(abs(w[0]), abs(w[-1]), 1.0)
        if w[0] < -1e-8 * scale:
            raise NumericalError("A side of the pencil is indefinite") from None
        # A merely singular: fall back to the forward pencil if S allows it
        try:
            lam, vec = la.eigh(A, S)
        except (np.linalg.LinAlgError, la.LinAlgError):
            raise NumericalError("both pencil sides are singular") from None
        order = np.argsort(lam)[::-1]
        return lam[order], vec[:, order]
    W = la.solve_triangular(L, S, lower=True)
    C = la.solve_triangular(L, W.T, lower=True)
    nu, V = la.eigh(0.5 * (C + C.T))
    nu = np.maximum(nu, 0.0)
    vecs = la.solve_triangular(L.T, V, lower=False)
    lam = 1.0 / np.maximum(nu, np.finfo(float).tiny)
    w_s = np.linalg.eigvalsh(S)
    n_inf = int(np.sum(w_s <= INF_CUTOFF * max(w_s[-1], 0.0)))
    # ascending nu is descending lambda; the n_inf smallest nu belong
    # to the S-null directions and are reported as lambda = inf
    lam[:n_inf] = np.inf
    return lam, vecs


def full_gen_eig(A, S, n=None):
    """The n leading eigenpairs of A psi = lambda S psi, every pair when n
    is None or not below the size, with A, S symmetric positive
    semidefinite (dense or scipy.sparse) and A + S positive definite.
    Nothing symmetrises A and S: the solver reads their lower triangles.

    Solves S v = mu (A+S) v (dsygvx; eigh for all pairs) for the n smallest mu,
    the n largest lambda, with (A+S)-orthonormal v; lambda = (1 - mu)/mu
    and psi = v/sqrt(1 - mu) is A-normalized.  A pair is an S-null mode,
    lambda = inf, when its S Rayleigh quotient psi'S psi/psi'psi is at most
    INF_CUTOFF * ||S||_1: the quotient is read from the vector itself, so
    the test does not depend on how accurately mu is resolved near 0.  The
    A-null pairs (mu >= 1) get lambda = 0 and keep their (A+S)-normalized
    columns.  Returns eigenvalues in non-increasing order (inf modes first)
    and the eigenvectors as columns.  This is the kernel of every local
    spectral problem of the library (spaces.build_offline and the dense branch
    of spaces.spectral_snapshots).
    """
    if A.shape != S.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and S must be square of equal size")
    A_d, S_d = (M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
                for M in (A, S))
    try:
        mu, V = (la.eigh(S_d, A_d + S_d) if n is None or n >= A.shape[0]
                 else _leading_eigh(S_d, A_d + S_d, n))
    except la.LinAlgError:
        raise NumericalError("A+S of the pencil is not positive definite") from None
    a_norm2 = 1.0 - mu
    # S @ V, not S_d @ V: a sparse S is cheaper than a dense GEMM
    s_null = (np.einsum("ij,ij->j", V, S @ V) / np.einsum("ij,ij->j", V, V)
              <= INF_CUTOFF * np.abs(S_d).sum(axis=0).max())
    lam = np.maximum(a_norm2, 0.0) / np.maximum(mu, np.finfo(float).tiny)
    lam[s_null] = np.inf
    has_a_norm = a_norm2 > 0.0
    V[:, has_a_norm] /= np.sqrt(a_norm2[has_a_norm])
    # ascending mu is descending lambda; the stable sort only moves a
    # flagged S-null pair that eigh did not place first
    order = np.argsort(-lam, kind="stable")
    return lam[order], V[:, order]


SHIFT = -1e-8  # shift-invert pole just below nu = 0, the S-null modes


def leading_gen_eig(A: sp.spmatrix, S: sp.spmatrix, k: int):
    """The k leading eigenpairs of A psi = lambda S psi, A sparse SPD and
    S sparse PSD, by shift-invert Lanczos (ARPACK mode 3), for k < n - 1.

    The k eigenvalues nu of S v = nu A v nearest SHIFT come from one sparse
    factorization of S - SHIFT*A.  As in full_gen_eig, lambda = 1/nu is
    non-increasing and the eigenvectors are A-orthonormal columns; the
    S-null modes come first but are not flagged as inf.  The start vector
    and the generator of ARPACK's restarts are seeded, so every call and
    thread gets the same bits (a constant start vector is the S-null mode
    and breaks down at once).
    """
    n = A.shape[0]
    try:
        nu, vecs = spla.eigsh(S.tocsc(), k=k, M=A.tocsc(), sigma=SHIFT,
                              which="LM",
                              v0=np.random.default_rng(0).standard_normal(n),
                              rng=0)
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert Lanczos failed: {exc}") from None
    order = np.argsort(nu)
    nu, vecs = nu[order], vecs[:, order]
    return 1.0 / np.maximum(nu, np.finfo(float).tiny), vecs


class SparseFactor:
    """Reusable LU factorization of a sparse SPD matrix, on diagonal pivots."""

    def __init__(self, A):
        try:  # splu raises ValueError on a non-square matrix
            self._lu = spla.splu(sp.csc_matrix(A), diag_pivot_thresh=0.0)
        except RuntimeError as exc:
            raise NumericalError(f"sparse factorization failed: {exc}") from None
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):  # zero pivot
            raise NumericalError("matrix is not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))


def galerkin_factor(M) -> SparseFactor:
    """SparseFactor of a coarse Galerkin matrix P'AP, checked positive
    definite by the sign alone of each pivot of its LDL' form (Davis 2006):
    valid high-contrast ones reach 1e-24.  Only this reads U, a full copy."""
    factor = SparseFactor(M)
    if not np.all(factor._lu.U.diagonal() > 0.0):
        raise NumericalError("coarse matrix is not positive definite")
    return factor


@dataclass
class PcgReport:
    iterations: int
    residuals: list
    condition_estimate: float
    converged: bool


def _lanczos_condition(alphas, betas) -> float:
    """Condition estimate from the CG-recovered tridiagonal."""
    k = len(alphas)
    if k <= 1:
        return 1.0
    a, b = np.asarray(alphas), np.asarray(betas[:k - 1])
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    ev = la.eigvalsh_tridiagonal(diag, np.sqrt(b) / a[:-1])
    return float(ev[-1] / max(ev[0], np.finfo(float).tiny))


def pcg(A, b: np.ndarray, M_inv=None, tol: float = 1e-10, max_it: int = 1000):
    """Preconditioned CG on an SPD system.

    A is a sparse matrix or a callable v -> Av; M_inv a callable applying
    the preconditioner (identity when None).  The iteration starts from
    zero; convergence is measured in the relative preconditioned residual
    sqrt(r'z)/sqrt(r0'z0).
    """
    matvec = A if callable(A) else (lambda v: A @ v)
    prec = M_inv if M_inv is not None else (lambda v: v)
    x = np.zeros_like(b)
    r = b.copy()
    z = prec(r)
    rz = float(r @ z)
    if rz < 0:
        raise NumericalError("preconditioner is not positive")
    norm0 = np.sqrt(rz) if rz > 0 else 1.0
    history = [1.0]
    if rz == 0.0:
        return x, PcgReport(0, history, 1.0, True)
    p = z.copy()
    alphas, betas = [], []
    warned = False
    best = 1.0  # min(history[:-1]), kept as it goes
    for it in range(1, max_it + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise NumericalError(f"operator lost positive definiteness (p'Ap={pAp:.3e})")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = prec(r)
        rz_new = float(r @ z)
        alphas.append(alpha)
        rel = np.sqrt(max(rz_new, 0.0)) / norm0
        history.append(rel)
        if not warned and rel > 100.0 * best:
            warnings.warn(f"pcg residual grew 100x at iteration {it}", RuntimeWarning)
            warned = True
        best = min(best, rel)
        if rel <= tol:
            return x, PcgReport(it, history, _lanczos_condition(alphas, betas), True)
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new
    return x, PcgReport(max_it, history, _lanczos_condition(alphas, betas), False)


def block_factor(A, index_sets: list, label: str):
    """One SparseFactor F of the block-diagonal matrix of the principal
    blocks A_i = A[idx][:, idx], and the stacked 0/1 restriction
    R = [R_1; ...; R_J] (CSR): F.solve(R @ v) holds every A_i^{-1} R_i v,
    in ascending i.  After a failed joint factorization the blocks are
    factored one at a time, so the error names the first singular one."""
    for i, idx in enumerate(index_sets):
        if len(idx) == 0:
            raise NumericalError(f"{label} {i} has no interior nodes")
    blocks = [A[idx][:, idx] for idx in index_sets]
    try:
        factor = SparseFactor(sp.block_diag(blocks, format="csc"))
    except NumericalError:
        for i, block in enumerate(blocks):
            try:
                SparseFactor(block)
            except NumericalError as exc:
                raise NumericalError(f"{label} {i}: {exc}") from None
        raise
    return factor, sp.eye(A.shape[0], format="csr")[np.concatenate(index_sets)]


@dataclass
class TwoLevelPreconditioner:
    """M^{-1} v = P A_0^{-1} P'v + sum_i R_i' A_i^{-1} R_i v on the ordering
    of a free-node-reduced fine system: R = [P'; R_1; ...; R_J], R_t its
    CSR transpose, local_factor the one factor of every subdomain block
    A_i.  An apply is two sparse products and two sparse solves."""

    coarse_P: sp.csr_matrix
    coarse_factor: object  # v -> A_0^{-1} v
    R: sp.csr_matrix
    R_t: sp.csr_matrix
    local_factor: SparseFactor

    def apply(self, v: np.ndarray) -> np.ndarray:
        z = self.R @ v
        m = self.coarse_P.shape[1]
        return self.R_t @ np.concatenate([self.coarse_factor(z[:m]),
                                          self.local_factor.solve(z[m:])])

    def __call__(self, v):
        return self.apply(v)


def build_two_level(A_ff: sp.csr_matrix, P_ff: sp.csr_matrix,
                    sub_interior_indices: list) -> TwoLevelPreconditioner:
    """Factor P'AP by galerkin_factor and every subdomain principal block
    at once by block_factor (a singular one is named in the error).

    A_ff is the Dirichlet-reduced fine matrix, P_ff the coarse prolongation
    in the same row ordering, sub_interior_indices the per-subdomain index
    arrays into that ordering.
    """
    coarse_solve = galerkin_factor(P_ff.T @ (A_ff @ P_ff)).solve
    local, R_sub = block_factor(A_ff, sub_interior_indices, "subdomain")
    # hstack keeps each row of P in its stored order, so the coarse part
    # of R_t @ y sums in the order of P @ c
    R_t = sp.hstack([P_ff, R_sub.T.tocsr()], format="csr")
    return TwoLevelPreconditioner(P_ff, coarse_solve, R_t.T.tocsr(), R_t, local)
