"""Per-neighborhood snapshot, offline and online spaces.

Snapshot columns are fine-grid vectors on a local region; the offline and
online stages each project the local forms onto their columns and keep
the dominant eigenvectors of the projected pencil, all through one
reduction (_reduce) on one kernel (solvers.full_gen_eig).  Fine-grid
snapshots are the sparse identity, so their pencil is the local pencil
itself; the other kinds' columns can be dependent and are whitened first,
and drop_tol applies only to them.  offline_spaces is the one offline
pipeline: snapshots -> forms -> build_offline per coarse node.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .coeff import CoefficientField
from .fem import (_cells_to_triangles, assemble_mass, assemble_stiffness,
                  harmonic_extension)
from .mesh import CoarseMesh, FineMesh, LocalRegion
from .pou import pou_gradient_weight
from .solvers import NumericalError, full_gen_eig, leading_gen_eig

A_FORMS = ("pou_stiffness", "pou_grad_mass", "kappa_mass")


@dataclass
class SnapshotSpace:
    region: LocalRegion
    columns: np.ndarray  # (n_local_nodes, M_snap); sparse for "fine-grid"
    kind: str            # "fine-grid" means the columns are the identity

    @property
    def M_snap(self) -> int:
        return self.columns.shape[1]


@dataclass
class ReducedSpace:
    region: LocalRegion
    columns: np.ndarray       # (n_local_nodes, L) selected eigenvectors
    eigenvalues: np.ndarray   # the solved leading ones (_reduce), inf first
    stage: str                # 'offline' | 'online'
    selection: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def lambda_star(self) -> float:
        """Largest eigenvalue whose eigenvector was not selected (0 if none)."""
        L = self.dim
        return float(self.eigenvalues[L]) if L < len(self.eigenvalues) else 0.0


def harmonic_snapshots(mesh: FineMesh, region: LocalRegion,
                       kappa_samples: list) -> SnapshotSpace:
    """Local harmonic solves (fem.harmonic_extension of the region's Neumann
    stiffness) with unit nodal data on every boundary node.

    One column per (boundary node, coefficient sample) pair.
    """
    if len(kappa_samples) < 1:
        raise ValueError("need at least one coefficient sample")
    bnd = region.local_index(mesh, region.boundary_nodes)
    inner = region.local_index(mesh, mesh.interior_nodes_of_cell_box(*region.cell_box))
    unit = sp.identity(region.n_nodes, format="csc")[:, bnd].toarray()
    cols = [harmonic_extension(assemble_stiffness(mesh, kappa, region=region),
                               [inner], unit) for kappa in kappa_samples]
    return SnapshotSpace(region=region, columns=np.hstack(cols), kind="harmonic")


def fine_grid_snapshots(region: LocalRegion) -> SnapshotSpace:
    """All fine nodal functions of the region (sparse identity injection)."""
    return SnapshotSpace(region=region,
                         columns=sp.identity(region.n_nodes, format="csr"),
                         kind="fine-grid")


def spectral_snapshots(A_t: sp.spmatrix, S_t: sp.spmatrix, count: int,
                       region: LocalRegion) -> SnapshotSpace:
    """Dominant eigenvectors of A_t psi = lambda S_t psi, Neumann forms.

    The count leading eigenvectors (largest lambda, the S_t-null constant
    mode first), A_t-orthonormal.  They come from the sparse shift-invert
    kernel solvers.leading_gen_eig, which needs count < n - 1; a larger
    count takes every eigenvector of solvers.full_gen_eig.  A kernel
    failure is a NumericalError naming the region, never a silent fallback.
    """
    n = A_t.shape[0]
    count = min(count, n)
    try:
        if count < n - 1:
            _, vecs = leading_gen_eig(A_t, S_t, count)
        else:
            _, vecs = full_gen_eig(A_t, S_t)
    except NumericalError as exc:
        raise NumericalError(f"region {region.label}: {exc}") from None
    return SnapshotSpace(region=region, columns=vecs[:, :count], kind="local-spectral")


def assemble_a_form(mesh: FineMesh, region: LocalRegion, kappa: CoefficientField,
                    a_form: str, pou=None, weight=None) -> sp.csr_matrix:
    """Local a-form matrix on the region's nodes; weight, if given, is
    pou_gradient_weight on every fine cell, gathered for pou_grad_mass."""
    if a_form == "kappa_mass":
        return assemble_mass(mesh, weight=kappa.k11(), region=region)
    if pou is None:
        raise ValueError(f"a_form {a_form!r} needs a partition of unity")
    if a_form == "pou_grad_mass":
        w = (pou_gradient_weight(pou, kappa, region.cells) if weight is None
             else weight[_cells_to_triangles(region.cells)])
        return assemble_mass(mesh, region=region, triangle_weight=w)
    if a_form == "pou_stiffness":
        return _pou_stiffness_form(mesh, region, kappa, pou)
    raise ValueError(f"unknown a_form {a_form!r}")


def _pou_stiffness_form(mesh, region, kappa, pou) -> sp.csr_matrix:
    """sum_k stiffness of the nodal product chi_k * psi.

    chi_k psi can be nonzero one cell ring outside the region (psi is
    nonzero on the region boundary), so assembly runs on the padded box.
    Only the chi_k whose neighborhood meets the region can be nonzero on it.
    The sum is A_ij (C C')_ij, C_ik = chi_k at region node i.
    """
    cx0, cx1, cy0, cy1 = region.cell_box
    pad = LocalRegion.from_cell_box(mesh, (max(cx0 - 1, 0), min(cx1 + 1, mesh.nx),
                                           max(cy0 - 1, 0), min(cy1 + 1, mesh.ny)))
    r_in_pad = pad.local_index(mesh, region.nodes)
    A_r = assemble_stiffness(mesh, kappa, region=pad)[r_in_pad][:, r_in_pad].tocoo()
    # chi_k at the region's nodes only: psi is only defined there
    C = np.column_stack([pou.at(k, region.nodes)
                         for k in pou.coarse.nodes_meeting(region.cell_box)])
    A_r.data *= np.einsum("ij,ij->i", C[A_r.row], C[A_r.col])
    return A_r.tocsr()


def assemble_s_form(mesh: FineMesh, region: LocalRegion,
                    kappa: CoefficientField) -> sp.csr_matrix:
    return assemble_stiffness(mesh, kappa, region=region)


def _orthonormal_transform(G: np.ndarray, drop_tol: float):
    """Whitening transform of a PSD Gram matrix, dropping its near-null space."""
    w, V = la.eigh(0.5 * (G + G.T))
    w = np.maximum(w, 0.0)
    keep = w > drop_tol * max(w[-1], np.finfo(float).tiny)
    return V[:, keep] / np.sqrt(w[keep]), int((~keep).sum())


def _select(lams: np.ndarray, count=None, threshold=None) -> int:
    n_inf = int(np.sum(np.isinf(lams)))
    if count is not None:
        return min(int(count), len(lams))
    if threshold is not None:
        finite = lams[np.isfinite(lams)]
        if len(finite) == 0:
            return n_inf
        cut = threshold * finite[0]
        return n_inf + int(np.sum(finite >= cut))
    return len(lams)


def _reduce(R, a_mat, s_mat, stage: str, region, count=None, threshold=None,
            drop_tol=None) -> ReducedSpace:
    """Project (a_mat, s_mat) onto the columns R (None: the identity, never
    whitened), solve the projected pencil with solvers.full_gen_eig for its
    count + 1 leading pairs (enough for lambda_star), or all of them without
    a count, and keep those eigenvalues and the dominant eigenvectors.

    With drop_tol the columns are first whitened in the combined (a+s)
    inner product, dropping dependent ones.  An a+s that is not positive
    definite, a kept column without an a-norm, or any other kernel
    failure raises NumericalError naming the region.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, not {count}")
    A, S = (a_mat, s_mat) if R is None else (R.T @ (a_mat @ R), R.T @ (s_mat @ R))
    T, dropped = None, 0
    if drop_tol is not None and R is not None:
        T, dropped = _orthonormal_transform(A + S, drop_tol)
        A, S = T.T @ A @ T, T.T @ S @ T
    try:
        lam, vecs = full_gen_eig(A, S, None if count is None else count + 1)
    except NumericalError as exc:
        raise NumericalError(f"region {region.label}: {exc}") from None
    L = _select(lam, count=count, threshold=threshold)
    if L and lam[L - 1] == 0.0:
        raise NumericalError(f"region {region.label}: a kept eigenvector has "
                             "no a-norm")
    sel = {"count": count, "threshold": threshold, "kept": L,
           "dropped_snapshots": dropped}
    kept = vecs[:, :L] if T is None else T @ vecs[:, :L]
    # a copy, not a view that would keep every solved eigenvector alive
    return ReducedSpace(region=region, columns=kept.copy() if R is None else R @ kept,
                        eigenvalues=lam, stage=stage, selection=sel)


def build_offline(snap: SnapshotSpace, a_mat: sp.spmatrix, s_mat: sp.spmatrix,
                  count=None, threshold=None, drop_tol: float = 1e-10) -> ReducedSpace:
    """Project the forms onto the snapshots and keep dominant eigenvectors.

    Kept columns are a-orthonormal.  Fine-grid snapshots are the identity,
    so the pencil is the local pencil itself, with no product, and drop_tol
    is not used.  The other kinds' columns can be dependent; they are first
    whitened in the combined (a+s) inner product (drop_tol removes
    dependent columns), which keeps the projected pencil well conditioned
    while preserving the s-null modes whose eigenvalues are reported as inf.
    """
    space = _reduce(None if snap.kind == "fine-grid" else snap.columns, a_mat,
                    s_mat, "offline", snap.region, count=count,
                    threshold=threshold, drop_tol=drop_tol)
    space.selection["snapshot_kind"] = snap.kind
    return space


def build_online(off: ReducedSpace, a_mat: sp.spmatrix, s_mat: sp.spmatrix,
                 count=None, threshold=None) -> ReducedSpace:
    """Same reduction, on the offline basis with mu-specific forms."""
    if off.stage != "offline":
        raise ValueError("online spaces are built from an offline space")
    return _reduce(off.columns, a_mat, s_mat, "online", off.region,
                   count=count, threshold=threshold, drop_tol=None)


def truncate(space: ReducedSpace, count: int) -> ReducedSpace:
    """Keep only the first `count` eigenvectors (they are eigen-ordered)."""
    if count > space.dim:
        raise ValueError(f"cannot grow a space from {space.dim} to {count}")
    sel = dict(space.selection, kept=count)
    return ReducedSpace(region=space.region, columns=space.columns[:, :count],
                        eigenvalues=space.eigenvalues, stage=space.stage,
                        selection=sel)


# ---------------------------------------------------------------------------
# the offline pipeline: one pass of snapshots -> forms -> build_offline

def parallel_map(fn, items, workers: int = 1) -> list:
    """Apply fn to items, preserving order regardless of worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def snapshot_space(mesh: FineMesh, region: LocalRegion, kind: str,
                   kappa: CoefficientField, samples=None,
                   snap_per_sample: int = None) -> SnapshotSpace:
    """The snapshot space of one region: kind "fine", "harmonic" or "spectral".

    "spectral" is the union over the coefficient samples of the dominant
    snap_per_sample eigenvectors of the Neumann pencil (kappa-mass,
    kappa-stiffness); the other kinds use kappa alone.
    """
    if kind == "fine":
        return fine_grid_snapshots(region)
    if kind == "harmonic":
        return harmonic_snapshots(mesh, region, [kappa])
    if kind == "spectral":
        cols = [spectral_snapshots(assemble_a_form(mesh, region, f, "kappa_mass"),
                                   assemble_s_form(mesh, region, f),
                                   snap_per_sample, region).columns
                for f in samples]
        return SnapshotSpace(region=region, columns=np.hstack(cols),
                             kind="local-spectral")
    raise ValueError(f"unknown snapshot kind {kind!r}")


def local_forms(mesh: FineMesh, kappa: CoefficientField,
                a_form: str = "pou_grad_mass", pou=None):
    """region -> (a_mat, s_mat), with one pou_gradient_weight for all regions."""
    weight = (pou_gradient_weight(pou, kappa, np.arange(mesh.n_cells))
              if a_form == "pou_grad_mass" and pou is not None else None)

    def forms(region):
        return (assemble_a_form(mesh, region, kappa, a_form, pou, weight),
                assemble_s_form(mesh, region, kappa))

    return forms


def offline_spaces(coarse: CoarseMesh, kappa: CoefficientField,
                   snapshots: str = "fine", a_form: str = "pou_grad_mass",
                   pou=None, count=None, threshold=None, samples=None,
                   snap_per_sample: int = None,
                   workers: int = 1) -> dict:
    """Offline space per coarse node: {node: ReducedSpace}.

    Per neighborhood, the snapshot space (snapshot_space) is reduced with
    the a- and s-forms of kappa (local_forms) by build_offline; the nodes
    are mapped with parallel_map, so the result does not depend on
    workers.  Each node's snapshots are dropped once its space is built.
    For several counts, build at the largest and truncate.
    """
    mesh = coarse.fine
    forms = local_forms(mesh, kappa, a_form, pou)

    def one(region):
        snap = snapshot_space(mesh, region, snapshots, kappa, samples,
                              snap_per_sample)
        a_mat, s_mat = forms(region)
        return build_offline(snap, a_mat, s_mat, count=count,
                             threshold=threshold)

    return dict(enumerate(parallel_map(one, coarse.neighborhoods, workers)))


def count_unbounded(lams_hi: np.ndarray, lams_lo: np.ndarray,
                    growth: float) -> int:
    """Modes whose eigenvalue grows by more than `growth` between two contrasts.

    The solved leading eigenvalues (both non-increasing) are compared
    positionally, over the shorter; a count that reaches its end may go on
    beyond it.  inf modes at both contrasts always count.
    """
    n = min(len(lams_hi), len(lams_lo))
    count = 0
    for m in range(n):
        hi, lo = lams_hi[m], lams_lo[m]
        if np.isinf(hi):
            count += 1
        elif np.isfinite(lo) and lo > 0 and hi / lo > growth:
            count += 1
        else:
            break  # spectra are sorted; growth stops growing after the gap
    return count
