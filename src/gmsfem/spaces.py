"""Per-neighborhood snapshot, offline and online spaces.

Snapshot columns are fine-grid vectors on a local region; the offline and
online stages each solve a dense generalized eigenproblem of projected
local forms and keep the dominant eigenvectors.  offline_spaces is the
one offline pipeline: snapshots -> forms -> build_offline per coarse node.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .coeff import CoefficientField
from .fem import assemble_mass, assemble_stiffness
from .mesh import CoarseMesh, FineMesh, Neighborhood
from .pou import pou_gradient_weight
from .solvers import NumericalError, SparseFactor, _gen_eig, dense_gen_eig

A_FORMS = ("pou_stiffness", "pou_grad_mass", "kappa_mass", "kappa_stiffness")


@dataclass
class LocalRegion:
    """A rectangle of fine cells with its node set, used for local assembly."""

    nodes: np.ndarray
    cells: np.ndarray
    cell_box: tuple
    boundary_nodes: np.ndarray
    label: int = -1

    @classmethod
    def from_neighborhood(cls, nb: Neighborhood, extended: bool = False):
        if extended:
            return cls(nodes=nb.ext_nodes, cells=nb.ext_cells,
                       cell_box=nb.ext_cell_box, boundary_nodes=None,
                       label=nb.coarse_node)
        return cls(nodes=nb.nodes, cells=nb.cells, cell_box=nb.cell_box,
                   boundary_nodes=nb.boundary_nodes, label=nb.coarse_node)

    @classmethod
    def from_cell_box(cls, mesh: FineMesh, box: tuple, label: int = -1):
        from .mesh import _box_boundary_nodes
        return cls(nodes=mesh.nodes_in_cell_box(*box),
                   cells=mesh.cells_in_box(*box), cell_box=box,
                   boundary_nodes=_box_boundary_nodes(mesh, box), label=label)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def local_index(self, mesh: FineMesh, nodes: np.ndarray) -> np.ndarray:
        lut = np.full(mesh.n_nodes, -1, dtype=np.int64)
        lut[self.nodes] = np.arange(self.n_nodes)
        out = lut[nodes]
        if np.any(out < 0):
            raise ValueError("nodes outside the region")
        return out

    def embed(self, mesh: FineMesh, columns: np.ndarray) -> np.ndarray:
        """Zero-extend local columns to full fine vectors."""
        out = np.zeros((mesh.n_nodes,) + columns.shape[1:])
        out[self.nodes] = columns
        return out


@dataclass
class SnapshotSpace:
    region: LocalRegion
    columns: np.ndarray  # (n_local_nodes, M_snap)
    kind: str

    @property
    def M_snap(self) -> int:
        return self.columns.shape[1]


@dataclass
class ReducedSpace:
    region: LocalRegion
    columns: np.ndarray       # (n_local_nodes, L) selected eigenvectors
    eigenvalues: np.ndarray   # full non-increasing spectrum (inf first)
    stage: str                # 'offline' | 'online'
    selection: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def lambda_star(self) -> float:
        """Largest eigenvalue whose eigenvector was not selected."""
        L = self.dim
        if L >= len(self.eigenvalues):
            return 0.0
        return float(self.eigenvalues[L])


def harmonic_snapshots(mesh: FineMesh, region: LocalRegion,
                       kappa_samples: list) -> SnapshotSpace:
    """Local harmonic solves with unit nodal data on every boundary node.

    One column per (boundary node, coefficient sample) pair.
    """
    if len(kappa_samples) < 1:
        raise ValueError("need at least one coefficient sample")
    bnd_local = region.local_index(mesh, region.boundary_nodes)
    interior_mask = np.ones(region.n_nodes, dtype=bool)
    interior_mask[bnd_local] = False
    int_local = np.flatnonzero(interior_mask)
    cols = []
    for kappa in kappa_samples:
        A = assemble_stiffness(mesh, kappa, restrict_to=region.nodes,
                               cells=region.cells)
        block = np.zeros((region.n_nodes, len(bnd_local)))
        block[bnd_local, np.arange(len(bnd_local))] = 1.0
        if len(int_local):
            lu = SparseFactor(A[int_local][:, int_local])
            rhs = -np.asarray(A[int_local][:, bnd_local].todense())
            block[int_local] = lu.solve(rhs)
        cols.append(block)
    return SnapshotSpace(region=region, columns=np.hstack(cols), kind="harmonic")


def fine_grid_snapshots(region: LocalRegion) -> SnapshotSpace:
    """All fine nodal functions of the region (identity injection)."""
    return SnapshotSpace(region=region, columns=np.eye(region.n_nodes),
                         kind="fine-grid")


def spectral_snapshots(A_t: sp.spmatrix, S_t: sp.spmatrix, count: int,
                       region: LocalRegion) -> SnapshotSpace:
    """Dominant eigenvectors of A_t psi = lambda S_t psi, Neumann forms.

    Only the eigenvectors are kept, so the inf-mode count is skipped.
    """
    _, vecs = _gen_eig(np.asarray(A_t.todense()), np.asarray(S_t.todense()),
                       inf_cutoff=None)
    count = min(count, vecs.shape[1])
    return SnapshotSpace(region=region, columns=vecs[:, :count], kind="local-spectral")


def assemble_a_form(mesh: FineMesh, region: LocalRegion, kappa: CoefficientField,
                    a_form: str, pou=None, grad_weight=None) -> sp.csr_matrix:
    """Local a-form matrix on the region's nodes.

    grad_weight is pou_gradient_weight(pou, kappa) for "pou_grad_mass".
    It is a global per-triangle array, so a loop over regions can compute
    it once and pass it; without it every call recomputes it.
    """
    if a_form == "kappa_stiffness":
        return assemble_stiffness(mesh, kappa, restrict_to=region.nodes,
                                  cells=region.cells)
    if a_form == "kappa_mass":
        return assemble_mass(mesh, weight=kappa.k11(), restrict_to=region.nodes,
                             cells=region.cells)
    if pou is None:
        raise ValueError(f"a_form {a_form!r} needs a partition of unity")
    if a_form == "pou_grad_mass":
        if grad_weight is None:
            grad_weight = pou_gradient_weight(pou, kappa)
        return assemble_mass(mesh, restrict_to=region.nodes, cells=region.cells,
                             triangle_weight=grad_weight)
    if a_form == "pou_stiffness":
        return _pou_stiffness_form(mesh, region, kappa, pou)
    raise ValueError(f"unknown a_form {a_form!r}")


def _pou_stiffness_form(mesh, region, kappa, pou) -> sp.csr_matrix:
    """sum_k stiffness of the nodal product chi_k * psi.

    chi_k psi can be nonzero one cell ring outside the region (psi is
    nonzero on the region boundary), so assembly runs on the padded box.
    """
    cx0, cx1, cy0, cy1 = region.cell_box
    pad = (max(cx0 - 1, 0), min(cx1 + 1, mesh.nx),
           max(cy0 - 1, 0), min(cy1 + 1, mesh.ny))
    pad_nodes = mesh.nodes_in_cell_box(*pad)
    pad_cells = mesh.cells_in_box(*pad)
    A_pad = assemble_stiffness(mesh, kappa, restrict_to=pad_nodes, cells=pad_cells)
    lut = np.full(mesh.n_nodes, -1, dtype=np.int64)
    lut[pad_nodes] = np.arange(len(pad_nodes))
    r_in_pad = lut[region.nodes]
    total = sp.csr_matrix((len(pad_nodes), len(pad_nodes)))
    region_set = np.zeros(mesh.n_nodes, dtype=bool)
    region_set[region.nodes] = True
    for k in range(pou.coarse.N_v):
        d = pou.chi[k][pad_nodes]
        # zero outside the region: psi is only defined there
        d = np.where(region_set[pad_nodes], d, 0.0)
        if not np.any(d):
            continue
        D = sp.diags(d)
        total = total + D @ A_pad @ D
    return total[r_in_pad][:, r_in_pad].tocsr()


def assemble_s_form(mesh: FineMesh, region: LocalRegion,
                    kappa: CoefficientField) -> sp.csr_matrix:
    return assemble_stiffness(mesh, kappa, restrict_to=region.nodes,
                              cells=region.cells)


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


def _reduce(columns: np.ndarray, a_mat, s_mat, stage: str, region,
            count=None, threshold=None, drop_tol=None, selection_extra=None):
    R = columns
    A = R.T @ (a_mat @ R)
    S = R.T @ (s_mat @ R)
    deflated = 0
    if drop_tol is not None:
        T, deflated = _orthonormal_transform(A + S, drop_tol)
        A = T.T @ A @ T
        S = T.T @ S @ T
    else:
        T = np.eye(R.shape[1])
    lam, vecs = dense_gen_eig(A, S)
    L = _select(lam, count=count, threshold=threshold)
    sel = {"count": count, "threshold": threshold, "kept": L,
           "dropped_snapshots": deflated}
    if selection_extra:
        sel.update(selection_extra)
    return ReducedSpace(region=region, columns=R @ (T @ vecs[:, :L]),
                        eigenvalues=lam, stage=stage, selection=sel)


def build_offline(snap: SnapshotSpace, a_mat: sp.spmatrix, s_mat: sp.spmatrix,
                  count=None, threshold=None, drop_tol: float = 1e-10) -> ReducedSpace:
    """Project the forms onto the snapshots and keep dominant eigenvectors.

    Snapshot columns are first whitened in the combined (a+s) inner product
    (drop tolerance removes dependent columns), which keeps the projected
    pencil well conditioned while preserving the s-null modes whose
    eigenvalues are reported as inf.
    """
    return _reduce(snap.columns, a_mat, s_mat, "offline", snap.region,
                   count=count, threshold=threshold, drop_tol=drop_tol,
                   selection_extra={"snapshot_kind": snap.kind})


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
    """region -> (a_mat, s_mat) for one pass over the regions.

    The POU gradient weight of "pou_grad_mass" is a global per-triangle
    array, so it is computed here once, not once per region.
    """
    grad_weight = (pou_gradient_weight(pou, kappa)
                   if a_form == "pou_grad_mass" and pou is not None else None)

    def forms(region):
        return (assemble_a_form(mesh, region, kappa, a_form, pou, grad_weight),
                assemble_s_form(mesh, region, kappa))

    return forms


def offline_spaces(coarse: CoarseMesh, kappa: CoefficientField,
                   snapshots: str = "fine", a_form: str = "pou_grad_mass",
                   pou=None, count=None, threshold=None, samples=None,
                   snap_per_sample: int = None,
                   workers: int = 1) -> dict | list:
    """Offline space per coarse node: {node: ReducedSpace}.

    Per neighborhood, the snapshot space (snapshot_space) is reduced with
    the a- and s-forms of kappa (local_forms) by build_offline; the nodes
    are mapped with parallel_map, so the result does not depend on
    workers.  Each node's snapshots are dropped once its space is built.
    count may be a list of counts: each node's snapshots and forms are
    then built once and reduced once per count, and the result is a list
    with one {node: ReducedSpace} per entry.
    """
    many = isinstance(count, (list, tuple))
    counts = list(count) if many else [count]
    mesh = coarse.fine
    forms = local_forms(mesh, kappa, a_form, pou)

    def one(nb):
        region = LocalRegion.from_neighborhood(nb)
        snap = snapshot_space(mesh, region, snapshots, kappa, samples,
                              snap_per_sample)
        a_mat, s_mat = forms(region)
        return [build_offline(snap, a_mat, s_mat, count=c, threshold=threshold)
                for c in counts]

    per_node = parallel_map(one, coarse.neighborhoods, workers)
    out = [{i: node[j] for i, node in enumerate(per_node)}
           for j in range(len(counts))]
    return out if many else out[0]


def count_unbounded(lams_hi: np.ndarray, lams_lo: np.ndarray,
                    growth: float) -> int:
    """Modes whose eigenvalue grows by more than `growth` between two contrasts.

    Spectra are compared positionally (both non-increasing); inf modes at
    both contrasts always count.
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
