"""Reproducible study drivers: coarse-space convergence, two-level
preconditioning, parametric reduction, anisotropy robustness, local
eigenvalue decay, and the nonlinear fixed-point solver.

Every driver returns its rows and optionally writes a CSV whose rows
carry a hash of the run configuration; results are byte-identical for
any worker count because the per-node work is mapped in order.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import scipy.sparse as sp

from .coeff import CoefficientField, evaluate
from .coupling import (build_coarse_basis, solve_coarse_galerkin, solve_fine)
from .fem import (BoundaryCondition, assemble_load, assemble_mass,
                  assemble_stiffness, reduce_dirichlet, relative_errors)
from .fields import (affine_four_term, anisotropic_pair, centered_inclusion,
                     channels_and_inclusions, channels_and_inclusions_alt)
from .mesh import build_coarse_mesh, build_fine_mesh, build_overlap
from .nonlinear import (NonlinearCoefficient, build_nonlinear_offline,
                        picard_solve)
from .pou import bilinear_pou, multiscale_pou
from .coeff import anisotropic_from_scalar
from .solvers import SparseFactor, build_two_level, pcg
from .spaces import (LocalRegion, ReducedSpace, SnapshotSpace, build_offline,
                     build_online, count_unbounded, assemble_a_form,
                     assemble_s_form, offline_spaces, parallel_map, truncate)

BC_LINEAR = BoundaryCondition(lambda x, y: x + y)
SOURCE = 1.0
PCG_TOL = 1e-10


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10e}"
    return str(x)


def _pou_only_spaces(coarse) -> dict:
    """One constant mode per node: the coarse space spanned by the POU."""
    spaces = {}
    for i in range(coarse.N_v):
        region = LocalRegion.from_neighborhood(coarse.neighborhoods[int(i)])
        spaces[int(i)] = ReducedSpace(
            region=region, columns=np.ones((region.n_nodes, 1)),
            eigenvalues=np.array([np.inf]), stage="offline",
            selection={"kept": 1})
    return spaces


# ---------------------------------------------------------------------------
# coarse-space convergence ladder

def run_convergence_study(fine_n: int = 100, coarse_n: int = 10,
                          eta: float = 1e6, snapshot_kind: str = "fine",
                          base_count: int = None, extra_max: int = 4,
                          workers: int = 1, out=None) -> list:
    """Error ladder: add one local mode per node per step and re-solve.

    Step +0 keeps the contrast-unbounded modes per node (detected at two
    moderate sample contrasts) unless base_count fixes a uniform base.
    Rows: (variant, step, dim, lambda_star, energy_pct, h1_pct, l2_pct, hash).
    """
    cfg = dict(study="convergence", fine=fine_n, coarse=coarse_n, eta=eta,
               snapshots=snapshot_kind, base=base_count, extra=extra_max)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    kappa = channels_and_inclusions(fine, eta)
    pou = multiscale_pou(coarse, kappa)
    if base_count is None:
        counts = detect_mode_counts(coarse, lambda e: channels_and_inclusions(fine, e),
                                    1e4, 1e2, workers=workers)
    else:
        counts = {i: base_count for i in range(coarse.N_v)}
    u_ref, A_k, M_k = solve_fine(fine, kappa, SOURCE, BC_LINEAR)
    top = offline_spaces(coarse, kappa, snapshot_kind, pou=pou,
                         count=max(counts.values()) + extra_max, workers=workers)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, SOURCE)
    rows = []
    for k in range(extra_max + 1):
        spaces = {i: truncate(s, min(counts[i] + k, s.dim))
                  for i, s in top.items()}
        basis = build_coarse_basis(coarse, pou, spaces)
        sol = solve_coarse_galerkin(fine, A, b, BC_LINEAR, basis)
        err = relative_errors(sol.u, u_ref, A_k, M_k)
        e, h1, l2 = err.as_percent()
        rows.append([snapshot_kind, f"+{k}", basis.dim,
                     _fmt(basis.lambda_star()), _fmt(e), _fmt(h1), _fmt(l2), h])
    if out:
        write_csv(out, ["variant", "step", "dim", "lambda_star",
                        "energy_pct", "h1_pct", "l2w_pct", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# two-level preconditioner robustness

def _two_level_report(fine, coarse, kappa, basis, delta_layers, max_it=600):
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, SOURCE)
    A_ff, b_f, fr, _ = reduce_dirichlet(A, b, fine, BC_LINEAR)
    pos = np.full(fine.n_nodes, -1, dtype=np.int64)
    pos[fr] = np.arange(len(fr))
    ov = build_overlap(coarse, delta_layers)
    subs = []
    for ints in ov.interior_nodes:
        idx = pos[ints]
        subs.append(idx[idx >= 0])
    M = build_two_level(A_ff, basis.P[fr].tocsr(), subs)
    _, rep = pcg(A_ff, b_f, M_inv=M, tol=PCG_TOL, max_it=max_it)
    return rep


def detect_mode_counts(coarse, field_at, eta_hi: float, eta_lo: float,
                       workers: int = 1) -> dict:
    """Per-node count of contrast-unbounded modes from two sample contrasts.

    field_at(eta) yields the coefficient at a given contrast; a mode counts
    as unbounded when its eigenvalue grows faster than sqrt(eta_hi/eta_lo).
    """
    growth = float(np.sqrt(eta_hi / eta_lo))
    spectra = {}
    for eta in (eta_hi, eta_lo):
        kappa = field_at(eta)
        spaces = offline_spaces(coarse, kappa, "fine",
                                pou=multiscale_pou(coarse, kappa),
                                workers=workers)
        spectra[eta] = {i: s.eigenvalues for i, s in spaces.items()}
    counts = {}
    for i in spectra[eta_hi]:
        counts[i] = max(1, count_unbounded(spectra[eta_hi][i],
                                           spectra[eta_lo][i], growth))
    return counts


def run_precond_study(fine_n: int = 100, coarse_n: int = 10,
                      etas=(1e3, 1e5, 1e7), delta_layers: int = 2,
                      workers: int = 1, out=None) -> list:
    """Iteration counts and condition estimates, POU-only versus spectral.

    The per-node spectral mode counts are detected once at moderate
    contrasts and frozen, so the coarse dimension is identical at every
    eta in the sweep.
    """
    cfg = dict(study="precond", fine=fine_n, coarse=coarse_n,
               etas=list(etas), delta=delta_layers)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    field_at = lambda e: channels_and_inclusions(fine, e)
    counts = detect_mode_counts(coarse, field_at, 1e4, 1e2, workers=workers)
    rows = []
    for eta in etas:
        kappa = field_at(eta)
        pou = multiscale_pou(coarse, kappa)
        for variant in ("pou", "spectral"):
            if variant == "pou":
                spaces = _pou_only_spaces(coarse)
            else:
                full = offline_spaces(coarse, kappa, "fine", pou=pou,
                                      count=max(counts.values()),
                                      workers=workers)
                spaces = {i: truncate(s, min(counts[i], s.dim))
                          for i, s in full.items()}
            basis = build_coarse_basis(coarse, pou, spaces)
            rep = _two_level_report(fine, coarse, kappa, basis, delta_layers)
            rows.append([variant, _fmt(float(eta)), basis.dim, rep.iterations,
                         _fmt(rep.condition_estimate), int(rep.converged), h])
    if out:
        write_csv(out, ["variant", "eta", "dim", "iterations",
                        "condition", "converged", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# parametric reduction quality versus number of sampled parameters

# at mu = 1e-4 and eta = 1e4 an inactive term's channels blend into the
# background, so each sample only reveals the channels of one term
PARAM_SAMPLES = [
    (1.0, 1e-4, 1e-4, 1e-4),
    (1e-4, 1.0, 1e-4, 1e-4),
    (1e-4, 1e-4, 1.0, 1e-4),
    (1e-4, 1e-4, 1e-4, 1.0),
]
PARAM_TEST = (0.5, 0.5, 0.5, 0.5)  # never among the offline samples


def run_parametric_study(fine_n: int = 100, coarse_n: int = 10,
                         eta: float = 1e4, n_rb_values=(2, 3, 4),
                         snap_per_sample: int = 10, base_count: int = 3,
                         extra_max: int = 3, workers: int = 1, out=None) -> list:
    """Online error at a test parameter versus the number of offline samples.

    Offline snapshots are unions of per-sample local spectral modes; the
    online space is rebuilt at the test parameter with a mode ladder.
    """
    cfg = dict(study="parametric", fine=fine_n, coarse=coarse_n, eta=eta,
               n_rb=list(n_rb_values), snap=snap_per_sample,
               base=base_count, extra=extra_max)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    aff = affine_four_term(fine, eta)
    mu_star = aff.parameter(PARAM_TEST)
    k_star = evaluate(aff, mu_star)
    k_samples = [evaluate(aff, aff.parameter(m)) for m in PARAM_SAMPLES]
    u_ref, A_k, M_k = solve_fine(fine, k_star, SOURCE, BC_LINEAR)
    A_star = assemble_stiffness(fine, k_star)
    b = assemble_load(fine, SOURCE)
    rows = []
    for n_rb in n_rb_values:
        fields = k_samples[:n_rb]
        avg = CoefficientField(np.mean([f.values for f in fields], axis=0))
        pou = multiscale_pou(coarse, avg)
        offline = offline_spaces(coarse, avg, "spectral", "kappa_mass",
                                 samples=fields,
                                 snap_per_sample=snap_per_sample,
                                 workers=workers)

        def online_at(i, off, L):
            region = off.region
            a_mat = assemble_mass(fine, weight=k_star, restrict_to=region.nodes,
                                  cells=region.cells)
            s_mat = assemble_stiffness(fine, k_star, restrict_to=region.nodes,
                                       cells=region.cells)
            return build_online(off, a_mat, s_mat, count=min(L, off.dim))

        for k in range(extra_max + 1):
            L = base_count + k
            spaces = {i: online_at(i, off, L) for i, off in offline.items()}
            basis = build_coarse_basis(coarse, pou, spaces)
            sol = solve_coarse_galerkin(fine, A_star, b, BC_LINEAR, basis)
            err = relative_errors(sol.u, u_ref, A_k, M_k)
            e, h1, l2 = err.as_percent()
            rows.append([n_rb, f"+{k}", basis.dim, _fmt(basis.lambda_star()),
                         _fmt(e), _fmt(h1), _fmt(l2), h])
    if out:
        write_csv(out, ["n_rb", "step", "dim", "lambda_star",
                        "energy_pct", "h1_pct", "l2w_pct", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# anisotropy robustness of the preconditioner

def run_anisotropic_study(fine_n: int = 100, coarse_n: int = 10,
                          etas=(1e4, 1e6), mu: float = 0.5,
                          delta_layers: int = 3, spectral_extra: int = 2,
                          workers: int = 1, out=None) -> list:
    """Preconditioner sweep with a diagonal-tensor coefficient.

    k11 interpolates two high-contrast fields with parameter mu; k22 = 1.
    The spectral coarse space keeps spectral_extra modes beyond the
    detected unbounded count per node, and the subdomain overlap default
    is one layer wider than in the isotropic sweep: with only one strong
    direction the weak direction couples the channels, and both margins
    together keep the iteration count contrast robust.
    """
    cfg = dict(study="anisotropic", fine=fine_n, coarse=coarse_n,
               etas=list(etas), mu=mu, delta=delta_layers,
               extra=spectral_extra)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)

    def field_at(eta):
        k0, k1 = anisotropic_pair(fine, eta)
        k11 = CoefficientField((1.0 - mu) * k0.values + mu * k1.values)
        return anisotropic_from_scalar(k11)

    counts = detect_mode_counts(coarse, field_at, 1e4, 1e2, workers=workers)
    rows = []
    for eta in etas:
        kappa = field_at(eta)
        pou = multiscale_pou(coarse, kappa)
        for variant in ("pou", "spectral"):
            if variant == "pou":
                spaces = _pou_only_spaces(coarse)
            else:
                full = offline_spaces(coarse, kappa, "fine", pou=pou,
                                      count=max(counts.values()) + spectral_extra,
                                      workers=workers)
                spaces = {i: truncate(s, min(counts[i] + spectral_extra, s.dim))
                          for i, s in full.items()}
            basis = build_coarse_basis(coarse, pou, spaces)
            rep = _two_level_report(fine, coarse, kappa, basis, delta_layers)
            rows.append([variant, _fmt(float(eta)), basis.dim, rep.iterations,
                         _fmt(rep.condition_estimate), int(rep.converged), h])
    # enrichment ladder of Galerkin errors at the first contrast
    eta0 = etas[0]
    kappa = field_at(eta0)
    pou = multiscale_pou(coarse, kappa)
    u_ref, A_k, M_k = solve_fine(fine, kappa, SOURCE, BC_LINEAR)
    top = offline_spaces(coarse, kappa, "fine", pou=pou,
                         count=max(counts.values()) + 2, workers=workers)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, SOURCE)
    for k in range(3):
        spaces = {i: truncate(s, min(counts[i] + k, s.dim))
                  for i, s in top.items()}
        basis = build_coarse_basis(coarse, pou, spaces)
        sol = solve_coarse_galerkin(fine, A, b, BC_LINEAR, basis)
        err = relative_errors(sol.u, u_ref, A_k, M_k)
        rows.append([f"galerkin+{k}", _fmt(float(eta0)), basis.dim, 0,
                     _fmt(100.0 * err.energy_sq), 1, h])
    if out:
        write_csv(out, ["variant", "eta", "dim", "iterations",
                        "condition_or_error", "converged", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# local eigenvalue decay for three form pairs

def run_eigendecay_study(fine_n: int = 40, inclusion_value: float = 100.0,
                         source_spacing: float = 0.2, workers: int = 1,
                         out=None) -> list:
    """Decay of the local spectrum over globally harmonic snapshots.

    Snapshots are fine solves with unit point loads on a sparse lattice
    outside the extended target box, restricted to the target; three
    (a, s) form pairs are compared, plus the third pair with the s form
    on the target itself as a reference.
    """
    cfg = dict(study="eigendecay", fine=fine_n, value=inclusion_value,
               spacing=source_spacing)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, 5, 5)  # the target is one coarse block
    kappa = centered_inclusion(fine, inclusion_value)
    from .coeff import cell_box_from_coords
    target = LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, 0.4, 0.6, 0.4, 0.6))
    ext = LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, 0.3, 0.7, 0.3, 0.7))

    # snapshots: globally harmonic away from sources placed outside ext
    A = assemble_stiffness(fine, kappa)
    b0 = np.zeros(fine.n_nodes)
    A_ff, _, fr, _ = reduce_dirichlet(A, b0, fine, BoundaryCondition(0.0))
    lu = SparseFactor(A_ff)
    ext_mask = np.zeros(fine.n_nodes, dtype=bool)
    ext_mask[ext.nodes] = True
    free_mask = np.zeros(fine.n_nodes, dtype=bool)
    free_mask[fr] = True
    step = max(int(round(source_spacing * fine.nx)), 1)
    nxp = fine.nx + 1
    sources = [n for n in range(fine.n_nodes)
               if free_mask[n] and not ext_mask[n]
               and (n % nxp) % step == 0 and (n // nxp) % step == 0]
    pos = np.full(fine.n_nodes, -1, dtype=np.int64)
    pos[fr] = np.arange(len(fr))

    def solve_one(n):
        rhs = np.zeros(len(fr))
        rhs[pos[n]] = 1.0
        u = np.zeros(fine.n_nodes)
        u[fr] = lu.solve(rhs)
        return u[ext.nodes]

    cols_ext = np.column_stack(parallel_map(solve_one, sources, workers))
    t_in_ext = ext.local_index(fine, target.nodes)
    cols_t = cols_ext[t_in_ext]

    pou = bilinear_pou(coarse)
    a1 = assemble_a_form(fine, target, kappa, "pou_stiffness", pou)
    s1 = assemble_s_form(fine, target, kappa)
    a2 = assemble_a_form(fine, target, kappa, "kappa_mass")
    s2 = s1
    # target stiffness embedded into the extended node set
    S_t = s1.tocoo()
    a3 = sp.coo_matrix(
        (S_t.data, (t_in_ext[S_t.row], t_in_ext[S_t.col])),
        shape=(ext.n_nodes, ext.n_nodes)).tocsr()
    s3 = assemble_s_form(fine, ext, kappa)

    pairs = [("pou-stiffness/stiffness", cols_t, a1, s1),
             ("mass/stiffness", cols_t, a2, s2),
             ("stiffness/ext-stiffness", cols_ext, a3, s3),
             ("stiffness/stiffness", cols_t, s1, s1)]
    rows = []
    for name, cols, a_mat, s_mat in pairs:
        snap = SnapshotSpace(region=target if cols is cols_t else ext,
                             columns=cols, kind="fine-grid")
        # global-harmonic snapshots are heavily rank deficient on the patch,
        # so dependent directions are dropped more aggressively here
        space = build_offline(snap, a_mat, s_mat, count=None, drop_tol=1e-8)
        finite = space.eigenvalues[np.isfinite(space.eigenvalues)]
        n_inf = len(space.eigenvalues) - len(finite)
        lam1 = float(finite[0]) if len(finite) else 0.0
        lam10 = float(finite[9]) if len(finite) > 9 else 0.0
        ratio = lam10 / lam1 if lam1 > 0 else 0.0
        rows.append([name, cols.shape[1], n_inf, _fmt(lam1), _fmt(lam10),
                     _fmt(ratio), h])
    if out:
        write_csv(out, ["pair", "n_snapshots", "n_inf", "lambda_1",
                        "lambda_10", "ratio", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# nonlinear fixed-point solver

def fine_picard_reference(fine, nl: NonlinearCoefficient, f, bc,
                          tol: float = 1e-12, max_it: int = 50) -> np.ndarray:
    """Fine-grid Picard iteration with the exponent frozen per cell."""
    from .fem import apply_dirichlet

    def cell_values(u):
        # average of the cell's four corner nodes
        nxp = fine.nx + 1
        idx = np.arange(fine.n_cells)
        ci, cj = idx % fine.nx, idx // fine.nx
        a = cj * nxp + ci
        return 0.25 * (u[a] + u[a + 1] + u[a + nxp] + u[a + nxp + 1])

    b = assemble_load(fine, f)
    u = np.zeros(fine.n_nodes)
    for _ in range(max_it):
        kappa = nl.at_value(cell_values(u))
        A = assemble_stiffness(fine, kappa)
        A_ff, b_f, fr, lift = reduce_dirichlet(A, b, fine, bc)
        u_new = lift.copy()
        u_new[fr] = lift[fr] + SparseFactor(A_ff).solve(b_f)
        d = np.linalg.norm(u_new - u) / max(np.linalg.norm(u_new), 1e-300)
        u = u_new
        if d <= tol:
            break
    return u


def run_nonlinear_study(fine_n: int = 80, coarse_n: int = 8,
                        eta: float = 1e4, alpha: float = 1.0,
                        offline_counts=(3, 5, 8), snap_per_sample: int = 8,
                        n_samples: int = 10, u_range=(0.0, 2.5),
                        workers: int = 1, out=None) -> list:
    """Picard convergence and accuracy versus the offline space size.

    The spectral snapshots and forms of each neighborhood do not depend
    on the offline count, so they are built once and reduced for each
    entry of offline_counts.  The
    study runs serially: workers is accepted for a uniform study
    signature but not used (spreading the snapshot stage over
    neighborhoods did not pay on two cores with multithreaded BLAS).
    """
    cfg = dict(study="nonlinear", fine=fine_n, coarse=coarse_n, eta=eta,
               alpha=alpha, counts=list(offline_counts),
               snap=snap_per_sample, samples=n_samples, range=list(u_range))
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    nl = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, eta),
        kappa2=channels_and_inclusions_alt(fine, eta),
        alpha=alpha, lam0=1.0)
    samples = np.linspace(u_range[0], u_range[1], n_samples)
    u_ref = fine_picard_reference(fine, nl, SOURCE, BC_LINEAR)
    # error norms weighted by the converged reference conductivity
    nxp = fine.nx + 1
    idx = np.arange(fine.n_cells)
    a = (idx // fine.nx) * nxp + (idx % fine.nx)
    ref_cells = 0.25 * (u_ref[a] + u_ref[a + 1] + u_ref[a + nxp] + u_ref[a + nxp + 1])
    k_ref = nl.at_value(ref_cells)
    A_k = assemble_stiffness(fine, k_ref)
    M_k = assemble_mass(fine, weight=k_ref)
    mid = 0.5 * (u_range[0] + u_range[1])
    pou = multiscale_pou(coarse, nl.at_value(mid))
    offlines = build_nonlinear_offline(coarse, nl, samples, snap_per_sample,
                                       list(offline_counts))
    rows = []
    for L, offline in zip(offline_counts, offlines):
        state = picard_solve(coarse, nl, SOURCE, BC_LINEAR, pou, samples,
                             offline=offline)
        err = relative_errors(state.u, u_ref, A_k, M_k)
        e, h1, l2 = err.as_percent()
        rows.append([L, state.dims, int(state.converged), state.iterations,
                     _fmt(state.lambda_star), _fmt(e), _fmt(h1), _fmt(l2), h])
    if out:
        write_csv(out, ["offline_count", "dim", "converged", "iterations",
                        "lambda_star", "energy_pct", "h1_pct", "l2w_pct",
                        "config"], rows)
    return rows
