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

from .coeff import (CoefficientField, anisotropic_from_scalar,
                    cell_box_from_coords, evaluate)
from .coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from .fem import (BoundaryCondition, assemble_load, assemble_mass,
                  assemble_stiffness, reduce_dirichlet, relative_errors)
from .fields import (affine_four_term, anisotropic_pair, centered_inclusion,
                     channels_and_inclusions, channels_and_inclusions_alt)
from .mesh import LocalRegion, build_coarse_mesh, build_fine_mesh, build_overlap
from .nonlinear import (NonlinearCoefficient, build_nonlinear_offline,
                        picard_solve)
from .pou import bilinear_pou, multiscale_pou
from .solvers import SparseFactor, build_two_level, pcg
from .spaces import (ReducedSpace, SnapshotSpace, build_offline, build_online,
                     count_unbounded, assemble_a_form, assemble_s_form,
                     local_forms, offline_spaces, parallel_map, truncate)

BC_LINEAR = BoundaryCondition(lambda x, y: x + y)
SOURCE = 1.0
PCG_TOL = 1e-10
PCG_MAX_IT = 600
# the two sample contrasts at which detect_mode_counts compares spectra
ETA_HI, ETA_LO = 1e4, 1e2
# the leading eigenvalues it compares (all count at a node: whole spectra)
DETECT_PAIRS = 6
# stopping rule of the fine-grid Picard reference
REF_TOL, REF_MAX_IT = 1e-12, 50


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_csv(path, header: list, rows: list) -> None:
    """Write header and rows to path; without a path, write nothing."""
    if not path:
        return
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
    for i, region in enumerate(coarse.neighborhoods):
        spaces[i] = ReducedSpace(
            region=region, columns=np.ones((region.n_nodes, 1)),
            eigenvalues=np.array([np.inf]),
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
    Rows: (variant, step, dim, lambda_star, energy_pct, l2w_pct, hash).
    """
    cfg = dict(study="convergence", fine=fine_n, coarse=coarse_n, eta=eta,
               snapshots=snapshot_kind, base=base_count, extra=extra_max)
    h = config_hash(cfg)
    fine = build_fine_mesh(fine_n, fine_n)
    coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    kappa = channels_and_inclusions(fine, eta)
    if base_count is None:
        counts = detect_mode_counts(
            coarse, lambda e: channels_and_inclusions(fine, e), workers=workers)
    else:
        counts = {i: base_count for i in range(coarse.N_v)}
    rows = []
    for k, (basis, err) in enumerate(_ladder(coarse, kappa, counts, extra_max,
                                             snapshot_kind, workers)):
        e, l2 = err.as_percent()
        rows.append([snapshot_kind, f"+{k}", basis.dim,
                     _fmt(basis.lambda_star()), _fmt(e), _fmt(l2), h])
    write_csv(out, ["variant", "step", "dim", "lambda_star",
                    "energy_pct", "l2w_pct", "config"], rows)
    return rows


def _ladder(coarse, kappa, counts: dict, extra: int, snapshot_kind: str,
            workers: int) -> list:
    """Galerkin enrichment ladder: (basis, errors) for k = 0..extra.

    Step k keeps counts[i] + k offline modes at node i (at most all of
    them); the errors are against the fine reference solve.
    """
    fine = coarse.fine
    pou = multiscale_pou(coarse, kappa)
    u_ref, A, M = solve_fine(fine, kappa, SOURCE, BC_LINEAR)
    top = offline_spaces(coarse, kappa, snapshot_kind, pou=pou,
                         count=max(counts.values()) + extra, workers=workers)
    b = assemble_load(fine, SOURCE)
    out = []
    for k in range(extra + 1):
        spaces = {i: truncate(s, counts[i] + k) for i, s in top.items()}
        basis = build_coarse_basis(coarse, pou, spaces)
        u = solve_coarse_galerkin(fine, A, b, BC_LINEAR, basis)
        out.append((basis, relative_errors(u, u_ref, A, M)))
    return out


# ---------------------------------------------------------------------------
# two-level preconditioner robustness

def _precond_rows(coarse, field_at, etas, counts: dict, extra: int,
                  delta_layers: int, workers: int, h: str) -> list:
    """PCG rows of the two-level preconditioner, POU-only then spectral.

    The spectral coarse space keeps counts[i] + extra modes at node i.
    """
    fine = coarse.fine
    ov = build_overlap(coarse, delta_layers)
    rows = []
    for eta in etas:
        kappa = field_at(eta)
        pou = multiscale_pou(coarse, kappa)
        A = assemble_stiffness(fine, kappa)
        A_ff, b_f, fr, _ = reduce_dirichlet(A, assemble_load(fine, SOURCE),
                                            fine, BC_LINEAR)
        pos = np.full(fine.n_nodes, -1, dtype=np.int64)
        pos[fr] = np.arange(len(fr))
        subs = [pos[ints][pos[ints] >= 0] for ints in ov.interior_nodes]
        full = offline_spaces(coarse, kappa, "fine", pou=pou,
                              count=max(counts.values()) + extra,
                              workers=workers)
        spectral = {i: truncate(s, counts[i] + extra) for i, s in full.items()}
        for variant, spaces in (("pou", _pou_only_spaces(coarse)),
                                ("spectral", spectral)):
            basis = build_coarse_basis(coarse, pou, spaces)
            M = build_two_level(A_ff, basis.P[fr].tocsr(), subs)
            _, rep = pcg(A_ff, b_f, M_inv=M, tol=PCG_TOL, max_it=PCG_MAX_IT)
            rows.append([variant, _fmt(float(eta)), basis.dim, rep.iterations,
                         _fmt(rep.condition_estimate), int(rep.converged), h])
    return rows


def detect_mode_counts(coarse, field_at, workers: int = 1) -> dict:
    """Per-node count of contrast-unbounded modes from two sample contrasts.

    field_at(eta) yields the coefficient at a given contrast; a mode counts
    as unbounded when its eigenvalue grows faster than sqrt(ETA_HI/ETA_LO)
    between ETA_LO and ETA_HI.  Only DETECT_PAIRS leading eigenvalues are
    solved, and every node's whole spectrum if they all count at a node.
    """
    growth = float(np.sqrt(ETA_HI / ETA_LO))
    fields = [(k, multiscale_pou(coarse, k)) for k in map(field_at, (ETA_HI, ETA_LO))]

    def unbounded(**kw):
        hi, lo = (offline_spaces(coarse, kappa, "fine", pou=pou,
                                 workers=workers, **kw) for kappa, pou in fields)
        return {i: count_unbounded(hi[i].eigenvalues, lo[i].eigenvalues, growth)
                for i in hi}

    counts = unbounded(count=DETECT_PAIRS - 1)
    if max(counts.values()) >= DETECT_PAIRS:
        # a threshold solves the whole spectrum; 1.0 keeps few columns
        counts = unbounded(threshold=1.0)
    return {i: max(1, c) for i, c in counts.items()}


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
    counts = detect_mode_counts(coarse, field_at, workers=workers)
    rows = _precond_rows(coarse, field_at, etas, counts, 0, delta_layers,
                         workers, h)
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
    b = assemble_load(fine, SOURCE)
    # the online forms at k_star depend on neither n_rb nor the step
    star_forms = local_forms(fine, k_star, "kappa_mass")
    star = [star_forms(nb) for nb in coarse.neighborhoods]
    rows = []
    for n_rb in n_rb_values:
        fields = k_samples[:n_rb]
        avg = CoefficientField(np.mean([f.values for f in fields], axis=0))
        pou = multiscale_pou(coarse, avg)
        offline = offline_spaces(coarse, avg, "spectral", "kappa_mass",
                                 samples=fields,
                                 snap_per_sample=snap_per_sample,
                                 workers=workers)
        for k in range(extra_max + 1):
            L = base_count + k
            spaces = {i: build_online(off, *star[i], count=L)
                      for i, off in offline.items()}
            basis = build_coarse_basis(coarse, pou, spaces)
            u = solve_coarse_galerkin(fine, A_k, b, BC_LINEAR, basis)
            err = relative_errors(u, u_ref, A_k, M_k)
            e, l2 = err.as_percent()
            rows.append([n_rb, f"+{k}", basis.dim, _fmt(basis.lambda_star()),
                         _fmt(e), _fmt(l2), h])
    write_csv(out, ["n_rb", "step", "dim", "lambda_star",
                    "energy_pct", "l2w_pct", "config"], rows)
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

    counts = detect_mode_counts(coarse, field_at, workers=workers)
    rows = _precond_rows(coarse, field_at, etas, counts, spectral_extra,
                         delta_layers, workers, h)
    # enrichment ladder of Galerkin errors at the first contrast
    eta0 = etas[0]
    for k, (basis, err) in enumerate(_ladder(coarse, field_at(eta0), counts,
                                             2, "fine", workers)):
        rows.append([f"galerkin+{k}", _fmt(float(eta0)), basis.dim, 0,
                     _fmt(100.0 * err.energy_sq), 1, h])
    write_csv(out, ["variant", "eta", "dim", "iterations",
                    "condition_or_error", "converged", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# local eigenvalue decay for three form pairs

# the extended box around the eigendecay target [0.4, 0.6]^2
EIGENDECAY_EXT = (0.3, 0.7, 0.3, 0.7)


def eigendecay_sources(fine, source_spacing: float) -> np.ndarray:
    """Point-source nodes of the eigendecay study: the free nodes of the
    lattice with step source_spacing that lie outside the extended box."""
    step = max(int(round(source_spacing * fine.nx)), 1)
    nxp = fine.nx + 1
    n = np.arange(fine.n_nodes)
    keep = (n % nxp % step == 0) & (n // nxp % step == 0)
    keep[fine.boundary_nodes] = False
    ext = cell_box_from_coords(fine, *EIGENDECAY_EXT)
    keep[fine.nodes_in_cell_box(*ext)] = False
    if not keep.any():
        raise ValueError(f"source_spacing {source_spacing} places no point source "
                         f"outside the extended box at fine_n {fine.nx}")
    return np.flatnonzero(keep)


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
    sources = eigendecay_sources(fine, source_spacing)
    coarse = build_coarse_mesh(fine, 5, 5)  # the target is one coarse block
    kappa = centered_inclusion(fine, inclusion_value)
    target = LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, 0.4, 0.6, 0.4, 0.6))
    ext = LocalRegion.from_cell_box(
        fine, cell_box_from_coords(fine, *EIGENDECAY_EXT))

    # snapshots: globally harmonic away from sources placed outside ext
    A = assemble_stiffness(fine, kappa)
    b0 = np.zeros(fine.n_nodes)
    A_ff, _, fr, _ = reduce_dirichlet(A, b0, fine, BoundaryCondition(0.0))
    lu = SparseFactor(A_ff)
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
                             columns=cols)
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
    write_csv(out, ["pair", "n_snapshots", "n_inf", "lambda_1",
                    "lambda_10", "ratio", "config"], rows)
    return rows


# ---------------------------------------------------------------------------
# nonlinear fixed-point solver

def _cell_values(fine, u: np.ndarray) -> np.ndarray:
    """Average of each fine cell's four corner nodes."""
    nxp = fine.nx + 1
    idx = np.arange(fine.n_cells)
    a = (idx // fine.nx) * nxp + (idx % fine.nx)
    return 0.25 * (u[a] + u[a + 1] + u[a + nxp] + u[a + nxp + 1])


def fine_picard_reference(fine, nl: NonlinearCoefficient, f, bc) -> np.ndarray:
    """Fine-grid Picard iteration with the exponent frozen per cell."""
    b = assemble_load(fine, f)
    u = np.zeros(fine.n_nodes)
    for _ in range(REF_MAX_IT):
        kappa = nl.at_value(_cell_values(fine, u))
        A = assemble_stiffness(fine, kappa)
        A_ff, b_f, fr, lift = reduce_dirichlet(A, b, fine, bc)
        u_new = lift.copy()
        u_new[fr] = lift[fr] + SparseFactor(A_ff).solve(b_f)
        d = np.linalg.norm(u_new - u) / max(np.linalg.norm(u_new), 1e-300)
        u = u_new
        if d <= REF_TOL:
            break
    return u


def run_nonlinear_study(fine_n: int = 80, coarse_n: int = 8,
                        eta: float = 1e4, alpha: float = 1.0,
                        offline_counts=(3, 5, 8), snap_per_sample: int = 8,
                        n_samples: int = 10, u_range=(0.0, 2.5),
                        workers: int = 1, out=None) -> list:
    """Picard convergence and accuracy versus the offline space size.

    One offline space is built at the largest of offline_counts and
    truncated to each count, as the enrichment ladder does.  The study
    runs serially: workers is accepted for a uniform signature and is not
    used.
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
    k_ref = nl.at_value(_cell_values(fine, u_ref))
    A_k = assemble_stiffness(fine, k_ref)
    M_k = assemble_mass(fine, weight=k_ref)
    mid = 0.5 * (u_range[0] + u_range[1])
    pou = multiscale_pou(coarse, nl.at_value(mid))
    top = build_nonlinear_offline(coarse, nl, samples, snap_per_sample,
                                  max(offline_counts))
    rows = []
    for L in offline_counts:
        offline = {i: truncate(s, L) for i, s in top.items()}
        state = picard_solve(coarse, nl, SOURCE, BC_LINEAR, pou, samples,
                             offline=offline)
        err = relative_errors(state.u, u_ref, A_k, M_k)
        e, l2 = err.as_percent()
        rows.append([L, state.dims, int(state.converged), state.iterations,
                     _fmt(state.lambda_star), _fmt(e), _fmt(l2), h])
    write_csv(out, ["offline_count", "dim", "converged", "iterations",
                    "lambda_star", "energy_pct", "l2w_pct", "config"], rows)
    return rows
