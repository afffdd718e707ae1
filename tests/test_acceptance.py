"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line,
and then asserts.  The checks run the real pipelines at the stated sizes
and enforce both the numerical bounds and the runtime caps.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg as la

from gmsfem.coeff import CoefficientField
from gmsfem.coupling import (build_coarse_basis, solve_coarse_galerkin,
                             solve_fine)
from gmsfem.fem import (BoundaryCondition, assemble_load, assemble_stiffness,
                        relative_errors)
from gmsfem.fields import channels_and_inclusions, channels_and_inclusions_alt
from gmsfem.mesh import build_coarse_mesh, build_fine_mesh
from gmsfem.nonlinear import (NonlinearCoefficient, build_nonlinear_offline,
                              picard_solve)
from gmsfem.pou import bilinear_pou, energy_min_pou, multiscale_pou
from gmsfem.solvers import dense_gen_eig, full_gen_eig
from gmsfem.spaces import (LocalRegion, build_offline, build_online,
                           fine_grid_snapshots)
from gmsfem.studies import (run_anisotropic_study, run_convergence_study,
                            run_eigendecay_study, run_nonlinear_study,
                            run_parametric_study, run_precond_study)
from pou_oracles import chi_dense, pou_energy

WORKERS = 4


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_partition_of_unity_suite():
    t0 = time.time()
    fine = build_fine_mesh(100, 100)
    coarse = build_coarse_mesh(fine, 10, 10)
    kappa = channels_and_inclusions(fine, 1e6)
    pous = {
        "bilinear": bilinear_pou(coarse),
        "multiscale": multiscale_pou(coarse, kappa),
        "energy-minimizing": energy_min_pou(coarse, kappa),
    }
    defect = max(p.sum_defect() for p in pous.values())
    leak = 0.0
    mask = np.zeros(fine.n_nodes, dtype=bool)
    for p in pous.values():
        for i, nb in enumerate(coarse.neighborhoods):
            mask[:] = True
            mask[nb.nodes] = False
            leak = max(leak, float(np.abs(chi_dense(p, i)[mask]).max()))
    e = {k: pou_energy(p, kappa) for k, p in pous.items()}
    elapsed = time.time() - t0
    ok = (defect <= 1e-12 and leak == 0.0
          and e["energy-minimizing"] <= e["multiscale"] * (1 + 1e-12)
          and elapsed < 30.0)
    order = "ms<=bilinear" if e["multiscale"] <= e["bilinear"] else "bilinear<ms"
    _report(1, "partition-of-unity suite", ok,
            f"defect {defect:.2e}, leak {leak:.1e}, "
            f"energies emf {e['energy-minimizing']:.3e} <= ms {e['multiscale']:.3e}, "
            f"{order}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_eigensolver_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    kernels = {"dense": dense_gen_eig, "full": full_gen_eig}
    worst_rel = dict.fromkeys(kernels, 0.0)
    inf_exact = True
    for trial in range(200):
        n = int(rng.integers(2, 51))
        Q, _ = la.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(np.geomspace(1.0, 1e4, n)) @ Q.T
        deficient = trial % 2 == 1 and n > 2
        m = int(rng.integers(1, n)) if deficient else n
        # controlled singular values keep the finite eigenvalues well
        # determined, so both solvers agree to near machine precision
        U, _ = la.qr(rng.standard_normal((m, m)))
        W, _ = la.qr(rng.standard_normal((n, n)))
        B = U @ np.diag(np.geomspace(1.0, 30.0, m)) @ W[:m]
        S = B.T @ B
        nu = la.eigh(S, A, eigvals_only=True)  # independent oracle
        for name, kernel in kernels.items():
            lam, _ = kernel(A, S)
            n_inf = int(np.sum(np.isinf(lam)))
            if deficient and n_inf != n - m:
                inf_exact = False
            finite = lam[np.isfinite(lam)]
            want = np.sort(1.0 / nu[n - len(finite):])[::-1]
            if len(finite):
                rel = np.abs(finite - want) / np.maximum(np.abs(want), 1e-300)
                worst_rel[name] = max(worst_rel[name], float(rel.max()))
    elapsed = time.time() - t0
    ok = max(worst_rel.values()) < 1e-8 and inf_exact and elapsed < 10.0
    _report(2, "eigensolver oracle", ok,
            f"200 pencils, worst rel dense {worst_rel['dense']:.2e}, "
            f"full {worst_rel['full']:.2e}, "
            f"inf counts exact: {inf_exact}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_full_space_reproduction():
    t0 = time.time()
    fine = build_fine_mesh(40, 40)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = channels_and_inclusions(fine, 1e4)
    pou = bilinear_pou(coarse)
    bc = BoundaryCondition(lambda x, y: x + y)
    u_ref, A_k, M_k = solve_fine(fine, kappa, 1.0, bc)
    spaces = {}
    for i, nb in enumerate(coarse.neighborhoods):
        region = LocalRegion.from_neighborhood(nb)
        snap = fine_grid_snapshots(region)
        eye = np.eye(snap.M_snap)
        off = build_offline(snap, eye, eye, count=None)
        spaces[i] = build_online(off, eye, eye, count=None)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u = solve_coarse_galerkin(fine, A, b, bc, basis)
    err = np.sqrt(relative_errors(u, u_ref, A_k, M_k).energy_sq)
    elapsed = time.time() - t0
    ok = err <= 1e-8 and elapsed < 20.0
    _report(3, "full-space reproduction", ok,
            f"dim {basis.dim}, rel energy err {err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_enrichment_convergence():
    t0 = time.time()
    rows = run_convergence_study(fine_n=100, coarse_n=10, eta=1e6,
                                 snapshot_kind="fine", extra_max=4,
                                 workers=WORKERS)
    errs = np.array([float(r[4]) for r in rows])  # squared relative, percent
    lam = np.array([float(r[3]) for r in rows])
    decreasing = bool(np.all(np.diff(errs) < 0))
    halved = errs[-1] <= 0.5 * errs[0]
    pearson = float(np.corrcoef(lam, errs)[0, 1])
    elapsed = time.time() - t0
    ok = decreasing and halved and pearson >= 0.9 and elapsed < 180.0
    _report(4, "enrichment convergence", ok,
            f"energy% {['%.3f' % e for e in errs]}, pearson {pearson:.4f}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_05_harmonic_snapshot_variant():
    t0 = time.time()
    fine_rows = run_convergence_study(fine_n=40, coarse_n=8, eta=1e6,
                                      snapshot_kind="fine", base_count=4,
                                      extra_max=0, workers=WORKERS)
    harm_rows = run_convergence_study(fine_n=40, coarse_n=8, eta=1e6,
                                      snapshot_kind="harmonic", base_count=4,
                                      extra_max=0, workers=WORKERS)
    dim_f, dim_h = int(fine_rows[0][2]), int(harm_rows[0][2])
    err_f, err_h = float(fine_rows[0][4]), float(harm_rows[0][4])
    elapsed = time.time() - t0
    # both ladders sit at dim = 4 * N_v by construction
    ok = dim_f == dim_h == 4 * 81 and err_h <= 3.0 * err_f and elapsed < 180.0
    _report(5, "harmonic snapshot variant", ok,
            f"dim {dim_h}, energy% harmonic {err_h:.3f} vs fine {err_f:.3f}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_06_preconditioner_robustness():
    t0 = time.time()
    rows = run_precond_study(fine_n=80, coarse_n=8, etas=(1e3, 1e5, 1e7),
                             delta_layers=2, workers=WORKERS)
    spec = [r for r in rows if r[0] == "spectral"]
    pou = [r for r in rows if r[0] == "pou"]
    iters = [int(r[3]) for r in spec]
    conds = [float(r[4]) for r in spec]
    flat = all(abs(a - b) <= 0.2 * min(a, b)
               for i, a in enumerate(iters) for b in iters[i + 1:])
    cond_ok = max(conds) < 50.0
    pou_conds = [float(r[4]) for r in pou]
    growth = pou_conds[-1] / pou_conds[0]
    elapsed = time.time() - t0
    ok = flat and cond_ok and growth >= 1e2 and elapsed < 240.0
    _report(6, "preconditioner robustness", ok,
            f"spectral iters {iters}, cond max {max(conds):.1f}, "
            f"pou cond growth {growth:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_07_parametric_affine():
    t0 = time.time()
    rows = run_parametric_study(fine_n=60, coarse_n=6, n_rb_values=(2, 4),
                                workers=WORKERS)
    base = {int(r[0]): float(r[4]) for r in rows if r[1] == "+0"}
    ladder4 = [float(r[4]) for r in rows if int(r[0]) == 4]
    ratio = base[4] / base[2]
    decreasing = bool(np.all(np.diff(ladder4) < 0))
    elapsed = time.time() - t0
    ok = ratio <= 1.0 / 3.0 and decreasing and elapsed < 240.0
    _report(7, "parametric affine case", ok,
            f"+0 energy% n_rb=4/{'2'} = {base[4]:.3f}/{base[2]:.3f} "
            f"(ratio {ratio:.3f}), ladder {['%.3f' % e for e in ladder4]}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_08_anisotropic_case():
    t0 = time.time()
    rows = run_anisotropic_study(fine_n=80, coarse_n=8, etas=(1e4, 1e6),
                                 workers=WORKERS)
    spec = [r for r in rows if r[0] == "spectral"]
    pou = [r for r in rows if r[0] == "pou"]
    gal = [float(r[4]) for r in rows if str(r[0]).startswith("galerkin")]
    si = [int(r[3]) for r in spec]
    spec_flat = (all(int(r[5]) for r in spec)
                 and abs(si[0] - si[1]) <= 0.2 * min(si))
    # the one-mode space either fails to converge or loses eta robustness
    pi = [int(r[3]) for r in pou]
    pou_not_flat = (any(not int(r[5]) for r in pou)
                    or abs(pi[0] - pi[1]) > 0.2 * min(pi))
    gal_decreasing = bool(np.all(np.diff(gal) < 0))
    elapsed = time.time() - t0
    ok = spec_flat and pou_not_flat and gal_decreasing and elapsed < 240.0
    _report(8, "anisotropic case", ok,
            f"spectral iters {si}, pou iters {pi} "
            f"(converged {[int(r[5]) for r in pou]}), "
            f"galerkin% {['%.2f' % g for g in gal]}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_nonlinear_picard():
    t0 = time.time()
    rows = run_nonlinear_study(workers=WORKERS)
    converged = all(int(r[2]) for r in rows)
    iters = [int(r[3]) for r in rows]
    errs = [float(r[5]) for r in rows]
    decreasing = bool(np.all(np.diff(errs) < 0))

    # alpha = 0 must degenerate bit-exactly to one linear coarse solve
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    nl0 = NonlinearCoefficient(
        kappa1=channels_and_inclusions(fine, 1e3),
        kappa2=channels_and_inclusions_alt(fine, 1e3), alpha=0.0)
    kappa = nl0.at_value(0.0)
    pou = multiscale_pou(coarse, kappa)
    samples = np.linspace(0.0, 2.0, 5)
    bc = BoundaryCondition(lambda x, y: x + y)
    offline = build_nonlinear_offline(coarse, nl0, samples, 4, 4)
    state = picard_solve(coarse, nl0, 1.0, bc, pou, samples, offline)
    basis = build_coarse_basis(coarse, pou, offline)
    u = solve_coarse_galerkin(fine, assemble_stiffness(fine, kappa),
                              assemble_load(fine, 1.0), bc, basis)
    bit_exact = (state.iterations == 1
                 and bool(np.array_equal(state.u, u)))

    elapsed = time.time() - t0
    ok = (converged and max(iters) <= 5 and decreasing and bit_exact
          and elapsed < 240.0)
    _report(9, "nonlinear Picard", ok,
            f"iters {iters}, energy% {['%.3f' % e for e in errs]}, "
            f"alpha=0 bit-exact: {bit_exact}, {elapsed:.1f}s")
    assert ok


def test_criterion_10_eigendecay():
    t0 = time.time()
    rows = run_eigendecay_study(workers=WORKERS)
    ratios = {r[0]: float(r[5]) for r in rows[:3]}
    elapsed = time.time() - t0
    ok = all(r < 1e-2 for r in ratios.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in ratios.items())
    _report(10, "eigendecay study", ok, f"lambda10/lambda1: {detail}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    runs = [
        ("convergence", run_convergence_study,
         dict(fine_n=20, coarse_n=4, eta=1e3, base_count=2, extra_max=1)),
        ("precond", run_precond_study,
         dict(fine_n=20, coarse_n=4, etas=(1e3, 1e5), delta_layers=2)),
        ("parametric", run_parametric_study,
         dict(fine_n=20, coarse_n=4, n_rb_values=(2,), snap_per_sample=5,
              base_count=2, extra_max=1)),
        ("anisotropic", run_anisotropic_study,
         dict(fine_n=20, coarse_n=4, etas=(1e3,), spectral_extra=1)),
        ("eigendecay", run_eigendecay_study, dict(fine_n=20)),
        ("nonlinear", run_nonlinear_study,
         dict(fine_n=20, coarse_n=4, offline_counts=(2, 3), n_samples=4,
              snap_per_sample=4)),
    ]
    mismatched = []
    for name, fn, kwargs in runs:
        outputs = []
        for w in (1, 4):
            path = tmp_path / f"{name}_w{w}.csv"
            fn(workers=w, out=str(path), **kwargs)
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    elapsed = time.time() - t0
    ok = not mismatched
    _report(11, "determinism across worker counts", ok,
            f"{len(runs)} studies, mismatches {mismatched or 'none'}, "
            f"{elapsed:.1f}s")
    assert ok
