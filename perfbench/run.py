"""Benchmark of the gmsfem library: three closed-loop workloads.

    python3 perfbench/run.py --workload {ladder,pcg_sweep,picard} \\
        --seed N --seconds S --trace {0,1} [--size tiny]

Run it from the repository root.  Each workload has one client that sends
the next op only after the previous one has completed, through the
library's public entry points, in this one process:

- ladder: ``gmsfem.cli.main([... "study-convergence"])`` at fine 24 /
  coarse 4 (169-node pencils at the interior nodes) with fine-grid
  snapshots, extra_max 4 and 2 workers.  The seed draws eta
  log-uniformly from [1e4, 1e7].
- pcg_sweep: the set-up builds a fine 60 / coarse 6 channels problem
  (eta 1e6, energy-minimizing POU, harmonic snapshots, 4 modes per node)
  and its two-level preconditioner.  An op is one ``solvers.pcg`` solve
  (tol 1e-10) for a cellwise-random load drawn from the seed.
- picard: ``gmsfem.cli.main([... "study-nonlinear"])`` at fine 30 /
  coarse 3, n_samples 4, offline_counts [3, 8], 1 worker.  The seed draws
  eta log-uniformly from [1e3, 1e5].

Set-up runs SETUP_REPS times and ``setup_s`` is the median.  On ladder and
picard it is the CLI start-up (a fresh interpreter importing gmsfem.cli);
on pcg_sweep it is the build of the solver described above.

Every op's output is checked; an op that raises or fails its check counts
as failed.  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run (see spans.py), in which untraced and traced ops
alternate so that the tracing overhead is measured too.  The line before
it is a JSON report with the machine, the inputs, the sample counts, the
tail percentile and the check results.  ``--size tiny`` runs every
workload at fine 20 / coarse 4 for the self-check in test_perfbench.py.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = {"ladder": 7, "pcg_sweep": 3, "picard": 7}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PCG_TOL = 1e-10
ORACLE_RTOL = 1e-6

SIZES = {
    "full": {
        "ladder": {"fine_n": 24, "coarse_n": 4, "extra_max": 4},
        "picard": {"fine_n": 30, "coarse_n": 3, "n_samples": 4,
                   "offline_counts": [3, 8]},
        "pcg_sweep": {"fine": 60, "coarse": 6},
    },
    "tiny": {
        "ladder": {"fine_n": 20, "coarse_n": 4, "extra_max": 4},
        "picard": {"fine_n": 20, "coarse_n": 4, "n_samples": 2,
                   "offline_counts": [3, 5]},
        "pcg_sweep": {"fine": 20, "coarse": 4},
    },
}
WORKERS = {"ladder": 2, "pcg_sweep": 1, "picard": 1}
ETA_LOG10 = {"ladder": (4.0, 7.0), "picard": (3.0, 5.0)}
PCG_ETA = 1e6

# study_s and solves_per_s come from the fastest op of the run: on a shared
# host, noise only ever adds time, and the median op moves with the share
# of the run the host (or ladder's BLAS oversubscription) was slow.  The
# median and tail op latency are in the report line, not in this list.
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("study_s", "s", "lower"),
    ("solves_per_s", "1/s", "higher"),
    ("energy_err_pct", "%", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics of the timed ops, per traced op.  `calls` and `self_s`
# come from the spans; the rest are counters read from outside the program.
_CALLS_AND_SELF = [
    "solvers.dense_gen_eig", "solvers.pcg",
    "solvers.TwoLevelPreconditioner.apply", "solvers.SparseFactor",
    "spaces.build_offline", "spaces.spectral_snapshots", "spaces.build_online",
    "pou.pou_gradient_weight", "nonlinear.build_nonlinear_offline",
    "nonlinear.picard_solve", "fem.assemble_stiffness", "fem.assemble_mass",
    "coupling.build_coarse_basis", "coupling.solve_coarse_galerkin",
    "coupling.solve_fine",
]
_SELF_ONLY = [
    "solvers.build_two_level", "spaces.harmonic_snapshots",
    "spaces.fine_grid_snapshots", "spaces.assemble_a_form",
    "spaces.assemble_s_form", "pou.bilinear_pou", "pou.multiscale_pou",
    "pou.energy_min_pou", "nonlinear.node_averages", "nonlinear.block_averages",
    "fem.assemble_load", "fem.reduce_dirichlet", "studies.detect_mode_counts",
    "studies.fine_picard_reference", "mesh.build_fine_mesh",
    "mesh.build_coarse_mesh", "mesh.build_overlap", "cli.main",
    "studies.run_convergence_study", "studies.run_nonlinear_study",
]
_COUNTERS = [
    ("solvers.dense_gen_eig.n3_sum", "count", "lower"),
    ("solvers.pcg.iterations", "count", "lower"),
    ("solvers.pcg.condition", "ratio", "lower"),
    ("spaces.selection.kept", "count", "lower"),
    ("spaces.selection.dropped_snapshots", "count", "lower"),
    ("spaces.selection.inf_modes", "count", "lower"),
    ("nonlinear.picard_solve.iterations", "count", "lower"),
    ("studies.parallel_map.calls", "count", "lower"),
    ("studies.parallel_map.wall_s", "s", "lower"),
    ("studies.parallel_map.busy_s", "s", "lower"),
    ("studies.parallel_map.items", "count", "lower"),
    ("studies.parallel_map.threads", "count", "higher"),
    ("warn.pcg_residual_growth", "count", "lower"),
    ("warn.picard_clamp", "count", "lower"),
    ("warn.coarse_rank_deficient", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.traced_ops", "count", "higher"),
]
# Per-layer metrics of the set-up, per set-up repetition.
_SETUP = [
    "solvers.dense_gen_eig.calls", "solvers.dense_gen_eig.self_s",
    "solvers.dense_gen_eig.n3_sum", "solvers.pcg.calls", "solvers.pcg.self_s",
    "solvers.SparseFactor.calls", "solvers.SparseFactor.self_s",
    "solvers.build_two_level.self_s", "spaces.build_offline.calls",
    "spaces.build_offline.self_s", "spaces.harmonic_snapshots.self_s",
    "spaces.assemble_a_form.self_s", "pou.pou_gradient_weight.calls",
    "pou.pou_gradient_weight.self_s", "pou.energy_min_pou.self_s",
    "pou.multiscale_pou.self_s", "fem.assemble_stiffness.self_s",
    "fem.assemble_mass.self_s", "coupling.build_coarse_basis.self_s",
    "mesh.build_overlap.self_s", "cli.main.self_s",
]


def _unit(stat: str) -> str:
    return "s" if stat.endswith("_s") else "count"


LAYER_METRICS = (
    [(f"{n}.{st}", _unit(st), "lower") for n in _CALLS_AND_SELF
     for st in ("calls", "self_s")]
    + [(f"{n}.self_s", "s", "lower") for n in _SELF_ONLY]
    + _COUNTERS
    + [(f"setup.{m}", _unit(m), "lower") for m in _SETUP]
)

WARNINGS = {
    "pcg residual grew": "warn.pcg_residual_growth",
    "frozen exponent clamped": "warn.picard_clamp",
    "coarse basis is rank deficient": "warn.coarse_rank_deficient",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_library():
    """Import gmsfem from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gmsfem" / "__init__.py").is_file():
        raise BenchError(f"no gmsfem sources under {src}")
    sys.path.insert(0, str(src))
    import gmsfem
    from gmsfem import (cli, coupling, fem, fields, mesh, pou, solvers,
                        spaces, studies)  # noqa: F401
    if Path(gmsfem.__file__).resolve().parent != (src / "gmsfem").resolve():
        raise BenchError(f"gmsfem imported from {gmsfem.__file__}, not {src}")
    return gmsfem


# ---------------------------------------------------------------------------
# machine

def _openblas(pkg: str, suffix: str) -> dict:
    """Thread count and build of a bundled OpenBLAS, read, never set."""
    import ctypes
    mod = __import__(pkg)
    libdir = Path(mod.__file__).resolve().parent.parent / f"{pkg}.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            nt = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            cfg = getattr(lib, f"scipy_openblas_get_config{suffix}")
        except (OSError, AttributeError):
            continue
        nt.argtypes, nt.restype = [], ctypes.c_int
        cfg.argtypes, cfg.restype = [], ctypes.c_char_p
        return {"library": Path(path).name, "threads": nt(),
                "config": cfg().decode(errors="replace")}
    return {"library": None}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_info(workload: str) -> dict:
    import numpy
    import scipy
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(Path(f).read_text().splitlines())
                    for f in glob.glob(str(ROOT / "src" / "gmsfem" / "*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_numpy": _openblas("numpy", "64_"),
        "blas_scipy": _openblas("scipy", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workers": WORKERS[workload],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_gmsfem_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# workloads

class StudyWorkload:
    """ladder and picard: one op is one CLI study run."""

    def __init__(self, gm, name: str, size: str, seed: int):
        import numpy as np
        self.gm, self.name = gm, name
        self.command = {"ladder": "study-convergence",
                        "picard": "study-nonlinear"}[name]
        lo, hi = ETA_LOG10[name]
        self.eta = float(10.0 ** np.random.default_rng(seed).uniform(lo, hi))
        self.cfg = dict(SIZES[size][name], eta=self.eta)
        if name == "ladder":
            self.cfg["snapshot_kind"] = "fine"
        stem = OUT / f"{name}-{seed}"
        self.cfg_path, self.csv_path = Path(f"{stem}.json"), Path(f"{stem}.csv")
        self.first_csv = None
        self.energy, self.iterations = [], []

    def inputs(self) -> dict:
        return {"eta": self.eta, "config": self.cfg,
                "workers": WORKERS[self.name]}

    def setup(self):
        """CLI start-up: a fresh interpreter that imports gmsfem.cli.

        Every CLI study pays it, and it is where work moved to import time
        would show; the ops themselves run in this process.
        """
        code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import gmsfem.cli"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

    def prepare(self):
        """Write the op's config and run one untimed study at fine 20 /
        coarse 4, so that lazy initialisation is not in the first op."""
        warm = OUT / f"{self.name}-warm.json"
        warm.write_text(json.dumps(dict(SIZES["tiny"][self.name], eta=self.eta)))
        if self._run(warm) != 0:
            raise BenchError("warm-up study failed")
        self.cfg_path.write_text(json.dumps(self.cfg))

    def _run(self, cfg_path) -> int:
        argv = ["--config", str(cfg_path), "--workers", str(WORKERS[self.name]),
                "--out", str(self.csv_path), self.command]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.gm.cli.main(argv)

    def next_input(self):
        return None

    def op(self, _):
        """Run one study; returns a callable that checks its output."""
        rc = self._run(self.cfg_path)
        return lambda: self._check(rc)

    def _check(self, rc: int) -> None:
        if rc != 0:
            raise AssertionError(f"study exited with {rc}")
        data = self.csv_path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            raise AssertionError("CSV bytes differ between identical ops")
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        energy = [float(r["energy_pct"]) for r in rows]
        if self.name == "ladder":
            if len(rows) != self.cfg["extra_max"] + 1:
                raise AssertionError(f"ladder has {len(rows)} rows")
            if any(b >= a for a, b in zip(energy, energy[1:])):
                raise AssertionError(f"ladder error not decreasing: {energy}")
            if energy[-1] > 0.5 * energy[0]:
                raise AssertionError(f"ladder error fell too little: {energy}")
            self.energy.append(energy[-1])
        else:
            if len(rows) != len(self.cfg["offline_counts"]):
                raise AssertionError(f"picard has {len(rows)} rows")
            if any(r["converged"] != "1" or int(r["iterations"]) > 5 for r in rows):
                raise AssertionError("a Picard solve did not converge in 5 steps")
            if any(b >= a for a, b in zip(energy, energy[1:])):
                raise AssertionError(f"picard error not decreasing: {energy}")
            self.energy.append(energy[-1])

    def csv_sha256(self):
        return hashlib.sha256(self.first_csv).hexdigest() if self.first_csv else None


class PcgSweepWorkload:
    """pcg_sweep: one op is one two-level PCG solve."""

    def __init__(self, gm, name: str, size: str, seed: int):
        import numpy as np
        self.gm, self.name = gm, name
        self.size = SIZES[size][name]
        self.rng = np.random.default_rng(seed)
        self.energy, self.iterations = [], []
        self.oracle = None

    def inputs(self) -> dict:
        return {"eta": PCG_ETA, "size": self.size, "pou": "energy-min",
                "snapshots": "harmonic", "count": 4, "overlap": 2,
                "load": "cellwise uniform [0, 1)", "tol": PCG_TOL}

    def setup(self):
        import numpy as np
        gm = self.gm
        n, c = self.size["fine"], self.size["coarse"]
        fine = gm.mesh.build_fine_mesh(n, n)
        coarse = gm.mesh.build_coarse_mesh(fine, c, c)
        kappa = gm.fields.channels_and_inclusions(fine, PCG_ETA)
        pou = gm.pou.energy_min_pou(coarse, kappa)
        spaces = {}
        for i in range(coarse.N_v):
            region = gm.spaces.LocalRegion.from_neighborhood(coarse.neighborhoods[i])
            snap = gm.spaces.harmonic_snapshots(fine, region, [kappa])
            a_mat = gm.spaces.assemble_a_form(fine, region, kappa, "pou_grad_mass", pou)
            s_mat = gm.spaces.assemble_s_form(fine, region, kappa)
            spaces[i] = gm.spaces.build_offline(snap, a_mat, s_mat, count=4)
        basis = gm.coupling.build_coarse_basis(coarse, pou, spaces)
        bc = gm.fem.BoundaryCondition(lambda x, y: x + y)
        A = gm.fem.assemble_stiffness(fine, kappa)
        A_ff, _, fr, _ = gm.fem.reduce_dirichlet(A, np.zeros(fine.n_nodes), fine, bc)
        ov = gm.mesh.build_overlap(coarse, 2)
        pos = np.full(fine.n_nodes, -1, dtype=np.int64)
        pos[fr] = np.arange(len(fr))
        subs = [pos[ints][pos[ints] >= 0] for ints in ov.interior_nodes]
        M = gm.solvers.build_two_level(A_ff, basis.P[fr].tocsr(), subs)
        self.fine, self.A, self.A_ff, self.bc, self.M = fine, A, A_ff, bc, M

    def prepare(self):
        """Harness-side oracle, built after the timed set-up."""
        self.oracle = self.gm.solvers.SparseFactor(self.A_ff)

    def next_input(self):
        """A cellwise-random load, reduced to the free nodes."""
        f = self.rng.uniform(0.0, 1.0, self.fine.n_cells)
        b = self.gm.fem.assemble_load(self.fine, f)
        return self.gm.fem.reduce_dirichlet(self.A, b, self.fine, self.bc)[1]

    def op(self, b_f):
        x, rep = self.gm.solvers.pcg(self.A_ff, b_f, M_inv=self.M, tol=PCG_TOL,
                                     max_it=1000)
        return lambda: self._check(b_f, x, rep)

    def _check(self, b_f, x, rep) -> None:
        import numpy as np
        if not rep.converged:
            raise AssertionError(f"pcg stopped at {rep.iterations} iterations")
        ref = self.oracle.solve(b_f)
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        if not err <= ORACLE_RTOL:
            raise AssertionError(f"pcg differs from the direct solve by {err:.2e}")
        # energy error of the preconditioner's coarse level used as a solver
        M = self.M
        u_c = M.coarse_P @ M.coarse_factor(M.coarse_P.T @ b_f)
        e = u_c - ref
        self.energy.append(100.0 * float(e @ (self.A_ff @ e)) /
                           float(ref @ (self.A_ff @ ref)))
        self.iterations.append(rep.iterations)

    def csv_sha256(self):
        return None


WORKLOADS = {"ladder": StudyWorkload, "picard": StudyWorkload,
             "pcg_sweep": PcgSweepWorkload}


# ---------------------------------------------------------------------------
# measurement

def tail(lat: list) -> tuple:
    """(value, percentile): the highest of PERCENTILES with TAIL_BEYOND
    samples above it (nearest rank).  With fewer than 2 * TAIL_BEYOND
    samples none has, and the median stands in (as p50): the maximum of a
    handful of studies would measure only the rarest stall."""
    s = sorted(lat)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * len(s))
        if len(s) - rank >= TAIL_BEYOND:
            return s[rank - 1], p
    return statistics.median(s), 50.0


def _classify(caught, counts: dict) -> None:
    for w in caught:
        msg = str(w.message)
        key = next((v for k, v in WARNINGS.items() if k in msg), "warn.other")
        counts[key] = counts.get(key, 0) + 1


def run(args) -> tuple:
    gm = load_library()
    OUT.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](gm, args.workload, args.size, args.seed)
    setup_tracer = ops_tracer = None
    if args.trace:
        import spans
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        setup_tracer, ops_tracer = spans.Tracer(), spans.Tracer()
    setup_warnings, warn_counts, failures = {}, {}, []

    setup_times = []
    for _ in range(SETUP_REPS[args.workload]):
        if setup_tracer:
            setup_tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
        except Exception as exc:
            raise BenchError(f"set-up failed: {type(exc).__name__}: {exc}") from exc
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        _classify(caught, setup_warnings)
    wl.prepare()

    lat, traced_lat, untraced_lat, uncovered = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    # An op starts only if it should end within --seconds (judged by the
    # median op so far), so a run of 13 s studies does not overrun by one.
    while (time.perf_counter() - t_start + (statistics.median(lat) if lat else 0.0)
           <= args.seconds or attempted == 0
           or (args.trace and not traced_lat and attempted < 2)):
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        inp = wl.next_input()
        if traced:
            ops_tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t_op = time.perf_counter()
                check = wl.op(inp)
                t_end = time.perf_counter()
                dt = t_end - t_op
        except Exception:
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            continue
        finally:
            if traced:
                ops_tracer.uninstall()
        _classify(caught, warn_counts)
        try:
            check()
        except Exception as exc:  # a failed output check, or a crash in it
            failed += 1
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        lat.append(dt)
        if traced:
            traced_lat.append(dt)
            uncovered.append(dt - ops_tracer.covered(t_op, t_end))
        elif args.trace:
            untraced_lat.append(dt)
    if not lat:
        raise BenchError("every op failed: " + " | ".join(failures[:3]))

    if args.trace:
        metrics = layer_metrics(setup_tracer, len(setup_times), ops_tracer,
                                traced_lat, untraced_lat, uncovered, warn_counts)
        setup_tracer.dump(spans_path, "setup")
        ops_tracer.dump(spans_path, "ops")
    else:
        metrics = e2e_metrics(wl, setup_times, lat)
    t_val, t_pct = tail(lat)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "inputs": wl.inputs(),
        "machine": machine_info(args.workload),
        "samples": {"setup": len(setup_times), "ops": len(lat),
                    "traced_ops": len(traced_lat),
                    "untraced_ops": len(untraced_lat) if args.trace else len(lat)},
        "setup_s": setup_times, "op_s": lat,
        "latency_ms": {"p50": 1000.0 * statistics.median(lat),
                       "tail": 1000.0 * t_val, "tail_percentile": t_pct,
                       "min": 1000.0 * min(lat), "n": len(lat),
                       "beyond": TAIL_BEYOND},
        "pcg_iters_p50": statistics.median(wl.iterations) if wl.iterations else None,
        "failed_ratio": failed / attempted,
        "warnings": {"setup": setup_warnings, "ops": warn_counts},
        "csv_sha256": wl.csv_sha256(),
        "failures": failures[:10],
    }
    ok = failed == 0
    return ok, attempted, failed, metrics, report


def e2e_metrics(wl, setup_times, lat) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "study_s": min(lat),
        "solves_per_s": 1.0 / min(lat),
        "energy_err_pct": statistics.median(wl.energy),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in E2E_METRICS}


def _phase_values(tracer, n: int) -> dict:
    """Per-layer values of one phase, divided by its number of ops or set-ups."""
    vals = {}
    for name, s in tracer.stats().items():
        vals[f"{name}.calls"] = s["calls"] / n
        vals[f"{name}.self_s"] = s["self_s"] / n
        vals[f"{name}.total_s"] = s["total_s"] / n
    for name, v in tracer.counters.items():
        vals[name] = v if name.endswith(".threads") else v / n
    vals["studies.parallel_map.wall_s"] = vals.get("studies.parallel_map.total_s", 0.0)
    vals["solvers.pcg.condition"] = (statistics.median(tracer.conditions)
                                     if tracer.conditions else 0.0)
    return vals


def layer_metrics(setup_tracer, n_setups, ops_tracer, traced_lat, untraced_lat,
                  uncovered, warn_counts) -> dict:
    """Per-layer metrics: set-up values per set-up, op values per traced op,
    warnings per op over all ops."""
    n_traced = len(traced_lat)
    ops = _phase_values(ops_tracer, max(n_traced, 1))
    setup = _phase_values(setup_tracer, n_setups)
    for key in WARNINGS.values():
        ops[key] = warn_counts.get(key, 0) / (n_traced + len(untraced_lat))
    ops["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_lat) / statistics.median(untraced_lat) - 1.0)
        if traced_lat and untraced_lat else 0.0)
    ops["trace.uncovered_s"] = statistics.fmean(uncovered) if uncovered else 0.0
    ops["trace.traced_ops"] = n_traced
    ops.update({f"setup.{k}": v for k, v in setup.items()})
    return {name: {"value": float(ops.get(name, 0.0)), "unit": unit}
            for name, unit, _ in LAYER_METRICS}


def _sample_count(name: str, report: dict) -> int:
    s = report["samples"]
    if name.startswith("setup"):
        return s["setup"]
    if name == "peak_rss_mb":
        return 1
    if report["trace"]:
        return s["traced_ops"]
    return s["ops"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    try:
        ok, attempted, failed, metrics, report = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:44s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={_sample_count(name, report)}")
    if not args.trace:
        lat = report["latency_ms"]
        for label, value in (("op_ms_p50", lat["p50"]),
                             (f"op_ms_p{lat['tail_percentile']:g}", lat["tail"])):
            print(f"{args.workload:10s} {label + ' (report only)':44s} "
                  f"{value:14.6g} ms     n={lat['n']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
