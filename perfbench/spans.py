"""Outside-in span tracing of the gmsfem layers.

The library has no spans of its own, so this module wraps the public
functions of each layer from outside the program.  A wrapper is bound in
place of the original in every ``gmsfem.*`` module namespace (and in every
module-level dict, such as ``cli._STUDIES``) that holds the original,
because the studies and the CLI import with ``from .x import y``.  Methods
are patched on their classes.  ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, parent, t0, t1]`` records and turned
into per-layer statistics (and a JSON-lines dump) at the end.  Self time is
a span's duration minus the part of it that its children cover; children
running concurrently in ``parallel_map`` worker threads are counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Entry points: the op itself, not a layer.  Their spans do not count as
# coverage when the uncovered share of an op is computed.
ENTRY = ("cli.main", "studies.run_convergence_study",
         "studies.run_nonlinear_study")


# Counter hooks read what the numerics decided from a call's arguments and
# result: the pencil size, the PcgReport, ReducedSpace.selection and the
# PicardState.
def _n3(tracer, args, result):
    n = np.shape(args[0])[0]
    tracer.counters["solvers.dense_gen_eig.n3_sum"] += float(n) ** 3


def _pcg_report(tracer, args, result):
    tracer.counters["solvers.pcg.iterations"] += result[1].iterations
    tracer.conditions.append(result[1].condition_estimate)


def _selection(tracer, args, result):
    c, sel = tracer.counters, result.selection
    c["spaces.selection.kept"] += sel.get("kept", 0)
    c["spaces.selection.dropped_snapshots"] += sel.get("dropped_snapshots", 0)
    c["spaces.selection.inf_modes"] += int(np.isinf(result.eigenvalues).sum())


def _picard(tracer, args, result):
    tracer.counters["nonlinear.picard_solve.iterations"] += result.iterations


# (span name, module, attribute, counter hook).  A dotted attribute names a
# method, patched on its class.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("studies.run_convergence_study", "studies", "run_convergence_study", None),
    ("studies.run_nonlinear_study", "studies", "run_nonlinear_study", None),
    ("studies.detect_mode_counts", "studies", "detect_mode_counts", None),
    ("studies.fine_picard_reference", "studies", "fine_picard_reference", None),
    ("mesh.build_fine_mesh", "mesh", "build_fine_mesh", None),
    ("mesh.build_coarse_mesh", "mesh", "build_coarse_mesh", None),
    ("mesh.build_overlap", "mesh", "build_overlap", None),
    ("fem.assemble_stiffness", "fem", "assemble_stiffness", None),
    ("fem.assemble_mass", "fem", "assemble_mass", None),
    ("fem.assemble_load", "fem", "assemble_load", None),
    ("fem.reduce_dirichlet", "fem", "reduce_dirichlet", None),
    ("pou.bilinear_pou", "pou", "bilinear_pou", None),
    ("pou.multiscale_pou", "pou", "multiscale_pou", None),
    ("pou.energy_min_pou", "pou", "energy_min_pou", None),
    ("pou.pou_gradient_weight", "pou", "pou_gradient_weight", None),
    ("spaces.harmonic_snapshots", "spaces", "harmonic_snapshots", None),
    ("spaces.fine_grid_snapshots", "spaces", "fine_grid_snapshots", None),
    ("spaces.spectral_snapshots", "spaces", "spectral_snapshots", None),
    ("spaces.assemble_a_form", "spaces", "assemble_a_form", None),
    ("spaces.assemble_s_form", "spaces", "assemble_s_form", None),
    ("spaces.build_offline", "spaces", "build_offline", _selection),
    ("spaces.build_online", "spaces", "build_online", _selection),
    ("solvers.dense_gen_eig", "solvers", "dense_gen_eig", _n3),
    ("solvers.pcg", "solvers", "pcg", _pcg_report),
    ("solvers.build_two_level", "solvers", "build_two_level", None),
    ("solvers.SparseFactor", "solvers", "SparseFactor.__init__", None),
    ("solvers.TwoLevelPreconditioner.apply", "solvers",
     "TwoLevelPreconditioner.apply", None),
    ("coupling.build_coarse_basis", "coupling", "build_coarse_basis", None),
    ("coupling.solve_coarse_galerkin", "coupling", "solve_coarse_galerkin", None),
    ("coupling.solve_fine", "coupling", "solve_fine", None),
    ("nonlinear.build_nonlinear_offline", "nonlinear",
     "build_nonlinear_offline", None),
    ("nonlinear.picard_solve", "nonlinear", "picard_solve", _picard),
    ("nonlinear.node_averages", "nonlinear", "node_averages", None),
    ("nonlinear.block_averages", "nonlinear", "block_averages", None),
]


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.conditions = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> int:
        st = self._stack()
        rec = [name, st[-1] if st else -1, time.perf_counter(), 0.0]
        with self._lock:
            self.spans.append(rec)
            idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _wrap_parallel_map(self, fn):
        """parallel_map wrapper that parents worker-thread spans to it."""
        tracer = self

        @functools.wraps(fn)
        def parallel_map(func, items, workers=1):
            items = list(items)
            idx = tracer._open("studies.parallel_map")
            caller = threading.get_ident()
            threads, busy = set(), [0.0]

            def run(x):
                st = tracer._stack()
                base = len(st)
                if threading.get_ident() != caller:
                    st.append(idx)
                t0 = time.perf_counter()
                try:
                    return func(x)
                finally:
                    dt = time.perf_counter() - t0
                    with tracer._lock:
                        busy[0] += dt
                        threads.add(threading.get_ident())
                    del st[base:]

            try:
                return fn(run, items, workers)
            finally:
                tracer._close(idx)
                c = tracer.counters
                c["studies.parallel_map.items"] += len(items)
                c["studies.parallel_map.busy_s"] += busy[0]
                c["studies.parallel_map.threads"] = max(
                    c["studies.parallel_map.threads"], len(threads))

        return parallel_map

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        studies = importlib.import_module("gmsfem.studies")
        wraps = [(studies.parallel_map, self._wrap_parallel_map(studies.parallel_map))]
        for name, mod, attr, hook in TARGETS:
            owner = importlib.import_module("gmsfem." + mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hook))
            else:
                orig = getattr(owner, attr)
                wraps.append((orig, self._wrap(name, orig, hook)))
        by_id = {id(o): (o, w) for o, w in wraps}
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "gmsfem" or k.startswith("gmsfem."))]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if id(val) in by_id and val is by_id[id(val)][0]:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, by_id[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in by_id and v is by_id[id(v)][0]:
                            self._patches.append((val, k, v))
                            val[k] = by_id[id(v)][1]

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches = []

    # -- results ----------------------------------------------------------
    def stats(self) -> dict:
        """calls, total_s and self_s per span name."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[1] >= 0:
                children[rec[1]].append(rec)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, _, t0, t1) in enumerate(self.spans):
            kids = children.get(i, ())
            s = out[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - _union_length(
                [(k[2], k[3]) for k in kids], t0, t1)
        return dict(out)

    def covered(self, lo: float, hi: float) -> float:
        """Time in [lo, hi] covered by a layer span (entry points excluded)."""
        return _union_length([(r[2], r[3]) for r in self.spans
                              if r[0] not in ENTRY and r[3] > lo and r[2] < hi],
                             lo, hi)

    def dump(self, path, phase: str) -> None:
        with open(path, "a") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"phase": phase, "id": i, "parent": parent,
                                     "name": name, "t0": t0, "t1": t1}) + "\n")
