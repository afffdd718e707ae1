"""Self-check of the benchmark: every workload, untraced and traced, at
fine 20 / coarse 4.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402

SEED = 3


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"],
                                    json.loads(lines[-1]))
    return out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == bench.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == bench.LAYER_METRICS


def test_every_run_is_correct_and_complete(results):
    for (workload, trace), (report, result) in results.items():
        assert result["correct"], (workload, trace, report["failures"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = bench.LAYER_METRICS if trace else bench.E2E_METRICS
        assert list(result["metrics"]) == [n for n, _, _ in names]
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_confirms_the_bypasses(results):
    def layer(workload, name):
        return results[workload, 1][1]["metrics"][name]["value"]

    assert layer("ladder", "solvers.pcg.calls") == 0
    assert layer("picard", "solvers.pcg.calls") == 0
    assert layer("pcg_sweep", "solvers.pcg.calls") == 1
    assert layer("pcg_sweep", "solvers.TwoLevelPreconditioner.apply.calls") > 0
    assert layer("picard", "pou.pou_gradient_weight.calls") == 0
    assert layer("pcg_sweep", "setup.pou.pou_gradient_weight.calls") > 0
    assert layer("ladder", "studies.parallel_map.threads") == 2
    assert layer("picard", "studies.parallel_map.threads") == 0
    assert layer("picard", "nonlinear.build_nonlinear_offline.calls") == len(
        bench.SIZES["tiny"]["picard"]["offline_counts"])
    assert layer("ladder", "trace.traced_ops") >= 1


def test_study_csv_is_deterministic_with_and_without_tracing(results):
    for workload in ("ladder", "picard"):
        digests = {results[workload, t][0]["csv_sha256"] for t in (0, 1)}
        assert len(digests) == 1 and None not in digests


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("ladder", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail(list(range(1, 401))) == (380, 95.0)
    assert bench.tail(list(range(1, 21))) == (10, 50.0)
    assert bench.tail(list(range(1, 10))) == (5, 50.0)
    assert bench.tail([3.0, 1.0]) == (2.0, 50.0)


def test_self_time_counts_concurrent_children_once():
    assert spans._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans._union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1
