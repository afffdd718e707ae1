"""Command line interface: exit codes, config validation, and outputs."""

import json

import numpy as np
import pytest

from gmsfem.cli import main
from gmsfem.coeff import read_field


def _cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_missing_config_is_usage_error(capsys):
    assert main(["mesh-info"]) == 2
    assert "config" in capsys.readouterr().err


def test_invalid_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["--config", str(p), "mesh-info"]) == 2


def test_config_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main(["--config", str(p), "mesh-info"]) == 2


def test_mesh_info(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4})
    assert main(["--config", cfg, "mesh-info"]) == 0
    out = capsys.readouterr().out
    assert "fine grid: 20x20" in out
    assert "coarse grid: 4x4" in out


def test_indivisible_coarse_grid(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 3})
    assert main(["--config", cfg, "mesh-info"]) == 2


def test_gen_field_roundtrip(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20,
                          "field": {"preset": "channels", "eta": 100.0}})
    out = tmp_path / "field.txt"
    assert main(["--config", cfg, "--out", str(out), "gen-field"]) == 0
    nx, ny, field = read_field(out)
    assert (nx, ny) == (20, 20)
    assert field.contrast == 100.0


def test_gen_field_requires_out(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "field": {"preset": "channels"}})
    assert main(["--config", cfg, "gen-field"]) == 2


def test_unknown_preset(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "voronoi"}})
    assert main(["--config", cfg, "snapshots"]) == 2


def test_field_file_grid_mismatch(tmp_path):
    gen = _cfg(tmp_path, {"fine": 20,
                          "field": {"preset": "channels"}}, "gen.json")
    fpath = tmp_path / "f.txt"
    assert main(["--config", gen, "--out", str(fpath), "gen-field"]) == 0
    cfg = _cfg(tmp_path, {"fine": 40, "coarse": 4,
                          "field": {"file": str(fpath)}})
    assert main(["--config", cfg, "snapshots"]) == 2


def test_snapshots_and_offline_and_online(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "online_count": 2})
    assert main(["--config", cfg, "snapshots"]) == 0
    assert "snapshots" in capsys.readouterr().out
    npz = tmp_path / "offline.npz"
    assert main(["--config", cfg, "--out", str(npz), "offline"]) == 0
    data = np.load(npz)
    assert len(data["nodes"]) == 25
    assert np.all(data["dims"] == 3)
    assert main(["--config", cfg, "online"]) == 0
    assert "total dim 50" in capsys.readouterr().out


def test_offline_requires_count_or_threshold(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3}})
    assert main(["--config", cfg, "offline"]) == 2


@pytest.mark.parametrize("key,value,command", [
    ("a_form", "mass", "solve"),
    ("a_form", "mass", "online"),
    ("a_form", "boundary_mass", "offline"),
    ("snapshots", "random", "solve"),
    ("snapshots", "spectral", "offline"),
    ("snapshots", "random", "snapshots"),
    ("count", [3, 4], "solve"),
])
def test_bad_pipeline_key_is_config_error(tmp_path, capsys, key, value,
                                          command):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "online_count": 2, key: value})
    assert main(["--config", cfg, command]) == 2
    assert key in capsys.readouterr().err


def test_solve_writes_solution(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "bc": "linear", "source": 1.0})
    out = tmp_path / "u.txt"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    u = np.loadtxt(out)
    assert u.shape == (21 * 21,)
    assert "coarse dim" in capsys.readouterr().out


def test_bad_bc(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "bc": "sine"})
    assert main(["--config", cfg, "solve"]) == 2


def test_bad_pou_kind(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "pou": "cubic"})
    assert main(["--config", cfg, "solve"]) == 2


def test_self_test(capsys):
    assert main(["self-test"]) == 0
    assert "ok" in capsys.readouterr().out


def test_study_rejects_unknown_keys(tmp_path):
    cfg = _cfg(tmp_path, {"fine_n": 20, "coarse_n": 4, "mystery": 1})
    assert main(["--config", cfg, "study-convergence"]) == 2


def test_study_runs_and_writes_csv(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine_n": 20})
    out = tmp_path / "decay.csv"
    assert main(["--config", cfg, "--out", str(out), "study-eigendecay"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("pair,")
    assert len(lines) == 5
    assert capsys.readouterr().out.count("\n") >= 4
