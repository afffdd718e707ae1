"""Command line interface: exit codes, config validation, and outputs."""

import json

import numpy as np
import pytest

from gmsfem import cli
from gmsfem.cli import _STUDIES, _study_config, main
from gmsfem.coeff import read_field
from gmsfem.solvers import NumericalError


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


def test_undecodable_config_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{")  # not UTF-8: a UnicodeDecodeError
    assert main(["--config", str(p), "mesh-info"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_config_must_be_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main(["--config", str(p), "mesh-info"]) == 2


def test_mesh_info(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4})
    assert main(["--config", cfg, "mesh-info"]) == 0
    out = capsys.readouterr().out
    assert "fine grid: 20x20" in out
    assert "coarse grid: 4x4, 25 nodes (9 interior)" in out


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


def test_field_file_solves_as_its_preset(tmp_path, capsys):
    # gen-field writes every value exactly (%.17g), so a solve reading the
    # file prints and writes what the same solve on the preset does; the
    # contrast needs all 17 digits
    preset = {"preset": "channels", "eta": 1e3 / 3}
    path = tmp_path / "field.txt"
    gen = _cfg(tmp_path, {"fine": 20, "field": preset}, "gen.json")
    assert main(["--config", gen, "--out", str(path), "gen-field"]) == 0
    capsys.readouterr()
    printed, written = [], []
    for name, field in (("preset", preset), ("file", {"file": str(path)})):
        cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4, "field": field,
                              "count": 3}, f"{name}.json")
        out = tmp_path / f"u_{name}.txt"
        assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
        printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
        written.append(out.read_bytes())
    assert printed[0] == printed[1] and "coarse dim" in printed[0]
    assert written[0] == written[1]


def test_numerical_failure_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("region 6: a+s is not positive definite")

    monkeypatch.setattr(cli, "offline_spaces", failing)
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3})
    assert main(["--config", cfg, "solve"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: region 6: a+s is not "
                            "positive definite\n")
    assert captured.out == ""


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
    ("field", {"preset": "channels", "eta": -5}, "solve"),
    ("count", 0, "solve"),
    ("count", -2, "offline"),
    ("threshold", "x", "offline"),
    ("field", {"file": "no-such-field.txt"}, "solve"),
    ("online_count", "a", "online"),
    ("source", "a", "solve"),
    ("fine", 0, "solve"),
    ("bogus", 1, "solve"),
    ("bogus", 1, "offline"),
    ("a_form", "kappa_stiffness", "solve"),
    # every key is checked, whether or not the command reads it
    ("count", "x", "mesh-info"),
    ("threshold", -1, "mesh-info"),
    ("snapshots", "spectral", "mesh-info"),
    ("field", {"preset": "channels", "eta": 0.5}, "mesh-info"),
    ("pou", 5, "gen-field"),
    ("coarse", 0, "gen-field"),
    ("a_form", "nope", "snapshots"),
    ("source", "x", "offline"),
    ("bc", "quadratic", "offline"),
    ("online_count", 0, "solve"),
    # rules across keys
    ("threshold", 0.5, "offline"),  # count is given too
    ("fine", 8, "solve"),  # the 8x8 grid does not resolve the channels
    ("field", {"eta": 5.0}, "gen-field"),  # neither file nor preset
    ("field", {"file": 3}, "solve"),  # not a path: open(3) reads fd 3
])
def test_bad_pipeline_key_is_config_error(tmp_path, capsys, key, value,
                                          command):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "online_count": 2, key: value})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["mesh-info", "study-eigendecay"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4} if command == "mesh-info"
               else {"fine_n": 20})
    assert main(["--config", cfg, "--workers", workers, command]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kernel,lines", [("dsygvx", 0), ("scipy.linalg.eigh", 1)])
def test_workers_on_the_eigh_fallback_say_so(tmp_path, capsys, monkeypatch,
                                             kernel, lines):
    # eigh holds the GIL, so more workers do not split the eigen stage: one
    # stderr line says so, after the config check (errors stay one line)
    monkeypatch.setattr(cli, "EIGEN_KERNEL", kernel)
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4})
    assert main(["--config", cfg, "--workers", "2", "mesh-info"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == lines and ("one at a time" in err) == (lines == 1)
    assert main(["--config", cfg, "mesh-info"]) == 0
    assert capsys.readouterr().err == ""
    bad = _cfg(tmp_path, {"fine": 20, "coarse": 3}, "bad.json")
    assert main(["--config", bad, "--workers", "2", "mesh-info"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("flag,command", [
    ("--config", "self-test"), ("--out", "self-test"), ("--out", "mesh-info"),
    ("--out", "snapshots"), ("--out", "online")])
def test_flag_the_command_does_not_read_is_config_error(tmp_path, capsys,
                                                       flag, command):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "online_count": 2})
    out = tmp_path / "out"
    argv = [flag, str(tmp_path / "nonexistent.json") if flag == "--config"
            else str(out), command]
    if command != "self-test":
        argv = ["--config", cfg] + argv
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1
    assert not out.exists()


def test_solve_writes_solution(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "bc": "linear", "source": 1.0})
    out = tmp_path / "u.txt"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    u = np.loadtxt(out)
    assert u.shape == (21 * 21,)
    text = capsys.readouterr().out
    assert "coarse dim" in text and "%" in text


def test_solve_reports_absolute_errors_for_a_zero_reference(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3, "source": 0, "bc": 0})
    assert main(["--config", cfg, "solve"]) == 0
    out = capsys.readouterr().out
    assert "absolute squared errors" in out
    assert "%" not in out  # no percentage of a zero reference


def test_solve_output_does_not_depend_on_workers(tmp_path):
    cfg = _cfg(tmp_path, {"fine": 20, "coarse": 4,
                          "field": {"preset": "channels", "eta": 1e3},
                          "count": 3})
    outs = []
    for w in (1, 2):
        out = tmp_path / f"u{w}.txt"
        assert main(["--config", cfg, "--out", str(out), "--workers", str(w),
                     "solve"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


SMALL = {"fine_n": 20, "coarse_n": 4}


@pytest.mark.parametrize("command,cfg", [
    ("study-eigendecay", {"fine_n": 0}),
    ("study-eigendecay", {"fine_n": 20, "inclusion_value": "x"}),
    ("study-eigendecay", {"fine_n": 21}),
    ("study-convergence", {"fine_n": 20, "coarse_n": 3}),
    ("study-convergence", dict(SMALL, eta=0.5)),
    ("study-convergence", dict(SMALL, extra_max=-1)),
    ("study-convergence", dict(SMALL, base_count=0)),
    ("study-convergence", dict(SMALL, snapshot_kind="random")),
    ("study-convergence", dict(SMALL, workers=2)),
    ("study-precond", dict(SMALL, etas="1e3")),
    ("study-precond", dict(SMALL, etas=[])),
    ("study-parametric", dict(SMALL, n_rb_values=[5])),
    ("study-anisotropic", dict(SMALL, mu=2.0)),
    ("study-nonlinear", dict(SMALL, offline_counts=[0])),
    ("study-nonlinear", dict(SMALL, u_range=[1.0])),
    ("study-eigendecay", {"fine_n": 20, "source_spacing": 5.0}),
    # grids that do not resolve the study's fields
    ("study-convergence", {"fine_n": 10, "coarse_n": 2}),
    ("study-precond", {"fine_n": 10, "coarse_n": 2}),
    ("study-nonlinear", {"fine_n": 10, "coarse_n": 2}),
    ("study-parametric", {"fine_n": 12, "coarse_n": 2, "n_rb_values": [2]}),
])
def test_bad_study_value_is_config_error(tmp_path, capsys, command, cfg):
    assert main(["--config", _cfg(tmp_path, cfg), command]) == 2
    assert capsys.readouterr().err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("command,cfg", [
    ("study-convergence", {"fine_n": 24, "coarse_n": 4, "extra_max": 4,
                           "eta": 3.7e4, "snapshot_kind": "fine"}),
    ("study-convergence", {"fine_n": 20, "coarse_n": 4, "extra_max": 4,
                           "eta": 3.7e4}),
    ("study-nonlinear", {"fine_n": 30, "coarse_n": 3, "n_samples": 4,
                         "offline_counts": [3, 8], "eta": 2e3}),
    ("study-nonlinear", {"fine_n": 20, "coarse_n": 4, "n_samples": 2,
                         "offline_counts": [3, 5], "eta": 2e3}),
])
def test_benchmark_study_configs_are_valid(tmp_path, command, cfg):
    assert _study_config(_cfg(tmp_path, cfg), _STUDIES[command]) == cfg


def test_study_runs_and_writes_csv(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"fine_n": 20})
    out = tmp_path / "decay.csv"
    assert main(["--config", cfg, "--out", str(out), "study-eigendecay"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("pair,")
    assert len(lines) == 5
    assert capsys.readouterr().out.count("\n") >= 4
