"""Command line entry point.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on
numerical failures (factorization breakdown, non-convergence).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import fields as field_presets
from .coeff import read_field, write_field
from .coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from .fem import BoundaryCondition, assemble_load, relative_errors
from .mesh import build_coarse_mesh, build_fine_mesh
from .pou import bilinear_pou, energy_min_pou, multiscale_pou
from .solvers import NumericalError
from .spaces import (A_FORMS, LocalRegion, build_online, local_forms,
                     offline_spaces, parallel_map, snapshot_space)
from .studies import (PARAM_SAMPLES, eigendecay_sources, run_anisotropic_study,
                      run_convergence_study, run_eigendecay_study,
                      run_nonlinear_study, run_parametric_study,
                      run_precond_study)


class ConfigError(ValueError):
    pass


def _load_config(path, known) -> dict:
    """The JSON object at path; a key not in known is an error."""
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    bad = set(cfg) - set(known)
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    return cfg


# the keys of the pipeline commands' configs
PIPELINE_KEYS = {"fine", "coarse", "field", "bc", "pou", "snapshots", "count",
                 "threshold", "a_form", "online_count", "source"}


def _number(v, key: str, integer: bool = False, low=None):
    """v if it is a finite number (an int if integer) not below low."""
    kind = int if integer else (int, float)
    if (isinstance(v, bool) or not isinstance(v, kind)
            or not abs(v) < float("inf") or (low is not None and v < low)):
        want = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(f"{key} must be {want}{bound}, not {v!r}")
    return v


def _require(cfg: dict, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is missing")
    v = cfg[key]
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"config key {key!r} has the wrong type")
    return v


PRESETS = {
    "channels": field_presets.channels_and_inclusions,
    "channels-alt": field_presets.channels_and_inclusions_alt,
    "inclusion": field_presets.centered_inclusion,
}


def _field_from_config(cfg: dict, fine):
    fc = _require(cfg, "field", dict)
    bad = set(fc) - {"file", "preset", "eta"}
    if bad:
        raise ConfigError(f"unknown field keys: {sorted(bad)}")
    if "file" in fc:
        try:
            nx, ny, field = read_field(fc["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field file: {exc}") from None
        if (nx, ny) != (fine.nx, fine.ny):
            raise ConfigError(
                f"field file is {nx}x{ny}, config grid is {fine.nx}x{fine.ny}")
        return field
    preset = fc.get("preset")
    if preset not in PRESETS:
        raise ConfigError(f"field needs 'file' or a preset from {sorted(PRESETS)}")
    eta = _number(fc.get("eta", 1e4), "field eta", low=1)
    return PRESETS[preset](fine, float(eta))


def _bc_from_config(cfg: dict) -> BoundaryCondition:
    bc = cfg.get("bc", "linear")
    if bc == "linear":
        return BoundaryCondition(lambda x, y: x + y)
    if isinstance(bc, (int, float)):
        return BoundaryCondition(float(_number(bc, "bc")))
    raise ConfigError("bc must be 'linear' or a constant")


def _pou_from_config(cfg: dict, coarse, kappa):
    kind = cfg.get("pou", "multiscale")
    if kind == "bilinear":
        return bilinear_pou(coarse)
    if kind == "multiscale":
        return multiscale_pou(coarse, kappa)
    if kind == "energy-min":
        return energy_min_pou(coarse, kappa)
    raise ConfigError(f"unknown pou kind {kind!r}")


def _fine_mesh(cfg: dict):
    fine_n = _number(_require(cfg, "fine"), "fine", integer=True, low=1)
    return build_fine_mesh(fine_n, fine_n)


def _meshes(cfg: dict):
    fine = _fine_mesh(cfg)
    coarse_n = _number(_require(cfg, "coarse"), "coarse", integer=True, low=1)
    try:
        coarse = build_coarse_mesh(fine, coarse_n, coarse_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return fine, coarse


# spectral snapshots need coefficient samples, which a config does not give
SNAPSHOTS = ("fine", "harmonic")


def _snapshot_kind(cfg: dict) -> str:
    kind = cfg.get("snapshots", "fine")
    if kind not in SNAPSHOTS:
        raise ConfigError(f"snapshots must be one of {SNAPSHOTS}, not {kind!r}")
    return kind


def _offline_stage(cfg: dict, workers: int) -> tuple:
    """(fine, kappa, pou, a_form, spaces): a pipeline config's offline stage."""
    a_form = cfg.get("a_form", "pou_grad_mass")
    if a_form not in A_FORMS:
        raise ConfigError(f"a_form must be one of {A_FORMS}, not {a_form!r}")
    count = cfg.get("count")
    threshold = cfg.get("threshold")
    if count is None and threshold is None:
        raise ConfigError("config needs 'count' or 'threshold'")
    if count is not None:
        _number(count, "count", integer=True, low=1)
    if threshold is not None:
        _number(threshold, "threshold", low=0)
    kind = _snapshot_kind(cfg)
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    pou = _pou_from_config(cfg, coarse, kappa)
    spaces = offline_spaces(coarse, kappa, kind, a_form, pou=pou, count=count,
                            threshold=threshold, workers=workers)
    return fine, kappa, pou, a_form, spaces


def cmd_mesh_info(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    fine, coarse = _meshes(cfg)
    print(f"fine grid: {fine.nx}x{fine.ny}, {fine.n_nodes} nodes, "
          f"{2 * fine.n_cells} triangles")
    print(f"coarse grid: {coarse.Nx}x{coarse.Ny}, {coarse.N_v} nodes "
          f"({len(coarse.interior_coarse_nodes)} interior), "
          f"block {coarse.mx}x{coarse.my} cells")
    return 0


def cmd_gen_field(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    fine = _fine_mesh(cfg)
    field = _field_from_config(cfg, fine)
    if args.out is None:
        raise ConfigError("--out is required for gen-field")
    write_field(args.out, field, fine)
    print(f"wrote {args.out}: {fine.nx}x{fine.ny}, contrast {field.contrast:.3e}")
    return 0


def cmd_snapshots(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    kind = _snapshot_kind(cfg)
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    sizes = parallel_map(
        lambda nb: snapshot_space(fine, LocalRegion.from_neighborhood(nb),
                                  kind, kappa).M_snap,
        coarse.neighborhoods, args.workers)
    print(f"{kind} snapshots on {len(sizes)} neighborhoods: "
          f"min {min(sizes)}, max {max(sizes)} columns")
    return 0


def _solve(cfg: dict, workers: int) -> tuple:
    """(pou, basis, coarse solution u, errors) of a pipeline config."""
    bc = _bc_from_config(cfg)
    f = float(_number(cfg.get("source", 1.0), "source"))
    fine, kappa, pou, _, spaces = _offline_stage(cfg, workers)
    basis = build_coarse_basis(pou.coarse, pou, spaces)
    u_ref, A, M = solve_fine(fine, kappa, f, bc)
    u = solve_coarse_galerkin(fine, A, assemble_load(fine, f), bc, basis)
    return pou, basis, u, relative_errors(u, u_ref, A, M)


def cmd_offline(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    *_, spaces = _offline_stage(cfg, args.workers)
    dims = [s.dim for s in spaces.values()]
    print(f"offline spaces: {len(spaces)} neighborhoods, total dim {sum(dims)}, "
          f"per node min {min(dims)} max {max(dims)}")
    if args.out:
        np.savez_compressed(
            args.out,
            nodes=np.array(sorted(spaces)),
            dims=np.array([spaces[i].dim for i in sorted(spaces)]),
            **{f"cols_{i}": spaces[i].columns for i in sorted(spaces)},
            **{f"eig_{i}": spaces[i].eigenvalues for i in sorted(spaces)},
        )
        print(f"wrote {args.out}")
    return 0


def cmd_online(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    on_count = _number(_require(cfg, "online_count"), "online_count",
                       integer=True, low=1)
    fine, kappa, pou, a_form, offline = _offline_stage(cfg, args.workers)
    forms = local_forms(fine, kappa, a_form, pou)
    dims = parallel_map(
        lambda off: build_online(off, *forms(off.region),
                                 count=min(on_count, off.dim)).dim,
        offline.values(), args.workers)
    print(f"online spaces: {len(dims)} neighborhoods, total dim {sum(dims)}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args.config, PIPELINE_KEYS)
    _, basis, u, err = _solve(cfg, args.workers)
    e, l2 = err.as_percent()
    print(f"coarse dim {basis.dim}, energy {e:.4f}%, weighted-l2 {l2:.6f}%")
    if args.out:
        np.savetxt(args.out, u, fmt="%.17g")
        print(f"wrote {args.out}")
    return 0


_STUDIES = {
    "study-convergence": run_convergence_study,
    "study-precond": run_precond_study,
    "study-parametric": run_parametric_study,
    "study-anisotropic": run_anisotropic_study,
    "study-eigendecay": run_eigendecay_study,
    "study-nonlinear": run_nonlinear_study,
}


# lower bounds of study values; other integers must be >= 1
STUDY_LOW = {"extra_max": 0, "spectral_extra": 0, "eta": 1, "etas": 1,
             "inclusion_value": 1, "mu": 0}


def _study_config(path, runner) -> dict:
    """The study config at path, each value checked against the kind of
    the runner's default for it; workers and out come from the flags."""
    params = inspect.signature(runner).parameters
    cfg = _load_config(path, set(params) - {"workers", "out"})
    for key, v in cfg.items():
        default = params[key].default
        if isinstance(default, str):
            if v not in SNAPSHOTS:
                raise ConfigError(f"{key} must be one of {SNAPSHOTS}, not {v!r}")
        elif default is None:  # base_count: null or a mode count
            if v is not None:
                _number(v, key, integer=True, low=1)
        else:
            many = isinstance(default, tuple)
            if many and not (isinstance(v, list) and v):
                raise ConfigError(f"{key} must be a non-empty list, not {v!r}")
            integer = isinstance(default[0] if many else default, int)
            low = STUDY_LOW.get(key, 1 if integer else None)
            for x in v if many else [v]:
                _number(x, key, integer=integer, low=low)
    vals = {k: p.default for k, p in params.items()} | cfg
    # the eigendecay study's target is one block of a 5x5 coarse grid
    fine_n, coarse_n = vals["fine_n"], vals.get("coarse_n", 5)
    if fine_n % coarse_n:
        raise ConfigError(f"coarse_n {coarse_n} must divide fine_n {fine_n}")
    if runner is run_eigendecay_study:
        try:
            eigendecay_sources(build_fine_mesh(fine_n, fine_n),
                               vals["source_spacing"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if vals.get("mu", 0) > 1:
        raise ConfigError(f"mu must be <= 1, not {vals['mu']}")
    if "u_range" in cfg and len(cfg["u_range"]) != 2:
        raise ConfigError(f"u_range must be [low, high], not {cfg['u_range']}")
    if max(vals.get("n_rb_values", [1])) > len(PARAM_SAMPLES):
        raise ConfigError(f"n_rb_values must be <= {len(PARAM_SAMPLES)}")
    return cfg


def cmd_study(args) -> int:
    runner = _STUDIES[args.command]
    kwargs = {}
    if args.config is not None:
        kwargs = _study_config(args.config, runner)
    kwargs["workers"] = args.workers
    if args.out:
        kwargs["out"] = args.out
    rows = runner(**kwargs)
    for r in rows:
        print(",".join(str(x) for x in r))
    return 0


# the self-test's problem; bc, pou, snapshots and a_form keep their defaults
SELF_TEST = {"fine": 20, "coarse": 4, "field": {"preset": "channels", "eta": 1e3},
             "count": 3}


def cmd_self_test(args) -> int:
    """Small end-to-end check on a coarse problem."""
    pou, basis, _, err = _solve(SELF_TEST, args.workers)
    defect = pou.sum_defect()
    ok = defect < 1e-12 and err.energy_sq < 1.0
    print(f"pou defect {defect:.2e}, coarse dim {basis.dim}, "
          f"energy error {100 * err.energy_sq:.3f}%: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


COMMANDS = {"mesh-info": cmd_mesh_info, "gen-field": cmd_gen_field,
            "snapshots": cmd_snapshots, "offline": cmd_offline,
            "online": cmd_online, "solve": cmd_solve,
            "self-test": cmd_self_test, **dict.fromkeys(_STUDIES, cmd_study)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gmsfem",
        description="Generalized multiscale solver for high-contrast "
                    "elliptic problems on structured grids.")
    p.add_argument("--config", help="path to a JSON configuration file")
    p.add_argument("--out", help="output file (CSV, field, or solution)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for per-neighborhood work")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
