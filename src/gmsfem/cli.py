"""Command line entry point.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on
numerical failures (factorization breakdown, non-convergence).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import namedtuple

import numpy as np

from .fields import (affine_four_term, anisotropic_pair, centered_inclusion,
                     channels_and_inclusions, channels_and_inclusions_alt)
from .coeff import read_field, write_field
from .coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from .fem import BoundaryCondition, assemble_load, relative_errors
from .mesh import build_coarse_mesh, build_fine_mesh
from .pou import bilinear_pou, energy_min_pou, multiscale_pou
from .solvers import EIGEN_KERNEL, NumericalError
from .spaces import (A_FORMS, build_online, local_forms, offline_spaces,
                     parallel_map, snapshot_space)
from .studies import (PARAM_SAMPLES, eigendecay_sources, run_anisotropic_study,
                      run_convergence_study, run_eigendecay_study,
                      run_nonlinear_study, run_parametric_study,
                      run_precond_study)


class ConfigError(ValueError):
    pass


def _load_config(path):
    """The JSON value at path."""
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config as JSON: {exc}") from None


# a config value's kind: one of choices, or else a value of type: a string
# (str), or a finite number (an int; float admits ints too) not below low
# nor above high, where None is no bound and high comes only with low
Kind = namedtuple("Kind", "type low high choices", defaults=(None, None, None, ()))
TYPES = {str: str, int: int, float: (int, float)}
NAMES = {None: "", str: "a string", int: "an integer", float: "a finite number"}


def _check(key: str, v, kind) -> None:
    """Raise a ConfigError naming key unless v has kind: a Kind, [k] for a
    non-empty list of values of kind k, or a dict for a JSON object whose
    keys it maps to their kinds (the key "config" is the whole config)."""
    if isinstance(kind, dict):
        if not isinstance(v, dict):
            raise ConfigError(f"{key} must be a JSON object, not {v!r}")
        bad = set(v) - set(kind)
        if bad:
            raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
        for k, x in v.items():
            _check(k if key == "config" else f"{key} {k}", x, kind[k])
    elif isinstance(kind, list):
        if not (isinstance(v, list) and v):
            raise ConfigError(f"{key} must be a non-empty list, not {v!r}")
        for x in v:
            _check(key, x, kind[0])
    elif v not in kind.choices and not (
            isinstance(v, TYPES.get(kind.type, ())) and not isinstance(v, bool)
            and (kind.type is str or abs(v) < float("inf")
                 and (kind.low is None or v >= kind.low)
                 and (kind.high is None or v <= kind.high))):
        what = NAMES[kind.type]
        if kind.high is not None:
            what += f" in [{kind.low}, {kind.high}]"
        elif kind.low is not None:
            what += f" >= {kind.low}"
        if kind.choices:
            what = f"one of {kind.choices}" + (what and f" or {what}")
        raise ConfigError(f"{key} must be {what}, not {v!r}")


PRESETS = {"channels": channels_and_inclusions,
           "channels-alt": channels_and_inclusions_alt,
           "inclusion": centered_inclusion}

POUS = {"bilinear": lambda coarse, kappa: bilinear_pou(coarse),
        "multiscale": multiscale_pou, "energy-min": energy_min_pou}

# the strings a config value may be, by key (a study's string default too);
# spectral snapshots need coefficient samples, which a config does not give
CHOICES = {"a_form": A_FORMS, "snapshots": ("fine", "harmonic"),
           "pou": tuple(POUS)}
CHOICES["snapshot_kind"] = CHOICES["snapshots"]

COUNT = Kind(int, 1)

# the kind of each key of the pipeline commands' configs
PIPELINE = {"fine": COUNT, "coarse": COUNT, "count": COUNT, "online_count": COUNT,
            "threshold": Kind(float, 0), "source": Kind(float),
            "bc": Kind(float, choices=("linear",)),
            **{k: Kind(choices=CHOICES[k]) for k in ("a_form", "snapshots", "pou")},
            "field": {"file": Kind(str), "preset": Kind(choices=tuple(PRESETS)),
                      "eta": Kind(float, 1)}}

# the keys each pipeline command needs; 'threshold' may stand in for 'count'
OFFLINE = ("fine", "coarse", "field", "count")
NEEDS = {"mesh-info": ("fine", "coarse"), "gen-field": ("fine", "field"),
         "snapshots": ("fine", "coarse", "field"), "offline": OFFLINE,
         "solve": OFFLINE, "self-test": OFFLINE,
         "online": OFFLINE + ("online_count",)}

# bounds of study values; other integers must be >= 1
STUDY_BOUNDS = {"extra_max": (0, None), "spectral_extra": (0, None),
                "eta": (1, None), "etas": (1, None), "inclusion_value": (1, None),
                "mu": (0, 1), "n_rb_values": (1, len(PARAM_SAMPLES))}

# the fields each study builds on its fine grid
STUDY_FIELDS = {run_convergence_study: [channels_and_inclusions],
                run_precond_study: [channels_and_inclusions],
                run_parametric_study: [affine_four_term],
                run_anisotropic_study: [anisotropic_pair],
                run_eigendecay_study: [centered_inclusion],
                run_nonlinear_study: [channels_and_inclusions,
                                      channels_and_inclusions_alt]}


def _study_kind(key: str, default):
    """The kind of a study value: the kind of the runner's default for it."""
    if isinstance(default, tuple):
        return [_study_kind(key, default[0])]
    if isinstance(default, str):
        return Kind(choices=CHOICES[key])
    if default is None:  # base_count: null or a mode count
        return Kind(int, 1, choices=(None,))
    low, high = STUDY_BOUNDS.get(key, (1 if type(default) is int else None, None))
    return Kind(type(default), low, high)


def _checked(cfg, runner, workers: int = 1) -> dict:
    """cfg, once each value has its kind and the rules across keys hold; runner
    is a study runner (its workers and out come from the flags) or a pipeline
    command's name.  Only the fine mesh and the run's fields are built."""
    _check("--workers", workers, COUNT)
    if runner in NEEDS:
        _check("config", cfg, PIPELINE)
        for key in NEEDS[runner]:
            if key not in cfg and not (key == "count" and "threshold" in cfg):
                raise ConfigError(f"config key {key!r} is missing")
        field = cfg.get("field", {"file": None})  # no field: none to build
        if "file" not in field and "preset" not in field:
            raise ConfigError("field needs 'file' or a 'preset'")
        vals, fine_n, coarse_n = cfg, cfg["fine"], cfg.get("coarse", 1)
        builds = [] if "file" in field else [PRESETS[field["preset"]]]
    else:
        params = inspect.signature(runner).parameters
        table = {k: _study_kind(k, p.default) for k, p in params.items()
                 if k not in ("workers", "out")}
        _check("config", cfg, table)
        vals = {k: p.default for k, p in params.items()} | cfg
        # the eigendecay study's target is one block of a 5x5 coarse grid
        fine_n, coarse_n = vals["fine_n"], vals.get("coarse_n", 5)
        # a wrapped runner (functools.wraps) builds what its original does
        builds = STUDY_FIELDS[inspect.unwrap(runner)]
    if "count" in cfg and "threshold" in cfg:
        raise ConfigError("config gives both 'count' and 'threshold'")
    if len(vals.get("u_range", [0, 1])) != 2:
        raise ConfigError(f"u_range must be [low, high], not {vals['u_range']}")
    if fine_n % coarse_n:
        raise ConfigError(f"coarse {coarse_n} does not divide fine {fine_n}")
    fine = build_fine_mesh(fine_n, fine_n)
    try:
        for build in builds:
            build(fine, 1.0)
        if "source_spacing" in vals:
            eigendecay_sources(fine, vals["source_spacing"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _study_config(path, runner, workers: int = 1) -> dict:
    """The checked study config at path; with no path, the defaults."""
    return _checked({} if path is None else _load_config(path), runner, workers)


def _field_from_config(cfg: dict, fine):
    fc = cfg["field"]
    if "file" in fc:
        try:
            nx, ny, field = read_field(fc["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field file: {exc}") from None
        if (nx, ny) != (fine.nx, fine.ny):
            raise ConfigError(
                f"field file is {nx}x{ny}, config grid is {fine.nx}x{fine.ny}")
        return field
    return PRESETS[fc["preset"]](fine, float(fc.get("eta", 1e4)))


def _meshes(cfg: dict):
    fine = build_fine_mesh(cfg["fine"], cfg["fine"])
    return fine, build_coarse_mesh(fine, cfg["coarse"], cfg["coarse"])


def _offline_stage(cfg: dict, workers: int) -> tuple:
    """(fine, kappa, pou, a_form, spaces): a pipeline config's offline stage."""
    a_form = cfg.get("a_form", "pou_grad_mass")
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    pou = POUS[cfg.get("pou", "multiscale")](coarse, kappa)
    spaces = offline_spaces(coarse, kappa, cfg.get("snapshots", "fine"), a_form,
                            pou=pou, count=cfg.get("count"),
                            threshold=cfg.get("threshold"), workers=workers)
    return fine, kappa, pou, a_form, spaces


def cmd_mesh_info(cfg: dict, args) -> int:
    fine, coarse = _meshes(cfg)
    print(f"fine grid: {fine.nx}x{fine.ny}, {fine.n_nodes} nodes, "
          f"{2 * fine.n_cells} triangles")
    print(f"coarse grid: {coarse.Nx}x{coarse.Ny}, {coarse.N_v} nodes "
          f"({len(coarse.interior_coarse_nodes)} interior), "
          f"block {coarse.mx}x{coarse.my} cells")
    return 0


def cmd_gen_field(cfg: dict, args) -> int:
    if args.out is None:
        raise ConfigError("--out is required for gen-field")
    fine = build_fine_mesh(cfg["fine"], cfg["fine"])
    field = _field_from_config(cfg, fine)
    write_field(args.out, field, fine)
    print(f"wrote {args.out}: {fine.nx}x{fine.ny}, contrast {field.contrast:.3e}")
    return 0


def cmd_snapshots(cfg: dict, args) -> int:
    kind = cfg.get("snapshots", "fine")
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    sizes = parallel_map(
        lambda nb: snapshot_space(fine, nb, kind, kappa).M_snap,
        coarse.neighborhoods, args.workers)
    print(f"{kind} snapshots on {len(sizes)} neighborhoods: "
          f"min {min(sizes)}, max {max(sizes)} columns")
    return 0


def _solve(cfg: dict, workers: int) -> tuple:
    """(pou, basis, coarse solution u, errors) of a pipeline config."""
    bc = cfg.get("bc", "linear")
    bc = BoundaryCondition((lambda x, y: x + y) if bc == "linear" else float(bc))
    f = float(cfg.get("source", 1.0))
    fine, kappa, pou, _, spaces = _offline_stage(cfg, workers)
    basis = build_coarse_basis(pou.coarse, pou, spaces)
    u_ref, A, M = solve_fine(fine, kappa, f, bc)
    u = solve_coarse_galerkin(fine, A, assemble_load(fine, f), bc, basis)
    return pou, basis, u, relative_errors(u, u_ref, A, M)


def cmd_offline(cfg: dict, args) -> int:
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


def cmd_online(cfg: dict, args) -> int:
    fine, kappa, pou, a_form, offline = _offline_stage(cfg, args.workers)
    forms = local_forms(fine, kappa, a_form, pou)
    dims = parallel_map(
        lambda off: build_online(off, *forms(off.region),
                                 count=min(cfg["online_count"], off.dim)).dim,
        offline.values(), args.workers)
    print(f"online spaces: {len(dims)} neighborhoods, total dim {sum(dims)}")
    return 0


def cmd_solve(cfg: dict, args) -> int:
    _, basis, u, err = _solve(cfg, args.workers)
    if err.relative:
        e, l2 = err.as_percent()
        print(f"coarse dim {basis.dim}, energy {e:.4f}%, weighted-l2 {l2:.6f}%")
    else:  # the fine reference is zero: there is nothing to divide by
        print(f"coarse dim {basis.dim}, absolute squared errors: energy "
              f"{err.energy_sq:.4e}, weighted-l2 {err.l2w_sq:.4e}")
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


def cmd_study(cfg: dict, args) -> int:
    rows = _STUDIES[args.command](**cfg, workers=args.workers,
                                  out=args.out or None)
    for r in rows:
        print(",".join(str(x) for x in r))
    return 0


# the self-test's problem; bc, pou, snapshots and a_form keep their defaults
SELF_TEST = {"fine": 20, "coarse": 4, "field": {"preset": "channels", "eta": 1e3},
             "count": 3}


def cmd_self_test(cfg: dict, args) -> int:
    """Small end-to-end check on a coarse problem."""
    pou, basis, _, err = _solve(cfg, args.workers)
    defect = pou.sum_defect()
    ok = defect < 1e-12 and err.energy_sq < 1.0
    print(f"pou defect {defect:.2e}, coarse dim {basis.dim}, "
          f"energy error {100 * err.energy_sq:.3f}%: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


# the flags a command does not read, which exit 2 when given
UNREAD = {"mesh-info": ("out",), "snapshots": ("out",), "online": ("out",),
          "self-test": ("config", "out")}

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
        if args.command in _STUDIES:
            cfg = _study_config(args.config, _STUDIES[args.command], args.workers)
        elif args.command == "self-test":
            cfg = _checked(SELF_TEST, args.command, args.workers)
        else:
            cfg = _checked(_load_config(args.config), args.command, args.workers)
        for flag in UNREAD.get(args.command, ()):
            if getattr(args, flag) is not None:
                raise ConfigError(f"{args.command} does not read --{flag}")
        if args.workers > 1 and EIGEN_KERNEL != "dsygvx":
            print(f"warning: {EIGEN_KERNEL} solves the pencils one at a time "
                  "whatever --workers is", file=sys.stderr)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
