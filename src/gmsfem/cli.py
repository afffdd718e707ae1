"""Command line entry point.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on
numerical failures (factorization breakdown, non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fields as field_presets
from .coeff import CoefficientField, read_field, write_field
from .coupling import build_coarse_basis, solve_coarse_galerkin, solve_fine
from .fem import (BoundaryCondition, assemble_load, assemble_stiffness,
                  relative_errors)
from .mesh import build_coarse_mesh, build_fine_mesh
from .pou import bilinear_pou, energy_min_pou, multiscale_pou
from .solvers import NumericalError
from .spaces import (A_FORMS, LocalRegion, build_online, local_forms,
                     offline_spaces, snapshot_space)
from .studies import (run_anisotropic_study, run_convergence_study,
                      run_eigendecay_study, run_nonlinear_study,
                      run_parametric_study, run_precond_study)


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
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
    return cfg


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
    if "file" in fc:
        nx, ny, field = read_field(fc["file"])
        if (nx, ny) != (fine.nx, fine.ny):
            raise ConfigError(
                f"field file is {nx}x{ny}, config grid is {fine.nx}x{fine.ny}")
        return field
    preset = fc.get("preset")
    if preset not in PRESETS:
        raise ConfigError(f"field needs 'file' or a preset from {sorted(PRESETS)}")
    return PRESETS[preset](fine, float(fc.get("eta", 1e4)))


def _bc_from_config(cfg: dict) -> BoundaryCondition:
    bc = cfg.get("bc", "linear")
    if bc == "linear":
        return BoundaryCondition(lambda x, y: x + y)
    if isinstance(bc, (int, float)):
        return BoundaryCondition(float(bc))
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


def _meshes(cfg: dict):
    fine_n = int(_require(cfg, "fine", int))
    coarse_n = int(_require(cfg, "coarse", int))
    fine = build_fine_mesh(fine_n, fine_n)
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


def _offline_options(cfg: dict) -> dict:
    """Validated offline_spaces keywords of a pipeline config."""
    a_form = cfg.get("a_form", "pou_grad_mass")
    if a_form not in A_FORMS:
        raise ConfigError(f"a_form must be one of {A_FORMS}, not {a_form!r}")
    count = cfg.get("count")
    threshold = cfg.get("threshold")
    if count is None and threshold is None:
        raise ConfigError("config needs 'count' or 'threshold'")
    if count is not None and not isinstance(count, int):
        raise ConfigError(f"count must be an integer, not {count!r}")
    return dict(snapshots=_snapshot_kind(cfg), a_form=a_form, count=count,
                threshold=threshold)


def cmd_mesh_info(args) -> int:
    cfg = _load_config(args.config)
    fine, coarse = _meshes(cfg)
    print(f"fine grid: {fine.nx}x{fine.ny}, {fine.n_nodes} nodes, "
          f"{2 * fine.n_cells} triangles")
    print(f"coarse grid: {coarse.Nx}x{coarse.Ny}, {coarse.N_v} nodes "
          f"({len(coarse.interior_coarse_nodes)} interior), "
          f"block {coarse.mx}x{coarse.my} cells")
    return 0


def cmd_gen_field(args) -> int:
    cfg = _load_config(args.config)
    fine_n = int(_require(cfg, "fine", int))
    fine = build_fine_mesh(fine_n, fine_n)
    field = _field_from_config(cfg, fine)
    if args.out is None:
        raise ConfigError("--out is required for gen-field")
    write_field(args.out, field, fine)
    print(f"wrote {args.out}: {fine.nx}x{fine.ny}, contrast {field.contrast:.3e}")
    return 0


def cmd_snapshots(args) -> int:
    cfg = _load_config(args.config)
    kind = _snapshot_kind(cfg)
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    sizes = [snapshot_space(fine, LocalRegion.from_neighborhood(nb), kind,
                            kappa).M_snap
             for nb in coarse.neighborhoods]
    print(f"{kind} snapshots on {len(sizes)} neighborhoods: "
          f"min {min(sizes)}, max {max(sizes)} columns")
    return 0


def cmd_offline(args) -> int:
    cfg = _load_config(args.config)
    opts = _offline_options(cfg)
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    pou = _pou_from_config(cfg, coarse, kappa)
    spaces = offline_spaces(coarse, kappa, pou=pou, **opts)
    dims = [s.dim for s in spaces.values()]
    total = sum(dims)
    print(f"offline spaces: {len(spaces)} neighborhoods, total dim {total}, "
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
    cfg = _load_config(args.config)
    opts = _offline_options(cfg)
    on_count = cfg.get("online_count")
    if on_count is None:
        raise ConfigError("config needs 'online_count'")
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    pou = _pou_from_config(cfg, coarse, kappa)
    offline = offline_spaces(coarse, kappa, pou=pou, **opts)
    forms = local_forms(fine, kappa, opts["a_form"], pou)
    dims = [build_online(off, *forms(off.region),
                         count=min(int(on_count), off.dim)).dim
            for off in offline.values()]
    print(f"online spaces: {len(dims)} neighborhoods, total dim {sum(dims)}")
    return 0


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    opts = _offline_options(cfg)
    fine, coarse = _meshes(cfg)
    kappa = _field_from_config(cfg, fine)
    pou = _pou_from_config(cfg, coarse, kappa)
    bc = _bc_from_config(cfg)
    f = float(cfg.get("source", 1.0))
    spaces = offline_spaces(coarse, kappa, pou=pou, **opts)
    basis = build_coarse_basis(coarse, pou, spaces)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, f)
    sol = solve_coarse_galerkin(fine, A, b, bc, basis)
    u_ref, A_k, M_k = solve_fine(fine, kappa, f, bc)
    err = relative_errors(sol.u, u_ref, A_k, M_k)
    e, h1, l2 = err.as_percent()
    print(f"coarse dim {basis.dim}, energy {e:.4f}%, h1 {h1:.4f}%, "
          f"weighted-l2 {l2:.6f}%")
    if args.out:
        np.savetxt(args.out, sol.u, fmt="%.17g")
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


def cmd_study(args) -> int:
    runner = _STUDIES[args.command]
    kwargs = {}
    if args.config is not None:
        cfg = _load_config(args.config)
        import inspect
        valid = set(inspect.signature(runner).parameters)
        bad = set(cfg) - valid
        if bad:
            raise ConfigError(f"unknown config keys for {args.command}: {sorted(bad)}")
        kwargs.update(cfg)
    kwargs["workers"] = args.workers
    if args.out:
        kwargs["out"] = args.out
    rows = runner(**kwargs)
    for r in rows:
        print(",".join(str(x) for x in r))
    return 0


def cmd_self_test(args) -> int:
    """Small end-to-end check on a coarse problem."""
    fine = build_fine_mesh(20, 20)
    coarse = build_coarse_mesh(fine, 4, 4)
    kappa = field_presets.channels_and_inclusions(fine, 1e3)
    pou = multiscale_pou(coarse, kappa)
    defect = pou.sum_defect()
    spaces = offline_spaces(coarse, kappa, "fine", pou=pou, count=3)
    basis = build_coarse_basis(coarse, pou, spaces)
    bc = BoundaryCondition(lambda x, y: x + y)
    A = assemble_stiffness(fine, kappa)
    b = assemble_load(fine, 1.0)
    sol = solve_coarse_galerkin(fine, A, b, bc, basis)
    u_ref, A_k, M_k = solve_fine(fine, kappa, 1.0, bc)
    err = relative_errors(sol.u, u_ref, A_k, M_k)
    ok = defect < 1e-12 and err.energy_sq < 1.0
    print(f"pou defect {defect:.2e}, coarse dim {basis.dim}, "
          f"energy error {100 * err.energy_sq:.3f}%: "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


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
    for name in ("mesh-info", "gen-field", "snapshots", "offline", "online",
                 "solve", "self-test", *_STUDIES):
        sub.add_parser(name)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "mesh-info": cmd_mesh_info,
        "gen-field": cmd_gen_field,
        "snapshots": cmd_snapshots,
        "offline": cmd_offline,
        "online": cmd_online,
        "solve": cmd_solve,
        "self-test": cmd_self_test,
    }
    for s in _STUDIES:
        handlers[s] = cmd_study
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
