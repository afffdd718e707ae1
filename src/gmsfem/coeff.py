"""Heterogeneous conductivity fields: scalar, diagonal-tensor, and affine in mu.

Values are cellwise constant (one value per fine cell), which makes every
P1 element integral downstream exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FineMesh


@dataclass
class CoefficientField:
    """Per-cell conductivity, scalar or diagonal tensor (k11, k22)."""

    values: np.ndarray  # (n_cells,) scalar or (n_cells, 2) tensor

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values <= 0.0):
            bad = int(np.argwhere(self.values <= 0.0)[0][0])
            raise ValueError(f"coefficient must be strictly positive; cell {bad} is not")

    @property
    def is_tensor(self) -> bool:
        return self.values.ndim == 2

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def contrast(self) -> float:
        return float(self.values.max() / self.values.min())

    def k11(self) -> np.ndarray:
        return self.values[:, 0] if self.is_tensor else self.values

    def k22(self) -> np.ndarray:
        return self.values[:, 1] if self.is_tensor else self.values


@dataclass
class ParameterPoint:
    """A point mu in the admissible box prod_j [lo_j, hi_j]."""

    mu: np.ndarray
    box: np.ndarray  # (p, 2) rows (lo, hi)

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if self.box.shape != (len(self.mu), 2):
            raise ValueError("box must be (p, 2) matching mu")
        lo, hi = self.box[:, 0], self.box[:, 1]
        if np.any(self.mu < lo) or np.any(self.mu > hi):
            raise ValueError(f"parameter {self.mu} outside box {self.box.tolist()}")


@dataclass
class AffineCoefficient:
    """kappa(x; mu) = sum_q mu_q kappa_q(x), mu in the box."""

    fields: list  # one CoefficientField per parameter
    box: np.ndarray

    def __post_init__(self):
        if len(self.fields) < 1:
            raise ValueError("need at least one affine term")
        self.box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if self.box.shape != (len(self.fields), 2):
            raise ValueError("box must have one (lo, hi) row per field")
        shapes = {f.values.shape for f in self.fields}
        if len(shapes) != 1:
            raise ValueError("all affine terms must share one field shape")

    def parameter(self, mu) -> ParameterPoint:
        return ParameterPoint(mu=np.asarray(mu, dtype=float), box=self.box)


def evaluate(aff: AffineCoefficient, mu: ParameterPoint) -> CoefficientField:
    """Evaluate the affine sum at an admissible mu, checking positivity."""
    out = np.zeros_like(aff.fields[0].values)
    for m, f in zip(mu.mu, aff.fields):
        out = out + m * f.values
    if np.any(out <= 0.0):
        bad = int(np.argwhere(out <= 0.0)[0][0])
        raise ValueError(
            f"affine coefficient non-positive at mu={mu.mu.tolist()}, cell {bad}"
        )
    return CoefficientField(out)


def generate_inclusions_channels(fine: FineMesh, spec: list, eta: float) -> CoefficientField:
    """Background-1 field with value eta on a list of axis-aligned cell boxes.

    Each spec entry is a half-open cell-index box (cx0, cx1, cy0, cy1); a
    strip spanning the full width is a channel.
    """
    if eta < 1.0:
        raise ValueError(f"contrast must be >= 1, got {eta}")
    vals = np.ones(fine.n_cells)
    for box in spec:
        vals[fine.cells_in_box(*box)] = eta
    return CoefficientField(vals)


def anisotropic_from_scalar(k11: CoefficientField) -> CoefficientField:
    """Diagonal tensor field (k11(x), 1)."""
    if k11.is_tensor:
        raise ValueError("expected a scalar field")
    return CoefficientField(np.column_stack([k11.values, np.ones(k11.n_cells)]))


def cell_box_from_coords(fine: FineMesh, x0, x1, y0, y1) -> tuple:
    """Cell-index box of the cells whose centers fall in [x0,x1] x [y0,y1]."""
    hx, hy = 1.0 / fine.nx, 1.0 / fine.ny
    cx0 = int(np.rint(x0 / hx))
    cx1 = int(np.rint(x1 / hx))
    cy0 = int(np.rint(y0 / hy))
    cy1 = int(np.rint(y1 / hy))
    return cx0, cx1, cy0, cy1


def write_field(path, field: CoefficientField, fine: FineMesh) -> None:
    """Field file: line 1 `nx ny scalar|tensor`, then row-major per-cell values."""
    kind = "tensor" if field.is_tensor else "scalar"
    np.savetxt(path, field.values, fmt="%.17g", header=f"{fine.nx} {fine.ny} {kind}",
               comments="")


def read_field(path) -> tuple:
    """Read a field file; returns (nx, ny, CoefficientField)."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[2] not in ("scalar", "tensor"):
            raise ValueError(f"bad field file header in {path}")
        nx, ny, kind = int(header[0]), int(header[1]), header[2]
        data = np.loadtxt(fh, ndmin=2)
    want = (nx * ny, 2 if kind == "tensor" else 1)
    if data.shape != want:
        raise ValueError(f"field file {path}: expected shape {want}, got {data.shape}")
    vals = data if kind == "tensor" else data[:, 0]
    return nx, ny, CoefficientField(vals)
