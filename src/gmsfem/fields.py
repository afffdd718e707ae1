"""Preset high-contrast geometries used by the study drivers.

All presets are resolution independent: boxes are given in unit-square
coordinates and snapped to the fine grid, so the same geometry can be
generated on any grid that resolves the features.
"""

from __future__ import annotations

import numpy as np

from .coeff import (AffineCoefficient, CoefficientField, cell_box_from_coords,
                    generate_inclusions_channels)
from .mesh import FineMesh


def _boxes(fine: FineMesh, coords: list) -> list:
    return [cell_box_from_coords(fine, *c) for c in coords]


# channels span most of the width/height; inclusions are isolated blobs
_CHANNELS_A = [
    (0.05, 0.95, 0.20, 0.24),
    (0.00, 0.80, 0.44, 0.48),
    (0.20, 1.00, 0.70, 0.74),
    (0.60, 0.64, 0.10, 0.90),
]
_INCLUSIONS_A = [
    (0.10, 0.16, 0.56, 0.62),
    (0.30, 0.36, 0.84, 0.90),
    (0.80, 0.86, 0.30, 0.36),
    (0.44, 0.50, 0.06, 0.12),
]

_CHANNELS_B = [
    (0.10, 1.00, 0.30, 0.34),
    (0.00, 0.90, 0.60, 0.64),
    (0.36, 0.40, 0.20, 0.96),
]
_INCLUSIONS_B = [
    (0.70, 0.76, 0.10, 0.16),
    (0.14, 0.20, 0.80, 0.86),
    (0.84, 0.90, 0.80, 0.86),
]


def channels_and_inclusions(fine: FineMesh, eta: float) -> CoefficientField:
    """Background 1 with channels and inclusions at value eta."""
    return generate_inclusions_channels(
        fine, _boxes(fine, _CHANNELS_A + _INCLUSIONS_A), eta)


def channels_and_inclusions_alt(fine: FineMesh, eta: float) -> CoefficientField:
    """A second, non-overlapping channel layout at value eta."""
    return generate_inclusions_channels(
        fine, _boxes(fine, _CHANNELS_B + _INCLUSIONS_B), eta)


def affine_four_term(fine: FineMesh, eta: float) -> AffineCoefficient:
    """Four-term affine family kappa = sum_q mu_q kappa_q, mu_q in [1e-4, 1].

    Channel halves are split across different terms, so full channels only
    form when every term contributes; each term also owns an isolated
    inclusion.
    """
    # horizontal channel y in [0.44, 0.48]: left half term 1, right half term 2
    # horizontal channel y in [0.70, 0.74]: left half term 3, right half term 4
    # vertical channel x in [0.60, 0.64]: bottom half term 1, top half term 3
    pieces = [
        [(0.00, 0.50, 0.44, 0.48), (0.60, 0.64, 0.10, 0.50), (0.10, 0.16, 0.10, 0.16)],
        [(0.50, 1.00, 0.44, 0.48), (0.80, 0.86, 0.20, 0.26)],
        [(0.00, 0.50, 0.70, 0.74), (0.60, 0.64, 0.50, 0.90), (0.14, 0.20, 0.84, 0.90)],
        [(0.50, 1.00, 0.70, 0.74), (0.84, 0.90, 0.80, 0.86)],
    ]
    fields = [generate_inclusions_channels(fine, _boxes(fine, coords), eta)
              for coords in pieces]
    box = np.tile([1e-4, 1.0], (4, 1))
    return AffineCoefficient(fields=fields, box=box)


def anisotropic_pair(fine: FineMesh, eta: float) -> tuple:
    """Endpoint scalar fields for k11(mu) = (1 - mu) kappa0 + mu kappa1."""
    return (channels_and_inclusions(fine, eta),
            channels_and_inclusions_alt(fine, eta))


def centered_inclusion(fine: FineMesh, value: float = 100.0) -> CoefficientField:
    """Background 1 with a single inclusion of the given value at the center."""
    return generate_inclusions_channels(
        fine, _boxes(fine, [(0.45, 0.55, 0.45, 0.55)]), value)
