"""Classical-to-quantum data preparation.

Pipeline: z-score standardization, inverse stereographic projection onto the
unit sphere (one extra dimension), and conversion to the rotation angles
that the circuit's encoding branches write into the amplitudes of an index
register (post-selected on a register qubit).

The projection stores each row's pre-projection norm so original-space
distances can be recovered from projected-space ones:

    d_orig(x, y) = sqrt(1/4 (|x|^2 + 1)(|y|^2 + 1)) * d_proj(ISP(x), ISP(y))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DISTANCE_SLACK = 1e-6


def require_finite(matrix: np.ndarray) -> None:
    """Refuse a matrix holding a NaN or an infinity, naming the row and
    column (counted from 0) of the first such value."""
    bad = ~np.isfinite(matrix)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(f"row {r}, column {c} holds {matrix[r, c]}; every "
                         f"value must be finite")


def standardize(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column (population std). Returns (standardized, mean, std).

    Constant columns map to all-zeros.  Every clustering run, elbow sweep
    and CLI command that reads records standardizes them first, so a
    non-finite value is refused here, before any iteration.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("standardize needs a 2-D matrix with at least 2 rows")
    require_finite(data)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    return (data - mean) / safe, mean, std


def isp_rows(matrix: np.ndarray) -> np.ndarray:
    """Project each row of an M x N matrix onto the unit sphere in N+1
    dimensions; returns M x (N+1).

    ISP(x) = (2 x / (|x|^2 + 1), (|x|^2 - 1)/(|x|^2 + 1)); the origin maps to
    the south pole and unit vectors land on the equator unchanged.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    s = np.sum(matrix * matrix, axis=1, keepdims=True)
    return np.hstack([2.0 * matrix / (s + 1.0), (s - 1.0) / (s + 1.0)])


def recover_distance(dp, nx, ny):
    """Original-space distance from a projected-space one, elementwise over
    arrays.

    ``dp`` is the Euclidean distance between the two projections (must lie in
    [0, 2] up to a small statistical slack, which is clamped), ``nx``/``ny``
    the stored pre-projection norms.
    """
    dp = np.asarray(dp, dtype=float)
    outside = (dp < -DISTANCE_SLACK) | (dp > 2.0 + DISTANCE_SLACK)
    if np.any(outside):
        raise ValueError(f"projected distance {dp[outside]} outside [0, 2]")
    dp = np.clip(dp, 0.0, 2.0)
    factor = 0.25 * (nx * nx + 1.0) * (ny * ny + 1.0)
    return np.sqrt(factor) * dp


def num_slots(dim: int) -> int:
    """Smallest power of two >= dim (the padded slot count)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return 1 << max(1, (dim - 1).bit_length())


def rotation_angles(unit_rows: np.ndarray, slots: int) -> np.ndarray:
    """Angles 2*arcsin(entry) for each slot of a vector or of each row of a
    matrix, zero in the padding slots.

    With this convention the register-qubit |1> branch carries amplitude
    exactly equal to the entry.
    """
    unit_rows = np.asarray(unit_rows, dtype=float)
    width = unit_rows.shape[-1]
    if width > slots:
        raise ValueError("vector longer than the slot count")
    angles = np.zeros(unit_rows.shape[:-1] + (slots,))
    angles[..., :width] = 2.0 * np.arcsin(np.clip(unit_rows, -1.0, 1.0))
    return angles


@dataclass
class PreparedVectors:
    """Rows ready for encoding: unit-norm projections, the pre-projection
    norms, and the padded rotation angles."""

    projected: np.ndarray
    norms: np.ndarray
    angles: np.ndarray

    def __len__(self) -> int:
        return self.projected.shape[0]

    @property
    def slots(self) -> int:
        return self.angles.shape[1]


def prepare_vectors(std_rows: np.ndarray, slots: int | None = None) -> PreparedVectors:
    """Project rows (already standardized) and compute encoding angles."""
    std_rows = np.atleast_2d(np.asarray(std_rows, dtype=float))
    projected = isp_rows(std_rows)
    norms = np.linalg.norm(std_rows, axis=1)
    if slots is None:
        slots = num_slots(projected.shape[1])
    return PreparedVectors(projected, norms, rotation_angles(projected, slots))

