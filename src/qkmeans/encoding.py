"""Classical-to-quantum data preparation.

Pipeline: z-score standardization, inverse stereographic projection onto the
unit sphere (one extra dimension), conversion to rotation angles, and the
pattern-controlled RY sequences that write a vector's entries into the
amplitudes of an index register (post-selected on a register qubit).

The projection stores each row's pre-projection norm so original-space
distances can be recovered from projected-space ones:

    d_orig(x, y) = sqrt(1/4 (|x|^2 + 1)(|y|^2 + 1)) * d_proj(ISP(x), ISP(y))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import ry

DISTANCE_SLACK = 1e-6


def standardize(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column (population std). Returns (standardized, mean, std).

    Constant columns map to all-zeros.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("standardize needs a 2-D matrix with at least 2 rows")
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    return (data - mean) / safe, mean, std


def isp(x: np.ndarray) -> np.ndarray:
    """Project an N-vector onto the unit sphere in N+1 dimensions.

    ISP(x) = (2 x / (|x|^2 + 1), (|x|^2 - 1)/(|x|^2 + 1)); the origin maps to
    the south pole and unit vectors land on the equator unchanged.
    """
    x = np.asarray(x, dtype=float)
    s = float(np.dot(x, x))
    return np.append(2.0 * x / (s + 1.0), (s - 1.0) / (s + 1.0))


def isp_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise ``isp`` for an M x N matrix; returns M x (N+1)."""
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


def rotation_angles(unit_row: np.ndarray, slots: int) -> np.ndarray:
    """Angles 2*arcsin(entry) for each slot, zero in the padding slots.

    With this convention the register-qubit |1> branch carries amplitude
    exactly equal to the entry.
    """
    unit_row = np.asarray(unit_row, dtype=float)
    if len(unit_row) > slots:
        raise ValueError("vector longer than the slot count")
    angles = np.zeros(slots)
    angles[: len(unit_row)] = 2.0 * np.arcsin(np.clip(unit_row, -1.0, 1.0))
    return angles


@dataclass(frozen=True)
class EncodingContext:
    """Where an amplitude-encoding block plugs into a larger circuit.

    ``index_qubits[b]`` carries bit ``b`` of the slot index; ``extra_controls``
    are additional (qubit, polarity) conditions (ancilla branch, cluster
    pattern, batch pattern).
    """

    index_qubits: tuple[int, ...]
    register_qubit: int
    extra_controls: tuple[tuple[int, int], ...] = ()


def encode_vector(plan, angles: np.ndarray, ctx: EncodingContext) -> None:
    """Append the pattern-controlled rotations that write ``angles`` into the
    register qubit's |1> branch, one controlled RY per nonzero slot.

    The slot's bit pattern is expressed directly as control polarities on the
    index qubits, so no X gates are emitted; zero-angle slots (padding or
    zero entries) emit nothing.  Given (B, slots) rows of angles, each RY
    carries one angle per row, and a slot is left out only when it is zero
    in every row.
    """
    slots = 1 << len(ctx.index_qubits)
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != slots:
        raise ValueError(f"expected {slots} angles, got {angles.shape[-1]}")
    used = np.any(angles != 0.0, axis=tuple(range(angles.ndim - 1)))
    for slot in np.flatnonzero(used).tolist():
        theta = angles[..., slot]
        pattern = tuple(
            (qb, (slot >> b) & 1) for b, qb in enumerate(ctx.index_qubits)
        )
        plan.gates.append(ry(theta.copy() if theta.ndim else float(theta),
                             ctx.register_qubit, pattern + ctx.extra_controls))


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

    @property
    def index_size(self) -> int:
        return self.slots.bit_length() - 1


def prepare_vectors(std_rows: np.ndarray, slots: int | None = None) -> PreparedVectors:
    """Project rows (already standardized) and compute encoding angles."""
    std_rows = np.atleast_2d(np.asarray(std_rows, dtype=float))
    projected = isp_rows(std_rows)
    norms = np.linalg.norm(std_rows, axis=1)
    if slots is None:
        slots = num_slots(projected.shape[1])
    angles = np.vstack([rotation_angles(row, slots) for row in projected])
    return PreparedVectors(projected, norms, angles)

