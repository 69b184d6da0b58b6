"""Builders and decoders for the three cluster-assignment circuits.

* QC1 interferes one record with one centroid; the ancilla's post-selected
  |0> frequency encodes their squared Euclidean distance.
* QC2 loads one record against all k centroids in superposition over a
  cluster register; the most frequent cluster pattern is the assignment.
* QC3 additionally batches M1 records over a batch register, assigning every
  record in the batch from a single circuit.

All three share the interference skeleton: H on the ancilla, uniform
superposition over the addressing registers, amplitude-encode the record(s)
in the ancilla-0 branch and the centroid(s) in the ancilla-1 branch, final H
on the ancilla.  Decoding post-selects the encoding register qubit on 1 and
the ancilla on 0, then discards patterns that do not address anything
actually loaded (non-power-of-two record or cluster counts leave such slots
empty).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodingContext, encode_vector
from .simulator import (
    Analytic,
    Gate,
    Histogram,
    MeasureMode,
    StateVector,
    apply_circuit,
    h,
    measure,
    new_state,
    probabilities,
)


class EstimationFailure(RuntimeError):
    """No usable shots survived post-selection; the caller must raise t.

    ``rows`` lists the rows of a batched histogram that came up empty."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class Layout:
    """Qubit assignment for an assignment circuit.

    Order: ancilla, index register, batch register (QC3 only), encoding
    register qubit, cluster register (QC2/QC3 only).
    """

    ancilla: int
    index: tuple[int, ...]
    batch: tuple[int, ...]
    register: int
    cluster: tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return 2 + len(self.index) + len(self.batch) + len(self.cluster)


def _make_layout(n_index: int, n_batch: int = 0, n_cluster: int = 0) -> Layout:
    pos = 0
    ancilla = pos
    pos += 1
    index = tuple(range(pos, pos + n_index))
    pos += n_index
    batch = tuple(range(pos, pos + n_batch))
    pos += n_batch
    register = pos
    pos += 1
    cluster = tuple(range(pos, pos + n_cluster))
    return Layout(ancilla, index, batch, register, cluster)


@dataclass
class CircuitPlan:
    """An ordered gate list plus the register layout it acts on.

    ``rows`` is None for one circuit; otherwise the plan is that many
    circuits sharing the gate list, whose RY angles carry one value per
    row."""

    layout: Layout
    gates: list[Gate] = field(default_factory=list)
    num_records: int = 1
    num_clusters: int = 1
    rows: int | None = None

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits


def _check_angles(angles, n_index: int, what: str) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != (1 << n_index):
        raise ValueError(
            f"{what} needs {1 << n_index} angle slots, got {angles.shape[-1]}"
        )
    return angles


def _rows_of(record_angles: np.ndarray) -> int | None:
    """Rows of a batched build: None for one circuit's 1-D record angles."""
    if record_angles.ndim > 2:
        raise ValueError("record angles must be one row or a 2-D batch")
    return record_angles.shape[0] if record_angles.ndim == 2 else None


def build_qc1(record_angles, centroid_angles, n_index: int) -> CircuitPlan:
    """Pairwise-distance circuit: 1 + n_index + 1 qubits.

    Given (B, slots) rows of record and centroid angles it builds B circuits
    at once, one per row pair, on one shared gate list."""
    record_angles = _check_angles(record_angles, n_index, "record")
    centroid_angles = _check_angles(centroid_angles, n_index, "centroid")
    if record_angles.shape != centroid_angles.shape:
        raise ValueError("record and centroid angles must have one shape")
    layout = _make_layout(n_index)
    plan = CircuitPlan(layout, rows=_rows_of(record_angles))
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    encode_vector(plan, record_angles, EncodingContext(
        layout.index, layout.register, ((layout.ancilla, 0),)))
    encode_vector(plan, centroid_angles, EncodingContext(
        layout.index, layout.register, ((layout.ancilla, 1),)))
    plan.gates.append(h(layout.ancilla))
    return plan


def build_qc2(record_angles, centroids_angles, n_index: int,
              n_cluster: int) -> CircuitPlan:
    """One-record-vs-k-centroids circuit: 1 + n_index + 1 + n_cluster qubits.

    The record rotations are controlled by the ancilla only; each centroid's
    rotations carry its cluster bit pattern as extra controls.  Given
    (B, slots) record rows it builds B circuits at once against the same
    centroids.
    """
    record_angles = _check_angles(record_angles, n_index, "record")
    centroids_angles = _check_angles(centroids_angles, n_index, "centroids")
    k = centroids_angles.shape[0]
    if k > (1 << n_cluster):
        raise ValueError(f"{k} centroids do not fit in {n_cluster} cluster qubits")
    layout = _make_layout(n_index, n_cluster=n_cluster)
    plan = CircuitPlan(layout, num_clusters=k, rows=_rows_of(record_angles))
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    plan.gates.extend(h(q) for q in layout.cluster)
    encode_vector(plan, record_angles, EncodingContext(
        layout.index, layout.register, ((layout.ancilla, 0),)))
    for j in range(k):
        pattern = tuple((qb, (j >> b) & 1) for b, qb in enumerate(layout.cluster))
        encode_vector(plan, centroids_angles[j], EncodingContext(
            layout.index, layout.register, ((layout.ancilla, 1),) + pattern))
    plan.gates.append(h(layout.ancilla))
    return plan


def build_qc3(records_angles, centroids_angles, n_index: int, n_batch: int,
              n_cluster: int) -> CircuitPlan:
    """Batched circuit: 1 + n_index + n_batch + 1 + n_cluster qubits.

    Record v's rotations carry v's bit pattern on the batch register (and are
    not controlled by the cluster register); centroids are loaded once, with
    cluster-pattern controls only.
    """
    records_angles = _check_angles(records_angles, n_index, "records")
    centroids_angles = _check_angles(centroids_angles, n_index, "centroids")
    m1 = records_angles.shape[0]
    k = centroids_angles.shape[0]
    if m1 > (1 << n_batch):
        raise ValueError(f"{m1} records do not fit in {n_batch} batch qubits")
    if k > (1 << n_cluster):
        raise ValueError(f"{k} centroids do not fit in {n_cluster} cluster qubits")
    layout = _make_layout(n_index, n_batch=n_batch, n_cluster=n_cluster)
    plan = CircuitPlan(layout, num_records=m1, num_clusters=k)
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    plan.gates.extend(h(q) for q in layout.batch)
    plan.gates.extend(h(q) for q in layout.cluster)
    for v in range(m1):
        pattern = tuple((qb, (v >> b) & 1) for b, qb in enumerate(layout.batch))
        encode_vector(plan, records_angles[v], EncodingContext(
            layout.index, layout.register, ((layout.ancilla, 0),) + pattern))
    for j in range(k):
        pattern = tuple((qb, (j >> b) & 1) for b, qb in enumerate(layout.cluster))
        encode_vector(plan, centroids_angles[j], EncodingContext(
            layout.index, layout.register, ((layout.ancilla, 1),) + pattern))
    plan.gates.append(h(layout.ancilla))
    return plan


def simulate(plan: CircuitPlan) -> StateVector:
    return apply_circuit(new_state(plan.num_qubits, plan.rows), plan.gates)


def execute(plan: CircuitPlan, mode: MeasureMode) -> Histogram:
    """Run the plan and measure all qubits under the given mode."""
    return measure(simulate(plan), mode)


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right, the order in which the
    basis states are enumerated, so analytic weights round the same way for
    one circuit and for any batch."""
    return functools.reduce(np.add, np.moveaxis(values, -1, 0))


def _layout_view(plan: CircuitPlan, hist: Histogram) -> np.ndarray:
    """The weights with one axis per register, most significant first:
    (rows..., cluster, register, batch, index, ancilla)."""
    layout = plan.layout
    return hist.weights.reshape(hist.weights.shape[:-1] + (
        1 << len(layout.cluster), 2, 1 << len(layout.batch),
        1 << len(layout.index), 2))


def _empty_rows(kept: np.ndarray, what: str) -> None:
    """Raise EstimationFailure naming the rows with nothing kept."""
    empty = np.atleast_1d(kept <= 0.0)
    if empty.any():
        raise EstimationFailure(f"no shots survived {what}",
                                np.flatnonzero(empty))


def estimate_distance(plan: CircuitPlan, hist: Histogram):
    """Distance estimate from a QC1 histogram.

    Post-selects the register qubit on 1, takes the surviving ancilla-0
    frequency p and returns (sqrt(max(0, 4 - 4p)), kept shots).  This is the
    distance between the encoded (projected) unit vectors.  A batched
    histogram gives one estimate and one kept count per row.
    """
    # QC1 has no cluster or batch register; keep register = 1
    kept = _layout_view(plan, hist)[..., 0, 1, 0, :, :]  # (..., index, ancilla)
    t_prime = _ordered_sum(kept.reshape(kept.shape[:-2] + (-1,)))
    _empty_rows(t_prime, "register post-selection")
    zeros = _ordered_sum(kept[..., 0])  # ancilla = 0
    p_hat = zeros / t_prime
    return np.sqrt(np.maximum(0.0, 4.0 - 4.0 * p_hat)), t_prime


@dataclass
class AssignmentHistogram:
    """Meaningful counts of an assignment circuit run, after post-selection
    and pattern filtering.

    ``counts[..., v, j]`` is the weight of record slot v on cluster j, with
    the histogram's leading batch axis if it had one; ``kept_shots`` and
    ``wasted_fraction`` are totals over all rows."""

    counts: np.ndarray
    kept_shots: float
    wasted_fraction: float


def assignment_histogram(plan: CircuitPlan, hist: Histogram) -> AssignmentHistogram:
    """Post-select register=1 and ancilla=0, then bucket the surviving counts
    by (record slot, cluster), discarding patterns beyond the loaded counts."""
    # register = 1, ancilla = 0
    kept = _layout_view(plan, hist)[..., 1, :, :, 0]  # (..., j, v, index)
    cells = _ordered_sum(kept)[..., :plan.num_clusters, :plan.num_records]
    counts = np.swapaxes(cells, -1, -2)
    total = hist.shots
    meaningful = float(counts.sum())
    wasted = 1.0 - meaningful / total if total > 0 else 1.0
    return AssignmentHistogram(counts, meaningful, wasted)


def decode_qc2(plan: CircuitPlan, hist: Histogram):
    """Most frequent meaningful cluster pattern; ties break to the lowest
    index.  One label per row for a batched histogram.  Raises
    EstimationFailure if nothing survives in some row."""
    counts = assignment_histogram(plan, hist).counts[..., 0, :]
    _empty_rows(counts.sum(axis=-1), "cluster assignment")
    return np.argmax(counts, axis=-1)


def decode_qc3(plan: CircuitPlan, hist: Histogram) -> list[int | None]:
    """Per-record most frequent cluster; record slots with zero surviving
    counts come back as None for the caller to reassign."""
    counts = assignment_histogram(plan, hist).counts
    labels = np.argmax(counts, axis=-1)
    return [int(label) if total > 0.0 else None
            for label, total in zip(labels, counts.sum(axis=-1))]


def postselection_probability(plan: CircuitPlan, qubit: int | None = None,
                              value: int = 1) -> float:
    """Exact probability that ``qubit`` (default: the encoding register)
    measures ``value`` in the final state."""
    if qubit is None:
        qubit = plan.layout.register
    probs = probabilities(simulate(plan))
    basis = np.arange(probs.shape[0])
    return float(probs[((basis >> qubit) & 1) == value].sum())


@dataclass(frozen=True)
class CircuitStats:
    qubits: int
    gate_count: int
    depth: int


def circuit_stats(plan: CircuitPlan) -> CircuitStats:
    """Qubit, gate and depth counts of the plan as built.

    Depth schedules two gates in the same layer iff their qubit sets
    (target plus controls) are disjoint.
    """
    levels: dict[int, int] = {}
    depth = 0
    for gate in plan.gates:
        qubits = gate.qubits
        level = 1 + max((levels.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            levels[q] = level
        depth = max(depth, level)
    return CircuitStats(plan.num_qubits, len(plan.gates), depth)
