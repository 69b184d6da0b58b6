"""The cluster-assignment circuit and its decoders.

* QC3 loads a batch of M1 records over a batch register against all k
  centroids over a cluster register, assigning every record in the batch
  from a single circuit.
* QC2 is QC3 with one record: the most frequent cluster pattern is the
  assignment.
* QC1 is QC3 with one record and one centroid: the ancilla's post-selected
  |0> frequency encodes their squared Euclidean distance.

The skeleton: H on the ancilla, uniform superposition over the addressing
registers, amplitude-encode the record(s) in the ancilla-0 branch and the
centroid(s) in the ancilla-1 branch, final H on the ancilla.  Decoding
post-selects the encoding register qubit on 1 and the ancilla on 0, then
discards patterns that do not address anything actually loaded
(non-power-of-two record or cluster counts leave such slots empty).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodingContext, encode_vector
from .simulator import (
    Gate,
    Histogram,
    StateVector,
    apply_circuit,
    h,
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

    Order: ancilla, index register, batch register, encoding register
    qubit, cluster register.
    """

    ancilla: int
    index: tuple[int, ...]
    batch: tuple[int, ...]
    register: int
    cluster: tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return 2 + len(self.index) + len(self.batch) + len(self.cluster)


def circuit_layout(slots: int, records: int = 1, clusters: int = 1) -> Layout:
    """The layout of a circuit that loads ``records`` records against
    ``clusters`` centroids of ``slots`` angle slots each: log2(slots) index
    qubits, and as many batch and cluster qubits as it takes to address the
    records and the centroids."""
    n_index = slots.bit_length() - 1
    if slots < 1 or slots != 1 << n_index:
        raise ValueError(f"slots must be a power of two, got {slots}")
    if records < 1 or clusters < 1:
        raise ValueError("a circuit loads at least one record and centroid")
    n_batch = (records - 1).bit_length()
    n_cluster = (clusters - 1).bit_length()
    register = 1 + n_index + n_batch
    return Layout(0, tuple(range(1, 1 + n_index)),
                  tuple(range(1 + n_index, register)), register,
                  tuple(range(register + 1, register + 1 + n_cluster)))


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


def build_qc3(records_angles, centroids_angles) -> CircuitPlan:
    """Assignment circuit for records ``(M1, slots)`` against centroids
    ``(k, slots)``: 1 + n_index + n_batch + 1 + n_cluster qubits, with the
    widths taken from the shapes by ``circuit_layout``.  QC2 is the M1 = 1
    instance and QC1 the M1 = k = 1 one.

    Record v's rotations carry v's bit pattern on the batch register (and
    are not controlled by the cluster register); centroid j's carry j's
    pattern on the cluster register only.  Records ``(B, M1, slots)`` build
    B circuits at once on one shared gate list, against centroids
    ``(B, k, slots)``, or ``(k, slots)`` shared by every row.
    """
    records = np.asarray(records_angles, dtype=float)
    centroids = np.asarray(centroids_angles, dtype=float)
    if records.ndim not in (2, 3) or centroids.ndim not in (2, records.ndim):
        raise ValueError("records must be (M1, slots) or (B, M1, slots) and "
                         "centroids (k, slots) or records' (B, k, slots)")
    if centroids.ndim == 3 and centroids.shape[0] != records.shape[0]:
        raise ValueError("records and centroids must have the same rows")
    if records.shape[-1] != centroids.shape[-1]:
        raise ValueError(f"records have {records.shape[-1]} angle slots, "
                         f"centroids {centroids.shape[-1]}")
    m1, k = records.shape[-2], centroids.shape[-2]
    layout = circuit_layout(records.shape[-1], m1, k)
    plan = CircuitPlan(layout, num_records=m1, num_clusters=k,
                       rows=records.shape[0] if records.ndim == 3 else None)
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index + layout.batch
                      + layout.cluster)
    for angles, branch, address in ((records, 0, layout.batch),
                                    (centroids, 1, layout.cluster)):
        for v in range(angles.shape[-2]):
            pattern = tuple((qb, (v >> b) & 1) for b, qb in enumerate(address))
            encode_vector(plan, angles[..., v, :], EncodingContext(
                layout.index, layout.register,
                ((layout.ancilla, branch),) + pattern))
    plan.gates.append(h(layout.ancilla))
    return plan


def simulate(plan: CircuitPlan) -> StateVector:
    return apply_circuit(new_state(plan.num_qubits, plan.rows), plan.gates)


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
