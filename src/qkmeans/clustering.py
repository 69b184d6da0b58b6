"""The k-Means family: k-Means++ init, classical and noisy-assignment
variants, and the driver with pluggable cluster-assignment strategies.

Strategies:

* ``classical`` - exact nearest centroid.
* ``delta``     - uniform random pick among all centroids whose squared
                  distance is within ``delta`` of the best one.
* ``q11``       - one distance circuit per (record, centroid) pair; assigns
                  by the recovered original-space distances.
* ``q1k``       - one circuit per record scoring all k centroids at once.
* ``qmk``       - one circuit per batch of ``m1`` records.

All clustering happens in standardized feature space; the quantum strategies
re-project the current centroids onto the sphere every iteration before
encoding them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .circuits import (
    EstimationFailure,
    build_qc3,
    circuit_layout,
    decode_qc2,
    decode_qc3,
    estimate_distance,
    simulate,
)
from .encoding import (
    PreparedVectors,
    num_slots,
    prepare_vectors,
    recover_distance,
    standardize,
)
from . import simulator
from .simulator import Analytic, Sampled, StateVector, measure


def derive_seed(*parts: int) -> int:
    """Deterministically mix integer parts into one 64-bit seed."""
    entropy = [int(p) & 0x7FFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class Strategy(str, enum.Enum):
    CLASSICAL = "classical"
    DELTA = "delta"
    Q11 = "q11"
    Q1K = "q1k"
    QMK = "qmk"


QUANTUM_STRATEGIES = (Strategy.Q11, Strategy.Q1K, Strategy.QMK)


@dataclass
class ClusteringParams:
    k: int
    assignment: Strategy = Strategy.CLASSICAL
    shots_base: int = 1024
    sc_thresh: float = 1e-4
    max_ite: int = 5
    m1: int | None = None
    seed: int = 0
    delta: float = 0.0
    analytic: bool = False

    def validate(self, num_records: int, num_features: int) -> None:
        """Reject settings that cannot run on ``num_records`` records of
        ``num_features`` features, before any work starts."""
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.k <= num_records:
            raise ValueError(f"k must be in [1, {num_records}], got {self.k}")
        if self.sc_thresh <= 0:
            raise ValueError("sc_thresh must be positive")
        if self.max_ite < 1:
            raise ValueError("max_ite must be >= 1")
        if self.shots_base < 1:
            raise ValueError("shots_base must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.m1 is not None and not 1 <= self.m1 <= num_records:
            raise ValueError(f"m1 must be in [1, {num_records}], got {self.m1}")
        if self.assignment in QUANTUM_STRATEGIES:
            records = ((self.m1 or num_records)
                       if self.assignment is Strategy.QMK else 1)
            clusters = 1 if self.assignment is Strategy.Q11 else self.k
            qubits = circuit_layout(num_slots(num_features + 1), records,
                                    clusters).num_qubits
            if qubits > simulator.MAX_QUBITS:
                raise ValueError(
                    f"{self.assignment.value} needs {qubits} qubits for "
                    f"{num_records} records of {num_features} features, more "
                    f"than MAX_QUBITS = {simulator.MAX_QUBITS}")


@dataclass
class IterationRecord:
    centroids: np.ndarray
    labels: np.ndarray
    similarity: float


@dataclass
class ClusteringRun:
    labels: np.ndarray
    centroids: np.ndarray
    history: list[IterationRecord]
    n_ite: int
    converged: bool

    @property
    def avg_similarity(self) -> float:
        return float(np.mean([it.similarity for it in self.history]))


def kmeanspp_init(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-Means++ seeding: first centroid uniform, each next drawn with
    probability proportional to the squared distance to the nearest one."""
    data = np.asarray(data, dtype=float)
    m = data.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(m)]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise ValueError("k exceeds the number of distinct records")
        centroids[i] = data[rng.choice(m, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((data - centroids[i]) ** 2, axis=1))
    return centroids


def _sq_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = data[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


def assign_classical(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per record; ties break to the lowest index."""
    return np.argmin(_sq_distances(data, centroids), axis=1)


def assign_delta(data: np.ndarray, centroids: np.ndarray, delta: float,
                 seed: int) -> np.ndarray:
    """Uniform random label among all centroids whose squared distance is
    within ``delta`` of the closest one."""
    d2 = _sq_distances(data, centroids)
    best = d2.min(axis=1)
    rng = np.random.default_rng(seed)
    labels = np.empty(data.shape[0], dtype=np.int64)
    for r in range(data.shape[0]):
        candidates = np.nonzero(d2[r] - best[r] <= delta)[0]
        if len(candidates) == 1:
            labels[r] = candidates[0]
        else:
            labels[r] = candidates[rng.integers(len(candidates))]
    return labels


# Largest batched state one pass may hold, in amplitudes (16 MiB of
# complex128); larger batches run as several passes.
MAX_BATCH_AMPLITUDES = 1 << 20


def _row_chunks(rows: int, num_qubits: int) -> list[slice]:
    step = max(1, MAX_BATCH_AMPLITUDES >> num_qubits)
    return [slice(start, min(start + step, rows))
            for start in range(0, rows, step)]


def _measure_with_retry(plan, decode, shots: int, analytic: bool, seed_keys):
    """Simulate a plan, measure it and decode every row; rows whose
    post-selection came up empty are drawn once more at 4x the shots, then
    a failure propagates.  Row i draws from ``derive_seed(*seed_keys[i])``,
    and its retry from ``derive_seed(*seed_keys[i], 1)``; a plan of one
    circuit takes one key."""
    state = simulate(plan)
    if analytic:
        return decode(plan, measure(state, Analytic()))
    hist = measure(state, Sampled(
        shots, tuple(derive_seed(*key) for key in seed_keys)))
    try:
        return decode(plan, hist)
    except EstimationFailure as failure:
        rows = failure.rows
        retry = measure(
            StateVector(state.num_qubits, state.amplitudes[rows]),
            Sampled(4 * shots,
                    tuple(derive_seed(*seed_keys[i], 1) for i in rows)))
        hist.weights[rows] = retry.weights
        return decode(plan, hist)


def assign_q11(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, rng_key=()) -> np.ndarray:
    """One distance circuit per (record, centroid) pair, argmin over the
    recovered original-space distances.  Pair (r, j) is row r*k + j of
    one batched pass."""
    k = len(centroids)
    r_of, j_of = np.divmod(np.arange(len(records) * k), k)
    dists = np.empty(len(r_of))
    qubits = circuit_layout(records.slots).num_qubits
    for rows in _row_chunks(len(r_of), qubits):
        r, j = r_of[rows], j_of[rows]
        plan = build_qc3(records.angles[r, None], centroids.angles[j, None])
        d_proj, _ = _measure_with_retry(
            plan, estimate_distance, params.shots_base, params.analytic,
            [(*rng_key, int(a), int(b)) for a, b in zip(r, j)])
        dists[rows] = recover_distance(
            d_proj, records.norms[r], centroids.norms[j])
    return np.argmin(dists.reshape(len(records), k), axis=1)


def assign_q1k(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, rng_key=()) -> np.ndarray:
    """One multi-centroid circuit per record, all records in one batched
    pass."""
    k = len(centroids)
    shots = k * params.shots_base
    labels = np.empty(len(records), dtype=np.int64)
    qubits = circuit_layout(records.slots, clusters=k).num_qubits
    for rows in _row_chunks(len(records), qubits):
        plan = build_qc3(records.angles[rows, None], centroids.angles)
        labels[rows] = _measure_with_retry(
            plan, decode_qc2, shots, params.analytic,
            [(*rng_key, r) for r in range(len(records))[rows]])
    return labels


def _recovered_nearest(records: PreparedVectors, centroids: PreparedVectors,
                       r: int) -> int:
    """Exact nearest centroid computed classically from the stored
    projections and norms (fallback for record slots that got no shots)."""
    dists = [
        recover_distance(
            float(np.linalg.norm(records.projected[r] - centroids.projected[j])),
            records.norms[r], centroids.norms[j])
        for j in range(len(centroids))
    ]
    return int(np.argmin(dists))


def assign_qmk(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, rng_key=()) -> np.ndarray:
    """Batched assignment: contiguous batches of ``m1`` records, one circuit
    per batch; unassigned slots fall back to the classical nearest centroid.

    Every circuit has ``m1`` record slots: a short last batch leaves its
    unused slots empty (zero angles load nothing), and its plan counts only
    the records it holds."""
    m = len(records)
    m1 = params.m1 if params.m1 is not None else m
    shots = m1 * len(centroids) * params.shots_base
    labels = np.empty(m, dtype=np.int64)
    for b, start in enumerate(range(0, m, m1)):
        held = min(m1, m - start)
        batch = np.zeros((m1, records.slots))
        batch[:held] = records.angles[start:start + held]
        plan = build_qc3(batch, centroids.angles)
        plan.num_records = held
        batch_labels = _measure_with_retry(
            plan, decode_qc3, shots, params.analytic, [(*rng_key, b)])
        for v, label in enumerate(batch_labels):
            if label is None:
                label = _recovered_nearest(records, centroids, start + v)
            labels[start + v] = label
    return labels


def _update_centroids(data: np.ndarray, labels: np.ndarray,
                      previous: np.ndarray) -> np.ndarray:
    """Mean of each cluster's records; empty clusters keep their previous
    centroid."""
    new = previous.copy()
    for j in range(previous.shape[0]):
        members = data[labels == j]
        if members.shape[0] > 0:
            new[j] = members.mean(axis=0)
    return new


def _dispatch(strategy: Strategy, std: np.ndarray, records, centroids_std,
              params: ClusteringParams, ite: int) -> np.ndarray:
    if strategy is Strategy.CLASSICAL:
        return assign_classical(std, centroids_std)
    if strategy is Strategy.DELTA:
        return assign_delta(std, centroids_std, params.delta,
                            derive_seed(params.seed, 0xDE, ite))
    centroids = prepare_vectors(centroids_std, slots=records.slots)
    rng_key = (params.seed, ite)
    if strategy is Strategy.Q11:
        return assign_q11(records, centroids, params, rng_key)
    if strategy is Strategy.Q1K:
        return assign_q1k(records, centroids, params, rng_key)
    return assign_qmk(records, centroids, params, rng_key)


def run(data: np.ndarray, params: ClusteringParams) -> ClusteringRun:
    """Full clustering run on a raw data matrix.

    Standardizes the data, seeds centroids with k-Means++, then alternates
    the configured assignment strategy with classical mean updates until the
    relative Frobenius change of the centroids drops below ``sc_thresh`` or
    ``max_ite`` is reached.  Every iteration also records the percentage of
    records on which the strategy agreed with the classical assignment under
    the same centroids.
    """
    data = np.asarray(data, dtype=float)
    std, _, _ = standardize(data)
    params.validate(*std.shape)
    records = (prepare_vectors(std)
               if params.assignment in QUANTUM_STRATEGIES else None)
    centroids = kmeanspp_init(std, params.k, params.seed)
    history: list[IterationRecord] = []
    converged = False
    labels = np.zeros(std.shape[0], dtype=np.int64)
    for ite in range(1, params.max_ite + 1):
        labels = _dispatch(params.assignment, std, records, centroids,
                           params, ite)
        reference = assign_classical(std, centroids)
        similarity = 100.0 * float(np.mean(labels == reference))
        new_centroids = _update_centroids(std, labels, centroids)
        history.append(IterationRecord(centroids.copy(), labels.copy(),
                                       similarity))
        shift = np.linalg.norm(new_centroids - centroids) / max(
            np.linalg.norm(centroids), 1e-12)
        centroids = new_centroids
        if shift <= params.sc_thresh:
            converged = True
            break
    return ClusteringRun(labels, centroids, history, len(history), converged)
