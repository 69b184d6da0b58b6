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

The three quantum strategies differ only in the rows they hand to one
driver, ``_assign_rows``: each row is one QC3 circuit loading M1 records
against k centroids (1 and 1, 1 and k, or ``m1`` and k).  The driver runs
the rows of an iteration in batched passes of build, simulate, measure and
decode.

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
from .simulator import Analytic, Histogram, Sampled, measure


class SeedDomain(enum.IntEnum):
    """What a derived seed is for: the word after the root seed in every
    ``derive_seed`` key, so two uses never share a stream.  k-Means++ draws
    from the root seed itself."""

    ASSIGN = 1
    RETRY = 2
    DELTA = 3
    SUBSAMPLE = 4
    REPETITION = 5
    ELBOW = 6


def derive_seed(*parts: int) -> int:
    """Deterministically mix integer parts, each in [0, 2^64), into one
    64-bit seed.

    The key is encoded as 64-bit words with its length first, so keys that
    differ in length or in any part give different entropy.  ``SeedSequence``
    alone pads short entropy with zeros and splits a part >= 2^32 into two
    32-bit words, so (0, 1, 2) and (0, 1, 2, 0) would collide, and so would
    (2^32 + 5,) and (5, 1)."""
    key = [int(p) for p in parts]
    for p in key:
        if not 0 <= p < 1 << 64:
            raise ValueError(f"seed key parts must be in [0, 2**64), got {p}")
    entropy = np.array([len(key), *key], dtype=np.uint64)
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
        if not self.sc_thresh > 0:
            raise ValueError(f"sc_thresh must be > 0, got {self.sc_thresh}")
        if self.max_ite < 1:
            raise ValueError("max_ite must be >= 1")
        if self.shots_base < 1:
            raise ValueError("shots_base must be >= 1")
        if not self.delta >= 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.m1 is not None and not 1 <= self.m1 <= num_records:
            raise ValueError(f"m1 must be in [1, {num_records}], got {self.m1}")
        if self.assignment in QUANTUM_STRATEGIES:
            layout = circuit_layout(num_slots(num_features + 1),
                                    *circuit_shape(self, num_records))
            simulator.require_qubits(
                layout.num_qubits, f"{self.assignment.value} on {num_records} "
                f"records of {num_features} features")


def circuit_shape(params: ClusteringParams,
                  num_records: int) -> tuple[int, int]:
    """The records and centroids one assignment circuit loads: 1 and 1 for
    q11, 1 and k for q1k, and ``m1`` (all ``num_records`` if unset) and k
    for qmk."""
    if params.assignment is Strategy.Q11:
        return 1, 1
    if params.assignment is Strategy.Q1K:
        return 1, params.k
    return (num_records if params.m1 is None else params.m1), params.k


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


def _sq_distances(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    shape ``(len(a), len(b))``, written into ``out`` if given.

    ``b`` is read once per call as contiguous feature rows (its transpose,
    copied if it is not already laid out that way).  Each feature's
    differences are formed by writing ``a[:, f]`` down the target and
    subtracting it from the contiguous row ``b.T[f]`` in place, so the
    subtraction runs numpy's contiguous loop rather than its 2-D broadcast
    one.  That forms ``b_j - a_i``, exactly ``-(a_i - b_j)`` under IEEE
    round-to-nearest, and squaring drops the sign.  The squared columns are
    summed in the order numpy's pairwise sum adds a row, so the result is
    byte-equal to ``np.sum(diff * diff, axis=2)`` over the full
    ``(len(a), len(b), d)`` difference array, which is never built.  The
    first column of each partial sum is written in place; later columns go
    through one reused temporary.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"operands have {a.shape[1]} and {b.shape[1]} "
                         f"features; squared distances need the same width")
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] == 0:
        out[...] = 0.0
        return out
    scratch = np.empty_like(out) if a.shape[1] > 1 else None
    return _pairwise_columns(a, np.ascontiguousarray(b.T), 0, a.shape[1],
                             out, scratch)


def _pairwise_columns(a: np.ndarray, bT: np.ndarray, lo: int, hi: int,
                      total: np.ndarray,
                      scratch: np.ndarray | None) -> np.ndarray:
    """Write into ``total`` the sum of the squared column differences over
    features ``lo..hi-1``: left to right below 8 features, eight
    interleaved partial sums up to 128, and two halves split at a multiple
    of 8 above that."""
    n = hi - lo
    if n < 8:
        return _column_run(a, bT, range(lo, hi), total, scratch)
    if n > 128:
        mid = lo + n // 2 - (n // 2) % 8
        _pairwise_columns(a, bT, lo, mid, total, scratch)
        total += _pairwise_columns(a, bT, mid, hi, np.empty_like(total),
                                   scratch)
        return total
    end = hi - n % 8
    partial = [total] + [np.empty_like(total) for _ in range(7)]
    for j in range(8):
        _column_run(a, bT, range(lo + j, end, 8), partial[j], scratch)
    for width in (1, 2, 4):  # ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7))
        for j in range(0, 8, 2 * width):
            partial[j] += partial[j + width]
    return _column_run(a, bT, range(end, hi), total, scratch, add=True)


def _column_run(a: np.ndarray, bT: np.ndarray, features: range,
                total: np.ndarray, scratch: np.ndarray | None,
                add: bool = False) -> np.ndarray:
    """Sum the squared column differences of ``features`` left to right
    into ``total``, onto its contents if ``add``, else over them.  ``bT``
    holds the second operand's features as contiguous rows: feature ``f``
    of row ``i`` against row ``j`` is ``bT[f, j] - a[i, f]``, written by
    broadcasting ``a[:, f]`` down the target and subtracting it from the
    row ``bT[f]``."""
    for f in features:
        diff = scratch if add else total
        diff[...] = a[:, f, None]
        np.subtract(bT[f], diff, out=diff)
        diff *= diff
        if add:
            total += diff
        add = True
    return total


def assign_classical(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per record; ties break to the lowest index.

    The distances are formed centroids first, ``(k, M)``, so each
    feature's differences run along contiguous rows of all M records
    rather than rows of k; the values are the same as ``(M, k)``'s."""
    return np.argmin(_sq_distances(centroids, data), axis=0)


def assign_delta(data: np.ndarray, centroids: np.ndarray, delta: float,
                 seed: int) -> np.ndarray:
    """Uniform random label among all centroids whose squared distance is
    within ``delta`` of the closest one.  The distances are formed
    centroids first, ``(k, M)``, as in ``assign_classical``."""
    d2 = _sq_distances(centroids, data)
    near = d2 - d2.min(axis=0) <= delta
    labels = np.argmax(near, axis=0)
    # only records with a choice draw, in record order
    rng = np.random.default_rng(seed)
    for r in np.flatnonzero(near.sum(axis=0) > 1):
        candidates = np.flatnonzero(near[:, r])
        labels[r] = candidates[rng.integers(len(candidates))]
    return labels


# Largest batched state one pass may hold, in amplitudes (8 MiB of
# float64); larger batches run as several passes.
MAX_BATCH_AMPLITUDES = 1 << 20


def _assign_rows(records: np.ndarray, centroids: np.ndarray,
                 params: ClusteringParams, ite: int, decode) -> list:
    """Build, simulate, measure and decode one assignment circuit per row:
    records ``(B, M1, slots)`` against centroids ``(B, k, slots)``, or
    ``(k, slots)`` shared by every row.  Returns the decoded values of all
    rows in order.  A sampled row draws ``M1 * k * shots_base`` shots.

    Rows run in passes of at most ``MAX_BATCH_AMPLITUDES`` amplitudes.
    Every pass measures its exact probabilities and hands them to
    ``decode`` with ``sampled``: None for an analytic run, else one
    ``Sampled(shots, rng)`` for the whole call, and the decoder draws its
    shots over the few cells it reads, not over all 2^q basis states.
    Sampled rows draw in row order from one generator keyed
    ``(seed, ASSIGN, ite)``, which carries on from pass to pass, so the
    draws do not depend on the pass size.  Rows whose post-selection came up
    empty are drawn once more at 4x the shots, in row order, from the same
    cells and a second generator keyed ``(seed, RETRY, ite)``; the other
    rows keep their draws.  Rows still empty after that raise
    ``EstimationFailure`` naming the iteration, how many rows of the pass
    are empty and the retry's shots per row.  Rows no draw can fill, those
    of an analytic run and those whose exact kept probability is 0, raise
    at once, naming the iteration."""
    m1, k = records.shape[1], centroids.shape[-2]
    qubits = circuit_layout(records.shape[2], m1, k).num_qubits
    step = max(1, MAX_BATCH_AMPLITUDES >> qubits)
    shots = m1 * k * params.shots_base
    sampled = None if params.analytic else Sampled(
        shots, np.random.default_rng(
            derive_seed(params.seed, SeedDomain.ASSIGN, ite)))
    retry_rng = None
    decoded = []
    for start in range(0, len(records), step):
        rows = slice(start, start + step)
        batch = records[rows]
        plan = build_qc3(batch,
                         centroids if centroids.ndim == 2 else centroids[rows])
        hist = measure(simulate(plan), Analytic())
        try:
            decoded.extend(decode(plan, hist, sampled=sampled))
        except EstimationFailure as failure:
            if failure.values is None:
                raise EstimationFailure(f"iteration {ite}: {failure}",
                                        failure.rows) from failure
            if retry_rng is None:
                retry_rng = np.random.default_rng(
                    derive_seed(params.seed, SeedDomain.RETRY, ite))
            values, empty = failure.values, failure.rows
            try:
                values[empty] = decode(plan, Histogram(hist.weights[empty]),
                                       sampled=Sampled(4 * shots, retry_rng))
            except EstimationFailure as again:
                raise EstimationFailure(
                    f"iteration {ite}: {again} in {len(again.rows)} of "
                    f"{len(batch)} rows of a pass, even redrawn at "
                    f"{4 * shots} shots per row; use a larger shots_base",
                    empty[again.rows]) from again
            decoded.extend(values)
    return decoded


def assign_q11(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, ite: int = 0) -> np.ndarray:
    """One distance circuit per (record, centroid) pair, argmin over the
    recovered original-space distances.  Pair (r, j) is row r*k + j."""
    k = len(centroids)
    r, j = np.divmod(np.arange(len(records) * k), k)
    d_proj = _assign_rows(
        records.angles[r, None], centroids.angles[j, None], params, ite,
        lambda plan, hist, **sampled: estimate_distance(plan, hist,
                                                        **sampled)[0])
    dists = recover_distance(d_proj, records.norms[r], centroids.norms[j])
    return np.argmin(dists.reshape(len(records), k), axis=1)


def assign_q1k(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, ite: int = 0) -> np.ndarray:
    """One multi-centroid circuit per record: record r is row r."""
    labels = _assign_rows(records.angles[:, None], centroids.angles, params,
                          ite, decode_qc2)
    return np.array(labels, dtype=np.int64)


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
               params: ClusteringParams, ite: int = 0) -> np.ndarray:
    """Batched assignment: contiguous batches of ``m1`` records, one circuit
    per batch, batch b being row b; unassigned slots fall back to the
    classical nearest centroid.

    The records are zero-padded to whole batches: a short last batch leaves
    its unused slots empty (zero angles load nothing), and their labels are
    dropped."""
    m = len(records)
    m1, _ = circuit_shape(params, m)
    batches = -(-m // m1)
    padded = np.zeros((batches * m1, records.slots))
    padded[:m] = records.angles
    labels = _assign_rows(padded.reshape(batches, m1, records.slots),
                          centroids.angles, params, ite, decode_qc3)
    return np.array([
        _recovered_nearest(records, centroids, r) if label is None else label
        for r, label in enumerate(labels[:m])], dtype=np.int64)


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
                            derive_seed(params.seed, SeedDomain.DELTA, ite))
    centroids = prepare_vectors(centroids_std, slots=records.slots)
    if strategy is Strategy.Q11:
        return assign_q11(records, centroids, params, ite)
    if strategy is Strategy.Q1K:
        return assign_q1k(records, centroids, params, ite)
    return assign_qmk(records, centroids, params, ite)


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
