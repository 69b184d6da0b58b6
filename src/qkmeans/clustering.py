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
decode.  The records stay fixed through a run and only the k centroids move,
so iteration 1 builds each pass's plan and every later iteration derives it
with ``CircuitPlan.with_centroids``: the padded record table, its checks and
its record branch are built once per run.

All clustering happens in standardized feature space; the quantum strategies
re-project the current centroids onto the sphere every iteration before
encoding them.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
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
    require_finite,
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

# A sampled row whose post-selection came up empty is drawn once more at
# REDRAW_FACTOR times its shots.  A run that expects more than
# MAX_EXPECTED_EMPTY_ROWS sampled q1:1 rows to stay empty after that redraw
# is refused before iteration 1.
REDRAW_FACTOR = 4
MAX_EXPECTED_EMPTY_ROWS = 1e-3


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

    def __post_init__(self):
        """A strategy name becomes its member ("bogus" raises) and a numpy
        integer count an int; a field of the wrong type is refused by name."""
        self.assignment = Strategy(self.assignment)
        for name in ("k", "shots_base", "max_ite", "m1", "seed"):
            value = getattr(self, name)
            if name == "m1" and value is None:
                continue
            try:
                if isinstance(value, bool):  # operator.index(True) is 1
                    raise TypeError
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{value!r}") from None
        for name, kind, what in (("sc_thresh", numbers.Real, "a real number"),
                                 ("delta", numbers.Real, "a real number"),
                                 ("analytic", bool, "a bool")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")

    def validate(self, num_records: int, num_features: int) -> None:
        """Reject settings that cannot run on ``num_records`` records of
        ``num_features`` features, before any work starts."""
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
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
            m1, k = circuit_shape(self, num_records)
            layout = circuit_layout(num_slots(num_features + 1), m1, k)
            simulator.require_qubits(
                layout.num_qubits, f"{self.assignment.value} on {num_records} "
                f"records of {num_features} features")
            # numpy draws at most int64's largest count of shots at once
            largest = np.iinfo(np.int64).max // (REDRAW_FACTOR * m1 * k)
            if not self.analytic and self.shots_base > largest:
                raise ValueError(
                    f"shots_base {self.shots_base} is too large for sampled "
                    f"{self.assignment.value} on {num_records} records: a "
                    f"redrawn row draws {REDRAW_FACTOR} * {m1} * {k} * "
                    f"shots_base shots, more than numpy can draw; use "
                    f"shots_base <= {largest}")
        if self.assignment is Strategy.Q11 and not self.analytic:
            self._require_q11_shots(num_records, num_features)

    def _require_q11_shots(self, num_records: int, num_features: int) -> None:
        """Refuse a sampled q1:1 run whose rows would come up empty after
        their redraw more than ``MAX_EXPECTED_EMPTY_ROWS`` times, naming the
        least ``shots_base`` that passes.

        A QC1 row keeps register 1 with probability exactly ``1 / slots``
        whatever the data, and its draw and redraw hold ``(1 +
        REDRAW_FACTOR) * shots_base`` shots in all; an iteration runs
        ``num_records * k`` rows."""
        miss = 1.0 - 1.0 / num_slots(num_features + 1)
        rows = num_records * self.k * self.max_ite

        def expected(shots_base):
            return rows * miss ** ((1 + REDRAW_FACTOR) * shots_base)

        if expected(self.shots_base) <= MAX_EXPECTED_EMPTY_ROWS:
            return
        least = self.shots_base + 1
        while expected(least) > MAX_EXPECTED_EMPTY_ROWS:
            least += 1
        raise ValueError(
            f"shots_base {self.shots_base} is too small for sampled q11 on "
            f"{num_records} records of {num_features} features, k "
            f"{self.k}, max_ite {self.max_ite}: "
            f"{expected(self.shots_base):.3g} rows are expected to keep no "
            f"shot even after the {REDRAW_FACTOR}x redraw; use shots_base >= "
            f"{least}")


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
    """A finished run; ``labels`` is ``history[-1].labels``, the final
    assignment held once."""

    labels: np.ndarray
    centroids: np.ndarray
    history: list[IterationRecord]
    converged: bool

    @property
    def n_ite(self) -> int:
        return len(self.history)

    @property
    def avg_similarity(self) -> float:
        return float(np.mean([it.similarity for it in self.history]))


def kmeanspp_init(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-Means++ seeding (Arthur and Vassilvitskii, SODA 2007): first
    centroid uniform, each next drawn with probability proportional to the
    squared distance to the nearest one.

    Each draw is numpy's own algorithm for ``Generator.choice(m, p=d2 /
    total)`` (``numpy/random/_generator.pyx``, sampling with replacement
    and ``p`` given)::

        cdf = p.cumsum()
        cdf /= cdf[-1]
        uniform_samples = self.random(shape)
        idx = cdf.searchsorted(uniform_samples, side='right')

    The same operations on the same generator draw the same index, without
    ``choice``'s checks of ``p``; a test holds the centroids byte-equal to
    ``choice``'s.  Its NaN check is replaced by refusing non-finite records
    before any draw, naming the first one's row and column, and a total of
    squared distances that is 0 (too few distinct records) or infinite."""
    data = np.asarray(data, dtype=float)
    require_finite(data)
    m = data.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(m)]
    diff = np.empty_like(data)  # every draw's squared differences
    d2 = np.full(m, math.inf)
    for i in range(1, k):
        np.square(np.subtract(data, centroids[i - 1], out=diff), out=diff)
        np.minimum(d2, diff.sum(axis=1), out=d2)
        total = d2.sum()
        if not 0.0 < total < math.inf:  # 0 once every record is a centroid
            require_distinct(data, k)
            raise ValueError("squared distances between the records under- "
                             "or overflow float64; standardize them first")
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centroids[i] = data[cdf.searchsorted(rng.random(), side="right")]
    return centroids


def require_distinct(data: np.ndarray, k: int) -> None:
    """Refuse more centroids ``k`` than distinct records in ``data``,
    naming both numbers."""
    distinct = len(np.unique(data, axis=0))
    if k > distinct:
        raise ValueError(f"k {k} exceeds {distinct} distinct records")


# A difference block of _sq_distances holds at most this many terms (256 KiB;
# 2^14 to 2^17 timed alike at 8 and 13 features), or one row of its ``a``.
_DIFF_BLOCK = 1 << 15


def _sq_distances(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``,
    shape ``(len(a), len(b))``, written into ``out`` if given: the bytes of
    ``np.sum(diff * diff, axis=2)`` over the C-ordered difference array.

    Below 8 features numpy adds a row's terms left to right, so the squared
    columns are added left to right and no difference array is built.  The
    first column is written into ``out``, later ones into one reused
    temporary: ``a[:, f]`` is written down the target and subtracted from
    the contiguous row ``b.T[f]`` in place, forming ``b_j - a_i``, exactly
    ``-(a_i - b_j)``; squaring drops the sign.  From 8 features up, and for
    none, ``np.sum`` itself reduces the difference array in row blocks of
    ``_DIFF_BLOCK``, each in C order whatever the operands' layout.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"operands have {a.shape[1]} and {b.shape[1]} "
                         f"features; squared distances need the same width")
    m, d = a.shape
    if out is None:
        out = np.empty((m, b.shape[0]))
    if 0 < d < 8:
        bT = np.ascontiguousarray(b.T)
        scratch = np.empty_like(out) if d > 1 else None
        for f in range(d):
            diff = scratch if f else out
            diff[...] = a[:, f, None]
            np.subtract(bT[f], diff, out=diff)
            diff *= diff
            if f:
                out += diff
        return out
    step = max(1, _DIFF_BLOCK // max(1, b.size))
    block = np.empty((min(m, step),) + b.shape)
    for s in range(0, m, step):
        diff = block[:min(step, m - s)]
        np.subtract(a[s:s + step, None], b, out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=2, out=out[s:s + step])
    return out


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
                 params: ClusteringParams, ite: int, decode,
                 plans: list | None = None) -> list:
    """Build, simulate, measure and decode one assignment circuit per row,
    in passes over the records' first axis.  Returns the decoded values of
    each pass, in order: one result per pass as ``decode`` returns it, one
    value per row of the pass.  A sampled row draws ``M1 * k *
    shots_base`` shots.

    ``plans`` carries the passes' plans from call to call of one run, whose
    records stay fixed: a pass that has no plan there yet is built with
    ``build_qc3`` and its plan appended, and a pass that has one takes it
    with ``with_centroids``, so its padded record table, the table's checks
    and its record branch are built once per run.  Each call of a run with
    the same records makes the same passes, so iteration 1 builds them all
    and every later iteration derives them.  Without ``plans`` every pass is
    built afresh.

    Records ``(B, M1, slots)`` make B rows against centroids ``(k,
    slots)``.  Centroids ``(n, ..., k, slots)`` with leading axes make the
    grid of every record row against every centroid table: records ``(B,
    1, ..., M1, slots)``, with a 1 for each of those axes, then make B * n
    * ... rows, record b's in a block in C order.  A pass covers whole
    blocks, as many as ``MAX_BATCH_AMPLITUDES`` amplitudes hold, and at
    least one.

    Every pass squares its state in place into its exact probabilities,
    so it holds one state-sized array, and hands them to ``decode`` with
    ``sampled``: None for an analytic run, else one
    ``Sampled(shots, rng)`` for the whole call, and the decoder draws its
    shots over the few cells it reads, not over all 2^q basis states.
    Sampled rows draw in row order from one generator keyed
    ``(seed, ASSIGN, ite)``, which carries on from pass to pass, so the
    draws do not depend on the pass size.  Rows whose post-selection came up
    empty are drawn once more at ``REDRAW_FACTOR`` times the shots, in row
    order, from the same cells and a second generator keyed ``(seed, RETRY,
    ite)``; the other rows keep their draws.  Rows still empty after that
    raise ``EstimationFailure`` naming the iteration, how many of the pass's
    circuits are empty and the retry's shots per row.  Rows no draw can
    fill, those of an analytic run and those whose exact kept probability
    is 0, raise at once, naming the iteration."""
    m1, k = records.shape[-2], centroids.shape[-2]
    qubits = circuit_layout(records.shape[-1], m1, k).num_qubits
    block = math.prod(centroids.shape[:-2])
    step = max(1, (MAX_BATCH_AMPLITUDES >> qubits) // block)
    shots = m1 * k * params.shots_base
    sampled = None if params.analytic else Sampled(
        shots, np.random.default_rng(
            derive_seed(params.seed, SeedDomain.ASSIGN, ite)))
    retry_rng = None
    decoded = []
    plans = [] if plans is None else plans
    for n, start in enumerate(range(0, len(records), step)):
        if n < len(plans):
            plan = plans[n].with_centroids(centroids)
        else:
            plan = build_qc3(records[start:start + step], centroids)
            plans.append(plan)
        amps = simulate(plan)
        hist = measure(amps, Analytic(), out=amps)
        try:
            decoded.append(decode(plan, hist, sampled=sampled))
        except EstimationFailure as failure:
            if failure.values is None:
                raise EstimationFailure(f"iteration {ite}: {failure}",
                                        failure.rows) from failure
            if retry_rng is None:
                retry_rng = np.random.default_rng(
                    derive_seed(params.seed, SeedDomain.RETRY, ite))
            values, empty = failure.values, failure.rows
            retry_shots = REDRAW_FACTOR * shots
            try:
                values[empty] = decode(plan, Histogram(hist.weights[empty]),
                                       sampled=Sampled(retry_shots, retry_rng))
            except EstimationFailure as again:
                raise EstimationFailure(
                    f"iteration {ite}: {again} in {len(again.rows)} of "
                    f"{plan.rows} rows of a pass, even redrawn at "
                    f"{retry_shots} shots per row; use a larger shots_base",
                    empty[again.rows]) from again
            decoded.append(values)
    return decoded


def assign_q11(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, ite: int = 0,
               plans: list | None = None) -> np.ndarray:
    """One distance circuit per (record, centroid) pair, argmin over the
    recovered original-space distances.  The pairs are the grid of records
    ``(M, 1, 1, slots)`` against centroids ``(k, 1, slots)``: pair (r, j)
    is row r*k + j.  ``plans`` is the run's, as ``_assign_rows`` takes it."""
    m, k = len(records), len(centroids)
    d_proj = np.concatenate(_assign_rows(
        records.angles[:, None, None], centroids.angles[:, None], params, ite,
        estimate_distance, plans))
    return _recovered_labels(d_proj.reshape(m, k), records.norms,
                             centroids.norms)


def assign_q1k(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, ite: int = 0,
               plans: list | None = None) -> np.ndarray:
    """One multi-centroid circuit per record: record r is row r.
    ``plans`` is the run's, as ``_assign_rows`` takes it."""
    return np.concatenate(_assign_rows(records.angles[:, None],
                                       centroids.angles, params, ite,
                                       decode_qc2, plans))


def _recovered_labels(d_proj: np.ndarray, record_norms: np.ndarray,
                      centroid_norms: np.ndarray) -> np.ndarray:
    """Nearest centroid per record from projected distances ``(m, k)``: the
    argmin of the recovered original-space ones, ties to the lowest index."""
    return np.argmin(recover_distance(d_proj, record_norms[:, None],
                                      centroid_norms), axis=1)


def _recovered_nearest(records: PreparedVectors, centroids: PreparedVectors,
                       rows: np.ndarray) -> np.ndarray:
    """Exact nearest centroid of the records ``rows`` (the fallback for slots
    that kept no shot): q1:1's rule on exact projected distances."""
    d_proj = np.sqrt(_sq_distances(records.projected[rows],
                                   centroids.projected))
    return _recovered_labels(d_proj, records.norms[rows], centroids.norms)


def assign_qmk(records: PreparedVectors, centroids: PreparedVectors,
               params: ClusteringParams, ite: int = 0,
               plans: list | None = None) -> np.ndarray:
    """Batched assignment: contiguous batches of ``m1`` records, one circuit
    per batch, batch b being row b; unassigned slots fall back to the
    classical nearest centroid, all of an iteration's in one step.

    The records are zero-padded to whole batches: a short last batch leaves
    its unused slots empty (zero angles load nothing), and their labels are
    dropped.  ``plans`` is the run's, as ``_assign_rows`` takes it."""
    m = len(records)
    m1, _ = circuit_shape(params, m)
    batches = -(-m // m1)
    padded = np.zeros((batches * m1, records.slots))
    padded[:m] = records.angles
    passes = _assign_rows(padded.reshape(batches, m1, records.slots),
                          centroids.angles, params, ite, decode_qc3, plans)
    labels = np.array([-1 if label is None else label
                       for part in passes for label in part][:m],
                      dtype=np.int64)
    missing = np.flatnonzero(labels < 0)
    if missing.size:
        labels[missing] = _recovered_nearest(records, centroids, missing)
    return labels


def _update_centroids(data: np.ndarray, labels: np.ndarray,
                      previous: np.ndarray) -> np.ndarray:
    """Mean of each cluster's records; empty clusters keep their previous
    centroid.

    The sums come from one ``np.bincount`` over the (cluster, feature)
    bins ``label * d + f`` of the records in C order, divided by the member
    counts.  These are the bytes of each cluster's ``mean(axis=0)``: numpy
    reduces axis 0 of a C-contiguous block of two or more columns row by
    row, starting from +0.0, and ``bincount`` adds each bin's weights in
    record order from +0.0 as well, so both sums round alike, signs of zero
    included, before the same division.  A single column is the exception:
    numpy sums it as one contiguous run, pairwise, so single-feature
    centroids may differ from those means in the last place."""
    k, d = previous.shape
    counts = np.bincount(labels, minlength=k)[:, None]
    sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(),
                       weights=data.ravel(), minlength=k * d).reshape(k, d)
    return np.where(counts > 0, sums / np.maximum(counts, 1), previous)


def _dispatch(strategy: Strategy, std: np.ndarray, records, centroids_std,
              params: ClusteringParams, ite: int, plans: list) -> np.ndarray:
    if strategy is Strategy.CLASSICAL:
        return assign_classical(std, centroids_std)
    if strategy is Strategy.DELTA:
        return assign_delta(std, centroids_std, params.delta,
                            derive_seed(params.seed, SeedDomain.DELTA, ite))
    centroids = prepare_vectors(centroids_std, slots=records.slots)
    if strategy is Strategy.Q11:
        return assign_q11(records, centroids, params, ite, plans)
    if strategy is Strategy.Q1K:
        return assign_q1k(records, centroids, params, ite, plans)
    return assign_qmk(records, centroids, params, ite, plans)


def run(data: np.ndarray, params: ClusteringParams) -> ClusteringRun:
    """Full clustering run on a raw data matrix.

    Standardizes the data, seeds centroids with k-Means++, then alternates
    the configured assignment strategy with classical mean updates until the
    relative Frobenius change of the centroids drops below ``sc_thresh`` or
    ``max_ite`` is reached.  Every iteration also records the percentage of
    records on which the strategy agreed with the classical assignment under
    the same centroids; the classical strategy's own labels are that
    assignment.  A quantum run keeps its assignment passes' plans in one
    list, so each pass's record side is built once per run.
    """
    std = standardize(data)
    params.validate(*std.shape)
    records = (prepare_vectors(std)
               if params.assignment in QUANTUM_STRATEGIES else None)
    centroids = kmeanspp_init(std, params.k, params.seed)
    history: list[IterationRecord] = []
    converged = False
    plans: list = []
    for ite in range(1, params.max_ite + 1):
        labels = _dispatch(params.assignment, std, records, centroids,
                           params, ite, plans)
        reference = (labels if params.assignment is Strategy.CLASSICAL
                     else assign_classical(std, centroids))
        similarity = 100.0 * (int(np.count_nonzero(labels == reference))
                              / len(labels))
        new_centroids = _update_centroids(std, labels, centroids)
        history.append(IterationRecord(centroids, labels, similarity))
        shift = np.linalg.norm(new_centroids - centroids) / max(
            np.linalg.norm(centroids), 1e-12)
        centroids = new_centroids
        if shift <= params.sc_thresh:
            converged = True
            break
    return ClusteringRun(labels, centroids, history, converged)
