"""The benchmark's workloads: inputs made from the bench seed, the timed
calls into the public qkmeans API, and the oracles that check their results.

Import this module only after ``source.prepare_process()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable

import numpy as np

from qkmeans import clustering, data, metrics
from qkmeans.clustering import ClusteringParams, ClusteringRun, Strategy

# The floor tests/test_acceptance.py (criterion 6) puts on similarity.  It is
# applied to the run's average: single iterations of q11 on iris were seen as
# low as 90.7 under 1024 shots, so a per-iteration floor would fail correct runs.
SIMILARITY_FLOOR = 90.0
TIE_SLACK = 1e-9
# Squared projected distances span [0, 4], and a cell's shot count is
# proportional to 1 - d^2/4.  qmk on blobs keeps about 100 shots per
# (record, cluster) cell, so two cells' counts differ by about 14 percent
# (one standard deviation) from noise alone: a centroid whose squared
# distance is within about 0.14 * 4 of the nearest one's is a tie at that
# resolution.  Runs whose k-means++ start put two centroids in one blob
# agreed with the classical assignment on as few as 52 percent of records.
SHOT_SLACK = 0.5
# silhouette builds an M x M x d array: m=4096 peaked near 690 MiB and
# m=16384 ran out of memory, so the wide workload stays at 2048 records.
BLOBS_RECORDS = 2048


def sub_seed(*parts: int) -> int:
    """A run or dataset seed mixed from the bench seed and a position."""
    entropy = [int(p) % (1 << 64) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0])


# --- the benchmark's own geometry, independent of qkmeans.encoding ----------

def _standardized(matrix: np.ndarray) -> np.ndarray:
    std = matrix.std(axis=0)
    return (matrix - matrix.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def _projected(rows: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection of each row onto the unit sphere."""
    s = np.sum(rows * rows, axis=1, keepdims=True)
    return np.hstack([2.0 * rows / (s + 1.0), (s - 1.0) / (s + 1.0)])


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.sum(diff * diff, axis=2)


# --- oracles: each returns None for a good result, else the reason ----------

def labels_in_range(std: np.ndarray, result: ClusteringRun, k: int):
    for ite, record in enumerate(result.history, 1):
        if record.labels.min() < 0 or record.labels.max() >= k:
            return f"iteration {ite}: a label outside [0, {k})"
    if result.labels.min() < 0 or result.labels.max() >= k:
        return f"final labels: a label outside [0, {k})"
    return None


def _projected_near_nearest(std: np.ndarray, centroids: np.ndarray,
                            labels: np.ndarray, slack: float) -> np.ndarray:
    """Per record: is its label's centroid within ``slack`` (in squared
    distance) of the nearest, once both are projected onto the sphere?"""
    d2 = _sq_distances(_projected(std), _projected(centroids))
    return d2[np.arange(len(std)), labels] <= d2.min(axis=1) + slack


def nearest_in_projected_space(std: np.ndarray, result: ClusteringRun, k: int):
    """Every label of every iteration is a nearest centroid of its record
    after both are projected onto the sphere (the analytic q1k oracle)."""
    for ite, record in enumerate(result.history, 1):
        ok = _projected_near_nearest(std, record.centroids, record.labels,
                                     TIE_SLACK)
        if not ok.all():
            return (f"iteration {ite}: {np.count_nonzero(~ok)} labels are not "
                    "a nearest centroid in projected space")
    return None


def near_nearest_in_projected_space(std: np.ndarray, result: ClusteringRun,
                                    k: int):
    """The sampled form of the q1k oracle: on average over the iterations, at
    least SIMILARITY_FLOOR percent of the labels are within SHOT_SLACK of
    the nearest centroid in projected space."""
    share = [100.0 * np.mean(_projected_near_nearest(
                 std, record.centroids, record.labels, SHOT_SLACK))
             for record in result.history]
    average = float(np.mean(share))
    if average < SIMILARITY_FLOOR:
        return (f"{average:.2f} percent of labels near the nearest centroid, "
                f"below {SIMILARITY_FLOOR}")
    return None


def similarity_floor(std: np.ndarray, result: ClusteringRun, k: int):
    """Agreement with the classical nearest centroid, recomputed here from
    each iteration's centroids, averages at least SIMILARITY_FLOOR."""
    similarity = [
        100.0 * np.mean(record.labels
                        == np.argmin(_sq_distances(std, record.centroids), axis=1))
        for record in result.history
    ]
    average = float(np.mean(similarity))
    if average < SIMILARITY_FLOOR:
        return f"average similarity {average:.2f} below {SIMILARITY_FLOOR}"
    return None


def _relabel(result: ClusteringRun, relabel) -> ClusteringRun:
    history = [dataclasses.replace(record, labels=relabel(record.labels))
               for record in result.history]
    return dataclasses.replace(result, labels=relabel(result.labels),
                               history=history)


def rotated(result: ClusteringRun, k: int) -> ClusteringRun:
    """Every label moved to the next cluster, wrapping round at k."""
    return _relabel(result, lambda labels: (labels + 1) % k)


def shifted(result: ClusteringRun, k: int) -> ClusteringRun:
    """Every label moved to the next cluster without wrapping, so label k
    appears."""
    return _relabel(result, lambda labels: labels + 1)


# --- calls -------------------------------------------------------------------
# Layer functions are looked up on their modules at call time, so the
# tracer's wrappers (installed on those modules) see every call.

def _repetition_with_classical(w: "Workload", params: ClusteringParams):
    """One ``qkmeans run`` repetition, as the command line does it."""
    result = clustering.run(w.matrix, params)
    metrics.summarize_run(w.matrix, result, w.truth)
    classical = dataclasses.replace(params, assignment=Strategy.CLASSICAL,
                                    analytic=False)
    reference = clustering.run(w.matrix, classical)
    metrics.pair_confusion(reference.labels, result.labels)
    return result


def _run_and_summary(w: "Workload", params: ClusteringParams):
    result = clustering.run(w.matrix, params)
    metrics.summarize_run(w.matrix, result, w.truth)
    return result


def _run_and_sse(w: "Workload", params: ClusteringParams):
    """What ``qkmeans elbow`` does per seed and k."""
    result = clustering.run(w.matrix, params)
    metrics.sse(w.std, result.labels, result.centroids)
    return result


Oracle = Callable[[np.ndarray, ClusteringRun, int], "str | None"]
Corruption = Callable[[ClusteringRun, int], ClusteringRun]


@dataclasses.dataclass
class Workload:
    """One workload: its inputs and a fixed list of calls, each call a list
    of clustering runs (one ClusteringParams each)."""

    name: str
    matrix: np.ndarray
    truth: np.ndarray | None
    calls: list[list[ClusteringParams]]
    step: Callable[["Workload", ClusteringParams], ClusteringRun]
    # each oracle with the corruption its self-check must catch
    oracles: tuple[tuple[Oracle, Corruption], ...]

    def __post_init__(self):
        self.std = _standardized(self.matrix)

    def run_step(self, params: ClusteringParams) -> ClusteringRun:
        return self.step(self, params)

    def check(self, params: ClusteringParams, result: ClusteringRun):
        """None if the result passes every oracle, else the first reason."""
        for oracle, _ in self.oracles:
            reason = oracle(self.std, result, params.k)
            if reason is not None:
                return f"{oracle.__name__}: {reason}"
        return None

    def self_check(self, i: int, results: list[ClusteringRun]) -> dict:
        """Feed each oracle a corrupted copy of call i's results; True
        where the oracle reports every corrupted result as a failure."""
        caught = {}
        for oracle, corrupt in self.oracles:
            caught[oracle.__name__] = all(
                oracle(self.std, corrupt(result, params.k), params.k) is not None
                for params, result in zip(self.calls[i], results))
        return caught

    @staticmethod
    def digest(results: list[ClusteringRun]) -> str:
        """sha256 of every run's n_ite and labels, in order."""
        h = hashlib.sha256()
        for result in results:
            h.update(np.int64(result.n_ite).tobytes())
            h.update(np.asarray(result.labels, dtype=np.int64).tobytes())
        return h.hexdigest()

    def assignments(self, results: list[ClusteringRun]) -> int:
        """Record assignments made: records times iterations run."""
        return sum(len(self.matrix) * result.n_ite for result in results)


def q11_iris_sampled(seed: int) -> Workload:
    ds = data.builtin("iris")
    calls = [[ClusteringParams(k=3, assignment=Strategy.Q11, shots_base=1024,
                               max_ite=5, seed=sub_seed(seed, 11, i))]
             for i in range(5)]
    return Workload("q11-iris-sampled", ds.matrix, ds.ground_truth, calls,
                    _repetition_with_classical,
                    ((labels_in_range, shifted), (similarity_floor, rotated)))


def q1k_iris_analytic_sweep(seed: int) -> Workload:
    ds = data.builtin("iris")
    calls = [[ClusteringParams(k=k, assignment=Strategy.Q1K, analytic=True,
                               max_ite=2, seed=sub_seed(seed, 12, k))
              for k in range(2, 9)]]
    return Workload("q1k-iris-analytic-sweep", ds.matrix, ds.ground_truth,
                    calls, _run_and_sse,
                    ((labels_in_range, shifted),
                     (nearest_in_projected_space, rotated)))


# q1k and qmk stop at max_ite 2 so that every call does the same work: their
# runs converged after 2 to 5 iterations depending on the seed, which moved
# the per-call time by up to a third between seeds.


def qmk_blobs2048_sampled(seed: int) -> Workload:
    ds = data.builtin("blobs", m=BLOBS_RECORDS, seed=sub_seed(seed, 13))
    calls = [[ClusteringParams(k=3, assignment=Strategy.QMK, max_ite=2,
                               m1=BLOBS_RECORDS, seed=sub_seed(seed, 13, i))]
             for i in range(3)]
    return Workload("qmk-blobs2048-sampled", ds.matrix, ds.ground_truth,
                    calls, _run_and_summary,
                    ((labels_in_range, shifted),
                     (near_nearest_in_projected_space, rotated)))


WORKLOADS = {
    "q11-iris-sampled": q11_iris_sampled,
    "q1k-iris-analytic-sweep": q1k_iris_analytic_sweep,
    "qmk-blobs2048-sampled": qmk_blobs2048_sampled,
}
