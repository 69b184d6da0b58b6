"""Clustering quality metrics: SSE, silhouette, V-measure, pairwise
confusion against a reference clustering, and the elbow sweep."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .clustering import (
    ClusteringParams,
    ClusteringRun,
    SeedDomain,
    _sq_distances,
    derive_seed,
    run,
)
from .encoding import require_finite, standardize


def sse(data: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances of each record to its assigned centroid."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0 or labels.max() >= centroids.shape[0]:
        raise ValueError("label out of range")
    diff = data - centroids[labels]
    return float(np.sum(diff * diff))


# Silhouette computes _SILHOUETTE_BLOCK // (M * d) rows (at least one) of
# the M x M distance matrix at a time, and sums each block per cluster with
# one matrix product.  That row count must stay fixed: OpenBLAS picks a
# different kernel for products under 128 rows, which changes the bytes.
_SILHOUETTE_BLOCK = 1 << 20
# Within a block, distances are formed _SILHOUETTE_TILE // M rows (at least
# one) at a time: a tile of 256 KiB, so the elementwise passes run in cache.
# At 2048 x 2, tiles of 2^14 to 2^17 elements ran within noise of each other;
# 2^13 and below, and 2^18, were slower (BENCH_contiguous_distances.json).
_SILHOUETTE_TILE = 1 << 15


def silhouette(data: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette score (b - a) / max(a, b).

    ``a`` is the mean distance to the other members of the point's own
    cluster, ``b`` the smallest mean distance to any other cluster.
    Singleton clusters contribute 0 for their lone point.  Distances fill
    one reused block buffer of rows, a cache-sized tile of rows at a time,
    through ``_sq_distances``, which sums the squared differences one
    feature column at a time in numpy's pairwise order; each block's
    per-cluster sums then come from one product with the one-hot cluster
    matrix.  The records are laid out once per call as contiguous feature
    columns (Fortran order), the layout ``_sq_distances`` reads its second
    operand in, so no tile copies them again.  The layout changes no
    value: every score is byte-equal to the C-ordered computation.  At
    2048 records of 2 features the buffer is 4 MiB, and the
    ``tracemalloc`` peak of a call 4.4 MiB.  Non-finite records and a
    label count other than the record count are refused.
    """
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(labels) != len(data):
        raise ValueError(f"silhouette needs one label per record, got "
                         f"{len(labels)} labels for {len(data)} records")
    require_finite(data)
    unique, cluster = np.unique(labels, return_inverse=True)
    if len(unique) < 2:
        raise ValueError("silhouette needs at least 2 distinct clusters")
    m = data.shape[0]
    one_hot = (cluster[:, None] == np.arange(len(unique))).astype(float)
    sizes = one_hot.sum(axis=0)
    step = max(1, _SILHOUETTE_BLOCK // max(1, m * data.shape[1]))
    tile = max(1, _SILHOUETTE_TILE // m)
    buffer = np.empty((min(step, m), m))
    scores = np.zeros(m)
    columns = np.asfortranarray(data)
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        dist = buffer[:rows.stop - start]
        for lo in range(0, len(dist), tile):
            part = dist[lo:lo + tile]
            _sq_distances(data[start + lo:start + lo + len(part)], columns,
                          out=part)
            np.sqrt(part, out=part)
        sums = dist @ one_hot
        own = cluster[rows]
        at = np.arange(len(own))
        a = sums[at, own] / np.maximum(sizes[own] - 1, 1)
        means = sums / sizes
        means[at, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        np.divide(b - a, denom, out=scores[rows],
                  where=(denom > 0) & (sizes[own] > 1))
    return float(scores.mean())


def _contingency(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    _, a_idx = np.unique(labels_a, return_inverse=True)
    _, b_idx = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a_idx.max() + 1, b_idx.max() + 1))
    np.add.at(table, (a_idx, b_idx), 1.0)
    return table


def _entropy(counts: np.ndarray) -> float:
    counts = counts[counts > 0]
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def v_measure(labels_true, labels_pred) -> float:
    """Harmonic mean of homogeneity and completeness (beta = 1), computed
    from conditional entropies of the contingency table."""
    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape:
        raise ValueError("label arrays must have the same length")
    table = _contingency(labels_true, labels_pred)
    n = table.sum()
    h_true = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))
    nz = table > 0
    # H(true | pred): uncertainty about the true class within each predicted one
    col = table.sum(axis=0, keepdims=True)
    h_true_pred = float(-np.sum(table[nz] / n
                                * np.log((table / col)[nz])))
    row = table.sum(axis=1, keepdims=True)
    h_pred_true = float(-np.sum(table[nz] / n
                                * np.log((table / row)[nz])))
    homogeneity = 1.0 if h_true == 0.0 else 1.0 - h_true_pred / h_true
    completeness = 1.0 if h_pred == 0.0 else 1.0 - h_pred_true / h_pred
    if homogeneity + completeness == 0.0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)


@dataclass(frozen=True)
class PairConfusion:
    """Percentages of the C(M, 2) record pairs, comparing a clustering
    against a reference one (true/false means agreeing with the reference,
    positive means clustered together by the reference)."""

    tp: float
    fp: float
    fn: float
    tn: float


def pair_confusion(labels_ref, labels_other) -> PairConfusion:
    """Pairwise co-clustering confusion with ``labels_ref`` as reference."""
    labels_ref = np.asarray(labels_ref)
    labels_other = np.asarray(labels_other)
    if labels_ref.shape != labels_other.shape:
        raise ValueError("label arrays must have the same length")
    m = labels_ref.shape[0]
    if m < 2:
        raise ValueError("need at least 2 records")

    def pairs(counts):
        return float(np.sum(counts * (counts - 1) / 2.0))

    table = _contingency(labels_ref, labels_other)
    total = m * (m - 1) / 2.0
    tp = pairs(table)
    fp = pairs(table.sum(axis=1)) - tp
    fn = pairs(table.sum(axis=0)) - tp
    tn = total - tp - fp - fn
    scale = 100.0 / total
    return PairConfusion(tp * scale, fp * scale, fn * scale, tn * scale)


@dataclass
class MetricsReport:
    """Per-run summary in the shape the result tables use."""

    n_ite: int
    avg_similarity: float
    sse: float
    silhouette: float | None
    v_measure: float | None


def summarize_run(data: np.ndarray, result: ClusteringRun,
                  ground_truth=None) -> MetricsReport:
    """Metrics of a finished run, computed in standardized feature space."""
    std, _, _ = standardize(data)
    effective = len(np.unique(result.labels))
    return MetricsReport(
        n_ite=result.n_ite,
        avg_similarity=result.avg_similarity,
        sse=sse(std, result.labels, result.centroids),
        silhouette=silhouette(std, result.labels) if effective >= 2 else None,
        v_measure=(v_measure(ground_truth, result.labels)
                   if ground_truth is not None else None),
    )


def elbow(data: np.ndarray, k_range, params: ClusteringParams,
          n_seeds: int = 5) -> list[tuple[int, float]]:
    """SSE-vs-k curve, taking the best of ``n_seeds`` seeded runs per k.
    Before any run, the widest k must validate (qubits only grow with k)
    and fit the distinct standardized records k-Means++ can seed from."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    std, _, _ = standardize(data)
    k_range = list(k_range)
    if k_range:
        widest = max(k_range)
        dataclasses.replace(params, k=widest).validate(*std.shape)
        distinct = len(np.unique(std, axis=0))
        if widest > distinct:
            raise ValueError(f"k {widest} exceeds {distinct} distinct records")
    curve = []
    for k in k_range:
        values = []
        for s in range(n_seeds):
            seed = derive_seed(params.seed, SeedDomain.ELBOW, k, s)
            result = run(data, dataclasses.replace(params, k=k, seed=seed))
            values.append(sse(std, result.labels, result.centroids))
        curve.append((int(k), float(min(values))))
    return curve
