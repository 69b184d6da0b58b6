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
    require_distinct,
    run,
)
from .encoding import require_finite, standardize


def sse(data: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances of each record to its assigned centroid.
    Refuses labels that are not 1-D integers, and a label count or a
    centroid width that differs from the data."""
    data = np.asarray(data, dtype=float)
    labels = _checked_labels(labels, len(data), "sse")
    if centroids.shape[1] != data.shape[1]:
        raise ValueError(f"sse needs centroids as wide as the records, got "
                         f"{centroids.shape[1]} features for {data.shape[1]}")
    if labels.min() < 0 or labels.max() >= centroids.shape[0]:
        raise ValueError("label out of range")
    diff = data - centroids[labels]
    return float(np.sum(diff * diff))


def _checked_labels(labels, records: int | None, what: str) -> np.ndarray:
    """``labels`` as a 1-D integer array, one per record if ``records`` is
    given, or refused naming ``what``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{what} needs 1-D labels, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"{what} needs integer labels, got dtype "
                         f"{labels.dtype}")
    if records is not None and len(labels) != records:
        raise ValueError(f"{what} needs one label per record, got "
                         f"{len(labels)} labels for {records} records")
    return labels


# A band holds at most _SILHOUETTE_TILE distances (256 KiB), or one row
# when a row is longer, so the elementwise passes run in cache.  The tile
# sets where the bands split, and so how each record's per-cluster sums are
# grouped above 181 records: a score may move with it by rounding.  At
# 2048 x 2 on one CPU, 2^14 to 2^17 ran within 2 ms of each other (12-15 ms
# a call); 2^13 and below, and 2^18 and above, were slower, and each
# doubling above 2^15 adds about 0.5 MiB to the peak memory.
_SILHOUETTE_TILE = 1 << 15


def silhouette(data: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette score (b - a) / max(a, b) (Rousseeuw 1987).

    ``a`` is the mean distance to the other members of the point's own
    cluster, ``b`` the smallest mean distance to any other cluster.
    Singleton clusters contribute 0 for their lone point.  The records are
    laid out once, stable-sorted by cluster, so each cluster is one
    segment, and each record pair's distance is formed once.  A band of
    sorted rows ``[s, e)`` holds at most ``_SILHOUETTE_TILE`` distances
    (or one row): ``_sq_distances`` fills one reused buffer with its
    distances to the sorted records ``s:`` and ``sqrt`` runs in place.
    One ``np.add.reduceat`` along the band's rows adds their per-cluster
    sums.  Right of the band, the columns of each of the band's cluster
    segments are summed over its rows, in row order, and added to the
    later rows' sums for that cluster.  When one band holds every row (up
    to 181 records), each row's sums are one ``reduceat`` over its whole
    row, as if no band split them; above that only the grouping of the
    sums changes, at rounding level.  The scores are scattered back
    to record order before the mean.  Refuses records that are not 2-D or
    not finite, labels that are not 1-D integers, and a label count other
    than the record count.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"silhouette needs 2-D records, got {data.ndim}-D")
    labels = _checked_labels(labels, len(data), "silhouette")
    require_finite(data)
    cluster = np.unique(labels, return_inverse=True)[1]
    sizes = np.bincount(cluster)
    if len(sizes) < 2:
        raise ValueError("silhouette needs at least 2 distinct clusters")
    m = data.shape[0]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    order = np.argsort(cluster, kind="stable")
    own = cluster[order]
    records = np.ascontiguousarray(data[order])
    # sums[c, i]: distances from sorted record i to the members of cluster c
    sums = np.zeros((len(sizes), m))
    buffer = np.empty(min(m * m, max(_SILHOUETTE_TILE, m)))
    s = 0
    while s < m:
        e = min(m, s + max(1, _SILHOUETTE_TILE // (m - s)))
        band = buffer[:(e - s) * (m - s)].reshape(e - s, m - s)
        _sq_distances(records[s:e], records[s:], out=band)
        np.sqrt(band, out=band)
        first, last = own[s], own[e - 1] + 1
        sums[first:, s:e] += np.add.reduceat(
            band, np.maximum(starts[first:] - s, 0), axis=1).T
        for c in range(first, last):
            segment = slice(max(starts[c] - s, 0), min(ends[c] - s, e - s))
            sums[c, e:] += band[segment, e - s:].sum(axis=0)
        s = e
    at = np.arange(m)
    a = sums[own, at] / np.maximum(sizes[own] - 1, 1)
    means = sums / sizes[:, None]
    means[own, at] = np.inf
    b = means.min(axis=0)
    denom = np.maximum(a, b)
    ranked = np.zeros(m)
    np.divide(b - a, denom, out=ranked, where=(denom > 0) & (sizes[own] > 1))
    scores = np.empty(m)
    scores[order] = ranked
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
    labels_true = _checked_labels(labels_true, None, "v_measure")
    labels_pred = _checked_labels(labels_pred, len(labels_true), "v_measure")
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
    labels_ref = _checked_labels(labels_ref, None, "pair_confusion")
    labels_other = _checked_labels(labels_other, len(labels_ref),
                                   "pair_confusion")
    m = len(labels_ref)
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


def summarize_run(data: np.ndarray, result: ClusteringRun,
                  ground_truth=None) -> dict:
    """Metrics of a finished run in standardized feature space, keyed as a
    ``qkmeans run`` artifact's ``metrics``; ``sil`` is None below two
    clusters and ``vm`` None without ``ground_truth``."""
    std = standardize(data)
    effective = len(np.unique(result.labels))
    return {
        "ite": result.n_ite,
        "sim": result.avg_similarity,
        "sse": sse(std, result.labels, result.centroids),
        "sil": silhouette(std, result.labels) if effective >= 2 else None,
        "vm": (v_measure(ground_truth, result.labels)
               if ground_truth is not None else None),
    }


def elbow(data: np.ndarray, k_range, params: ClusteringParams,
          n_seeds: int = 5) -> list[tuple[int, float]]:
    """SSE-vs-k curve, taking the best of ``n_seeds`` seeded runs per k.
    Before any run, every k must validate, widest first, and the widest
    must fit the distinct standardized records k-Means++ can seed from."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    std = standardize(data)
    k_range = list(k_range)
    for k in sorted(k_range, reverse=True):
        dataclasses.replace(params, k=k).validate(*std.shape)
    require_distinct(std, max(k_range, default=0))
    curve = []
    for k in k_range:
        values = []
        for s in range(n_seeds):
            seed = derive_seed(params.seed, SeedDomain.ELBOW, k, s)
            result = run(data, dataclasses.replace(params, k=k, seed=seed))
            values.append(sse(std, result.labels, result.centroids))
        curve.append((int(k), float(min(values))))
    return curve
