"""Reference implementations the package is checked against.

* The clustering metrics, written directly from their defining formulas;
  they share no code with the package.
* The index-array statevector kernel, which gathers and scatters amplitude
  pairs through explicit int64 index arrays, one circuit at a time;
  ``simulate_reference`` runs it on complex128 amplitudes, so the
  package's real state is checked against a complex one.
* Three separate builders for the QC1, QC2 and QC3 circuits, each given
  its register widths by the caller and emitting an explicit gate list,
  one pattern-controlled RY per nonzero slot; the package builds all three
  as instances of one QC3 builder, whose expanded gate lists must equal
  theirs.
* The generic layer scheduler that counts a gate list's depth, one gate
  at a time; the package counts its circuits from their angle tables, and
  must give the scheduler's qubits, gates and depth.
* The silhouette over the full ``(M, M, d)`` difference array, reduced
  with ``np.sum(..., axis=2)``, with each record's per-cluster sums taken
  by one ``np.add.reduceat`` over the cluster-sorted columns.  The package
  must match it byte for byte when one band holds every record.
* The silhouette over bands of the cluster-sorted records, each band's
  distances from its own difference array and each pair's distance formed
  once, summed along the band rows and down the columns right of the band
  in a stated order.  The package must match it byte for byte at every
  tile size.
* Standardization through ``np.std`` beside ``np.mean``, which centres
  the columns twice, and the pre-projection norms through
  ``np.linalg.norm``; the package's one-pass forms must match them byte
  for byte.
* Single-vector forms of helpers the package now applies to whole arrays:
  the inverse stereographic projection of one vector and the marginal of a
  histogram over a subset of qubits.
* The per-cluster centroid update: a masked mean of each cluster's
  records, previous centroid kept for an empty cluster.  The package's
  one-pass update must match it byte for byte.
* k-Means++ seeding through ``Generator.choice(m, p=d2 / d2.sum())``,
  numpy's checked draw; the package's cdf search must pick the same
  centroids, byte for byte.
* The per-record delta-k-Means loop, which finds each record's candidate
  centroids on its own and draws only for records with more than one.
* The per-circuit assignment loops of q1:1, q1:k and qM:k: one circuit per
  (record, centroid) pair, record or batch, built by those builders, run
  through the index-array kernel and measured exactly, one circuit at a
  time.  Sampled, each circuit's decoder draws its shots over its cells
  with a 1-D ``multinomial``: in circuit order from the iteration's assign
  generator, and the 4x redraws of empty circuits from its retry generator.
  They reuse the package's decoders on single circuits, and define the
  sampled streams a batched assignment must reproduce.
* ``measure_reference`` with shots: the dense draw over all 2^q basis
  states, against which the cell-level draws are checked in distribution,
  and which gives the tests their dense counts.
* The qM:k fallback one record and one centroid at a time, with the 1-D
  ``np.linalg.norm`` of each projection difference; the package's array
  step must give its labels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from qkmeans.circuits import (
    CircuitStats,
    EstimationFailure,
    Layout,
    decode_qc2,
    decode_qc3,
    estimate_distance,
)
from qkmeans.clustering import SeedDomain, _sq_distances, derive_seed
from qkmeans.encoding import recover_distance
from qkmeans.simulator import Histogram, Sampled, h, ry


@dataclass
class GatePlan:
    """A circuit as an explicit gate list on a register layout.  The
    package's decoders read only ``layout``, ``num_records`` and
    ``num_clusters``, so they take such a plan too."""

    layout: Layout
    gates: list = field(default_factory=list)
    num_records: int = 1
    num_clusters: int = 1
    rows: int | None = None

    @property
    def num_qubits(self) -> int:
        return self.layout.num_qubits


def encode_vector(plan, angles, index_qubits, register_qubit,
                  extra_controls=()):
    """Append the pattern-controlled rotations that write ``angles`` into the
    register qubit's |1> branch, one controlled RY per nonzero slot.

    The slot's bit pattern is expressed directly as control polarities on the
    index qubits, so no X gates are emitted; zero-angle slots (padding or
    zero entries) emit nothing.  Given (B, slots) rows of angles, each RY
    carries one angle per row, and a slot is left out only when it is zero
    in every row.
    """
    slots = 1 << len(index_qubits)
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != slots:
        raise ValueError(f"expected {slots} angles, got {angles.shape[-1]}")
    used = np.any(angles != 0.0, axis=tuple(range(angles.ndim - 1)))
    for slot in np.flatnonzero(used).tolist():
        theta = angles[..., slot]
        pattern = tuple(
            (qb, (slot >> b) & 1) for b, qb in enumerate(index_qubits)
        )
        plan.gates.append(ry(theta.copy() if theta.ndim else float(theta),
                             register_qubit, pattern + tuple(extra_controls)))


def circuit_stats_reference(plan):
    """Qubit, gate and depth counts of ``plan.gates``, each gate scheduled
    one layer past the last gate on any of its qubits (target plus
    controls): two gates share a layer iff their qubit sets are disjoint."""
    levels = {}
    depth = 0
    for gate in plan.gates:
        qubits = {gate.target, *(q for q, _ in gate.controls)}
        level = 1 + max((levels.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            levels[q] = level
        depth = max(depth, level)
    return CircuitStats(plan.num_qubits, len(plan.gates), depth)


def standardize_reference(data):
    """Z-score each column through ``data.std`` and ``data.mean``."""
    std = data.std(axis=0)
    return (data - data.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def norms_reference(rows):
    """Euclidean norm of each row through ``np.linalg.norm``."""
    return np.linalg.norm(rows, axis=1)


def isp_reference(x):
    """ISP of one N-vector onto the unit sphere in N+1 dimensions."""
    x = np.asarray(x, dtype=float)
    s = float(np.dot(x, x))
    return np.append(2.0 * x / (s + 1.0), (s - 1.0) / (s + 1.0))


def marginal_reference(hist, qubits):
    """Sum weights over all qubits not listed; the result is indexed by the
    sub-pattern on ``qubits`` in the given order (qubits[0] -> bit 0)."""
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit index in marginal")
    q = hist.weights.shape[-1].bit_length() - 1
    lead = hist.weights.shape[:-1]
    view = hist.weights.reshape(lead + (2,) * q)
    # the listed qubits' axes, most significant first, then the rest
    keep = [len(lead) + q - 1 - qb for qb in reversed(qubits)]
    rest = [a for a in range(len(lead), view.ndim) if a not in keep]
    moved = view.transpose(list(range(len(lead))) + keep + rest)
    out = moved.reshape(lead + (1 << len(qubits), -1)).sum(axis=-1)
    return Histogram(out)


def update_centroids_reference(data, labels, previous):
    new = previous.copy()
    for j in range(previous.shape[0]):
        members = data[labels == j]
        if members.shape[0] > 0:
            new[j] = members.mean(axis=0)
    return new


def kmeanspp_reference(data, k, seed):
    """k-Means++ seeding with each next centroid drawn by
    ``Generator.choice`` over the normalised squared distances."""
    data = np.asarray(data, dtype=float)
    m = data.shape[0]
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


def assign_delta_reference(data, centroids, delta, seed):
    """Uniform random label among the centroids within ``delta`` of the
    closest one, record by record."""
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


def _layout_reference(n_index, n_batch=0, n_cluster=0):
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


def _check_angles(angles, n_index, what):
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != (1 << n_index):
        raise ValueError(
            f"{what} needs {1 << n_index} angle slots, got {angles.shape[-1]}"
        )
    return angles


def _rows_of(record_angles):
    if record_angles.ndim > 2:
        raise ValueError("record angles must be one row or a 2-D batch")
    return record_angles.shape[0] if record_angles.ndim == 2 else None


def build_qc1_reference(record_angles, centroid_angles, n_index):
    """Pairwise-distance circuit; (B, slots) rows build B circuits."""
    record_angles = _check_angles(record_angles, n_index, "record")
    centroid_angles = _check_angles(centroid_angles, n_index, "centroid")
    if record_angles.shape != centroid_angles.shape:
        raise ValueError("record and centroid angles must have one shape")
    layout = _layout_reference(n_index)
    plan = GatePlan(layout, rows=_rows_of(record_angles))
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    encode_vector(plan, record_angles, layout.index, layout.register,
                  ((layout.ancilla, 0),))
    encode_vector(plan, centroid_angles, layout.index, layout.register,
                  ((layout.ancilla, 1),))
    plan.gates.append(h(layout.ancilla))
    return plan


def build_qc2_reference(record_angles, centroids_angles, n_index, n_cluster):
    """One record against k centroids; (B, slots) record rows build B
    circuits against the same centroids."""
    record_angles = _check_angles(record_angles, n_index, "record")
    centroids_angles = _check_angles(centroids_angles, n_index, "centroids")
    k = centroids_angles.shape[0]
    if k > (1 << n_cluster):
        raise ValueError(f"{k} centroids do not fit in {n_cluster} cluster qubits")
    layout = _layout_reference(n_index, n_cluster=n_cluster)
    plan = GatePlan(layout, num_clusters=k, rows=_rows_of(record_angles))
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    plan.gates.extend(h(q) for q in layout.cluster)
    encode_vector(plan, record_angles, layout.index, layout.register,
                  ((layout.ancilla, 0),))
    for j in range(k):
        pattern = tuple((qb, (j >> b) & 1) for b, qb in enumerate(layout.cluster))
        encode_vector(plan, centroids_angles[j], layout.index,
                      layout.register, ((layout.ancilla, 1),) + pattern)
    plan.gates.append(h(layout.ancilla))
    return plan


def build_qc3_reference(records_angles, centroids_angles, n_index, n_batch,
                        n_cluster):
    """M1 records over a batch register against k centroids."""
    records_angles = _check_angles(records_angles, n_index, "records")
    centroids_angles = _check_angles(centroids_angles, n_index, "centroids")
    m1 = records_angles.shape[0]
    k = centroids_angles.shape[0]
    if m1 > (1 << n_batch):
        raise ValueError(f"{m1} records do not fit in {n_batch} batch qubits")
    if k > (1 << n_cluster):
        raise ValueError(f"{k} centroids do not fit in {n_cluster} cluster qubits")
    layout = _layout_reference(n_index, n_batch=n_batch, n_cluster=n_cluster)
    plan = GatePlan(layout, num_records=m1, num_clusters=k)
    plan.gates.append(h(layout.ancilla))
    plan.gates.extend(h(q) for q in layout.index)
    plan.gates.extend(h(q) for q in layout.batch)
    plan.gates.extend(h(q) for q in layout.cluster)
    for v in range(m1):
        pattern = tuple((qb, (v >> b) & 1) for b, qb in enumerate(layout.batch))
        encode_vector(plan, records_angles[v], layout.index, layout.register,
                      ((layout.ancilla, 0),) + pattern)
    for j in range(k):
        pattern = tuple((qb, (j >> b) & 1) for b, qb in enumerate(layout.cluster))
        encode_vector(plan, centroids_angles[j], layout.index,
                      layout.register, ((layout.ancilla, 1),) + pattern)
    plan.gates.append(h(layout.ancilla))
    return plan


def apply_gate_reference(amps, gate):
    """Apply a scalar-angle ``gate`` to 1-D amplitudes ``amps`` in place."""
    q = len(amps).bit_length() - 1
    if not 0 <= gate.target < q:
        raise ValueError(f"target qubit {gate.target} out of range for {q} qubits")
    for cq, _ in gate.controls:
        if not 0 <= cq < q:
            raise ValueError(f"control qubit {cq} out of range for {q} qubits")

    base = 0
    control_qubits = set()
    for cq, pol in gate.controls:
        control_qubits.add(cq)
        base |= pol << cq

    free = [j for j in range(q) if j != gate.target and j not in control_qubits]
    offsets = np.arange(1 << len(free), dtype=np.int64)
    i0 = np.full(offsets.shape, base, dtype=np.int64)
    for b, pos in enumerate(free):
        i0 |= ((offsets >> b) & 1) << pos
    i1 = i0 | (1 << gate.target)

    (u00, u01), (u10, u11) = gate.matrix()
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = u00 * a0 + u01 * a1
    amps[i1] = u10 * a0 + u11 * a1
    return amps


def simulate_reference(plan):
    """Run a single circuit's gates through the index-array kernel on
    complex128 amplitudes, kept apart from the package's real state."""
    state = np.zeros(1 << plan.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for gate in plan.gates:
        apply_gate_reference(state, gate)
    return state


def measure_reference(amps, shots=None, rng=None):
    """Exact probabilities when ``shots`` is None, else the dense draw:
    ``shots`` int64 counts per row over all 2^q basis states, each row
    normalised on its own and drawn in row order from ``rng``, a seed or a
    Generator, which a Generator carries on from."""
    probs = np.square(np.abs(amps))
    if shots is None:
        return Histogram(probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return Histogram(np.random.default_rng(rng).multinomial(shots, probs))


def _streams(params, ite):
    """The assign and retry generators of one iteration's assignment."""
    if params.analytic:
        return None
    return tuple(np.random.default_rng(derive_seed(params.seed, domain, ite))
                 for domain in (SeedDomain.ASSIGN, SeedDomain.RETRY))


def _decode_reference(plan, decode, shots, streams):
    """Decode one circuit from its exact probabilities; sampled, the
    decoder draws ``shots`` over its cells from the assign generator, and
    an empty circuit is redrawn at 4x from the retry generator."""
    hist = measure_reference(simulate_reference(plan))
    if streams is None:
        return decode(plan, hist)
    assign_rng, retry_rng = streams
    try:
        return decode(plan, hist, sampled=Sampled(shots, assign_rng))
    except EstimationFailure:
        return decode(plan, hist, sampled=Sampled(4 * shots, retry_rng))


# Each assign_*_reference takes a run's ``plans`` as assign_* does, so it
# can stand in for it inside ``run``; it builds every circuit afresh.
def assign_q11_reference(records, centroids, params, ite=0, plans=None):
    n_index = records.slots.bit_length() - 1
    streams = _streams(params, ite)
    labels = np.empty(len(records), dtype=np.int64)
    for r in range(len(records)):
        dists = np.empty(len(centroids))
        for j in range(len(centroids)):
            plan = build_qc1_reference(records.angles[r],
                                       centroids.angles[j], n_index)
            d_proj = _decode_reference(
                plan, estimate_distance, params.shots_base, streams)
            dists[j] = recover_distance(
                d_proj, records.norms[r], centroids.norms[j])
        labels[r] = int(np.argmin(dists))
    return labels


def assign_q1k_reference(records, centroids, params, ite=0, plans=None):
    n_index = records.slots.bit_length() - 1
    streams = _streams(params, ite)
    k = len(centroids)
    n_cluster = max(k - 1, 0).bit_length()
    labels = np.empty(len(records), dtype=np.int64)
    for r in range(len(records)):
        plan = build_qc2_reference(records.angles[r], centroids.angles,
                                   n_index, n_cluster)
        labels[r] = _decode_reference(plan, decode_qc2,
                                      k * params.shots_base, streams)
    return labels


def recovered_nearest_reference(records, centroids, r):
    """Exact nearest centroid of record ``r``, one centroid at a time: the
    1-D ``np.linalg.norm`` of each projection difference, recovered to the
    original space; ties break to the lowest index."""
    dists = [
        recover_distance(float(np.linalg.norm(
            records.projected[r] - centroids.projected[j])),
            records.norms[r], centroids.norms[j])
        for j in range(len(centroids))
    ]
    return int(np.argmin(dists))


def assign_qmk_reference(records, centroids, params, ite=0, plans=None):
    m = len(records)
    streams = _streams(params, ite)
    m1 = params.m1 if params.m1 is not None else m
    k = len(centroids)
    n_cluster = max(k - 1, 0).bit_length()
    n_batch = max(m1 - 1, 0).bit_length()
    labels = np.empty(m, dtype=np.int64)
    for start in range(0, m, m1):
        stop = min(start + m1, m)
        plan = build_qc3_reference(records.angles[start:stop],
                                   centroids.angles,
                                   records.slots.bit_length() - 1,
                                   n_batch, n_cluster)
        batch_labels = _decode_reference(
            plan, decode_qc3, m1 * k * params.shots_base, streams)
        for v, label in enumerate(batch_labels):
            if label is None:
                label = recovered_nearest_reference(records, centroids,
                                                    start + v)
            labels[start + v] = label
    return labels


def silhouette_reference(data, labels):
    data = np.asarray(data, dtype=float)
    labels = list(labels)
    m = len(labels)
    clusters = sorted(set(labels))
    scores = []
    for i in range(m):
        same = [j for j in range(m) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = sum(math.dist(data[i], data[j]) for j in same) / len(same)
        b = math.inf
        for c in clusters:
            if c == labels[i]:
                continue
            others = [j for j in range(m) if labels[j] == c]
            b = min(b, sum(math.dist(data[i], data[j])
                           for j in others) / len(others))
        denom = max(a, b)
        scores.append((b - a) / denom if denom > 0 else 0.0)
    return sum(scores) / m


def silhouette_sorted_reference(data, labels):
    """Mean silhouette from the full ``(M, M, d)`` difference array: each
    distance is ``np.sqrt(np.sum(diff * diff, axis=2))``, and each record's
    per-cluster sums come from one ``np.add.reduceat`` over the columns
    stable-sorted by cluster."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _, cluster = np.unique(labels, return_inverse=True)
    order = np.argsort(cluster, kind="stable")
    sizes = np.bincount(cluster)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    diff = data[:, None, :] - data[None, order, :]
    sums = np.add.reduceat(np.sqrt(np.sum(diff * diff, axis=2)), starts,
                           axis=1)
    return float(_silhouette_scores(sums, cluster, sizes).mean())


def silhouette_band_reference(data, labels, rows=None):
    """Mean silhouette over bands of the records stable-sorted by cluster,
    each record pair's distance formed once.  The band that starts at
    sorted row ``s`` takes ``max(1, rows * M // (M - s))`` rows (``None``:
    all of them) and forms its distances to the sorted records ``s:`` from
    its own ``(band rows, M - s, d)`` difference array, as
    ``np.sqrt(np.sum(diff * diff, axis=2))``.  Each sorted row's
    per-cluster sums start at 0 and take, band by band: for every earlier
    band, each of its cluster segments' column sums, added up row by row
    in sorted order; then one ``np.add.reduceat`` along its own band row.
    The scores are scattered back to record order before the mean."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _, cluster = np.unique(labels, return_inverse=True)
    m = data.shape[0]
    order = np.argsort(cluster, kind="stable")
    ranked = data[order]
    own = cluster[order]
    sizes = np.bincount(cluster)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    sums = np.zeros((m, len(sizes)))
    lo = 0
    while lo < m:
        hi = m if rows is None else min(m, lo + max(1, rows * m // (m - lo)))
        diff = ranked[lo:hi, None, :] - ranked[None, lo:, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        first = own[lo]
        sums[lo:hi, first:] += np.add.reduceat(
            dist, np.maximum(starts[first:] - lo, 0), axis=1)
        for c in range(first, own[hi - 1] + 1):
            segment = [i - lo for i in range(lo, hi) if own[i] == c]
            column = dist[segment[0], hi - lo:].copy()
            for i in segment[1:]:
                column += dist[i, hi - lo:]
            sums[hi:, c] += column
        lo = hi
    scores = np.empty(m)
    scores[order] = _silhouette_scores(sums, own, sizes)
    return float(scores.mean())


def _silhouette_scores(sums, cluster, sizes):
    """Per-row silhouette from each row's per-cluster distance sums
    ``(rows, K)``, its cluster index and the cluster sizes; 0 for a
    singleton's lone record."""
    at = np.arange(len(cluster))
    a = sums[at, cluster] / np.maximum(sizes[cluster] - 1, 1)
    means = sums / sizes
    means[at, cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(len(cluster))
    np.divide(b - a, denom, out=scores,
              where=(denom > 0) & (sizes[cluster] > 1))
    return scores


def v_measure_reference(labels_true, labels_pred):
    labels_true = list(labels_true)
    labels_pred = list(labels_pred)
    n = len(labels_true)
    classes = sorted(set(labels_true))
    clusters = sorted(set(labels_pred))
    joint = {(c, k): 0 for c in classes for k in clusters}
    for c, k in zip(labels_true, labels_pred):
        joint[(c, k)] += 1

    def entropy(counts):
        total = sum(counts)
        return -sum((c / total) * math.log(c / total)
                    for c in counts if c > 0)

    h_c = entropy([labels_true.count(c) for c in classes])
    h_k = entropy([labels_pred.count(k) for k in clusters])
    h_c_given_k = 0.0
    h_k_given_c = 0.0
    for k in clusters:
        size = labels_pred.count(k)
        for c in classes:
            nck = joint[(c, k)]
            if nck > 0:
                h_c_given_k -= (nck / n) * math.log(nck / size)
    for c in classes:
        size = labels_true.count(c)
        for k in clusters:
            nck = joint[(c, k)]
            if nck > 0:
                h_k_given_c -= (nck / n) * math.log(nck / size)
    hom = 1.0 if h_c == 0 else 1.0 - h_c_given_k / h_c
    comp = 1.0 if h_k == 0 else 1.0 - h_k_given_c / h_k
    if hom + comp == 0:
        return 0.0
    return 2 * hom * comp / (hom + comp)


def pair_confusion_reference(labels_ref, labels_other):
    labels_ref = list(labels_ref)
    labels_other = list(labels_other)
    m = len(labels_ref)
    tp = fp = fn = tn = 0
    for i in range(m):
        for j in range(i + 1, m):
            ref_together = labels_ref[i] == labels_ref[j]
            other_together = labels_other[i] == labels_other[j]
            if ref_together and other_together:
                tp += 1
            elif ref_together:
                fp += 1
            elif other_together:
                fn += 1
            else:
                tn += 1
    total = m * (m - 1) / 2
    return (100 * tp / total, 100 * fp / total,
            100 * fn / total, 100 * tn / total)
