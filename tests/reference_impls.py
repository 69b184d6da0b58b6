"""Reference implementations the package is checked against.

* The clustering metrics, written directly from their defining formulas;
  they share no code with the package.
* The index-array statevector kernel, which gathers and scatters amplitude
  pairs through explicit int64 index arrays, one circuit at a time.
* The per-circuit assignment loops of q1:1, q1:k and qM:k: one circuit per
  (record, centroid) pair, record or batch, run through that kernel and
  measured with a generator seeded per circuit.  They reuse the package's
  circuit builders and decoders on single circuits, and define the sampled
  streams a batched assignment must reproduce.
"""

import math

import numpy as np

from qkmeans.circuits import (
    EstimationFailure,
    build_qc1,
    build_qc2,
    build_qc3,
    decode_qc2,
    decode_qc3,
    estimate_distance,
)
from qkmeans.clustering import _recovered_nearest, derive_seed
from qkmeans.encoding import recover_distance
from qkmeans.simulator import Histogram, new_state


def apply_gate_reference(state, gate):
    """Apply a scalar-angle ``gate`` to a 1-D ``state`` in place."""
    q = state.num_qubits
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
    amps = state.amplitudes
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = u00 * a0 + u01 * a1
    amps[i1] = u10 * a0 + u11 * a1
    return state


def simulate_reference(plan):
    state = new_state(plan.num_qubits)
    for gate in plan.gates:
        apply_gate_reference(state, gate)
    return state


def measure_reference(state, shots=None, seed=None):
    """Exact probabilities when ``shots`` is None, else ``shots`` draws from
    a generator seeded with ``seed``."""
    probs = np.abs(state.amplitudes) ** 2
    if shots is None:
        return Histogram(state.num_qubits, probs)
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return Histogram(state.num_qubits, draws.astype(float))


def _decode_reference(plan, decode, shots, analytic, seed_key):
    state = simulate_reference(plan)
    if analytic:
        return decode(plan, measure_reference(state))
    try:
        return decode(plan, measure_reference(
            state, shots, derive_seed(*seed_key)))
    except EstimationFailure:
        return decode(plan, measure_reference(
            state, 4 * shots, derive_seed(*seed_key, 1)))


def assign_q11_reference(records, centroids, params, rng_key=()):
    n_index = records.index_size
    labels = np.empty(len(records), dtype=np.int64)
    for r in range(len(records)):
        dists = np.empty(len(centroids))
        for j in range(len(centroids)):
            plan = build_qc1(records.angles[r], centroids.angles[j], n_index)
            d_proj, _ = _decode_reference(
                plan, estimate_distance, params.shots_base, params.analytic,
                (*rng_key, r, j))
            dists[j] = recover_distance(
                d_proj, records.norms[r], centroids.norms[j])
        labels[r] = int(np.argmin(dists))
    return labels


def assign_q1k_reference(records, centroids, params, rng_key=()):
    n_index = records.index_size
    k = len(centroids)
    n_cluster = max(k - 1, 0).bit_length()
    labels = np.empty(len(records), dtype=np.int64)
    for r in range(len(records)):
        plan = build_qc2(records.angles[r], centroids.angles, n_index,
                         n_cluster)
        labels[r] = _decode_reference(
            plan, decode_qc2, k * params.shots_base, params.analytic,
            (*rng_key, r))
    return labels


def assign_qmk_reference(records, centroids, params, rng_key=()):
    m = len(records)
    m1 = params.m1 if params.m1 is not None else m
    k = len(centroids)
    n_cluster = max(k - 1, 0).bit_length()
    n_batch = max(m1 - 1, 0).bit_length()
    labels = np.empty(m, dtype=np.int64)
    for b, start in enumerate(range(0, m, m1)):
        stop = min(start + m1, m)
        plan = build_qc3(records.angles[start:stop], centroids.angles,
                         records.index_size, n_batch, n_cluster)
        batch_labels = _decode_reference(
            plan, decode_qc3, m1 * k * params.shots_base, params.analytic,
            (*rng_key, b))
        for v, label in enumerate(batch_labels):
            if label is None:
                label = _recovered_nearest(records, centroids, start + v)
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
