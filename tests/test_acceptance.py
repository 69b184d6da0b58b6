"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
or read the captured output) and asserts the stated tolerance.
"""

import time

import numpy as np
import pytest

from qkmeans.circuits import (
    build_qc3,
    decode_qc2,
    decode_qc3,
    estimate_distance,
    postselection_probability,
    simulate,
)
from qkmeans.clustering import (
    ClusteringParams,
    Strategy,
    derive_seed,
    run,
)
from qkmeans.data import builtin, subsample
from qkmeans.encoding import isp_rows, recover_distance
from qkmeans.metrics import (
    elbow,
    pair_confusion,
    silhouette,
    sse,
    summarize_run,
    v_measure,
)
from qkmeans.simulator import Analytic, Sampled, measure
from reference_impls import silhouette_reference, v_measure_reference


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def unit_rows(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def angles_of(rows):
    return 2.0 * np.arcsin(np.clip(rows, -1.0, 1.0))


def table_dataset(name, seed=0):
    return subsample(builtin(name, seed=seed), 150, derive_seed(seed, 0x5A))


def medians(values):
    return float(np.median(values))


def test_criterion_01_distance_oracle_analytic():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dim = (2, 4, 8)[i % 3]
        x, y = unit_rows(rng, 2, dim)
        plan = build_qc3(angles_of(x[None]), angles_of(y[None]))
        d, _ = estimate_distance(plan, measure(simulate(plan), Analytic()))
        worst = max(worst, abs(d - float(np.linalg.norm(x - y))))
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"200 analytic distances, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_distance_oracle_sampled():
    rng = np.random.default_rng(102)
    hits = 0
    for i in range(100):
        x, y = unit_rows(rng, 2, 4)
        plan = build_qc3(angles_of(x[None]), angles_of(y[None]))
        hist = measure(simulate(plan),
                       Sampled(2 ** 15, seed=derive_seed(102, i)))
        d_hat, _ = estimate_distance(plan, hist)
        if abs(d_hat - float(np.linalg.norm(x - y))) <= 0.1:
            hits += 1
    report(2, hits >= 95, f"sampled distance within 0.1 on {hits}/100 pairs")


def test_criterion_03_assignment_oracle():
    rng = np.random.default_rng(103)
    instances = 0
    mismatches = 0
    records_checked = 0
    while instances < 200:
        dim = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 33))
        records = unit_rows(rng, m, dim)
        centroids = unit_rows(rng, k, dim)
        cdist = np.linalg.norm(
            centroids[:, None, :] - centroids[None, :, :], axis=2)
        if np.min(cdist[np.triu_indices(k, 1)]) < 1e-3:
            continue
        dists = np.linalg.norm(
            records[:, None, :] - centroids[None, :, :], axis=2)
        order = np.sort(dists, axis=1)
        if np.min(order[:, 1] - order[:, 0]) < 1e-3:
            continue
        instances += 1
        want = np.argmin(dists, axis=1)
        plan3 = build_qc3(angles_of(records), angles_of(centroids))
        got3 = decode_qc3(plan3, measure(simulate(plan3), Analytic()))
        mismatches += sum(int(g != w) for g, w in zip(got3, want))
        for v in range(m):
            plan2 = build_qc3(angles_of(records[v:v + 1]),
                              angles_of(centroids))
            got2 = decode_qc2(plan2, measure(simulate(plan2), Analytic()))
            mismatches += int(got2 != want[v])
        records_checked += 2 * m
    report(3, mismatches == 0,
           f"200 instances, {records_checked} record assignments, "
           f"{mismatches} mismatches")


def test_criterion_04_delta_zero_reduction():
    failures = 0
    for name in ("blobs", "aniso"):
        ds = table_dataset(name)
        for rep in range(25):
            seed = derive_seed(104, rep)
            classical = run(ds.matrix, ClusteringParams(k=3, seed=seed))
            delta = run(ds.matrix, ClusteringParams(
                k=3, assignment=Strategy.DELTA, delta=0.0, seed=seed))
            if not np.array_equal(classical.labels, delta.labels):
                failures += 1
    report(4, failures == 0,
           f"delta=0 vs classical: 50 seeded runs, {failures} label "
           f"differences")


def test_criterion_05_table1_q11_sampled():
    started = time.perf_counter()
    results = {}
    for name, k in (("blobs", 3), ("aniso", 3), ("moon", 2)):
        ds = table_dataset(name)
        sims, vms = [], []
        for rep in range(10):
            seed = derive_seed(105, rep)
            result = run(ds.matrix, ClusteringParams(
                k=k, assignment=Strategy.Q11, seed=seed))
            summary = summarize_run(ds.matrix, result, ds.ground_truth)
            sims.append(summary.avg_similarity)
            vms.append(summary.v_measure)
        results[name] = (medians(sims), medians(vms))
    elapsed = time.perf_counter() - started
    ok = (results["blobs"][1] >= 0.95 and results["blobs"][0] >= 98.0
          and results["aniso"][0] >= 93.0 and results["moon"][1] <= 0.6
          and elapsed <= 1800.0)
    report(5, ok,
           f"q11 medians over 10 seeds: blobs sim/vm "
           f"{results['blobs'][0]:.1f}/{results['blobs'][1]:.2f}, aniso sim "
           f"{results['aniso'][0]:.1f}, moon vm {results['moon'][1]:.2f}, "
           f"{elapsed:.0f}s")


def test_criterion_06_table3_qmk_batching():
    ok = True
    details = []
    for name in ("blobs", "aniso"):
        ds = table_dataset(name)
        median_sims = {}
        median_vms = {}
        for m1 in (2, 16, 128, 150):
            sims, vms = [], []
            for rep in range(5):
                seed = derive_seed(106, rep)
                result = run(ds.matrix, ClusteringParams(
                    k=3, assignment=Strategy.QMK, m1=m1, seed=seed))
                summary = summarize_run(ds.matrix, result, ds.ground_truth)
                sims.append(summary.avg_similarity)
                vms.append(summary.v_measure)
            median_sims[m1] = medians(sims)
            median_vms[m1] = medians(vms)
        spread = max(median_vms.values()) - min(median_vms.values())
        ok = ok and all(s >= 90.0 for s in median_sims.values())
        ok = ok and spread <= 0.15
        details.append(f"{name} min sim {min(median_sims.values()):.1f} "
                       f"vm spread {spread:.3f}")
    report(6, ok, "qmk M1 in {2,16,128,150}: " + "; ".join(details))


def test_criterion_07_postselection_sweep():
    rng = np.random.default_rng(107)
    centroids = unit_rows(rng, 2, 4)
    table = {}
    for m in range(1, 34):
        records = unit_rows(rng, m, 4)
        plan = build_qc3(angles_of(records), angles_of(centroids))
        table[m] = postselection_probability(plan)
    theoretical = 0.25
    powers = [1, 2, 4, 8, 16, 32]
    exact = all(abs(table[m] - theoretical) <= 1e-10 for m in powers)
    below = all(table[m] < theoretical
                for m in table if m not in powers)
    local_max = all(table[m] > table[m - 1] and table[m] > table[m + 1]
                    for m in (4, 8, 16, 32))
    report(7, exact and below and local_max,
           f"P(r=1): exact at powers of two ({exact}), strictly below "
           f"elsewhere ({below}), local maxima ({local_max})")


def test_criterion_08_isp_invariants():
    rng = np.random.default_rng(108)
    worst_norm = 0.0
    worst_roundtrip = 0.0
    per_dim = 100_000 // 10
    for dim in range(1, 11):
        vectors = rng.normal(0.0, 3.0, (per_dim, dim))
        projected = isp_rows(vectors)
        norms = np.linalg.norm(projected, axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        half = per_dim // 2
        x, y = vectors[:half], vectors[half:2 * half]
        px, py = projected[:half], projected[half:2 * half]
        dp = np.linalg.norm(px - py, axis=1)
        true = np.linalg.norm(x - y, axis=1)
        nx = np.linalg.norm(x, axis=1)
        ny = np.linalg.norm(y, axis=1)
        for i in range(half):
            recovered = recover_distance(float(dp[i]), float(nx[i]),
                                         float(ny[i]))
            worst_roundtrip = max(worst_roundtrip,
                                  abs(recovered - float(true[i])))
    report(8, worst_norm <= 1e-12 and worst_roundtrip <= 1e-9,
           f"100k projections: max norm error {worst_norm:.2e}, max "
           f"round-trip error {worst_roundtrip:.2e}")


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(109)
    worst_sil = 0.0
    worst_vm = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(6, 30))
        k = int(rng.integers(2, 5))
        data = rng.normal(size=(m, 2))
        labels = rng.integers(0, k, m)
        truth = rng.integers(0, 3, m)
        if len(np.unique(labels)) < 2:
            continue
        checked += 1
        worst_sil = max(worst_sil, abs(
            silhouette(data, labels) - silhouette_reference(data, labels)))
        worst_vm = max(worst_vm, abs(
            v_measure(truth, labels) - v_measure_reference(truth, labels)))
        pc = pair_confusion(truth, labels)
        assert pc.tp + pc.fp + pc.fn + pc.tn == pytest.approx(100.0,
                                                              abs=1e-9)

    ds = table_dataset("blobs")
    seed = derive_seed(109, 0)
    classical = run(ds.matrix, ClusteringParams(k=3, seed=seed))
    quantum = run(ds.matrix, ClusteringParams(
        k=3, assignment=Strategy.Q11, analytic=True, seed=seed))
    pc = pair_confusion(classical.labels, quantum.labels)
    report(9, worst_sil <= 1e-9 and worst_vm <= 1e-9
           and pc.fp == 0.0 and pc.fn == 0.0,
           f"sil err {worst_sil:.2e}, vm err {worst_vm:.2e}, analytic q11 "
           f"vs classical on blobs fp+fn {pc.fp + pc.fn:.2f}%")


def knee_at_three(curve):
    values = dict(curve)
    drop_23 = values[2] - values[3]
    drop_34 = values[3] - values[4]
    return drop_23 > drop_34


def test_criterion_10_elbow_iris():
    ds = builtin("iris")
    classical = elbow(ds.matrix, range(2, 9),
                      ClusteringParams(k=2, seed=5))
    quantum = elbow(ds.matrix, range(2, 9),
                    ClusteringParams(k=2, assignment=Strategy.Q1K,
                                     analytic=True, seed=5))
    ok = knee_at_three(classical) and knee_at_three(quantum)
    report(10, ok,
           f"iris elbow knee at k=3: classical {knee_at_three(classical)}, "
           f"analytic quantum {knee_at_three(quantum)}")


def test_criterion_11_desk_scale_exclusions_and_iris_ranges():
    # Not reproducible at desk scale, excluded by design: transpiled gate
    # counts/depths, real-hardware latency, and exact real-dataset SSE values
    # (initialization dependent).  The replacement range check:
    ds = builtin("iris")
    best = None
    for s in range(5):
        result = run(ds.matrix, ClusteringParams(k=3,
                                                 seed=derive_seed(111, s)))
        summary = summarize_run(ds.matrix, result, ds.ground_truth)
        if best is None or summary.sse < best.sse:
            best = summary
    ok = 0.45 <= best.silhouette <= 0.60
    report(11, ok,
           f"iris classical k=3 silhouette {best.silhouette:.3f} in "
           f"[0.45, 0.60]; transpiled counts / hardware runs / exact "
           f"real-dataset SSE excluded by design")
