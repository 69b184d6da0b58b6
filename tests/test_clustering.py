import dataclasses

import numpy as np
import pytest

from qkmeans.circuits import EstimationFailure, estimate_distance
from qkmeans.clustering import (
    ClusteringParams,
    Strategy,
    assign_classical,
    assign_delta,
    assign_q11,
    assign_q1k,
    assign_qmk,
    derive_seed,
    kmeanspp_init,
    run,
)
from qkmeans.data import BLOB_CENTERS, gen_blobs
from qkmeans.encoding import PreparedVectors, prepare_vectors, standardize


def unit_prepared(rng, count, dim):
    """Prepared vectors built from unit-norm rows: the projection is an
    isometry there, so quantum and classical assignments must agree."""
    rows = rng.standard_normal((count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    angles = np.zeros((count, dim))
    angles[:] = 2.0 * np.arcsin(np.clip(rows, -1.0, 1.0))
    return rows, PreparedVectors(rows, np.ones(count), angles)


class TestKmeansppInit:
    def test_k1_is_a_record(self):
        data = np.arange(10.0).reshape(-1, 1)
        c = kmeanspp_init(data, 1, seed=3)
        assert c.shape == (1, 1) and c[0, 0] in data

    def test_duplicates_excluded(self):
        base = np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 4.0]])
        data = np.repeat(base, [5, 3, 7], axis=0)
        for seed in range(10):
            c = kmeanspp_init(data, 3, seed)
            got = {tuple(row) for row in c}
            assert got == {tuple(row) for row in base}

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 2))
        assert np.array_equal(kmeanspp_init(data, 4, 9),
                              kmeanspp_init(data, 4, 9))

    def test_too_few_distinct(self):
        data = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeanspp_init(data, 2, seed=1)


class TestAssignClassical:
    def test_point_at_centroid(self):
        centroids = np.array([[0.0, 0], [5, 5], [9, 9]])
        labels = assign_classical(np.array([[9.0, 9.0]]), centroids)
        assert labels[0] == 2

    def test_tie_breaks_low(self):
        centroids = np.array([[-1.0], [1.0]])
        assert assign_classical(np.array([[0.0]]), centroids)[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 3))
        centroids = rng.normal(size=(4, 3))
        labels = assign_classical(data, centroids)
        for i, row in enumerate(data):
            dists = [np.linalg.norm(row - c) for c in centroids]
            assert labels[i] == int(np.argmin(dists))


class TestAssignDelta:
    def test_zero_delta_is_classical(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(50, 2))
        centroids = rng.normal(size=(3, 2))
        for seed in range(5):
            assert np.array_equal(
                assign_delta(data, centroids, 0.0, seed),
                assign_classical(data, centroids))

    def test_huge_delta_is_uniform(self):
        data = np.zeros((4000, 1))
        data[:, 0] = np.linspace(-1, 1, 4000)
        centroids = np.array([[-1.0], [0.0], [1.0]])
        labels = assign_delta(data, centroids, 1e9, seed=2)
        counts = np.bincount(labels, minlength=3) / len(labels)
        assert np.all(np.abs(counts - 1 / 3) < 0.05)

    def test_candidate_window(self):
        # centroids on a line at 0, 1, 3; record at 0: squared distances
        # 0, 1, 9: delta=2 admits exactly the first two centroids
        centroids = np.array([[0.0], [1.0], [3.0]])
        record = np.array([[0.0]])
        seen = {int(assign_delta(record, centroids, 2.0, seed)[0])
                for seed in range(200)}
        assert seen == {0, 1}


class TestQuantumAssignments:
    def params(self, **kw):
        defaults = dict(k=3, analytic=True, seed=1)
        defaults.update(kw)
        return ClusteringParams(**defaults)

    def test_q11_analytic_equals_classical(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 3)) * 2.0 + 1.0
        std, _, _ = standardize(data)
        records = prepare_vectors(std)
        centroids_std = std[:4]
        centroids = prepare_vectors(centroids_std, slots=records.slots)
        got = assign_q11(records, centroids, self.params(k=4))
        assert np.array_equal(got, assign_classical(std, centroids_std))

    def test_q11_sampled_picks_exact_match(self):
        rng = np.random.default_rng(8)
        rows, prepared = unit_prepared(rng, 4, 4)
        centroids = PreparedVectors(prepared.projected[:2].copy(),
                                    prepared.norms[:2].copy(),
                                    prepared.angles[:2].copy())
        params = self.params(k=2, analytic=False, shots_base=256)
        labels = assign_q11(prepared, centroids, params, rng_key=(1,))
        assert labels[0] == 0 and labels[1] == 1

    def test_q1k_analytic_equals_classical_on_unit_rows(self):
        rng = np.random.default_rng(9)
        rows, prepared = unit_prepared(rng, 20, 4)
        crows, centroids = unit_prepared(rng, 3, 4)
        got = assign_q1k(prepared, centroids, self.params())
        assert np.array_equal(got, assign_classical(rows, crows))

    def test_qmk_analytic_equals_classical_on_unit_rows(self):
        rng = np.random.default_rng(10)
        rows, prepared = unit_prepared(rng, 12, 4)
        crows, centroids = unit_prepared(rng, 3, 4)
        for m1 in (12, 5, 1):
            got = assign_qmk(prepared, centroids,
                             self.params(m1=m1))
            assert np.array_equal(got, assign_classical(rows, crows)), m1

    def test_qmk_batch_partition(self):
        rng = np.random.default_rng(11)
        rows, prepared = unit_prepared(rng, 150, 4)
        crows, centroids = unit_prepared(rng, 3, 4)
        got = assign_qmk(prepared, centroids, self.params(m1=16))
        assert np.array_equal(got, assign_classical(rows, crows))


def blob_data(m=90, seed=0, std=1.0):
    return gen_blobs(m, BLOB_CENTERS, std, seed)


class TestRun:
    def test_classical_blobs_converges(self):
        ds = blob_data()
        best = None
        for seed in range(5):
            result = run(ds.matrix, ClusteringParams(k=3, seed=seed))
            if best is None or result.n_ite < best.n_ite:
                best = result
        assert best.converged and best.n_ite == 2

    def test_delta_zero_reduces_to_classical(self):
        ds = blob_data(seed=4)
        for seed in (0, 1, 2):
            a = run(ds.matrix, ClusteringParams(k=3, seed=seed))
            b = run(ds.matrix, ClusteringParams(
                k=3, assignment=Strategy.DELTA, delta=0.0, seed=seed))
            assert np.array_equal(a.labels, b.labels)
            assert a.n_ite == b.n_ite

    def test_k1_is_global_mean(self):
        ds = blob_data(m=30)
        result = run(ds.matrix, ClusteringParams(k=1, seed=0))
        std, _, _ = standardize(ds.matrix)
        assert result.converged
        assert np.allclose(result.centroids[0], std.mean(axis=0))

    def test_deterministic(self):
        ds = blob_data(seed=5)
        p = ClusteringParams(k=3, assignment=Strategy.Q1K, seed=12,
                             shots_base=128)
        a = run(ds.matrix, p)
        b = run(ds.matrix, dataclasses.replace(p))
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centroids, b.centroids)
        for ia, ib in zip(a.history, b.history):
            assert np.array_equal(ia.labels, ib.labels)
            assert ia.similarity == ib.similarity

    def test_classical_sse_monotone(self):
        from qkmeans.metrics import sse
        rng = np.random.default_rng(13)
        data = rng.normal(size=(120, 2))
        std, _, _ = standardize(data)
        result = run(data, ClusteringParams(k=4, seed=3, max_ite=10,
                                            sc_thresh=1e-9))
        values = [sse(std, it.labels, it.centroids) for it in result.history]
        assert all(values[i + 1] <= values[i] + 1e-9
                   for i in range(len(values) - 1))

    def test_similarity_range_and_q11_analytic_100(self):
        ds = blob_data(seed=6)
        result = run(ds.matrix, ClusteringParams(
            k=3, assignment=Strategy.Q11, analytic=True, seed=2))
        for it in result.history:
            assert it.similarity == 100.0
        sampled = run(ds.matrix, ClusteringParams(
            k=3, assignment=Strategy.QMK, m1=16, seed=2, shots_base=64))
        for it in sampled.history:
            assert 0.0 <= it.similarity <= 100.0

    def test_q11_analytic_run_matches_classical_run(self):
        ds = blob_data(seed=7)
        a = run(ds.matrix, ClusteringParams(k=3, seed=21))
        b = run(ds.matrix, ClusteringParams(k=3, assignment=Strategy.Q11,
                                            analytic=True, seed=21))
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(a.centroids, b.centroids)

    def test_q1k_qmk_analytic_runs_coincide(self):
        # the batched circuit's per-record conditionals equal the
        # single-record circuit's, so whole analytic runs coincide
        ds = blob_data(seed=9)
        a = run(ds.matrix, ClusteringParams(k=3, assignment=Strategy.Q1K,
                                            analytic=True, seed=4))
        b = run(ds.matrix, ClusteringParams(k=3, assignment=Strategy.QMK,
                                            m1=16, analytic=True, seed=4))
        assert np.array_equal(a.labels, b.labels)
        for ia, ib in zip(a.history, b.history):
            assert np.array_equal(ia.labels, ib.labels)

    def test_empty_cluster_keeps_centroid(self):
        from qkmeans.clustering import _update_centroids
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        previous = np.array([[0.5, 0.5], [9.0, 9.0]])
        updated = _update_centroids(data, np.array([0, 0]), previous)
        assert np.allclose(updated[0], [0.5, 0.5])
        assert np.array_equal(updated[1], previous[1])

    def test_param_validation(self):
        ds = blob_data(m=20)
        with pytest.raises(ValueError):
            run(ds.matrix, ClusteringParams(k=0))
        with pytest.raises(ValueError):
            run(ds.matrix, ClusteringParams(k=21))
        with pytest.raises(ValueError):
            run(ds.matrix, ClusteringParams(k=2, sc_thresh=0.0))
        with pytest.raises(ValueError):
            run(ds.matrix, ClusteringParams(k=2, m1=40))


class TestReportedBehavior:
    """Sampled-mode behavior matching the published result tables."""

    def test_q11_blobs_full_similarity(self):
        from qkmeans.data import builtin, subsample
        ds = subsample(builtin("blobs", seed=0), 150, derive_seed(0, 0x5A))
        sims = []
        for rep in range(5):
            result = run(ds.matrix, ClusteringParams(
                k=3, assignment=Strategy.Q11, seed=derive_seed(31, rep)))
            sims.append(result.avg_similarity)
        assert float(np.median(sims)) >= 99.0  # reported: 100

    def test_q1k_blobs_similarity(self):
        from qkmeans.data import builtin, subsample
        ds = subsample(builtin("blobs", seed=0), 150, derive_seed(0, 0x5A))
        sims = []
        for rep in range(5):
            result = run(ds.matrix, ClusteringParams(
                k=3, assignment=Strategy.Q1K, seed=derive_seed(32, rep)))
            sims.append(result.avg_similarity)
        assert float(np.median(sims)) >= 99.0  # reported: 99.3

    def test_delta_moon_similarity(self):
        from qkmeans.data import builtin
        ds = builtin("moon", seed=0)
        sims = []
        for rep in range(5):
            result = run(ds.matrix, ClusteringParams(
                k=2, assignment=Strategy.DELTA, delta=0.1,
                seed=derive_seed(33, rep)))
            sims.append(result.avg_similarity)
        assert abs(float(np.median(sims)) - 99.4) <= 1.0  # reported: 99.4


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0) != derive_seed(1)


class TestBatchedAssignmentContract:
    """``run`` with the batched assignment step reproduces, iteration by
    iteration, the per-circuit loops of ``reference_impls``: the same
    circuits, the same per-circuit seeds, so the same sampled streams."""

    @staticmethod
    def runs_agree(monkeypatch, data, params, name):
        import reference_impls
        from qkmeans import clustering
        batched = run(data, params)
        with monkeypatch.context() as patch:
            patch.setattr(clustering, name,
                          getattr(reference_impls, f"{name}_reference"))
            looped = run(data, params)
        assert batched.n_ite == looped.n_ite
        for a, b in zip(batched.history, looped.history):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("analytic", [False, True])
    def test_q11_iris(self, monkeypatch, analytic):
        from qkmeans.data import builtin
        params = ClusteringParams(k=3, assignment=Strategy.Q11, seed=5,
                                  max_ite=3, analytic=analytic)
        self.runs_agree(monkeypatch, builtin("iris").matrix, params,
                        "assign_q11")

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("k", [2, 5])
    def test_q1k_iris(self, monkeypatch, analytic, k):
        from qkmeans.data import builtin
        params = ClusteringParams(k=k, assignment=Strategy.Q1K, seed=6,
                                  max_ite=3, analytic=analytic)
        self.runs_agree(monkeypatch, builtin("iris").matrix, params,
                        "assign_q1k")

    def test_qmk_blobs_sampled(self, monkeypatch):
        params = ClusteringParams(k=3, assignment=Strategy.QMK, m1=64,
                                  seed=7, max_ite=3)
        self.runs_agree(monkeypatch, blob_data(m=64, seed=8).matrix, params,
                        "assign_qmk")

    def test_qmk_short_last_batch(self, monkeypatch):
        # 64 records in batches of 24: the last circuit holds 16 records
        # and keeps the 5 batch qubits of the full ones; 8 base shots keep
        # the labels sensitive to the sampled stream
        params = ClusteringParams(k=3, assignment=Strategy.QMK, m1=24,
                                  shots_base=8, seed=7, max_ite=3)
        self.runs_agree(monkeypatch, blob_data(m=64, seed=8).matrix, params,
                        "assign_qmk")

    def test_qmk_fallback_is_classical_nearest(self, monkeypatch):
        # 16 shots over 8 record slots leave most slots without a kept
        # shot; those fall back to the exact nearest centroid
        import reference_impls
        from qkmeans import clustering
        fallbacks = []

        def recording(records, centroids, r):
            fallbacks.append(r)
            return clustering_nearest(records, centroids, r)

        clustering_nearest = clustering._recovered_nearest
        monkeypatch.setattr(clustering, "_recovered_nearest", recording)
        rng = np.random.default_rng(13)
        rows, records = unit_prepared(rng, 8, 4)
        crows, centroids = unit_prepared(rng, 2, 4)
        params = ClusteringParams(k=2, m1=8, shots_base=1, seed=0)
        got = assign_qmk(records, centroids, params, rng_key=(2,))
        want = reference_impls.assign_qmk_reference(records, centroids,
                                                    params, rng_key=(2,))
        assert np.array_equal(got, want)
        assert fallbacks
        nearest = assign_classical(rows, crows)
        assert all(got[r] == nearest[r] for r in fallbacks)

    def test_chunked_passes_match_one_pass(self, monkeypatch):
        from qkmeans import clustering
        from qkmeans.data import builtin
        data = builtin("iris").matrix
        for strategy in (Strategy.Q11, Strategy.Q1K):
            params = ClusteringParams(k=3, assignment=strategy, seed=9,
                                      max_ite=2, shots_base=64)
            whole = run(data, params)
            with monkeypatch.context() as patch:
                # 7 rows of 16 or 64 amplitudes: several uneven chunks
                patch.setattr(clustering, "MAX_BATCH_AMPLITUDES", 7 * 64)
                chunked = run(data, params)
            for a, b in zip(whole.history, chunked.history):
                assert np.array_equal(a.labels, b.labels)

    def test_retry_redraws_only_empty_rows(self, monkeypatch):
        # 4 shots per circuit leave about a third of the QC1 rows with no
        # register=1 shot; their 16-shot retries then succeed
        import reference_impls
        from qkmeans import clustering
        failures = []

        def counting(plan, hist):
            try:
                return estimate_distance(plan, hist)
            except EstimationFailure as failure:
                failures.append(len(failure.rows))
                raise

        monkeypatch.setattr(clustering, "estimate_distance", counting)
        rng = np.random.default_rng(12)
        _, records = unit_prepared(rng, 6, 4)
        _, centroids = unit_prepared(rng, 2, 4)
        params = ClusteringParams(k=2, shots_base=4, seed=0)
        got = assign_q11(records, centroids, params, rng_key=(3,))
        want = reference_impls.assign_q11_reference(records, centroids,
                                                    params, rng_key=(3,))
        assert np.array_equal(got, want)
        assert failures and failures[0] > 0


class TestQubitLimit:
    def test_fails_before_seeding(self, monkeypatch):
        from qkmeans import clustering, simulator
        from qkmeans.data import builtin

        def never(*args, **kwargs):
            raise AssertionError("called before the qubit check")

        monkeypatch.setattr(simulator, "MAX_QUBITS", 10)
        monkeypatch.setattr(clustering, "kmeanspp_init", never)
        monkeypatch.setattr(clustering, "simulate", never)
        params = ClusteringParams(k=3, assignment=Strategy.QMK, m1=150)
        with pytest.raises(ValueError, match=r"14 qubits.*MAX_QUBITS = 10"):
            run(builtin("iris").matrix, params)

    def test_counts_per_strategy(self, monkeypatch):
        # iris: 3 features -> 4 slots -> 2 index qubits; k=3 -> 2 cluster
        # qubits; m1=150 -> 8 batch qubits
        from qkmeans import simulator
        expect = {Strategy.Q11: 4, Strategy.Q1K: 6, Strategy.QMK: 14}
        for strategy, qubits in expect.items():
            params = ClusteringParams(k=3, assignment=strategy, m1=150)
            monkeypatch.setattr(simulator, "MAX_QUBITS", qubits)
            params.validate(150, 3)
            monkeypatch.setattr(simulator, "MAX_QUBITS", qubits - 1)
            with pytest.raises(ValueError, match=f"needs {qubits} qubits"):
                params.validate(150, 3)


class TestSeedValidation:
    def test_negative_seed_fails_before_seeding(self, monkeypatch):
        from qkmeans import clustering
        from qkmeans.data import builtin

        def never(*args, **kwargs):
            raise AssertionError("k-Means++ ran with a negative seed")

        monkeypatch.setattr(clustering, "kmeanspp_init", never)
        with pytest.raises(ValueError, match="seed"):
            run(builtin("iris").matrix, ClusteringParams(k=3, seed=-1))
