import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from qkmeans.circuits import EstimationFailure, estimate_distance
from qkmeans.clustering import (
    ClusteringParams,
    SeedDomain,
    Strategy,
    _sq_distances,
    assign_classical,
    assign_delta,
    assign_q11,
    assign_q1k,
    assign_qmk,
    circuit_shape,
    derive_seed,
    kmeanspp_init,
    run,
)
from qkmeans.data import BLOB_CENTERS, gen_blobs
from qkmeans.encoding import (
    PreparedVectors,
    prepare_vectors,
    recover_distance,
    standardize,
)
from reference_impls import assign_delta_reference


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

    @pytest.mark.parametrize("data_width, centroid_width", [(2, 3), (3, 2)])
    def test_mismatched_widths_refused(self, data_width, centroid_width):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(10, data_width))
        centroids = rng.normal(size=(2, centroid_width))
        match = (f"operands have ({data_width} and {centroid_width}|"
                 f"{centroid_width} and {data_width}) features")
        with pytest.raises(ValueError, match=match):
            assign_classical(data, centroids)
        with pytest.raises(ValueError, match=match):
            assign_delta(data, centroids, 0.5, seed=1)


class TestSqDistances:
    """Summed by feature columns in numpy's pairwise order, the distances
    are byte-equal to reducing the full difference array."""

    @staticmethod
    def _assert_full_reduction(a, b):
        # the reference reduces a C-ordered difference array: numpy sums a
        # strided axis in another order, so its bytes would depend on the
        # operands' layout
        a_c, b_c = np.ascontiguousarray(a), np.ascontiguousarray(b)
        diff = a_c[:, None, :] - b_c[None, :, :]
        expected = np.sum(diff * diff, axis=2)
        got = _sq_distances(a, b)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [*range(1, 21), 130, 257])
    @pytest.mark.parametrize("rows, cols", [(1, 5), (37, 3), (9, 37)])
    def test_bytes_match_full_reduction(self, d, rows, cols):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(rows, d)) * rng.uniform(0.01, 100.0, size=d)
        b = rng.normal(size=(cols, d))
        self._assert_full_reduction(a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 130])
    def test_strided_column_slices(self, d):
        rng = np.random.default_rng(d)
        wide_a = rng.normal(size=(13, 2 * d)) * 10.0
        wide_b = rng.normal(size=(29, 2 * d))
        self._assert_full_reduction(wide_a[:, ::2], wide_b[:, ::2])
        self._assert_full_reduction(wide_a[:, 1::2], wide_b[:, ::2])

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 130])
    def test_fortran_ordered(self, d):
        rng = np.random.default_rng(d + 1)
        a = np.asfortranarray(rng.normal(size=(17, d)) * 3.0)
        b = np.asfortranarray(rng.normal(size=(31, d)))
        self._assert_full_reduction(a, b)
        self._assert_full_reduction(a, np.ascontiguousarray(b))
        self._assert_full_reduction(np.ascontiguousarray(a), b)

    @pytest.mark.parametrize("d", [1, 2, 3, 9, 130])
    def test_row_slices_of_a_larger_array(self, d):
        rng = np.random.default_rng(d + 2)
        big = rng.normal(size=(64, d)) * rng.uniform(0.1, 50.0, size=d)
        self._assert_full_reduction(big[5:21], big)
        self._assert_full_reduction(big[40:41], big[3:60])
        self._assert_full_reduction(big[::3], big[1::2])

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_equal_rows_and_signed_zeros(self, d):
        rng = np.random.default_rng(d + 3)
        a = rng.normal(size=(6, d))
        a[1] = a[0]
        a[2] = 0.0
        a[3] = -0.0
        a[4, ::2] = -0.0
        b = np.vstack([a, -a, rng.normal(size=(3, d))])
        got = _sq_distances(a, b)
        self._assert_full_reduction(a, b)
        # a row against itself or a signed-zero twin is +0.0, never -0.0
        assert np.signbit(np.diagonal(got)).sum() == 0
        assert np.diagonal(got).tolist() == [0.0] * len(a)
        assert got[2, 3] == 0.0 and not np.signbit(got[2, 3])

    def test_no_features(self):
        assert _sq_distances(np.zeros((3, 0)), np.zeros((2, 0))).tolist() == [
            [0.0, 0.0]] * 3

    @pytest.mark.parametrize("a_width, b_width", [(2, 3), (3, 2), (0, 1)])
    def test_feature_widths_must_match(self, a_width, b_width):
        with pytest.raises(ValueError,
                           match=f"operands have {a_width} and {b_width} "
                                 f"features"):
            _sq_distances(np.zeros((4, a_width)), np.zeros((2, b_width)))

    @pytest.mark.parametrize("d", [*range(0, 21), 130, 257])
    def test_out_matches_allocating_call(self, d):
        # the buffer starts out holding garbage; every element is overwritten
        rng = np.random.default_rng(d)
        a = rng.normal(size=(11, d)) * rng.uniform(0.01, 100.0, size=d)
        b = rng.normal(size=(23, d))
        buf = np.full((11, 23), np.nan)
        got = _sq_distances(a, b, out=buf)
        assert got is buf
        assert buf.tobytes() == _sq_distances(a, b).tobytes()


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

    def test_matches_per_record_loop(self):
        """Integer grids full of exact ties: the same labels, drawn by the
        same records in the same order, as the per-record loop."""
        rng = np.random.default_rng(12)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            data = rng.integers(-2, 3, (int(rng.integers(1, 40)), d)) * 1.0
            centroids = rng.integers(-2, 3, (int(rng.integers(1, 7)), d)) * 1.0
            for delta in (0.0, 1.0, 2.5, 100.0):
                seed = int(rng.integers(2 ** 32))
                got = assign_delta(data, centroids, delta, seed)
                want = assign_delta_reference(data, centroids, delta, seed)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("delta", [-1.0, float("nan")])
    def test_delta_must_be_a_non_negative_number(self, delta):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            ClusteringParams(k=2, assignment=Strategy.DELTA,
                             delta=delta).validate(10, 2)


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
        labels = assign_q11(prepared, centroids, params, ite=1)
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
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_record_refused_before_iteration_1(
            self, monkeypatch, strategy, k):
        from qkmeans import clustering

        def never(*args, **kwargs):
            raise AssertionError("started iterating on a non-finite record")

        monkeypatch.setattr(clustering, "kmeanspp_init", never)
        monkeypatch.setattr(clustering, "_dispatch", never)
        data = blob_data(m=30).matrix.copy()
        data[17, 1] = np.nan
        with pytest.raises(ValueError, match="row 17, column 1 holds nan"):
            run(data, ClusteringParams(k=k, assignment=strategy,
                                       analytic=True))

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
        ds = subsample(builtin("blobs", seed=0), 150,
                       derive_seed(0, SeedDomain.SUBSAMPLE))
        sims = []
        for rep in range(5):
            result = run(ds.matrix, ClusteringParams(
                k=3, assignment=Strategy.Q11, seed=derive_seed(31, rep)))
            sims.append(result.avg_similarity)
        assert float(np.median(sims)) >= 99.0  # reported: 100

    def test_q1k_blobs_similarity(self):
        from qkmeans.data import builtin, subsample
        ds = subsample(builtin("blobs", seed=0), 150,
                       derive_seed(0, SeedDomain.SUBSAMPLE))
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

    def test_trailing_zero_is_part_of_the_key(self):
        # SeedSequence pads short entropy with zeros
        assert derive_seed(0, 1, 2) != derive_seed(0, 1, 2, 0)
        assert derive_seed(0) != derive_seed(0, 0)

    def test_wide_part_is_one_word(self):
        # SeedSequence splits a part >= 2^32 into two 32-bit words
        assert derive_seed(2**32 + 5) != derive_seed(5, 1)
        assert derive_seed(2**64 - 1) != derive_seed(2**32 - 1, 2**32 - 1)

    def test_domains_separate_streams(self):
        seeds = {derive_seed(7, domain, 1) for domain in SeedDomain}
        assert len(seeds) == len(SeedDomain)
        assert derive_seed(7, SeedDomain.ASSIGN, 1) == derive_seed(7, 1, 1)

    @pytest.mark.parametrize("part", [-1, 2**64])
    def test_out_of_range_part(self, part):
        with pytest.raises(ValueError):
            derive_seed(0, part)


class TestBatchedAssignmentContract:
    """``run`` with the batched assignment step reproduces, iteration by
    iteration, the per-circuit loops of ``reference_impls``: the same
    circuits drawn in the same order from the same assign and retry
    generators, so the same sampled streams."""

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
        got = assign_qmk(records, centroids, params, ite=2)
        want = reference_impls.assign_qmk_reference(records, centroids,
                                                    params, ite=2)
        assert np.array_equal(got, want)
        assert fallbacks
        nearest = assign_classical(rows, crows)
        assert all(got[r] == nearest[r] for r in fallbacks)

    def test_chunked_passes_match_one_pass(self, monkeypatch):
        from qkmeans import clustering
        from qkmeans.data import builtin
        data = builtin("iris").matrix
        for strategy, m1 in ((Strategy.Q11, None), (Strategy.Q1K, None),
                             (Strategy.QMK, 16)):
            params = ClusteringParams(k=3, assignment=strategy, seed=9,
                                      max_ite=2, shots_base=64, m1=m1)
            whole = run(data, params)
            with monkeypatch.context() as patch:
                # 7 rows of 16 or 64 amplitudes: several uneven passes;
                # a qmk row of 1024 amplitudes runs alone
                patch.setattr(clustering, "MAX_BATCH_AMPLITUDES", 7 * 64)
                chunked = run(data, params)
            for a, b in zip(whole.history, chunked.history):
                assert np.array_equal(a.labels, b.labels)

    def test_chunked_retries_match_one_pass(self, monkeypatch):
        # a QC1 row of unit vectors keeps a quarter of its shots: 8 shots
        # leave about a tenth of the 90 rows with none, so several 5-row
        # passes redraw some of their rows from the retry generator, whose
        # 32 shots then come up empty with odds of about 1 in 10^4
        import reference_impls
        from qkmeans import clustering
        rng = np.random.default_rng(12)
        _, records = unit_prepared(rng, 30, 4)
        _, centroids = unit_prepared(rng, 3, 4)
        params = ClusteringParams(k=3, shots_base=8, seed=0)

        def estimates(amplitudes):
            """Labels, the decoded distances of all rows, and per decode
            call whether it decoded (False where it came up empty)."""
            calls, distances = [], []

            def recording(plan, hist, **sampled):
                try:
                    result = estimate_distance(plan, hist, **sampled)
                except EstimationFailure:
                    calls.append(False)
                    raise
                calls.append(True)
                return result

            def recovering(d_proj, *norms):
                distances.append(np.asarray(d_proj))
                return recover_distance(d_proj, *norms)

            with monkeypatch.context() as patch:
                patch.setattr(clustering, "MAX_BATCH_AMPLITUDES", amplitudes)
                patch.setattr(clustering, "estimate_distance", recording)
                patch.setattr(clustering, "recover_distance", recovering)
                labels = assign_q11(records, centroids, params, ite=1)
            return labels, distances[0], calls

        whole, one_pass, calls = estimates(90 * 16)
        chunked, passes, chunked_calls = estimates(5 * 16)
        assert calls == [False, True]  # the pass, then its empty rows
        assert chunked_calls.count(False) >= 2
        assert np.array_equal(one_pass, passes)
        assert np.array_equal(whole, chunked)

        # the per-circuit loop decodes the same distances, circuit by circuit
        looped = []

        def recording(plan, hist, **sampled):
            result = estimate_distance(plan, hist, **sampled)
            looped.append(result[0])
            return result

        monkeypatch.setattr(reference_impls, "estimate_distance", recording)
        labels = reference_impls.assign_q11_reference(records, centroids,
                                                      params, ite=1)
        assert np.array_equal(one_pass, np.ravel(looped))
        assert np.array_equal(whole, labels)

    def test_qmk_batches_run_in_one_pass(self, monkeypatch):
        # iris in batches of 16: 10 circuits of 10 qubits, one pass each
        # iteration
        from qkmeans import clustering
        from qkmeans.data import builtin
        rows = []

        def counting(plan):
            rows.append(plan.rows)
            return simulate(plan)

        simulate = clustering.simulate
        monkeypatch.setattr(clustering, "simulate", counting)
        params = ClusteringParams(k=3, assignment=Strategy.QMK, m1=16,
                                  shots_base=8, seed=4, max_ite=3)
        result = run(builtin("iris").matrix, params)
        assert rows == [10] * result.n_ite

    def test_retry_redraws_only_empty_rows(self, monkeypatch):
        # 4 shots per circuit leave about a third of the QC1 rows with no
        # register=1 shot; their 16-shot retries then succeed
        import reference_impls
        from qkmeans import clustering
        failures = []

        def counting(plan, hist, **sampled):
            try:
                return estimate_distance(plan, hist, **sampled)
            except EstimationFailure as failure:
                failures.append(len(failure.rows))
                raise

        monkeypatch.setattr(clustering, "estimate_distance", counting)
        rng = np.random.default_rng(12)
        _, records = unit_prepared(rng, 6, 4)
        _, centroids = unit_prepared(rng, 2, 4)
        params = ClusteringParams(k=2, shots_base=4, seed=0)
        got = assign_q11(records, centroids, params, ite=3)
        want = reference_impls.assign_q11_reference(records, centroids,
                                                    params, ite=3)
        assert np.array_equal(got, want)
        assert failures and failures[0] > 0

    def test_empty_after_retry_names_iteration_rows_and_shots(self):
        # q1:1 on iris at 4 shots: 450 rows a pass, and a 16-shot retry
        # still leaves a row without a register=1 shot
        from qkmeans.data import builtin
        params = ClusteringParams(k=3, assignment=Strategy.Q11, shots_base=4,
                                  max_ite=2, seed=0)
        with pytest.raises(EstimationFailure) as failure:
            run(builtin("iris").matrix, params)
        message = str(failure.value)
        empty = len(failure.value.rows)
        assert message.startswith("iteration 1: no shots survived")
        assert f" {empty} of 450 rows of a pass" in message
        assert "16 shots per row" in message
        assert "larger shots_base" in message
        assert isinstance(failure.value.__cause__, EstimationFailure)


class TestSampledPass:
    """A sampled pass measures exact probabilities and its decoder draws
    over the cells it reads."""

    @staticmethod
    def antipodal(rng):
        """Four unit records and two centroids, both at -record 0: record 0
        has kept probability exactly 0 on every centroid."""
        rows, records = unit_prepared(rng, 4, 4)
        centroids = PreparedVectors(np.repeat(-rows[:1], 2, axis=0),
                                    np.ones(2),
                                    np.repeat(-records.angles[:1], 2, axis=0))
        return records, centroids

    def test_zero_kept_probability_fails_at_once(self, monkeypatch):
        from qkmeans import clustering
        rng = np.random.default_rng(30)
        records, centroids = self.antipodal(rng)
        domains = []

        def recording(*parts):
            domains.append(parts[1])
            return derive_seed(*parts)

        monkeypatch.setattr(clustering, "derive_seed", recording)
        params = ClusteringParams(k=2, shots_base=1024, seed=0)
        with pytest.raises(EstimationFailure) as failure:
            assign_q1k(records, centroids, params, ite=2)
        assert list(failure.value.rows) == [0]
        message = str(failure.value)
        assert message.startswith("iteration 2: no shot can survive")
        assert "rows [0]" in message and "probability is 0" in message
        assert domains == [SeedDomain.ASSIGN]  # no retry generator

    def test_analytic_empty_row_names_iteration(self):
        # the analytic pass decodes through the same call as a sampled one,
        # so its failure carries the same iteration prefix
        rng = np.random.default_rng(30)
        records, centroids = self.antipodal(rng)
        params = ClusteringParams(k=2, analytic=True)
        with pytest.raises(EstimationFailure) as failure:
            assign_q1k(records, centroids, params, ite=3)
        assert list(failure.value.rows) == [0]
        assert str(failure.value) == (
            "iteration 3: no shots survived cluster assignment")

    def test_zero_kept_probability_falls_back_in_qmk(self, monkeypatch):
        from qkmeans import clustering
        rng = np.random.default_rng(30)
        records, centroids = self.antipodal(rng)
        fallbacks = []

        def recording(records, centroids, r):
            fallbacks.append(r)
            return nearest(records, centroids, r)

        nearest = clustering._recovered_nearest
        monkeypatch.setattr(clustering, "_recovered_nearest", recording)
        params = ClusteringParams(k=2, shots_base=1024, seed=0)
        labels = assign_qmk(records, centroids, params, ite=2)
        assert fallbacks == [0]
        assert labels[0] == nearest(records, centroids, 0)

    def test_qmk_pass_peaks_near_two_states(self):
        """A sampled 20-qubit qM:k pass (16,384 records of 4 slots against
        3 centroids) holds the state and its probabilities while measuring,
        then the probabilities alone: at most 2.5 states.  Drawing over all
        basis states with the state kept for a retry peaked at 3.06."""
        from qkmeans import clustering
        from qkmeans.circuits import decode_qc3
        rng = np.random.default_rng(0)
        records = rng.uniform(0.1, 3.0, (1, 1 << 14, 4))
        centroids = rng.uniform(0.1, 3.0, (3, 4))
        params = ClusteringParams(k=3, assignment=Strategy.QMK,
                                  shots_base=8, seed=1)
        tracemalloc.start()
        try:
            labels = clustering._assign_rows(records, centroids, params, 1,
                                             decode_qc3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels) == 1 << 14
        assert peak <= 2.5 * 8 * (1 << 20)


class TestAnalyticContract:
    def test_q1k_iris_sweep_digest(self):
        """sha256 over n_ite and every iteration's labels of analytic q1k
        runs on iris, k 2..8 at seeds 0 and 1.  The value was recorded
        before sampled decoders drew over cells; a change to the analytic
        path that moves any label or iteration count changes it."""
        from qkmeans.data import builtin
        iris = builtin("iris").matrix
        digest = hashlib.sha256()
        for seed in (0, 1):
            for k in range(2, 9):
                result = run(iris, ClusteringParams(
                    k=k, assignment=Strategy.Q1K, analytic=True, seed=seed))
                digest.update(np.int64(result.n_ite).tobytes())
                for record in result.history:
                    digest.update(record.labels.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "cc47ce812dab191de9bb8ac1e7656605cb3ae200fefe5b8bb346413501156865")


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


class TestCircuitShape:
    @pytest.mark.parametrize("strategy, m1, shape", [
        (Strategy.Q11, None, (1, 1)),
        (Strategy.Q11, 16, (1, 1)),
        (Strategy.Q1K, None, (1, 3)),
        (Strategy.QMK, None, (150, 3)),
        (Strategy.QMK, 16, (16, 3)),
    ])
    def test_records_and_centroids_per_circuit(self, strategy, m1, shape):
        params = ClusteringParams(k=3, assignment=strategy, m1=m1)
        assert circuit_shape(params, 150) == shape


class TestSeedValidation:
    def test_negative_seed_fails_before_seeding(self, monkeypatch):
        from qkmeans import clustering
        from qkmeans.data import builtin

        def never(*args, **kwargs):
            raise AssertionError("k-Means++ ran with a negative seed")

        monkeypatch.setattr(clustering, "kmeanspp_init", never)
        with pytest.raises(ValueError, match="seed"):
            run(builtin("iris").matrix, ClusteringParams(k=3, seed=-1))


class TestConvergenceThreshold:
    @pytest.mark.parametrize("sc_thresh", [0.0, -1e-4, float("nan")])
    def test_fails_before_seeding(self, monkeypatch, sc_thresh):
        from qkmeans import clustering
        from qkmeans.data import builtin

        def never(*args, **kwargs):
            raise AssertionError("k-Means++ ran with a bad sc_thresh")

        monkeypatch.setattr(clustering, "kmeanspp_init", never)
        with pytest.raises(ValueError,
                           match=rf"sc_thresh must be > 0, got {sc_thresh}"):
            run(builtin("iris").matrix,
                ClusteringParams(k=3, sc_thresh=sc_thresh))
