import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmeans.clustering import (
    ClusteringParams,
    Strategy,
    assign_classical,
    run,
)
from qkmeans.data import builtin
from qkmeans.encoding import standardize
from qkmeans.metrics import (
    elbow,
    pair_confusion,
    silhouette,
    sse,
    summarize_run,
    v_measure,
)
from reference_impls import (
    pair_confusion_reference,
    silhouette_band_reference,
    silhouette_reference,
    silhouette_sorted_reference,
    v_measure_reference,
)


class TestSse:
    def test_points_at_centroids(self):
        data = np.array([[1.0, 1], [2, 2]])
        assert sse(data, [0, 1], data.copy()) == 0.0

    def test_single_offset(self):
        assert sse(np.array([[2.0, 0]]), [0], np.zeros((1, 2))) == 4.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 3))
        centroids = rng.normal(size=(4, 3))
        labels = rng.integers(0, 4, 30)
        expect = sum(np.linalg.norm(data[i] - centroids[labels[i]]) ** 2
                     for i in range(30))
        assert sse(data, labels, centroids) == pytest.approx(expect)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            sse(np.zeros((2, 2)), [0, 5], np.zeros((2, 2)))

    @pytest.mark.parametrize("labels, centroids, message", [
        ([0], np.zeros((1, 2)), "one label per record, got 1 labels for 3 "
                                "records"),
        ([0, 0, 0, 0], np.zeros((1, 2)), "got 4 labels for 3 records"),
        ([0, 0, 0], np.zeros((1, 3)), "got 3 features for 2"),
    ], ids=["one-label", "extra-label", "wider-centroids"])
    def test_shapes_must_agree(self, labels, centroids, message):
        # a single label would otherwise broadcast over every record
        with pytest.raises(ValueError, match=message):
            sse(np.ones((3, 2)), labels, centroids)

    def test_labels_must_be_1d(self):
        # a column of labels would otherwise index (M, 1, d) centroids and
        # broadcast: these flat labels give 1.0, the column gave 1608.0
        data = np.array([[0.0, 0], [1, 0], [10, 10], [10, 11]])
        centroids = np.array([[0.5, 0], [10, 10.5]])
        labels = np.array([0, 0, 1, 1])
        assert sse(data, labels, centroids) == 1.0
        with pytest.raises(ValueError,
                           match=r"sse needs 1-D labels, got shape \(4, 1\)"):
            sse(data, labels.reshape(-1, 1), centroids)

    def test_classical_assignment_minimizes(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 2))
        centroids = rng.normal(size=(3, 2))
        best = sse(data, assign_classical(data, centroids), centroids)
        for _ in range(20):
            random_labels = rng.integers(0, 3, 40)
            assert best <= sse(data, random_labels, centroids) + 1e-12


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        data = np.array([[0.0, 0], [0, 0.01], [10, 10], [10, 10.01]])
        assert silhouette(data, [0, 0, 1, 1]) >= 0.99

    def test_singletons_contribute_zero(self):
        data = np.array([[0.0, 0], [5, 5]])
        assert silhouette(data, [0, 1]) == 0.0

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(200, 2))
        labels = rng.integers(0, 3, 200)
        assert abs(silhouette(data, labels)) <= 0.1

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((3, 2)), [0, 0, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_refused(self, value):
        data = np.array([[0.0, 0], [0, 0.01], [10, 10], [10, 10.01]])
        data[2, 0] = value
        with pytest.raises(ValueError, match=f"row 2, column 0 holds {value}"):
            silhouette(data, [0, 0, 1, 1])

    @pytest.mark.parametrize("count", [3, 5])
    def test_one_label_per_record(self, count):
        data = np.array([[0.0, 0], [0, 0.01], [10, 10], [10, 10.01]])
        with pytest.raises(ValueError,
                           match=f"one label per record, got {count} labels "
                                 f"for 4 records"):
            silhouette(data, [0, 1, 0, 1, 0][:count])

    def test_labels_must_be_1d(self):
        data = np.array([[0.0, 0], [0, 0.01], [10, 10], [10, 10.01]])
        with pytest.raises(ValueError, match=r"silhouette needs 1-D labels, "
                                             r"got shape \(4, 1\)"):
            silhouette(data, np.array([[0], [0], [1], [1]]))

    @pytest.mark.parametrize("data", [np.zeros(4), np.zeros((4, 2, 1))])
    def test_records_must_be_2d(self, data):
        with pytest.raises(ValueError,
                           match=f"2-D records, got {data.ndim}-D"):
            silhouette(data, [0, 0, 1, 1])

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            m = int(rng.integers(5, 40))
            k = int(rng.integers(2, 5))
            data = rng.normal(size=(m, 2))
            labels = rng.integers(0, k, m)
            if len(np.unique(labels)) < 2:
                continue
            assert silhouette(data, labels) == pytest.approx(
                silhouette_reference(data, labels), abs=1e-9)

    def test_row_blocks_match_reference(self, monkeypatch):
        # tiles of 3 rows, so every cluster's rows span several tiles
        from qkmeans import metrics
        monkeypatch.setattr(metrics, "_SILHOUETTE_TILE", 3 * 31)
        rng = np.random.default_rng(4)
        data = rng.normal(size=(31, 3))
        labels = rng.integers(0, 4, 31)
        labels[7] = 9  # a singleton cluster
        assert silhouette(data, labels) == pytest.approx(
            silhouette_reference(data, labels), abs=1e-9)

    @pytest.mark.parametrize("rows", [1, 4, 10])
    def test_bands_match_direct_formula(self, monkeypatch, rows):
        # sorted cluster sizes 1, 6, 15, 18 start at rows 0, 1, 7 and 22: a
        # singleton, then clusters starting inside the first band at 4 and
        # 10 rows; at 1 row the first 20 bands take one row each
        from qkmeans import metrics
        monkeypatch.setattr(metrics, "_SILHOUETTE_TILE", rows * 40)
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 3))
        labels = rng.permutation(np.repeat([3, 0, 9, 5], [1, 6, 15, 18]))
        assert abs(silhouette(data, labels)
                   - silhouette_reference(data, labels)) <= 1e-12

    def test_each_pair_formed_once(self, monkeypatch):
        # bands form only the distances on or right of their own diagonal:
        # about M^2 / 2, where a row per record forms all M^2
        from qkmeans import metrics
        formed = []
        sq_distances = metrics._sq_distances

        def counting(a, b, out=None):
            out = sq_distances(a, b, out=out)
            formed.append(out.size)
            return out

        monkeypatch.setattr(metrics, "_sq_distances", counting)
        data, labels = _benchmark_blobs()
        silhouette(data, labels)
        assert sum(formed) < 0.55 * len(data) ** 2

    @pytest.mark.parametrize("name", ["iris", "wine"])
    @pytest.mark.parametrize("source", ["truth", "kmeans"])
    def test_one_band_keeps_full_row_sums(self, name, source):
        # up to 181 records one band holds every row, so each row's sums
        # are one reduceat over the whole row, as with no bands at all
        ds = builtin(name)
        std = standardize(ds.matrix)
        labels = (ds.ground_truth if source == "truth" else
                  run(ds.matrix, ClusteringParams(k=3, seed=1)).labels)
        assert len(std) <= 181
        assert silhouette(std, labels) == silhouette_sorted_reference(
            std, labels)

    def test_record_order_moves_score_by_rounding_only(self):
        # the per-cluster sums run in the sorted order of a permutation's
        # records, so only their rounding may change
        data, labels = _benchmark_blobs()
        score = silhouette(data, labels)
        rng = np.random.default_rng(6)
        for _ in range(3):
            perm = rng.permutation(len(data))
            assert abs(silhouette(data[perm], labels[perm]) - score) <= 1e-12


class TestSilhouetteBytes:
    """At every tile, each score is byte-equal to the silhouette over the
    same bands of cluster-sorted records, each band's distances formed from
    its own difference array; with one band, to the silhouette over the
    full difference array summed over cluster-sorted columns."""

    @pytest.mark.parametrize("d", [*range(1, 21), 130])
    @pytest.mark.parametrize("rows", [1, 4, 10, None])
    def test_matches_blocked_reference(self, monkeypatch, d, rows):
        # 37 records: bands of 1, 4 and 10 rows at first, growing as they
        # near the last row; None keeps the default tile, one band
        from qkmeans import metrics
        rng = np.random.default_rng(d)
        data = rng.normal(size=(37, d)) * rng.uniform(0.1, 10.0, size=d)
        labels = rng.integers(0, 3, 37)
        labels[5] = 7  # a singleton cluster
        if rows is None:
            expect = silhouette_sorted_reference(data, labels)
        else:
            monkeypatch.setattr(metrics, "_SILHOUETTE_TILE", rows * 37)
            expect = silhouette_band_reference(data, labels, rows)
        assert silhouette(data, labels) == expect

    def test_blobs_peak_memory(self):
        from qkmeans.data import BLOB_CENTERS, gen_blobs
        ds = gen_blobs(2048, BLOB_CENTERS, 1.0, seed=5)
        std = standardize(ds.matrix)
        tracemalloc.start()
        try:
            silhouette(std, ds.ground_truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    def test_blobs_peak_memory_holds_one_tile(self):
        # one reused 256 KiB tile buffer, one temporary of the same size in
        # _sq_distances, and the sorted records; the one-hot product's 4 MiB
        # block buffer took 4.45 MiB
        std, labels = _benchmark_blobs()
        tracemalloc.start()
        try:
            silhouette(std, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("case", ["blobs2048x2", "normal4096x3"])
    @pytest.mark.parametrize("tile_rows", [None, 1, 7, 24])
    def test_benchmark_scale_matches_blocked_reference(self, monkeypatch,
                                                       case, tile_rows):
        # the default tile is exactly 16 rows of 2048 and 8 rows of 4096;
        # 7 and 24 divide neither record count, and None keeps the default
        from qkmeans import metrics
        if case == "blobs2048x2":
            data, labels = _benchmark_blobs()
        else:
            rng = np.random.default_rng(3)
            data = rng.normal(size=(4096, 3)) * [0.5, 2.0, 7.0]
            labels = rng.integers(0, 4, 4096)
            labels[100] = 9  # a singleton cluster
        if tile_rows is None:
            tile_rows = metrics._SILHOUETTE_TILE // len(data)
        else:
            monkeypatch.setattr(metrics, "_SILHOUETTE_TILE",
                                tile_rows * len(data))
        assert silhouette(data, labels) == silhouette_band_reference(
            data, labels, tile_rows)


def _benchmark_blobs():
    """The benchmark's qmk records, standardized, with their true labels."""
    from qkmeans.data import BLOB_CENTERS, gen_blobs
    ds = gen_blobs(2048, BLOB_CENTERS, 1.0, seed=5)
    std = standardize(ds.matrix)
    return std, ds.ground_truth


class TestVMeasure:
    def test_identical(self):
        assert v_measure([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_single_prediction_cluster(self):
        assert v_measure([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_degenerate_single_class_single_cluster(self):
        assert v_measure([0, 0, 0], [1, 1, 1]) == 1.0

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = 30
            a = rng.integers(0, 3, m)
            b = rng.integers(0, 4, m)
            assert v_measure(a, b) == pytest.approx(
                v_measure_reference(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="v_measure needs one label per "
                                             "record, got 3 labels for 2"):
            v_measure([0, 1], [0, 1, 2])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=30),
           st.integers(0, 2 ** 32 - 1))
    def test_symmetric_and_permutation_invariant(self, labels, seed):
        rng = np.random.default_rng(seed)
        other = rng.integers(0, 3, len(labels))
        a = np.array(labels)
        assert v_measure(a, other) == pytest.approx(v_measure(other, a))
        permutation = rng.permutation(4)
        assert v_measure(permutation[a], other) == pytest.approx(
            v_measure(a, other))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 4, 25)
            b = rng.integers(0, 4, 25)
            assert 0.0 <= v_measure(a, b) <= 1.0


class TestPairConfusion:
    def test_identical_labelings(self):
        pc = pair_confusion([0, 0, 1, 1], [0, 0, 1, 1])
        assert pc.fp == 0 and pc.fn == 0
        assert pc.tp + pc.tn == pytest.approx(100.0)

    def test_four_point_enumeration(self):
        # reference pairs {01, 23} together; other puts {02, 13} together
        pc = pair_confusion([0, 0, 1, 1], [0, 1, 0, 1])
        expect = pair_confusion_reference([0, 0, 1, 1], [0, 1, 0, 1])
        assert (pc.tp, pc.fp, pc.fn, pc.tn) == pytest.approx(expect)

    def test_sums_to_100(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.integers(0, 3, 30)
            b = rng.integers(0, 4, 30)
            pc = pair_confusion(a, b)
            assert pc.tp + pc.fp + pc.fn + pc.tn == pytest.approx(100.0,
                                                                  abs=1e-9)
            assert (pc.tp, pc.fp, pc.fn, pc.tn) == pytest.approx(
                pair_confusion_reference(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="pair_confusion needs one label "
                                             "per record, got 3 labels for 2"):
            pair_confusion([0, 1], [0, 1, 1])


class TestElbow:
    def test_k_equals_m_reaches_zero(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(8, 2)) * 5
        curve = elbow(data, [8], ClusteringParams(k=8, seed=0, max_ite=3),
                      n_seeds=8)
        assert curve[0][1] == pytest.approx(0.0, abs=1e-18)

    def test_widest_k_checked_before_any_run(self, monkeypatch):
        from qkmeans import metrics

        def never(*args, **kwargs):
            raise AssertionError("ran before the up-front checks")

        monkeypatch.setattr(metrics, "run", never)
        data = np.repeat(np.arange(8.0).reshape(4, 2), 2, axis=0)
        params = ClusteringParams(k=2, seed=0)
        with pytest.raises(ValueError, match="k 5 exceeds 4 distinct"):
            elbow(data, range(2, 6), params)
        with pytest.raises(ValueError, match=r"k must be in \[1, 8\], got 9"):
            elbow(data, [9, 2], params)
        assert elbow(data, range(3, 3), params) == []

    def test_every_k_checked_before_any_run(self, monkeypatch):
        from qkmeans import metrics
        from qkmeans.data import builtin
        runs = []

        def counting(data, params):
            runs.append(params.k)
            return run(data, params)

        run = metrics.run
        monkeypatch.setattr(metrics, "run", counting)
        with pytest.raises(ValueError, match=r"k must be in \[1, 150\], "
                                             r"got 0"):
            elbow(builtin("iris").matrix, [3, 0], ClusteringParams(k=3))
        assert runs == []

    def test_non_finite_record_refused_before_any_run(self, monkeypatch):
        from qkmeans import metrics

        def never(*args, **kwargs):
            raise AssertionError("ran before the up-front checks")

        monkeypatch.setattr(metrics, "run", never)
        data = np.arange(16.0).reshape(8, 2)
        data[6, 0] = -np.inf
        with pytest.raises(ValueError, match="row 6, column 0 holds -inf"):
            elbow(data, [1, 2], ClusteringParams(k=1))

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_seed_count_checked_before_any_run(self, monkeypatch, n_seeds):
        from qkmeans import metrics

        def never(*args, **kwargs):
            raise AssertionError("ran before the up-front checks")

        monkeypatch.setattr(metrics, "run", never)
        monkeypatch.setattr(metrics, "standardize", never)
        data = np.arange(16.0).reshape(8, 2)
        with pytest.raises(ValueError, match=f"n_seeds must be >= 1, got "
                                             f"{n_seeds}"):
            elbow(data, [2, 3], ClusteringParams(k=2), n_seeds=n_seeds)

    def test_sse_non_increasing(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 2))
        curve = elbow(data, range(2, 7), ClusteringParams(k=2, seed=1))
        values = [v for _, v in curve]
        assert all(values[i + 1] <= values[i] + 1e-9
                   for i in range(len(values) - 1))

    def test_analytic_q11_sweep_equals_classical(self):
        # exact-distance recovery makes the whole sweep coincide
        from qkmeans.data import builtin, subsample
        ds = subsample(builtin("iris"), 60, seed=2)
        ks = range(2, 5)
        classical = elbow(ds.matrix, ks, ClusteringParams(k=2, seed=3))
        quantum = elbow(ds.matrix, ks,
                        ClusteringParams(k=2, assignment=Strategy.Q11,
                                         analytic=True, seed=3))
        for (k_c, sse_c), (k_q, sse_q) in zip(classical, quantum):
            assert k_c == k_q
            assert sse_q == pytest.approx(sse_c, abs=1e-6)


class TestSummarizeRun:
    def test_report_fields(self):
        from qkmeans.clustering import run
        from qkmeans.data import BLOB_CENTERS, gen_blobs
        ds = gen_blobs(60, BLOB_CENTERS, 1.0, seed=1)
        result = run(ds.matrix, ClusteringParams(k=3, seed=0))
        report = summarize_run(ds.matrix, result, ds.ground_truth)
        assert report["ite"] == result.n_ite
        assert report["sim"] == 100.0
        std = standardize(ds.matrix)
        assert report["sse"] == pytest.approx(
            sse(std, result.labels, result.centroids))
        assert -1.0 <= report["sil"] <= 1.0
        assert 0.0 <= report["vm"] <= 1.0

    def test_is_the_artifact_metrics(self, tmp_path):
        """The mapping, keys in order and values, is each repetition's
        ``metrics`` entry of a ``qkmeans run`` artifact."""
        import json

        from click.testing import CliRunner

        from qkmeans import cli
        from qkmeans.clustering import SeedDomain, derive_seed
        result = CliRunner().invoke(cli.main, [
            "run", "--dataset", "blobs3", "--algorithm", "q1k", "--shots",
            "64", "--reps", "2", "--seed", "5", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        artifact = json.loads((tmp_path / "blobs3_q1k.json").read_text())
        ds = builtin("blobs3", seed=5)
        params = ClusteringParams(**artifact["config"]["params"])
        assert (params.k, params.shots_base) == (2, 64)
        for rep, entry in enumerate(artifact["repetitions"]):
            params.seed = derive_seed(5, SeedDomain.REPETITION, rep)
            report = summarize_run(ds.matrix, run(ds.matrix, params),
                                   ds.ground_truth)
            assert list(report) == list(entry["metrics"]) == list(cli.METRICS)
            assert report == entry["metrics"]

    def test_no_silhouette_below_two_clusters_nor_vm_without_truth(self):
        data = np.arange(8.0).reshape(4, 2)
        report = summarize_run(data, run(data, ClusteringParams(k=1)))
        assert report["sil"] is None and report["vm"] is None


class TestLabelContract:
    """sse, silhouette, v_measure and pair_confusion take labels through one
    check: 1-D, of an integer dtype, one per record, refused naming the
    metric."""

    DATA = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0]])
    CENTROIDS = np.array([[0.0, 0.5], [5.0, 5.5]])

    def call(self, metric, labels):
        if metric == "sse":
            return sse(self.DATA, labels, self.CENTROIDS)
        if metric == "silhouette":
            return silhouette(self.DATA, labels)
        if metric == "v_measure":
            return v_measure([0, 0, 1, 1], labels)
        return pair_confusion([0, 0, 1, 1], labels)

    METRICS = ("sse", "silhouette", "v_measure", "pair_confusion")

    @pytest.mark.parametrize("metric", METRICS)
    def test_integer_labels_of_any_width_score_alike(self, metric):
        want = self.call(metric, [0, 0, 1, 1])
        for dtype in (np.int8, np.uint16, np.int64):
            assert self.call(metric, np.array([0, 0, 1, 1], dtype)) == want

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("labels", [
        [0.0, 0.0, 1.0, 1.0],
        [0.7, 0.2, 1.7, 1.2],
        [False, False, True, True],
    ])
    def test_non_integer_labels_refused(self, metric, labels):
        dtype = np.asarray(labels).dtype
        with pytest.raises(ValueError, match=f"{metric} needs integer "
                                             f"labels, got dtype {dtype}"):
            self.call(metric, labels)

    def test_fractional_labels_are_not_truncated(self):
        # cast to int, [0.2, 1.7, 2.9] would score as clusters 0, 1 and 2,
        # and 0.7 as cluster 0
        data = np.array([[0.0], [1.0], [4.0]])
        with pytest.raises(ValueError, match="silhouette needs integer"):
            silhouette(data, [0.2, 1.7, 2.9])
        with pytest.raises(ValueError, match="sse needs integer"):
            sse(data, [0.7, 0.7, 0.7], np.zeros((1, 1)))

    @pytest.mark.parametrize("metric", METRICS)
    def test_two_dimensional_labels_refused(self, metric):
        with pytest.raises(ValueError, match=rf"{metric} needs 1-D labels, "
                                             rf"got shape \(2, 2\)"):
            self.call(metric, np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("metric", ["v_measure", "pair_confusion"])
    def test_two_dimensional_reference_refused(self, metric):
        # 2-D labels once passed pair_confusion's own check: tn = -500.0
        labels = np.zeros((2, 2), dtype=int)
        function = v_measure if metric == "v_measure" else pair_confusion
        with pytest.raises(ValueError, match=f"{metric} needs 1-D labels"):
            function(labels, labels)
