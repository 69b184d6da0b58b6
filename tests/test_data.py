import re

import numpy as np
import pytest

from qkmeans.data import (
    ANISO_TRANSFORM,
    BLOB_CENTERS,
    Dataset,
    builtin,
    gen_aniso,
    gen_blobs,
    gen_moons,
    load_csv,
    load_iris,
    load_wine,
    save_csv,
    select_features,
    subsample,
)


class TestGenBlobs:
    def test_zero_std_sits_on_centers(self):
        centers = [(0.0, 0.0), (3.0, 4.0)]
        ds = gen_blobs(10, centers, 0.0, seed=0)
        for row, label in zip(ds.matrix, ds.ground_truth):
            assert np.allclose(row, centers[label])

    def test_even_split(self):
        ds = gen_blobs(16, [(0, 0), (9, 9)], 1.0, seed=1)
        assert np.bincount(ds.ground_truth).tolist() == [8, 8]
        ds = gen_blobs(17, [(0, 0), (9, 9)], 1.0, seed=1)
        assert np.bincount(ds.ground_truth).tolist() == [9, 8]

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(gen_blobs(50, BLOB_CENTERS, 1.0, seed=9), a)
        save_csv(gen_blobs(50, BLOB_CENTERS, 1.0, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_needs_centers(self):
        with pytest.raises(ValueError):
            gen_blobs(10, [], 1.0, seed=0)

    @pytest.mark.parametrize("std, shown", [
        (-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf"),
        ((1.0, np.nan, 0.5), r"\[1.0, nan, 0.5\]"),
        ((1.0, 2.5, -0.5), r"\[1.0, 2.5, -0.5\]"),
    ])
    def test_negative_or_non_finite_std_refused(self, std, shown):
        with pytest.raises(ValueError,
                           match=f"^std must be finite and >= 0, got {shown}$"):
            gen_blobs(9, BLOB_CENTERS, std, seed=0)


class TestGenAniso:
    def test_zero_std_is_transformed_centers(self):
        ds = gen_aniso(9, seed=0, std=0.0)
        transform = np.asarray(ANISO_TRANSFORM)
        centers = np.asarray(BLOB_CENTERS) @ transform.T
        for row, label in zip(ds.matrix, ds.ground_truth):
            assert np.allclose(row, centers[label])

    def test_three_classes(self):
        assert gen_aniso(30, seed=1).num_classes == 3

    def test_cluster_covariance(self):
        ds = gen_aniso(30000, seed=2)
        transform = np.asarray(ANISO_TRANSFORM)
        expect = transform @ transform.T  # std = 1
        for c in range(3):
            rows = ds.matrix[ds.ground_truth == c]
            cov = np.cov(rows.T)
            assert np.max(np.abs(cov - expect)) < 0.06


class TestGenMoons:
    def arc_distance(self, points, labels):
        d_outer = np.abs(np.linalg.norm(points, axis=1) - 1.0)
        d_inner = np.abs(
            np.linalg.norm(points - np.array([1.0, 0.5]), axis=1) - 1.0)
        return np.where(labels == 0, d_outer, d_inner)

    def test_noiseless_points_on_arcs(self):
        ds = gen_moons(100, noise=0.0, seed=0)
        assert np.max(self.arc_distance(ds.matrix, ds.ground_truth)) <= 1e-12

    @pytest.mark.parametrize("noise, shown", [
        (-0.2, "-0.2"), (np.nan, "nan"), (np.inf, "inf")])
    def test_negative_or_non_finite_noise_refused(self, noise, shown):
        with pytest.raises(ValueError, match=f"^noise must be finite and "
                                             f">= 0, got {shown}$"):
            gen_moons(100, noise=noise, seed=0)

    def test_balanced_classes(self):
        ds = gen_moons(100, noise=0.05, seed=1)
        assert np.bincount(ds.ground_truth).tolist() == [50, 50]

    def test_kmeans_vm_stays_low(self):
        from qkmeans.clustering import ClusteringParams, run
        from qkmeans.metrics import v_measure
        ds = gen_moons(150, noise=0.05, seed=2)
        result = run(ds.matrix, ClusteringParams(k=2, seed=0, max_ite=10))
        assert v_measure(ds.ground_truth, result.labels) <= 0.6


class TestCsv:
    def test_small_numeric(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(path)
        assert ds.matrix.shape == (3, 2)
        assert ds.feature_names == ["a", "b"]

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_header_wider_than_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(ValueError,
                           match=r"t\.csv: row 1 has 2 cells, the header 3"):
            load_csv(path)

    def test_header_narrower_than_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError,
                           match=r"t\.csv: row 1 has 3 cells, the header 2"):
            load_csv(path)

    def test_non_numeric_coordinates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_label_column_by_name_and_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,cls\n1,2,x\n3,4,y\n5,6,x\n")
        ds = load_csv(path, label_column="cls")
        assert ds.ground_truth.tolist() == [0, 1, 0]
        ds2 = load_csv(path, label_column=2)
        assert ds2.ground_truth.tolist() == [0, 1, 0]
        assert ds2.feature_names == ["a", "b"]

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset("t", rng.normal(size=(20, 3)) * 1e3,
                     rng.integers(0, 2, 20).astype(np.int64))
        path = tmp_path / "t.csv"
        save_csv(ds, path)
        back = load_csv(path, label_column="label")
        assert np.array_equal(back.matrix, ds.matrix)
        assert np.array_equal(back.ground_truth, ds.ground_truth)
        assert back.feature_names == ds.feature_names == ["f0", "f1", "f2"]


class TestBundled:
    def test_iris_shape(self):
        ds = load_iris()
        assert ds.matrix.shape == (150, 4)
        assert np.bincount(ds.ground_truth).tolist() == [50, 50, 50]

    def test_wine_shape(self):
        ds = load_wine()
        assert ds.matrix.shape == (178, 13)
        assert ds.num_classes == 3


class TestSelectFeatures:
    def test_iris_named(self):
        ds = select_features(
            load_iris(),
            names=["sepal length", "petal length", "petal width"])
        assert ds.matrix.shape == (150, 3)
        assert ds.feature_names == ["sepal length", "petal length",
                                    "petal width"]

    def test_wine_top_variance(self):
        ds = select_features(load_wine(), top_variance=7)
        assert ds.matrix.shape == (178, 7)

    def test_top_variance_identity(self):
        base = load_iris()
        ds = select_features(base, top_variance=4)
        assert np.array_equal(ds.matrix, base.matrix)

    def test_order_preserved(self):
        base = Dataset("t", np.array([[1.0, 100.0, 10.0],
                                      [2.0, 200.0, 30.0],
                                      [3.0, 300.0, 50.0]]),
                       feature_names=["lo", "hi", "mid"])
        ds = select_features(base, top_variance=2)
        assert ds.feature_names == ["hi", "mid"]

    def test_unnamed_columns_are_named_by_position(self):
        base = gen_blobs(12, BLOB_CENTERS, 1.0, seed=0)
        assert base.feature_names == ["f0", "f1"]
        ds = select_features(base, names=["f1"])
        assert np.array_equal(ds.matrix, base.matrix[:, [1]])
        assert ds.feature_names == ["f1"]
        assert select_features(base, top_variance=1).feature_names in (
            ["f0"], ["f1"])

    def test_unknown_name_lists_the_columns(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown feature name(s): ['sepal width']; iris has columns "
                "['sepal length', 'petal length', 'petal width']")):
            select_features(builtin("iris"), names=["sepal width"])

    def test_errors(self):
        base = load_iris()
        with pytest.raises(ValueError):
            select_features(base, names=["nope"])
        with pytest.raises(ValueError):
            select_features(base, top_variance=5)
        with pytest.raises(ValueError):
            select_features(base)

    def test_repeated_names_refused(self):
        names = ["petal width", "sepal length", "petal width",
                 "sepal length", "petal length"]
        with pytest.raises(ValueError, match=r"^repeated feature name\(s\): "
                           r"\['petal width', 'sepal length'\]$"):
            select_features(load_iris(), names=names)

    @pytest.mark.parametrize("count", [0, -1])
    def test_top_variance_below_one(self, count):
        with pytest.raises(ValueError, match=f"got {count}"):
            select_features(load_wine(), top_variance=count)


class TestBuiltin:
    def test_registry_names(self):
        for name in ("blobs", "blobs2", "aniso", "moon", "blobs3", "iris",
                     "wine"):
            ds = builtin(name, seed=0)
            assert len(ds) > 0

    def test_blobs3_shape(self):
        ds = builtin("blobs3", seed=0)
        assert len(ds) == 16 and ds.num_classes == 2

    @pytest.mark.parametrize("name", ["blobs", "blobs3", "moon"])
    def test_explicit_m_is_kept(self, name):
        # the synthetic default size too, given explicitly
        from qkmeans.data import SYNTHETIC_SIZE
        for m in (SYNTHETIC_SIZE, 20):
            assert len(builtin(name, m=m, seed=0)) == m

    def test_iris_preselected(self):
        assert builtin("iris").matrix.shape == (150, 3)

    def test_wine_preselected(self):
        assert builtin("wine").matrix.shape == (178, 7)

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin("nope")

    @pytest.mark.parametrize("name", ["iris", "wine"])
    @pytest.mark.parametrize("override", [{"m": 5}, {"std": 1.0},
                                          {"noise": 0.1}])
    def test_real_datasets_take_no_generator_parameters(self, name,
                                                        override):
        with pytest.raises(ValueError, match="no generator parameters"):
            builtin(name, **override)

    @pytest.mark.parametrize("name, override, refused", [
        ("blobs", {"noise": 0.3}, "noise"),
        ("blobs2", {"noise": 0.3}, "noise"),
        ("aniso", {"noise": 0.3}, "noise"),
        ("blobs3", {"noise": 0.3}, "noise"),
        ("moon", {"std": 5.0}, "std"),
    ])
    def test_parameter_the_generator_ignores_is_refused(self, name, override,
                                                        refused):
        with pytest.raises(ValueError,
                           match=f"{name} takes no {refused} parameter"):
            builtin(name, seed=0, **override)

    @pytest.mark.parametrize("name, override", [
        ("blobs", {"std": 2.0}), ("blobs2", {"std": 2.0}),
        ("aniso", {"std": 2.0}), ("blobs3", {"std": 2.0}),
        ("moon", {"noise": 0.3}),
    ])
    def test_parameter_the_generator_takes_changes_the_data(self, name,
                                                            override):
        assert not np.array_equal(builtin(name, seed=0).matrix,
                                  builtin(name, seed=0, **override).matrix)

    @pytest.mark.parametrize("name, override, refused", [
        ("blobs", {"std": -1.0}, "std"),
        ("blobs2", {"std": (1.0, np.nan, 0.5)}, "std"),
        ("aniso", {"std": np.inf}, "std"),
        ("blobs3", {"std": np.nan}, "std"),
        ("moon", {"noise": -0.2}, "noise"),
        ("moon", {"noise": np.nan}, "noise"),
    ])
    def test_negative_or_non_finite_spread_refused(self, name, override,
                                                   refused):
        with pytest.raises(ValueError,
                           match=f"^{refused} must be finite and >= 0"):
            builtin(name, seed=0, **override)

    def test_subsample(self):
        ds = subsample(builtin("blobs", seed=0), 150, 3)
        assert len(ds) == 150
        assert ds.ground_truth.shape == (150,)
