import json
import warnings

import pytest
from click.testing import CliRunner

from qkmeans.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def strip_timing(artifact):
    artifact = json.loads(json.dumps(artifact))
    artifact.pop("timing", None)
    for rep in artifact.get("repetitions", []):
        rep.pop("timing", None)
    return artifact


class TestRunCommand:
    def test_blobs3_q11_analytic(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "--dataset", "blobs3", "--algorithm", "q11", "--analytic",
            "--reps", "2", "--seed", "4", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        artifact = json.loads((tmp_path / "blobs3_q11.json").read_text())
        assert artifact["schema_version"] == 1
        assert artifact["config"]["algorithm"] == "q11"
        assert len(artifact["repetitions"]) == 2
        for rep in artifact["repetitions"]:
            assert rep["metrics"]["sim"] == 100.0
        csv_lines = (tmp_path / "blobs3_q11.csv").read_text().splitlines()
        assert csv_lines[0].startswith("rep,seed,ite,sim,sse")
        assert len(csv_lines) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "blobs3_q11" in manifest["entries"]

    def test_k_over_distinct_records_named(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--algorithm", "kmeans", "--k",
            "150", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "k 150 exceeds 145 distinct records"}

    def test_classical_blobs_vm(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "--dataset", "blobs", "--m", "120", "--algorithm",
            "kmeans", "--reps", "3", "--seed", "1",
            "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        artifact = json.loads((tmp_path / "blobs_kmeans.json").read_text())
        assert artifact["aggregate"]["vm"]["median"] >= 0.9
        # classical labels agree with themselves pairwise
        for rep in artifact["repetitions"]:
            pc = rep["pair_confusion_vs_classical"]
            assert pc["fp"] == 0.0 and pc["fn"] == 0.0

    def test_classical_repetition_is_its_own_reference(self, runner,
                                                       tmp_path, monkeypatch):
        """One classical run per repetition.  The digests of the JSON,
        without its timing blocks, and of the CSV were recorded while each
        classical repetition reran the same classical run as its
        pair-confusion reference."""
        import hashlib

        from qkmeans import cli
        calls = []
        original = cli.run_clustering

        def counting(matrix, params):
            calls.append(params.seed)
            return original(matrix, params)

        monkeypatch.setattr(cli, "run_clustering", counting)
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--algorithm", "kmeans", "--reps",
            "2", "--seed", "1", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        artifact = json.loads((tmp_path / "iris_kmeans.json").read_text())
        assert calls == [rep["seed"] for rep in artifact["repetitions"]]
        body = json.dumps(strip_timing(artifact), sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest() == (
            "53d642d253a4b16fd883145c77fb1f99a063d279f7c1c908dfffcf499a2ea377")
        csv = (tmp_path / "iris_kmeans.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "da0010850908437b8b975fbdfeed65a5731be9ba7d5aaefd280e568d6f94b1b9")

    def test_other_repetitions_take_a_classical_reference(self, runner,
                                                          tmp_path,
                                                          monkeypatch):
        from qkmeans import cli
        strategies = []
        original = cli.run_clustering

        def counting(matrix, params):
            strategies.append((params.assignment.value, params.analytic))
            return original(matrix, params)

        monkeypatch.setattr(cli, "run_clustering", counting)
        result = runner.invoke(main, [
            "run", "--dataset", "blobs3", "--algorithm", "q1k", "--analytic",
            "--reps", "2", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert strategies == [("q1k", True), ("classical", False)] * 2

    def test_deterministic_reruns(self, runner, tmp_path):
        args = ["run", "--dataset", "blobs3", "--algorithm", "qmk",
                "--m1", "4", "--shots", "64", "--reps", "2", "--seed", "9"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out-dir", str(a_dir)]
                             ).exit_code == 0
        assert runner.invoke(main, args + ["--out-dir", str(b_dir)]
                             ).exit_code == 0
        csv_a = (a_dir / "blobs3_qmk.csv").read_bytes()
        assert csv_a == (b_dir / "blobs3_qmk.csv").read_bytes()
        art_a = json.loads((a_dir / "blobs3_qmk.json").read_text())
        art_b = json.loads((b_dir / "blobs3_qmk.json").read_text())
        assert strip_timing(art_a) == strip_timing(art_b)

    def test_jobs_match_serial(self, runner, tmp_path):
        args = ["run", "--dataset", "blobs3", "--algorithm", "q1k",
                "--shots", "128", "--reps", "2", "--seed", "3"]
        a_dir, b_dir = tmp_path / "serial", tmp_path / "pool"
        assert runner.invoke(main, args + ["--out-dir", str(a_dir)]
                             ).exit_code == 0
        assert runner.invoke(main, args + ["--jobs", "2",
                                           "--out-dir", str(b_dir)]
                             ).exit_code == 0
        assert ((a_dir / "blobs3_q1k.csv").read_bytes()
                == (b_dir / "blobs3_q1k.csv").read_bytes())
        serial, pool = (json.loads((out / "blobs3_q1k.json").read_text())
                        for out in (a_dir, b_dir))
        assert strip_timing(serial) == strip_timing(pool)

    def test_csv_dataset_input(self, runner, tmp_path):
        gen = runner.invoke(main, ["gen", "--dataset", "blobs3", "--seed",
                                   "2", "--out", str(tmp_path / "d.csv")])
        assert gen.exit_code == 0
        result = runner.invoke(main, [
            "run", "--dataset-csv", str(tmp_path / "d.csv"),
            "--label-column", "label", "--k", "2", "--analytic",
            "--algorithm", "q1k", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_header_width_mismatch_is_machine_readable(self, runner,
                                                      tmp_path):
        csv_path = tmp_path / "h.csv"
        csv_path.write_text("a,b,c\n1,2\n3,4\n5,6\n")
        result = runner.invoke(main, [
            "stats", "--dataset-csv", str(csv_path), "--features", "c",
            "--k", "2"])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert err["message"].endswith("h.csv: row 1 has 2 cells, "
                                       "the header 3")
        assert result.stdout == ""

    def test_error_is_machine_readable(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "--dataset", "nope", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "nope" in err["message"]

    def test_nan_sc_thresh_refused(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--sc-thresh", "nan",
            "--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "sc_thresh must be > 0, got nan" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_top_variance_below_one(self, runner, tmp_path, count):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset", "wine", "--top-variance", count,
            "--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert f"top_variance must be >= 1, got {count}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "iris"],
        ["elbow", "--dataset", "iris", "--k-min", "2", "--k-max", "2"],
        ["stats", "--dataset", "iris", "--variant", "q11", "--k", "3"],
    ])
    def test_features_with_top_variance(self, runner, tmp_path, command):
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + [
            "--features", "sepal length,petal width", "--top-variance", "0",
            *extra])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "exactly one of names / top_variance" in err["message"]
        assert not out.exists()

    def test_nine_feature_silhouette_matches_reference(self, runner,
                                                       tmp_path):
        import numpy as np
        from qkmeans.clustering import ClusteringParams, run
        from qkmeans.data import Dataset, load_csv, save_csv
        from qkmeans.encoding import standardize
        from reference_impls import silhouette_sorted_reference
        # 150 records: enough that a left-to-right sum over the 9 columns
        # changes the score's last bits
        rng = np.random.default_rng(1)
        centers = rng.normal(scale=4.0, size=(3, 9))
        truth = rng.integers(0, 3, 150)
        matrix = centers[truth] + rng.normal(size=(150, 9))
        csv_path = tmp_path / "nine.csv"
        save_csv(Dataset("nine", matrix, truth, None), csv_path)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset-csv", str(csv_path), "--label-column", "label",
            "--algorithm", "kmeans", "--reps", "2", "--seed", "3",
            "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        [json_path] = out.glob("*_kmeans.json")
        artifact = json.loads(json_path.read_text())
        assert artifact["config"]["dataset"]["features"] == 9
        ds = load_csv(csv_path, label_column="label")
        std = standardize(ds.matrix)
        for rep in artifact["repetitions"]:
            labels = run(ds.matrix, ClusteringParams(k=3, seed=rep["seed"])
                         ).labels
            assert rep["metrics"]["sil"] == silhouette_sorted_reference(
                std, labels)

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "iris", "--algorithm", "q1k"],
        ["elbow", "--dataset", "iris", "--algorithm", "q1k", "--k-min", "2",
         "--k-max", "2", "--seeds-per-k", "1"],
    ])
    def test_estimation_failure_is_machine_readable(self, runner, tmp_path,
                                                    command):
        # one shot per centroid, four times that on retry: some q1:k row
        # keeps none (q11 at such counts is refused before iteration 1)
        out = tmp_path / "out"
        result = runner.invoke(main, command + ["--shots", "1",
                                                "--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "EstimationFailure"
        assert not out.exists()

    def test_estimation_failure_names_the_remedy(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--algorithm", "q1k", "--shots", "1",
            "--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "EstimationFailure"
        assert err["message"].startswith("iteration ")
        assert "of 150 rows of a pass" in err["message"]
        assert "12 shots per row" in err["message"]
        assert "larger shots_base" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "iris", "--algorithm", "q11", "--shots", "4"],
        ["elbow", "--dataset", "iris", "--algorithm", "q11", "--k-min", "2",
         "--k-max", "3", "--seeds-per-k", "1", "--shots", "4"],
    ])
    def test_hopeless_q11_shots_refused_up_front(self, runner, tmp_path,
                                                 command):
        # iris at 4 shots: 2,250 rows of a 5-iteration run expect about 7
        # rows empty after their redraw; 11 shots expect under 1e-3
        out = tmp_path / "out"
        result = runner.invoke(main, command + ["--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert err["message"].startswith("shots_base 4 is too small for "
                                         "sampled q11")
        assert "use shots_base >= 11" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--k", "2"],
        ["elbow", "--k-min", "2", "--k-max", "2"],
        ["stats", "--k", "2"],
    ])
    def test_sample_over_the_record_count_refused(self, runner, tmp_path,
                                                  command):
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + [
            "--dataset", "blobs", "--m", "10", "--sample", "11", *extra])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err == {"error": "ValueError",
                       "message": "cannot sample 11 of 10 records"}
        assert not out.exists()

    def test_sample_of_the_record_count_keeps_the_data_whole(self, runner,
                                                             tmp_path):
        args = ["run", "--dataset", "blobs", "--m", "10", "--k", "2",
                "--reps", "2", "--seed", "3"]
        whole, sampled = tmp_path / "whole", tmp_path / "sampled"
        assert runner.invoke(main, args + ["--out-dir", str(whole)]
                             ).exit_code == 0
        assert runner.invoke(main, args + ["--sample", "10",
                                           "--out-dir", str(sampled)]
                             ).exit_code == 0
        assert ((whole / "blobs_kmeans.csv").read_bytes()
                == (sampled / "blobs_kmeans.csv").read_bytes())
        a, b = (strip_timing(json.loads((out / "blobs_kmeans.json")
                                        .read_text()))
                for out in (whole, sampled))
        assert b["config"]["dataset"].pop("sample") == 10
        assert a["config"]["dataset"].pop("sample") is None
        assert a == b

    def test_stats_draws_no_shots_so_is_not_shot_bounded(self, runner,
                                                         tmp_path):
        # 300 features fill 512 slots: at the default 1024 shots, 100
        # records and k 2 would expect 0.045 rows empty in a sampled run
        import numpy as np
        rng = np.random.default_rng(2)
        csv_path = tmp_path / "wide.csv"
        header = ",".join(f"f{j}" for j in range(300))
        rows = [",".join(f"{v:.6f}" for v in row)
                for row in rng.normal(size=(100, 300))]
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        result = runner.invoke(main, [
            "stats", "--dataset-csv", str(csv_path), "--variant", "q11",
            "--k", "2"])
        assert result.exit_code == 0, result.output
        row = json.loads(result.stdout)
        assert row["variant"] == "q11" and row["qubits"] > 0


class TestNonFiniteRecords:
    """A CSV cell of nan or inf is refused, naming its row and column,
    before any iteration and before any output."""

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["run", "--k", "1"],
        ["run", "--k", "2"],
        ["run", "--k", "2", "--algorithm", "qmk", "--analytic"],
        ["elbow", "--k-min", "1", "--k-max", "2", "--seeds-per-k", "1"],
        ["stats", "--variant", "q1k", "--k", "2"],
    ])
    def test_refused_with_row_and_column(self, runner, tmp_path, command,
                                         cell):
        csv_path = tmp_path / "records.csv"
        rows = [f"{r}.5,{r * r}.25" for r in range(6)]
        rows[4] = f"4.5,{cell}"
        csv_path.write_text("a,b\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + [
            "--dataset-csv", str(csv_path), *extra])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert f"row 4, column 1 holds {cell}" in err["message"]
        assert not out.exists()
        assert result.stdout == ""


class TestOverflowingColumn:
    """Finite records too large to standardize are refused by column
    before any iteration and any output, with no numpy warning."""

    def test_refused_by_column(self, runner, tmp_path):
        csv_path = tmp_path / "x.csv"
        assert runner.invoke(main, [
            "gen", "--dataset", "blobs", "--m", "6", "--std", "1e308",
            "--out", str(csv_path)]).exit_code == 0
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "run", "--dataset-csv", str(csv_path), "--label-column",
                "label", "--algorithm", "kmeans", "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines() == [json.dumps(
            {"error": "ValueError", "message": "column 0 is too large to "
             "standardize: its variance overflows float64"})]
        assert result.stdout == ""
        assert not out.exists()


class TestNoFeatureColumn:
    """A CSV holding only its label column is refused by name, before any
    iteration and before any output."""

    @pytest.mark.parametrize("command", [
        ["run", "--k", "2"],
        ["run", "--k", "2", "--algorithm", "q1k", "--analytic"],
        ["elbow", "--k-min", "2", "--k-max", "2", "--seeds-per-k", "1"],
        ["stats", "--variant", "q11", "--k", "2"],
    ])
    def test_refused(self, runner, tmp_path, command):
        csv_path = tmp_path / "labels.csv"
        csv_path.write_text("label\n0\n1\n0\n1\n")
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + [
            "--dataset-csv", str(csv_path), "--label-column", "label",
            *extra])
        assert result.exit_code == 1, result.output
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "the records have no feature column"}
        assert not out.exists()
        assert result.stdout == ""


class TestFeatureNames:
    def test_unknown_name_lists_the_columns(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--features", "sepal width",
            "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "unknown feature name(s): ['sepal width']; iris has "
                       "columns ['sepal length', 'petal length', "
                       "'petal width']"}
        assert not out.exists()

    def test_generated_columns_by_their_csv_names(self, runner, tmp_path):
        """A synthetic dataset's columns take the names that ``gen`` writes
        into its CSV, and select the same records either way."""
        csv_path = tmp_path / "blobs.csv"
        assert runner.invoke(main, [
            "gen", "--dataset", "blobs", "--m", "40", "--seed", "3",
            "--out", str(csv_path)]).exit_code == 0
        assert csv_path.read_text().splitlines()[0] == "f0,f1,label"
        common = ["--features", "f1", "--k", "3", "--seed", "3"]
        built, read = tmp_path / "built", tmp_path / "read"
        for source, out in ((["--dataset", "blobs", "--m", "40"], built),
                            (["--dataset-csv", str(csv_path),
                              "--label-column", "label"], read)):
            result = runner.invoke(main, ["run", *source, *common,
                                          "--out-dir", str(out)])
            assert result.exit_code == 0, result.output
        a = strip_timing(json.loads((built / "blobs_kmeans.json").read_text()))
        b = strip_timing(json.loads((read / "blobs_kmeans.json").read_text()))
        assert a["config"]["dataset"]["features"] == 1
        assert a["repetitions"] == b["repetitions"]


class TestDatasetFlagsThatDoNotApply:
    """A dataset flag that does not apply to the chosen source is refused,
    naming the flag and the source, before any work and any output."""

    @staticmethod
    def _refused(runner, tmp_path, command, message):
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + extra)
        assert result.exit_code == 1, result.output
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "ValueError", "message": message}
        assert not out.exists()
        assert result.stdout == ""

    @pytest.mark.parametrize("command", [
        ["run", "--k", "2"],
        ["elbow", "--k-min", "2", "--k-max", "2"],
        ["stats", "--k", "2"],
    ])
    def test_m_with_a_csv(self, runner, tmp_path, command):
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("a,b\n" + "".join(f"{r}.5,{r * r}.25\n"
                                              for r in range(6)))
        self._refused(runner, tmp_path, command + [
            "--dataset-csv", str(csv_path), "--m", "100"],
            f"--m applies to a synthetic --dataset, not to --dataset-csv "
            f"{csv_path}")

    @pytest.mark.parametrize("label", ["species", "nope"])
    @pytest.mark.parametrize("command", [
        ["run", "--k", "3"],
        ["elbow", "--k-min", "2", "--k-max", "2"],
        ["stats", "--k", "3"],
    ])
    def test_label_column_with_a_builtin(self, runner, tmp_path, command,
                                         label):
        self._refused(runner, tmp_path, command + [
            "--dataset", "iris", "--label-column", label],
            "--label-column applies to --dataset-csv, not to --dataset iris")


class TestRepeatedFeatures:
    def test_refused_naming_the_name(self, runner, tmp_path):
        from pathlib import Path

        import qkmeans
        iris = Path(qkmeans.__file__).parent / "datasets" / "iris.csv"
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset-csv", str(iris),
            "--label-column", "species", "--features",
            "sepal length,sepal length", "--algorithm", "q1k",
            "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert json.loads(result.stderr.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "repeated feature name(s): ['sepal length']"}
        assert not out.exists()


class TestShotsNumpyCannotDraw:
    def test_refused_before_any_output(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "run", "--dataset", "iris", "--algorithm", "q1k", "--shots",
            str(2 ** 62), "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.stderr.count("\n") == 1
        err = json.loads(result.stderr)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"shots_base {2 ** 62} is too large "
                                         f"for sampled q1k")
        assert err["message"].endswith(
            f"use shots_base <= {(2 ** 63 - 1) // 12}")
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "iris", "--algorithm", "q11"],
        ["elbow", "--dataset", "iris", "--k-min", "2", "--k-max", "2"],
    ])
    def test_rejected_before_any_work(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, command + ["--seed", "-1",
                                                "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "--seed" in result.output
        assert not out.exists()


class TestSeedAboveRange:
    """Seeds are key parts of derive_seed, which takes them below 2^64:
    every command refuses a larger one as a usage error."""

    @pytest.mark.parametrize("command", [
        ["run", "--dataset", "iris", "--algorithm", "q1k"],
        ["run", "--dataset", "iris", "--algorithm", "kmeans"],
        ["elbow", "--dataset", "iris", "--k-min", "2", "--k-max", "2"],
        ["postselect", "--slots", "4"],
        ["stats", "--dataset", "iris", "--variant", "q11", "--k", "3"],
        ["gen", "--dataset", "blobs3"],
    ])
    def test_rejected_before_any_output(self, runner, tmp_path, command):
        out = tmp_path / "out"
        extra = {"stats": [], "gen": ["--out", str(out)]}.get(
            command[0], ["--out-dir", str(out)])
        result = runner.invoke(main, command + ["--seed", str(2 ** 64),
                                                *extra])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
        assert not out.exists()

    def test_every_seed_option_stops_below_2_64(self):
        import click
        seeds = [param.type for command in main.commands.values()
                 for param in command.params if param.opts[0] == "--seed"]
        assert len(seeds) == len(main.commands)
        for seed in seeds:
            assert isinstance(seed, click.IntRange)
            assert (seed.min, seed.max) == (0, 2 ** 64 - 1)
            assert not seed.max_open


class TestCountsBelowOne:
    """Every count option below 1, and --slots below 2, is a usage error,
    refused before any work and before any output."""

    @pytest.mark.parametrize("command, option, value", [
        (["run", "--dataset", "blobs3"], "--jobs", "0"),
        (["run", "--dataset", "blobs3"], "--jobs", "-3"),
        (["elbow", "--dataset", "blobs3", "--k-min", "2", "--k-max", "2"],
         "--seeds-per-k", "0"),
        (["run", "--dataset", "iris"], "--sample", "0"),
        (["run", "--dataset", "iris"], "--sample", "-5"),
        (["run", "--dataset", "blobs"], "--m", "0"),
        (["run", "--dataset", "blobs"], "--m", "-3"),
        (["elbow", "--dataset", "blobs", "--k-min", "2", "--k-max", "2"],
         "--m", "0"),
        (["elbow", "--dataset", "iris", "--k-min", "2", "--k-max", "2"],
         "--sample", "0"),
        (["stats", "--dataset", "iris", "--variant", "q11", "--k", "3"],
         "--sample", "0"),
        (["stats", "--dataset", "blobs", "--variant", "q11", "--k", "3"],
         "--m", "-3"),
        (["run", "--dataset", "blobs3"], "--reps", "0"),
        (["run", "--dataset", "blobs3"], "--reps", "-2"),
        (["postselect", "--slots", "4"], "--k", "0"),
        (["postselect", "--slots", "4", "--k", "2"], "--m-min", "0"),
        (["run", "--dataset", "iris", "--algorithm", "q11"], "--shots", "0"),
        (["run", "--dataset", "iris"], "--max-ite", "0"),
        (["run", "--dataset", "iris"], "--k", "0"),
        (["run", "--dataset", "iris", "--algorithm", "qmk"], "--m1", "0"),
        (["elbow", "--dataset", "iris"], "--k-min", "0"),
        (["elbow", "--dataset", "iris", "--k-min", "1"], "--k-max", "0"),
        (["stats", "--dataset", "iris", "--variant", "q1k"], "--k", "0"),
        (["stats", "--dataset", "iris", "--variant", "qmk"], "--m1", "0"),
        (["postselect", "--slots", "4"], "--m-max", "0"),
        (["postselect", "--k", "2"], "--slots", "1"),
    ])
    def test_rejected_before_any_output(self, runner, tmp_path, command,
                                        option, value):
        out = tmp_path / "out"
        extra = [] if command[0] == "stats" else ["--out-dir", str(out)]
        result = runner.invoke(main, command + [option, value, *extra])
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)
        assert not out.exists()


class TestOptionTypes:
    def test_every_integer_option_has_a_floor(self):
        import click
        floors = {"--seed": 0, "--slots": 2}
        checked = 0
        for command in main.commands.values():
            for param in command.params:
                if not isinstance(param.type, click.types.IntParamType):
                    continue
                name = param.opts[0]
                if name == "--top-variance":
                    # exempt: select_features refuses it with a message
                    # that the tests pin ("top_variance must be >= 1"),
                    # and it conflicts with --features whatever its value
                    continue
                where = f"{command.name} {name}"
                assert isinstance(param.type, click.IntRange), where
                assert param.type.min == floors.get(name, 1), where
                assert not param.type.min_open, where
                checked += 1
        assert checked >= 20


class TestOutputErrors:
    @pytest.mark.parametrize("command, option", [
        (["run", "--dataset", "blobs3"], "--out-dir"),
        (["elbow", "--dataset", "blobs3", "--k-min", "2", "--k-max", "2"],
         "--out-dir"),
        (["postselect", "--m-max", "2"], "--out-dir"),
        (["gen", "--dataset", "blobs3"], "--out"),
    ])
    def test_unwritable_path_is_machine_readable(self, runner, tmp_path,
                                                 command, option):
        import builtins
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = runner.invoke(main, command + [option,
                                                str(blocker / "sub")])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert issubclass(getattr(builtins, err["error"]), OSError), err
        assert blocker.read_text() == ""


class TestElbowCommand:
    def test_single_k(self, runner, tmp_path):
        result = runner.invoke(main, [
            "elbow", "--dataset", "blobs3", "--algorithm", "kmeans",
            "--k-min", "2", "--k-max", "2", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "blobs3_kmeans_elbow.csv").read_text().splitlines()
        assert lines[0] == "k,sse"
        assert len(lines) == 2

    def test_k_is_refused(self, runner, tmp_path):
        # elbow sweeps k itself; a --k it would ignore is an error
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "elbow", "--dataset", "blobs3", "--k", "7", "--k-min", "2",
            "--k-max", "2", "--out-dir", str(out)])
        assert result.exit_code == 2
        assert "--k" in result.output
        assert not out.exists()

    def test_widest_k_refused_before_any_run(self, runner, tmp_path,
                                             monkeypatch):
        # iris qmk at m1 16: 10 qubits up to k 4, 11 from k 5 on
        from qkmeans import metrics, simulator
        monkeypatch.setattr(simulator, "MAX_QUBITS", 10)
        run, runs = metrics.run, []

        def counted(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(metrics, "run", counted)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "elbow", "--dataset", "iris", "--algorithm", "qmk", "--m1", "16",
            "--analytic", "--k-min", "2", "--k-max", "8", "--seeds-per-k",
            "2", "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "11 qubits" in err["message"]
        assert runs == []
        assert not out.exists()

    def test_k_over_distinct_records_refused_before_any_run(
            self, runner, tmp_path, monkeypatch):
        from qkmeans import metrics
        run, runs = metrics.run, []

        def counted(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(metrics, "run", counted)
        source = tmp_path / "dupes.csv"
        rows = ["0,0", "0,3", "4,0", "4,3"] * 2  # 8 records, 4 distinct
        source.write_text("a,b\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "elbow", "--dataset-csv", str(source), "--k-min", "2",
            "--k-max", "6", "--seeds-per-k", "2", "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "k 6" in err["message"] and "4 distinct" in err["message"]
        assert runs == []
        assert not out.exists()

    def test_k_max_over_m(self, runner, tmp_path):
        result = runner.invoke(main, [
            "elbow", "--dataset", "blobs3", "--k-max", "99",
            "--out-dir", str(tmp_path)])
        assert result.exit_code == 1


class TestPostselectCommand:
    def test_sweep_properties(self, runner, tmp_path):
        result = runner.invoke(main, [
            "postselect", "--slots", "4", "--k", "2", "--m-min", "1",
            "--m-max", "16", "--seed", "0", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "postselect_slots4_k2.csv"
                ).read_text().splitlines()[1:]
        table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        theoretical = 0.25
        for m, p in table.items():
            if m & (m - 1) == 0:
                assert p == pytest.approx(theoretical, abs=1e-10)
            else:
                assert p < theoretical - 1e-12

    def test_bad_slots(self, runner, tmp_path):
        result = runner.invoke(main, [
            "postselect", "--slots", "3", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("args, named", [
        (["--m-min", "5", "--m-max", "2"], "--m-max"),
        # 2 + 2 index + 22 batch + 1 cluster = 27 qubits
        (["--m-max", str(2 ** 21 + 1)], "27 qubits"),
    ])
    def test_rejected_before_any_output(self, runner, tmp_path, args, named):
        out = tmp_path / "out"
        result = runner.invoke(main, ["postselect", "--slots", "4", "--k", "2",
                                      *args, "--out-dir", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert named in err["message"]
        assert not out.exists()

    def test_qubit_limit_follows_simulator(self, runner, tmp_path,
                                           monkeypatch):
        # 1 ancilla + 2 index + 4 batch + 1 register + 1 cluster = 9 qubits
        from qkmeans import simulator
        monkeypatch.setattr(simulator, "MAX_QUBITS", 6)
        out = tmp_path / "out"
        result = runner.invoke(main, ["postselect", "--slots", "4", "--k",
                                      "2", "--m-max", "16", "--out-dir",
                                      str(out)])
        assert result.exit_code == 1, result.output
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "--m-max 16 needs 9 qubits" in err["message"]
        assert not out.exists()


class TestStatsCommand:
    def test_iris_q11_reference_echo(self, runner):
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", "q11", "--k", "3"])
        assert result.exit_code == 0, result.output
        row = json.loads(result.output)
        assert row["qubits"] == 4
        assert row["reference"]["qubits"] == 5
        # gates - depth = len(layout.hadamards) - 1: q1:1's 3 leading H
        # gates take one layer, and every other gate a layer of its own
        assert row["gates"] - row["depth"] == 3 - 1

    def test_qmk_m1_1_k_1_equals_q11(self, runner):
        base = runner.invoke(main, [
            "stats", "--dataset", "blobs3", "--variant", "q11", "--k", "1",
            "--seed", "5"])
        degenerate = runner.invoke(main, [
            "stats", "--dataset", "blobs3", "--variant", "qmk", "--k", "1",
            "--m1", "1", "--seed", "5"])
        a, b = json.loads(base.output), json.loads(degenerate.output)
        assert (a["qubits"], a["gates"], a["depth"]) == \
            (b["qubits"], b["gates"], b["depth"])

    @pytest.mark.parametrize("variant,extra,expect", [
        ("q11", [], (4, 12, 10)),
        ("q1k", [], (6, 22, 18)),
        ("qmk", ["--m1", "150"], (14, 626, 614)),
    ])
    def test_iris_k3_figures(self, runner, variant, extra, expect):
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", variant, "--k", "3",
            *extra])
        assert result.exit_code == 0, result.output
        row = json.loads(result.output)
        assert (row["qubits"], row["gates"], row["depth"]) == expect

    def test_m1_out_of_range(self, runner):
        # iris has 150 records: a wider batch register would be built for
        # records that are not there
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", "qmk", "--m1", "151"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("variant", ["q11", "q1k"])
    def test_m1_out_of_range_for_every_variant(self, runner, variant):
        # refused as run refuses it, though one q11/q1k circuit loads 1
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", variant, "--m1",
            "999"])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert "m1 must be in [1, 150]" in err["message"]

    def test_qubit_limit_follows_simulator(self, runner, monkeypatch):
        # iris qmk k 3 over all 150 records: 14 qubits
        from qkmeans import simulator
        monkeypatch.setattr(simulator, "MAX_QUBITS", 10)
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", "qmk", "--k", "3"])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "needs 14 qubits" in err["message"]
        assert "MAX_QUBITS = 10" in err["message"]

    def test_iris_qmk_full(self, runner):
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", "qmk", "--k", "3",
            "--m1", "150"])
        row = json.loads(result.output)
        assert row["qubits"] == 1 + 2 + 8 + 1 + 2
        assert row["reference"]["qubits"] == 23


class TestGenCommand:
    def test_blobs3_csv(self, runner, tmp_path):
        out = tmp_path / "b3.csv"
        result = runner.invoke(main, ["gen", "--dataset", "blobs3",
                                      "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 17
        labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert labels == {"0", "1"}

    def test_parameter_the_generator_ignores_is_refused(self, runner,
                                                        tmp_path):
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["gen", "--dataset", "moon", "--std",
                                      "5", "--out", str(out)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert err["message"].startswith("moon takes no std parameter")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["moon", "--noise", "-0.2"], "noise must be finite and >= 0, got -0.2"),
        (["moon", "--noise", "nan"], "noise must be finite and >= 0, got nan"),
        (["blobs", "--std", "nan"], "std must be finite and >= 0, got nan"),
        (["blobs", "--std", "-1"], "std must be finite and >= 0, got -1.0"),
        (["blobs2", "--std", "inf"], "std must be finite and >= 0, got inf"),
    ])
    def test_negative_or_non_finite_spread_refused(self, runner, tmp_path,
                                                   args, message):
        out = tmp_path / "g.csv"
        result = runner.invoke(main, ["gen", "--dataset", *args,
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines() == [json.dumps(
            {"error": "ValueError", "message": message})]
        assert result.stdout == ""
        assert not out.exists()

    def test_same_seed_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert runner.invoke(main, ["gen", "--dataset", "moon",
                                        "--m", "40", "--seed", "7",
                                        "--out", str(path)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noiseless_moons_on_arcs(self, runner, tmp_path):
        import numpy as np
        from qkmeans.data import load_csv
        out = tmp_path / "m.csv"
        result = runner.invoke(main, ["gen", "--dataset", "moon", "--m",
                                      "30", "--noise", "0", "--seed", "0",
                                      "--out", str(out)])
        assert result.exit_code == 0
        ds = load_csv(out, label_column="label")
        outer = np.abs(np.linalg.norm(ds.matrix[ds.ground_truth == 0],
                                      axis=1) - 1)
        inner = np.abs(np.linalg.norm(
            ds.matrix[ds.ground_truth == 1] - np.array([1.0, 0.5]),
            axis=1) - 1)
        assert max(np.max(outer), np.max(inner)) <= 1e-12
