import json

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

    def test_csv_dataset_input(self, runner, tmp_path):
        gen = runner.invoke(main, ["gen", "--dataset", "blobs3", "--seed",
                                   "2", "--out", str(tmp_path / "d.csv")])
        assert gen.exit_code == 0
        result = runner.invoke(main, [
            "run", "--dataset-csv", str(tmp_path / "d.csv"),
            "--label-column", "label", "--k", "2", "--analytic",
            "--algorithm", "q1k", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_error_is_machine_readable(self, runner, tmp_path):
        result = runner.invoke(main, [
            "run", "--dataset", "nope", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        err = json.loads(result.stderr.splitlines()[-1])
        assert err["error"] == "ValueError"
        assert "nope" in err["message"]


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


class TestElbowCommand:
    def test_single_k(self, runner, tmp_path):
        result = runner.invoke(main, [
            "elbow", "--dataset", "blobs3", "--algorithm", "kmeans",
            "--k-min", "2", "--k-max", "2", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "blobs3_kmeans_elbow.csv").read_text().splitlines()
        assert lines[0] == "k,sse"
        assert len(lines) == 2

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


class TestStatsCommand:
    def test_iris_q11_reference_echo(self, runner):
        result = runner.invoke(main, [
            "stats", "--dataset", "iris", "--variant", "q11", "--k", "3"])
        assert result.exit_code == 0, result.output
        row = json.loads(result.output)
        assert row["qubits"] == 4
        assert row["reference"]["qubits"] == 5
        assert row["gates"] == row["depth"] or row["gates"] >= row["depth"]

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
