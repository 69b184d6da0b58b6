"""Experiment harness: clustering runs, elbow sweeps, post-selection sweeps,
circuit complexity tables and dataset generation.

Every command is seeded and writes machine-readable CSV/JSON only (plotting
is left to external tools).  Results land in an output directory together
with a manifest; rerunning with identical flags reproduces identical result
content (wall-clock timings are reported in a separate ``timing`` block).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import data as datasets
from .circuits import build_qc3, circuit_stats, postselection_probability
from .clustering import (
    ClusteringParams,
    Strategy,
    derive_seed,
    kmeanspp_init,
    run as run_clustering,
)
from .encoding import prepare_vectors, standardize
from .metrics import elbow as elbow_sweep
from .metrics import pair_confusion, summarize_run

SCHEMA_VERSION = 1

# Seeds are mixed into derived seeds as 63-bit words, where a negative seed
# would alias a positive one; every --seed is refused below 0 up front.
SEED = click.IntRange(min=0)

ALGORITHMS = {
    "kmeans": Strategy.CLASSICAL,
    "delta": Strategy.DELTA,
    "q11": Strategy.Q11,
    "q1k": Strategy.Q1K,
    "qmk": Strategy.QMK,
}

# Externally reported complexity figures for the iris (k=3, M1=M=150)
# configuration; echoed next to ours for comparison, never asserted equal.
REFERENCE_COMPLEXITY_IRIS_K3 = {
    "q11": {"qubits": 5, "gates": 53, "depth": 41, "shots": 1024},
    "q1k": {"qubits": 9, "gates": 111, "depth": 83, "shots": 3072},
    "qmk": {"qubits": 23, "gates": 5065, "depth": 3064, "shots": 460800},
}


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(1)


def _dataset_options(fn):
    fn = click.option("--dataset", default=None,
                      help="Built-in dataset name (blobs, blobs2, aniso, "
                           "moon, blobs3, iris, wine).")(fn)
    fn = click.option("--dataset-csv", type=click.Path(exists=True),
                      default=None, help="Load records from a CSV instead.")(fn)
    fn = click.option("--label-column", default=None,
                      help="Ground-truth column of --dataset-csv.")(fn)
    fn = click.option("--features", default=None,
                      help="Comma-separated feature names to keep.")(fn)
    fn = click.option("--top-variance", type=int, default=None,
                      help="Keep this many highest-variance features.")(fn)
    fn = click.option("--m", type=int, default=None,
                      help="Synthetic dataset size.")(fn)
    fn = click.option("--sample", type=int, default=None,
                      help="Random subsample size.")(fn)
    return fn


def _resolve_dataset(dataset, dataset_csv, label_column, features,
                     top_variance, m, sample, seed) -> datasets.Dataset:
    if (dataset is None) == (dataset_csv is None):
        raise ValueError("provide exactly one of --dataset / --dataset-csv")
    if dataset is not None:
        ds = datasets.builtin(dataset, m=m, seed=seed)
    else:
        label = label_column
        if label is not None and label.isdigit():
            label = int(label)
        ds = datasets.load_csv(dataset_csv, label_column=label)
    if features is not None:
        ds = datasets.select_features(ds, names=[f.strip() for f in
                                                 features.split(",")])
    elif top_variance is not None:
        ds = datasets.select_features(ds, top_variance=top_variance)
    if sample is not None and sample < len(ds):
        ds = datasets.subsample(ds, sample, derive_seed(seed, 0x5A))
    return ds


def _default_k(ds: datasets.Dataset, k: int | None) -> int:
    if k is not None:
        return k
    if ds.num_classes is not None:
        return ds.num_classes
    raise ValueError("dataset has no ground truth; pass --k explicitly")


def _params_options(fn):
    fn = click.option("--k", type=int, default=None,
                      help="Number of clusters (default: #classes).")(fn)
    fn = click.option("--shots", type=int, default=1024, show_default=True,
                      help="Base shot count t (scaled by k and M1 for the "
                           "multi-vector circuits).")(fn)
    fn = click.option("--m1", type=int, default=None,
                      help="Records per circuit for qmk (default: all).")(fn)
    fn = click.option("--delta", type=float, default=0.0, show_default=True,
                      help="Noise radius for the delta algorithm.")(fn)
    fn = click.option("--sc-thresh", type=float, default=1e-4,
                      show_default=True)(fn)
    fn = click.option("--max-ite", type=int, default=5, show_default=True)(fn)
    fn = click.option("--analytic", is_flag=True,
                      help="Exact probabilities instead of sampled shots.")(fn)
    return fn


def _build_params(algorithm, k, shots, m1, delta, sc_thresh, max_ite,
                  analytic, seed) -> ClusteringParams:
    return ClusteringParams(
        k=k, assignment=ALGORITHMS[algorithm], shots_base=shots,
        sc_thresh=sc_thresh, max_ite=max_ite, m1=m1, seed=seed, delta=delta,
        analytic=analytic,
    )


def _repetition_task(payload):
    matrix, truth, params_dict, rep_seed = payload
    params = ClusteringParams(**params_dict)
    params = dataclasses.replace(params, seed=rep_seed)
    started = time.perf_counter()
    result = run_clustering(matrix, params)
    cluster_seconds = time.perf_counter() - started

    started = time.perf_counter()
    report = summarize_run(matrix, result, truth)
    classical = dataclasses.replace(params, assignment=Strategy.CLASSICAL,
                                    analytic=False)
    reference = run_clustering(matrix, classical)
    confusion = pair_confusion(reference.labels, result.labels)
    metrics_seconds = time.perf_counter() - started

    return {
        "seed": rep_seed,
        "metrics": {
            "ite": report.n_ite,
            "sim": report.avg_similarity,
            "sse": report.sse,
            "sil": report.silhouette,
            "vm": report.v_measure,
        },
        "converged": result.converged,
        "pair_confusion_vs_classical": dataclasses.asdict(confusion),
        "timing": {"cluster_seconds": cluster_seconds,
                   "metrics_seconds": metrics_seconds},
    }


def _aggregate(repetitions):
    out = {}
    for key in ("ite", "sim", "sse", "sil", "vm"):
        values = [rep["metrics"][key] for rep in repetitions
                  if rep["metrics"][key] is not None]
        if values:
            out[key] = {"mean": float(statistics.fmean(values)),
                        "median": float(statistics.median(values))}
        else:
            out[key] = None
    return out


def _write_manifest(out_dir: Path, stem: str, command: str, files):
    manifest_path = out_dir / "manifest.json"
    manifest = {"schema_version": SCHEMA_VERSION, "entries": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest["entries"][stem] = {"command": command,
                                 "files": [f.name for f in files]}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")


@click.group()
def main():
    """Hybrid quantum k-Means experiment harness."""


@main.command("run")
@_dataset_options
@_params_options
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)),
              default="kmeans", show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--reps", type=int, default=1, show_default=True,
              help="Independent seeded repetitions.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for the repetitions.")
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_run(dataset, dataset_csv, label_column, features, top_variance, m,
            sample, k, shots, m1, delta, sc_thresh, max_ite, analytic,
            algorithm, seed, reps, jobs, out_dir):
    """Run seeded clustering repetitions and write a JSON artifact + CSV."""
    try:
        if reps < 1:
            raise ValueError("--reps must be >= 1")
        started = time.perf_counter()
        ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                              top_variance, m, sample, seed)
        k = _default_k(ds, k)
        params = _build_params(algorithm, k, shots, m1, delta, sc_thresh,
                               max_ite, analytic, seed)
        params.validate(*ds.matrix.shape)
        dataset_seconds = time.perf_counter() - started

        params_dict = dataclasses.asdict(params)
        payloads = [
            (ds.matrix, ds.ground_truth, params_dict,
             derive_seed(seed, 0x5EED, rep))
            for rep in range(reps)
        ]
        if jobs > 1:
            with multiprocessing.Pool(jobs) as pool:
                repetitions = pool.map(_repetition_task, payloads)
        else:
            repetitions = [_repetition_task(p) for p in payloads]

        config = {
            "dataset": {"name": ds.name, "records": len(ds),
                        "features": ds.num_features, "sample": sample,
                        "source": dataset or dataset_csv},
            "algorithm": algorithm,
            "params": {key: (value.value if isinstance(value, Strategy)
                             else value)
                       for key, value in params_dict.items()},
            "reps": reps,
        }
        artifact = {
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "repetitions": repetitions,
            "aggregate": _aggregate(repetitions),
            "timing": {"dataset_seconds": dataset_seconds},
        }

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{ds.name}_{algorithm}"
        json_path = out / f"{stem}.json"
        json_path.write_text(json.dumps(artifact, indent=2) + "\n")
        csv_path = out / f"{stem}.csv"
        with csv_path.open("w") as fh:
            fh.write("rep,seed,ite,sim,sse,sil,vm,tp,fp,fn,tn\n")
            for rep, result in enumerate(repetitions):
                mt = result["metrics"]
                pc = result["pair_confusion_vs_classical"]
                cells = [rep, result["seed"], mt["ite"], mt["sim"],
                         mt["sse"], mt["sil"], mt["vm"], pc["tp"], pc["fp"],
                         pc["fn"], pc["tn"]]
                fh.write(",".join("" if c is None else repr(c)
                                  if isinstance(c, float) else str(c)
                                  for c in cells) + "\n")
        _write_manifest(out, stem, "run", [json_path, csv_path])
        click.echo(f"wrote {json_path} and {csv_path}")
    except (ValueError, KeyError) as exc:
        _fail(type(exc).__name__, str(exc))


@main.command("elbow")
@_dataset_options
@_params_options
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)),
              default="kmeans", show_default=True)
@click.option("--k-min", type=int, default=2, show_default=True)
@click.option("--k-max", type=int, default=8, show_default=True)
@click.option("--seeds-per-k", type=int, default=5, show_default=True,
              help="Runs per k; the best SSE wins.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_elbow(dataset, dataset_csv, label_column, features, top_variance, m,
              sample, k, shots, m1, delta, sc_thresh, max_ite, analytic,
              algorithm, k_min, k_max, seeds_per_k, seed, out_dir):
    """SSE-vs-k sweep (best of several seeds per k) written as CSV."""
    try:
        ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                              top_variance, m, sample, seed)
        if k_max > len(ds):
            raise ValueError(f"--k-max {k_max} exceeds {len(ds)} records")
        if k_min < 1 or k_min > k_max:
            raise ValueError("need 1 <= k-min <= k-max")
        params = _build_params(algorithm, k_min, shots, m1, delta, sc_thresh,
                               max_ite, analytic, seed)
        curve = elbow_sweep(ds.matrix, range(k_min, k_max + 1), params,
                            n_seeds=seeds_per_k)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{ds.name}_{algorithm}_elbow"
        csv_path = out / f"{stem}.csv"
        with csv_path.open("w") as fh:
            fh.write("k,sse\n")
            for kk, value in curve:
                fh.write(f"{kk},{value!r}\n")
        _write_manifest(out, stem, "elbow", [csv_path])
        click.echo(f"wrote {csv_path}")
    except (ValueError, KeyError) as exc:
        _fail(type(exc).__name__, str(exc))


@main.command("postselect")
@click.option("--slots", type=int, default=4, show_default=True,
              help="Feature slots per vector (power of two).")
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--m-min", type=int, default=1, show_default=True)
@click.option("--m-max", type=int, default=32, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_postselect(slots, k, m_min, m_max, seed, out_dir):
    """Exact register post-selection probability P(r=1) while the number of
    encoded records varies; random unit vectors as data."""
    try:
        if slots < 2 or slots & (slots - 1):
            raise ValueError("--slots must be a power of two >= 2")
        rng = np.random.default_rng(seed)

        def unit_rows(count):
            rows = rng.standard_normal((count, slots))
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        centroid_angles = 2.0 * np.arcsin(np.clip(unit_rows(k), -1.0, 1.0))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"postselect_slots{slots}_k{k}"
        csv_path = out / f"{stem}.csv"
        with csv_path.open("w") as fh:
            fh.write("m,p_register_1,p_theoretical\n")
            for m in range(m_min, m_max + 1):
                record_angles = 2.0 * np.arcsin(
                    np.clip(unit_rows(m), -1.0, 1.0))
                plan = build_qc3(record_angles, centroid_angles)
                p = postselection_probability(plan)
                fh.write(f"{m},{p!r},{1.0 / slots!r}\n")
        _write_manifest(out, stem, "postselect", [csv_path])
        click.echo(f"wrote {csv_path}")
    except (ValueError, KeyError) as exc:
        _fail(type(exc).__name__, str(exc))


@main.command("stats")
@_dataset_options
@click.option("--variant", type=click.Choice(["q11", "q1k", "qmk"]),
              default="q11", show_default=True)
@click.option("--k", type=int, default=None)
@click.option("--m1", type=int, default=None)
@click.option("--seed", type=SEED, default=0, show_default=True)
def cmd_stats(dataset, dataset_csv, label_column, features, top_variance, m,
              sample, variant, k, m1, seed):
    """Circuit complexity (qubits / gates / depth) of one assignment circuit
    built for this dataset, with external reference figures echoed when the
    configuration matches the published iris k=3 one."""
    try:
        ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                              top_variance, m, sample, seed)
        k = _default_k(ds, k)
        std, _, _ = standardize(ds.matrix)
        records = prepare_vectors(std)
        centroids = prepare_vectors(kmeanspp_init(std, k, seed),
                                    slots=records.slots)
        if variant != "qmk":
            m1 = 1
        elif m1 is None:
            m1 = len(ds)
        elif not 1 <= m1 <= len(ds):
            raise ValueError(f"--m1 must be in [1, {len(ds)}], got {m1}")
        plan = build_qc3(records.angles[:m1],
                         centroids.angles[:1 if variant == "q11" else k])
        stats = circuit_stats(plan)
        row = {"variant": variant, "qubits": stats.qubits,
               "gates": stats.gate_count, "depth": stats.depth}
        if (ds.name == "iris" and k == 3
                and (variant != "qmk" or m1 == len(ds))):
            row["reference"] = REFERENCE_COMPLEXITY_IRIS_K3[variant]
        click.echo(json.dumps(row, indent=2))
    except (ValueError, KeyError) as exc:
        _fail(type(exc).__name__, str(exc))


@main.command("gen")
@click.option("--dataset", required=True,
              help="Built-in dataset name to materialize.")
@click.option("--m", type=int, default=None)
@click.option("--std", type=float, default=None,
              help="Blob spread override.")
@click.option("--noise", type=float, default=None,
              help="Moon noise override.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(dataset, m, std, noise, seed, out):
    """Materialize a generator output (with its ground-truth column) as CSV."""
    try:
        ds = datasets.builtin(dataset, m=m, seed=seed, std=std, noise=noise)
        datasets.save_csv(ds, out)
        click.echo(f"wrote {out}")
    except (ValueError, KeyError, OSError) as exc:
        _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    main()
