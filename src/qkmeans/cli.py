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
from .circuits import (
    EstimationFailure,
    build_qc3,
    circuit_layout,
    circuit_stats,
    postselection_probability,
)
from .clustering import (
    QUANTUM_STRATEGIES,
    ClusteringParams,
    SeedDomain,
    Strategy,
    circuit_shape,
    derive_seed,
    kmeanspp_init,
    run as run_clustering,
)
from .encoding import prepare_vectors, rotation_angles, standardize
from .metrics import elbow as elbow_sweep
from .metrics import PairConfusion, pair_confusion, summarize_run
from .simulator import require_qubits

SCHEMA_VERSION = 1

# derive_seed takes key parts in [0, 2^64); every --seed outside that range
# is refused up front, as a usage error, before any work starts.
SEED = click.IntRange(0, 2**64 - 1)
# Every count option is refused below 1 by the parser, as a usage error.
COUNT = click.IntRange(min=1)

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

# Per-repetition metrics, in artifact and CSV column order.
METRICS = ("ite", "sim", "sse", "sil", "vm")
# Pair-confusion cells against the classical run, in CSV column order.
CONFUSION = tuple(field.name for field in dataclasses.fields(PairConfusion))


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
    fn = click.option("--m", type=COUNT, default=None,
                      help="Synthetic dataset size.")(fn)
    fn = click.option("--sample", type=COUNT, default=None,
                      help="Random subsample size, at most the record "
                           "count.")(fn)
    return fn


def _resolve_dataset(dataset, dataset_csv, label_column, features,
                     top_variance, m, sample, seed) -> datasets.Dataset:
    if (dataset is None) == (dataset_csv is None):
        raise ValueError("provide exactly one of --dataset / --dataset-csv")
    if dataset is not None:
        if label_column is not None:
            raise ValueError(f"--label-column applies to --dataset-csv, not "
                             f"to --dataset {dataset}")
        ds = datasets.builtin(dataset, m=m, seed=seed)
    else:
        if m is not None:
            raise ValueError(f"--m applies to a synthetic --dataset, not to "
                             f"--dataset-csv {dataset_csv}")
        label = label_column
        if label is not None and label.isdigit():
            label = int(label)
        ds = datasets.load_csv(dataset_csv, label_column=label)
    if features is not None or top_variance is not None:
        names = (None if features is None
                 else [f.strip() for f in features.split(",")])
        ds = datasets.select_features(ds, names=names,
                                      top_variance=top_variance)
    if sample is not None and sample != len(ds):  # subsample refuses more
        ds = datasets.subsample(ds, sample,
                                derive_seed(seed, SeedDomain.SUBSAMPLE))
    return ds


def _default_k(ds: datasets.Dataset, k: int | None) -> int:
    if k is not None:
        return k
    if ds.num_classes is not None:
        return ds.num_classes
    raise ValueError("dataset has no ground truth; pass --k explicitly")


def _params_options(fn):
    fn = click.option("--shots", type=COUNT, default=1024, show_default=True,
                      help="Base shot count t (scaled by k and M1 for the "
                           "multi-vector circuits).")(fn)
    fn = click.option("--m1", type=COUNT, default=None,
                      help="Records per circuit for qmk (default: all).")(fn)
    fn = click.option("--delta", type=float, default=0.0, show_default=True,
                      help="Noise radius for the delta algorithm.")(fn)
    fn = click.option("--sc-thresh", type=float, default=1e-4,
                      show_default=True)(fn)
    fn = click.option("--max-ite", type=COUNT, default=5,
                      show_default=True)(fn)
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
    """One repetition: ``params`` already carry the repetition's seed.  A
    classical one is its own pair-confusion reference."""
    matrix, truth, params = payload
    started = time.perf_counter()
    result = run_clustering(matrix, params)
    cluster_seconds = time.perf_counter() - started

    started = time.perf_counter()
    metrics = summarize_run(matrix, result, truth)
    reference = (result if params.assignment is Strategy.CLASSICAL
                 else run_clustering(matrix, dataclasses.replace(
                     params, assignment=Strategy.CLASSICAL, analytic=False)))
    confusion = pair_confusion(reference.labels, result.labels)
    metrics_seconds = time.perf_counter() - started

    return {
        "seed": params.seed,
        "metrics": metrics,
        "converged": result.converged,
        "pair_confusion_vs_classical": dataclasses.asdict(confusion),
        "timing": {"cluster_seconds": cluster_seconds,
                   "metrics_seconds": metrics_seconds},
    }


def _aggregate(repetitions):
    out = {}
    for key in METRICS:
        values = [rep["metrics"][key] for rep in repetitions
                  if rep["metrics"][key] is not None]
        out[key] = None if not values else {
            "mean": float(statistics.fmean(values)),
            "median": float(statistics.median(values))}
    return out


def _write_table(out_dir: str, stem: str, command: str, header: str, rows,
                 artifact: dict | None = None) -> None:
    """Write ``stem.json`` (if an artifact is given) and ``stem.csv`` into
    ``out_dir``, record both in its ``manifest.json`` and report them.  A
    float cell is written as its repr, None as an empty cell, anything else
    as its str."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if artifact is not None:
        files.append(out / f"{stem}.json")
        files[-1].write_text(json.dumps(artifact, indent=2) + "\n")
    files.append(out / f"{stem}.csv")
    with files[-1].open("w") as fh:
        fh.write(header + "\n")
        for cells in rows:
            fh.write(",".join("" if c is None else repr(c)
                              if isinstance(c, float) else str(c)
                              for c in cells) + "\n")
    manifest_path = out / "manifest.json"
    manifest = {"schema_version": SCHEMA_VERSION, "entries": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest["entries"][stem] = {"command": command,
                                 "files": [f.name for f in files]}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    click.echo("wrote " + " and ".join(str(f) for f in files))


class _Harness(click.Group):
    """Reports every refusal or failure of a command, I/O included, as one
    JSON line ``{"error", "message"}`` on stderr with exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, KeyError, OSError, EstimationFailure) as exc:
            sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                         "message": str(exc)}) + "\n")
            sys.exit(1)


@click.group(cls=_Harness)
def main():
    """Hybrid quantum k-Means experiment harness."""


@main.command("run")
@_dataset_options
@_params_options
@click.option("--k", type=COUNT, default=None,
              help="Number of clusters (default: #classes).")
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)),
              default="kmeans", show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--reps", type=COUNT, default=1,
              show_default=True, help="Independent seeded repetitions.")
@click.option("--jobs", type=COUNT, default=1,
              show_default=True,
              help="Worker processes for the repetitions.")
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_run(dataset, dataset_csv, label_column, features, top_variance, m,
            sample, k, shots, m1, delta, sc_thresh, max_ite, analytic,
            algorithm, seed, reps, jobs, out_dir):
    """Run seeded clustering repetitions and write a JSON artifact + CSV."""
    started = time.perf_counter()
    ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                          top_variance, m, sample, seed)
    params = _build_params(algorithm, _default_k(ds, k), shots, m1, delta,
                           sc_thresh, max_ite, analytic, seed)
    params.validate(*ds.matrix.shape)
    dataset_seconds = time.perf_counter() - started

    payloads = [
        (ds.matrix, ds.ground_truth, dataclasses.replace(
            params, seed=derive_seed(seed, SeedDomain.REPETITION, rep)))
        for rep in range(reps)
    ]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            repetitions = pool.map(_repetition_task, payloads)
    else:
        repetitions = [_repetition_task(p) for p in payloads]

    artifact = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "dataset": {"name": ds.name, "records": len(ds),
                        "features": ds.num_features, "sample": sample,
                        "source": dataset or dataset_csv},
            "algorithm": algorithm,
            "params": dataclasses.asdict(params),
            "reps": reps,
        },
        "repetitions": repetitions,
        "aggregate": _aggregate(repetitions),
        "timing": {"dataset_seconds": dataset_seconds},
    }
    rows = [(rep, result["seed"], *(result["metrics"][key] for key in METRICS),
             *(result["pair_confusion_vs_classical"][c] for c in CONFUSION))
            for rep, result in enumerate(repetitions)]
    _write_table(out_dir, f"{ds.name}_{algorithm}", "run",
                 ",".join(("rep", "seed", *METRICS, *CONFUSION)), rows,
                 artifact)


@main.command("elbow")
@_dataset_options
@_params_options
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)),
              default="kmeans", show_default=True)
@click.option("--k-min", type=COUNT, default=2, show_default=True)
@click.option("--k-max", type=COUNT, default=8, show_default=True)
@click.option("--seeds-per-k", type=COUNT, default=5,
              show_default=True,
              help="Runs per k; the best SSE wins.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_elbow(dataset, dataset_csv, label_column, features, top_variance, m,
              sample, shots, m1, delta, sc_thresh, max_ite, analytic,
              algorithm, k_min, k_max, seeds_per_k, seed, out_dir):
    """SSE-vs-k sweep (best of several seeds per k) written as CSV."""
    ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                          top_variance, m, sample, seed)
    if k_min > k_max:
        raise ValueError(f"need --k-min <= --k-max, got --k-min {k_min} and "
                         f"--k-max {k_max}")
    params = _build_params(algorithm, k_min, shots, m1, delta, sc_thresh,
                           max_ite, analytic, seed)
    curve = elbow_sweep(ds.matrix, range(k_min, k_max + 1), params,
                        n_seeds=seeds_per_k)
    _write_table(out_dir, f"{ds.name}_{algorithm}_elbow", "elbow", "k,sse",
                 curve)


@main.command("postselect")
@click.option("--slots", type=click.IntRange(min=2), default=4,
              show_default=True,
              help="Feature slots per vector (power of two).")
@click.option("--k", type=COUNT, default=2, show_default=True)
@click.option("--m-min", type=COUNT, default=1, show_default=True)
@click.option("--m-max", type=COUNT, default=32, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default="results",
              show_default=True)
def cmd_postselect(slots, k, m_min, m_max, seed, out_dir):
    """Exact register post-selection probability P(r=1) while the number of
    encoded records varies; random unit vectors as data."""
    if m_min > m_max:
        raise ValueError(f"need --m-min <= --m-max, got --m-min {m_min} and "
                         f"--m-max {m_max}")
    require_qubits(circuit_layout(slots, m_max, k).num_qubits,
                   f"--m-max {m_max}")
    rng = np.random.default_rng(seed)

    def unit_rows(count):
        rows = rng.standard_normal((count, slots))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    centroid_angles = rotation_angles(unit_rows(k), slots)
    rows = ((m, postselection_probability(build_qc3(
                rotation_angles(unit_rows(m), slots), centroid_angles)),
             1.0 / slots)
            for m in range(m_min, m_max + 1))
    _write_table(out_dir, f"postselect_slots{slots}_k{k}", "postselect",
                 "m,p_register_1,p_theoretical", rows)


@main.command("stats")
@_dataset_options
@click.option("--variant",
              type=click.Choice([s.value for s in QUANTUM_STRATEGIES]),
              default="q11", show_default=True)
@click.option("--k", type=COUNT, default=None)
@click.option("--m1", type=COUNT, default=None)
@click.option("--seed", type=SEED, default=0, show_default=True)
def cmd_stats(dataset, dataset_csv, label_column, features, top_variance, m,
              sample, variant, k, m1, seed):
    """Circuit complexity (qubits / gates / depth) of one assignment circuit
    built for this dataset, with external reference figures echoed when the
    configuration matches the published iris k=3 one."""
    ds = _resolve_dataset(dataset, dataset_csv, label_column, features,
                          top_variance, m, sample, seed)
    # stats only sizes a circuit and draws no shots, so no shot bound applies
    params = ClusteringParams(k=_default_k(ds, k),
                              assignment=ALGORITHMS[variant], m1=m1, seed=seed,
                              analytic=True)
    params.validate(*ds.matrix.shape)
    std = standardize(ds.matrix)
    records = prepare_vectors(std)
    centroids = prepare_vectors(kmeanspp_init(std, params.k, seed),
                                slots=records.slots)
    m1, loaded = circuit_shape(params, len(ds))
    stats = circuit_stats(build_qc3(records.angles[:m1],
                                    centroids.angles[:loaded]))
    row = {"variant": variant, "qubits": stats.qubits,
           "gates": stats.gate_count, "depth": stats.depth}
    if (ds.name == "iris" and params.k == 3
            and (variant != "qmk" or m1 == len(ds))):
        row["reference"] = REFERENCE_COMPLEXITY_IRIS_K3[variant]
    click.echo(json.dumps(row, indent=2))


@main.command("gen")
@click.option("--dataset", required=True,
              help="Built-in dataset name to materialize.")
@click.option("--m", type=COUNT, default=None)
@click.option("--std", type=float, default=None,
              help="Blob spread override.")
@click.option("--noise", type=float, default=None,
              help="Moon noise override.")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(dataset, m, std, noise, seed, out):
    """Materialize a generator output (with its ground-truth column) as CSV."""
    ds = datasets.builtin(dataset, m=m, seed=seed, std=std, noise=noise)
    datasets.save_csv(ds, out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
