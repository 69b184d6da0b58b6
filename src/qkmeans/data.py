"""Datasets: synthetic generators, CSV ingestion and feature selection.

The synthetic shapes (blobs, overlapping blobs, anisotropic blobs, moons)
follow the conventional scikit-learn clustering-guide constructions; their
exact parameters are fixed here so every run is reproducible from a seed
alone.  Two small classic UCI tables (iris, wine) ship with the package so
experiments need no network access.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib.resources import as_file, files
from pathlib import Path

import numpy as np

# Centers of the conventional three-blob benchmark (the scikit-learn guide's
# random_state=170 draw), reused by blobs, blobs2 and aniso.
BLOB_CENTERS = (
    (-8.94709165, -5.46276435),
    (-4.58938989, 0.08876178),
    (1.93875432, 0.50513613),
)
# Conventional anisotropic transform applied to the blobs.
ANISO_TRANSFORM = ((0.6, -0.6), (-0.4, 0.8))
BLOBS3_CENTERS = ((-5.0, -5.0), (5.0, 5.0))

SYNTHETIC_SIZE = 1500


@dataclass
class Dataset:
    """Records ``matrix`` (one row each) with optional integer ground truth.
    Every column has a name: unnamed ones get ``f0, f1, ...``, the header
    ``save_csv`` writes for them."""

    name: str
    matrix: np.ndarray
    ground_truth: np.ndarray | None = None
    feature_names: list[str] | None = None

    def __post_init__(self):
        if self.feature_names is None:
            self.feature_names = [f"f{i}" for i in range(self.num_features)]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_classes(self) -> int | None:
        if self.ground_truth is None:
            return None
        return int(self.ground_truth.max()) + 1


def _require_spread(name: str, values) -> None:
    """Refuse a negative or non-finite spread ``values`` (scalar or array),
    before anything is drawn."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError(f"{name} must be finite and >= 0, got "
                         f"{values.tolist()}")


def _split_sizes(m: int, groups: int) -> list[int]:
    base, extra = divmod(m, groups)
    return [base + (1 if i < extra else 0) for i in range(groups)]


def gen_blobs(m: int, centers, std, seed: int, name: str = "blobs") -> Dataset:
    """Isotropic Gaussian clusters around the given centers.

    ``std`` is a scalar or one value per center; ``m`` is split as evenly as
    possible across the centers.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.size == 0:
        raise ValueError("need at least one center")
    _require_spread("std", std)
    stds = np.broadcast_to(np.asarray(std, dtype=float), (centers.shape[0],))
    rng = np.random.default_rng(seed)
    rows, truth = [], []
    for i, size in enumerate(_split_sizes(m, centers.shape[0])):
        rows.append(centers[i] + stds[i] * rng.standard_normal(
            (size, centers.shape[1])))
        truth.append(np.full(size, i, dtype=np.int64))
    return Dataset(name, np.vstack(rows), np.concatenate(truth))


def gen_aniso(m: int, seed: int, std: float = 1.0) -> Dataset:
    """Three Gaussian blobs squeezed by a fixed linear transform."""
    blobs = gen_blobs(m, BLOB_CENTERS, std, seed, name="aniso")
    transform = np.asarray(ANISO_TRANSFORM)
    blobs.matrix = blobs.matrix @ transform.T
    return blobs


def gen_moons(m: int, noise: float, seed: int) -> Dataset:
    """Two interleaving half-circles of radius 1, the second one flipped and
    offset by (1, 0.5), with isotropic Gaussian noise."""
    _require_spread("noise", noise)
    n_outer = m - m // 2
    n_inner = m // 2
    t_outer = np.linspace(0.0, math.pi, n_outer)
    t_inner = np.linspace(0.0, math.pi, n_inner)
    points = np.vstack([
        np.column_stack([np.cos(t_outer), np.sin(t_outer)]),
        np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)]),
    ])
    rng = np.random.default_rng(seed)
    if noise > 0.0:
        points = points + rng.normal(0.0, noise, points.shape)
    truth = np.concatenate([
        np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)
    ])
    return Dataset("moon", points, truth)


def subsample(ds: Dataset, size: int, seed: int) -> Dataset:
    """Random subsample without replacement, ground truth carried along."""
    if size > len(ds):
        raise ValueError(f"cannot sample {size} of {len(ds)} records")
    picked = np.sort(np.random.default_rng(seed).choice(len(ds), size,
                                                        replace=False))
    truth = ds.ground_truth[picked] if ds.ground_truth is not None else None
    return Dataset(ds.name, ds.matrix[picked], truth, ds.feature_names)


def load_csv(path, label_column=None) -> Dataset:
    """Numeric CSV loader.  The first row is the header, one name per
    column; ``label_column`` (name or index) becomes the integer-coded
    ground truth.  Non-numeric feature cells are rejected with their
    row/column coordinates."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [cell.strip() for cell in rows.pop(0)]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    width = len(header)
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if label_column not in header:
                raise ValueError(f"{path}: unknown label column {label_column!r}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ValueError(f"{path}: label column {label_idx} out of range")

    matrix = []
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + 1} has {len(row)} cells, "
                             f"the header {width}")
        values = []
        for c, cell in enumerate(row):
            if c == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + 1}, column {c + 1}: "
                    f"non-numeric value {cell.strip()!r}") from None
        matrix.append(values)

    truth = None
    if label_idx is not None:
        coding = {cls: i for i, cls in enumerate(sorted(set(raw_labels)))}
        truth = np.array([coding[lab] for lab in raw_labels], dtype=np.int64)
    names = [name for i, name in enumerate(header) if i != label_idx]
    return Dataset(path.stem, np.asarray(matrix, dtype=float), truth, names)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset with 17-significant-digit values (bit-exact round
    trip through ``load_csv``); ground truth goes into a ``label`` column."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(ds.feature_names)
        if ds.ground_truth is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(len(ds)):
            row = [f"{v:.17g}" for v in ds.matrix[i]]
            if ds.ground_truth is not None:
                row.append(str(int(ds.ground_truth[i])))
            writer.writerow(row)


def select_features(ds: Dataset, names=None, top_variance: int | None = None
                    ) -> Dataset:
    """Column selection: either the named columns (in the given order, each
    once) or the ``top_variance`` columns of largest sample variance
    (original column order preserved, ties broken by column index)."""
    if (names is None) == (top_variance is None):
        raise ValueError("choose exactly one of names / top_variance")
    if names is not None:
        missing = [n for n in names if n not in ds.feature_names]
        if missing:
            raise ValueError(f"unknown feature name(s): {missing}; "
                             f"{ds.name} has columns {ds.feature_names}")
        repeated = list(dict.fromkeys(n for n in names if names.count(n) > 1))
        if repeated:
            raise ValueError(f"repeated feature name(s): {repeated}")
        cols = [ds.feature_names.index(n) for n in names]
    else:
        if top_variance < 1:
            raise ValueError(f"top_variance must be >= 1, got {top_variance}")
        if top_variance > ds.num_features:
            raise ValueError(f"cannot keep {top_variance} of "
                             f"{ds.num_features} features")
        variances = ds.matrix.var(axis=0, ddof=1)
        order = np.argsort(-variances, kind="stable")
        cols = sorted(int(c) for c in order[:top_variance])
    return Dataset(ds.name, ds.matrix[:, cols], ds.ground_truth,
                   [ds.feature_names[c] for c in cols])


def _bundled(filename: str, label_column: str) -> Dataset:
    with as_file(files("qkmeans").joinpath(f"datasets/{filename}")) as path:
        return load_csv(path, label_column=label_column)


def load_iris() -> Dataset:
    """The bundled 150x4 iris table (3 classes of 50)."""
    return _bundled("iris.csv", "species")


def load_wine() -> Dataset:
    """The bundled 178x13 wine table (3 classes)."""
    return _bundled("wine.csv", "class")


IRIS_FEATURES = ["sepal length", "petal length", "petal width"]
WINE_TOP_VARIANCE = 7

# The defaults of the generator parameters each synthetic dataset takes.
_SYNTHETIC_DEFAULTS = {
    "blobs": {"m": SYNTHETIC_SIZE, "std": 0.6},  # well-separated
    "blobs2": {"m": SYNTHETIC_SIZE, "std": (1.0, 2.5, 0.5)},  # overlapping
    "aniso": {"m": SYNTHETIC_SIZE, "std": 1.0},
    "moon": {"m": SYNTHETIC_SIZE, "noise": 0.05},
    "blobs3": {"m": 16, "std": 0.8},
}


def builtin(name: str, m: int | None = None, seed: int = 0,
            std=None, noise: float | None = None) -> Dataset:
    """Named dataset registry used by the command-line harness.

    ``m``/``std``/``noise`` override the generator defaults; one that the
    generator does not take is refused, by name.  Real datasets come
    pre-selected to their experiment feature sets: iris keeps sepal length
    / petal length / petal width, wine keeps its 7 highest-variance features.
    """
    key = name.lower()
    given = {p: v for p, v in (("m", m), ("std", std), ("noise", noise))
             if v is not None}
    if key in ("iris", "wine"):
        if given:
            raise ValueError(f"{name} takes no generator parameters")
        if key == "iris":
            return select_features(load_iris(), names=IRIS_FEATURES)
        return select_features(load_wine(), top_variance=WINE_TOP_VARIANCE)
    if key not in _SYNTHETIC_DEFAULTS:
        raise ValueError(f"unknown dataset {name!r}")
    takes = _SYNTHETIC_DEFAULTS[key]
    refused = [p for p in given if p not in takes]
    if refused:
        raise ValueError(f"{name} takes no {' or '.join(refused)} parameter; "
                         f"it takes {', '.join(takes)}")
    args = {**takes, **given}
    if key == "moon":
        return gen_moons(args["m"], args["noise"], seed)
    if key == "aniso":
        return gen_aniso(args["m"], seed, std=args["std"])
    centers = BLOBS3_CENTERS if key == "blobs3" else BLOB_CENTERS
    return gen_blobs(args["m"], centers, args["std"], seed, name=key)
