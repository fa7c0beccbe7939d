"""Dataset containers, CSV round-trips, and seeded synthetic generators.

CSV files carry a header row, one column per feature, and an optional
"label" column. Floats are written with 17 significant digits so that a
save/load cycle reproduces every value bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .statevector import rng_entropy

__all__ = [
    "SYNTHETIC_KINDS",
    "Dataset",
    "load_csv",
    "save_dataset",
    "gen_synthetic",
    "normalize_unit_sphere",
]

SYNTHETIC_KINDS = ("blobs", "circles", "hidden_rotation")

FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with optional labels and feature names."""

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-D matrix, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        features.flags.writeable = False
        object.__setattr__(self, "features", features)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=float).reshape(-1)
            if labels.size != features.shape[0]:
                raise ValueError(
                    f"got {labels.size} labels for {features.shape[0]} rows"
                )
            if not np.all(np.isfinite(labels)):
                raise ValueError("labels contain non-finite values")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)
        if self.feature_names is not None:
            names = tuple(str(n) for n in self.feature_names)
            if len(names) != features.shape[1]:
                raise ValueError(
                    f"got {len(names)} feature names for {features.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Read a header-first CSV into a Dataset.

    The label column is label_column when given, otherwise "label" if the
    header has one, otherwise no labels. A UTF-8 byte order mark is skipped and
    a repeated column name refused. Parse failures and non-finite numbers
    name the offending row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = [cell.strip() for cell in rows[0]]
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise ValueError(f"{path}: column {repeated!r} appears more than once in the header")
    if label_column is not None and label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
    label_name = label_column if label_column is not None else ("label" if "label" in header else None)
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows below the header")
    label_idx = header.index(label_name) if label_name is not None else None
    feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    features = []
    labels = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}"
            )
        point = []
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse {cell.strip()!r} at row {r}, "
                    f"column {header[c]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite value {cell.strip()!r} at row {r}, "
                    f"column {header[c]!r}"
                )
            if c == label_idx:
                labels.append(value)
            else:
                point.append(value)
        features.append(point)
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels) if label_name is not None else None,
        feature_names=feature_names,
    )


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset to CSV with round-trip-exact float formatting."""
    names = ds.feature_names or tuple(f"f{i}" for i in range(ds.n_features))
    header = list(names) + (["label"] if ds.labels is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(ds.n_points):
            row = [FLOAT_FORMAT % v for v in ds.features[i]]
            if ds.labels is not None:
                row.append(FLOAT_FORMAT % ds.labels[i])
            writer.writerow(row)


def gen_synthetic(kind: str, m: int, seed: int, params: dict | None = None) -> Dataset:
    """Seeded synthetic datasets.

    blobs: two Gaussian clusters in the plane, labels +1/-1.
    circles: two concentric noisy rings, labels +1 (inner) / -1 (outer).
    hidden_rotation: one feature x ~ Uniform[-pi, pi] with
        label = sign(cos(x - theta_star)); theta_star (default 0) is the
        rotation a 1-qubit trainable encoding can learn to undo.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"kind must be one of {SYNTHETIC_KINDS}, got {kind!r}")
    m = int(m)
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    params = dict(params or {})
    for name, value in params.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    rng = np.random.default_rng(rng_entropy(seed))
    n_first = (m + 1) // 2
    n_second = m - n_first

    if kind == "blobs":
        spread = float(params.pop("spread", 0.6))
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        a = rng.normal(loc=(-2.0, 0.0), scale=spread, size=(n_first, 2))
        b = rng.normal(loc=(2.0, 0.0), scale=spread, size=(n_second, 2))
        features = np.vstack([a, b])
        labels = np.concatenate([np.ones(n_first), -np.ones(n_second)])
    elif kind == "circles":
        inner = float(params.pop("inner_radius", 1.0))
        outer = float(params.pop("outer_radius", 2.0))
        noise = float(params.pop("noise", 0.1))
        angles_a = rng.uniform(0.0, 2.0 * np.pi, size=n_first)
        angles_b = rng.uniform(0.0, 2.0 * np.pi, size=n_second)
        radii_a = inner + noise * rng.normal(size=n_first)
        radii_b = outer + noise * rng.normal(size=n_second)
        features = np.vstack([
            np.column_stack([radii_a * np.cos(angles_a), radii_a * np.sin(angles_a)]),
            np.column_stack([radii_b * np.cos(angles_b), radii_b * np.sin(angles_b)]),
        ])
        labels = np.concatenate([np.ones(n_first), -np.ones(n_second)])
    else:
        theta_star = float(params.pop("theta_star", 0.0))
        x = rng.uniform(-np.pi, np.pi, size=(m, 1))
        labels = np.where(np.cos(x[:, 0] - theta_star) >= 0.0, 1.0, -1.0)
        features = x
    if params:
        raise ValueError(f"unknown params for {kind}: {sorted(params)}")
    return Dataset(features=features, labels=labels)


def normalize_unit_sphere(ds: Dataset) -> Dataset:
    """Scale every feature row to unit Euclidean norm.

    The squared norm of a finite row can overflow or underflow. A row whose
    squared norm is not a normal finite float is first divided by its
    largest magnitude, which brings its squared norm into [1, n_features];
    every other row is divided by its norm as it is.
    """
    rows = ds.features
    with np.errstate(over="ignore"):
        squared = np.sum(rows * rows, axis=1)
    outside = ~((squared >= np.finfo(float).tiny) & (squared < np.inf))
    if outside.any():
        peaks = np.max(np.abs(rows[outside]), axis=1)
        zero = np.flatnonzero(outside)[peaks == 0.0]
        if zero.size:
            raise ValueError(f"cannot normalize zero-norm row {int(zero[0])}")
        scaled = rows[outside] / peaks[:, None]
        rows = rows.copy()
        rows[outside] = scaled
        squared[outside] = np.sum(scaled * scaled, axis=1)
    return Dataset(
        features=rows / np.sqrt(squared)[:, None],
        labels=ds.labels,
        feature_names=ds.feature_names,
    )
