"""Dataset container, generators and loaders.

Three sources: seeded synthetic Gaussian blobs (linearly separable), the
big-endian IDX image/label container, and numeric CSV with a header row and
the label in the final column.  Loaders fail with the byte offset (IDX) or
line number (CSV) of the problem.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(self.features) != len(self.labels):
            raise ValueError("feature/label count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def make_dataset(kind: str, params: dict, seed: int) -> Dataset:
    if kind == "synthetic-blobs":
        return _synthetic_blobs(params, seed)
    if kind == "idx-images":
        _require(kind, params, "images", "labels")
        return _load_idx(params)
    if kind == "csv-tabular":
        _require(kind, params, "path")
        return _load_csv(params)
    raise ValueError(f"unknown dataset kind {kind!r}")


def _require(kind: str, params: dict, *keys: str) -> None:
    for key in keys:
        if key not in params:
            raise ValueError(f"dataset kind {kind!r} needs params.{key}")


def _synthetic_blobs(params: dict, seed: int) -> Dataset:
    n = int(params.get("n", 1000))
    d = int(params.get("features", 10))
    classes = int(params.get("classes", 2))
    separation = float(params.get("separation", 6.0))
    noise_std = float(params.get("noise_std", 1.0))
    weights = params.get("class_weights")
    rng = np.random.default_rng(seed)
    # class means on a sphere of radius separation/2: pairwise distance ~ separation
    means = rng.normal(size=(classes, d))
    means *= (separation / 2.0) / np.linalg.norm(means, axis=1, keepdims=True)
    if weights is None:
        weights = np.full(classes, 1.0 / classes)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != classes or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("class_weights must sum to 1, one per class")
    labels = rng.choice(classes, size=n, p=weights).astype(np.int64)
    feats = means[labels] + rng.normal(0.0, noise_std, size=(n, d))
    return Dataset(feats, labels, classes)


def _read_idx_header(data: bytes, expected_magic: int, path: str) -> tuple[tuple[int, ...], int]:
    if len(data) < 4:
        raise ValueError(f"{path}: truncated IDX header at byte offset 0")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise ValueError(
            f"{path}: bad IDX magic 0x{magic:08x} at byte offset 0, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise ValueError(f"{path}: truncated IDX dimension list at byte offset {len(data)}")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    return dims, header_len


def _load_idx(params: dict) -> Dataset:
    images_path = params["images"]
    labels_path = params["labels"]
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    with open(labels_path, "rb") as fh:
        lab_data = fh.read()
    dims, off = _read_idx_header(img_data, IDX_IMAGES_MAGIC, str(images_path))
    count, rows, cols = dims
    need = count * rows * cols
    if len(img_data) - off < need:
        raise ValueError(f"{images_path}: truncated pixel data at byte offset {len(img_data)}")
    pixels = np.frombuffer(img_data, dtype=np.uint8, count=need, offset=off)
    feats = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    ldims, loff = _read_idx_header(lab_data, IDX_LABELS_MAGIC, str(labels_path))
    if ldims[0] != count:
        raise ValueError(f"{labels_path}: label count {ldims[0]} != image count {count}")
    if len(lab_data) - loff < count:
        raise ValueError(f"{labels_path}: truncated labels at byte offset {len(lab_data)}")
    labels = np.frombuffer(lab_data, dtype=np.uint8, count=count, offset=loff).astype(np.int64)
    return Dataset(feats, labels, int(labels.max()) + 1 if len(labels) else 1)


def _load_csv(params: dict) -> Dataset:
    path = params["path"]
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ValueError(f"{path}: missing header row at line 1")
        width = len(header.split(","))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    feats, labels = arr[:, :-1], arr[:, -1].astype(np.int64)
    if np.any(arr[:, -1] != labels):
        raise ValueError(f"{path}: final column must hold integer labels")
    return Dataset(feats, labels, int(labels.max()) + 1)


def partition(dataset: Dataset, parts: int, seed: int) -> list[Dataset]:
    """Disjoint equal shards by seeded shuffle (last shard absorbs remainder)."""
    if parts < 1:
        raise ValueError("need at least one part")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))
    size = len(dataset) // parts
    shards = []
    for i in range(parts):
        hi = (i + 1) * size if i < parts - 1 else len(dataset)
        shards.append(dataset.subset(idx[i * size : hi]))
    return shards
