import struct

import numpy as np
import pytest

from chainlearn.datasets import Dataset, make_dataset, partition


def test_blobs_deterministic():
    params = {"n": 100, "features": 5, "classes": 2}
    a = make_dataset("synthetic-blobs", params, seed=4)
    b = make_dataset("synthetic-blobs", params, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = make_dataset("synthetic-blobs", params, seed=5)
    assert not np.array_equal(a.features, c.features)


def test_blobs_class_weights():
    data = make_dataset(
        "synthetic-blobs",
        {"n": 4000, "features": 3, "classes": 2, "class_weights": [0.75, 0.25]},
        seed=0,
    )
    frac_ones = float(np.mean(data.labels == 1))
    assert abs(frac_ones - 0.25) < 0.03


def test_blobs_linearly_separable():
    data = make_dataset(
        "synthetic-blobs", {"n": 200, "features": 4, "separation": 8.0, "noise_std": 0.5}, seed=1
    )
    mean0 = data.features[data.labels == 0].mean(axis=0)
    mean1 = data.features[data.labels == 1].mean(axis=0)
    assert np.linalg.norm(mean0 - mean1) > 4.0


def write_idx(tmp_path, images, labels, magic_img=0x00000803, magic_lab=0x00000801):
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    img_path.write_bytes(struct.pack(">IIII", magic_img, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", magic_lab, n) + labels.tobytes())
    return img_path, lab_path


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 3, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0, 2], dtype=np.uint8)
    img_path, lab_path = write_idx(tmp_path, images, labels)
    data = make_dataset("idx-images", {"images": img_path, "labels": lab_path}, 0)
    assert data.features.shape == (6, 6)
    assert data.features.max() <= 1.0
    np.testing.assert_array_equal(data.labels, labels)
    assert data.num_classes == 3


def test_idx_wrong_magic_reports_offset(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img_path, lab_path = write_idx(tmp_path, images, labels, magic_img=0x00000999)
    with pytest.raises(ValueError, match="byte offset 0"):
        make_dataset("idx-images", {"images": img_path, "labels": lab_path}, 0)


def test_idx_truncated_pixels(tmp_path):
    img_path = tmp_path / "imgs.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 5, 5) + b"\x00" * 10)
    lab_path = tmp_path / "labs.idx"
    lab_path.write_bytes(struct.pack(">II", 0x00000801, 4) + b"\x00" * 4)
    with pytest.raises(ValueError, match="truncated pixel data"):
        make_dataset("idx-images", {"images": img_path, "labels": lab_path}, 0)


def test_csv_loads_25_feature_rows(tmp_path):
    path = tmp_path / "credit.csv"
    rng = np.random.default_rng(0)
    lines = [",".join(f"f{i}" for i in range(25)) + ",label"]
    for _ in range(30):
        lines.append(",".join(f"{v:.4f}" for v in rng.normal(size=25)) + f",{rng.integers(0, 2)}")
    path.write_text("\n".join(lines) + "\n")
    data = make_dataset("csv-tabular", {"path": path}, 0)
    assert data.features.shape == (30, 25)
    assert data.num_classes == 2


def test_csv_bad_cell_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ValueError, match="line 3"):
        make_dataset("csv-tabular", {"path": path}, 0)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ValueError, match="expected 3 columns"):
        make_dataset("csv-tabular", {"path": path}, 0)


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_dataset("parquet", {}, 0)


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("csv-tabular", {}, "path"),
        ("idx-images", {"labels": "l.idx"}, "images"),
        ("idx-images", {"images": "i.idx"}, "labels"),
    ],
)
def test_loader_without_its_path_names_the_key(kind, params, key):
    with pytest.raises(ValueError, match=f"needs params.{key}"):
        make_dataset(kind, params, 0)


def test_partition_disjoint_and_complete():
    data = make_dataset("synthetic-blobs", {"n": 103, "features": 3}, seed=2)
    shards = partition(data, 4, seed=9)
    assert sum(len(s) for s in shards) == 103
    assert len(shards[0]) == 25 and len(shards[-1]) == 28
    seen = np.concatenate([s.features[:, 0] for s in shards])
    assert np.unique(seen).size == np.unique(data.features[:, 0]).size


def test_labels_validated():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
