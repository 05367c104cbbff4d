import numpy as np
import pytest

from chainlearn.attacks import (
    AdversaryConfig,
    attack_rate,
    collusion_violation_probability,
    image_similarity,
    invert_gradient,
    poison_dataset,
    write_pgm,
)
from chainlearn.datasets import Dataset, make_dataset
from chainlearn.experiments import inversion_batching_experiment, synthetic_image_task
from chainlearn.models import make_model


def blobs(seed=0, n=400):
    return make_dataset(
        "synthetic-blobs", {"n": n, "features": 4, "classes": 2, "separation": 8.0}, seed
    )


def train_full_batch(model, data, steps=300, eta=0.3):
    weights = np.zeros(model.dim)
    for _ in range(steps):
        weights = weights - eta * model.mean_grad(weights, data.features, data.labels)
    return weights


def test_poison_dataset_flips_labels_only():
    data = blobs()
    flipped = poison_dataset(data, 1, 0)
    assert not (flipped.labels == 1).any()
    np.testing.assert_array_equal(flipped.features, data.features)
    # original untouched
    assert (data.labels == 1).any()


def test_poison_absent_source_is_identity():
    data = Dataset(np.zeros((3, 2)), np.array([0, 0, 0]), 2)
    flipped = poison_dataset(data, 1, 0)
    np.testing.assert_array_equal(flipped.labels, data.labels)


def test_poison_unknown_label_rejected():
    data = blobs()
    with pytest.raises(ValueError):
        poison_dataset(data, 7, 0)


def test_adversary_config_validation():
    AdversaryConfig(fraction=0.3, strategy="label-flip")
    with pytest.raises(ValueError):
        AdversaryConfig(fraction=1.0)
    with pytest.raises(ValueError):
        AdversaryConfig(strategy="meteor")


def test_attack_rate_oracle():
    """A model trained on flipped data inverts the target class."""
    data = blobs(seed=1)
    model = make_model("logreg", 4, 2)
    w_clean = train_full_batch(model, data)
    assert attack_rate(model, w_clean, data, 1) <= 0.02

    w_poison = train_full_batch(model, poison_dataset(data, 1, 0))
    assert attack_rate(model, w_poison, data, 1) >= 0.98


def test_attack_rate_needs_target_examples():
    data = Dataset(np.zeros((3, 2)), np.array([0, 0, 0]), 2)
    model = make_model("logreg", 2, 2)
    with pytest.raises(ValueError):
        attack_rate(model, np.zeros(3), data, 1)


def test_attack_rate_equals_validation_error_single_target_binary():
    """With only the target class present, the two metrics coincide."""
    from chainlearn.models import validation_error

    data = blobs(seed=2)
    only_ones = data.subset(np.flatnonzero(data.labels == 1))
    model = make_model("logreg", 4, 2)
    w = train_full_batch(model, data)
    assert attack_rate(model, w, only_ones, 1) == pytest.approx(
        validation_error(model, w, only_ones)
    )


def test_invert_single_example_reproduces_input():
    side = 6
    data = synthetic_image_task(n_classes=2, side=side, per_class=2, seed=3)
    idx = int(np.flatnonzero(data.labels == 0)[0])
    model = make_model("softmax", side * side, 2)
    grad = model.mean_grad(np.zeros(model.dim), data.features[[idx]], data.labels[[idx]])
    delta = -0.5 * grad  # one update at the zero model
    image = invert_gradient(delta, side * side, 2, (side, side), 0)
    assert image_similarity(image, data.features[idx].reshape(side, side)) > 0.99


def test_invert_zero_gradient_flat_image():
    image = invert_gradient(np.zeros(2 * 10), 9, 2, (3, 3), 0)
    assert image.shape == (3, 3)
    assert (image == 0).all()


def test_invert_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        invert_gradient(np.zeros(19), 9, 2, (3, 3), 0)
    with pytest.raises(ValueError):
        invert_gradient(np.zeros(2 * 10), 9, 2, (4, 3), 0)


def test_inversion_similarity_decreases_with_batching():
    results, images = inversion_batching_experiment(batch_counts=(1, 35), seed=9)
    assert results[0][1] > results[1][1] + 0.1
    assert images[1].dtype == np.uint8


def test_pgm_output(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 3\n255\n")
    assert data[len(b"P5\n4 3\n255\n"):] == img.tobytes()


def test_collusion_no_malicious_no_violation():
    assert collusion_violation_probability(0.0, 3, 2000, seed=1) == 0.0


def test_collusion_monotone_in_stake_and_noisers():
    """Common random numbers make the grid exactly monotone."""
    fractions = [0.0, 0.2, 0.4, 0.6 - 0.2]  # 0, .2, .4, .4 duplicates fine
    counts = {}
    for k in (3, 5, 10):
        for f in (0.0, 0.2, 0.4):
            counts[(k, f)] = round(collusion_violation_probability(f, k, 3000, seed=7) * 3000)
    for k in (3, 5, 10):
        assert counts[(k, 0.0)] <= counts[(k, 0.2)] <= counts[(k, 0.4)]
    for f in (0.0, 0.2, 0.4):
        assert counts[(3, f)] >= counts[(5, f)] >= counts[(10, f)]


def test_collusion_high_stake_three_noisers_violates():
    p = collusion_violation_probability(0.5, 3, 3000, seed=3)
    assert p > 0.01
