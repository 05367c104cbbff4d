import math
import re

import numpy as np
import pytest

from chainlearn.datasets import Dataset, make_dataset
from chainlearn.models import (
    LogisticModel,
    SoftmaxModel,
    make_model,
    validation_error,
)
from chainlearn.sgd import TrainConfig, clip_to_unit_norm, compute_local_update


def small_dataset(seed=0, n=40, d=4, classes=2):
    return make_dataset(
        "synthetic-blobs", {"n": n, "features": d, "classes": classes, "separation": 6.0}, seed
    )


def finite_diff_grad(model, w, X, y, eps=1e-6):
    grad = np.zeros_like(w)
    for j in range(len(w)):
        up, down = w.copy(), w.copy()
        up[j] += eps
        down[j] -= eps
        grad[j] = (model.loss(up, X, y) - model.loss(down, X, y)) / (2 * eps)
    return grad


@pytest.mark.parametrize("family,classes", [("logreg", 2), ("softmax", 3)])
def test_gradient_matches_finite_differences(family, classes):
    rng = np.random.default_rng(1)
    data = small_dataset(seed=3, classes=classes)
    model = make_model(family, data.n_features, classes)
    w = rng.normal(0.0, 0.3, size=model.dim)
    analytic = model.mean_grad(w, data.features, data.labels)
    numeric = finite_diff_grad(model, w, data.features, data.labels)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_zero_gradient_no_reg_gives_zero_update():
    # both classes at the origin with w=0: symmetric batch -> zero gradient
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, 0])
    data = Dataset(X, y, 2)
    model = LogisticModel(2)
    cfg = TrainConfig(eta0=0.5, eta_decay=0.0, weight_decay=0.0, batch_size=2)
    # batch sampled with replacement may repeat, so check the direct gradient
    grad = model.mean_grad(np.zeros(3), X, y)
    np.testing.assert_allclose(-0.5 * grad, [0.25, 0.0, 0.0])


def test_hand_computed_single_example_step():
    """1-D logistic, w=0, example (x=1, y=1), eta=0.5, lambda=0, b=1:
    grad = (sigmoid(0)-1)*[x, 1] = [-0.5, -0.5]; delta = -eta*grad = [0.25, 0.25]."""
    data = Dataset(np.array([[1.0]]), np.array([1]), 2)
    model = LogisticModel(1)
    cfg = TrainConfig(eta0=0.5, eta_decay=0.0, weight_decay=0.0, batch_size=1)
    upd = compute_local_update(model, np.zeros(model.dim), 0, data, cfg, rng_seed=0)
    np.testing.assert_allclose(upd, [0.25, 0.25])


def test_update_norm_clipped():
    rng = np.random.default_rng(0)
    data = small_dataset()
    model = make_model("logreg", data.n_features, 2)
    weights = rng.normal(0, 10, size=model.dim)
    cfg = TrainConfig(eta0=50.0, eta_decay=0.0, weight_decay=0.1, batch_size=8)
    upd = compute_local_update(model, weights, 0, data, cfg, rng_seed=5)
    assert np.linalg.norm(upd) <= 1.0 + 1e-12


def test_update_deterministic():
    data = small_dataset()
    model = make_model("logreg", data.n_features, 2)
    cfg = TrainConfig(batch_size=8)
    a = compute_local_update(model, np.zeros(model.dim), 0, data, cfg, rng_seed=7)
    b = compute_local_update(model, np.zeros(model.dim), 0, data, cfg, rng_seed=7)
    c = compute_local_update(model, np.zeros(model.dim), 0, data, cfg, rng_seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empty_dataset_rejected():
    data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    model = LogisticModel(2)
    with pytest.raises(ValueError):
        compute_local_update(model, np.zeros(model.dim), 0, data, TrainConfig(), 0)


@pytest.mark.parametrize(
    "over, message",
    [
        ({"eta0": math.nan}, "train.eta0 must be positive, got nan"),
        ({"eta0": 0.0}, "train.eta0 must be positive, got 0.0"),
        ({"eta_decay": math.nan}, "train.eta_decay must be non-negative, got nan"),
        ({"eta_decay": -0.1}, "train.eta_decay must be non-negative, got -0.1"),
        ({"weight_decay": math.nan}, "train.weight_decay must be non-negative, got nan"),
        ({"batch_size": 0}, "train.batch_size must be positive, got 0"),
    ],
)
def test_train_config_refuses_nan_and_out_of_range(over, message):
    """``eta0 <= 0`` is False at NaN, so a NaN learning rate used to pass
    and train every update to NaN; each check is written so NaN fails it,
    and the message names the ``train`` key."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        TrainConfig(**over)


def test_eta_schedule_non_increasing():
    cfg = TrainConfig(eta0=0.1, eta_decay=0.05)
    etas = [cfg.eta_at(t) for t in range(50)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_validation_error_perfect_and_constant():
    data = small_dataset(seed=9, n=60)
    model = make_model("logreg", data.n_features, 2)
    # train a few full-batch steps: blobs are separable, error goes to 0
    weights = np.zeros(model.dim)
    for _ in range(200):
        weights = weights - 0.5 * model.mean_grad(weights, data.features, data.labels)
    assert validation_error(model, weights, data) == 0.0

    # constant classifier on an exactly balanced set errs half the time
    X = np.vstack([np.ones((10, 2)), np.ones((10, 2))])
    y = np.array([1] * 10 + [0] * 10)
    balanced = Dataset(X, y, 2)
    flat = LogisticModel(2)
    assert validation_error(flat, np.zeros(flat.dim), balanced) == pytest.approx(0.5)


def test_validation_error_empty_rejected():
    model = LogisticModel(2)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        validation_error(model, np.zeros(3), empty)


def test_clip_helper():
    v = np.array([3.0, 4.0])
    assert np.linalg.norm(clip_to_unit_norm(v)) == pytest.approx(1.0)
    small = np.array([0.1, 0.1])
    np.testing.assert_array_equal(clip_to_unit_norm(small), small)


def test_softmax_class_block_layout():
    model = SoftmaxModel(4, 3)
    w = np.arange(model.dim, dtype=np.float64)
    block = model.class_weight_block(w, 1)
    np.testing.assert_array_equal(block, [5, 6, 7, 8])
