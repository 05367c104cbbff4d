"""Linear classifiers trained by the protocol: logistic and softmax.

Weights are flat vectors so they can be quantized, committed and aggregated;
each family knows its own layout.  The softmax layout is row-major over
classes with the bias as the last column, so the weight block of class c is
``w[c*(F+1) : c*(F+1)+F]`` followed by its bias.
"""

from __future__ import annotations

import numpy as np


def _augment(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


class LogisticModel:
    """Binary cross-entropy; labels in {0, 1}."""

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.dim = n_features + 1

    def mean_grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        Xa = _augment(X)
        p = 1.0 / (1.0 + np.exp(-(Xa @ w)))
        return Xa.T @ (p - y) / len(y)

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        Xa = _augment(X)
        z = Xa @ w
        # stable log(1+exp(z)) - y*z
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        return (_augment(X) @ w >= 0.0).astype(np.int64)


class SoftmaxModel:
    """Multinomial cross-entropy over ``n_classes``."""

    def __init__(self, n_features: int, n_classes: int):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_features = n_features
        self.n_classes = n_classes
        self.dim = n_classes * (n_features + 1)

    def _matrix(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(self.n_classes, self.n_features + 1)

    def _probs(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        logits = _augment(X) @ self._matrix(w).T
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def mean_grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        P = self._probs(w, X)
        P[np.arange(len(y)), y] -= 1.0
        return (P.T @ _augment(X) / len(y)).reshape(-1)

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        P = self._probs(w, X)
        return float(-np.mean(np.log(P[np.arange(len(y)), y] + 1e-300)))

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self._probs(w, X).argmax(axis=1).astype(np.int64)

    def class_weight_block(self, w: np.ndarray, label: int) -> np.ndarray:
        """Feature weights (bias excluded) of one class row."""
        if not 0 <= label < self.n_classes:
            raise ValueError(f"class {label} out of range")
        return self._matrix(w)[label, : self.n_features].copy()


def make_model(family: str, n_features: int, n_classes: int):
    if family == "logreg":
        if n_classes != 2:
            raise ValueError("logreg handles exactly two classes")
        return LogisticModel(n_features)
    if family == "softmax":
        return SoftmaxModel(n_features, n_classes)
    raise ValueError(f"unknown model family {family!r}")


def validation_error(model, w: np.ndarray, dataset) -> float:
    """Fraction of misclassified examples."""
    if len(dataset.labels) == 0:
        raise ValueError("validation set is empty")
    pred = model.predict(w, dataset.features)
    return float(np.mean(pred != dataset.labels))
