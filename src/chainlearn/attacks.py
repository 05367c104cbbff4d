"""Adversary implementations and attack metrics.

Covers the three evaluated threats: label-flip poisoning of local data,
feature reconstruction from aggregated softmax gradients, and the zero-noise
collusion attack on the noising stage (estimated by Monte Carlo over
committee draws rather than by running full rounds).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .committees import draw_committee
from .datasets import Dataset
from .encoding import require, sha256, u64
from .models import SoftmaxModel
from .stake import build_ring

STRATEGY_HONEST = "honest"
STRATEGY_LABEL_FLIP = "label-flip"
STRATEGY_ZERO_NOISE = "zero-noise-collusion"


@dataclass(frozen=True)
class AdversaryConfig:
    fraction: float = 0.0
    strategy: str = STRATEGY_HONEST
    src_label: int = 1
    dst_label: int = 0

    def __post_init__(self):  # a number before any comparison, refused by its JSON key
        require("adversary.fraction", repr(self.fraction), isinstance(self.fraction, (int, float)), "be a number")
        for name in ("src_label", "dst_label"):
            require(f"adversary.{name}", repr(getattr(self, name)), type(getattr(self, name)) is int, "be an integer")
        if not 0 <= self.fraction < 1:
            raise ValueError("adversarial fraction must lie in [0, 1)")
        if self.strategy not in (STRATEGY_HONEST, STRATEGY_LABEL_FLIP, STRATEGY_ZERO_NOISE):
            raise ValueError(f"unknown adversary strategy {self.strategy!r}")


def poison_dataset(data: Dataset, src_label: int, dst_label: int) -> Dataset:
    """Relabel every src example as dst; features untouched."""
    for label in (src_label, dst_label):
        if not 0 <= label < data.num_classes:
            raise ValueError(f"label {label} not in [0, {data.num_classes})")
    labels = data.labels.copy()
    labels[labels == src_label] = dst_label
    return Dataset(data.features, labels, data.num_classes)


def attack_rate(model, weights: np.ndarray, validation: Dataset, src_label: int) -> float:
    """Misclassification rate restricted to the attack's target class."""
    mask = validation.labels == src_label
    if not mask.any():
        raise ValueError(f"validation set has no examples of class {src_label}")
    pred = model.predict(weights, validation.features[mask])
    return float(np.mean(pred != src_label))


def invert_gradient(
    aggregate: np.ndarray, n_features: int, n_classes: int, image_shape: tuple, label: int
) -> np.ndarray:
    """Reconstruct the target class's feature block from an aggregated update
    and render it as an 8-bit image.

    For a softmax layer the class-c weight gradient is proportional to the
    input features, so the block itself is the reconstruction; it is reshaped
    and min-max normalized to [0, 255].
    """
    model = SoftmaxModel(n_features, n_classes)
    aggregate = np.asarray(aggregate, dtype=np.float64)
    if aggregate.shape != (model.dim,):
        raise ValueError(f"aggregate has shape {aggregate.shape}, model needs ({model.dim},)")
    if image_shape[0] * image_shape[1] != n_features:
        raise ValueError(f"image shape {image_shape} does not hold {n_features} features")
    block = model.class_weight_block(aggregate, label)
    lo, hi = block.min(), block.max()
    if hi - lo < 1e-12:
        return np.zeros(image_shape, dtype=np.uint8)
    scaled = (block - lo) / (hi - lo) * 255.0
    return np.rint(scaled).reshape(image_shape).astype(np.uint8)


def image_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of mean-centred, min-max normalised images."""

    def norm(img):
        img = np.asarray(img, dtype=np.float64).reshape(-1)
        lo, hi = img.min(), img.max()
        if hi - lo < 1e-12:
            return np.zeros_like(img)
        img = (img - lo) / (hi - lo)
        return img - img.mean()

    va, vb = norm(a), norm(b)
    denom = np.linalg.norm(va) * np.linalg.norm(vb)
    if denom < 1e-12:
        return 0.0
    return float(va @ vb / denom)


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("PGM output needs a 2-D image")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (image.shape[1], image.shape[0]))
        fh.write(image.tobytes())


COLLUSION_PEERS = 100
COLLUSION_VERIFIERS = 3


def collusion_violation_probability(
    stake_fraction_malicious: float, num_noisers: int, trials: int, seed: int
) -> float:
    """Monte Carlo estimate of the zero-noise collusion attack succeeding.

    Per trial, a fresh tip draws a committee of ``COLLUSION_VERIFIERS``
    verifiers and an honest victim's noiser set from a ring of N =
    ``COLLUSION_PEERS`` peers; the attack lands only when every drawn
    noiser is a colluder (total added noise is zero) and at least one
    colluder sits on the verifier committee to observe the unmasked update.
    Colluders are the first round(fraction * N) peers, all at uniform stake,
    so common random numbers keep the estimate monotone across grid points.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= stake_fraction_malicious < 1:
        raise ValueError("malicious stake fraction must lie in [0, 1)")
    n_malicious = round(stake_fraction_malicious * COLLUSION_PEERS)
    colluders = set(range(n_malicious))
    stake = {pid: 10 for pid in range(COLLUSION_PEERS)}
    ring = build_ring(stake)
    victim = COLLUSION_PEERS - 1  # honest by construction
    violations = 0
    base = sha256(b"collusion-mc" + u64(seed))
    for trial in range(trials):
        tip = sha256(base + u64(trial))
        verifiers = draw_committee(ring, tip + b"verify", COLLUSION_VERIFIERS)
        noisers = draw_committee(ring, tip + b"noise" + u64(victim), num_noisers, exclude={victim})
        if all(n in colluders for n in noisers) and any(v in colluders for v in verifiers):
            violations += 1
    return violations / trials
