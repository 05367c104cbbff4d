"""The per-peer update rule.

A local update is one regularized SGD step against the shared model,
computed on a uniformly sampled (with replacement) batch of local data and
carried as a delta that the ledger later adds to the model:

    delta = -eta_t * (lambda * w + mean_batch grad)

clipped to unit Euclidean norm so committed noise of a known scale can mask
it.  The learning rate decays as eta_t = eta0 / (1 + decay * t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import require, seed_words
from .models import ModelParams

CLIP_NORM = 1.0


@dataclass(frozen=True)
class TrainConfig:
    """The local training settings; the defaults are the reference deployment's."""

    eta0: float = 0.008
    eta_decay: float = 0.04
    weight_decay: float = 1e-4  # lambda
    batch_size: int = 256

    def __post_init__(self):
        for name, value in vars(self).items():  # each a number, refused as such before any comparison
            require(f"train.{name}", repr(value), isinstance(value, (int, float)), "be a number")
        for name in ("eta0", "batch_size"):
            require(f"train.{name}", getattr(self, name), getattr(self, name) > 0, "be positive")
        for name in ("eta_decay", "weight_decay"):  # the rate never grows
            require(f"train.{name}", getattr(self, name), getattr(self, name) >= 0, "be non-negative")

    def eta_at(self, t: int) -> float:
        return self.eta0 / (1.0 + self.eta_decay * t)


def clip_to_unit_norm(v: np.ndarray) -> np.ndarray:
    """``v``, a flat float64 vector, scaled down to unit norm if longer;
    the norm is what ``np.linalg.norm`` computes for it."""
    norm = math.sqrt(v.dot(v))
    if norm > CLIP_NORM:
        return v * (CLIP_NORM / norm)
    return v


def compute_local_update(
    model, params: ModelParams, dataset, cfg: TrainConfig, rng_seed: int
) -> np.ndarray:
    """The clipped delta of one deterministic local step; same seed, same bits."""
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.features.shape[1] != model.n_features:
        raise ValueError("dataset feature dimension does not match the model")
    rng = np.random.default_rng(seed_words(rng_seed))
    batch = rng.integers(0, n, size=cfg.batch_size)
    grad = model.mean_grad(params.weights, dataset.features[batch], dataset.labels[batch])
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    delta = -cfg.eta_at(params.iteration) * (cfg.weight_decay * params.weights + grad)
    return clip_to_unit_norm(delta)

