"""Multi-KRUM filtering of candidate updates.

Each update is scored by the summed squared distances to its nearest
R - f - 2 neighbours; the R - f lowest-scoring updates are kept.  Outliers
(and small poisoned clusters) rank badly because their neighbourhoods must
reach into the honest mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_SAMPLE = 3  # the fewest updates scored together: at f = 0 each keeps R - 2 >= 1 neighbours


@dataclass(frozen=True)
class KrumConfig:
    R: int  # number of sampled updates scored together
    f: int  # tolerated adversarial count

    def __post_init__(self):
        if self.R < MIN_SAMPLE:
            raise ValueError(f"need at least {MIN_SAMPLE} updates to score")
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if not self.f < (self.R - 2) / 2:
            raise ValueError(f"adversary bound violated: need f < (R-2)/2, got R={self.R}, f={self.f}")

    @property
    def neighbours(self) -> int:
        return self.R - self.f - 2

    @property
    def selected(self) -> int:
        return self.R - self.f


def krum_sample_size(fraction: float, n_peers: int) -> int:
    """R, the number of updates sampled for scoring: ``fraction`` of the
    genesis peers, at least ``MIN_SAMPLE``."""
    return max(MIN_SAMPLE, round(fraction * n_peers))


def updates_per_block(R: int) -> int:
    """u, the number of sampled updates a block sums: half of R, at least 1."""
    return max(1, R // 2)


def max_tolerable_f(R: int) -> int:
    """Largest f with f < (R-2)/2."""
    return max((R - 3) // 2, 0)


def krum_scores(updates, cfg: KrumConfig) -> np.ndarray:
    """Scores s(i) = sum of squared distances to i's nearest R-f-2 others."""
    X = np.asarray(updates, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("updates must be a list of equal-length vectors")
    if len(X) != cfg.R:
        raise ValueError(f"expected exactly R={cfg.R} updates, got {len(X)}")
    diff = X[:, None, :] - X[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    nearest = np.sort(d2, axis=1)[:, : cfg.neighbours]
    return nearest.sum(axis=1)


def multi_krum_select(updates, cfg: KrumConfig) -> list[int]:
    """Indices of the R-f lowest-scoring updates, ties broken by input order."""
    scores = krum_scores(updates, cfg)
    order = np.argsort(scores, kind="stable")
    return sorted(int(i) for i in order[: cfg.selected])
