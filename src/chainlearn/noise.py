"""Pre-committed differentially private noise and update masking.

Every peer's noise vector for every iteration is derived deterministically
from a per-peer seed, quantized at the one fixed-point scale
``quantize.SCALE_BITS``, and committed into an N-by-T table at genesis.  At
run time the same derivation reproduces the committed vector bit-exactly, so
a verifier can check a masked update against genesis commitments without
ever seeing the bare update: the mask's commitment must equal the product of
the update commitment and the table entries.

Per iteration the noise is a batch-averaged Gaussian: sigma scales the
per-example draw, and the same learning-rate schedule used for updates
scales the sum, so masked updates stay on the update's own footing.
"""

from __future__ import annotations

import math

import numpy as np

from .commitments import CommitPK, commit
from .encoding import sha256, u64
from .groups import get_backend
from .quantize import QuantizedPoly, encode, sum_polys


def gaussian_sigma(epsilon: float, delta: float) -> float:
    """Per-example noise scale for an (epsilon, delta) private step, at the
    epsilon > 0 and delta in (0, 1) that ``ProtocolConfig`` admits."""
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def generate_noise(config, dim: int, secrets, iteration: int) -> QuantizedPoly:
    """The quantized noise a peer holding ``secrets`` (a
    ``bootstrap.PeerSecrets``) adds in round ``iteration`` of the network
    whose genesis ``ProtocolConfig`` is ``config``, for a ``dim``-entry
    model.  The genesis table commits it and the peer hands it out at run
    time, so both call this one recipe: a ``PCG64`` stream seeded with the
    hash of the peer's seed and the round draws a batch of Gaussians, whose
    sum the learning rate scales, and then the blinding, the stream's next
    5 raw 64-bit outputs written little-endian (the 40 bytes
    ``Generator.bytes(40)`` would return there), reduced mod the order.

    A peer with ``secrets.zero_noise`` models an adversary that commits
    all-zero noise (blinding included) so that colluders can unmask a
    victim's update.
    """
    train = config.train
    modulus = get_backend(config.backend_name).order
    if secrets.zero_noise:
        return encode(np.zeros(dim), 0, modulus)
    sigma = gaussian_sigma(config.epsilon, config.delta)
    bits = np.random.PCG64(int.from_bytes(sha256(b"noise" + secrets.noise_seed + u64(iteration)), "big"))
    zeta = np.random.Generator(bits).normal(0.0, sigma, size=(train.batch_size, dim)).sum(axis=0)
    zeta *= train.eta_at(iteration) / train.batch_size
    blinding = int.from_bytes(bits.random_raw(5).astype("<u8").tobytes(), "little") % modulus
    return encode(zeta, blinding, modulus)


def build_noise_table(pk: CommitPK, config, secrets: dict) -> dict:
    """Commit every peer's noise for rounds 1..``config.total_iterations``:
    peer id -> tuple of commitments, round t at index t - 1; ``secrets``
    maps peer id -> ``PeerSecrets``."""
    rounds = range(1, config.total_iterations + 1)
    return {
        peer: tuple(commit(pk, generate_noise(config, pk.degree, s, t)) for t in rounds)
        for peer, s in secrets.items()
    }


def mask_update(update_q: QuantizedPoly, noises) -> QuantizedPoly:
    """Field-domain sum of the update with its noise vectors (blinding slots
    included), the only form of the update a verifier ever sees."""
    noises = list(noises)
    if not noises:
        raise ValueError("at least one noise vector is required")
    return sum_polys([update_q] + noises)
