"""Pre-committed differentially private noise and update masking.

Every peer's noise vector for every iteration is derived deterministically
from a per-peer seed, quantized at the one fixed-point scale
``quantize.SCALE_BITS``, and committed into an N-by-T table at genesis.
Genesis draws each vector once, keeps the draw in a ``DrawnNoise`` table and
hands each peer its row; at run time a noiser serves the vector from its row,
so a verifier can check a masked update against genesis commitments without
ever seeing the bare update: the mask's commitment must equal the product of
the update commitment and the table entries.

The drawn table is one array for the whole network, to save memory (many
small arrays fragment the heap).  A peer reads only its own row, and the
table never reaches the genesis block or its bytes.  That sharing is the
simulator's, like the root ``TipState`` that ``simnet`` shares: a real peer
holds only its own noise.

Per iteration the noise is a batch-averaged Gaussian: sigma scales the
per-example draw, and the same learning-rate schedule used for updates
scales the sum, so masked updates stay on the update's own footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commitments import CommitPK, commit
from .encoding import seed_words, sha256, u64
from .groups import get_backend
from .quantize import QuantizedPoly, encode, fixed_poly


def gaussian_sigma(epsilon: float, delta: float) -> float:
    """Per-example noise scale for an (epsilon, delta) private step, at the
    epsilon > 0 and delta in (0, 1) that ``ProtocolConfig`` admits."""
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


@dataclass(frozen=True, eq=False)
class DrawnNoise:
    """The noise genesis drew, row i for the i-th peer it drew for: ``fixed[i,
    t - 1]`` holds the round-t data slots in fixed point, as ``encode`` rounds
    them, and ``blinding[i, t - 1]`` the reduced blinding, big-endian.  A
    zero-noise colluder's rows are zeros."""

    fixed: np.ndarray  # float64, (peers, rounds, dim)
    blinding: np.ndarray  # uint8, (peers, rounds, scalar size)
    modulus: int

    def slots(self, row: int, iteration: int) -> tuple:
        """The (fixed, blinding) arrays of ``row``'s round ``iteration``, to draw into."""
        return self.fixed[row, iteration - 1], self.blinding[row, iteration - 1]

    def served(self, row: int, iteration: int) -> QuantizedPoly:
        """``row``'s round-``iteration`` noise, coefficient for coefficient as drawn."""
        fixed, blinding = self.slots(row, iteration)
        return fixed_poly(fixed, int.from_bytes(blinding.tobytes(), "big"), self.modulus)


def generate_noise(config, dim: int, secrets, iteration: int, out=None) -> QuantizedPoly:
    """The quantized noise a peer holding ``secrets`` (a
    ``bootstrap.PeerSecrets``) adds in round ``iteration`` of the network
    whose genesis ``ProtocolConfig`` is ``config``, for a ``dim``-entry
    model.  Genesis draws it once, through this one recipe, to commit it;
    ``out``, if given, is the ``DrawnNoise.slots`` pair the draw is also
    written into, and the peer serves its noise from there at run time.  A
    ``PCG64`` stream seeded with the hash of the peer's seed and the round
    draws a batch of Gaussians, whose sum the learning rate scales, and then
    the blinding, the stream's next 5 raw 64-bit outputs written
    little-endian (the 40 bytes ``Generator.bytes(40)`` would return there),
    reduced mod the order.

    A peer with ``secrets.zero_noise`` models an adversary that commits
    all-zero noise (blinding included) so that colluders can unmask a
    victim's update.
    """
    train = config.train
    modulus = get_backend(config.backend_name).order
    if secrets.zero_noise:
        zeta, blinding = np.zeros(dim), 0
    else:
        sigma = gaussian_sigma(config.epsilon, config.delta)
        seed = int.from_bytes(sha256(b"noise" + secrets.noise_seed + u64(iteration)), "big")
        bits = np.random.PCG64(seed_words(seed))
        zeta = np.random.Generator(bits).normal(0.0, sigma, size=(train.batch_size, dim)).sum(axis=0)
        zeta *= train.eta_at(iteration) / train.batch_size
        blinding = int.from_bytes(bits.random_raw(5).astype("<u8").tobytes(), "little")
    if out is None:
        return encode(zeta, blinding, modulus)
    fixed, blinding_bytes = out
    poly = encode(zeta, blinding, modulus, out=fixed)
    blinding_bytes[:] = np.frombuffer(poly.coeffs[0].to_bytes(len(blinding_bytes), "big"), np.uint8)
    return poly


def build_noise_table(pk: CommitPK, config, secrets: dict, drawn: DrawnNoise | None = None) -> dict:
    """Commit every peer's noise for rounds 1..``config.total_iterations``:
    peer id -> tuple of commitments, round t at index t - 1; ``secrets``
    maps peer id -> ``PeerSecrets``.  With ``drawn``, the i-th peer of
    ``secrets`` writes its draws into row i of it."""
    rounds = range(1, config.total_iterations + 1)
    return {
        peer: tuple(
            commit(pk, generate_noise(config, pk.degree, s, t, None if drawn is None else drawn.slots(row, t)))
            for t in rounds
        )
        for row, (peer, s) in enumerate(secrets.items())
    }
