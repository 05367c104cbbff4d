"""Genesis ceremony: the trusted one-time setup peers bootstrap from.

Derives every peer's keypair and noise seed from a master seed, runs the
commitment-key setup, draws and pre-commits all noise for all iterations
into the noise table and freezes the initial stake.  Everything a joining
peer needs is in the returned genesis block; the per-peer secrets, each with
its row of the drawn noise, go to the peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import sha256, u64
from .commitments import trusted_setup
from .groups import get_backend
from .ledger import GenesisBlock, ProtocolConfig
from .noise import DrawnNoise, build_noise_table
from .signatures import KeyPair, keygen


@dataclass(frozen=True)
class PeerSecrets:
    keypair: KeyPair
    noise_seed: bytes
    zero_noise: bool = False  # a colluder that commits all-zero noise
    drawn: DrawnNoise | None = field(default=None, repr=False)  # genesis's draws; this peer reads row ``row``
    row: int = 0

    def noise(self, iteration: int):
        """The noise genesis drew and committed for this peer's round ``iteration``."""
        return self.drawn.served(self.row, iteration)


def build_genesis(
    config: ProtocolConfig,
    peer_ids,
    master_seed: bytes,
    initial_stake: int = 10,
    zero_noise_peers=frozenset(),
) -> tuple[GenesisBlock, dict]:
    """Returns (genesis block, {peer id -> PeerSecrets})."""
    backend = get_backend(config.backend_name)
    peer_ids = sorted(peer_ids)
    dim = config.model_dim
    pk = trusted_setup(backend, dim, sha256(b"commit-key" + master_seed))

    secrets = {}
    for pid in peer_ids:
        kp = keygen(backend, sha256(b"peer-key" + master_seed + u64(pid)))
        noise_seed = sha256(b"noise-seed" + master_seed + u64(pid))
        secrets[pid] = PeerSecrets(kp, noise_seed, pid in zero_noise_peers)

    shape = (len(peer_ids), config.total_iterations)
    drawn = DrawnNoise(np.zeros((*shape, dim)), np.zeros((*shape, backend.scalar_size), np.uint8), backend.order)
    noise_table = build_noise_table(pk, config, secrets, drawn)
    genesis = GenesisBlock(
        initial_model=np.zeros(dim),
        commit_pk=pk,
        peer_pubkeys={pid: s.keypair.public for pid, s in secrets.items()},
        noise_table=noise_table,
        initial_stake={pid: initial_stake for pid in peer_ids},
        global_key=sha256(b"global-key" + master_seed),
        config=config,
    )
    return genesis, {pid: replace(s, drawn=drawn, row=row) for row, (pid, s) in enumerate(secrets.items())}
