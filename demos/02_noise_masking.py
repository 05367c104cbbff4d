#!/usr/bin/env python3
"""Pre-committed noise end to end: how much noise a privacy budget buys, how
a peer masks its update with other peers' noise, and why a verifier can check
the masked update against commitments made long before the update existed."""

import numpy as np

from chainlearn import (
    ExperimentSpec, TrainConfig, commit, decode, encode, gaussian_sigma, generate_noise,
)
from chainlearn.bootstrap import build_genesis
from chainlearn.quantize import sum_polys

for eps in (0.5, 1.0, 2.0, 10.0):
    print(f"epsilon={eps:5.1f}  per-example sigma={gaussian_sigma(eps, 1e-5):7.3f}")

# genesis: three peers commit noise for every round up front
spec = ExperimentSpec(total_iterations=4, train=TrainConfig(eta0=0.05, eta_decay=0.05, batch_size=32))
config = spec.protocol_config()
genesis, secrets = build_genesis(config, range(3), b"demo")
pk, table = genesis.commit_pk, genesis.noise_table
backend, dim = pk.backend, pk.degree
print(f"\nnoise table: {len(table)} peers x {config.total_iterations} rounds committed")

# at run time, peer 0 masks its round-2 update with noise from peers 1 and 2,
# each drawn by the same recipe genesis committed
rng = np.random.default_rng(1)
update = encode(rng.normal(size=dim) * 0.05, 424242, backend.order)
noises = {k: generate_noise(config, dim, secrets[k], 2) for k in (1, 2)}
masked = sum_polys([update, *noises.values()])
print("masked - update decodes to the pure noise sum:",
      np.allclose(decode(masked) - decode(update), sum(decode(n) for n in noises.values())))

# the verifier never sees `update`; it checks the masking equality against
# the drawn noisers' genesis entries instead (round t is at index t - 1)
lhs = commit(pk, masked)
rhs = commit(pk, update)
for k in noises:
    rhs = backend.g1_add(rhs, table[k][1])
print("commit(masked) == commit(update) * prod committed noise:", lhs == rhs)

# noise regenerated later is bit-identical to what genesis committed
again = generate_noise(config, dim, secrets[1], 2)
print("regenerated noise matches its genesis commitment:",
      commit(pk, again) == table[1][1])
