#!/usr/bin/env python3
"""Run a small network for a few rounds and dissect what ended up on the
chain: block anatomy, the commitment-product identity, stake flow and a
catch-up by a fresh replica."""

from chainlearn import Ledger, combine, commit, decode, get_backend
from chainlearn.bootstrap import build_genesis
from chainlearn.datasets import make_dataset, partition
from chainlearn.ledger import ProtocolConfig, record_peer
from chainlearn.sgd import TrainConfig
from chainlearn.simnet import Simulation

config = ProtocolConfig(
    backend_name="exponent", model_family="logreg", n_features=3, n_classes=2,
    total_iterations=4, epsilon=2.0, delta=1e-5,
    num_noisers=2, num_verifiers=3, num_aggregators=3,
    collect_fraction=0.7, stake_reward=5,
    train=TrainConfig(eta0=0.01, eta_decay=0.05, weight_decay=1e-4, batch_size=32),
)
genesis, secrets = build_genesis(config, range(12), b"walkthrough")
data = make_dataset("synthetic-blobs", {"n": 1200, "features": 3, "separation": 6.0}, seed=0)
shards = partition(data, 12, seed=0)

sim = Simulation(genesis, secrets, dict(enumerate(shards)), seed=0)
result = sim.run()
print(f"simulated {result.final_time:.0f}s, {result.final_ledger.height} blocks, "
      f"{result.forks} forks")

backend = get_backend("exponent")
when, block = result.block_records[0]
print(f"\nblock 1 (minted at t={when:.2f}s):")
print("  contributors:", [e.peer for e in block.commitments])
# a sign-off holds its winners' pair encodings, each starting with the peer id
print("  sign-offs, verifier -> peers it names:",
      {s.verifier: [record_peer(rec) for rec in s.winners] for s in block.signoffs})
print("  aggregate step norm: %.4f" % float((decode(block.aggregate_poly) ** 2).sum() ** 0.5))

product = combine(backend, [e.commitment for e in block.commitments])
sealed = commit(genesis.commit_pk, block.aggregate_poly)
print("  commit(aggregate) == product of update commitments:",
      sealed == product)
print("\nsign-offs per block (one signature each):", [len(b.signoffs) for _, b in result.block_records])

ledger = result.final_ledger
print("\nstake after the run (first 6 peers):",
      {p: ledger.stake[p] for p in range(6)})

# a brand-new replica verifies everything from genesis
fresh = Ledger(genesis)
ok, reason = fresh.catch_up(ledger.blocks)
print("fresh replica caught up:", ok, "- tips match:", fresh.tip_hash() == ledger.tip_hash())
