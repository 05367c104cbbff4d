import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from chainlearn import ledger
from chainlearn.bootstrap import build_genesis
from chainlearn.commitments import commit, slots
from chainlearn.encoding import sha256, u64
from chainlearn.ledger import (
    Block,
    CommitmentEntry,
    ProtocolConfig,
    block_content_hash,
    round_committees,
    sign_off,
)
from chainlearn.quantize import decode, encode, sum_polys
from chainlearn.sgd import TrainConfig
from chainlearn.signatures import sign
from chainlearn.stake import build_ring
from chainlearn.vss import deal_shares

# `pytest --hypothesis-profile=ci` replays the same examples on every run;
# `fuzz` does too, with many more of them, for the decoder fuzzing
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=True, database=None, max_examples=2000)


def tiny_config(**overrides) -> ProtocolConfig:
    defaults = dict(
        backend_name="exponent",
        model_family="logreg",
        n_features=3,
        n_classes=2,
        total_iterations=6,
        epsilon=2.0,
        delta=1e-5,
        num_noisers=2,
        num_verifiers=3,
        num_aggregators=3,
        collect_fraction=0.7,
        stake_reward=5,
        train=TrainConfig(eta0=0.05, eta_decay=0.02, weight_decay=1e-4, batch_size=8),
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


@pytest.fixture(scope="session")
def tiny_net():
    """A 12-peer genesis on the exponent backend, shared read-only."""
    config = tiny_config()
    genesis, secrets = build_genesis(config, range(12), b"tiny-net-seed")
    return genesis, secrets


def deal(q, pk, aggregators, dealer=0, signoffs=()):
    """``vss.deal_shares`` of ``q`` by ``dealer`` over the slot map of
    ``aggregators``, under its block entry with the verifier sign-offs
    ``signoffs``."""
    entry = CommitmentEntry(dealer, commit(pk, q))
    return deal_shares(q, pk, slots(q.dim, aggregators), entry, signoffs)


def honest_block(genesis, secrets, ledger, seed=0, contributor_count=4):
    """Build a fully valid block for the next round without running the network."""
    backend = genesis.commit_pk.backend
    t = ledger.tip_iteration() + 1
    prev = ledger.tip_hash()
    verifiers, aggregators = round_committees(genesis, build_ring(ledger.stake), prev, t)
    committee = set(verifiers) | set(aggregators)
    eligible = [p for p in sorted(genesis.peer_pubkeys) if p not in committee]
    contributors = eligible[:contributor_count]
    rng = np.random.default_rng(seed)
    dim = len(genesis.initial_model)

    polys = {}
    entries = []
    for pid in contributors:
        v = rng.normal(scale=0.05, size=dim)
        q = encode(
            v,
            int.from_bytes(sha256(b"blind" + u64(pid) + u64(t)), "big") % backend.order,
            backend.order,
        )
        polys[pid] = q
        entries.append(CommitmentEntry(pid, commit(genesis.commit_pk, q)))
    signoffs = tuple(
        sign_off(backend, secrets[vid].keypair, t, vid, entries) for vid in sorted(verifiers)
    )

    aggregate = sum_polys([polys[p] for p in contributors])
    prev_weights = ledger.current_model().weights
    block = Block(
        prev_hash=prev,
        iteration=t,
        aggregate_poly=aggregate,
        model_weights=prev_weights + decode(aggregate),
        commitments=tuple(entries),
        signoffs=signoffs,
        signature=b"",
    )
    return resign_as_proposer(block, genesis, secrets, ledger)


def resplit(winners):
    """``winners``' bytes cut with one record boundary moved: as many
    records, still strictly ascending, so the signed message is unchanged;
    None if no such cut exists."""
    joined, ends = b"".join(winners), [0]
    for rec in winners:
        ends.append(ends[-1] + len(rec))
    for i in range(1, len(winners)):
        for end in range(ends[i - 1] + 1, ends[i + 1]):
            cut = [*ends[:i], end, *ends[i + 1 :]]
            records = tuple(joined[a:b] for a, b in zip(cut, cut[1:]))
            if end != ends[i] and all(a < b for a, b in zip(records, records[1:])):
                return records
    return None


def resign_as_proposer(block, genesis, secrets, ledger):
    """Re-sign a (possibly tampered) block with the legitimate proposer's key,
    modelling a Byzantine aggregator endorsing bogus content."""
    backend = genesis.commit_pk.backend
    _, aggregators = round_committees(
        genesis, build_ring(ledger.stake), block.prev_hash, block.iteration
    )
    sig = sign(backend, secrets[aggregators[0]].keypair, block_content_hash(block, backend))
    return dataclasses.replace(block, signature=sig)


def count_block_checks(monkeypatch) -> list:
    """The polynomial of each commitment identity the block rule checks from
    now on: one per block whose sign-offs, signature, commitments and weights
    it works out past its gates."""
    calls, commit_ = [], ledger.commit

    def counted(pk, poly):
        calls.append(poly)
        return commit_(pk, poly)

    monkeypatch.setattr(ledger, "commit", counted)
    return calls
