import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlearn import groups, ledger, noise, protocol, signatures, simnet, vss
from chainlearn.bootstrap import build_genesis
from chainlearn.commitments import Witness, commit
from chainlearn.committees import draw_committee, draw_noisers, noiser_seed, verify_vrf
from chainlearn.datasets import make_dataset, partition
from chainlearn.encoding import sha256, u64
from chainlearn.ledger import (
    CommitmentEntry,
    Ledger,
    SignOff,
    TipState,
    block_content_hash,
    load_chain,
    pair_records,
    record_peer,
    round_committees,
    save_chain,
    sign_off,
)
from chainlearn.noise import build_noise_table, generate_noise, mask_update
from chainlearn.protocol import (
    REFUSAL_REASONS,
    AggAnnounce,
    AggShareMsg,
    NoiseRequest,
    PeerNode,
    SignatureGrant,
    Timer,
    UpdateSubmission,
    submission_rejection,
)
from chainlearn.quantize import encode
from chainlearn.sgd import compute_local_update
from chainlearn.signatures import sign
from chainlearn.simnet import Simulation
from chainlearn.stake import build_ring

from conftest import count_block_checks, tiny_config

# Tip hashes of two fixed runs. Any arithmetic rewrite that changes chain
# bytes fails here, on both group backends.
EXPONENT_TIP = "42175da53bb99dc73409507a997a3a89af96a24ca594bdd0bf696ea81f332b0f"
PAIRING_TIP = "7440cad77a721400cb4efd76bf74665093edb0942cbf82876c77fb1712f1c4e3"
# sha256 of the round-1 signed payloads of make_sim(), one message per sender
# concatenated in sender order. These signatures never enter a block, so the
# tip hashes above do not cover their encoding. The aggregate-share payload
# counts its contributor and value lists and writes each value at the
# order's byte width, so the signed bytes fix where each list and each field
# ends. Receivers derive what the round fixes, so neither payload carries it:
# a submission carries its noiser proof but not the committee it walks to,
# and an aggregate share its values but not the sender's points. These are
# the bytes the earlier layouts signed with the committee's u32s and the
# points taken out.
SUBMISSION_PAYLOADS = "1c1410010306a398cb06e680f391716e1e5b6d159d628918c79eb7f3138df303"
AGGSHARE_PAYLOADS = "a27faa0d60a91c6a865b47a1ba6325923a34baf80189704f7c28096c00eb830a"
# The tip and the refusal records, (peer, (round, sender, reason)) in each
# peer's order, of make_sim(seed=12, iterations=8, churn_per_minute=30.0): a
# run whose rejoining peers catch up from other replicas' chains.
CHURN_TIP = "af4c455ffdb2d3504ff95d18f69791e45fa81bf6af996cb680b3549e6526cbb7"
CHURN_RECORDS = [
    (0, (3, 4, "stray-noise-response")), (0, (3, 8, "stray-noise-response")),
    (1, (8, 2, "late-aggregate-share")), (3, (3, 9, "committee-submitter")),
    (3, (4, 5, "late-aggregate-share")), (3, (6, 0, "stray-bundle")), (3, (6, 9, "stray-bundle")),
    (3, (6, 1, "stray-bundle")), (3, (6, 4, "stray-announce")), (4, (3, 0, "stray-noise-response")),
    (4, (3, 9, "stray-noise-response")), (5, (3, 9, "stray-submission")),
    (6, (3, 9, "stray-submission")), (6, (5, 3, "late-aggregate-share")),
    (8, (3, 4, "stray-noise-response")), (8, (3, 3, "stray-noise-response")),
    (9, (6, 9, "no-accepted-bundles")),
]


def make_sim(
    n_peers=10, iterations=5, seed=3, backend="exponent", features=3, churn_per_minute=0.0,
    zero_noise_peers=frozenset(), **cfg_over,
):
    config = tiny_config(
        total_iterations=iterations, n_features=features, backend_name=backend, **cfg_over
    )
    genesis, secrets = build_genesis(
        config, range(n_peers), b"proto-test-%d" % seed, zero_noise_peers=zero_noise_peers
    )
    data = make_dataset(
        "synthetic-blobs",
        {"n": n_peers * 80, "features": features, "classes": config.n_classes, "separation": 6.0},
        seed=seed,
    )
    shards = partition(data, n_peers, seed=seed)
    datasets = {i: shards[i] for i in range(n_peers)}
    return Simulation(genesis, secrets, datasets, churn_per_minute, seed)


@pytest.fixture(scope="module")
def happy_run():
    sim = make_sim()
    result = sim.run()
    return sim, result


def test_liveness_every_round_produces_a_block(happy_run):
    _, result = happy_run
    assert [b.iteration for _, b in result.block_records] == [1, 2, 3, 4, 5]
    assert result.final_ledger.height == 5


def test_agreement_all_peers_share_one_tip(happy_run):
    sim, result = happy_run
    tips = {peer.ledger.tip_hash() for peer in sim.peers.values()}
    assert len(tips) == 1
    assert result.forks == 0


def test_exponent_tip_is_pinned(happy_run):
    _, result = happy_run
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP


def test_signed_payloads_are_pinned(monkeypatch):
    payloads = {UpdateSubmission: {}, AggShareMsg: {}}
    handle = PeerNode.handle

    def recording(peer, event, now):
        actions = handle(peer, event, now)
        for _, msg, _ in actions:
            if type(msg) in payloads and msg.iteration == 1:
                # an aggregate share is signed over the announce it answers
                extra = (event.contributors,) if type(msg) is AggShareMsg else ()
                payloads[type(msg)][msg.sender] = msg.payload_bytes(peer.backend, *extra)
        return actions

    monkeypatch.setattr(PeerNode, "handle", recording)
    make_sim().run()

    def digest(by_sender):
        return sha256(b"".join(by_sender[s] for s in sorted(by_sender))).hex()

    assert digest(payloads[UpdateSubmission]) == SUBMISSION_PAYLOADS
    assert digest(payloads[AggShareMsg]) == AGGSHARE_PAYLOADS


def test_aggregate_share_signature_binds_the_announce(monkeypatch):
    """An aggregator that signs its summed shares over another contributor
    set than the proposer announced is refused as a bad signature and does
    not count toward the quorum; the round seals on the other aggregators."""
    sim = make_sim()
    _, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    proposer = aggregators[0]
    collect = PeerNode._on_AggShareMsg
    rogue, counted = None, []

    def collecting(peer, msg, now):
        nonlocal rogue
        if peer.id == proposer and msg.iteration == 1 and msg.sender != proposer and rogue is None:
            # the first other aggregator to reach the proposer, whichever the
            # draw makes it, signed over all but the last announced contributor
            rogue = msg.sender
            payload = msg.payload_bytes(peer.backend, peer.round.announce[:-1])
            msg = dataclasses.replace(msg, signature=sign(peer.backend, sim.peers[rogue].secrets.keypair, payload))
        out = collect(peer, msg, now)
        if peer.id == proposer and msg.sender == rogue and msg.iteration == 1:
            counted.append(rogue in peer.round.agg_shares)
        return out

    monkeypatch.setattr(PeerNode, "_on_AggShareMsg", collecting)
    result = sim.run()
    assert (1, rogue, "bad-aggregate-share-signature") in sim.peers[proposer].audit
    assert counted == [False]
    assert [b.iteration for b in result.final_ledger.blocks] == [1, 2, 3, 4, 5]


def test_share_with_an_evaluation_outside_the_field_is_a_bad_signature(monkeypatch):
    """An aggregator that sends a summed value of -1 under an arbitrary
    signature is refused as a bad aggregate-share signature: the signed
    bytes reduce each value mod the order, so no integer makes them raise.  The round seals on the other aggregators, and
    the chain is the one the honest run builds."""
    sim = make_sim()
    _, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    proposer, rogue = aggregators[:2]
    answer = PeerNode._on_AggAnnounce

    def out_of_range(peer, msg, now):
        out = answer(peer, msg, now)
        if peer.id != rogue or msg.iteration != 1 or not out:
            return out
        reply = out[0][1]
        reply = dataclasses.replace(reply, values=(-1, *reply.values[1:]), signature=b"\x01" * 64)
        return [(dest, reply, extra) for dest, _, extra in out]

    monkeypatch.setattr(PeerNode, "_on_AggAnnounce", out_of_range)
    result = sim.run()
    assert (1, rogue, "bad-aggregate-share-signature") in sim.peers[proposer].audit
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP


def test_a_wrong_aggregate_value_voids_the_round(monkeypatch):
    """An aggregator whose summed value at its lowest point is wrong, under
    a valid signature, makes the interpolant miss the combined commitment:
    the proposer records ``recovery-failed`` once for that round, which
    seals no block, refuses the shares that come after its one attempt as
    late, and the later rounds seal."""
    sim = make_sim()
    _, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    proposer = aggregators[0]
    collect = PeerNode._on_AggShareMsg
    rogue = None

    def wrong_value(peer, msg, now):
        nonlocal rogue
        if peer.id == proposer and msg.iteration == 1 and msg.sender != proposer and rogue is None:
            # the first other aggregator to reach the proposer is within the
            # quorum, and its lowest point within the interpolated ones
            rogue = msg.sender
            y, *rest = msg.values
            msg = dataclasses.replace(msg, values=(y + 1, *rest))
            payload = msg.payload_bytes(peer.backend, peer.round.announce)
            msg = dataclasses.replace(msg, signature=sign(peer.backend, sim.peers[rogue].secrets.keypair, payload))
        return collect(peer, msg, now)

    monkeypatch.setattr(PeerNode, "_on_AggShareMsg", wrong_value)
    result = sim.run()
    audit = sim.peers[proposer].audit
    assert audit.count((1, proposer, "recovery-failed")) == 1
    late = [a for a in aggregators if a not in (proposer, rogue)]
    assert late and all((1, a, "late-aggregate-share") in audit for a in late)
    assert not any(rec[1] == rogue and rec[2] == "bad-aggregate-share-signature" for rec in audit)
    assert [b.iteration for b in result.final_ledger.blocks] == [2, 3, 4, 5]


def test_a_share_with_an_extra_value_is_malformed(monkeypatch):
    """An aggregator that appends one value to its summed share, under a
    valid signature, cannot name a point outside its slot: the proposer
    pairs values with the sender's own points, refuses the share as
    ``malformed-aggregate-share`` and seals round 1 on the other
    aggregators, so the chain is the one the honest run builds."""
    sim = make_sim()
    _, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    proposer = aggregators[0]
    collect = PeerNode._on_AggShareMsg
    rogue = None

    def extra_value(peer, msg, now):
        nonlocal rogue
        if peer.id == proposer and msg.iteration == 1 and msg.sender != proposer and rogue is None:
            rogue = msg.sender
            msg = dataclasses.replace(msg, values=(*msg.values, 12345))
            payload = msg.payload_bytes(peer.backend, peer.round.announce)
            msg = dataclasses.replace(msg, signature=sign(peer.backend, sim.peers[rogue].secrets.keypair, payload))
        return collect(peer, msg, now)

    monkeypatch.setattr(PeerNode, "_on_AggShareMsg", extra_value)
    result = sim.run()
    audit = sim.peers[proposer].audit
    assert (1, rogue, "malformed-aggregate-share") in audit
    assert (1, proposer, "recovery-failed") not in audit
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP


def test_proposer_recovers_once_the_shares_hold_d_plus_1_points(monkeypatch):
    """With 4 aggregators and dim 4 the 10 share points split 3, 3, 2, 2, so
    the first two shares to reach a proposer can hold 4 < d+1 = 5 points:
    the proposer waits for a third share before its one recovery attempt,
    and every round seals."""
    sim = make_sim(seed=5, iterations=6, num_aggregators=4)
    needed = sim.genesis.commit_pk.degree + 1
    assert needed == 5
    collect = PeerNode._on_AggShareMsg
    short = []  # rounds whose first two shares held fewer than d+1 points

    def watch(peer, msg, now):
        rs = peer.round
        if peer.is_proposer() and msg.iteration == rs.iteration and len(rs.agg_shares) == 1:
            (first,) = rs.agg_shares
            if msg.sender != first and len(rs.slots[first]) + len(rs.slots[msg.sender]) < needed:
                short.append(msg.iteration)
        return collect(peer, msg, now)

    monkeypatch.setattr(PeerNode, "_on_AggShareMsg", watch)
    result = sim.run()
    assert short, "no round reached the case"
    assert [b.iteration for b in result.final_ledger.blocks] == [1, 2, 3, 4, 5, 6]
    assert not any(rec[2] == "recovery-failed" for p in sim.peers.values() for rec in p.audit)


def test_every_appended_block_revalidates(happy_run):
    sim, result = happy_run
    from chainlearn.ledger import Ledger

    replay = Ledger(sim.genesis)
    for _, block in result.block_records:
        ok, reason = replay.append(block)
        assert ok, reason


def test_one_update_per_peer_per_block(happy_run):
    _, result = happy_run
    for _, block in result.block_records:
        peers = [e.peer for e in block.commitments]
        assert len(peers) == len(set(peers))


def test_determinism_same_seed_same_chain():
    r1 = make_sim(seed=9).run()
    r2 = make_sim(seed=9).run()
    assert [b.iteration for _, b in r1.block_records] == [b.iteration for _, b in r2.block_records]
    h1 = r1.final_ledger.tip_hash()
    h2 = r2.final_ledger.tip_hash()
    assert h1 == h2
    assert r1.final_time == r2.final_time
    r3 = make_sim(seed=10).run()
    assert r3.final_ledger.tip_hash() != h1


def test_offline_verifier_round_still_completes():
    sim = make_sim(seed=4, iterations=3)
    verifiers, _ = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    sim.online[verifiers[1]] = False
    result = sim.run()
    # 2 of 3 verifier signatures still form a majority
    assert 1 in [b.iteration for _, b in result.block_records]


def test_offline_proposer_voids_round_and_training_continues():
    sim = make_sim(seed=4, iterations=4)
    _, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    sim.online[aggregators[0]] = False
    result = sim.run()
    produced = [b.iteration for _, b in result.block_records]
    assert 1 not in produced, "the round led by a dead proposer must void"
    assert produced, "later rounds recover"
    # the model was unchanged during the voided round
    first = result.block_records[0][1]
    np.testing.assert_array_equal(
        first.model_weights,
        sim.genesis.initial_model + __import__("chainlearn.quantize", fromlist=["decode"]).decode(first.aggregate_poly),
    )


def make_submission(sim, peer_id, iteration=1, tamper=None):
    """Craft the masked submission peer_id would send in round 1."""
    genesis = sim.genesis
    peer = sim.peers[peer_id]
    backend = peer.backend
    cfg = genesis.config
    prev_hash = genesis.hash()
    params = peer.ledger.current_model()
    seed = int.from_bytes(sha256(b"batch" + peer.secrets.noise_seed + u64(iteration)), "big")
    delta = compute_local_update(peer.model, params, peer.dataset, cfg.train, seed)
    blinding = int.from_bytes(sha256(b"blind" + peer.secrets.noise_seed + u64(iteration)), "big")
    update_q = encode(delta, blinding % backend.order, backend.order)
    commitment = commit(genesis.commit_pk, update_q)
    ring = build_ring(peer.ledger.stake)
    noiser_ids, proof = draw_noisers(
        backend, peer.secrets.keypair, peer_id, ring, prev_hash, iteration, cfg.num_noisers
    )
    if tamper == "unkeyed-draw":
        # the public walk from the same seed, with no proof
        seed = noiser_seed(backend.g1_to_bytes(peer.secrets.keypair.public), prev_hash, iteration)
        noiser_ids, proof = draw_committee(ring, seed, cfg.num_noisers, exclude={peer_id}), b""
    if tamper == "undrawn-noise":
        others = [p for p in sorted(sim.peers) if p not in noiser_ids and p != peer_id]
        noiser_ids = tuple(others[: cfg.num_noisers])
    noises = [generate_noise(cfg, update_q.dim, sim.peers[nid].secrets, iteration) for nid in noiser_ids]
    if tamper == "non-genesis-noise":
        # fresh noise that is NOT what was committed: try to unpoison the update
        rogue = dataclasses.replace(sim.peers[noiser_ids[0]].secrets, noise_seed=b"rogue")
        noises[0] = generate_noise(cfg, update_q.dim, rogue, iteration)
    masked = mask_update(update_q, noises)
    if tamper == "padded":
        # one data slot more than the model has, and than the commitment key takes
        masked = dataclasses.replace(masked, coeffs=masked.coeffs + (0,))
    sub = UpdateSubmission(iteration, peer_id, masked, commitment, proof)
    sig = sign(backend, peer.secrets.keypair, sub.payload_bytes(backend))
    sub = dataclasses.replace(sub, signature=sig)
    if tamper == "bad-signature":
        sub = dataclasses.replace(sub, signature=sig[:-2] + b"\x00\x00")
    return sub


def eligible_peer(sim, iteration=1):
    verifiers, aggregators = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), iteration
    )
    committee = set(verifiers) | set(aggregators)
    return next(p for p in sorted(sim.peers) if p not in committee)


def rejection(sim, sub):
    """The verdict of a round-1 verifier on ``sub``."""
    return submission_rejection(sub, TipState.root(sim.genesis))


def test_honest_masked_submission_verifies():
    sim = make_sim(seed=6)
    assert rejection(sim, make_submission(sim, eligible_peer(sim))) == ""


def test_non_genesis_noise_rejected():
    """Noise not matching the pre-committed table cannot slip through."""
    sim = make_sim(seed=6)
    sub = make_submission(sim, eligible_peer(sim), tamper="non-genesis-noise")
    assert rejection(sim, sub) == "masking-mismatch"


def test_undrawn_noisers_noise_is_a_masking_mismatch():
    """A submission under the sender's valid draw, masked with the genesis
    noise of peers the draw did not name, passes every check up to the
    masking equality and is refused there."""
    sim = make_sim(seed=6)
    sub = make_submission(sim, eligible_peer(sim), tamper="undrawn-noise")
    assert rejection(sim, sub) == "masking-mismatch"


def test_unkeyed_noiser_draw_rejected():
    """A submitter who may mask with the public walk from its noiser seed
    picks whichever of two masked updates Multi-KRUM prefers, and anyone can
    predict that noiser set in advance.  Sent with no proof, it draws no
    noisers, so the submission is a bad draw."""
    sim = make_sim(seed=6)
    peer_id = eligible_peer(sim)
    unkeyed = make_submission(sim, peer_id, tamper="unkeyed-draw")
    assert unkeyed.noiser_proof == b""
    key, cfg = sim.genesis.peer_pubkeys[peer_id], sim.genesis.config
    ring, tip = build_ring(sim.genesis.initial_stake), sim.genesis.hash()
    assert verify_vrf(b"", sim.peers[peer_id].backend, key, peer_id, ring, tip, 1, cfg.num_noisers) == ()
    assert rejection(sim, unkeyed) == "bad-noiser-draw"


def test_bad_submission_signature_rejected():
    sim = make_sim(seed=6)
    sub = make_submission(sim, eligible_peer(sim), tamper="bad-signature")
    assert rejection(sim, sub) == "bad-submission-signature"


def test_padded_submission_rejected():
    """A signed submission whose masked update has one coefficient too many
    is refused before its commitment is computed, which the key's length
    would refuse with an error."""
    sim = make_sim(seed=6)
    sub = make_submission(sim, eligible_peer(sim), tamper="padded")
    assert rejection(sim, sub) == "inadmissible-update"


def test_padded_noise_voids_the_update(monkeypatch):
    """Noise padded with a zero coefficient is refused as a genesis mismatch
    before it is committed or masked, both of which would raise on it."""
    respond = PeerNode._on_NoiseRequest
    rogue = 0

    def padded(peer, msg, now):
        out = respond(peer, msg, now)
        if peer.id != rogue:
            return out
        return [
            (dest, dataclasses.replace(
                reply, quantized=dataclasses.replace(reply.quantized, coeffs=reply.quantized.coeffs + (0,)),
            ), extra)
            for dest, reply, extra in out
        ]

    monkeypatch.setattr(PeerNode, "_on_NoiseRequest", padded)
    sim = make_sim()
    result = sim.run()
    refused = [rec for peer in sim.peers.values() for rec in peer.audit if rec[1:] == (rogue, "noise-not-genesis")]
    assert refused
    assert result.final_ledger.height >= 1


def test_noise_off_its_genesis_entry_voids_the_update_at_the_last_response(monkeypatch):
    """Round-1 noise with one coefficient +1 is admissible, so it passes the
    gate on arrival, but not the updater's one check of the noise sum: the
    updater names that noiser alone, once, submits nothing that round, and
    the run still seals.  The rogue is the first peer asked for round-1 noise."""
    respond, handle = PeerNode._on_NoiseRequest, PeerNode.handle
    requests, submitted = [], set()  # round 1's (noiser, updater); (round, sender) a verifier got

    def off_by_one(peer, msg, now):
        out = respond(peer, msg, now)
        if msg.iteration != 1:
            return out
        requests.append((peer.id, msg.sender))
        if peer.id != requests[0][0]:
            return out
        poly = out[0][1].quantized
        bad = (poly.coeffs[0], (poly.coeffs[1] + 1) % poly.modulus, *poly.coeffs[2:])
        return [(dest, dataclasses.replace(reply, quantized=dataclasses.replace(poly, coeffs=bad)), extra)
                for dest, reply, extra in out]

    def recording(peer, event, now):
        if isinstance(event, UpdateSubmission):
            submitted.add((event.iteration, event.sender))
        return handle(peer, event, now)

    monkeypatch.setattr(PeerNode, "_on_NoiseRequest", off_by_one)
    monkeypatch.setattr(PeerNode, "handle", recording)
    sim = make_sim()
    result = sim.run()
    rogue = requests[0][0]
    victims = {updater for noiser, updater in requests if noiser == rogue}
    assert victims
    for updater in victims:
        assert {noiser for noiser, u in requests if u == updater} - {rogue}  # an honest noiser too
        named = [rec for rec in sim.peers[updater].audit if rec[2] == "noise-not-genesis"]
        assert named == [(1, rogue, "noise-not-genesis")]
        assert (1, updater) not in submitted
    # no one else is named, and no honest response is refused as stray
    assert sum(rec[2] == "noise-not-genesis" for p in sim.peers.values() for rec in p.audit) == len(victims)
    assert not [rec for p in sim.peers.values() for rec in p.audit if rec[2] == "stray-noise-response"]
    assert [b.iteration for _, b in result.block_records] == [1, 2, 3, 4, 5]


def test_zero_noise_colluders_through_the_simulator(monkeypatch):
    """Colluders flagged once at genesis commit all-zero noise for every
    round and hand out exactly that, so no updater refuses their noise as a
    genesis mismatch and every round seals."""
    colluders = {0, 1, 2}
    sim = make_sim(zero_noise_peers=colluders)
    table, identity = sim.genesis.noise_table, sim.genesis.commit_pk.backend.g1_identity
    for pid in sim.peers:
        zero = [c == identity for c in table[pid]]
        assert all(zero) if pid in colluders else not any(zero)
    served = []  # every NoiseResponse a colluder sends
    handler = PeerNode._on_NoiseRequest

    def recorded(self, msg, now):
        out = handler(self, msg, now)
        served.extend(reply.quantized for _, reply, _ in out if self.id in colluders)
        return out

    monkeypatch.setattr(PeerNode, "_on_NoiseRequest", recorded)
    result = sim.run()
    assert served and all(set(q.coeffs) == {0} for q in served)
    assert "noise-not-genesis" in REFUSAL_REASONS
    assert not [rec for p in sim.peers.values() for rec in p.audit if rec[2] == "noise-not-genesis"]
    assert [b.iteration for _, b in result.block_records] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("backend", ["exponent", "pairing"])
def test_noiser_serves_the_noise_genesis_drew(backend):
    """Genesis draws each peer's noise once, into the peer's row, and the
    noiser serves that row: for every peer and round, a zero-noise colluder
    included, the noise served is ``generate_noise``'s coefficient for
    coefficient and commits to the genesis table entry, and the genesis
    bytes equal those of a build that keeps no draws."""
    sim = make_sim(backend=backend, zero_noise_peers={2})
    genesis = sim.genesis
    cfg = genesis.config
    for pid, peer in sim.peers.items():
        asker = (pid + 1) % len(sim.peers)
        for t in range(1, cfg.total_iterations + 1):
            [(dest, reply, _)] = peer.handle(NoiseRequest(t, asker), 0.0)
            assert (dest, reply.iteration, reply.sender) == (asker, t, pid)
            assert reply.quantized == generate_noise(cfg, cfg.model_dim, peer.secrets, t)
            assert commit(genesis.commit_pk, reply.quantized) == genesis.noise_table[pid][t - 1]
            assert (set(reply.quantized.coeffs) == {0}) == (pid == 2)
    secrets = {pid: peer.secrets for pid, peer in sim.peers.items()}
    table_free = dataclasses.replace(genesis, noise_table=build_noise_table(genesis.commit_pk, cfg, secrets))
    assert table_free.to_bytes() == genesis.to_bytes()


def test_late_submission_never_signed():
    """A verifier whose window has closed ignores further submissions."""
    sim = make_sim(seed=6)
    verifiers, _ = round_committees(
        sim.genesis, build_ring(sim.genesis.initial_stake), sim.genesis.hash(), 1
    )
    verifier = sim.peers[verifiers[0]]
    verifier.start_round(1, 0.0)
    verifier.round.signed_off = True  # deadline passed
    sub = make_submission(sim, eligible_peer(sim))
    out = verifier.handle(sub, 99.0)
    assert out == []
    assert sub.sender not in verifier.round.pool
    assert verifier.audit == [(1, sub.sender, "late-submission")]


def test_stale_timer_ignored_and_budget_advances_round():
    sim = make_sim(seed=6)
    peer = sim.peers[eligible_peer(sim)]
    peer.start_round(1, 0.0)
    assert peer.handle(Timer(0, "round-budget"), 1.0) == []  # stale round
    actions = peer.handle(Timer(1, "round-budget"), 20.0)
    assert peer.round.iteration == 2
    assert any(isinstance(a[1], Timer) for a in actions)


def test_honest_stake_share_grows_under_poisoning():
    """Accepted contributions pay stake, so the honest share climbs while the
    filter keeps poisoners out of blocks."""
    from chainlearn.attacks import AdversaryConfig, STRATEGY_LABEL_FLIP
    from chainlearn.config import DatasetSpec, ExperimentSpec
    from chainlearn.experiments import run_protocol_experiment
    from chainlearn.sgd import TrainConfig

    spec = ExperimentSpec(
        name="stake-direction",
        number_of_nodes=20,
        total_iterations=15,
        adversary=AdversaryConfig(fraction=0.30, strategy=STRATEGY_LABEL_FLIP, src_label=1, dst_label=0),
        dataset=DatasetSpec(shard_size=120, validation_size=500),
        train=TrainConfig(eta0=0.008, eta_decay=0.04, weight_decay=1e-4, batch_size=64),
        seed=14,
    )
    run = run_protocol_experiment(spec)
    series = run.metrics.series("honest_stake_fraction")
    assert series[-1] > 0.70 + 0.03, f"honest share must rise from 70%, got {series[-1]:.3f}"


def test_full_protocol_on_pairing_backend():
    """End-to-end rounds over the real bilinear pairing."""
    sim = make_sim(
        n_peers=8,
        iterations=2,
        seed=2,
        backend="pairing",
        features=2,
        num_aggregators=2,
    )
    result = sim.run()
    assert [b.iteration for _, b in result.block_records] == [1, 2]
    tips = {peer.ledger.tip_hash() for peer in sim.peers.values()}
    assert len(tips) == 1
    assert result.forks == 0
    assert result.final_ledger.tip_hash().hex() == PAIRING_TIP


def test_second_pairing_run_builds_no_line_table(monkeypatch):
    """At two aggregators every slot holds d + 1 points, so a pairing run's
    share checks pair with g1 alone, whose line table the backend builds
    once per process: a second run of that shape builds none."""
    pairing_sim = functools.partial(make_sim, n_peers=8, iterations=2, backend="pairing", features=2, num_aggregators=2)
    pairing_sim(seed=2).run()
    built = []
    miller_lines = groups._miller_lines
    monkeypatch.setattr(groups, "_miller_lines", lambda P: built.append(P) or miller_lines(P))
    assert pairing_sim(seed=5).run().final_ledger.height == 2
    assert built == []


def test_churn_keeps_population_constant():
    """Paired fail/join churn holds the online population within one of N."""
    # aggressive: one event every 2 simulated seconds
    sim = make_sim(seed=12, iterations=12, churn_per_minute=30.0)
    result = sim.run()
    assert sum(not up for up in sim.online.values()) <= 1
    assert result.final_ledger.height >= 4, "training must keep making progress"
    with pytest.raises(ValueError):
        make_sim(churn_per_minute=-1)


@functools.cache
def quiet_network():
    """A genesis, secrets and data for Simulations that never run."""
    sim = make_sim(iterations=1)
    return sim.genesis, {p: n.secrets for p, n in sim.peers.items()}, {p: n.dataset for p, n in sim.peers.items()}


BLOCK = simnet._LATENCY_BLOCK


@settings(deadline=None)
@given(seed=st.integers(0, 2**64), steps=st.lists(
    st.tuples(st.integers(0, BLOCK + 2), st.sampled_from(["fail", "join"])), max_size=6,
))
@example(seed=1, steps=[(BLOCK, "fail"), (5, "fail"), (0, "join"), (2 * BLOCK + 1, "join")])
def test_latency_stream_property(seed, steps):
    """Latencies read in blocks, with churn choices between them (each a
    sync: mid-block, at a block's end or with no block drawn), give the
    values and choices of a plain generator drawing one scalar per
    delivery, and leave it in the same state."""
    sim = simnet.Simulation(*quiet_network(), seed=seed)
    plain = np.random.default_rng(seed)

    def latency():
        return float(plain.uniform(*simnet.LATENCY))

    for reads, kind in steps:
        assert [sim._latency() for _ in range(reads)] == [latency() for _ in range(reads)]
        up = sorted(p for p, on in sim.online.items() if on)
        down = sorted(p for p, on in sim.online.items() if not on)
        if kind == "fail":
            sim._churn_fail()
            if len(up) > 1:
                assert [p for p in up if not sim.online[p]] == [int(plain.choice(up))]
        else:
            sim._churn_join()
            if down:
                peer = int(plain.choice(down))
                assert [p for p in down if sim.online[p]] == [peer]
                time, _, helper, request = max(sim.events, key=lambda e: e[1])  # the last push
                assert (helper, request.sender) == (int(plain.choice(up)), peer)
                assert time == sim.now + latency()
    assert sim._latency() == latency()
    sim._sync()
    assert sim.rng.bit_generator.state == plain.bit_generator.state


@pytest.mark.parametrize("padding", ["outsider", "duplicate"])
def test_byzantine_dealer_is_left_out_and_rounds_seal(monkeypatch, padding):
    """A dealer that pads its sign-off list with one bad sign-off is refused
    by the aggregators under the block rule; its id appears in no block and
    every round still seals."""
    sim = make_sim()
    byzantine = eligible_peer(sim)
    deal_shares = protocol.deal_shares

    def padded_deal(update_q, pk, aggregators, entry, signoffs):
        if entry.peer == byzantine:
            mine = tuple(pair_records([entry], pk.backend))
            if padding == "outsider":
                extra = SignOff(byzantine, mine, b"\x00" * 16)
            else:  # a listed verifier again, signing the wrong message
                vid = signoffs[0].verifier
                sig = sign(sim.peers[vid].backend, sim.peers[vid].secrets.keypair, b"x")
                extra = SignOff(vid, mine, sig)
            signoffs = signoffs + (extra,)
        return deal_shares(update_q, pk, aggregators, entry, signoffs)

    monkeypatch.setattr(protocol, "deal_shares", padded_deal)
    result = sim.run()
    # replicas, not the proposer's broadcasts: a minted block can still be refused
    blocks = result.final_ledger.blocks
    assert [b.iteration for b in blocks] == [1, 2, 3, 4, 5]
    assert all(entry.peer != byzantine for block in blocks for entry in block.commitments)


@pytest.mark.parametrize("silent_partner", [False, True])
def test_equivocating_verifier_cannot_void_honest_rounds(monkeypatch, silent_partner):
    """Each round the first verifier signs two sign-offs, each naming half
    its winners, and sends each half only its own; with a silent partner a
    second verifier signs nothing, so every majority needs one of the two
    versions.  The proposer carries one version per verifier and announces
    only pairs its carried sign-offs name by majority, so every block it
    mints is valid for every replica and no round is voided by the
    equivocation."""
    sim = make_sim()
    close, mint = PeerNode._close_verification, PeerNode._mint_block
    equivocated, minted = [], []

    def equivocate(peer, now):
        actions = close(peer, now)
        rs = peer.round
        if silent_partner and peer.id == rs.verifiers[1]:
            return []
        if peer.id != rs.verifiers[0] or len(actions) < 2:
            return actions
        # the winners, from the pool by the peer ids their encodings start with
        named = [record_peer(rec) for rec in actions[0][1].signoff.winners]
        winners = [CommitmentEntry(pid, rs.pool[pid].commitment) for pid in named]
        out = []
        for part in (winners[: len(winners) // 2], winners[len(winners) // 2 :]):
            version = sign_off(peer.backend, peer.secrets.keypair, rs.iteration, peer.id, part)
            out += [(p.peer, SignatureGrant(rs.iteration, version), None) for p in part]
        equivocated.append(rs.iteration)
        return out

    def minting(peer, now):
        actions = mint(peer, now)
        minted.extend(msg.block for _, msg, _ in actions)
        return actions

    monkeypatch.setattr(PeerNode, "_close_verification", equivocate)
    monkeypatch.setattr(PeerNode, "_mint_block", minting)
    result = sim.run()
    assert equivocated == [1, 2, 3, 4, 5]
    # any block a replica refuses is recorded under a reason of the block rule
    refusals = [rec for p in sim.peers.values() for rec in p.audit if rec[2] in ledger.REJECTION_REASONS]
    assert refusals == [] and result.forks == 0
    assert [b.iteration for b in minted] == [b.iteration for b in result.final_ledger.blocks]
    replay = Ledger(sim.genesis)
    assert all(replay.append(block)[0] for block in minted)
    # how many rounds seal: all of them
    assert [b.iteration for b in minted] == [1, 2, 3, 4, 5]


def test_grant_check_encodes_only_the_receivers_pair(monkeypatch):
    """A winner checks a real round-1 grant with one pair encoding, its own:
    the sign-off holds the encodings its verifier signed, so no other winner
    is encoded again.  The signature check's own encodes are not counted."""
    sim = make_sim(iterations=1)
    group = type(sim.genesis.commit_pk.backend)
    to_bytes, verify, handle = group.g1_to_bytes, signatures.verify, PeerNode._on_SignatureGrant
    counting, encodes, seen = [True], [0], []

    def counted(self, point):
        encodes[0] += counting[0]
        return to_bytes(self, point)

    def verify_uncounted(*args):
        counting[0] = False
        try:
            return verify(*args)
        finally:
            counting[0] = True

    def grant(peer, msg, now):
        before = encodes[0]
        out = handle(peer, msg, now)
        if msg.signoff.verifier in peer.round.grants:  # accepted
            seen.append((encodes[0] - before, len(msg.signoff.winners)))
        return out

    monkeypatch.setattr(group, "g1_to_bytes", counted)
    monkeypatch.setattr(signatures, "verify", verify_uncounted)
    monkeypatch.setattr(PeerNode, "_on_SignatureGrant", grant)
    sim.run()
    assert seen and max(winners for _, winners in seen) > 1
    assert max(count for count, _ in seen) <= 1


def test_dealer_sending_another_aggregators_points_is_left_out(monkeypatch):
    """A dealer that hands each aggregator the next aggregator's bundle (valid
    openings at the wrong points) passes the gates, but its openings fail
    the check at the receiving aggregator's slot: each aggregator checks its
    whole pool once a round, the proposer at its close and the others on
    the announce, so every aggregator of a deal refuses it once, and it is
    never announced or summed.  It appears in no block and every round
    seals."""
    sim = make_sim()
    deal_shares = protocol.deal_shares
    dealt = []  # (entry, committee order) of each deal by the first peer that deals

    def rotated_deal(update_q, pk, aggregators, entry, signoffs):
        bundles = deal_shares(update_q, pk, aggregators, entry, signoffs)
        if dealt and entry.peer != dealt[0][0].peer:
            return bundles
        order = list(bundles)
        dealt.append((entry, order))
        return {a: bundles[order[(i + 1) % len(order)]] for i, a in enumerate(order)}

    monkeypatch.setattr(protocol, "deal_shares", rotated_deal)
    result = sim.run()
    assert dealt
    dealer = dealt[0][0].peer
    blocks = result.final_ledger.blocks
    assert [b.iteration for b in blocks] == [1, 2, 3, 4, 5]
    assert all(entry.peer != dealer for block in blocks for entry in block.commitments)
    seats = Counter(aid for _, order in dealt for aid in order)
    for pid, peer in sim.peers.items():
        assert [reason for _, who, reason in peer.audit if who == dealer] == ["bundle-refused"] * seats[pid]


def with_wrong_eval(bundle, order):
    """``bundle`` with its opening's first eval off by one: it passes the gates."""
    w = bundle.opening
    return dataclasses.replace(bundle, opening=Witness(w.value, ((w.evals[0] + 1) % order,) + w.evals[1:]))


@pytest.mark.parametrize("second_copy", [False, True])
def test_bundle_with_a_wrong_eval_is_refused_at_the_close(monkeypatch, second_copy):
    """The first round-1 dealer sends the proposer a bundle whose first share
    carries a wrong eval, then, with ``second_copy``, a valid copy.  The
    proposer refuses the wrong bundle exactly once: at its close, where round
    1 seals without the dealer, or when the valid copy arrives, which then
    takes the dealer's slot, so round 1 seals the pinned chain's block."""
    sim = make_sim()
    grant, forged = PeerNode._on_SignatureGrant, []

    def forging(peer, msg, now):
        actions = grant(peer, msg, now)
        if msg.iteration != 1 or not actions or forged:
            return actions
        forged.append((peer.id, peer.round.aggregators[0]))
        out = []
        for dest, bundle_msg, extra in actions:
            if dest == forged[0][1]:
                wrong = with_wrong_eval(bundle_msg.bundle, peer.backend.order)
                out.append((dest, dataclasses.replace(bundle_msg, bundle=wrong), extra))
                if not second_copy:
                    continue
            out.append((dest, bundle_msg, extra))
        return out

    monkeypatch.setattr(PeerNode, "_on_SignatureGrant", forging)
    result = sim.run()
    (dealer, proposer), = forged
    block = result.final_ledger.blocks[0]
    assert block.iteration == 1
    if second_copy:
        assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    else:
        assert all(e.peer != dealer for e in block.commitments)
    records = [rec for rec in sim.peers[proposer].audit if rec[1] == dealer]
    assert records == [(1, dealer, "bundle-refused")]


@pytest.mark.parametrize("target", ["proposer", "others"])
def test_a_forged_copy_ahead_of_a_bundle_censors_no_dealer(monkeypatch, target):
    """A bundle names no sender, so any peer that holds a dealer's bundle can
    send an aggregator a copy with a wrong eval.  Here each round-1 bundle
    reaches the proposer, or each other aggregator, just behind such a copy.
    The real bundle settles the pooled copy, which is refused once, and takes
    its place: no aggregator misses a bundle, round 1 seals with every
    dealer the honest run has, and the chain is the pinned one."""
    sim = make_sim()
    receive, forged = PeerNode._on_BundleMsg, Counter()

    def forged_first(peer, msg, now):
        if msg.iteration == 1 and peer.is_proposer() == (target == "proposer"):
            wrong = with_wrong_eval(msg.bundle, peer.backend.order)
            receive(peer, dataclasses.replace(msg, bundle=wrong), now)
            forged[peer.id] += 1
        return receive(peer, msg, now)

    monkeypatch.setattr(PeerNode, "_on_BundleMsg", forged_first)
    result = sim.run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    assert len(forged) == (1 if target == "proposer" else sim.genesis.config.num_aggregators - 1)
    for pid, copies in forged.items():
        reasons = Counter(reason for it, _, reason in sim.peers[pid].audit if it == 1)
        assert reasons["bundle-refused"] == copies and reasons["missing-bundles"] == 0


def test_each_aggregator_checks_openings_once_a_round(monkeypatch):
    """In an honest run every aggregator checks its bundles' openings with
    one ``verify_share`` per round, over every bundle it pooled: the
    proposer at its close, the others on the announce; the chain is the
    pinned one."""
    handle, verify = PeerNode.handle, vss.verify_share
    handling, calls = [], Counter()

    def tracked(peer, event, now):
        handling.append((peer, event, list(peer.round.pooled_bundles.values())))
        try:
            return handle(peer, event, now)
        finally:
            handling.pop()

    def counted(pk, points, openings):
        peer, event, pooled = handling[-1]
        assert peer.is_aggregator()
        if not peer.is_proposer():
            assert isinstance(event, AggAnnounce)
        assert list(openings) == [(b.entry.commitment, b.opening) for b in pooled]
        calls[peer.id, peer.round.iteration] += 1
        return verify(pk, points, openings)

    monkeypatch.setattr(PeerNode, "handle", tracked)
    monkeypatch.setattr(vss, "verify_share", counted)
    sim = make_sim()
    result = sim.run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    config = sim.genesis.config
    assert len(calls) == config.total_iterations * config.num_aggregators
    assert max(calls.values()) == 1


def test_a_peer_checks_each_signoff_once_per_tip(monkeypatch):
    """A peer's block rule reads the sign-off verdicts the peer reached on
    grants and bundles on the same tip, so in an honest run no peer works
    out one sign-off twice on one tip; the chain is the pinned one."""
    handle, once = PeerNode.handle, TipState.once
    handling, checked = [], Counter()

    def tracked(peer, event, now):
        handling.append(peer)
        try:
            return handle(peer, event, now)
        finally:
            handling.pop()

    def counted(state, key, work):  # counts the misses of ``TipState.signoff_valid`` on each tip
        if key[0] == "signoff" and key not in state.memo:
            peer = handling[-1]
            checked[peer.id, peer.ledger.tip_hash(), *key[1:]] += 1
        return once(state, key, work)

    monkeypatch.setattr(PeerNode, "handle", tracked)
    monkeypatch.setattr(TipState, "once", counted)
    result = make_sim().run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    assert checked and max(checked.values()) == 1


def run_with_malformed_announce(monkeypatch, contributors):
    """``make_sim()`` run with a round-2 proposer that announces no
    contributors ("empty") or one contributor twice ("repeated")."""
    sim = make_sim()
    close = PeerNode._close_aggregation

    def malformed(peer, now):
        actions = close(peer, now)
        if peer.round.iteration != 2 or not actions:
            return actions
        honest = peer.round.announce
        bad = () if contributors == "empty" else (honest[0], honest[0])
        announce = protocol.AggAnnounce(2, peer.id, bad)
        return [(dest, announce, extra) for dest, _, extra in actions]

    monkeypatch.setattr(PeerNode, "_close_aggregation", malformed)
    return sim, sim.run()  # the empty announce raised "no bundles to sum" before


@pytest.mark.parametrize("contributors", ["empty", "repeated"])
def test_malformed_announce_voids_only_its_round(monkeypatch, contributors):
    """A proposer that announces no contributors, or one contributor twice,
    in round 2 is refused by every aggregator: the run returns, round 2
    voids and every other round seals without a fork."""
    sim, result = run_with_malformed_announce(monkeypatch, contributors)
    assert [b.iteration for _, b in result.block_records] == [1, 3, 4, 5]
    assert result.forks == 0
    refusals = [rec for p in sim.peers.values() for rec in p.audit if rec[2] == "malformed-announce"]
    assert len(refusals) == sim.genesis.config.num_aggregators
    assert {rec[0] for rec in refusals} == {2}


def test_every_refusal_is_a_round_peer_and_named_reason(monkeypatch):
    """Each record of a churn run and of the malformed-announce run is
    (round, peer, reason) with the reason from the protocol's or the block
    rule's closed set; the two sets share no name.  An aggregate share that
    reaches the proposer after it minted is refused as late, apart from
    stray, duplicate and badly signed shares."""
    assert not REFUSAL_REASONS & ledger.REJECTION_REASONS
    shares = PeerNode._on_AggShareMsg
    after_mint = []

    def watching(peer, msg, now):
        minted = peer.is_proposer() and peer.round.minted and msg.iteration == peer.round.iteration
        before = len(peer.audit)
        out = shares(peer, msg, now)
        if minted:
            after_mint.append(peer.audit[before:])
        return out

    monkeypatch.setattr(PeerNode, "_on_AggShareMsg", watching)
    churn = make_sim(seed=12, iterations=8, churn_per_minute=30.0)
    churn.run()
    malformed, _ = run_with_malformed_announce(monkeypatch, "empty")
    records = [rec for sim in (churn, malformed) for p in sim.peers.values() for rec in p.audit]
    assert records
    for rec in records:
        rnd, peer, reason = rec
        assert isinstance(rnd, int) and isinstance(peer, int), rec
        assert reason in REFUSAL_REASONS | ledger.REJECTION_REASONS, rec
    assert after_mint and all(recs == [(recs[0][0], recs[0][1], "late-aggregate-share")] for recs in after_mint)


def test_protocol_trains_softmax_family():
    sim = make_sim(
        n_peers=10, iterations=3, seed=8, features=4, model_family="softmax", n_classes=3
    )
    result = sim.run()
    assert result.final_ledger.height == 3
    dim = 3 * (4 + 1)
    assert len(result.final_ledger.current_model().weights) == dim


def test_block_every_replica_refuses_is_not_recorded(monkeypatch):
    """A proposer that mints one invalid block (corrupted model weights,
    re-signed with its own key) has it refused by every replica; the run's
    records, fork count and metrics replay see only appended blocks."""
    from chainlearn.config import DatasetSpec, ExperimentSpec
    from chainlearn.experiments import run_protocol_experiment
    from chainlearn.sgd import TrainConfig

    mint = PeerNode._mint_block

    def corrupt_round_2(peer, now):
        actions = mint(peer, now)
        if peer.round.iteration != 2:
            return actions
        out = []
        for dest, msg, extra in actions:
            block = dataclasses.replace(msg.block, model_weights=msg.block.model_weights + 1.0)
            content = block_content_hash(block, peer.backend)
            sig = sign(peer.backend, peer.secrets.keypair, content)
            block = dataclasses.replace(block, signature=sig)
            out.append((dest, dataclasses.replace(msg, block=block), extra))
        return out

    monkeypatch.setattr(PeerNode, "_mint_block", corrupt_round_2)
    spec = ExperimentSpec(
        name="invalid-mint",
        number_of_nodes=10,
        total_iterations=4,
        dataset=DatasetSpec(shard_size=80, validation_size=200),
        train=TrainConfig(eta0=0.05, eta_decay=0.02, weight_decay=1e-4, batch_size=16),
        seed=5,
    )
    run = run_protocol_experiment(spec)  # raised "metrics replay rejected block" before
    result = run.result
    chain = [b.iteration for b in result.final_ledger.blocks]
    assert 2 not in chain and len(chain) >= 2
    assert [b.iteration for _, b in result.block_records] == chain
    assert result.forks == 0
    assert run.metrics.final("blocks") == len(chain)


def test_per_tip_values_are_derived_once(monkeypatch):
    """Each replica builds one stake ring per tip and serialises each block
    about once, and no noiser draws noise at run time: genesis drew every
    vector once, and a noiser serves its row, however many peers ask; the
    chain is the pinned one."""
    counts = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ledger, "build_ring")
    counted(ledger, "block_content_bytes")
    sim = make_sim()
    # patched after genesis has drawn its table: the run may draw nothing
    counted(noise, "generate_noise")
    assert not hasattr(protocol, "generate_noise")  # no other name reaches the recipe
    result = sim.run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    height, peers = result.final_ledger.height, len(sim.peers)
    # tips a replica holds: genesis and each block
    assert counts["build_ring"] <= peers * (height + 1)
    # one validation per replica, plus the proposer's signature and the
    # simulator's record at mint time
    assert counts["block_content_bytes"] <= height * (peers + 2)
    assert counts["generate_noise"] == 0


@pytest.mark.parametrize("churn", [-1.0, float("nan")])
def test_simulation_refuses_a_churn_rate_below_zero_or_nan(churn):
    """``run`` churns only at a rate above 0, so a NaN rate ran with no
    churn at all; it is refused, like a negative one, naming the key."""
    with pytest.raises(ValueError, match=f"^churn_per_minute must be non-negative, got {churn}$"):
        make_sim(churn_per_minute=churn)


def test_simulation_refuses_an_infinite_churn_rate():
    """Each churn event fell due 60 / inf = 0 s after the last, so a run at
    that rate never reached its time cap; the rate is refused when the
    simulation is made, before any run."""
    with pytest.raises(ValueError, match=r"^churn_per_minute must be finite, got inf$"):
        make_sim(churn_per_minute=float("inf"))


def test_churned_run_is_pinned():
    """Peers that fail and rejoin catch up through the states other replicas
    reached first; the tip and every refusal record are the pinned ones."""
    sim = make_sim(seed=12, iterations=8, churn_per_minute=30.0)
    result = sim.run()
    assert result.final_ledger.tip_hash().hex() == CHURN_TIP
    assert [(pid, rec) for pid, peer in sorted(sim.peers.items()) for rec in peer.audit] == CHURN_RECORDS


def test_fresh_replicas_check_every_block(monkeypatch, tmp_path):
    """The simulation's replicas share one root, so each block is worked out
    once for all of them.  A replay on a fresh ledger and a loaded chain file
    each work out every block again; handed the simulation's root, the
    replay would check none."""
    sim = make_sim()
    root = sim.peers[0].ledger.state
    result = sim.run()
    blocks, tip = result.final_ledger.blocks, result.final_ledger.tip_hash()
    calls = count_block_checks(monkeypatch)

    def checks_in_replay(start):
        replay, before = Ledger(sim.genesis, start), len(calls)
        assert [replay.append(b) for b in blocks] == [(True, "")] * len(blocks)
        assert replay.tip_hash() == tip
        return len(calls) - before

    assert checks_in_replay(None) == len(blocks) == 5
    assert checks_in_replay(root) == 0
    path = tmp_path / "chain.bin"
    save_chain(path, result.final_ledger)
    before = len(calls)
    assert load_chain(path, sim.genesis.commit_pk.backend).tip_hash() == tip
    assert len(calls) - before == len(blocks)


def test_metrics_replay_checks_every_block(monkeypatch):
    """``run_protocol_experiment``'s metrics replay builds its own ledger: it
    works out every sealed block again, after the simulation's replicas
    worked out each once between them."""
    from chainlearn import simnet
    from chainlearn.config import DatasetSpec, ExperimentSpec
    from chainlearn.experiments import run_protocol_experiment
    from chainlearn.sgd import TrainConfig

    calls, run = count_block_checks(monkeypatch), simnet.Simulation.run
    in_run = []

    def ran(sim):
        result = run(sim)
        in_run.append(len(calls))
        return result

    monkeypatch.setattr(simnet.Simulation, "run", ran)
    spec = ExperimentSpec(
        name="fresh-replay",
        number_of_nodes=10,
        total_iterations=4,
        dataset=DatasetSpec(shard_size=80, validation_size=200),
        train=TrainConfig(eta0=0.05, eta_decay=0.02, weight_decay=1e-4, batch_size=16),
        seed=5,
    )
    out = run_protocol_experiment(spec)
    height = out.result.final_ledger.height
    assert height == out.metrics.final("blocks") == 4
    assert in_run == [height] and len(calls) == 2 * height


def test_a_block_every_replica_refuses_is_worked_out_once(monkeypatch):
    """A round-2 block with wrong weights, re-signed by its proposer, is
    refused by every replica on that tip under one reason, and the block rule
    works it out once for all of them."""
    mint = PeerNode._mint_block
    minted = []

    def corrupt_round_2(peer, now):
        actions = mint(peer, now)
        if peer.round.iteration != 2:
            return actions
        out = []
        for dest, msg, extra in actions:
            block = dataclasses.replace(msg.block, model_weights=msg.block.model_weights + 1.0)
            block = dataclasses.replace(block, signature=sign(
                peer.backend, peer.secrets.keypair, block_content_hash(block, peer.backend)))
            minted.append(block)
            out.append((dest, dataclasses.replace(msg, block=block), extra))
        return out

    monkeypatch.setattr(PeerNode, "_mint_block", corrupt_round_2)
    calls = count_block_checks(monkeypatch)
    sim = make_sim()
    result = sim.run()
    (bad,) = minted
    refusals = [rec for p in sim.peers.values() for rec in p.audit if rec[2] == "model-arithmetic-mismatch"]
    assert len(refusals) == len(sim.peers) and len(set(refusals)) == 1 and refusals[0][0] == 2
    assert [poly for poly in calls if poly == bad.aggregate_poly] == [bad.aggregate_poly]
    assert 2 not in [b.iteration for b in result.final_ledger.blocks]


def test_verifiers_on_one_tip_share_a_submission_verdict(monkeypatch):
    """A refused submission gets one reason from every verifier on a tip,
    and its draw and masking are checked once there; a fresh tip state
    checks them again.  A copy with another signature, and the sender's
    honest submission, are each worked out on their own."""
    sim = make_sim(seed=6)
    sender = eligible_peer(sim)
    sub = make_submission(sim, sender, tamper="non-genesis-noise")
    calls, verify = [], protocol.verify_vrf
    monkeypatch.setattr(protocol, "verify_vrf", lambda *args: calls.append(args) or verify(*args))
    root = TipState.root(sim.genesis)
    assert [submission_rejection(sub, root) for _ in range(3)] == ["masking-mismatch"] * 3
    assert len(calls) == 1
    assert submission_rejection(sub, TipState.root(sim.genesis)) == "masking-mismatch"
    assert len(calls) == 2
    forged = dataclasses.replace(sub, signature=sub.signature[:-1] + bytes([sub.signature[-1] ^ 1]))
    assert submission_rejection(forged, root) == "bad-submission-signature"
    assert submission_rejection(make_submission(sim, sender), root) == ""
    assert len(calls) == 3


def test_an_equal_submission_is_one_lookup_on_a_tip(monkeypatch):
    """The submission verdict is keyed by the submission's value: a copy
    rebuilt from fresh objects hits it on the same tip with no payload
    encoded, and a copy that differs only in its signature misses it."""
    sim = make_sim(seed=6)
    sub = make_submission(sim, eligible_peer(sim))
    root = TipState.root(sim.genesis)
    assert submission_rejection(sub, root) == ""
    encoded, payload_bytes = [], UpdateSubmission.payload_bytes
    monkeypatch.setattr(UpdateSubmission, "payload_bytes", lambda s, b: encoded.append(s) or payload_bytes(s, b))
    masked = dataclasses.replace(sub.masked, coeffs=tuple(int(str(c)) for c in sub.masked.coeffs))
    copy = UpdateSubmission(sub.iteration, sub.sender, masked, int(str(sub.commitment)),
                            bytes(bytearray(sub.noiser_proof)), bytes(bytearray(sub.signature)))
    assert copy == sub and copy is not sub
    assert submission_rejection(copy, root) == "" and encoded == []
    forged = dataclasses.replace(copy, signature=copy.signature[:-1] + bytes([copy.signature[-1] ^ 1]))
    assert submission_rejection(forged, root) == "bad-submission-signature"
    assert encoded == [forged]


def test_aggregators_on_one_tip_share_a_bundle_verdict(monkeypatch):
    """Each dealer sends its entry and sign-offs to every aggregator of the
    round, and the aggregators are on one tip, so the entry and sign-off
    check runs once per (round, entry, sign-offs) there; the chain is the
    pinned one."""
    calls, check = Counter(), vss.endorsement_rejection

    def counted(records, signoffs, state, iteration):
        calls[state.tip_hash, iteration, tuple(records), signoffs] += 1
        return check(records, signoffs, state, iteration)

    monkeypatch.setattr(vss, "endorsement_rejection", counted)
    result = make_sim().run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    assert calls and max(calls.values()) == 1


def test_each_submission_is_checked_once_per_tip(monkeypatch):
    """In an honest run every verifier of a round checks each submission,
    and all of them are on one tip, so each submission's draw is walked once;
    the chain is the pinned one."""
    calls, verify = Counter(), protocol.verify_vrf

    def counted(proof, *args):
        calls[proof] += 1
        return verify(proof, *args)

    monkeypatch.setattr(protocol, "verify_vrf", counted)
    sim = make_sim()
    result = sim.run()
    assert result.final_ledger.tip_hash().hex() == EXPONENT_TIP
    assert len(calls) == sum(map(len, sim.submissions.values())) and max(calls.values()) == 1
