import dataclasses
import functools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import ledger as ledger_module
from chainlearn.bootstrap import build_genesis
from chainlearn.commitments import trusted_setup
from chainlearn.groups import get_backend
from chainlearn.ledger import (
    GENESIS_PREV_HASH,
    Block,
    CommitmentEntry,
    GenesisBlock,
    Ledger,
    ProtocolConfig,
    REJECTION_REASONS,
    SignOff,
    TipState,
    block_content_hash,
    block_from_bytes,
    block_hash,
    block_to_bytes,
    load_chain,
    pair_records,
    round_committees,
    save_chain,
    sign_off,
    signoff_message,
)
from chainlearn.encoding import sha256, u32
from chainlearn.quantize import SCALE_BITS, QuantizedPoly, decode
from chainlearn.sgd import TrainConfig
from chainlearn.signatures import sign
from chainlearn.stake import build_ring

from conftest import count_block_checks, honest_block, resign_as_proposer, resplit, tiny_config

BACKEND = get_backend("exponent")


def fresh_ledger(tiny_net):
    genesis, secrets = tiny_net
    return Ledger(genesis), genesis, secrets


def test_genesis_roundtrip_and_hash_stability(tiny_net):
    genesis, _ = tiny_net
    data = genesis.to_bytes()
    restored = GenesisBlock.from_bytes(data, BACKEND)
    assert restored.to_bytes() == data
    assert restored.hash() == genesis.hash()
    with pytest.raises(ValueError):
        GenesisBlock.from_bytes(data + b"\x00", BACKEND)
    with pytest.raises(ValueError):
        ProtocolConfig.from_bytes(genesis.config.to_bytes() + b"\x00")
    # rebuilding from the same master seed gives the same hash
    rebuilt, _ = build_genesis(tiny_config(), range(12), b"tiny-net-seed")
    assert rebuilt.hash() == genesis.hash()


def test_genesis_peer_lists_must_name_the_same_peers(tiny_net):
    """Each peer has one key, one stake and one noise row, so a genesis that
    gives a stake holder no key, or misses a round, cannot be built."""
    genesis, _ = tiny_net
    table = genesis.noise_table
    for field, value in (
        ("peer_pubkeys", {p: k for p, k in genesis.peer_pubkeys.items() if p != 3}),
        ("initial_stake", {**genesis.initial_stake, 12: 10}),
        ("noise_table", {p: row for p, row in table.items() if p != 0}),
        ("noise_table", {**table, 0: table[0][:-1]}),
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(genesis, **{field: value})


def test_genesis_whose_key_or_model_misfits_its_config_is_refused(tiny_net):
    """The initial model, the commitment key's degree and the config's
    model each state the weight count.  A genesis with a degree-2 key for
    the 4-weight model was admitted, and the first commit of a round would
    have raised; it is refused naming the counts, as is a 5-weight model."""
    genesis, _ = tiny_net
    with pytest.raises(ValueError, match=r"^4 model weights and key degree 2 for a config of 4 weights$"):
        dataclasses.replace(genesis, commit_pk=trusted_setup(BACKEND, 2, b"short-key"))
    with pytest.raises(ValueError, match=r"^5 model weights and key degree 4 for a config of 4 weights$"):
        dataclasses.replace(genesis, initial_model=np.zeros(5))


def test_genesis_whose_key_is_on_another_group_than_its_config_is_refused(tiny_net):
    """A config naming the pairing group over an exponent-group commitment
    key was admitted: its first noise commitment raised, and its bytes did
    not decode.  It is refused naming both backends."""
    genesis, _ = tiny_net
    config = dataclasses.replace(genesis.config, backend_name="pairing")
    with pytest.raises(ValueError, match=r"^config names the 'pairing' backend, commitment key the 'exponent'$"):
        dataclasses.replace(genesis, config=config)


@pytest.mark.parametrize(
    "over, message",
    [
        ({"epsilon": math.nan}, "epsilon must be a finite number, got nan"),
        ({"epsilon": -1.0}, "epsilon must be positive, got -1.0"),
        ({"epsilon": math.inf}, "epsilon must be a finite number, got inf"),
        ({"delta": 2.0}, "delta must lie in (0, 1), got 2.0"),
        ({"delta": math.nan}, "delta must be a finite number, got nan"),
        ({"collect_fraction": math.nan}, "collect_fraction must be a finite number, got nan"),
        ({"collect_fraction": 0.0}, "collect_fraction must lie in (0, 1], got 0.0"),
        ({"collect_fraction": -0.2}, "collect_fraction must lie in (0, 1], got -0.2"),
        ({"collect_fraction": 1.5}, "collect_fraction must lie in (0, 1], got 1.5"),
        ({"train": TrainConfig(eta_decay=math.inf)}, "train.eta_decay must be a finite number, got inf"),
        ({"train": TrainConfig(eta0=math.inf)}, "train.eta0 must be a finite number, got inf"),
        ({"total_iterations": 0}, "total_iterations must be at least 1, got 0"),
        ({"total_iterations": True}, "total_iterations must be an integer, got True"),
        ({"num_noisers": 0}, "num_noisers must be at least 1, got 0"),
        ({"num_verifiers": 2.0}, "num_verifiers must be an integer, got 2.0"),
        ({"num_aggregators": 1}, "num_aggregators must be at least 2, got 1"),
        ({"num_aggregators": 11}, "11 aggregators for only 10 share points"),
        ({"stake_reward": 1 << 32}, f"stake_reward must be at most {(1 << 32) - 1}, got {1 << 32}"),
        ({"n_features": -1}, "n_features must be at least 0, got -1"),
        ({"backend_name": "exp"}, "backend_name must be one of ['exponent', 'pairing'], got exp"),
        ({"backend_name": None}, "backend_name must be a string, got None"),
        ({"model_family": "logrex"}, "unknown model family 'logrex'"),
    ],
)
def test_config_refuses_what_its_own_fields_decide(over, message):
    """A ``ProtocolConfig`` refuses, naming the field, each value no run can
    carry out, whoever builds it: epsilon, delta or the collection fraction
    out of range or not finite (epsilon infinite gave sigma 0, unmasked
    updates; a fraction of -0.2 summed one update a block), a ``train``
    value that is not finite, a round count or committee below its floor, a
    share layout that cannot be dealt, an int its u32 genesis slot cannot
    hold (a bool or a float included), and an unknown backend or model."""
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        tiny_config(**over)


def test_genesis_for_another_backend_is_refused_by_name(tiny_net):
    """The config leads the encoding, so a genesis read with the wrong backend
    is refused naming both, before any group element is decoded."""
    exponent_genesis, _ = tiny_net
    config = tiny_config(backend_name="pairing", total_iterations=1)
    pairing_genesis, _ = build_genesis(config, range(3), b"other-backend")  # as many peers as committee seats
    for genesis, other in ((exponent_genesis, "pairing"), (pairing_genesis, "exponent")):
        mine = genesis.config.backend_name
        with pytest.raises(ValueError, match=f"'{mine}' backend, not '{other}'"):
            GenesisBlock.from_bytes(genesis.to_bytes(), get_backend(other))


def test_genesis_golden_hash():
    """Frozen fixture: the canonical encoding of a fixed genesis must not drift."""
    genesis, _ = build_genesis(tiny_config(total_iterations=2), range(3), b"golden")
    assert genesis.hash().hex() == GOLDEN_GENESIS_HASH


# computed once from the canonical serialization above; any encoding change
# must be deliberate and update this value
GOLDEN_GENESIS_HASH = "dc354091f4f9bd1d3a462faf8a45a0e36d24e0a2a7fc97a2d6d314c7df67620c"


def test_block_roundtrip(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    data = block_to_bytes(block, BACKEND)
    back = block_from_bytes(data, BACKEND)
    assert block_hash(back, BACKEND) == block_hash(block, BACKEND)
    assert np.array_equal(back.model_weights, block.model_weights)
    with pytest.raises(ValueError):
        block_from_bytes(data + b"\x00", BACKEND)


def test_block_hash_changes_on_any_field(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    h = block_hash(block, BACKEND)
    bumped = dataclasses.replace(block, iteration=block.iteration + 1)
    assert block_hash(bumped, BACKEND) != h
    coeffs = list(block.aggregate_poly.coeffs)
    coeffs[1] = (coeffs[1] + 1) % BACKEND.order
    bumped_poly = dataclasses.replace(
        block, aggregate_poly=QuantizedPoly(tuple(coeffs), BACKEND.order)
    )
    assert block_hash(bumped_poly, BACKEND) != h


def test_honest_block_validates_and_appends(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    ok, reason = ledger.validate_block(block)
    assert ok, reason
    stake_before = dict(ledger.stake)
    ok, _ = ledger.append(block)
    assert ok and ledger.height == 1

    verifiers, aggregators = round_committees(
        genesis, build_ring(stake_before), block.prev_hash, 1
    )
    rewarded = set(e.peer for e in block.commitments) | set(verifiers) | set(aggregators)
    for pid in ledger.stake:
        expect = stake_before[pid] + (5 if pid in rewarded else 0)
        assert ledger.stake[pid] == expect


def test_chain_of_blocks_and_iterations(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    for i in range(3):
        block = honest_block(genesis, secrets, ledger, seed=i)
        ok, reason = ledger.append(block)
        assert ok, reason
    assert [b.iteration for b in ledger.blocks] == [1, 2, 3]


def test_tampered_aggregate_rejected(tiny_net):
    """A single perturbed coefficient breaks the commitment-product identity."""
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    coeffs = list(block.aggregate_poly.coeffs)
    coeffs[2] = (coeffs[2] + 1) % BACKEND.order
    poly = QuantizedPoly(tuple(coeffs), BACKEND.order)
    # keep the model consistent with the tampered polynomial so only Eq-style
    # commitment verification can catch it
    tampered = dataclasses.replace(
        block,
        aggregate_poly=poly,
        model_weights=ledger.current_model().weights + decode(poly),
    )
    tampered = resign_as_proposer(tampered, genesis, secrets, ledger)
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "commitment-product-mismatch"


def test_model_arithmetic_checked(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    tampered = dataclasses.replace(block, model_weights=block.model_weights + 1e-9)
    tampered = resign_as_proposer(tampered, genesis, secrets, ledger)
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "model-arithmetic-mismatch"


def test_single_update_block_passes(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger, contributor_count=1)
    ok, reason = ledger.validate_block(block)
    assert ok, reason


def test_majority_signatures_required(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    tampered = dataclasses.replace(block, signoffs=block.signoffs[:1])
    tampered = resign_as_proposer(tampered, genesis, secrets, ledger)
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "missing-verifier-majority"


def test_relabelled_entry_rejected(tiny_net):
    """A proposer that moves an honest entry to a peer on no committee and
    re-signs the block would move that entry's stake reward; the sign-offs
    name (peer, commitment) pairs, and none names the moved pair, so
    replicas refuse the block."""
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    verifiers, aggregators = round_committees(genesis, build_ring(ledger.stake), block.prev_hash, 1)
    taken = {*verifiers, *aggregators, *(e.peer for e in block.commitments)}
    outsider = next(p for p in sorted(genesis.peer_pubkeys) if p not in taken)
    moved = dataclasses.replace(block.commitments[-1], peer=outsider)
    entries = tuple(sorted(block.commitments[:-1] + (moved,), key=lambda e: e.peer))
    tampered = dataclasses.replace(block, commitments=entries)
    tampered = resign_as_proposer(tampered, genesis, secrets, ledger)
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "missing-verifier-majority"


@functools.cache
def signoff_round(backend_name):
    """A round-1 block of three contributors on a 12-peer genesis, its
    committees, and the genesis and secrets."""
    config = tiny_config(backend_name=backend_name, total_iterations=1)
    genesis, secrets = build_genesis(config, range(12), b"signoff-rule")
    ledger = Ledger(genesis)
    block = honest_block(genesis, secrets, ledger, contributor_count=3)
    verifiers, aggregators = round_committees(genesis, build_ring(ledger.stake), block.prev_hash, 1)
    return genesis, secrets, block, sorted(verifiers), aggregators


@pytest.mark.parametrize("backend_name", ["exponent", "pairing"])
@settings(deadline=None)
@given(data=st.data())
def test_signoff_block_rule_property(backend_name, data):
    """Random naming patterns over a real round's committee: each verifier
    signs off or not, naming any subset of the entries, some with another
    commitment; then at most one fault: a verifier's second sign-off, a
    sign-off by a non-member, a flipped signature byte, a verifier that
    signs a list naming one pair twice (which would count twice), or a
    sign-off whose signed bytes are cut into records at other boundaries.  A
    block is accepted exactly when no sign-off is faulty and more than v/2
    sign-offs name each entry's pair, else refused with the matching reason."""
    genesis, secrets, block, verifiers, aggregators = signoff_round(backend_name)
    backend = genesis.commit_pk.backend
    entries = block.commitments

    def signed(vid, pairs):
        return sign_off(backend, secrets[vid].keypair, 1, vid, pairs)

    def moved(entry):  # the same peer with another commitment
        return CommitmentEntry(entry.peer, backend.g1_add(entry.commitment, backend.g1))

    signoffs, naming = [], Counter()
    for vid in verifiers:
        if not data.draw(st.booleans()):
            continue
        named = data.draw(st.lists(st.sampled_from(entries), unique=True))
        other = data.draw(st.lists(st.sampled_from(entries), unique=True))
        naming.update(named)
        signoffs.append(signed(vid, [*named, *(moved(e) for e in other if e not in named)]))
    fault = data.draw(st.sampled_from(["none", "repeat", "non-member", "flip", "twice", "resplit"]))
    if fault == "repeat" and signoffs:
        first = signoffs[0]
        signoffs.insert(1, signed(first.verifier, data.draw(st.lists(st.sampled_from(entries), unique=True))))
    elif fault == "non-member":
        outsider = data.draw(st.sampled_from(sorted(set(genesis.peer_pubkeys) - set(verifiers))))
        signoffs = sorted([*signoffs, signed(outsider, entries)], key=lambda s: s.verifier)
    elif fault == "flip" and signoffs:
        at = data.draw(st.integers(0, len(signoffs) - 1))
        sig = bytearray(signoffs[at].signature)
        sig[data.draw(st.integers(0, len(sig) - 1))] ^= data.draw(st.integers(1, 255))
        signoffs[at] = dataclasses.replace(signoffs[at], signature=bytes(sig))
    elif fault == "twice" and signoffs:
        vid = signoffs[0].verifier
        records = tuple(sorted(pair_records((entries[0], *entries), backend)))
        message = signoff_message(1, vid, records)
        signoffs[0] = SignOff(vid, records, sign(backend, secrets[vid].keypair, message))
    elif fault == "resplit" and any(resplit(s.winners) for s in signoffs):
        at = next(i for i, s in enumerate(signoffs) if resplit(s.winners))
        signoffs[at] = dataclasses.replace(signoffs[at], winners=resplit(signoffs[at].winners))
    else:
        fault = "none"

    ledger = Ledger(genesis)
    candidate = dataclasses.replace(block, signoffs=tuple(signoffs))
    candidate = resign_as_proposer(candidate, genesis, secrets, ledger)
    if fault != "none":
        expected = "bad-verifier-signature"
    elif all(naming[e] > len(verifiers) // 2 for e in entries):
        expected = ""
    else:
        expected = "missing-verifier-majority"
    state, reason = ledger.validate_block(candidate)
    assert reason == expected
    if not reason:
        # an accepted block decodes from its own bytes to the same tip
        again = block_from_bytes(block_to_bytes(candidate, backend), backend)
        assert ledger.validate_block(again)[0].tip_hash == state.tip_hash


def test_signoff_naming_an_undecodable_record_gets_one_verdict():
    """A verifier may sign a record of pair size whose commitment bytes are no
    group element (here above the exponent group's order).  The block rule
    only compares records with the entries' encodings, and the decoder keeps
    a sign-off's records as read, so the block gets the same verdict from
    memory and from its bytes: accepted, with the same tip."""
    genesis, secrets, block, *_ = signoff_round("exponent")
    backend = genesis.commit_pk.backend
    first = block.signoffs[0]
    records = tuple(sorted((*first.winners, u32(99) + b"\xff" * 8)))
    message = signoff_message(1, first.verifier, records)
    padded = SignOff(first.verifier, records, sign(backend, secrets[first.verifier].keypair, message))
    ledger = Ledger(genesis)
    candidate = dataclasses.replace(block, signoffs=(padded, *block.signoffs[1:]))
    candidate = resign_as_proposer(candidate, genesis, secrets, ledger)
    state, reason = ledger.validate_block(candidate)
    assert reason == ""
    again = block_from_bytes(block_to_bytes(candidate, backend), backend)
    assert again.signoffs == candidate.signoffs
    assert ledger.validate_block(again)[0].tip_hash == state.tip_hash == block_hash(candidate, backend)


def test_duplicate_contributor_rejected(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    tampered = dataclasses.replace(block, commitments=block.commitments + block.commitments[:1])
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "duplicate-contributor"


def test_bad_prev_hash_rejected(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    tampered = dataclasses.replace(block, prev_hash=b"\x01" * 32)
    ok, reason = ledger.validate_block(tampered)
    assert not ok and reason == "bad-prev-hash"
    assert reason in REJECTION_REASONS


def test_aggregator_signature_checked(tiny_net):
    """Only the round's proposer, ``aggregators[0]``, mints: a valid signature
    by a peer off the committee, or by another aggregator of the round, is
    refused, and so is no signature."""
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    _, aggregators = round_committees(genesis, build_ring(ledger.stake), block.prev_hash, 1)
    outsider = next(p for p in sorted(genesis.peer_pubkeys) if p not in aggregators)
    content = block_content_hash(block, BACKEND)
    for signer in (outsider, *aggregators[1:]):
        tampered = dataclasses.replace(block, signature=sign(BACKEND, secrets[signer].keypair, content))
        assert ledger.validate_block(tampered) == (None, "bad-aggregator-signature")
    tampered = dataclasses.replace(block, signature=b"")
    assert ledger.validate_block(tampered) == (None, "bad-aggregator-signature")
    assert ledger.validate_block(block)[0] is not None


def test_rescaled_aggregate_rejected(tiny_net):
    """The format records the fixed-point scale ahead of each polynomial, and
    the scale is a constant: an aggregate that records 10 bits, which would
    move the model 2^10 times as far, does not decode."""
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    data = block_to_bytes(honest_block(genesis, secrets, ledger), BACKEND)
    at = 32 + 4  # after the previous hash and the round
    assert data[at : at + 4] == u32(SCALE_BITS)
    with pytest.raises(ValueError, match="scale"):
        block_from_bytes(data[:at] + u32(10) + data[at + 4 :], BACKEND)


def test_genesis_recording_another_scale_is_refused():
    """A config records the constant scale after the round count; no other
    value decodes."""
    config = tiny_config()
    data = config.to_bytes()
    slot = u32(config.total_iterations) + u32(SCALE_BITS)
    assert data.count(slot) == 1
    assert ProtocolConfig.from_bytes(data) == config
    with pytest.raises(ValueError, match="FIXED_POINT_BITS is 21, not 20"):
        ProtocolConfig.from_bytes(data.replace(slot, u32(config.total_iterations) + u32(21)))


def test_aggregate_of_another_length_rejected(tiny_net):
    """An aggregate padded with a zero coefficient is longer than the
    commitment key, so it is refused before anything commits or decodes it."""
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    poly = dataclasses.replace(block.aggregate_poly, coeffs=block.aggregate_poly.coeffs + (0,))
    tampered = resign_as_proposer(dataclasses.replace(block, aggregate_poly=poly), genesis, secrets, ledger)
    assert ledger.validate_block(tampered) == (None, "bad-aggregate-encoding")


def test_coefficients_must_be_field_residues(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    coeffs = block.aggregate_poly.coeffs

    def with_blinding(c0):
        poly = dataclasses.replace(block.aggregate_poly, coeffs=(c0,) + coeffs[1:])
        return dataclasses.replace(block, aggregate_poly=poly)

    # c + order commits and decodes like c: the same block under a second hash
    twin = resign_as_proposer(with_blinding(coeffs[0] + BACKEND.order), genesis, secrets, ledger)
    assert block_hash(twin, BACKEND) != block_hash(block, BACKEND)
    assert ledger.validate_block(twin) == (None, "bad-aggregate-encoding")
    # a negative coefficient has no encoding at all
    negative = with_blinding(coeffs[0] - BACKEND.order)
    assert ledger.validate_block(negative) == (None, "bad-aggregate-encoding")
    # and the decoder refuses a coefficient outside the field
    with pytest.raises(ValueError):
        block_from_bytes(block_to_bytes(twin, BACKEND), BACKEND)
    assert ledger.append(block)[0]


def test_unknown_contributor_rejected(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    outsider = max(genesis.peer_pubkeys) + 1
    entry = dataclasses.replace(block.commitments[-1], peer=outsider)
    tampered = dataclasses.replace(block, commitments=block.commitments[:-1] + (entry,))
    tampered = resign_as_proposer(tampered, genesis, secrets, ledger)
    assert ledger.validate_block(tampered) == (None, "unknown-contributor")
    assert ledger.append(tampered) == (False, "unknown-contributor")
    assert ledger.height == 0


def test_append_rejects_and_preserves_state(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    block = honest_block(genesis, secrets, ledger)
    bad = dataclasses.replace(block, prev_hash=b"\x02" * 32)
    ok, _ = ledger.append(bad)
    assert not ok and ledger.height == 0 and ledger.stake == genesis.initial_stake


def test_catch_up_adopts_longer_valid_chain(tiny_net):
    _, genesis, secrets = fresh_ledger(tiny_net)
    full = Ledger(genesis)
    for i in range(3):
        assert full.append(honest_block(genesis, secrets, full, seed=i))[0]
    late = Ledger(genesis)
    ok, reason = late.catch_up(full.blocks)
    assert ok, reason
    assert late.tip_hash() == full.tip_hash()
    assert late.stake == full.stake


def test_catch_up_identical_chain_is_noop(tiny_net):
    _, genesis, secrets = fresh_ledger(tiny_net)
    a = Ledger(genesis)
    assert a.append(honest_block(genesis, secrets, a))[0]
    assert a.catch_up(list(a.blocks)) == (False, "")


def test_catch_up_rejects_tampered_remote(tiny_net):
    _, genesis, secrets = fresh_ledger(tiny_net)
    full = Ledger(genesis)
    for i in range(2):
        assert full.append(honest_block(genesis, secrets, full, seed=i))[0]
    blocks = list(full.blocks)
    blocks[1] = dataclasses.replace(blocks[1], model_weights=blocks[1].model_weights * 1.5)
    late = Ledger(genesis)
    # the proposer signed other weights: the block rule's own reason
    assert late.catch_up(blocks) == (False, "bad-aggregator-signature")
    assert late.height == 0


def chain_of(genesis, secrets, length):
    ledger = Ledger(genesis)
    for i in range(length):
        assert ledger.append(honest_block(genesis, secrets, ledger, seed=i))[0]
    return ledger


@pytest.mark.parametrize("height", [0, 1, 2])
def test_catch_up_checks_only_the_suffix(tiny_net, monkeypatch, height):
    genesis, secrets = tiny_net
    full = chain_of(genesis, secrets, 3)
    late = Ledger(genesis)
    for block in full.blocks[:height]:
        assert late.append(block)[0]
    checked = []
    advance = ledger_module.advance

    def counted(state, block):
        checked.append(block.iteration)
        return advance(state, block)

    monkeypatch.setattr(ledger_module, "advance", counted)
    ok, reason = late.catch_up(full.blocks)
    assert ok, reason
    assert checked == [b.iteration for b in full.blocks[height:]]
    assert [block_hash(b, BACKEND) for b in late.blocks] == [
        block_hash(b, BACKEND) for b in full.blocks
    ]
    assert late.tip_hash() == full.tip_hash()
    assert late.stake == full.stake
    assert late.state.committees(4) == full.state.committees(4)


def test_catch_up_from_a_fork_is_refused(tiny_net):
    genesis, secrets = tiny_net
    full = chain_of(genesis, secrets, 3)
    forked = Ledger(genesis)
    assert forked.append(honest_block(genesis, secrets, forked, seed=7))[0]
    before = forked.state
    # the first suffix block does not extend this tip
    assert forked.catch_up(full.blocks) == (False, "bad-prev-hash")
    assert forked.state is before and forked.height == 1


def test_catch_up_refuses_a_tampered_suffix(tiny_net):
    genesis, secrets = tiny_net
    blocks = list(chain_of(genesis, secrets, 3).blocks)
    blocks[2] = dataclasses.replace(blocks[2], model_weights=blocks[2].model_weights * 1.5)
    late = Ledger(genesis)
    assert late.append(blocks[0])[0]
    before = late.state
    assert late.catch_up(blocks) == (False, "bad-aggregator-signature")
    assert late.state is before and late.height == 1


def test_replay_determinism(tiny_net):
    _, genesis, secrets = fresh_ledger(tiny_net)
    a = Ledger(genesis)
    for i in range(3):
        assert a.append(honest_block(genesis, secrets, a, seed=i))[0]
    b = Ledger(genesis)
    for blk in a.blocks:
        assert b.append(blk)[0]
    assert b.stake == a.stake
    assert np.array_equal(b.current_model().weights, a.current_model().weights)


def test_chain_file_roundtrip_and_tamper(tiny_net, tmp_path):
    _, genesis, secrets = fresh_ledger(tiny_net)
    ledger = Ledger(genesis)
    for i in range(2):
        assert ledger.append(honest_block(genesis, secrets, ledger, seed=i))[0]
    path = tmp_path / "chain.bin"
    save_chain(path, ledger)
    loaded = load_chain(path, BACKEND)
    assert loaded.tip_hash() == ledger.tip_hash()

    data = bytearray(path.read_bytes())
    data[-5] ^= 0xFF  # corrupt inside the last block
    bad_path = tmp_path / "tampered.bin"
    bad_path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="block 1"):
        load_chain(bad_path, BACKEND)
    bad_path.write_bytes(bytes(data[:-5]))  # cut inside the last record
    with pytest.raises(ValueError, match="tampered.bin: block 1: truncated"):
        load_chain(bad_path, BACKEND)
    for magic in (b"CLCHAIN1", b"CLCHAIN2", b"CLCHAIN3", b"CLCHAIN4"):  # the previous chain formats
        bad_path.write_bytes(magic + bytes(data[8:]))
        with pytest.raises(ValueError, match="bad magic"):
            load_chain(bad_path, BACKEND)


def assert_tip_state_fresh(ledger):
    """The replica's tip state equals what its block list gives from scratch."""
    genesis, state = ledger.genesis, ledger.state
    assert genesis.hash() == sha256(GENESIS_PREV_HASH + genesis.to_bytes())
    tip = block_hash(ledger.blocks[-1], BACKEND) if ledger.blocks else genesis.hash()
    assert state.tip_hash == ledger.tip_hash() == tip
    assert state.iteration == (ledger.blocks[-1].iteration if ledger.blocks else 0)
    weights = ledger.blocks[-1].model_weights if ledger.blocks else genesis.initial_model
    assert np.array_equal(state.weights, weights)
    replay = Ledger(genesis)
    for block in ledger.blocks:
        assert replay.append(block)[0]
    assert state.stake == replay.stake
    assert state.ring == build_ring(replay.stake)
    t = state.iteration + 1
    assert state.committees(t) == round_committees(genesis, build_ring(replay.stake), tip, t)


def test_tip_caches_follow_append_rejection_and_catch_up(tiny_net):
    ledger, genesis, secrets = fresh_ledger(tiny_net)
    assert_tip_state_fresh(ledger)
    for i in range(3):
        block = honest_block(genesis, secrets, ledger, seed=i)
        before = ledger.state
        before.committees(before.iteration + 1)
        assert ledger.append(block)[0]
        assert ledger.state is not before
        assert_tip_state_fresh(ledger)

    # a refused block, or one only validated, leaves the tip state as it was
    block = honest_block(genesis, secrets, ledger, seed=9)
    bad = resign_as_proposer(
        dataclasses.replace(block, model_weights=block.model_weights + 1.0),
        genesis, secrets, ledger,
    )
    before = ledger.state
    assert ledger.append(bad) == (False, "model-arithmetic-mismatch")
    state, reason = ledger.validate_block(block)
    assert state is not None and state.tip_hash == block_hash(block, BACKEND), reason
    assert ledger.state is before
    assert_tip_state_fresh(ledger)

    # a replica one block behind adopts the longer chain
    late = Ledger(genesis)
    assert late.append(ledger.blocks[0])[0]
    late.state.committees(2)
    ok, reason = late.catch_up(ledger.blocks)
    assert ok, reason
    assert late.tip_hash() == ledger.tip_hash()
    assert_tip_state_fresh(late)

    # committees of a later round on the same tip (a voided round) are redrawn
    assert late.state.committees(5) == round_committees(
        genesis, build_ring(late.stake), late.tip_hash(), 5
    )


def test_a_signoff_of_one_round_is_refused_for_the_next_on_one_tip(tiny_net):
    """A voided round keeps the tip, so a sign-off of round t can be offered
    again in round t + 1 on the same tip.  Its signed bytes name round t, so
    it is refused for t + 1 though its round-t verdict is in the tip's memo,
    and that verdict stands."""
    genesis, secrets = tiny_net
    state = TipState.root(genesis)
    vid = state.committees(1)[0][0]
    entry = CommitmentEntry(vid + 1, genesis.noise_table[vid][0])
    signoff = sign_off(BACKEND, secrets[vid].keypair, 1, vid, [entry])
    assert state.signoff_valid(1, signoff)
    assert not state.signoff_valid(2, signoff)
    assert state.signoff_valid(1, signoff)


def test_genesis_prev_hash_constant():
    assert GENESIS_PREV_HASH == b"\x00" * 32


def test_replicas_on_one_root_share_each_verdict(tiny_net, monkeypatch):
    """Replicas built on one root refuse a re-signed block with wrong weights
    under one reason, and the rule works it out once; a replica on a fresh
    root works it out again.  The honest block is then accepted at each,
    worked out once, and every replica holds the one next state."""
    genesis, secrets = tiny_net
    root = TipState.root(genesis)
    replicas = [Ledger(genesis, root) for _ in range(4)]
    block = honest_block(genesis, secrets, replicas[0])
    wrong = dataclasses.replace(block, model_weights=block.model_weights + 1.0)
    wrong = resign_as_proposer(wrong, genesis, secrets, replicas[0])
    calls = count_block_checks(monkeypatch)
    assert [r.append(wrong) for r in replicas] == [(False, "model-arithmetic-mismatch")] * 4
    assert len(calls) == 1
    assert Ledger(genesis).append(wrong) == (False, "model-arithmetic-mismatch")
    assert len(calls) == 2
    assert [r.append(block) for r in replicas] == [(True, "")] * 4
    assert len(calls) == 3
    assert len({id(r.state) for r in replicas}) == 1
    assert_tip_state_fresh(replicas[0])


def test_an_equal_block_read_back_from_bytes_is_one_lookup(tiny_net, monkeypatch):
    """The block rule's verdict is keyed by the block's values: on one root,
    a copy read back from the accepted block's bytes, all fresh objects,
    reaches the state the first replica reached with no block encoded and
    no commitment computed."""
    genesis, secrets = tiny_net
    root = TipState.root(genesis)
    first, second = Ledger(genesis, root), Ledger(genesis, root)
    block = honest_block(genesis, secrets, first)
    assert first.append(block) == (True, "")
    copy = block_from_bytes(block_to_bytes(block, BACKEND), BACKEND)
    encoded, content_bytes = [], ledger_module.block_content_bytes
    monkeypatch.setattr(ledger_module, "block_content_bytes", lambda *a: encoded.append(a) or content_bytes(*a))
    calls = count_block_checks(monkeypatch)
    assert copy.model_weights is not block.model_weights
    assert second.append(copy) == (True, "")
    assert second.state is first.state
    assert encoded == [] and calls == []


def test_a_changed_weight_is_not_the_cached_block(tiny_net):
    """A copy of an accepted block with one weight changed and re-signed has
    another hash, so on the same tip it is worked out on its own and refused.
    The accepted state keeps its own read-only weights, so changing the
    block's array in place moves no state."""
    genesis, secrets = tiny_net
    root = TipState.root(genesis)
    first, second = Ledger(genesis, root), Ledger(genesis, root)
    block = honest_block(genesis, secrets, first)
    assert first.append(block) == (True, "")
    weights = block.model_weights.copy()
    weights[1] += 2.0**-SCALE_BITS
    changed = resign_as_proposer(dataclasses.replace(block, model_weights=weights), genesis, secrets, second)
    assert second.append(changed) == (False, "model-arithmetic-mismatch")
    kept = first.state.weights.copy()
    block.model_weights[1] += 1.0
    in_place = resign_as_proposer(block, genesis, secrets, second)
    assert second.append(in_place) == (False, "model-arithmetic-mismatch")
    assert np.array_equal(first.state.weights, kept) and not first.state.weights.flags.writeable


def mutated(data, block, genesis, secrets, ledger):
    """``block`` with one field changed, drawn from ``data``, and re-signed by
    the round's proposer or not."""
    backend = genesis.commit_pk.backend
    kind = data.draw(st.sampled_from([
        "prev-hash", "iteration", "coefficient", "weight", "weights-shape", "entry-peer",
        "entry-commitment", "entry-dropped", "entry-repeated", "entries-reordered",
        "signoff-dropped", "signoff-signature", "signoff-resplit", "signoff-verifier",
        "signoffs-reordered", "signature", "re-decoded",
    ]))
    entries, signoffs = list(block.commitments), list(block.signoffs)
    at = data.draw(st.integers(0, len(entries) - 1))
    s_at = data.draw(st.integers(0, len(signoffs) - 1))
    if kind == "prev-hash":
        block = dataclasses.replace(block, prev_hash=sha256(block.prev_hash))
    elif kind == "iteration":
        block = dataclasses.replace(block, iteration=data.draw(st.integers(0, 3).filter(lambda t: t != 1)))
    elif kind == "coefficient":
        coeffs = list(block.aggregate_poly.coeffs)
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = data.draw(st.integers(0, backend.order + 5).filter(lambda c: c != coeffs[i]))
        poly = dataclasses.replace(block.aggregate_poly, coeffs=tuple(coeffs))
        block = dataclasses.replace(block, aggregate_poly=poly)
    elif kind == "weight":
        weights = block.model_weights.copy()
        i = data.draw(st.integers(0, len(weights) - 1))
        weights[i] = data.draw(st.floats(allow_nan=True, allow_infinity=True))
        block = dataclasses.replace(block, model_weights=weights)
    elif kind == "weights-shape":
        block = dataclasses.replace(block, model_weights=block.model_weights.reshape(-1, 1))
    elif kind == "entry-peer":
        peer = data.draw(st.sampled_from(sorted(genesis.peer_pubkeys)))
        entries[at] = dataclasses.replace(entries[at], peer=peer)
    elif kind == "entry-commitment":
        entries[at] = dataclasses.replace(entries[at], commitment=backend.g1_add(entries[at].commitment, backend.g1))
    elif kind == "entry-dropped":
        del entries[at]
    elif kind == "entry-repeated":
        entries.append(entries[at])
    elif kind == "entries-reordered":
        entries = data.draw(st.permutations(entries))
    elif kind == "signoff-dropped":
        del signoffs[s_at]
    elif kind == "signoff-signature":
        sig = bytearray(signoffs[s_at].signature)
        sig[data.draw(st.integers(0, len(sig) - 1))] ^= data.draw(st.integers(1, 255))
        signoffs[s_at] = dataclasses.replace(signoffs[s_at], signature=bytes(sig))
    elif kind == "signoff-resplit":
        signoffs[s_at] = dataclasses.replace(signoffs[s_at], winners=resplit(signoffs[s_at].winners) or ())
    elif kind == "signoff-verifier":
        others = sorted(set(genesis.peer_pubkeys) - {s.verifier for s in signoffs})
        signoffs[s_at] = dataclasses.replace(signoffs[s_at], verifier=data.draw(st.sampled_from(others)))
    elif kind == "signoffs-reordered":
        signoffs = data.draw(st.permutations(signoffs))
    elif kind == "re-decoded":  # an equal copy read back from bytes, all fresh objects
        block = block_from_bytes(block_to_bytes(block, backend), backend)
        entries, signoffs = list(block.commitments), list(block.signoffs)
    else:
        block = dataclasses.replace(block, signature=data.draw(st.binary(max_size=64)))
    block = dataclasses.replace(block, commitments=tuple(entries), signoffs=tuple(signoffs))
    # a column of weights has no encoding to sign
    if kind not in ("signature", "weights-shape") and data.draw(st.booleans()):
        block = resign_as_proposer(block, genesis, secrets, ledger)
    return block


@settings(deadline=None)
@given(data=st.data())
def test_shared_verdicts_match_a_fresh_ledger_property(data):
    """A one-field change to an honest block, re-signed or not, gets the same
    verdict (reason and next tip) on a root shared with other replicas as on
    a fresh ledger, whether the honest block's verdict is already kept on
    that root or not; and it never changes the honest block's verdict."""
    genesis, secrets, block, *_ = signoff_round("exponent")
    fresh = Ledger(genesis)
    candidate = mutated(data, block, genesis, secrets, fresh)

    def verdict(ledger, b):
        state, reason = ledger.validate_block(b)
        return reason, state and (state.tip_hash, state.stake)

    expected, honest = verdict(fresh, candidate), verdict(Ledger(genesis), block)
    assert honest[0] == ""
    before, after = TipState.root(genesis), TipState.root(genesis)
    assert verdict(Ledger(genesis, before), candidate) == expected
    assert verdict(Ledger(genesis, before), block) == honest
    assert verdict(Ledger(genesis, after), block) == honest
    assert verdict(Ledger(genesis, after), candidate) == expected
