"""Fuzzing the chain decoders on the exponent group, and the point decoder
and signature check on the pairing group: every byte string that reaches one
either raises ValueError, and nothing else, or decodes to a value whose
encoding is exactly those bytes; valid encodings round-trip, and every strict
prefix of one is refused.  A signature is "decoded" by verifying it under a
fixed key and message, so only the honest signature may pass."""

import copy
import dataclasses
import math
import re
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn import ledger
from chainlearn.cli import main
from chainlearn.commitments import CommitPK
from chainlearn.encoding import ByteWriter, sha256, u32
from chainlearn.groups import get_backend
from chainlearn.ledger import (
    CHAIN_MAGIC,
    GENESIS_PREV_HASH,
    GenesisBlock,
    Ledger,
    ProtocolConfig,
    block_from_bytes,
    block_to_bytes,
    load_chain,
    pair_records,
)
from chainlearn.signatures import keygen, sign, verify

from conftest import honest_block

BACKEND = get_backend("exponent")
PAIRING = get_backend("pairing")
SIGNER = keygen(PAIRING, b"fuzz-signer")
KEY = SIGNER.public
MESSAGE = b"fuzzed message"
SIGNATURE = sign(PAIRING, SIGNER, MESSAGE)


def only_the_signature(data):
    """``SIGNATURE`` if ``data`` verifies, else ValueError."""
    if not verify(PAIRING, KEY, MESSAGE, data):
        raise ValueError("does not verify")
    return SIGNATURE


# decode, then encode again
REENCODE = {
    "block": lambda data: block_to_bytes(block_from_bytes(data, BACKEND), BACKEND),
    "genesis": lambda data: GenesisBlock.from_bytes(data, BACKEND).to_bytes(),
    "config": lambda data: ProtocolConfig.from_bytes(data).to_bytes(),
    "commit-pk": lambda data: CommitPK.from_bytes(BACKEND, data).to_bytes(),
    "g1": lambda data: PAIRING.g1_to_bytes(PAIRING.g1_from_bytes(data)),
    "signature": only_the_signature,
}
KINDS = sorted(REENCODE)
# as many examples as the active Hypothesis profile asks for, and never fewer than 40
FUZZ = settings(max_examples=max(40, settings.default.max_examples), deadline=None)


@pytest.fixture(scope="module")
def encoded(tiny_net):
    genesis, secrets = tiny_net
    block = honest_block(genesis, secrets, Ledger(genesis))
    return {
        "block": block_to_bytes(block, BACKEND),
        "genesis": genesis.to_bytes(),
        "config": genesis.config.to_bytes(),
        "commit-pk": genesis.commit_pk.to_bytes(),
        "g1": PAIRING.g1_to_bytes(SIGNER.public),
        "signature": SIGNATURE,
    }


def canonical_or_value_error(kind, data) -> None:
    try:
        again = REENCODE[kind](data)
    except ValueError:
        return
    assert again == data


@pytest.mark.parametrize("kind", KINDS)
def test_valid_encoding_round_trips(encoded, kind):
    assert REENCODE[kind](encoded[kind]) == encoded[kind]


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes(kind, data):
    canonical_or_value_error(kind, data)


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation_is_refused(encoded, kind, cut):
    data = encoded[kind]
    with pytest.raises(ValueError):
        REENCODE[kind](data[: int(cut * len(data))])


@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_single_byte_flip(encoded, kind, where, flip):
    data = bytearray(encoded[kind])
    data[int(where * len(data))] ^= flip
    canonical_or_value_error(kind, bytes(data))


@pytest.mark.parametrize("change", ["swap-two-keys", "repeat-a-key"])
def test_non_canonical_genesis_is_refused(tiny_net, change):
    """Two peer records out of order, or one twice with the peer count raised
    by one, would decode to the same genesis with the same hash."""
    genesis, _ = tiny_net
    data = genesis.to_bytes()
    # the records close the encoding: id, public key, stake, a commitment per round
    size = 4 + BACKEND.element_size + 8 + genesis.config.total_iterations * BACKEND.element_size
    first = len(data) - len(genesis.peer_pubkeys) * size
    count_at = first - 4
    one, two = data[first : first + size], data[first + size : first + 2 * size]
    if change == "swap-two-keys":
        bad = data[:first] + two + one + data[first + 2 * size :]
    else:
        count = int.from_bytes(data[count_at:first], "little")
        bad = data[:count_at] + u32(count + 1) + one + data[first:]
    with pytest.raises(ValueError, match="ascend"):
        GenesisBlock.from_bytes(bad, BACKEND)


def test_genesis_with_a_key_not_starting_at_g1_is_refused(tiny_net):
    """The same genesis with the key's first power doubled."""
    genesis, _ = tiny_net
    powers = genesis.commit_pk.powers
    key = genesis.commit_pk.to_bytes()
    doubled = BACKEND.g1_add(BACKEND.g1, BACKEND.g1)
    bad_key = u32(len(powers)) + b"".join(BACKEND.g1_to_bytes(pw) for pw in [doubled, *powers[1:]])
    data = genesis.to_bytes()
    assert data.count(key) == 1 and len(bad_key) == len(key)
    bad = data.replace(key, bad_key)
    with pytest.raises(ValueError, match="g1"):
        GenesisBlock.from_bytes(bad, BACKEND)


@pytest.mark.parametrize(
    "change, message",
    [
        ("swap-two-entries", "entries must strictly ascend"),
        ("repeat-an-entry", "entries must strictly ascend"),
        ("verifiers-descending", "ids must strictly ascend"),
        ("repeat-a-verifier", "ids must strictly ascend"),
        ("records-past-the-end", "truncated"),
    ],
)
def test_non_canonical_block_is_refused(tiny_net, change, message):
    """The entries are their pair encodings, each once, in ascending byte
    order; sign-offs ascend by verifier id; a sign-off's record count covers
    records that are there.  Anything else has a second encoding, or none."""
    genesis, secrets = tiny_net
    block = honest_block(genesis, secrets, Ledger(genesis))
    signoffs = block.signoffs
    if change == "repeat-an-entry":
        block = dataclasses.replace(block, commitments=block.commitments[:1] + block.commitments)
    elif change == "verifiers-descending":
        block = dataclasses.replace(block, signoffs=signoffs[::-1])
    elif change == "repeat-a-verifier":
        block = dataclasses.replace(block, signoffs=signoffs[:1] + signoffs)
    data = block_to_bytes(block, BACKEND)
    # the n entries, then the sign-off count, then the first sign-off's
    # verifier id and record count
    n, record = len(block.commitments), 4 + BACKEND.element_size
    first = data.index(min(pair_records(block.commitments, BACKEND)))
    if change == "swap-two-entries":
        one, two = data[first : first + record], data[first + record : first + 2 * record]
        data = data[:first] + two + one + data[first + 2 * record :]
    elif change == "records-past-the-end":
        count = first + n * record + 8
        data = data[:count] + u32(len(data)) + data[count + 4 :]
    with pytest.raises(ValueError, match=message):
        block_from_bytes(data, BACKEND)


def config_bytes(obj, changes: dict, prefix: str = "") -> bytes:
    """The config encoding of the dataclass ``obj`` with ``changes``, keyed by
    dotted field name, in place of its values: written field by field with
    each type's writer, since neither a ``ProtocolConfig`` nor its own
    encoder holds a value the config refuses."""
    w = ByteWriter()
    for name, kind in get_type_hints(type(obj)).items():
        if dataclasses.is_dataclass(kind):
            w.raw(config_bytes(getattr(obj, name), changes, f"{prefix}{name}."))
        else:
            ledger._codec(kind)[0](w, changes.get(prefix + name, getattr(obj, name)))
    return w.getvalue()


def crafted_chain(tiny_net, path, **changes) -> None:
    """Write a chain file whose genesis is ``tiny_net``'s with ``changes`` to
    its config (``config_bytes``), made as bytes since no ``GenesisBlock``
    holds such a config, and then one round-1 block signed by the genesis'
    own keys: its committees drawn on the crafted genesis' hash under the
    unchanged config, which draws the same verifiers whatever the
    aggregator count."""
    genesis, secrets = tiny_net
    data = genesis.to_bytes().replace(genesis.config.to_bytes(), config_bytes(genesis.config, changes), 1)
    stand_in = copy.copy(genesis)  # the unchanged genesis under the crafted hash
    object.__setattr__(stand_in, "_digest", sha256(GENESIS_PREV_HASH + data))
    block = honest_block(stand_in, secrets, Ledger(stand_in))
    path.write_bytes(ByteWriter().raw(CHAIN_MAGIC).bytes_lp(data).bytes_lp(block_to_bytes(block, BACKEND)).getvalue())


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"num_aggregators": 0}, "num_aggregators must be at least 2, got 0"),
        ({"num_verifiers": 20}, "verifier committee of 20 "),
        ({"num_noisers": 12}, "noiser committee of 12 "),
        ({"num_aggregators": 1}, "num_aggregators must be at least 2, got 1"),
        ({"num_aggregators": 11}, "11 aggregators for only 10 share points"),
        ({"n_features": 5}, "4 model weights and key degree 4 for a config of 6 weights"),
        ({"n_features": 2}, "4 model weights and key degree 4 for a config of 3 weights"),
        ({"model_family": "logrex"}, "unknown model family 'logrex'"),
    ],
)
def test_chain_whose_committees_cannot_be_drawn_is_refused_at_genesis(tiny_net, tmp_path, capsys, changes, message):
    """A chain file whose genesis asks for no proposer, for more verifiers
    than its 12 staked peers, for as many noisers as staked peers (a peer
    draws from the other 11), for a share layout no round can deal (one
    aggregator, or 11 for the 10 share points of d = 4), or for a model its
    4 weights and degree-4 key do not fit (5 or 2 features, or a family
    that does not exist; these loaded as valid chains) fails as a
    ``ValueError`` naming the path and the genesis, never a traceback, and
    ``verify-chain`` prints it as one error line.  The family name keeps
    the length of ``logreg``, since the config's bytes are swapped in place."""
    path = tmp_path / "crafted.bin"
    crafted_chain(tiny_net, path, **changes)
    expected = f"{path}: genesis: {message}"
    with pytest.raises(ValueError, match="^" + re.escape(expected)):
        load_chain(path, BACKEND)
    assert main(["verify-chain", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expected}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epsilon", math.nan, "epsilon must be a finite number, got nan"),
        ("epsilon", -1.0, "epsilon must be positive, got -1.0"),
        ("epsilon", math.inf, "epsilon must be a finite number, got inf"),
        ("delta", 2.0, "delta must lie in (0, 1), got 2.0"),
        ("delta", math.nan, "delta must be a finite number, got nan"),
        ("collect_fraction", math.nan, "collect_fraction must be a finite number, got nan"),
        ("collect_fraction", 0.0, "collect_fraction must lie in (0, 1], got 0.0"),
        ("collect_fraction", -0.2, "collect_fraction must lie in (0, 1], got -0.2"),
        ("collect_fraction", 1.5, "collect_fraction must lie in (0, 1], got 1.5"),
        ("train.eta0", math.nan, "train.eta0 must be positive, got nan"),
        ("train.eta_decay", math.inf, "train.eta_decay must be a finite number, got inf"),
    ],
)
def test_chain_whose_config_refuses_itself_is_refused_at_genesis(tiny_net, tmp_path, capsys, field, value, message):
    """A genesis whose config holds no privacy step (epsilon NaN, negative
    or infinite, where sigma is 0 and updates go unmasked; delta 2 or NaN),
    no sample (a collection fraction of NaN, 0 or below, or past 1) or no
    learning-rate schedule (eta0 NaN, an infinite decay) loaded as a valid
    chain.  The config refuses itself as it is decoded, naming the field:
    ``load_chain`` raises one ``genesis:`` error and ``verify-chain``
    prints it as one error line."""
    path = tmp_path / "crafted.bin"
    crafted_chain(tiny_net, path, **{field: value})
    expected = f"{path}: genesis: {message}"
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        load_chain(path, BACKEND)
    assert main(["verify-chain", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {expected}\n"


def test_block_rule_value_error_names_path_and_block(tiny_net, tmp_path, monkeypatch):
    """A ``ValueError`` raised inside the block rule reaches the caller of
    ``load_chain`` naming the path and the block."""
    path = tmp_path / "chain.bin"
    crafted_chain(tiny_net, path)

    def refused(*args):
        raise ValueError("no draw")

    monkeypatch.setattr(ledger, "round_committees", refused)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: block 0 (iteration 1): no draw") + "$"):
        load_chain(path, BACKEND)
