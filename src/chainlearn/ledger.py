"""Block structure, genesis, chain validation and catch-up.

A block seals one training round: the summed update polynomial (blinding
slots included), the resulting model snapshot, the contributors' (peer,
commitment) pairs, the verifiers' sign-offs that name them (one signature
per verifier per round, over all of its winners, written as signed), and
the signature of the round's proposer, the one aggregator that mints.
Validation is fully recomputable from public data: hash link, committee
membership via the stake-ring draws, sign-off majorities, the proposer's
signature, the commitment-product identity

    commit(aggregate) == product of committed updates

and the model arithmetic w_t = w_{t-1} + decode(aggregate).

A replica is its block list plus one immutable ``TipState``, everything it
derives from its tip; the block rule is the pure ``advance(state, block)``.
Rejections carry a machine-readable reason string from REJECTION_REASONS.

A state works out each verdict once, in one memo keyed by kind and value
(``TipState.once``): a round's committees by round, a sign-off's verdict by
round and sign-off, the block rule's by the block's fields, the submission
check's by the submission and a share bundle's by round, entry and
sign-offs.  A repeat check is one lookup; the gates, the encoding and the
checks run on a miss.  Replicas built on one root reach the same state
objects and share these; a ``Ledger`` on a fresh root (``load_chain``, any
audit) checks every block.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, is_dataclass
from functools import cached_property
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from . import signatures
from .commitments import CommitPK, combine, commit, slots
from .committees import ROLE_AGGREGATE, ROLE_VERIFY, committee_seed, draw_committee
from .encoding import ByteReader, ByteWriter, require, require_int, sha256, u32
from .groups import BACKENDS
from .models import ModelParams, make_model
from .quantize import SCALE_BITS, QuantizedPoly, admissible, decode
from .sgd import TrainConfig
from .stake import StakeRing, build_ring, update_stake

GENESIS_PREV_HASH = b"\x00" * 32

REJECTION_REASONS = frozenset(
    {
        "bad-prev-hash",
        "bad-iteration",
        "empty-commitment-list",
        "bad-aggregate-encoding",
        "unknown-contributor",
        "duplicate-contributor",
        "contributor-on-committee",
        "missing-verifier-majority",
        "bad-verifier-signature",
        "bad-aggregator-signature",
        "commitment-product-mismatch",
        "model-arithmetic-mismatch",
        "bad-dimension",
    }
)


@dataclass(frozen=True)
class ProtocolConfig:
    """Consensus-relevant knobs every peer reads from genesis; each refuses what its own fields decide."""

    backend_name: str
    model_family: str
    n_features: int
    n_classes: int
    total_iterations: int
    # not a knob: the chain format records quantize's constant scale here
    FIXED_POINT_BITS: ClassVar[int] = SCALE_BITS
    epsilon: float
    delta: float
    num_noisers: int
    num_verifiers: int
    num_aggregators: int
    collect_fraction: float  # R = round(fraction * live peers)
    stake_reward: int
    train: TrainConfig

    def __post_init__(self):
        # a run needs a round, a noiser and a verifier, and a share split two aggregators
        for name, least in (("total_iterations", 1), ("num_noisers", 1), ("num_verifiers", 1), ("num_aggregators", 2)):
            require_int(name, getattr(self, name), least)
        self.to_bytes()  # refuses a value its genesis slot cannot hold
        require("epsilon", self.epsilon, self.epsilon > 0, "be positive")
        require("delta", self.delta, 0 < self.delta < 1, "lie in (0, 1)")
        require("collect_fraction", self.collect_fraction, 0 < self.collect_fraction <= 1, "lie in (0, 1]")
        require("backend_name", self.backend_name, self.backend_name in BACKENDS, f"be one of {sorted(BACKENDS)}")
        slots(self.model_dim, range(self.num_aggregators))  # an unknown model family, then the layout

    @property
    def model_dim(self) -> int:
        """The weight count of the model the config names."""
        return make_model(self.model_family, self.n_features, self.n_classes).dim

    def to_bytes(self) -> bytes:
        return _write_fields(ByteWriter(), self).getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProtocolConfig":
        r = ByteReader(data)
        config = _read_fields(r, cls)
        r.done()
        return config


# how each field type of a config encodes: (write, read, check), where
# check(name, value) refuses, naming the field, a value the slot cannot hold
_FIELD_CODECS = {
    str: (lambda w, v: w.bytes_lp(v.encode()), lambda r: r.bytes_lp().decode(),
          lambda name, v: require(name, v, isinstance(v, str), "be a string")),
    int: (ByteWriter.u32, ByteReader.u32, require_int),  # 0..U32, and no bool or float
    float: (ByteWriter.f64, ByteReader.f64, lambda name, v: require(
        name, repr(v), isinstance(v, (int, float)) and math.isfinite(v), "be a finite number")),
}


def _codec(kind):
    """The (write, read, check) of a field type; a ``ClassVar`` encodes as its type."""
    return _FIELD_CODECS[get_args(kind)[0] if get_origin(kind) is ClassVar else kind]


def _write_fields(w: ByteWriter, obj, prefix: str = "") -> ByteWriter:
    """Every field of the dataclass ``obj`` in declaration order: a ``str`` as
    length-prefixed UTF-8, an ``int`` as u32, a ``float`` as f64, and a
    nested dataclass inline by the same rule, each refused, by its dotted
    name, unless its slot holds it.  A ``ClassVar`` is written as its value."""
    for name, kind in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(kind):
            _write_fields(w, value, f"{prefix}{name}.")
        else:
            write, _, check = _codec(kind)
            check(prefix + name, value)
            write(w, value)
    return w


def _read_fields(r: ByteReader, cls):
    """The ``cls`` instance that ``_write_fields`` wrote; a ``ClassVar`` slot
    must hold the class's value."""
    values = []
    for name, kind in get_type_hints(cls).items():
        value = _read_fields(r, kind) if is_dataclass(kind) else _codec(kind)[1](r)
        if get_origin(kind) is not ClassVar:
            values.append(value)
        elif value != getattr(cls, name):
            raise ValueError(f"{name} is {value}, not {getattr(cls, name)}")
    return cls(*values)


@dataclass(frozen=True)
class GenesisBlock:
    """The network's starting point.  ``peer_pubkeys``, ``initial_stake`` and
    ``noise_table`` name the same peers, each with one noise commitment per
    round of ``config``, round t at index t - 1.  The keys are held as
    ``backend.prepare_base`` prepared them, however the genesis was made, so
    each builds its tables at its first signature check.  Each committee of
    the config holds no more than the peers with stake (the noisers no more
    than one fewer: a peer draws them from the others), so every round's
    committees can be drawn, as stake only grows.  The initial model, the
    commitment key's degree and the config's model agree on the weight count."""

    initial_model: np.ndarray
    commit_pk: CommitPK
    peer_pubkeys: dict  # peer id -> G1 element, prepared
    noise_table: dict  # peer id -> tuple of G1 elements
    initial_stake: dict
    global_key: bytes
    config: ProtocolConfig

    def __post_init__(self):
        rows = self.noise_table
        if not set(self.peer_pubkeys) == set(self.initial_stake) == set(rows):
            raise ValueError("public keys, stake and noise table name different peers")
        if any(len(row) != self.config.total_iterations for row in rows.values()):
            raise ValueError("noise table rows must cover every round")
        cfg, staked = self.config, sum(v > 0 for v in self.initial_stake.values())
        # a peer draws its noisers from the other peers with stake, each committee from all of them
        for role, k, most in (("noiser", cfg.num_noisers, staked - 1), ("verifier", cfg.num_verifiers, staked),
                              ("aggregator", cfg.num_aggregators, staked)):
            if k > most:
                raise ValueError(f"{role} committee of {k} is outside 1..{most} for {staked} peers with stake")
        backend, dim, degree = self.commit_pk.backend, cfg.model_dim, self.commit_pk.degree
        if backend.name != cfg.backend_name:
            raise ValueError(f"config names the {cfg.backend_name!r} backend, commitment key the {backend.name!r}")
        if not len(self.initial_model) == degree == dim:
            raise ValueError(f"{len(self.initial_model)} model weights and key degree {degree}"
                             f" for a config of {dim} weights")
        keys = {pid: backend.prepare_base(key) for pid, key in self.peer_pubkeys.items()}
        object.__setattr__(self, "peer_pubkeys", keys)

    def to_bytes(self) -> bytes:
        """The config, the model, the keys, then one record per peer in
        ascending id order: public key, stake, and a noise commitment per round."""
        backend = self.commit_pk.backend
        w = ByteWriter()
        w.bytes_lp(self.config.to_bytes())
        w.f64_vector(self.initial_model)
        w.bytes_lp(self.commit_pk.to_bytes())
        w.bytes_lp(self.global_key)
        w.u32(len(self.peer_pubkeys))
        for pid in sorted(self.peer_pubkeys):
            w.u32(pid)
            w.raw(backend.g1_to_bytes(self.peer_pubkeys[pid]))
            w.u64(self.initial_stake[pid])
            for c in self.noise_table[pid]:
                w.raw(backend.g1_to_bytes(c))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes, backend) -> "GenesisBlock":
        """Decode ``to_bytes`` output, and only that: peer ids must strictly
        ascend, so no other bytes decode to the same genesis.  The config
        names the backend, and is checked before any group element is read."""
        r = ByteReader(data)
        config = ProtocolConfig.from_bytes(r.bytes_lp())
        if config.backend_name != backend.name:
            raise ValueError(f"built for the {config.backend_name!r} backend, not {backend.name!r}")
        initial_model = np.array(r.f64_vector())
        pk = CommitPK.from_bytes(backend, r.bytes_lp())
        global_key = r.bytes_lp()
        pubkeys, stake, table, last = {}, {}, {}, -1

        def element():
            return backend.g1_from_bytes(r.raw(backend.element_size))

        for _ in range(r.u32()):
            pid = r.u32()
            if pid <= last:
                raise ValueError(f"peer id {pid} after {last}: ids must strictly ascend")
            pubkeys[pid], stake[pid] = element(), r.u64()
            table[pid] = tuple(element() for _ in range(config.total_iterations))
            last = pid
        r.done()
        genesis = cls(initial_model, pk, pubkeys, table, stake, global_key, config)
        # canonical, so these bytes are its encoding: hash them as read
        object.__setattr__(genesis, "_digest", sha256(GENESIS_PREV_HASH + data))
        return genesis

    def hash(self) -> bytes:
        # memoised: the encoding covers the whole N x T noise table
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = sha256(GENESIS_PREV_HASH + self.to_bytes())
            object.__setattr__(self, "_digest", digest)
        return digest

    def admits(self, poly: QuantizedPoly) -> bool:
        """``quantize.admissible`` in this network's field, at model size."""
        return admissible(poly, self.commit_pk.backend.order, len(self.initial_model))


@dataclass(frozen=True)
class CommitmentEntry:
    """One (peer, commitment) pair: a block entry, or a winner before ``sign_off`` encodes it."""

    peer: int
    commitment: object  # G1 element (backend-specific)


@dataclass(frozen=True)
class SignOff:
    """One verifier's endorsement of its round's winners: their pair
    encodings (``pair_records``) in strictly ascending byte order, and a
    signature over the round, its id and those bytes (``signoff_message``)."""

    verifier: int
    winners: tuple  # bytes, one pair encoding per winner
    signature: bytes


@dataclass(frozen=True)
class Block:
    prev_hash: bytes
    iteration: int
    aggregate_poly: QuantizedPoly
    model_weights: np.ndarray
    commitments: tuple  # CommitmentEntry, one per contributor
    signoffs: tuple  # SignOff, one per signing verifier, ascending verifier id
    signature: bytes  # the round's proposer's, over the content hash


def write_poly(w: ByteWriter, poly: QuantizedPoly, backend) -> None:
    """The fixed-point scale (u32, always ``SCALE_BITS``), the coefficient
    count, then each coefficient little-endian at the order's byte width."""
    width = backend.scalar_size
    w.u32(SCALE_BITS).u32(len(poly.coeffs))
    w.raw(b"".join([int(c).to_bytes(width, "little") for c in poly.coeffs]))


def read_poly(r: ByteReader, backend) -> QuantizedPoly:
    """Decode ``write_poly`` output, and only that: the scale is
    ``SCALE_BITS`` and every coefficient lies below the order."""
    width, order = backend.scalar_size, backend.order
    if r.u32() != SCALE_BITS:
        raise ValueError(f"polynomial at a scale other than 2^{SCALE_BITS}")
    coeffs = tuple(int.from_bytes(r.raw(width), "little") for _ in range(r.u32()))
    if any(c >= order for c in coeffs):
        raise ValueError("polynomial coefficient outside the field")
    return QuantizedPoly(coeffs, order)


def pair_records(pairs, backend) -> list[bytes]:
    """Each pair's encoding: the peer id as u32, then the commitment.  The
    block rule compares pairs by these bytes."""
    return [u32(p.peer) + backend.g1_to_bytes(p.commitment) for p in pairs]


def record_peer(rec: bytes) -> int:
    """The peer id a pair encoding starts with."""
    return int.from_bytes(rec[:4], "little")


def signoff_message(iteration: int, verifier: int, records) -> bytes:
    """The bytes a verifier signs: round, verifier id, and its winners' pair
    encodings; a block writes the sign-off as these bytes after the round."""
    return b"signoff" + u32(iteration) + u32(verifier) + u32(len(records)) + b"".join(records)


def sign_off(backend, keypair, iteration: int, verifier: int, winners) -> SignOff:
    """``verifier``'s sign-off on the distinct (peer, commitment) pairs ``winners``."""
    records = tuple(sorted(pair_records(winners, backend)))
    message = signoff_message(iteration, verifier, records)
    return SignOff(verifier, records, signatures.sign(backend, keypair, message))


def block_content_bytes(block: Block, backend, entry_records=None) -> bytes:
    """Canonical serialization minus the proposer's signature (what it
    signs).  The entries are their pair encodings in ascending byte order;
    each sign-off is what its verifier signed (id, record count, records),
    then its signature.  ``entry_records`` holds the entries' pair
    encodings, if the caller has them."""
    if entry_records is None:
        entry_records = pair_records(block.commitments, backend)
    w = ByteWriter()
    w.raw(block.prev_hash)
    w.u32(block.iteration)
    write_poly(w, block.aggregate_poly, backend)
    w.f64_vector(block.model_weights)
    w.u32(len(entry_records)).raw(b"".join(sorted(entry_records)))
    w.u32(len(block.signoffs))
    for s in block.signoffs:
        w.u32(s.verifier).u32(len(s.winners)).raw(b"".join(s.winners)).bytes_lp(s.signature)
    return w.getvalue()


def block_to_bytes(block: Block, backend, content=None) -> bytes:
    """The content bytes, then the proposer's signature, length-prefixed.
    ``content`` is ``block_content_bytes(block, backend)``, if the caller
    has it."""
    if content is None:
        content = block_content_bytes(block, backend)
    return content + u32(len(block.signature)) + block.signature


def block_from_bytes(data: bytes, backend) -> Block:
    """Decode ``block_to_bytes`` output, and only that: the entries strictly
    ascend and are decoded; verifier ids strictly ascend.  A sign-off's
    records are cut at pair size and kept as read: the block rule only
    compares them with the entries' encodings."""
    r = ByteReader(data)
    prev_hash = r.raw(32)
    iteration = r.u32()
    poly = read_poly(r, backend)
    weights = np.array(r.f64_vector())
    size = 4 + backend.element_size
    entries, last_rec = [], b""
    for _ in range(r.u32()):
        rec = r.raw(size)
        if rec <= last_rec:
            raise ValueError("entries must strictly ascend")
        entries.append(CommitmentEntry(record_peer(rec), backend.g1_from_bytes(rec[4:])))
        last_rec = rec
    signoffs, last = [], -1
    for _ in range(r.u32()):
        vid = r.u32()
        if vid <= last:
            raise ValueError(f"verifier id {vid} after {last}: ids must strictly ascend")
        records = r.raw(r.u32() * size)
        winners = tuple(records[i : i + size] for i in range(0, len(records), size))
        signoffs.append(SignOff(vid, winners, r.bytes_lp()))
        last = vid
    signature = r.bytes_lp()
    r.done()
    return Block(prev_hash, iteration, poly, weights, tuple(entries), tuple(signoffs), signature)


def block_content_hash(block: Block, backend) -> bytes:
    return sha256(block_content_bytes(block, backend))


def block_hash(block: Block, backend) -> bytes:
    return sha256(block_to_bytes(block, backend))


def contributor_rejection(peers, state: TipState, iteration: int) -> str:
    """'' if each of ``peers`` may contribute to round ``iteration`` on the tip
    ``state``: a genesis peer, listed once and on neither committee; else the reason."""
    verifiers, aggregators = state.committees(iteration)
    seen = set()
    for peer in peers:
        if peer in seen:
            return "duplicate-contributor"
        if peer not in state.genesis.peer_pubkeys:
            return "unknown-contributor"
        if peer in verifiers or peer in aggregators:
            return "contributor-on-committee"
        seen.add(peer)
    return ""


def endorsement_rejection(entry_records, signoffs, state: TipState, iteration: int) -> str:
    """'' if ``signoffs`` endorse every entry of round ``iteration`` on the tip
    ``state``, given the entries' pair encodings, else the reason.  The
    sign-offs come from distinct verifiers of the round in ascending id order,
    each valid (``TipState.signoff_valid``, asked only of a member after the
    ones before it passed), and more than half the verifiers name each entry."""
    verifiers, last, named = state.committees(iteration)[0], -1, Counter()
    for s in signoffs:
        if s.verifier <= last or s.verifier not in verifiers or not state.signoff_valid(iteration, s):
            return "bad-verifier-signature"
        named.update(s.winners)
        last = s.verifier
    if any(named[rec] <= len(verifiers) // 2 for rec in entry_records):
        return "missing-verifier-majority"
    return ""


def round_committees(genesis: GenesisBlock, ring, prev_hash: bytes, iteration: int):
    """The (verifier, aggregator) committees every peer derives identically,
    from the stake ring ``build_ring(stake)``."""
    cfg = genesis.config
    v_seed = committee_seed(genesis.global_key, prev_hash, ROLE_VERIFY, iteration)
    a_seed = committee_seed(genesis.global_key, prev_hash, ROLE_AGGREGATE, iteration)
    verifiers = draw_committee(ring, v_seed, cfg.num_verifiers)
    aggregators = draw_committee(ring, a_seed, cfg.num_aggregators)
    return verifiers, aggregators


@dataclass(frozen=True, eq=False)
class TipState:
    """Everything a replica derives from its tip: the tip's hash, round and
    weights (read-only), the stake after it and that stake's ring, and in
    ``memo`` each verdict worked out on the tip, once (``once``).  A new tip
    is a new state.  A memo key is tagged by its kind and holds the values
    the verdict reads:
    - ``("committees", t)``: round t's (verifier, aggregator) committees;
    - ``("signoff", t, signoff)``: whether the sign-off is valid for round t,
      whose number its signed bytes hold;
    - ``("block", prev_hash, iteration, aggregate_poly, weights shape,
      weights as little-endian float64 bytes, commitments, signoffs,
      signature)``: the block rule's ``(next state, reason)``;
    - ``("submission", sub)``: the submission check's reason;
    - ``("bundle", t, entry, signoffs)``: whether a share bundle passes the
      block rule's entry and sign-off checks for round t.
    A hit is sound because every key field compares by value, never by
    identity, so a rewritten message misses; the decoders and the protocol
    build only ints, bytes, tuples, frozen value dataclasses and float64
    weights, and two such objects that compare equal encode to the same
    bytes, so a hit returns the verdict those bytes get.  The weights are
    read into the key at each call, so changing a block's array in place
    changes its key.  Replicas that start from one ``root`` share every
    state they reach, and a state stays alive while some replica holds it or
    one of its ancestors."""

    genesis: GenesisBlock
    tip_hash: bytes
    iteration: int
    weights: np.ndarray
    stake: dict
    memo: dict = field(default_factory=dict, repr=False)  # tagged key -> what ``once`` worked out

    @classmethod
    def root(cls, genesis: GenesisBlock) -> "TipState":
        """The state of ``genesis`` itself, before any block."""
        return cls(genesis, genesis.hash(), 0, _frozen(genesis.initial_model), dict(genesis.initial_stake))

    @cached_property
    def ring(self) -> StakeRing:
        return build_ring(self.stake)

    def once(self, key: tuple, work):
        """``work()`` the first time ``key`` is asked on this tip, then what it returned (never None)."""
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = work()
        return value

    def committees(self, iteration: int):
        """The (verifier, aggregator) committees of round ``iteration``."""
        return self.once(("committees", iteration),
                         lambda: round_committees(self.genesis, self.ring, self.tip_hash, iteration))

    def signoff_valid(self, iteration: int, s: SignOff) -> bool:
        """Whether ``s`` is a valid sign-off of round ``iteration``: its winners
        are pair encodings of the backend's size in strictly ascending order,
        and its signature over them (``signoff_message``) verifies under the
        verifier's genesis key.  The size check refuses the signed bytes cut
        into records at other boundaries, which a block, reading records back
        at pair size, could not hold."""
        backend, w = self.genesis.commit_pk.backend, s.winners
        return self.once(("signoff", iteration, s), lambda: (
            all(len(rec) == 4 + backend.element_size for rec in w)
            and all(a < b for a, b in zip(w, w[1:]))
            and signatures.verify(backend, self.genesis.peer_pubkeys[s.verifier],
                                  signoff_message(iteration, s.verifier, w), s.signature)
        ))


def advance(state: TipState, block: Block) -> tuple[TipState | None, str]:
    """The block rule: ``(next state, "")`` if ``block`` is valid as the next
    block on ``state``'s tip, else ``(None, reason)``, worked out once per
    block value on a state (``TipState.once``): the key is built first, and
    the gates, the encoding and the checks run only on a miss."""
    w = block.model_weights
    key = ("block", block.prev_hash, block.iteration, block.aggregate_poly, np.shape(w),
           np.asarray(w, "<f8").tobytes(), block.commitments, block.signoffs, block.signature)
    return state.once(key, lambda: _checked(state, block))


def _checked(state: TipState, block: Block):
    """``advance``'s verdict on a block: the gates, first, since the encoding
    raises on what they refuse, then the sign-offs, the proposer's
    signature, the commitment identity and the weights."""
    genesis = state.genesis
    backend = genesis.commit_pk.backend
    if block.prev_hash != state.tip_hash:
        return None, "bad-prev-hash"
    if not state.iteration < block.iteration <= genesis.config.total_iterations:
        return None, "bad-iteration"
    if len(block.commitments) == 0:
        return None, "empty-commitment-list"
    if not genesis.admits(block.aggregate_poly):
        return None, "bad-aggregate-encoding"
    if np.shape(block.model_weights) != genesis.initial_model.shape:
        return None, "bad-dimension"

    reason = contributor_rejection([e.peer for e in block.commitments], state, block.iteration)
    if reason:
        return None, reason
    # the entries' pair encodings, for the majority count and the content bytes both
    entry_records = pair_records(block.commitments, backend)
    content = block_content_bytes(block, backend, entry_records)
    reason = endorsement_rejection(entry_records, block.signoffs, state, block.iteration)
    if reason:
        return None, reason

    # only the proposer, aggregators[0], mints
    verifiers, aggregators = state.committees(block.iteration)
    if not signatures.verify(backend, genesis.peer_pubkeys[aggregators[0]], sha256(content), block.signature):
        return None, "bad-aggregator-signature"

    combined = combine(backend, [e.commitment for e in block.commitments])
    if commit(genesis.commit_pk, block.aggregate_poly) != combined:
        return None, "commitment-product-mismatch"

    expected = state.weights + decode(block.aggregate_poly)
    if not np.array_equal(expected, block.model_weights):
        return None, "model-arithmetic-mismatch"

    rewarded = [*(e.peer for e in block.commitments), *verifiers, *aggregators]
    stake = update_stake(state.stake, rewarded, genesis.config.stake_reward)
    tip_hash = sha256(block_to_bytes(block, backend, content))
    return TipState(genesis, tip_hash, block.iteration, _frozen(block.model_weights), stake), ""


def _frozen(weights) -> np.ndarray:
    """A state's own read-only float64 copy of ``weights``; the array stays its owner's."""
    out = np.array(weights, dtype=np.float64)
    out.flags.writeable = False
    return out


class Ledger:
    """One peer's replica: genesis, the block list and the state of its tip.
    It starts from ``root``, a ``TipState.root(genesis)`` it shares with
    other replicas, or from a fresh root of its own."""

    def __init__(self, genesis: GenesisBlock, root: TipState | None = None):
        self.genesis = genesis
        self.backend = genesis.commit_pk.backend
        self.blocks: list[Block] = []
        self.state = root or TipState.root(genesis)

    # -- inspection ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def stake(self) -> dict:
        return self.state.stake

    def tip_hash(self) -> bytes:
        return self.state.tip_hash

    def tip_iteration(self) -> int:
        return self.state.iteration

    def current_model(self) -> ModelParams:
        return ModelParams(self.state.weights.copy(), self.state.iteration)

    # -- validation and mutation ---------------------------------------------

    def validate_block(self, block: Block) -> tuple[TipState | None, str]:
        """``advance(self.state, block)``; the replica is left as it was."""
        return advance(self.state, block)

    def append(self, block: Block) -> tuple[bool, str]:
        state, reason = self.validate_block(block)
        if state is None:
            return False, reason
        self.blocks.append(block)
        self.state = state
        return True, ""

    def catch_up(self, remote_blocks) -> tuple[bool, str]:
        """Adopt a longer valid chain that extends ours; otherwise keep local.
        ``remote_blocks`` is the remote's full block list (genesis excluded).
        Only its blocks past our tip are checked, from our tip state, and
        adopted.  Returns ``(False, "")`` if the remote is not longer, else
        the block rule's reason for the first suffix block it refuses
        (``bad-prev-hash`` if the remote does not extend our tip)."""
        suffix = list(remote_blocks)[self.height :]
        if not suffix:
            return False, ""
        state = self.state
        for b in suffix:
            state, reason = advance(state, b)
            if state is None:
                return False, reason
        self.blocks = self.blocks + suffix
        self.state = state
        return True, ""


# --- chain persistence -------------------------------------------------------

CHAIN_MAGIC = b"CLCHAIN5"


def save_chain(path, ledger: Ledger) -> None:
    """Write the magic, then genesis and each block as a length-prefixed record."""
    w = ByteWriter().raw(CHAIN_MAGIC).bytes_lp(ledger.genesis.to_bytes())
    for block in ledger.blocks:
        w.bytes_lp(block_to_bytes(block, ledger.backend))
    with open(path, "wb") as fh:
        fh.write(w.getvalue())


def load_chain(path, backend) -> Ledger:
    """Load and revalidate a persisted chain; raises ValueError naming the
    path and the first bad record."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CHAIN_MAGIC)] != CHAIN_MAGIC:
        raise ValueError(f"{path}: not a chain file (bad magic)")
    r = ByteReader(data)
    r.raw(len(CHAIN_MAGIC))
    try:
        genesis = GenesisBlock.from_bytes(r.bytes_lp(), backend)
    except ValueError as exc:
        raise ValueError(f"{path}: genesis: {exc}") from None
    ledger = Ledger(genesis)
    index = 0
    while not r.at_end():
        try:
            block = block_from_bytes(r.bytes_lp(), backend)
        except ValueError as exc:
            raise ValueError(f"{path}: block {index}: {exc}") from None
        try:
            ok, reason = ledger.append(block)
        except ValueError as exc:
            raise ValueError(f"{path}: block {index} (iteration {block.iteration}): {exc}") from None
        if not ok:
            raise ValueError(f"{path}: block {index} (iteration {block.iteration}) invalid: {reason}")
        index += 1
    return ledger
