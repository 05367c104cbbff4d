"""Per-peer state machine for one training round.

Round shape (all peers derive the same committees from the chain tip):

  updaters        compute a local update, fetch noise from their VRF-drawn
                  noisers (each serves the vector genesis drew into its
                  row), check the noise's sum once against their genesis
                  entries, submit the masked update with its commitment and
                  the noiser VRF proof to every verifier, then wait for
                  signatures;
  verifiers       pool masked submissions until their window closes, check
                  each against the drawn noisers' genesis noise-table
                  entries and the masking equality, run Multi-KRUM on the
                  decoded masked updates and sign one sign-off naming every
                  winner's (peer, commitment) pair, sent to each winner;
  updaters        with sign-offs from a majority of verifiers deal their
                  update into witness-carrying shares, one slice per
                  aggregator, each carrying those sign-offs;
  aggregators     pool bundles (each distinct sign-off checked once), check
                  the whole pool as one batch when needed and sum them
                  point-wise; the round's proposer carries one sign-off per
                  verifier, announces a contributor set that a majority of
                  them name, collects the summed values at their senders'
                  points until it holds d+1 points, interpolates the
                  aggregate, checks it against the entries' commitment
                  product, mints the block and broadcasts it.

Every stage runs against a deadline; a round that produces no block is
voided and the peer moves on.  All transitions are deterministic given the
message sequence, which the simulator makes reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import signatures
from .commitments import combine, commit, scalars, slots
from .committees import draw_noisers, verify_vrf
from .encoding import ByteWriter, seed_words, sha256, u64
from .krum import MIN_SAMPLE, KrumConfig, krum_sample_size, max_tolerable_f, multi_krum_select, updates_per_block
from .ledger import (
    Block,
    CommitmentEntry,
    Ledger,
    SignOff,
    block_content_hash,
    endorsement_rejection,
    pair_records,
    sign_off,
    write_poly,
)
from .models import ModelParams, make_model
from .quantize import decode, encode, sum_polys
from .sgd import compute_local_update
from .vss import (
    ShareRecoveryError,
    accept_bundle,
    deal_shares,
    failing_dealers,
    recover_aggregate,
    sum_shares,
)

BROADCAST = -1

# Why a peer turns an input down or gives up its part of a round, recorded
# as (round, peer, reason) in ``PeerNode.audit``.  A block the ledger refuses,
# alone or in a longer chain, keeps its ``ledger.REJECTION_REASONS`` entry;
# the two sets share no name.
REFUSAL_REASONS = frozenset(
    {
        # the peer's own stage fails, so its part of the round is void
        "no-local-data", "local-update-failed", "no-quorum",
        "no-accepted-bundles", "missing-bundles", "recovery-failed",
        # honest lateness: the message's round has passed or its stage closed
        "late-submission", "late-bundle", "late-aggregate-share",
        # off schedule: the wrong round or role, or a repeat
        "unknown-message", "stray-noise-request", "stray-noise-response", "stray-submission",
        "duplicate-submission", "stray-grant", "stray-bundle", "duplicate-bundle",
        "stray-announce", "stray-aggregate-share", "duplicate-aggregate-share",
        # the input breaks a rule
        "noise-not-genesis", "committee-submitter", "unknown-sender", "inadmissible-update",
        "bad-submission-signature", "bad-noiser-draw", "masking-mismatch", "bad-grant",
        "bundle-refused", "malformed-announce", "bad-aggregate-share-signature", "malformed-aggregate-share",
        # chain sync: a block past the tip
        "ahead-of-tip",
    }
)


class StageTimeouts:
    """Stage deadlines in simulated seconds from round start: noise 2 +
    verify 3, then signatures 2 + aggregation 3, then block 2."""

    verify_deadline = 5.0
    aggregation_deadline = 10.0
    round_budget = 12.0


# --- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class NoiseRequest:
    iteration: int
    sender: int


@dataclass(frozen=True)
class NoiseResponse:
    iteration: int
    sender: int
    quantized: object  # QuantizedPoly


@dataclass(frozen=True)
class UpdateSubmission:
    iteration: int
    sender: int
    masked: object  # QuantizedPoly
    commitment: object  # G1 element
    noiser_proof: bytes  # the sender's keyed draw; verifiers walk it to the noisers
    signature: bytes = b""

    def payload_bytes(self, backend) -> bytes:
        w = ByteWriter()
        w.u32(self.iteration)
        w.u32(self.sender)
        write_poly(w, self.masked, backend)
        w.raw(backend.g1_to_bytes(self.commitment))
        w.bytes_lp(self.noiser_proof)
        return b"submission" + w.getvalue()


@dataclass(frozen=True)
class SignatureGrant:
    iteration: int
    signoff: SignOff  # names the verifier


@dataclass(frozen=True)
class BundleMsg:
    iteration: int
    bundle: object  # ShareBundle; its entry names the dealer


@dataclass(frozen=True)
class AggAnnounce:
    iteration: int
    sender: int  # proposer
    contributors: tuple


@dataclass(frozen=True)
class AggShareMsg:
    iteration: int
    sender: int  # aggregator
    values: tuple  # the summed polynomial at the sender's points, in slot order
    signature: bytes = b""

    def payload_bytes(self, backend, contributors) -> bytes:
        """The signed bytes; they cover the announced ``contributors`` that
        the values sum, which the proposer holds and so is not sent; the
        values are written as ``commitments.scalars`` writes them."""
        w = ByteWriter()
        w.u32(self.iteration)
        w.u32(self.sender)
        w.u32(len(contributors))
        for c in contributors:
            w.u32(c)
        w.u32(len(self.values)).raw(scalars(backend, self.values))
        return b"aggshare" + w.getvalue()


@dataclass(frozen=True)
class BlockMsg:
    sender: int
    block: Block


@dataclass(frozen=True)
class ChainRequest:
    sender: int


@dataclass(frozen=True)
class ChainResponse:
    sender: int
    blocks: tuple


@dataclass(frozen=True)
class Timer:
    """Scheduled wake-up; ``tag`` identifies the stage deadline."""

    iteration: int
    tag: str


# --- standalone checks --------------------------------------------------------


def submission_rejection(sub: UpdateSubmission, state) -> str:
    """'' if a verifier on the tip ``state`` may pool ``sub``, else the rule
    it breaks, worked out once per submission value on a tip
    (``TipState.once``): its gates and checks run only on a miss."""
    return state.once(("submission", sub), lambda: _submission_verdict(sub, state))


def _submission_verdict(sub: UpdateSubmission, state) -> str:
    """``submission_rejection``'s verdict: the sender and encoding gates,
    the signature, the noiser draw and the masking equality."""
    genesis = state.genesis
    backend = genesis.commit_pk.backend
    if sub.sender not in genesis.peer_pubkeys:
        return "unknown-sender"
    if not genesis.admits(sub.masked):
        return "inadmissible-update"
    key = genesis.peer_pubkeys[sub.sender]
    if not signatures.verify(backend, key, sub.payload_bytes(backend), sub.signature):
        return "bad-submission-signature"
    # the noisers are the walk from the sender's own proof, for this tip and round
    noisers = verify_vrf(
        sub.noiser_proof, backend, key, sub.sender, state.ring, state.tip_hash, sub.iteration,
        genesis.config.num_noisers,
    )
    if not noisers:
        return "bad-noiser-draw"
    noise = [genesis.noise_table[nid][sub.iteration - 1] for nid in noisers]
    # masking equality: commit(masked) == commit(update) * prod commit(noise)
    product = combine(backend, [sub.commitment, *noise])
    return "" if commit(genesis.commit_pk, sub.masked) == product else "masking-mismatch"


def tip_sample(ids, k: int, tag: bytes, prev_hash: bytes, iteration: int) -> tuple:
    """``k`` of ``ids`` (all of them if there are no more), sorted, drawn by
    a generator seeded with ``tag``, the tip hash and the round, so every
    peer on that tip draws the same ones."""
    ordered = sorted(ids)
    if len(ordered) <= k:
        return tuple(ordered)
    seed = int.from_bytes(sha256(tag + prev_hash + u64(iteration)), "big")
    picked = np.random.default_rng(seed_words(seed)).permutation(len(ordered))[:k]
    return tuple(sorted(ordered[i] for i in picked))


# --- the peer -----------------------------------------------------------------


@dataclass
class RoundState:
    iteration: int = 0
    verifiers: tuple = ()
    aggregators: tuple = ()
    noisers: tuple = ()  # drawn in order; () once the update is void
    noiser_proof: bytes = b""
    update_q: object = None
    commitment: object = None  # G1 element
    noise_responses: dict = field(default_factory=dict)
    submitted: bool = False
    grants: dict = field(default_factory=dict)  # verifier -> SignOff
    dealt: bool = False
    # verifier side
    pool: dict = field(default_factory=dict)
    signed_off: bool = False
    # aggregator side
    slots: dict = field(default_factory=dict)  # aggregator -> its share points
    pooled_bundles: dict = field(default_factory=dict)  # gated, openings not yet checked
    accepted_bundles: dict = field(default_factory=dict)  # openings checked
    signoffs: tuple = ()  # the proposer's, one per verifier, for the block
    announce: tuple | None = None
    announced: bool = False
    agg_shares: dict = field(default_factory=dict)
    minted: bool = False


class PeerNode:
    """One peer: ledger replica, local data, per-round protocol state."""

    def __init__(self, peer_id: int, genesis, secrets, dataset, root=None):
        """``root``, if given, is the ``TipState.root(genesis)`` the peer's
        ledger starts from and shares with other replicas."""
        self.id = peer_id
        self.genesis = genesis
        self.backend = genesis.commit_pk.backend
        self.secrets = secrets
        self.dataset = dataset
        self.ledger = Ledger(genesis, root)
        cfg = genesis.config
        self.model = make_model(cfg.model_family, cfg.n_features, cfg.n_classes)
        self.round = RoundState()
        self.audit: list[tuple] = []  # (round, peer, reason), one per refusal

    # -- helpers ---------------------------------------------------------------

    @property
    def config(self):
        return self.genesis.config

    def r_target(self) -> int:
        return krum_sample_size(self.config.collect_fraction, len(self.genesis.peer_pubkeys))

    def is_verifier(self) -> bool:
        return self.id in self.round.verifiers

    def is_aggregator(self) -> bool:
        return self.id in self.round.aggregators

    def is_proposer(self) -> bool:
        return self.round.aggregators and self.round.aggregators[0] == self.id

    def _refuse(self, reason: str, peer) -> list:
        """Record that ``peer``'s input, or this peer's own stage, is refused for ``reason``."""
        self.audit.append((self.round.iteration, peer, reason))
        return []

    def _missed(self, iteration: int, closed: bool) -> bool:
        """Round ``iteration`` has passed, or is this one and its stage ``closed``."""
        return iteration < self.round.iteration or (iteration == self.round.iteration and closed)

    # -- round control ----------------------------------------------------------

    def start_round(self, iteration: int, now: float) -> list:
        """Begin round ``iteration``; returns (dest, message-or-timer) pairs."""
        if iteration > self.config.total_iterations:
            self.round = RoundState(iteration=iteration)  # marks this peer finished
            return []
        prev_hash = self.ledger.tip_hash()
        verifiers, aggregators = self.ledger.state.committees(iteration)
        self.round = RoundState(
            iteration=iteration,
            verifiers=verifiers,
            aggregators=aggregators,
            slots=slots(len(self.genesis.initial_model), aggregators),
        )
        out = [(self.id, Timer(iteration, "round-budget"), StageTimeouts.round_budget)]
        if self.is_verifier():
            out.append((self.id, Timer(iteration, "verify-deadline"), StageTimeouts.verify_deadline))
        if self.is_aggregator():
            out.append(
                (self.id, Timer(iteration, "aggregation-deadline"), StageTimeouts.aggregation_deadline)
            )
        if not self.is_verifier() and not self.is_aggregator():
            out.extend(self._begin_update(prev_hash))
        return out

    def _begin_update(self, prev_hash: bytes) -> list:
        cfg = self.config
        t = self.round.iteration
        if len(self.dataset) == 0:
            return self._refuse("no-local-data", self.id)
        state = self.ledger.state
        params = ModelParams(state.weights, state.iteration)  # the step only reads them
        seed = int.from_bytes(sha256(b"batch" + self.secrets.noise_seed + u64(t)), "big")
        try:
            delta = compute_local_update(self.model, params, self.dataset, cfg.train, seed)
        except ValueError:
            return self._refuse("local-update-failed", self.id)
        blinding = int.from_bytes(sha256(b"blind" + self.secrets.noise_seed + u64(t)), "big")
        self.round.update_q = encode(delta, blinding % self.backend.order, self.backend.order)
        self.round.commitment = commit(self.genesis.commit_pk, self.round.update_q)
        self.round.noisers, self.round.noiser_proof = draw_noisers(
            self.backend, self.secrets.keypair, self.id, state.ring, prev_hash, t, cfg.num_noisers
        )
        return [(nid, NoiseRequest(t, self.id), None) for nid in self.round.noisers]

    # -- event dispatch ----------------------------------------------------------

    def handle(self, event, now: float) -> list:
        """Process one message or timer; returns (dest, message, extra) actions.

        For sends the third slot is None; timer requests carry the delay.
        """
        handler = getattr(self, "_on_" + type(event).__name__, None)
        if handler is None:
            return self._refuse("unknown-message", None)
        return handler(event, now)

    def _on_Timer(self, timer: Timer, now: float) -> list:
        if timer.iteration != self.round.iteration:
            return []  # stale timer from a voided round
        if timer.tag == "round-budget":
            # no block arrived: void the round, keep the model, move on
            return self.start_round(self.round.iteration + 1, now)
        if timer.tag == "verify-deadline":
            return self._close_verification(now)
        return self._close_aggregation(now)

    # -- noiser duty (any online peer) -------------------------------------------

    def _on_NoiseRequest(self, msg: NoiseRequest, now: float) -> list:
        if not 1 <= msg.iteration <= self.config.total_iterations:
            return self._refuse("stray-noise-request", msg.sender)
        # genesis drew it once, into this peer's row
        return [(msg.sender, NoiseResponse(msg.iteration, self.id, self.secrets.noise(msg.iteration)), None)]

    def _on_NoiseResponse(self, msg: NoiseResponse, now: float) -> list:
        rs = self.round
        if msg.iteration != rs.iteration or rs.submitted or msg.sender not in rs.noisers:
            return self._refuse("stray-noise-response", msg.sender)
        genesis = self.genesis
        if not genesis.admits(msg.quantized):
            rs.noisers = ()  # this round's update is void
            return self._refuse("noise-not-genesis", msg.sender)
        rs.noise_responses[msg.sender] = msg.quantized
        if len(rs.noise_responses) < len(rs.noisers):
            return []
        # all noise in hand: the sum must commit to the sum of the noisers'
        # genesis entries, the one check the masking equality needs
        noises = [rs.noise_responses[nid] for nid in rs.noisers]
        noise = sum_polys(noises)
        entries = [genesis.noise_table[nid][rs.iteration - 1] for nid in rs.noisers]
        if commit(genesis.commit_pk, noise) != combine(self.backend, entries):
            for nid, poly, entry in zip(rs.noisers, noises, entries):  # name the noisers at fault
                if commit(genesis.commit_pk, poly) != entry:
                    self._refuse("noise-not-genesis", nid)
            rs.noisers = ()  # this round's update is void
            return []
        masked = rs.update_q.add(noise)
        fields = (rs.iteration, self.id, masked, rs.commitment, rs.noiser_proof)
        payload = UpdateSubmission(*fields).payload_bytes(self.backend)
        sub = UpdateSubmission(*fields, signatures.sign(self.backend, self.secrets.keypair, payload))
        rs.submitted = True
        return [(vid, sub, None) for vid in rs.verifiers]

    # -- verifier duty -------------------------------------------------------------

    def _on_UpdateSubmission(self, msg: UpdateSubmission, now: float) -> list:
        rs = self.round
        if self._missed(msg.iteration, rs.signed_off):
            return self._refuse("late-submission", msg.sender)
        if not self.is_verifier() or msg.iteration != rs.iteration:
            return self._refuse("stray-submission", msg.sender)
        if msg.sender in rs.pool:
            return self._refuse("duplicate-submission", msg.sender)
        if msg.sender in rs.verifiers or msg.sender in rs.aggregators:
            return self._refuse("committee-submitter", msg.sender)
        reason = submission_rejection(msg, self.ledger.state)
        if reason:
            return self._refuse(reason, msg.sender)
        rs.pool[msg.sender] = msg
        return []

    def _close_verification(self, now: float) -> list:
        rs = self.round
        rs.signed_off = True
        if len(rs.pool) < MIN_SAMPLE:  # too few pooled submissions to score
            return self._refuse("no-quorum", self.id)
        chosen = tip_sample(rs.pool, self.r_target(), b"krum-sample", self.ledger.tip_hash(), rs.iteration)
        updates = np.stack([decode(rs.pool[pid].masked) for pid in chosen])
        cfg = KrumConfig(len(chosen), max_tolerable_f(len(chosen)))
        winners = [chosen[i] for i in multi_krum_select(updates, cfg)]
        pairs = [CommitmentEntry(pid, rs.pool[pid].commitment) for pid in winners]
        signoff = sign_off(self.backend, self.secrets.keypair, rs.iteration, self.id, pairs)
        return [(pid, SignatureGrant(rs.iteration, signoff), None) for pid in winners]

    # -- dealing -------------------------------------------------------------------

    def _on_SignatureGrant(self, msg: SignatureGrant, now: float) -> list:
        rs = self.round
        signoff = msg.signoff
        if rs.dealt and msg.iteration == rs.iteration:
            return []  # late grant after a majority was already reached
        if not rs.submitted or msg.iteration != rs.iteration or signoff.verifier not in rs.verifiers:
            return self._refuse("stray-grant", signoff.verifier)
        entry = CommitmentEntry(self.id, rs.commitment)
        mine = pair_records([entry], self.backend)[0]
        if mine not in signoff.winners or not self.ledger.state.signoff_valid(rs.iteration, signoff):
            return self._refuse("bad-grant", signoff.verifier)
        rs.grants[signoff.verifier] = signoff
        if len(rs.grants) <= len(rs.verifiers) // 2:
            return []
        rs.dealt = True
        signoffs = tuple(rs.grants[vid] for vid in sorted(rs.grants))
        bundles = deal_shares(rs.update_q, self.genesis.commit_pk, rs.slots, entry, signoffs)
        return [(aid, BundleMsg(rs.iteration, b), None) for aid, b in bundles.items()]

    # -- aggregator duty --------------------------------------------------------------

    def _on_BundleMsg(self, msg: BundleMsg, now: float) -> list:
        rs = self.round
        bundle = msg.bundle
        dealer = bundle.entry.peer
        if self._missed(msg.iteration, rs.announced):
            return self._refuse("late-bundle", dealer)
        if not self.is_aggregator() or msg.iteration != rs.iteration:
            return self._refuse("stray-bundle", dealer)
        if dealer in rs.pooled_bundles:  # a bundle has no sender: settle the pooled copy before this one
            self._check_pooled([dealer])
        if dealer in rs.accepted_bundles:
            return self._refuse("duplicate-bundle", dealer)
        if not accept_bundle(bundle, self.ledger.state, rs.iteration):
            return self._refuse("bundle-refused", dealer)
        rs.pooled_bundles[dealer] = bundle
        return []

    def _check_pooled(self, dealers) -> None:
        """Check the pooled bundles of ``dealers`` as one batch; accept them, refusing each failing one."""
        rs = self.round
        bundles = {pid: rs.pooled_bundles.pop(pid) for pid in list(rs.pooled_bundles) if pid in dealers}
        for dealer in failing_dealers(list(bundles.values()), self.genesis.commit_pk, rs.slots[self.id]):
            del bundles[dealer]
            self._refuse("bundle-refused", dealer)
        rs.accepted_bundles.update(bundles)

    def _close_aggregation(self, now: float) -> list:
        rs = self.round
        if not self.is_proposer() or rs.announced:
            return []
        rs.announced = True
        self._check_pooled(list(rs.pooled_bundles))
        # the block carries one sign-off per verifier: of those the accepted
        # bundles hold, the one naming the most of their pairs; only pairs a
        # majority of the carried sign-offs name may be announced, so a
        # verifier that signs two lists cannot make this block invalid
        held = {pid: pair_records([b.entry], self.backend)[0] for pid, b in rs.accepted_bundles.items()}
        pairs, offered = set(held.values()), {}
        for b in rs.accepted_bundles.values():
            for s in b.signoffs:
                offered.setdefault(s.verifier, {})[s.signature] = s  # distinct, in arrival order
        rs.signoffs = tuple(
            max(offered[vid].values(), key=lambda s: len(pairs.intersection(s.winners)))
            for vid in sorted(offered)
        )
        state = self.ledger.state
        eligible = [
            pid for pid, rec in held.items() if not endorsement_rejection([rec], rs.signoffs, state, rs.iteration)
        ]
        if not eligible:
            return self._refuse("no-accepted-bundles", self.id)
        u = updates_per_block(self.r_target())
        rs.announce = tip_sample(eligible, u, b"pick", self.ledger.tip_hash(), rs.iteration)
        announce = AggAnnounce(rs.iteration, self.id, rs.announce)
        return [(aid, announce, None) for aid in rs.aggregators]

    def _on_AggAnnounce(self, msg: AggAnnounce, now: float) -> list:
        rs = self.round
        if not self.is_aggregator() or msg.iteration != rs.iteration or msg.sender != rs.aggregators[0]:
            return self._refuse("stray-announce", msg.sender)
        c = msg.contributors
        if not c or any(a >= b for a, b in zip(c, c[1:])):
            return self._refuse("malformed-announce", msg.sender)
        self._check_pooled(list(rs.pooled_bundles))
        if any(pid not in rs.accepted_bundles for pid in c):
            return self._refuse("missing-bundles", self.id)
        bundles = [rs.accepted_bundles[pid] for pid in c]
        reply = AggShareMsg(rs.iteration, self.id, sum_shares(bundles, self.backend))
        payload = reply.payload_bytes(self.backend, msg.contributors)
        sig = signatures.sign(self.backend, self.secrets.keypair, payload)
        reply = replace(reply, signature=sig)
        return [(aid, reply, None) for aid in rs.aggregators]

    def _on_AggShareMsg(self, msg: AggShareMsg, now: float) -> list:
        rs = self.round
        if not self.is_proposer():
            return []  # sums are broadcast committee-wide; only the proposer mints
        if self._missed(msg.iteration, rs.minted):
            return self._refuse("late-aggregate-share", msg.sender)
        if msg.iteration != rs.iteration or rs.announce is None or msg.sender not in rs.aggregators:
            return self._refuse("stray-aggregate-share", msg.sender)
        if msg.sender in rs.agg_shares:
            return self._refuse("duplicate-aggregate-share", msg.sender)
        key, payload = self.genesis.peer_pubkeys[msg.sender], msg.payload_bytes(self.backend, rs.announce)
        if not signatures.verify(self.backend, key, payload, msg.signature):
            return self._refuse("bad-aggregate-share-signature", msg.sender)
        points = rs.slots[msg.sender]
        if len(msg.values) != len(points):
            return self._refuse("malformed-aggregate-share", msg.sender)
        rs.agg_shares[msg.sender] = tuple(zip(points, msg.values))
        # mint once the shares hold d+1 points, so only a wrong value can fail it
        if sum(map(len, rs.agg_shares.values())) <= self.genesis.commit_pk.degree:
            return []
        return self._mint_block(now)

    def _mint_block(self, now: float) -> list:
        rs = self.round
        backend = self.backend
        pk = self.genesis.commit_pk
        # the announce is sorted, so the entries are in block order
        entries = tuple(rs.accepted_bundles[pid].entry for pid in rs.announce)
        combined = combine(backend, [e.commitment for e in entries])
        all_shares = [s for shares in rs.agg_shares.values() for s in shares]
        rs.minted = True  # one attempt: a share after a failed one is late
        try:
            aggregate = recover_aggregate(all_shares, pk, combined)
        except ShareRecoveryError:
            return self._refuse("recovery-failed", self.id)
        prev = self.ledger.current_model()
        weights = prev.weights + decode(aggregate)
        block = Block(
            prev_hash=self.ledger.tip_hash(),
            iteration=rs.iteration,
            aggregate_poly=aggregate,
            model_weights=weights,
            commitments=entries,
            signoffs=rs.signoffs,
            signature=b"",
        )
        content = block_content_hash(block, backend)
        block = replace(block, signature=signatures.sign(backend, self.secrets.keypair, content))
        return [(BROADCAST, BlockMsg(self.id, block), None)]

    # -- block arrival ------------------------------------------------------------------

    def _on_BlockMsg(self, msg: BlockMsg, now: float) -> list:
        ok, reason = self.ledger.append(msg.block)
        if ok:
            return self.start_round(msg.block.iteration + 1, now)
        if reason == "bad-prev-hash" and msg.block.iteration > self.ledger.tip_iteration():
            # this chain is ahead of ours: pull it and resync
            self._refuse("ahead-of-tip", msg.sender)
            return [(msg.sender, ChainRequest(self.id), None)]
        return self._refuse(reason, msg.sender)

    # -- catch-up -----------------------------------------------------------------------

    def _on_ChainRequest(self, msg: ChainRequest, now: float) -> list:
        return [(msg.sender, ChainResponse(self.id, tuple(self.ledger.blocks)), None)]

    def _on_ChainResponse(self, msg: ChainResponse, now: float) -> list:
        adopted, reason = self.ledger.catch_up(msg.blocks)
        if adopted:  # resync round tracking to the adopted tip
            return self.start_round(self.ledger.tip_iteration() + 1, now)
        return self._refuse(reason, msg.sender) if reason else []
