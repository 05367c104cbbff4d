"""Deterministic discrete-event network hosting the peers.

Single event loop over a (time, seq) heap: message deliveries with seeded
uniform latency, per-peer stage timers, and optional churn that alternates
failing a random online peer with reviving a random offline one so the
population stays constant.  Peers are pre-registered at genesis; "joining"
means coming back online, with a fresh round-budget timer if a round is
left, and pulling the chain from a live peer.  A run ends once every online
peer has passed the last round with no block or chain on its way to one;
``SimResult.deadlocked`` says the time cap, ``total_iterations + 3`` round
budgets, cut it off first.  Everything (latency, churn choices, tie order)
derives from one seed, so a run is a pure function of its configuration.

The latency stream is shared: each delivery reads the next latency of one
RNG, drawn in blocks of one sized call each, so a handler that sends one
message more or fewer, or in another order, redraws every later latency;
that can change which grants a dealer holds when it deals, and so the
block, with no message byte changed.  Churn choices read a second RNG of
their own, so a run without churn draws none, and nothing is rewound.

The replicas share one root ``TipState``, so all replicas on one tip hold
one state and share its memo (``TipState.once``): a round's committees are
drawn, and each sign-off, block, submission and share bundle checked, once
per tip, not once per receiver; a repeat is one lookup by value.  That is
what the simulator pays, not what a peer would: a real peer runs every
check itself.  The simulation keeps no reference to
the root, so a state lives only while some replica holds it or an ancestor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .encoding import require
from .ledger import TipState, block_hash
from .protocol import BROADCAST, BlockMsg, ChainRequest, ChainResponse, PeerNode, StageTimeouts, Timer, UpdateSubmission


# one-way link delay, drawn uniformly per delivery, in simulated seconds
LATENCY = (0.010, 0.100)
_LATENCY_BLOCK = 512  # latencies drawn per sized call


@dataclass
class SimResult:
    block_records: list  # (mint time, Block) of each block a replica appended, chain order
    forks: int
    dropped_updates: dict  # round -> submissions that made no block
    final_ledger: object
    final_time: float
    deadlocked: bool  # the time cap cut the run off: see the module docstring


class Simulation:
    timeouts = StageTimeouts  # the stage deadlines every peer runs on

    def __init__(
        self,
        genesis,
        secrets,
        datasets,
        churn_per_minute: float = 0.0,
        seed: int = 0,
        fresh_shard=None,
    ):
        """``datasets`` maps peer id -> Dataset; ``churn_per_minute`` counts
        fail+join events per simulated minute; ``fresh_shard(peer,
        join_count)`` supplies a new local partition when a peer rejoins."""
        require("churn_per_minute", churn_per_minute, churn_per_minute >= 0, "be non-negative")
        require("churn_per_minute", churn_per_minute, np.isfinite(churn_per_minute), "be finite")
        self.genesis = genesis
        self.churn_per_minute = churn_per_minute
        self.fresh_shard = fresh_shard
        self.rng = np.random.default_rng(seed)  # latencies
        self.churn_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        self._block, self._read = [], 0  # see _latency
        root = TipState.root(genesis)
        self.peers = {
            pid: PeerNode(pid, genesis, secrets[pid], datasets[pid], root) for pid in sorted(secrets)
        }
        self.online = {pid: True for pid in self.peers}
        self.events = []
        self.seq = 0
        self.now = 0.0
        self.join_counts = {pid: 0 for pid in self.peers}
        # bookkeeping for metrics
        self.block_records = []
        self.mint_times = {}  # block hash -> time its proposer broadcast it
        self.appended = {}  # round -> hashes of its blocks some replica appended
        self.forks = 0
        self.submissions = {}

    # -- scheduling -------------------------------------------------------------

    def _push(self, time: float, target: int, payload) -> None:
        heapq.heappush(self.events, (time, self.seq, target, payload))
        self.seq += 1

    def _latency(self) -> float:
        """The next latency of the stream, read from a block drawn in one call."""
        if self._read == len(self._block):
            self._block, self._read = self.rng.uniform(*LATENCY, size=_LATENCY_BLOCK).tolist(), 0
        self._read += 1
        return self._block[self._read - 1]

    def _dispatch_actions(self, actions) -> None:
        push, events, now, seq = heapq.heappush, self.events, self.now, self.seq
        for dest, payload, delay in actions:
            if delay is not None:  # a timer
                push(events, (now + delay, seq, dest, payload))
                seq += 1
            else:
                for pid in self.peers if dest == BROADCAST else (dest,):
                    push(events, (now + self._latency(), seq, pid, payload))
                    seq += 1
        self.seq = seq

    # -- churn --------------------------------------------------------------------

    def _churn(self, kind: str) -> None:
        """Take a random online peer down ("fail"), or bring a random offline
        one back ("join") to pull the chain from a random live helper, each
        choice read from the churn stream; then the other kind falls due."""
        joining = kind == "join"
        candidates = sorted(p for p, up in self.online.items() if up != joining)
        if len(candidates) > (0 if joining else 1):  # the last online peer stays up
            peer = int(self.churn_rng.choice(candidates))
            self.online[peer] = joining
            if joining:
                self.join_counts[peer] += 1
                t = self.peers[peer].round.iteration
                if t <= self.genesis.config.total_iterations:  # the ones due offline were lost
                    self._push(self.now + self.timeouts.round_budget, peer, Timer(t, "round-budget"))
                if self.fresh_shard is not None:
                    self.peers[peer].dataset = self.fresh_shard(peer, self.join_counts[peer])
                live = sorted(p for p, up in self.online.items() if up and p != peer)
                if live:
                    helper = int(self.churn_rng.choice(live))
                    self._push(self.now + self._latency(), helper, ChainRequest(peer))
        self._push(self.now + 60.0 / self.churn_per_minute, -1, "fail" if joining else "join")

    # -- bookkeeping ----------------------------------------------------------------

    def _note_outbound(self, actions) -> None:
        for _, payload, _ in actions:
            if isinstance(payload, UpdateSubmission):
                self.submissions.setdefault(payload.iteration, set()).add(payload.sender)
                break  # one submission counts once however many verifiers get it
            if isinstance(payload, BlockMsg):
                h = block_hash(payload.block, self.genesis.commit_pk.backend)
                self.mint_times.setdefault(h, self.now)

    def _note_append(self, block, h: bytes) -> None:
        """A replica appended ``block`` (hash ``h``) from a BlockMsg.  Only
        appended blocks are recorded, at their mint time; each further block
        appended for the same round is a fork."""
        hashes = self.appended.setdefault(block.iteration, set())
        if h in hashes:
            return
        if hashes:
            self.forks += 1
        else:
            self.block_records.append((self.mint_times[h], block))
        hashes.add(h)

    # -- main loop --------------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.genesis.config
        budget = self.timeouts.round_budget
        time_cap = (cfg.total_iterations + 3) * budget
        for pid in sorted(self.peers):
            self._dispatch_actions(self.peers[pid].start_round(1, 0.0))
        if self.churn_per_minute > 0:
            self._push(60.0 / self.churn_per_minute, -1, "fail")

        while self.events:
            time, _, target, payload = heapq.heappop(self.events)
            self.now = time
            if time > time_cap:
                break
            if target == -1:
                self._churn(payload)
                continue
            if not self.online[target]:
                continue  # messages and timers to offline peers are lost
            peer = self.peers[target]
            height = peer.ledger.height if type(payload) is BlockMsg else None
            actions = peer.handle(payload, time)
            if height is not None and peer.ledger.height > height:
                self._note_append(payload.block, peer.ledger.tip_hash())
            if actions:
                self._note_outbound(actions)
                self._dispatch_actions(actions)
            # only a peer that has just passed the last round can end the run
            if peer.round.iteration > cfg.total_iterations and self._all_done():
                break

        observer = max(
            (p for p in self.peers if self.online[p]),
            key=lambda p: (self.peers[p].ledger.height, -p),
            default=min(self.peers),
        )
        dropped = {
            t: len(senders) for t, senders in self.submissions.items()
        }
        for _, block in self.block_records:
            if block.iteration in dropped:
                dropped[block.iteration] -= len(block.commitments)
        return SimResult(
            block_records=self.block_records,
            forks=self.forks,
            dropped_updates=dropped,
            final_ledger=self.peers[observer].ledger,
            final_time=self.now,
            deadlocked=not self._all_done(),
        )

    def _all_done(self) -> bool:
        """Every online peer has passed the last round, and no block or chain
        is on its way to one: a peer that voided the last round can still
        take a block minted late, or a chain it asked for."""
        limit = self.genesis.config.total_iterations
        return all(
            self.peers[p].round.iteration > limit for p in self.peers if self.online[p]
        ) and not any(type(e[3]) in (BlockMsg, ChainResponse, ChainRequest) for e in self.events)
