"""Stake accounting and the consistent-hashing ring used for role lotteries.

The 256-bit keyspace is split into one interval per peer, interval length
proportional to stake, peers laid out in id order.  A uniformly random point
therefore lands on a peer with probability stake_i / total, which is what
ties lottery influence to stake.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

KEYSPACE = 1 << 256


def validate_stake(stake: dict) -> None:
    if any(v < 0 for v in stake.values()):
        raise ValueError("stake units must be non-negative")
    if sum(stake.values()) <= 0:
        raise ValueError("total stake must be positive")


@dataclass(frozen=True)
class StakeRing:
    peers: tuple  # peer ids in layout order
    ends: tuple  # exclusive interval ends; ends[-1] == KEYSPACE

    @cached_property
    def staked(self) -> frozenset:
        """The peers with positive stake: those whose interval is not empty."""
        return frozenset(p for p, end, prev in zip(self.peers, self.ends, (0,) + self.ends) if end > prev)

    def owner(self, point: int) -> int:
        idx = bisect_right(self.ends, point % KEYSPACE)
        return self.peers[idx]


def build_ring(stake: dict) -> StakeRing:
    """Deterministic interval layout ordered by peer id."""
    validate_stake(stake)
    total = sum(stake.values())
    peers = sorted(stake)
    ends = []
    cum = 0
    for pid in peers:
        cum += stake[pid]
        ends.append(KEYSPACE * cum // total)
    return StakeRing(tuple(peers), tuple(ends))


def update_stake(stake: dict, rewarded_peers, amount: int) -> dict:
    """New stake map with ``amount`` added per rewarded peer (repeats allowed
    in the input are collapsed: one reward per peer per block)."""
    out = dict(stake)
    for pid in set(rewarded_peers):
        if pid not in out:
            raise KeyError(f"unknown peer {pid}")
        out[pid] += amount
    return out


def honest_stake_fraction(stake: dict, honest_peers) -> float:
    total = sum(stake.values())
    return sum(stake[p] for p in honest_peers if p in stake) / total if total else 0.0
