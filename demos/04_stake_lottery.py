#!/usr/bin/env python3
"""The stake ring and committee lotteries: intervals proportional to stake,
publicly re-derivable global draws, keyed (private-until-revealed) noiser
draws, and what happens to a tampered committee."""

import numpy as np

from chainlearn import build_ring, draw_committee, draw_noisers, verify_vrf
from chainlearn.committees import ROLE_VERIFY, committee_seed, noiser_seed
from chainlearn.encoding import sha256
from chainlearn.groups import get_backend
from chainlearn.signatures import keygen
from chainlearn.stake import KEYSPACE

stake = {pid: 10 for pid in range(20)}
stake[7] = 100  # one whale
ring = build_ring(stake)
i = ring.peers.index(7)  # peer 7's interval ends at ends[i], and starts where peer 6's ends
print("peer 7 owns %.1f%% of the ring (%.1f%% of stake)" % (
    100 * (ring.ends[i] - ring.ends[i - 1]) / KEYSPACE,
    100 * stake[7] / sum(stake.values())))

# sampling frequency tracks stake
rng = np.random.default_rng(0)
hits = sum(ring.owner(int(p) * (KEYSPACE // (1 << 63))) == 7
           for p in rng.integers(0, 1 << 63, size=20_000))
print("peer 7 hit in %.1f%% of 20k uniform points" % (100 * hits / 20_000))

# global draws: same tip, same committee, for everyone
prev = sha256(b"block at the tip")
seed = committee_seed(b"global-key", prev, ROLE_VERIFY, iteration=9)
committee = draw_committee(ring, seed, k=3)
print("verifier committee for this tip:", committee)
print("anyone can re-derive it:", draw_committee(build_ring(dict(stake)), seed, k=3) == committee)

outsider = next(p for p in ring.peers if p not in committee)
swapped = (committee[0], outsider, committee[2])
print("a swapped member re-derives:", draw_committee(ring, seed, k=3) == swapped)

# keyed draws: bound to the drawing peer's key, unpredictable until revealed
backend = get_backend("exponent")
kp = keygen(backend, b"peer-3-secret")
noisers, proof = draw_noisers(backend, kp, 3, ring, prev, 9, k=2)
print("peer 3's noiser set:", noisers, "(proof: %d bytes)" % len(proof))
# a verifier receives only the proof, and walks it to the committee
print("the proof under peer 3's key walks to:", verify_vrf(
    proof, backend, kp.public, 3, ring, prev, 9, k=2))
other = keygen(backend, b"someone-else")
print("the proof under another key walks to:", verify_vrf(
    proof, backend, other.public, 3, ring, prev, 9, k=2))

# the public walk from peer 3's noiser seed is not peer 3's keyed draw, and
# with no proof there is nothing to walk
nseed = noiser_seed(backend.g1_to_bytes(kp.public), prev, 9)
print("the public walk from peer 3's seed:", draw_committee(ring, nseed, k=2, exclude={3}))
print("no proof under peer 3's key walks to:", verify_vrf(
    b"", backend, kp.public, 3, ring, prev, 9, k=2))
