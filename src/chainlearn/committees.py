"""Verifiable committee draws over the stake ring.

Committee seeds derive from public data (previous block hash, role tag,
round), so nobody can precompute committees past the chain tip.  A draw
rehashes its way around the ring until it has k distinct members.  Two
verifiability modes:

* global draws (verifier, aggregator): seed fully public, proof empty;
  anyone re-derives the committee from the stake map.
* keyed draws (a peer's noiser set): the drawing peer's deterministic
  signature over the seed becomes both the hash chain's starting point and
  the proof, so the set is unpredictable to others until revealed yet
  anybody can verify it afterwards against the peer's public key.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import signatures
from .encoding import sha256, u64
from .stake import StakeRing

ROLE_VERIFY = b"verify"
ROLE_AGGREGATE = b"aggregate"


@dataclass(frozen=True)
class VrfOutput:
    committee: tuple  # ordered distinct peer ids
    proof: bytes  # empty for global draws


def noiser_seed(public_key_bytes: bytes, prev_hash: bytes, iteration: int) -> bytes:
    return sha256(b"noiser" + public_key_bytes + prev_hash + u64(iteration))


def committee_seed(global_key_bytes: bytes, prev_hash: bytes, role_tag: bytes, iteration: int) -> bytes:
    return sha256(b"committee" + global_key_bytes + prev_hash + role_tag + u64(iteration))


def _walk(ring: StakeRing, start: bytes, k: int, exclude) -> tuple:
    chosen = []
    taken = set(exclude)
    h = start
    eligible = {p for p, end, prev in zip(ring.peers, ring.ends, (0,) + ring.ends) if end > prev}
    if k > len(eligible - set(exclude)):
        raise ValueError(f"cannot draw {k} distinct members from {len(eligible - set(exclude))} eligible peers")
    while len(chosen) < k:
        h = sha256(h)
        owner = ring.owner(int.from_bytes(h, "big"))
        if owner not in taken:
            chosen.append(owner)
            taken.add(owner)
    return tuple(chosen)


def draw_committee(
    ring: StakeRing,
    seed: bytes,
    k: int,
    backend=None,
    signer: signatures.KeyPair | None = None,
    exclude=frozenset(),
) -> VrfOutput:
    """Draw k distinct peers.  With ``signer`` set, the draw is keyed: the
    hash chain starts from the signature rather than the bare seed."""
    if signer is not None:
        proof = signatures.sign(backend, signer, seed)
        start = sha256(proof)
    else:
        proof = b""
        start = sha256(seed)
    return VrfOutput(_walk(ring, start, k, exclude), proof)


def verify_vrf(
    output: VrfOutput,
    seed: bytes,
    ring: StakeRing,
    backend=None,
    public_key=None,
    exclude=frozenset(),
) -> bool:
    """Recompute the draw from the seed and stake ring and check the proof
    against ``public_key``, the drawing peer's key as
    ``backend.prepare_base`` prepared it."""
    if output.proof:
        if public_key is None or not signatures.verify(backend, public_key, seed, output.proof):
            return False
        start = sha256(output.proof)
    else:
        start = sha256(seed)
    try:
        expected = _walk(ring, start, len(output.committee), exclude)
    except ValueError:
        return False
    return expected == output.committee
