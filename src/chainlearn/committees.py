"""Committee draws over the stake ring.

A draw rehashes its way around the ring until it has k distinct members.
There are two kinds, each with its own functions:

* a global draw (verifier, aggregator committees) walks from a public seed
  (global key, previous block hash, role tag, round), so nobody can
  precompute it past the chain tip and anyone re-derives it from the stake
  map: ``draw_committee``;
* a keyed draw (a peer's noiser set) walks from the peer's deterministic
  signature over its noiser seed, which is also the proof, so the set is
  unpredictable to others until revealed yet anybody can check it afterwards
  against the peer's public key: ``draw_noisers`` returns ``(noisers,
  proof)``, and ``verify_vrf`` walks a proof to its noisers.
"""

from __future__ import annotations

from . import signatures
from .encoding import sha256, u64
from .stake import StakeRing

ROLE_VERIFY = b"verify"
ROLE_AGGREGATE = b"aggregate"


def noiser_seed(public_key_bytes: bytes, prev_hash: bytes, iteration: int) -> bytes:
    return sha256(b"noiser" + public_key_bytes + prev_hash + u64(iteration))


def committee_seed(global_key_bytes: bytes, prev_hash: bytes, role_tag: bytes, iteration: int) -> bytes:
    return sha256(b"committee" + global_key_bytes + prev_hash + role_tag + u64(iteration))


def _walk(ring: StakeRing, start: bytes, k: int, exclude) -> tuple:
    chosen = []
    taken = set(exclude)
    h = start
    eligible = len(ring.staked.difference(exclude))
    if k > eligible:
        raise ValueError(f"cannot draw {k} distinct members from {eligible} eligible peers")
    while len(chosen) < k:
        h = sha256(h)
        owner = ring.owner(int.from_bytes(h, "big"))
        if owner not in taken:
            chosen.append(owner)
            taken.add(owner)
    return tuple(chosen)


def draw_committee(ring: StakeRing, seed: bytes, k: int, exclude=frozenset()) -> tuple:
    """The global draw: k distinct peers, none in ``exclude``, walked from
    the public ``seed``; to check one, draw it again."""
    return _walk(ring, sha256(seed), k, exclude)


def draw_noisers(
    backend, keypair: signatures.KeyPair, peer: int, ring: StakeRing, prev_hash: bytes, iteration: int, k: int
) -> tuple:
    """``peer``'s keyed draw of k noisers other than itself for round
    ``iteration`` on the tip ``prev_hash``, as ``(noisers, proof)``: it
    signs its noiser seed, the proof, and walks from the hash of that
    signature to the noisers, ordered distinct peer ids."""
    seed = noiser_seed(backend.g1_to_bytes(keypair.public), prev_hash, iteration)
    proof = signatures.sign(backend, keypair, seed)
    return _walk(ring, sha256(proof), k, {peer}), proof


def verify_vrf(
    proof: bytes, backend, public_key, peer: int, ring: StakeRing, prev_hash: bytes, iteration: int, k: int
) -> tuple:
    """The committee ``draw_noisers`` gives for these arguments if ``proof``
    is its proof, else ``()``: the proof must verify under ``public_key``,
    ``peer``'s key, plain or prepared (prepared is faster), and the ring must
    hold k members other than ``peer``; the committee is the walk from it."""
    seed = noiser_seed(backend.g1_to_bytes(public_key), prev_hash, iteration)
    if not signatures.verify(backend, public_key, seed, proof):
        return ()
    try:
        return _walk(ring, sha256(proof), k, {peer})
    except ValueError:
        return ()
