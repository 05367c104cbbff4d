"""Deterministic Schnorr signatures over a group backend's G1.

The nonce is derived from the secret key and message, so signing the same
message always yields the same signature; committee draws rely on that
uniqueness.  So a signature has one encoding, and ``verify`` accepts no
other: R as ``g1_to_bytes`` writes it, then s < order as a length-prefixed
big-endian integer without leading zero bytes (the one byte 0 for s = 0).
Over the exponent backend this is of course forgeable, which is acceptable
anywhere the debug backend is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import ByteReader, ByteWriter, sha256


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: object  # G1 element


def keygen(backend, seed: bytes) -> KeyPair:
    secret = int.from_bytes(sha256(b"key" + seed) + sha256(b"key2" + seed), "big") % backend.order
    secret = secret or 1
    return KeyPair(secret, backend.fixed_msm([backend.g1_base], [secret]))


def _challenge(backend, R, public, message: bytes) -> int:
    h = sha256(backend.g1_to_bytes(R) + backend.g1_to_bytes(public) + message)
    return int.from_bytes(h, "big") % backend.order


def sign(backend, keypair: KeyPair, message: bytes) -> bytes:
    k = int.from_bytes(
        sha256(b"nonce" + keypair.secret.to_bytes(64, "big") + message), "big"
    ) % backend.order
    k = k or 1
    R = backend.fixed_msm([backend.g1_base], [k])
    c = _challenge(backend, R, keypair.public, message)
    s = (k + c * keypair.secret) % backend.order
    w = ByteWriter()
    w.bytes_lp(backend.g1_to_bytes(R))
    w.int_lp(s)
    return w.getvalue()


def verify(backend, public, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is the signature of ``message`` under the key
    that ``public`` holds as ``backend.prepare_base`` prepared it."""
    try:
        r = ByteReader(signature)
        R = backend.g1_from_bytes(r.bytes_lp())
        s = r.int_lp()
        r.done()
    except ValueError:
        return False
    point = backend.base_point(public)
    if s >= backend.order or point == backend.g1_identity:
        return False  # under the identity key s*g == R holds for any R = s*g
    c = _challenge(backend, R, point, message)
    # s*g == R + c*PK, checked as one two-comb product
    return backend.fixed_msm([backend.g1_base, public], [s, -c]) == R
