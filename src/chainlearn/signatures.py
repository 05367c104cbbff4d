"""Deterministic Schnorr signatures over a group backend's G1.

The nonce is derived from the secret key and message, so signing the same
message always yields the same signature; committee draws rely on that
uniqueness.  Over the exponent backend this is of course forgeable, which is
acceptable anywhere the debug backend is acceptable.
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
    return KeyPair(secret, backend.g1_mul(backend.g1, secret))


def _challenge(backend, R, public, message: bytes) -> int:
    h = sha256(backend.g1_to_bytes(R) + backend.g1_to_bytes(public) + message)
    return int.from_bytes(h, "big") % backend.order


def sign(backend, keypair: KeyPair, message: bytes) -> bytes:
    k = int.from_bytes(
        sha256(b"nonce" + keypair.secret.to_bytes(64, "big") + message), "big"
    ) % backend.order
    k = k or 1
    R = backend.g1_mul(backend.g1, k)
    c = _challenge(backend, R, keypair.public, message)
    s = (k + c * keypair.secret) % backend.order
    w = ByteWriter()
    w.bytes_lp(backend.g1_to_bytes(R))
    w.int_lp(s)
    return w.getvalue()


def verify(backend, public, message: bytes, signature: bytes) -> bool:
    try:
        r = ByteReader(signature)
        R = backend.g1_from_bytes(r.bytes_lp())
        s = r.int_lp()
        r.done()
    except ValueError:
        return False
    c = _challenge(backend, R, public, message)
    # s*g == R + c*PK, checked as one two-term multi-scalar multiplication
    return backend.msm([backend.g1, public], [s, -c]) == R
