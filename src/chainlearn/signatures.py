"""Deterministic Schnorr signatures over a group backend's G1.

The nonce is derived from the secret key and message, so signing the same
message always yields the same signature; committee draws rely on that
uniqueness.  A signature is Schnorr's original pair (J. Cryptology 1991),
the challenge c = H(R, PK, m) and s = k + c*sk, written ``c || s``: each
half a big-endian scalar of the order's byte width, so 64 bytes on the
curve and 16 on the exponent group.  So a signature has one encoding, and
``verify`` accepts no other: exactly that length, c < order and s < order.
The verifier recomputes R = s*g - c*PK as one ``msm`` and compares its
challenge with c, so it decodes no curve point.  ``keygen`` returns the
public key prepared (``backend.prepare_base``), so its comb is built at its
first check; ``verify`` gives the same verdict under the plain key, only
more slowly.  Over the exponent backend this is of course
forgeable, which is acceptable anywhere the debug backend is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import sha256


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: object  # G1 element, prepared


def keygen(backend, seed: bytes) -> KeyPair:
    secret = int.from_bytes(sha256(b"key" + seed) + sha256(b"key2" + seed), "big") % backend.order
    secret = secret or 1
    return KeyPair(secret, backend.prepare_base(backend.msm([backend.g1_base], [secret])))


def _challenge(backend, R, public, message: bytes) -> int:
    h = sha256(backend.g1_to_bytes(R) + backend.g1_to_bytes(public) + message)
    return int.from_bytes(h, "big") % backend.order


def sign(backend, keypair: KeyPair, message: bytes) -> bytes:
    k = int.from_bytes(
        sha256(b"nonce" + keypair.secret.to_bytes(64, "big") + message), "big"
    ) % backend.order
    k = k or 1
    R = backend.msm([backend.g1_base], [k])
    c = _challenge(backend, R, keypair.public, message)
    s = (k + c * keypair.secret) % backend.order
    width = backend.scalar_size
    return c.to_bytes(width, "big") + s.to_bytes(width, "big")


def verify(backend, public, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is the signature of ``message`` under the key
    ``public``, plain or prepared."""
    width = backend.scalar_size
    if len(signature) != 2 * width:
        return False
    c = int.from_bytes(signature[:width], "big")
    s = int.from_bytes(signature[width:], "big")
    if s >= backend.order or public == backend.g1_identity:
        return False  # under the identity key any s with c = H(s*g, O, m) passes
    # R = s*g - c*PK, two combs if the key is prepared; the challenge is
    # below the order, so no c >= order matches it
    R = backend.msm([backend.g1_base, public], [s, -c])
    return _challenge(backend, R, public, message) == c
