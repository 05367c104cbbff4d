"""Constant-size polynomial commitments with verifiable point openings.

A trusted setup produces powers g1^(alpha^j); a commitment is the multi-
exponentiation of those powers by the polynomial coefficients, computed as
one ``msm`` call on the group backend.  Opening at a point z ships the
evaluation phi(z) plus a commitment to the quotient (phi(x) - phi(z)) /
(x - z); the pairing check

    e(C, g2) == e(W, g2^(alpha - z)) * e(g1, g2)^phi(z)

accepts exactly when the share lies on the committed polynomial.  Commitments
are homomorphic: the product of commitments commits to the coefficient-wise
sum, which is what lets verifiers audit masked updates and block aggregates
without seeing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polynomials
from .encoding import ByteReader, ByteWriter, derive_scalars
from .quantize import QuantizedPoly


@dataclass(frozen=True)
class Commitment:
    value: object  # G1 element (backend-specific)


@dataclass(frozen=True)
class Witness:
    """Opening of a committed polynomial at ``point``."""

    value: object  # G1 commitment to the quotient polynomial
    point: int
    eval: int


class CommitPK:
    """Public commitment key: G1 powers of alpha plus g2, g2^alpha.

    ``degree`` is the highest polynomial degree the key supports, so there
    are ``degree + 1`` G1 powers.
    """

    def __init__(self, backend, powers, g2, g2_alpha):
        self.backend = backend
        self.powers = list(powers)
        self.g2 = g2
        self.g2_alpha = g2_alpha
        # pairing of the two generators, reused by every share check
        self._e_g1_g2 = backend.pair(powers[0], g2)

    @property
    def degree(self) -> int:
        return len(self.powers) - 1

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.u32(len(self.powers))
        for pw in self.powers:
            w.raw(self.backend.g1_to_bytes(pw))
        w.raw(self.backend.g2_to_bytes(self.g2))
        w.raw(self.backend.g2_to_bytes(self.g2_alpha))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, backend, data: bytes) -> "CommitPK":
        r = ByteReader(data)
        n = r.u32()
        size = backend.element_size
        powers = [backend.g1_from_bytes(r.raw(size)) for _ in range(n)]
        g2 = backend.g2_from_bytes(r.raw(size))
        g2_alpha = backend.g2_from_bytes(r.raw(size))
        r.done()
        return cls(backend, powers, g2, g2_alpha)


def trusted_setup(backend, degree: int, seed: bytes) -> CommitPK:
    """One-time key ceremony: derive alpha from the seed, emit the powers,
    forget alpha.  The seed holder is the ceremony's trusted party."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    alpha = 0
    counter = 0
    while alpha == 0:
        alpha = derive_scalars(seed, 1, backend.order, tag=b"setup%d" % counter)[0]
        counter += 1
    powers = []
    acc = 1
    for _ in range(degree + 1):
        powers.append(backend.g1_mul(backend.g1, acc))
        acc = acc * alpha % backend.order
    g2_alpha = backend.g2_mul(backend.g2, alpha)
    return CommitPK(backend, powers, backend.g2, g2_alpha)


def commit(pk: CommitPK, poly: QuantizedPoly) -> Commitment:
    if poly.modulus != pk.backend.order:
        raise ValueError("polynomial field does not match the commitment key")
    if poly.dim > pk.degree:
        raise ValueError(f"polynomial degree {poly.dim} exceeds key degree {pk.degree}")
    return Commitment(pk.backend.msm(pk.powers, poly.coeffs))


def combine(backend, commitments) -> Commitment:
    """Group product of commitments = commitment to the summed polynomials."""
    commitments = list(commitments)
    if not commitments:
        raise ValueError("cannot combine an empty commitment list")
    acc = commitments[0].value
    for c in commitments[1:]:
        acc = backend.g1_add(acc, c.value)
    return Commitment(acc)


def create_witness(pk: CommitPK, poly: QuantizedPoly, z: int) -> Witness:
    """Opening at z: quotient commitment plus the evaluation phi(z).

    z = 0 is reserved (it would open the blinding slot directly).
    """
    z %= pk.backend.order
    if z == 0:
        raise ValueError("evaluation point 0 is reserved")
    p = pk.backend.order
    quotient, remainder = polynomials.quotient_at(list(poly.coeffs), z, p)
    q_poly = QuantizedPoly(tuple(quotient) + (0,), poly.scale_bits, p)
    return Witness(commit(pk, q_poly).value, z, remainder)


def verify_share(pk: CommitPK, commitment: Commitment, witness: Witness) -> bool:
    """Pairing check that (point, eval) lies on the committed polynomial."""
    backend = pk.backend
    z = witness.point % backend.order
    if z == 0:
        return False
    # g2^(alpha - z)
    shifted = backend.g2_add(pk.g2_alpha, backend.g2_mul(pk.g2, backend.order - z))
    lhs = backend.pair(commitment.value, pk.g2)
    rhs = backend.gt_mul(
        backend.pair(witness.value, shifted),
        backend.gt_pow(pk._e_g1_g2, witness.eval),
    )
    return backend.gt_eq(lhs, rhs)
