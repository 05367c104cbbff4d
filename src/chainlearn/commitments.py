"""Constant-size polynomial commitments with verifiable point openings.

A trusted setup produces the powers alpha^j * g1 of the one generator,
starting with g1 itself; a commitment C to the coefficients c_j is
c_0 * g1, over g1's fixed-base comb, plus one ``msm`` of the other powers.
Only the blinding slot c_0 is a full-size scalar; the data coefficients and
witness quotients (c_0 falls into the remainder) are small centered residues,
so the ``msm``'s doubling chain is as long as the largest of those.

Opening at a point z ships y = phi(z) and a commitment W to the quotient
(phi(x) - y) / (x - z).  It is valid exactly when
e(C, g1) == e(W, (alpha - z)*g1) * e(g1, g1)^y, checked in the folded form
e(C - y*g1 + z*W, g1) * e(-W, alpha*g1) == 1.

Any openings of any commitments are checked as one product, each folded
equation raised to a weight rho_i (Bellare-Garay-Rabin small exponents):

    e(sum(s_k*C_k) - sum(rho_i*y_i)*g1 + sum(rho_i*z_i*W_i), g1)
        * e(-sum(rho_i*W_i), alpha*g1) == 1

where s_k sums C_k's own weights.  The rho_i are 128-bit, read from one
SHAKE-256 output over each commitment, its opening count and every (point,
eval, witness): a rerun draws the same weights, and a batch with a bad
opening passes with probability 2^-128 (2^-61 on the exponent group).
The one full-size scalar, sum(rho_i*y_i), multiplies g1's comb.  The
pairing is symmetric, so the key's first two powers g1 and alpha*g1 are
the fixed arguments that drive the Miller loop.  Commitments are
homomorphic: the product of commitments commits to the coefficient-wise
sum, which is what lets verifiers audit masked updates and block aggregates
without seeing them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from . import polynomials
from .encoding import ByteReader, ByteWriter, derive_scalars, u32
from .quantize import QuantizedPoly


@dataclass(frozen=True)
class Witness:
    """Opening of a committed polynomial at ``point``."""

    value: object  # G1 commitment to the quotient polynomial
    point: int
    eval: int

    def to_bytes(self, backend) -> bytes:
        """Point and evaluation reduced mod the order, each little-endian at
        the order's byte width, then the quotient commitment: defined for
        any integer fields, so bytes from another peer cannot make it raise."""
        order, width = backend.order, backend.scalar_size
        return (
            (self.point % order).to_bytes(width, "little")
            + (self.eval % order).to_bytes(width, "little")
            + backend.g1_to_bytes(self.value)
        )


class CommitPK:
    """Public commitment key: the powers alpha^j * g1.

    ``degree`` is the highest polynomial degree the key supports, so there
    are ``degree + 1`` powers.  ``commit`` multiplies the first through
    ``g1_base`` and the share check pairs with the first two, so a key
    whose first power is not g1, or that has one power, is refused.
    """

    def __init__(self, backend, powers):
        self.backend = backend
        self.powers = list(powers)
        if len(self.powers) < 2:
            raise ValueError("a commitment key has at least two powers")
        if self.powers[0] != backend.g1:
            raise ValueError("the first power of a commitment key must be g1")

    @cached_property
    def share_check_key(self):
        """``powers[0]`` and ``powers[1]`` prepared as the fixed pairing
        arguments of every share check, built at the first one."""
        b = self.backend
        return b.prepare_pair(self.powers[0]), b.prepare_pair(self.powers[1])

    @property
    def degree(self) -> int:
        return len(self.powers) - 1

    def to_bytes(self) -> bytes:
        w = ByteWriter()
        w.u32(len(self.powers))
        for pw in self.powers:
            w.raw(self.backend.g1_to_bytes(pw))
        return w.getvalue()

    @classmethod
    def from_bytes(cls, backend, data: bytes) -> "CommitPK":
        r = ByteReader(data)
        n = r.u32()
        size = backend.element_size
        powers = [backend.g1_from_bytes(r.raw(size)) for _ in range(n)]
        r.done()
        return cls(backend, powers)


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
        powers.append(backend.fixed_msm([backend.g1_base], [acc]))
        acc = acc * alpha % backend.order
    return CommitPK(backend, powers)


def commit(pk: CommitPK, poly: QuantizedPoly):
    """The G1 element committing to ``poly``'s coefficients."""
    if poly.modulus != pk.backend.order:
        raise ValueError("polynomial field does not match the commitment key")
    if poly.dim > pk.degree:
        raise ValueError(f"polynomial degree {poly.dim} exceeds key degree {pk.degree}")
    b, coeffs = pk.backend, poly.coeffs
    return b.g1_add(b.fixed_msm([b.g1_base], coeffs[:1]), b.msm(pk.powers[1:], coeffs[1:]))


def combine(backend, commitments):
    """Group product of commitments = commitment to the summed polynomials."""
    commitments = list(commitments)
    if not commitments:
        raise ValueError("cannot combine an empty commitment list")
    acc = commitments[0]
    for c in commitments[1:]:
        acc = backend.g1_add(acc, c)
    return acc


def create_witness(pk: CommitPK, poly: QuantizedPoly, z: int) -> Witness:
    """Opening at z: quotient commitment plus the evaluation phi(z).

    z = 0 is reserved (it would open the blinding slot directly).
    """
    z %= pk.backend.order
    if z == 0:
        raise ValueError("evaluation point 0 is reserved")
    if poly.dim > pk.degree:
        raise ValueError(f"polynomial degree {poly.dim} exceeds key degree {pk.degree}")
    quotient, remainder = polynomials.quotient_at(list(poly.coeffs), z, pk.backend.order)
    return Witness(pk.backend.msm(pk.powers[: len(quotient)], quotient), z, remainder)


def batch_weights(pk: CommitPK, openings) -> list[int]:
    """The 128-bit weights rho_i of a batched share check, one per witness of
    ``openings``: consecutive 16-byte blocks of one SHAKE-256 output over each
    commitment, its witness count (so the bytes parse one way) and its witnesses."""
    parts = [b"share-batch"]
    for commitment, witnesses in openings:
        parts += [pk.backend.g1_to_bytes(commitment), u32(len(witnesses))]
        parts += [w.to_bytes(pk.backend) for w in witnesses]
    stream = hashlib.shake_256(b"".join(parts)).digest(16 * sum(len(ws) for _, ws in openings))
    return [int.from_bytes(stream[i : i + 16], "big") for i in range(0, len(stream), 16)]


def verify_share(pk: CommitPK, openings) -> bool:
    """True iff every (point, eval) of the sequence of ``(commitment,
    witnesses)`` pairs ``openings`` lies on its committed polynomial: one
    weighted pairing product for all of them (see the module docstring)."""
    backend = pk.backend
    witnesses = [w for _, ws in openings for w in ws]
    if any(w.point % backend.order == 0 for w in witnesses):
        return False
    rho = batch_weights(pk, openings)
    each = iter(rho)
    weight_sums = [sum(next(each) for _ in ws) for _, ws in openings]
    neg_eval = -sum(r * w.eval for r, w in zip(rho, witnesses))
    quotients, point_weights = [w.value for w in witnesses], [r * w.point for r, w in zip(rho, witnesses)]
    folded = backend.g1_add(
        backend.fixed_msm([backend.g1_base], [neg_eval]),
        backend.msm([c for c, _ in openings] + quotients, weight_sums + point_weights),
    )
    weighted = backend.g1_neg(backend.msm(quotients, rho))
    return backend.multi_pair(pk.share_check_key, (folded, weighted)) == backend.gt_one
