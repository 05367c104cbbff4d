"""Constant-size polynomial commitments with verifiable openings at point sets.

A trusted setup produces the powers alpha^j * g1 of the one generator,
starting with g1 itself; a commitment C to the coefficients c_j is the sum
of c_j * alpha^j * g1, one ``msm`` over the key's prepared powers.  Only
the blinding slot c_0 is a full-size scalar, taken from g1's comb; the data
coefficients are small centered residues, added by their wNAF digits in the
same 32 doublings.  Witness quotients (c_0 falls into the remainder)
are small too and are committed the same way.

The protocol's point sets are its share layout, ``slots(d, aggregators)``:
the points 1..2(d+1) dealt round-robin over the aggregators, one slot each.
Opening at a point set S (a slot) ships the evaluations y_s = phi(s), s in
S, and a commitment W_S = [q_S(alpha)] to the quotient of phi by the monic
Z_S(x) = prod_{s in S}(x - s); the remainder I_S is the polynomial of degree
below |S| through the (s, y_s).  The opening holds no points: the checker
states S.  It is valid exactly when

    e(C - [I_S(alpha)], g1) == e(W_S, [Z_S(alpha)])

(Kate, Zaverucha and Goldberg, ASIACRYPT 2010, section 3.4).  At |S| =
degree + 1 the quotient is 0 and the key holds no power to commit Z_S with:
W_S must be the identity, and the check is the first pairing alone.

The openings of any commitments C_i at one slot S are checked as one
product, opening i raised to a weight rho_i (Bellare-Garay-Rabin small
exponents):

    e(sum(rho_i*C_i) - [I'(alpha)], g1) * e(-sum(rho_i*W_i), [Z_S(alpha)]) == 1

where I' interpolates the weighted evaluations sum(rho_i*y_i) on S.  The
rho_i are 128-bit, read from one SHAKE-256 output over S and every
commitment and opening: a rerun draws the same weights, and a batch with a
bad opening passes with probability 2^-128 (2^-61 on the exponent group).
The pairing is symmetric, so g1 and [Z_S(alpha)] are the fixed arguments
that drive the Miller loop; the key memoises, per point set, Z_S, S's
Lagrange basis and the prepared [Z_S(alpha)].  The first term's G1
argument is one ``msm``: the commitments with their 128-bit weights and the
full-size coefficients of I' on the key powers' combs, in one chain.
Commitments are homomorphic: the product of commitments commits to the
coefficient-wise sum, which is what lets verifiers audit masked updates and
block aggregates without seeing them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from . import polynomials
from .encoding import ByteReader, ByteWriter, sha256, u32, u64
from .quantize import QuantizedPoly


@dataclass(frozen=True)
class Witness:
    """Opening of a committed polynomial at a point set the checker states."""

    value: object  # G1 commitment to the quotient by Z_S
    evals: tuple  # the polynomial at the points, in their order

    def to_bytes(self, backend) -> bytes:
        """The evaluation count, each evaluation reduced mod the order,
        little-endian at the order's byte width, then the quotient
        commitment: defined for any integer fields, so bytes from another
        peer cannot make it raise."""
        return u32(len(self.evals)) + scalars(backend, self.evals) + backend.g1_to_bytes(self.value)


def scalars(backend, values) -> bytes:
    """Each of ``values`` reduced mod the order, little-endian at the
    order's byte width: the one encoding of a scalar list, defined for any
    integers."""
    order, width = backend.order, backend.scalar_size
    return b"".join((k % order).to_bytes(width, "little") for k in values)


@dataclass(frozen=True)
class Slot:
    """What a share check needs of one point set S, memoised by the key."""

    points: tuple
    vanishing: list  # Z_S's coefficients, monic
    basis: list  # S's Lagrange polynomials, coefficient lists in point order
    prepared: object  # [Z_S(alpha)] as prepare_pair prepared it; None at |S| = degree + 1


class CommitPK:
    """Public commitment key: the powers alpha^j * g1.

    ``degree`` is the highest polynomial degree the key supports, so there
    are ``degree + 1`` powers, held as ``backend.prepare_base`` prepared
    them, the first as ``g1_base``; each builds its tables at first use.
    The share check pairs with the first power, so a key whose first power
    is not g1 is refused, and so is a key of one power, which commits to
    constants only.
    """

    def __init__(self, backend, powers):
        self.backend = backend
        powers = list(powers)
        if len(powers) < 2:
            raise ValueError("a commitment key has at least two powers")
        if powers[0] != backend.g1:
            raise ValueError("the first power of a commitment key must be g1")
        self.powers = [backend.g1_base, *map(backend.prepare_base, powers[1:])]
        self._slots = {}

    @cached_property
    def share_check_key(self):
        """g1 prepared as the fixed first pairing argument of every share
        check, built at the first one."""
        return self.backend.prepare_pair(self.powers[0])

    def slot(self, points) -> Slot:
        """The memo of the point set ``points``, reduced mod the order and
        kept in their order, built at its first use.  Refuses an empty set,
        a repeated point, the reserved point 0 and more than degree + 1
        points.  The protocol checks only the round's slots and recovers
        from the lowest d + 1 points the aggregate shares hold, so the memo
        holds one entry per slot and per such recovery set."""
        order = self.backend.order
        key = tuple(z % order for z in points)
        if key in self._slots:
            return self._slots[key]
        if not key or 0 in key or len(set(key)) != len(key):
            raise ValueError("a point set holds distinct nonzero points")
        if len(key) > self.degree + 1:
            raise ValueError(f"{len(key)} points exceed key degree {self.degree} + 1")
        vanishing = polynomials.vanishing(key, order)
        prepared = None
        if len(key) <= self.degree:
            prepared = self.backend.prepare_pair(self.backend.msm(self.powers, vanishing))
        slot = self._slots[key] = Slot(key, vanishing, polynomials.lagrange_basis(key, order), prepared)
        return slot

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


def slots(dim: int, aggregators) -> dict:
    """The share layout, aggregator -> its points: the points 1..n, n =
    2(dim+1), of a degree-``dim`` update (0 stays reserved), dealt
    round-robin in committee order, each slot a ``range``.  Refuses fewer
    than two aggregators or more than n before it builds anything."""
    n, m = 2 * (dim + 1), len(aggregators)
    if m < 2:
        raise ValueError("need at least two aggregators")
    if m > n:
        raise ValueError(f"{m} aggregators for only {n} share points")
    return {agg: range(i + 1, n + 1, m) for i, agg in enumerate(aggregators)}


def trusted_setup(backend, degree: int, seed: bytes) -> CommitPK:
    """One-time key ceremony: derive alpha from the seed, emit the powers,
    forget alpha.  The seed holder is the ceremony's trusted party."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    alpha, counter = 0, 0
    while alpha == 0:  # 64 hash bytes: the reduction's bias is negligible for orders to ~2^500
        block = b"setup%d" % counter + seed + u64(0)
        alpha = int.from_bytes(sha256(block) + sha256(block + b"\x01"), "big") % backend.order
        counter += 1
    powers = []
    acc = 1
    for _ in range(degree + 1):
        powers.append(backend.msm([backend.g1_base], [acc]))
        acc = acc * alpha % backend.order
    return CommitPK(backend, powers)


def commit(pk: CommitPK, poly: QuantizedPoly):
    """The G1 element committing to ``poly``'s coefficients."""
    if poly.modulus != pk.backend.order:
        raise ValueError("polynomial field does not match the commitment key")
    if poly.dim > pk.degree:
        raise ValueError(f"polynomial degree {poly.dim} exceeds key degree {pk.degree}")
    return pk.backend.msm(pk.powers, poly.coeffs)


def combine(backend, commitments):
    """Group product of commitments = commitment to the summed polynomials."""
    commitments = list(commitments)
    if not commitments:
        raise ValueError("cannot combine an empty commitment list")
    acc = commitments[0]
    for c in commitments[1:]:
        acc = backend.g1_add(acc, c)
    return acc


def create_witness(pk: CommitPK, poly: QuantizedPoly, points) -> Witness:
    """Opening at the point set ``points``: the commitment to the quotient
    of phi by Z_S, and phi's evaluations, read off the remainder I_S.  The
    point 0 is reserved (it would open the blinding slot directly)."""
    if poly.dim > pk.degree:
        raise ValueError(f"polynomial degree {poly.dim} exceeds key degree {pk.degree}")
    slot, order = pk.slot(points), pk.backend.order
    quotient, remainder = polynomials.divide_monic(list(poly.coeffs), slot.vanishing, order)
    evals = tuple(polynomials.poly_eval(remainder, z, order) for z in slot.points)
    return Witness(pk.backend.msm(pk.powers, quotient), evals)


def batch_weights(pk: CommitPK, points, openings) -> list[int]:
    """The 128-bit weights rho_i of a share check at the point set
    ``points``, one per ``(commitment, witness)`` pair of ``openings``:
    consecutive 16-byte blocks of one SHAKE-256 output over the points, then
    every commitment and witness."""
    backend = pk.backend
    parts = [b"share-batch", u32(len(points)), scalars(backend, points)]
    for commitment, witness in openings:
        parts += [backend.g1_to_bytes(commitment), witness.to_bytes(backend)]
    stream = hashlib.shake_256(b"".join(parts)).digest(16 * len(openings))
    return [int.from_bytes(stream[i : i + 16], "big") for i in range(0, len(stream), 16)]


def verify_share(pk: CommitPK, points, openings) -> bool:
    """True iff every opening of the sequence of ``(commitment, witness)``
    pairs ``openings`` lies on its committed polynomial at the point set
    ``points``: one weighted pairing product for all of them (see the module
    docstring).  A point set ``CommitPK.slot`` refuses, or an opening with
    another count of evaluations, fails the check."""
    backend = pk.backend
    try:
        slot = pk.slot(points)
    except ValueError:
        return False
    if any(len(w.evals) != len(slot.points) for _, w in openings):
        return False
    if slot.prepared is None and any(w.value != backend.g1_identity for _, w in openings):
        return False  # |S| = degree + 1: every quotient is 0
    rho = batch_weights(pk, slot.points, openings)
    weighted = [sum(r * w.evals[j] for r, (_, w) in zip(rho, openings)) for j in range(len(slot.points))]
    interpolant = polynomials.interpolate(slot.basis, weighted, backend.order)
    commitments = [c for c, _ in openings]
    folded = backend.msm([*commitments, *pk.powers], [*rho, *(-c for c in interpolant)])
    prepared, terms = [pk.share_check_key], [folded]
    if slot.prepared is not None:
        prepared.append(slot.prepared)
        terms.append(backend.g1_neg(backend.msm([w.value for _, w in openings], rho)))
    return backend.multi_pair(prepared, terms) == backend.gt_one
