"""Share dealing, aggregator-side checks and aggregate recovery.

A quantized update (a degree-d polynomial) is evaluated at the fixed field
points 1..n with n = 2*(d+1); the points are split round-robin across the
aggregators, each share carrying its opening witness.  An aggregator pools
the bundles whose dealer's commitment a majority of the round's verifiers
name, checks their openings as one batch when it needs them, and sums the
checked shares' evaluations point-wise into (point, value) pairs of the
aggregate.  The proposer interpolates the lowest d+1 distinct points and
keeps the result only if it re-commits to the product of the contributing
commitments, the block rule's own identity: by the binding of the commitment
that polynomial is the aggregate, so the summed pairs carry no witness.  A
wrong value among those d+1 points abandons the round.

A slot holds ceil(2(d+1)/m) points: below d+1 from m = 3 aggregators on
(d >= 2), so no aggregator alone learns an update, but d+1 at m = 2, so each
of two aggregators alone interpolates every dealer's unmasked update.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commitments import CommitPK, commit, create_witness, verify_share
from .ledger import (
    CommitmentEntry,
    SignOffChecks,
    contributor_rejection,
    endorsement_rejection,
    pair_records,
)
from .polynomials import lagrange_interpolate
from .quantize import QuantizedPoly


class ShareRecoveryError(RuntimeError):
    """Aggregate recovery failed (not enough shares, or Byzantine evidence)."""


@dataclass(frozen=True)
class ShareBundle:
    """One dealer's shares for one aggregator, with the dealer's block entry
    (its id and commitment) and the verifier sign-offs that name it."""

    entry: CommitmentEntry
    signoffs: tuple  # SignOff, ascending verifier id
    shares: tuple  # Witness instances at this aggregator's points


def share_points(dim: int) -> list[int]:
    """The global evaluation points 1..n, n = 2*(d+1); 0 stays reserved."""
    return list(range(1, 2 * (dim + 1) + 1))


def assign_points(points, aggregators) -> dict:
    """Round-robin assignment point -> aggregator, dict keyed by aggregator."""
    out = {a: [] for a in aggregators}
    for idx, z in enumerate(points):
        out[aggregators[idx % len(aggregators)]].append(z)
    return out


def deal_shares(
    update_q: QuantizedPoly, pk: CommitPK, aggregators, entry: CommitmentEntry, signoffs
) -> dict:
    """Evaluate the update at every share point and slice per aggregator;
    ``entry`` is the dealer's block entry, whose commitment is to
    ``update_q``, and ``signoffs`` the sign-offs that name it."""
    aggregators = list(aggregators)
    if len(aggregators) < 2:
        raise ValueError("need at least two aggregators")
    points = share_points(update_q.dim)
    if len(aggregators) > len(points):
        raise ValueError(f"{len(aggregators)} aggregators for only {len(points)} share points")
    return {
        agg: ShareBundle(entry, tuple(signoffs), tuple(create_witness(pk, update_q, z) for z in pts))
        for agg, pts in assign_points(points, aggregators).items()
    }


def accept_bundle(
    bundle: ShareBundle, verifiers, aggregators, pubkeys, pk: CommitPK, points, checks: SignOffChecks
) -> bool:
    """True iff the shares are at the receiving aggregator's ``points`` (its
    slice of ``assign_points``) and the dealer's entry and sign-offs pass the
    block rule (``ledger.contributor_rejection`` and ``ledger.endorsement_rejection``
    with the round's committees, the genesis keys ``pubkeys`` and the round's
    shared sign-off ``checks``).  ``failing_dealers`` checks the openings later."""
    if [w.point for w in bundle.shares] != list(points):
        return False
    if contributor_rejection([bundle.entry.peer], verifiers, aggregators, pubkeys):
        return False
    entry_records = pair_records([bundle.entry], pk.backend)
    return not endorsement_rejection(entry_records, bundle.signoffs, verifiers, checks)


def failing_dealers(bundles, pk: CommitPK) -> list:
    """The dealers of ``bundles`` whose shares do not all open their entry's
    commitment: one ``verify_share`` over all of them, one per bundle if it fails."""
    openings = [(b.entry.commitment, b.shares) for b in bundles]
    suspects = bundles if openings and not verify_share(pk, openings) else ()
    return [b.entry.peer for b, one in zip(suspects, openings) if not verify_share(pk, [one])]


def sum_shares(accepted, backend) -> list[tuple[int, int]]:
    """Point-wise evaluation sums across bundles that share one point set:
    the (point, value) pairs of the summed polynomial.  ``accept_bundle``
    admits only the receiver's points, so a mismatch here is a program
    fault."""
    accepted = list(accepted)
    if not accepted:
        raise ValueError("no bundles to sum")
    base_points = [w.point for w in accepted[0].shares]
    for bundle in accepted:
        pts = [w.point for w in bundle.shares]
        if pts != base_points:
            raise ValueError(f"point-set mismatch: {pts} vs {base_points}")
    order = backend.order
    return [(z, sum(b.shares[i].eval for b in accepted) % order) for i, z in enumerate(base_points)]


def recover_aggregate(agg_shares, pk: CommitPK, combined) -> QuantizedPoly:
    """Interpolate the lowest d+1 distinct points of the (point, value)
    pairs ``agg_shares`` and insist the result re-commits to ``combined``,
    the product of the contributors' commitments."""
    order = pk.backend.order
    by_point = {z % order: y % order for z, y in agg_shares}
    needed = pk.degree + 1
    if len(by_point) < needed:
        raise ShareRecoveryError(
            f"insufficient shares: {len(by_point)} distinct points, need {needed}"
        )
    chosen = sorted(by_point)[:needed]
    coeffs = lagrange_interpolate([(z, by_point[z]) for z in chosen], order)
    poly = QuantizedPoly(tuple(coeffs), order)
    if commit(pk, poly) != combined:
        raise ShareRecoveryError("interpolated polynomial does not match the combined commitment")
    return poly
