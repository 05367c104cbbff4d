"""Share dealing, aggregator-side checks and aggregate recovery.

A quantized update (a degree-d polynomial) is evaluated at the fixed field
points 1..n with n = 2*(d+1).  ``commitments.slots`` lays the points out,
round-robin across the aggregators in committee order; the round's slot map
is computed once and read by the dealer, every aggregator and the proposer.
A dealer opens each slot S with one witness W_S = [q_S(alpha)], q_S the
quotient of its update by Z_S (see ``commitments``).
W_S = (C - [I_S(alpha)])/Z_S(alpha) is fixed by the commitment C and the
slot's evaluations, which fix I_S, so it reveals nothing beyond them.  An
aggregator pools the bundles whose dealer's commitment a majority of the
round's verifiers name, checks their openings at its own slot as one batch
when it needs them, and sums the checked openings' evaluations point-wise
into the aggregate's values at its slot.  The proposer pairs each
aggregator's values with its slot, interpolates the lowest d+1 distinct
points and keeps the result only if it re-commits to the product of the
contributing commitments, the block rule's own identity: by the binding of
the commitment that polynomial is the aggregate, so the summed values carry
no witness.  A wrong value among those d+1 points abandons the round.

A slot holds ceil(2(d+1)/m) points: below d+1 from m = 3 aggregators on
(d >= 2), so no aggregator alone learns an update, but d+1 at m = 2, so each
of two aggregators alone interpolates every dealer's unmasked update.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commitments import CommitPK, commit, create_witness, verify_share
from .ledger import CommitmentEntry, TipState, contributor_rejection, endorsement_rejection, pair_records
from .polynomials import interpolate
from .quantize import QuantizedPoly


class ShareRecoveryError(RuntimeError):
    """Aggregate recovery failed (not enough shares, or Byzantine evidence)."""


@dataclass(frozen=True)
class ShareBundle:
    """One dealer's shares for one aggregator, with the dealer's block entry
    (its id and commitment) and the verifier sign-offs that name it."""

    entry: CommitmentEntry
    signoffs: tuple  # SignOff, ascending verifier id
    opening: object  # Witness at the receiving aggregator's slot


def deal_shares(
    update_q: QuantizedPoly, pk: CommitPK, slots: dict, entry: CommitmentEntry, signoffs
) -> dict:
    """One bundle per aggregator of the slot map ``slots``, in its order,
    holding the update's opening at that aggregator's points; ``entry`` is
    the dealer's block entry, whose commitment is to ``update_q``, and
    ``signoffs`` the sign-offs that name it."""
    return {
        agg: ShareBundle(entry, tuple(signoffs), create_witness(pk, update_q, points))
        for agg, points in slots.items()
    }


def accept_bundle(bundle: ShareBundle, state: TipState, iteration: int) -> bool:
    """True iff the dealer's entry and sign-offs pass the block rule for
    round ``iteration`` on ``state``'s tip (``ledger.contributor_rejection``
    and ``ledger.endorsement_rejection``), worked out once per (round,
    entry, sign-offs) on a tip (``TipState.once``).  ``failing_dealers``
    checks the opening later, at the receiving aggregator's slot."""
    entry, signoffs = bundle.entry, bundle.signoffs
    return state.once(("bundle", iteration, entry, signoffs), lambda: not (
        contributor_rejection([entry.peer], state, iteration)
        or endorsement_rejection(pair_records([entry], state.genesis.commit_pk.backend), signoffs, state, iteration)
    ))


def failing_dealers(bundles, pk: CommitPK, points) -> list:
    """The dealers of ``bundles`` whose opening does not open their entry's
    commitment at the receiving aggregator's slot ``points``: one
    ``verify_share`` over all of them, one per bundle if it fails."""
    openings = [(b.entry.commitment, b.opening) for b in bundles]
    suspects = bundles if openings and not verify_share(pk, points, openings) else ()
    return [b.entry.peer for b, one in zip(suspects, openings) if not verify_share(pk, points, [one])]


def sum_shares(bundles, backend) -> tuple:
    """The bundles' evaluations summed point-wise: the aggregate's values at
    the receiving aggregator's slot, in slot order.  ``failing_dealers``
    admits only openings with one evaluation per point of that slot, so
    bundles of unequal length are a program fault."""
    columns = zip(*(b.opening.evals for b in bundles), strict=True)
    return tuple(sum(column) % backend.order for column in columns)


def recover_aggregate(agg_shares, pk: CommitPK, combined) -> QuantizedPoly:
    """Interpolate the lowest d+1 distinct points of the (point, value)
    pairs ``agg_shares`` (each aggregator's values paired with its slot) over
    their ``CommitPK.slot`` basis and insist the result re-commits to
    ``combined``, the product of the contributors' commitments."""
    order = pk.backend.order
    by_point = {z % order: y % order for z, y in agg_shares}
    needed = pk.degree + 1
    if len(by_point) < needed:
        raise ShareRecoveryError(
            f"insufficient shares: {len(by_point)} distinct points, need {needed}"
        )
    chosen = sorted(by_point)[:needed]
    values = [by_point[z] for z in chosen]
    poly = QuantizedPoly(tuple(interpolate(pk.slot(chosen).basis, values, order)), order)
    if commit(pk, poly) != combined:
        raise ShareRecoveryError("interpolated polynomial does not match the combined commitment")
    return poly
