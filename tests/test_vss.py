import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.commitments import Witness, combine, commit, create_witness, slots, trusted_setup, verify_share
from chainlearn.groups import get_backend
from chainlearn import signatures
from chainlearn.ledger import CommitmentEntry, SignOff, TipState, pair_records, sign_off
from chainlearn.polynomials import poly_eval
from chainlearn.quantize import QuantizedPoly, decode, encode, sum_polys
from chainlearn.signatures import sign
from chainlearn.vss import (
    ShareRecoveryError,
    accept_bundle,
    failing_dealers,
    recover_aggregate,
    sum_shares,
)

from conftest import deal, resplit

BACKEND = get_backend("exponent")
MOD = BACKEND.order


def pairs(bundles, d):
    """The (point, value) pairs that a lone dealer's degree-``d`` ``bundles``
    sum to: each aggregator's evals paired with its slot."""
    layout = slots(d, list(bundles))
    return [s for agg, b in bundles.items() for s in zip(layout[agg], b.opening.evals)]


def make_update(rng, d):
    v = rng.normal(size=d)
    v /= max(np.linalg.norm(v), 1.0)
    return encode(v, int(rng.integers(0, MOD)), MOD)


def test_point_count_formula():
    assert sorted(z for pts in slots(25, ["a", "b", "c"]).values() for z in pts) == list(range(1, 53))
    assert {agg: list(points) for agg, points in slots(2, [7, 9]).items()} == {7: [1, 3, 5], 9: [2, 4, 6]}


def test_round_robin_counts():
    layout = slots(25, ["c", "a", "b"])
    assert list(layout) == ["c", "a", "b"]  # committee order
    assert [len(pts) for pts in layout.values()] == [18, 17, 17]


def test_dealt_shares_all_verify():
    rng = np.random.default_rng(0)
    pk = trusted_setup(BACKEND, 6, b"s")
    q = make_update(rng, 6)
    bundles = deal(q, pk, [0, 1, 2], dealer=9)
    assert set(bundles) == {0, 1, 2}
    c = commit(pk, q)
    for agg, points in slots(6, [0, 1, 2]).items():
        assert bundles[agg].entry.commitment == c
        assert verify_share(pk, points, [(c, bundles[agg].opening)])


def test_too_many_aggregators_rejected():
    assert len(slots(2, range(6))) == 6
    with pytest.raises(ValueError, match="7 aggregators for only 6 share points"):
        slots(2, range(7))
    with pytest.raises(ValueError, match="at least two aggregators"):
        slots(2, [0])
    with pytest.raises(ValueError, match="for only 6 share points"):
        slots(2, range(1 << 62))  # refused on its length, before any slot is built


def test_accept_bundle_majority_and_shares(monkeypatch, tiny_net):
    genesis, secrets = tiny_net
    state, rng, iteration = TipState.root(genesis), np.random.default_rng(1), 1
    pk, pubkeys = genesis.commit_pk, genesis.peer_pubkeys
    q = make_update(rng, 4)
    verifiers, aggregators = state.committees(iteration)
    verifiers = sorted(verifiers)  # a bundle's sign-offs go in ascending verifier id
    # the dealer and the other winner beside it (a sign-off names all of
    # them) are on neither committee; so is the outsider, who is no verifier
    dealer, winner, outsider = sorted(set(range(12)) - set(verifiers) - set(aggregators))[-3:]
    keys = {pid: s.keypair for pid, s in secrets.items()}
    entry, other = CommitmentEntry(dealer, commit(pk, q)), CommitmentEntry(winner, commit(pk, q))
    signoffs = tuple(sign_off(BACKEND, keys[vid], iteration, vid, [other, entry]) for vid in verifiers)
    bundles = deal(q, pk, [0, 1], dealer, signoffs)
    bundle, points = bundles[0], slots(4, [0, 1])[0]
    checked = []
    verify = signatures.verify

    def counted(backend, public, message, signature):
        checked.append(public)
        return verify(backend, public, message, signature)

    monkeypatch.setattr(signatures, "verify", counted)

    def accepts(b):
        return accept_bundle(b, state, iteration)

    def with_entry(**changes):
        return dataclasses.replace(bundle, entry=dataclasses.replace(bundle.entry, **changes))

    def with_sigs(signoff_list):
        return dataclasses.replace(bundle, signoffs=tuple(signoff_list))

    assert accepts(bundle) and accepts(bundles[0])
    assert checked == [pubkeys[vid] for vid in verifiers]  # each sign-off checked once a round
    # equal copies, not the same objects: the memo is keyed by value
    assert accepts(with_sigs(dataclasses.replace(s) for s in signoffs))
    assert len(checked) == len(verifiers)

    # another aggregator's shares open the commitment, but not at these
    # points: they pass the gates and fail the pooled opening check
    assert accepts(bundles[1])
    assert failing_dealers([bundles[1]], pk, points) == [dealer]

    # exactly half (1 of 3 -> floor majority boundary: 1 <= 1) is not enough
    assert not accepts(with_sigs(signoffs[:1]))
    # a majority that names another peer's pair does not name the dealer's
    others = [sign_off(BACKEND, keys[vid], iteration, vid, [other]) for vid in verifiers]
    assert not accepts(with_sigs(others))

    # a forged eval passes the gates and fails the pooled opening check
    w = bundle.opening
    bad = Witness(w.value, ((w.evals[0] + 1) % MOD,) + w.evals[1:])
    forged = dataclasses.replace(bundle, opening=bad)
    assert accepts(forged)
    assert failing_dealers([forged], pk, points) == [dealer] and failing_dealers([bundle], pk, points) == []

    # a sign-off from outside the committee does not count
    assert not accepts(with_sigs([sign_off(BACKEND, keys[outsider], iteration, outsider, [entry])]))

    # a valid majority padded with one bad sign-off fails the block rule, so
    # the bundle is refused here rather than minted into a block replicas reject
    mine = tuple(pair_records([entry], BACKEND))
    assert not accepts(with_sigs(signoffs + (SignOff(outsider, mine, b"\x00" * 16),)))
    wrong = SignOff(verifiers[2], mine, sign(BACKEND, keys[verifiers[2]], b"wrong message"))
    assert not accepts(with_sigs(signoffs[:2] + (wrong,)))
    assert not accepts(with_sigs(signoffs + signoffs[2:]))  # a verifier twice
    assert not accepts(with_sigs(signoffs[::-1]))  # not in ascending verifier order
    # the winners out of order: the signature covers them, but not as listed
    unsorted = dataclasses.replace(signoffs[0], winners=signoffs[0].winners[::-1])
    assert not accepts(with_sigs((unsorted,) + signoffs[1:]))
    # same signature, other winners: worked out on its own, and the original stands
    assert not state.signoff_valid(iteration, unsorted) and state.signoff_valid(iteration, signoffs[0])
    # the signed bytes cut into records at other boundaries: the same message,
    # but records a block, which reads them back at pair size, cannot hold
    recut = dataclasses.replace(signoffs[0], winners=resplit(signoffs[0].winners))
    assert recut.winners is not None and b"".join(recut.winners) == b"".join(signoffs[0].winners)
    assert not accepts(with_sigs((recut,) + signoffs[1:]))
    assert not state.signoff_valid(iteration, recut) and state.signoff_valid(iteration, signoffs[0])

    # a committee member may not contribute
    assert not accepts(with_entry(peer=aggregators[0]))

    # a dealer outside genesis is refused, as the block rule refuses its entry
    assert not accepts(with_entry(peer=max(pubkeys) + 1))


def test_sum_shares_hand_example():
    """phi1 = 1 + x, phi2 = 2 + 3x at z=1: summed eval = 2 + 5 = 7."""
    pk = trusted_setup(BACKEND, 1, b"s")
    from chainlearn.quantize import QuantizedPoly

    q1 = QuantizedPoly((1, 1), MOD)
    q2 = QuantizedPoly((2, 3), MOD)
    b1 = deal(q1, pk, [0, 1], dealer=0)[0]
    b2 = deal(q2, pk, [0, 1], dealer=1)[0]
    agg = sum_shares([b1, b2], BACKEND)
    assert agg == (7, 4 + 11)  # at aggregator 0's points 1 and 3
    combined = combine(BACKEND, [b1.entry.commitment, b2.entry.commitment])
    assert recover_aggregate(zip(slots(1, [0, 1])[0], agg), pk, combined) == q1.add(q2)


def test_sum_shares_single_update_is_identity():
    rng = np.random.default_rng(2)
    pk = trusted_setup(BACKEND, 4, b"s")
    q = make_update(rng, 4)
    b = deal(q, pk, [0, 1], dealer=0)[1]
    assert sum_shares([b], BACKEND) == b.opening.evals


def test_recover_hand_example():
    """phi = 3 + 2x + x^2 from shares {1: 6, 2: 11, 3: 18}."""
    pk = trusted_setup(BACKEND, 2, b"s")
    from chainlearn.quantize import QuantizedPoly

    q = QuantizedPoly((3, 2, 1), MOD)
    c = commit(pk, q)
    bundles = deal(q, pk, [0, 1, 2], dealer=0)
    agg = pairs(bundles, 2)
    evals = dict(agg)
    assert (evals[1], evals[2], evals[3]) == (6, 11, 18)
    recovered = recover_aggregate([(z, y) for z, y in agg if z <= 3], pk, c)
    assert recovered.coeffs == (3, 2, 1)


def test_threshold_d_points_insufficient():
    rng = np.random.default_rng(4)
    pk = trusted_setup(BACKEND, 5, b"s")
    q = make_update(rng, 5)
    c = commit(pk, q)
    bundles = deal(q, pk, [0, 1], dealer=0)
    all_shares = pairs(bundles, 5)
    with pytest.raises(ShareRecoveryError, match="insufficient"):
        recover_aggregate(all_shares[: pk.degree], pk, c)
    recovered = recover_aggregate(all_shares[: pk.degree + 1], pk, c)
    assert recovered == q


def test_end_to_end_35_updates():
    rng = np.random.default_rng(5)
    pk = trusted_setup(BACKEND, 25, b"s")
    updates = [make_update(rng, 25) for _ in range(35)]
    aggregators = [0, 1, 2]
    per_agg = {a: [] for a in aggregators}
    for i, q in enumerate(updates):
        for a, bundle in deal(q, pk, aggregators, dealer=i).items():
            per_agg[a].append(bundle)
    layout = slots(25, aggregators)
    agg_shares = [s for a in aggregators for s in zip(layout[a], sum_shares(per_agg[a], BACKEND))]
    combined = combine(BACKEND, [commit(pk, q) for q in updates])
    recovered = recover_aggregate(agg_shares, pk, combined)
    assert recovered == sum_polys(updates)
    np.testing.assert_array_equal(
        decode(recovered), decode(sum_polys(updates))
    )


def test_recovery_rejects_tampered_sum():
    rng = np.random.default_rng(6)
    pk = trusted_setup(BACKEND, 4, b"s")
    q = make_update(rng, 4)
    c = commit(pk, q)
    bundles = deal(q, pk, [0, 1], dealer=0)
    shares = pairs(bundles, 4)
    bad = (shares[0][0], (shares[0][1] + 1) % MOD)
    with pytest.raises(ShareRecoveryError):
        recover_aggregate([bad] + shares[1:], pk, c)


def test_recovery_reads_the_lowest_d_plus_1_points():
    """Recovery interpolates the lowest d+1 distinct points and checks the
    result against the combined commitment: a wrong value above them is
    never read, and one among them fails the check."""
    rng = np.random.default_rng(7)
    pk = trusted_setup(BACKEND, 4, b"s")
    q = make_update(rng, 4)
    c = commit(pk, q)
    bundles = deal(q, pk, [0, 1], dealer=0)
    shares = sorted(pairs(bundles, 4))
    needed = pk.degree + 1

    def wrong_at(i):
        z, y = shares[i]
        return shares[:i] + [(z, (y + 1) % MOD)] + shares[i + 1 :]

    assert recover_aggregate(shares, pk, c) == q
    for i in range(needed, len(shares)):
        assert recover_aggregate(wrong_at(i), pk, c) == q
    for i in range(needed):
        with pytest.raises(ShareRecoveryError, match="does not match the combined commitment"):
            recover_aggregate(wrong_at(i), pk, c)


def test_privacy_threshold_structure():
    """Coalitions below ceil(m/2) aggregators always hold < d+1 points."""
    from itertools import combinations

    for d in (4, 25):
        for m in (2, 3, 4, 5):
            assignment = slots(d, range(m))
            limit = -(-m // 2)  # ceil(m/2)
            for size in range(0, limit):
                for coalition in combinations(range(m), size):
                    held = sum(len(assignment[a]) for a in coalition)
                    assert held < d + 1, (d, m, coalition)


def test_one_slot_holds_fewer_than_d_plus_1_points_from_three_aggregators():
    """A slot holds ceil(2(d+1)/m) points.  From m = 3 on no slot reaches
    d+1, so no aggregator alone interpolates a dealer's update, except at
    d = 1, where one of three slots holds both points it takes.  At m = 2
    every slot holds d+1 points: each aggregator alone learns every update."""
    for d in range(1, 31):
        for m in range(2, min(9, 2 * (d + 1) + 1)):
            largest = max(map(len, slots(d, range(m)).values()))
            assert largest == -(-2 * (d + 1) // m), (d, m)
            reaches = largest >= d + 1
            assert reaches == (m == 2 or (d, m) == (1, 3)), (d, m)


def random_update(rng, d, backend=BACKEND):
    return QuantizedPoly(tuple(rng.randrange(backend.order) for _ in range(d + 1)), backend.order)


def test_every_slot_opens_and_verifies():
    """For d 1-12 and every admitted m, each slot of ``slots(d, range(m))``
    opens with one witness whose evals are the update's at the slot's
    points; it verifies alone and in one batch with another dealer's
    opening at that slot, and is refused when checked at the next slot's
    points."""
    rng = random.Random(12)
    for d in range(1, 13):
        pk = trusted_setup(BACKEND, d, b"slots")
        q, other = random_update(rng, d), random_update(rng, d)
        c, c_other = commit(pk, q), commit(pk, other)
        for m in range(2, 2 * (d + 1) + 1):
            layout = list(slots(d, range(m)).values())
            for k, points in enumerate(layout):
                w = create_witness(pk, q, points)
                assert w.evals == tuple(poly_eval(list(q.coeffs), z, MOD) for z in points)
                assert verify_share(pk, points, [(c, w)]), (d, m, points)
                assert verify_share(pk, points, [(c, w), (c_other, create_witness(pk, other, points))]), (d, m, points)
                assert not verify_share(pk, layout[(k + 1) % m], [(c, w)]), (d, m, points)


def slot_faults(backend, layout, k, c, w):
    """(kind, points, commitment, witness) for each fault of the opening
    ``w`` of ``c`` at slot ``k`` of ``layout``: an eval + 1; a check at
    another slot's points; one evaluation too many or too few; the witness
    value + g1; the commitment + g1; and, on two or more points, one eval +
    1 and another - 1."""
    order, points = backend.order, layout[k]

    def with_evals(changes):
        return Witness(w.value, tuple((y + changes.get(i, 0)) % order for i, y in enumerate(w.evals)))

    for i in range(len(points)):
        yield "eval", points, c, with_evals({i: 1})
    for j, other in enumerate(layout):
        if j != k:
            yield "slot", other, c, w
    yield "count", points, c, Witness(w.value, w.evals + (0,))
    yield "count", points, c, Witness(w.value, w.evals[:-1])
    yield "witness", points, c, Witness(backend.g1_add(w.value, backend.g1), w.evals)
    yield "commitment", points, backend.g1_add(c, backend.g1), w
    for i, j in combinations(range(len(points)), 2):
        yield "cancelling", points, c, with_evals({i: 1, j: -1})


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_slot_opening_fault_property(data):
    """The property form on the exponent group: a slot of ``slots(d,
    range(m))`` for d 1-12 and an admitted m, opened by 1-3 dealers, passes
    as one batch, and one drawn fault of ``slot_faults`` in a drawn
    dealer's opening is refused; its example count comes from the active
    Hypothesis profile."""
    d = data.draw(st.integers(1, 12), label="d")
    m = data.draw(st.integers(2, 2 * (d + 1)), label="m")
    layout = list(slots(d, range(m)).values())
    slot = data.draw(st.integers(0, m - 1), label="slot")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    pk = trusted_setup(BACKEND, d, b"slots")
    openings = []
    for _ in range(data.draw(st.integers(1, 3), label="dealers")):
        q = random_update(rng, d)
        openings.append((commit(pk, q), create_witness(pk, q, layout[slot])))
    assert verify_share(pk, layout[slot], openings)
    k = data.draw(st.integers(0, len(openings) - 1), label="faulty dealer")
    faults = list(slot_faults(BACKEND, layout, slot, *openings[k]))
    kind, points, c, w = data.draw(st.sampled_from(faults), label="fault")
    assert not verify_share(pk, points, openings[:k] + [(c, w)] + openings[k + 1:]), kind


@pytest.mark.parametrize("d", [1, 3, 6])
def test_a_slot_of_d_plus_1_points_opens_with_the_identity(d):
    """At m = 2 each slot holds d + 1 points, so the quotient is 0: the
    witness is the identity, and any other value is refused, alone or in a
    batch with an honest opening."""
    rng = random.Random(d)
    pk = trusted_setup(BACKEND, d, b"full")
    q = random_update(rng, d)
    c = commit(pk, q)
    layout = list(slots(d, [0, 1]).values())
    ws = [create_witness(pk, q, points) for points in layout]
    assert all(len(w.evals) == d + 1 and w.value == BACKEND.g1_identity for w in ws)
    assert all(verify_share(pk, points, [(c, w)]) for points, w in zip(layout, ws))
    for value in (BACKEND.g1, rng.randrange(1, MOD)):
        bad = Witness(value, ws[0].evals)
        assert not verify_share(pk, layout[0], [(c, bad)])
        assert not verify_share(pk, layout[0], [(c, bad), (c, ws[0])])


def test_failing_dealers_names_only_the_bad_dealers_at_a_slot():
    """Six dealers' bundles for aggregators 1 and 2 (5 and 4 points of a
    degree-6 update over m = 3) are checked as one batch at each slot; with
    one dealer's eval off by one and another dealer's bundle for the other
    aggregator among them, ``failing_dealers`` names those two alone."""
    rng = np.random.default_rng(8)
    pk = trusted_setup(BACKEND, 6, b"s")
    aggregators = [0, 1, 2]
    layout = slots(6, aggregators)
    dealt = [deal(make_update(rng, 6), pk, aggregators, dealer=10 + i) for i in range(6)]
    for agg, other in ((1, 2), (2, 1)):
        points, bundles = layout[agg], [d[agg] for d in dealt]
        assert {len(b.opening.evals) for b in bundles} == {len(points)}
        assert verify_share(pk, points, [(b.entry.commitment, b.opening) for b in bundles])
        assert failing_dealers(bundles, pk, points) == []
        w = bundles[3].opening
        bundles[3] = dataclasses.replace(bundles[3], opening=Witness(w.value, (w.evals[0] + 1,) + w.evals[1:]))
        bundles[4] = dealt[4][other]
        assert failing_dealers(bundles, pk, points) == [13, 14]


def test_slot_openings_on_pairing():
    """Spot check on the Tate-pairing group, d = 3: every slot at m = 2 (the
    identity witness) and m = 3 opens, two dealers' openings at each slot
    verify as one batch, and a wrong eval, a check at another slot's points
    or a non-identity full-slot witness is refused."""
    pairing = get_backend("pairing")
    pk = trusted_setup(pairing, 3, b"pairing-slots")
    rng = random.Random(3)
    q, other = random_update(rng, 3, pairing), random_update(rng, 3, pairing)
    c, c_other = commit(pk, q), commit(pk, other)
    for m in (2, 3):
        layout = list(slots(3, range(m)).values())
        ws = [create_witness(pk, q, points) for points in layout]
        assert all((w.value == pairing.g1_identity) == (m == 2) for w in ws)
        for k, (points, w) in enumerate(zip(layout, ws)):
            honest = (c_other, create_witness(pk, other, points))
            assert verify_share(pk, points, [honest, (c, w)])
            bad = Witness(w.value, ((w.evals[0] + 1) % pairing.order,) + w.evals[1:])
            assert not verify_share(pk, points, [honest, (c, bad)])
            assert not verify_share(pk, layout[(k + 1) % m], [(c, w)])
    full = create_witness(pk, q, slots(3, [0, 1])[0])
    assert not verify_share(pk, slots(3, [0, 1])[0], [(c, Witness(pairing.g1, full.evals))])
