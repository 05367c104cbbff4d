import dataclasses

import numpy as np
import pytest

from chainlearn.commitments import Witness, combine, commit, trusted_setup, verify_share
from chainlearn.groups import get_backend
from chainlearn import signatures
from chainlearn.ledger import CommitmentEntry, SignOff, SignOffChecks, pair_records, sign_off
from chainlearn.quantize import decode, encode, sum_polys
from chainlearn.signatures import keygen, sign
from chainlearn.vss import (
    ShareRecoveryError,
    accept_bundle,
    failing_dealers,
    recover_aggregate,
    slots,
    sum_shares,
)

from conftest import deal, resplit

BACKEND = get_backend("exponent")
MOD = BACKEND.order


def pairs(bundle):
    """The (point, value) pairs that a lone dealer's ``bundle`` sums to."""
    return [(w.point, w.eval) for w in bundle.shares]


def make_update(rng, d):
    v = rng.normal(size=d)
    v /= max(np.linalg.norm(v), 1.0)
    return encode(v, int(rng.integers(0, MOD)), MOD)


def test_point_count_formula():
    assert sorted(z for pts in slots(25, ["a", "b", "c"]).values() for z in pts) == list(range(1, 53))
    assert slots(2, [7, 9]) == {7: [1, 3, 5], 9: [2, 4, 6]}


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
    for b in bundles.values():
        assert b.entry.commitment == c
        for w in b.shares:
            assert verify_share(pk, [(c, [w])])


def test_too_many_aggregators_rejected():
    assert len(slots(2, range(6))) == 6
    with pytest.raises(ValueError, match="7 aggregators for only 6 share points"):
        slots(2, range(7))
    with pytest.raises(ValueError, match="at least two aggregators"):
        slots(2, [0])
    with pytest.raises(ValueError, match="for only 6 share points"):
        slots(2, range(1 << 62))  # refused on its length, before any slot is built


def test_accept_bundle_majority_and_shares(monkeypatch):
    rng = np.random.default_rng(1)
    pk = trusted_setup(BACKEND, 4, b"s")
    q = make_update(rng, 4)
    verifiers, aggregators, dealer, iteration = (0, 1, 2), (3, 4), 7, 1
    keys = {i: keygen(BACKEND, bytes([i])) for i in (0, 1, 2, 3, 4, dealer)}
    pubkeys = {i: kp.public for i, kp in keys.items()}
    # another winner beside the dealer: a sign-off names all of them
    entry, other = CommitmentEntry(dealer, commit(pk, q)), CommitmentEntry(5, commit(pk, q))
    signoffs = tuple(sign_off(BACKEND, keys[vid], iteration, vid, [other, entry]) for vid in verifiers)
    bundles = deal(q, pk, [0, 1], dealer, signoffs)
    bundle, points = bundles[0], slots(4, [0, 1])[0]
    checks, checked = SignOffChecks(iteration, pubkeys, BACKEND), []
    verify = signatures.verify

    def counted(backend, public, message, signature):
        checked.append(public)
        return verify(backend, public, message, signature)

    monkeypatch.setattr(signatures, "verify", counted)

    def accepts(b):
        return accept_bundle(b, verifiers, aggregators, pubkeys, pk, points, checks)

    def with_entry(**changes):
        return dataclasses.replace(bundle, entry=dataclasses.replace(bundle.entry, **changes))

    def with_sigs(signoff_list):
        return dataclasses.replace(bundle, signoffs=tuple(signoff_list))

    assert accepts(bundle) and accepts(bundles[0])
    assert checked == [pubkeys[vid] for vid in verifiers]  # each sign-off checked once a round
    # equal copies, not the same objects: the memo is keyed by value
    assert accepts(with_sigs(dataclasses.replace(s) for s in signoffs))
    assert len(checked) == len(verifiers)

    # another aggregator's shares open the commitment, but not at these points
    assert not accepts(bundles[1])

    # exactly half (1 of 3 -> floor majority boundary: 1 <= 1) is not enough
    assert not accepts(with_sigs(signoffs[:1]))
    # a majority that names another peer's pair does not name the dealer's
    others = [sign_off(BACKEND, keys[vid], iteration, vid, [other]) for vid in verifiers]
    assert not accepts(with_sigs(others))

    # a forged eval passes the gates and fails the pooled opening check
    bad_shares = list(bundle.shares)
    w = bad_shares[0]
    bad_shares[0] = Witness(w.value, w.point, (w.eval + 1) % MOD)
    forged = dataclasses.replace(bundle, shares=tuple(bad_shares))
    assert accepts(forged)
    assert failing_dealers([forged], pk) == [dealer] and failing_dealers([bundle], pk) == []

    # a sign-off from outside the committee does not count
    outsider = keygen(BACKEND, b"outsider")
    pubkeys[9] = outsider.public
    assert not accepts(with_sigs([sign_off(BACKEND, outsider, iteration, 9, [entry])]))

    # a valid majority padded with one bad sign-off fails the block rule, so
    # the bundle is refused here rather than minted into a block replicas reject
    mine = tuple(pair_records([entry], BACKEND))
    assert not accepts(with_sigs(signoffs + (SignOff(9, mine, b"\x00" * 16),)))
    wrong = SignOff(2, mine, sign(BACKEND, keys[2], b"wrong message"))
    assert not accepts(with_sigs(signoffs[:2] + (wrong,)))
    assert not accepts(with_sigs(signoffs + signoffs[2:]))  # a verifier twice
    assert not accepts(with_sigs(signoffs[::-1]))  # not in ascending verifier order
    # the winners out of order: the signature covers them, but not as listed
    unsorted = dataclasses.replace(signoffs[0], winners=signoffs[0].winners[::-1])
    assert not accepts(with_sigs((unsorted,) + signoffs[1:]))
    # same signature, other winners: worked out on its own, and the original stands
    assert not checks[unsorted] and checks[signoffs[0]]
    # the signed bytes cut into records at other boundaries: the same message,
    # but records a block, which reads them back at pair size, cannot hold
    recut = dataclasses.replace(signoffs[0], winners=resplit(signoffs[0].winners))
    assert recut.winners is not None and b"".join(recut.winners) == b"".join(signoffs[0].winners)
    assert not accepts(with_sigs((recut,) + signoffs[1:]))
    assert not checks[recut] and checks[signoffs[0]]

    # a committee member may not contribute
    assert not accepts(with_entry(peer=3))

    # a dealer outside genesis is refused, as the block rule refuses its entry
    del pubkeys[dealer]
    assert not accepts(bundle)


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
    assert sum_shares([b], BACKEND) == tuple(w.eval for w in b.shares)


def test_recover_hand_example():
    """phi = 3 + 2x + x^2 from shares {1: 6, 2: 11, 3: 18}."""
    pk = trusted_setup(BACKEND, 2, b"s")
    from chainlearn.quantize import QuantizedPoly

    q = QuantizedPoly((3, 2, 1), MOD)
    c = commit(pk, q)
    bundles = deal(q, pk, [0, 1, 2], dealer=0)
    agg = [s for b in bundles.values() for s in pairs(b)]
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
    all_shares = [s for b in bundles.values() for s in pairs(b)]
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
    shares = [s for b in bundles.values() for s in pairs(b)]
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
    shares = sorted(s for b in bundles.values() for s in pairs(b))
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
