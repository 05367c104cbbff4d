import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chainlearn.committees import (
    ROLE_AGGREGATE,
    ROLE_VERIFY,
    committee_seed,
    draw_committee,
    draw_noisers,
    noiser_seed,
    verify_vrf,
)
from chainlearn.encoding import sha256
from chainlearn.groups import get_backend
from chainlearn.signatures import _challenge, keygen, sign, verify
from chainlearn.stake import KEYSPACE, build_ring, honest_stake_fraction, update_stake

BACKEND = get_backend("exponent")


def _halves(sig: bytes) -> tuple:
    width = len(sig) // 2
    return int.from_bytes(sig[:width], "big"), int.from_bytes(sig[width:], "big")


def _signature(backend, c: int, s: int) -> bytes:
    return c.to_bytes(backend.scalar_size, "big") + s.to_bytes(backend.scalar_size, "big")


@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_signature_roundtrip(name):
    backend = get_backend(name)
    kp = keygen(backend, b"peer0")
    key = kp.public
    sig = sign(backend, kp, b"hello")
    assert len(sig) == {"exponent": 16, "pairing": 64}[name]
    assert verify(backend, key, b"hello", sig)
    assert sig == sign(backend, kp, b"hello"), "signatures must be deterministic"
    # every tampered signature is rejected with False, never an exception
    assert not verify(backend, key, b"other", sig)
    assert not verify(backend, keygen(backend, b"peer1").public, b"hello", sig)
    c, s = _halves(sig)
    assert not verify(backend, key, b"hello", _signature(backend, c, (s + 1) % backend.order))
    assert not verify(backend, key, b"hello", _signature(backend, (c + 1) % backend.order, s))


def malleate(backend, sig: bytes, form: str) -> bytes:
    """A byte string other than ``sig`` that a lenient parser could read as
    the same (c, s) residues, or the same halves out of place."""
    c, s = _halves(sig)
    if form == "c-plus-order":
        return _signature(backend, c + backend.order, s)
    if form == "s-plus-order":
        return _signature(backend, c, s + backend.order)
    if form == "s-leading-zero":
        width = len(sig) // 2
        return sig[:width] + b"\x00" + sig[width:]
    if form == "halves-swapped":
        return _signature(backend, s, c)
    if form == "one-byte-short":
        return sig[:-1]
    return sig + b"\x00"


FORMS = ["c-plus-order", "s-plus-order", "s-leading-zero", "halves-swapped", "one-byte-short", "one-byte-long"]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_malleated_signature_is_refused(name, form):
    """A signature is unique: the keyed committee draws hash it, so a second
    encoding that verifies would let a submitter grind its noiser set."""
    backend = get_backend(name)
    kp = keygen(backend, b"peer0")
    sig = sign(backend, kp, b"hello")
    bad = malleate(backend, sig, form)
    if form.endswith("plus-order"):
        assert len(bad) == len(sig), "the residue plus the order still fits the width"
    assert not verify(backend, kp.public, b"hello", bad)


@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_identity_key_verifies_nothing(name):
    """Anyone can sign under the identity key O, which a chain file's genesis
    may carry: for any s, c = H(s*g, O, m) passes s*g - c*O == s*g."""
    backend = get_backend(name)
    s = 5
    R = backend.msm([backend.g1_base], [s])
    c = _challenge(backend, R, backend.g1_identity, b"hello")
    forged = _signature(backend, c, s)
    assert not verify(backend, backend.prepare_base(backend.g1_identity), b"hello", forged)


@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_plain_and_prepared_keys_give_one_verdict(name):
    """``verify`` and ``verify_vrf`` reach the same verdict under a key and
    under ``prepare_base`` of it: a valid, a tampered and a misplaced
    signature and keyed draw, and the identity key's forgery."""
    backend = get_backend(name)
    kp, other = keygen(backend, b"peer0"), keygen(backend, b"peer1")
    sig = sign(backend, kp, b"hello")
    c, s = _halves(sig)
    R = backend.msm([backend.g1_base], [s])
    forged = _signature(backend, _challenge(backend, R, backend.g1_identity, b"hello"), s)
    tampered = _signature(backend, c, (s + 1) % backend.order)
    ring, prev = build_ring({i: 10 for i in range(8)}), sha256(b"prev")
    noisers, drawn_proof = draw_noisers(backend, kp, 4, ring, prev, 2, 3)
    cases = [
        (kp.public, sig, drawn_proof, True),
        (kp.public, tampered, drawn_proof[::-1], False),
        (other.public, sig, drawn_proof, False),
        (backend.g1_identity, forged, drawn_proof, False),
    ]
    for key, signature, proof, valid in cases:
        plain = tuple(key) if isinstance(key, tuple) else key  # a prepared point is a tuple subclass
        prepared = backend.prepare_base(plain)
        assert verify(backend, plain, b"hello", signature) == verify(backend, prepared, b"hello", signature) == valid
        committee = noisers if valid else ()
        assert verify_vrf(proof, backend, plain, 4, ring, prev, 2, 3) == committee
        assert verify_vrf(proof, backend, prepared, 4, ring, prev, 2, 3) == committee


@pytest.mark.parametrize("name", ["exponent", "pairing"])
@settings(deadline=None)
@given(seed=st.binary(max_size=16), message=st.binary(max_size=64), data=st.data())
def test_signature_property(name, seed, message, data):
    """A signature verifies; any one byte of it flipped, or any one byte of
    the message changed, and it does not."""
    backend = get_backend(name)
    kp = keygen(backend, seed)
    key = kp.public
    sig = sign(backend, kp, message)
    assert verify(backend, key, message, sig)
    bad = bytearray(sig)
    bad[data.draw(st.integers(0, len(sig) - 1), label="at")] ^= data.draw(st.integers(1, 255), label="flip")
    assert not verify(backend, key, message, bytes(bad))
    changed = bytearray(message or b"\x00")
    changed[data.draw(st.integers(0, len(changed) - 1), label="m_at")] ^= data.draw(
        st.integers(1, 255), label="m_flip"
    )
    assert not verify(backend, key, bytes(changed), sig)


def test_single_peer_owns_ring():
    ring = build_ring({7: 10})
    assert ring.ends == (KEYSPACE,)
    assert ring.owner(12345) == 7


def test_interval_measures_proportional():
    ring = build_ring({0: 10, 1: 10, 2: 20})
    assert ring.ends == (KEYSPACE // 4, KEYSPACE // 2, KEYSPACE)


def test_zero_total_stake_rejected():
    with pytest.raises(ValueError):
        build_ring({0: 0, 1: 0})


def test_ring_selection_chi_square():
    stake = {i: 5 + (i % 7) for i in range(40)}
    ring = build_ring(stake)
    rng = np.random.default_rng(0)
    samples = 100_000
    counts = {p: 0 for p in stake}
    for point in rng.integers(0, 1 << 63, size=samples):
        # spread the 63-bit draw across the keyspace deterministically
        counts[ring.owner(int(point) * (KEYSPACE // (1 << 63)))] += 1
    total = sum(stake.values())
    expected = [samples * stake[p] / total for p in sorted(stake)]
    observed = [counts[p] for p in sorted(stake)]
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_draw_all_peers():
    ring = build_ring({i: 10 for i in range(5)})
    out = draw_committee(ring, b"seed", 5)
    assert sorted(out) == list(range(5))


def test_draw_deterministic_and_distinct():
    ring = build_ring({i: 10 for i in range(20)})
    a = draw_committee(ring, b"seed", 6)
    b = draw_committee(ring, b"seed", 6)
    assert a == b
    assert len(set(a)) == 6


def test_draw_too_many_rejected():
    ring = build_ring({i: 10 for i in range(3)})
    with pytest.raises(ValueError):
        draw_committee(ring, b"seed", 4)


def test_draw_exclusion():
    ring = build_ring({i: 10 for i in range(6)})
    out = draw_committee(ring, b"seed", 4, exclude={2})
    assert 2 not in out


def test_uniform_stake_selection_rate():
    ring = build_ring({i: 10 for i in range(100)})
    counts = np.zeros(100)
    draws = 10_000
    for s in range(draws):
        for p in draw_committee(ring, b"seed%d" % s, 3):
            counts[p] += 1
    rates = counts / draws
    # each peer expected in ~3% of draws
    assert abs(rates.mean() - 0.03) < 1e-9
    assert stats.chisquare(counts, np.full(100, draws * 0.03)).pvalue > 0.001


def test_role_tags_give_different_committees():
    ring = build_ring({i: 10 for i in range(30)})
    prev = sha256(b"block")
    sv = committee_seed(b"gpk", prev, ROLE_VERIFY, 4)
    sa = committee_seed(b"gpk", prev, ROLE_AGGREGATE, 4)
    assert sv != sa
    assert draw_committee(ring, sv, 3) != draw_committee(ring, sa, 3)


def test_noiser_seeds_distinct_per_peer():
    prev = sha256(b"block")
    assert noiser_seed(b"pk_a", prev, 1) != noiser_seed(b"pk_b", prev, 1)
    assert noiser_seed(b"pk_a", prev, 1) != noiser_seed(b"pk_a", prev, 2)


def test_global_vrf_verifies():
    """A global draw has no proof: anyone checks it by drawing it again from
    the public seed and their own copy of the stake."""
    stake = {i: 10 + i for i in range(12)}
    seed = committee_seed(b"gpk", sha256(b"prev"), ROLE_VERIFY, 1)
    out = draw_committee(build_ring(stake), seed, 3)
    assert draw_committee(build_ring(dict(stake)), seed, 3) == out


def test_vrf_rejects_member_swap():
    stake = {i: 10 for i in range(12)}
    ring = build_ring(stake)
    seed = committee_seed(b"gpk", sha256(b"prev"), ROLE_VERIFY, 1)
    out = draw_committee(ring, seed, 3)
    swapped = list(out)
    swapped[0] = next(p for p in range(12) if p not in out)
    assert draw_committee(ring, seed, 3) != tuple(swapped)


def test_vrf_rejects_stale_stake():
    stake = {i: 10 for i in range(12)}
    seed = committee_seed(b"gpk", sha256(b"prev"), ROLE_VERIFY, 1)
    out = draw_committee(build_ring(stake), seed, 3)
    newer = dict(stake)
    newer[0] += 500
    assert draw_committee(build_ring(newer), seed, 3) != out


def test_keyed_vrf_verifies_and_binds_to_key():
    ring = build_ring({i: 10 for i in range(12)})
    kp = keygen(BACKEND, b"drawer")
    prev = sha256(b"prev")
    noisers, proof = draw_noisers(BACKEND, kp, 4, ring, prev, 2, 3)
    assert 4 not in noisers
    assert verify_vrf(proof, BACKEND, kp.public, 4, ring, prev, 2, 3) == noisers
    other = keygen(BACKEND, b"other")
    assert verify_vrf(proof, BACKEND, other.public, 4, ring, prev, 2, 3) == ()


def test_public_walk_is_not_a_keyed_draw():
    """The public walk from a peer's noiser seed is a second draw the peer
    could pick or anyone could predict; with no proof, the keyed check under
    that peer's own key draws no committee at all."""
    ring = build_ring({i: 10 for i in range(12)})
    kp = keygen(BACKEND, b"peer4")
    prev = sha256(b"prev")
    seed = noiser_seed(BACKEND.g1_to_bytes(kp.public), prev, 1)
    walk = draw_committee(ring, seed, 3, exclude={4})
    keyed, _ = draw_noisers(BACKEND, kp, 4, ring, prev, 1, 3)
    assert walk != keyed
    assert verify_vrf(b"", BACKEND, kp.public, 4, ring, prev, 1, 3) == ()


@pytest.mark.parametrize("name", ["exponent", "pairing"])
@settings(deadline=None)
@given(
    stake=st.lists(st.integers(1, 50), min_size=4, max_size=12),
    key_seed=st.binary(max_size=8),
    prev=st.binary(min_size=32, max_size=32),
    iteration=st.integers(1, 1000),
    data=st.data(),
)
def test_keyed_draw_property(name, stake, key_seed, prev, iteration, data):
    """A keyed draw's proof walks to its committee for exactly the key, tip,
    round, drawing peer and size it was made for: under another key or tip,
    for another round or with a proof byte flipped it draws nothing, and for
    another drawing peer or size it draws another committee."""
    backend = get_backend(name)
    ring = build_ring(dict(enumerate(stake)))
    n = len(stake)
    peer = data.draw(st.integers(0, n - 1), label="peer")
    k = data.draw(st.integers(1, n - 2), label="k")
    kp = keygen(backend, key_seed)
    key = kp.public
    noisers, proof = draw_noisers(backend, kp, peer, ring, prev, iteration, k)
    assert len(noisers) == k and peer not in noisers

    def drawn(proof=proof, key=key, peer=peer, prev=prev, iteration=iteration, k=k):
        return verify_vrf(proof, backend, key, peer, ring, prev, iteration, k)

    assert drawn() == noisers
    assert drawn(key=keygen(backend, key_seed + b"x").public) == ()
    assert drawn(prev=sha256(prev)) == ()
    assert drawn(iteration=iteration + 1) == ()
    # a drawn member in the drawing peer's place: the walk must skip it
    member = data.draw(st.sampled_from(noisers), label="other_peer")
    other = drawn(peer=member)
    assert member not in other and len(other) in (0, k)
    assert drawn(k=k - 1) == noisers[:-1]
    longer = drawn(k=k + 1)
    assert longer == () or (len(longer) == k + 1 and longer[:k] == noisers)
    flipped = bytearray(proof)
    flipped[data.draw(st.integers(0, len(flipped) - 1), label="at")] ^= data.draw(
        st.integers(1, 255), label="flip"
    )
    assert drawn(proof=bytes(flipped)) == ()
    assert drawn(proof=b"") == ()


def test_update_stake():
    stake = {0: 10, 1: 10, 2: 10}
    after = update_stake(stake, [0, 2, 2], 5)
    assert after == {0: 15, 1: 10, 2: 15}
    assert stake == {0: 10, 1: 10, 2: 10}, "input map untouched"
    assert update_stake(stake, [], 5) == stake
    with pytest.raises(KeyError):
        update_stake(stake, [9], 5)


def test_stake_never_decreases():
    stake = {0: 10, 1: 10}
    after = update_stake(stake, [0], 5)
    assert all(after[p] >= stake[p] for p in stake)


def test_honest_fraction():
    assert honest_stake_fraction({0: 70, 1: 30}, [0]) == pytest.approx(0.7)


def test_committees_change_with_every_block():
    """Seeds bind to the chain tip, so committees cannot be predicted ahead."""
    stake = {i: 10 for i in range(30)}
    ring = build_ring(stake)
    tips = [sha256(b"block-%d" % i) for i in range(6)]
    committees = [
        draw_committee(ring, committee_seed(b"gpk", tip, ROLE_VERIFY, 1), 3)
        for tip in tips
    ]
    assert len(set(committees)) == len(committees)
