import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.commitments import (
    CommitPK,
    Witness,
    batch_weights,
    combine,
    commit,
    create_witness,
    trusted_setup,
    verify_share,
)
from chainlearn.encoding import u32
from chainlearn.groups import get_backend
from chainlearn.polynomials import poly_eval
from chainlearn.quantize import QuantizedPoly, encode, sum_polys


def make_pk(backend_name, degree, seed=b"ceremony"):
    backend = get_backend(backend_name)
    return backend, trusted_setup(backend, degree, seed)


def at_point(value, point, eval):
    """A one-point opening."""
    return Witness(value, (point,), (eval,))


def flat(openings):
    """The ``(commitment, witness)`` pairs of ``(commitment, witnesses)`` pairs."""
    return [(c, w) for c, ws in openings for w in ws]


def random_poly(rng, dim, modulus):
    return QuantizedPoly(tuple(rng.randrange(modulus) for _ in range(dim + 1)), modulus)


@pytest.fixture(params=["exponent", "pairing"])
def ctx(request):
    backend, pk = make_pk(request.param, 8)
    return backend, pk, random.Random(42)


def test_setup_deterministic():
    _, pk1 = make_pk("exponent", 5, b"s")
    _, pk2 = make_pk("exponent", 5, b"s")
    assert pk1.to_bytes() == pk2.to_bytes()
    _, pk3 = make_pk("exponent", 5, b"t")
    assert pk1.to_bytes() != pk3.to_bytes()


def test_setup_length_for_25_dim_updates():
    backend, pk = make_pk("exponent", 25)
    assert len(pk.powers) == 26


def test_setup_pairing_consistency():
    backend, pk = make_pk("pairing", 6)
    for j in range(pk.degree):
        lhs = backend.pair(pk.powers[j + 1], pk.powers[0])
        rhs = backend.pair(pk.powers[j], pk.powers[1])
        assert lhs == rhs


def test_pk_roundtrip():
    backend, pk = make_pk("pairing", 4)
    restored = CommitPK.from_bytes(backend, pk.to_bytes())
    assert restored.to_bytes() == pk.to_bytes()
    with pytest.raises(ValueError):
        CommitPK.from_bytes(backend, pk.to_bytes() + b"\x00")
    # the share check pairs with the first two powers, so a key needs both
    with pytest.raises(ValueError, match="two powers"):
        CommitPK.from_bytes(backend, u32(1) + backend.g1_to_bytes(pk.powers[0]))


@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_pk_first_power_must_be_g1(name):
    """``commit`` multiplies the blinding slot by g1's comb, so a key whose
    first power is not g1 would commit to another polynomial: it is refused."""
    backend, pk = make_pk(name, 4)
    for first in (backend.g1_add(backend.g1, backend.g1), backend.g1_identity, pk.powers[1]):
        data = u32(len(pk.powers)) + b"".join(backend.g1_to_bytes(pw) for pw in [first, *pk.powers[1:]])
        with pytest.raises(ValueError, match="g1"):
            CommitPK.from_bytes(backend, data)


def test_commit_zero_is_identity(ctx):
    backend, pk, _ = ctx
    zero = QuantizedPoly((0,) * 9, backend.order)
    assert commit(pk, zero) == backend.g1_identity


def test_commit_inverse_cancels(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    neg = QuantizedPoly(tuple((-c) % backend.order for c in phi.coeffs), backend.order)
    prod = combine(backend, [commit(pk, phi), commit(pk, neg)])
    assert prod == backend.g1_identity


def test_homomorphism(ctx):
    backend, pk, rng = ctx
    a = random_poly(rng, 8, backend.order)
    b = random_poly(rng, 8, backend.order)
    lhs = combine(backend, [commit(pk, a), commit(pk, b)])
    rhs = commit(pk, a.add(b))
    assert lhs == rhs


def test_combine_singleton_and_commutativity(ctx):
    backend, pk, rng = ctx
    cs = [commit(pk, random_poly(rng, 8, backend.order)) for _ in range(4)]
    assert combine(backend, cs[:1]) == cs[0]
    shuffled = cs[::-1]
    assert combine(backend, cs) == combine(backend, shuffled)
    with pytest.raises(ValueError):
        combine(backend, [])


def test_combine_over_35_updates_matches_summed_poly():
    backend, pk = make_pk("exponent", 25)
    rng = np.random.default_rng(7)
    polys = []
    for _ in range(35):
        v = rng.normal(size=25)
        v /= np.linalg.norm(v)
        polys.append(encode(v, int(rng.integers(0, backend.order)), backend.order))
    lhs = combine(backend, [commit(pk, q) for q in polys])
    rhs = commit(pk, sum_polys(polys))
    assert lhs == rhs


def naive_commit(pk, coeffs):
    backend = pk.backend
    acc = backend.g1_identity
    for P, c in zip(pk.powers, coeffs):
        acc = backend.g1_add(acc, backend.g1_mul(P, c))
    return acc


@pytest.mark.parametrize("name", ["exponent", "pairing"])
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_commit_matches_naive_fold(name, data):
    """``commit`` is the sum of c_j * alpha^j * g1 for coefficients at the
    centering boundary, small negatives stored as residues, and anything;
    its example count comes from the active Hypothesis profile."""
    backend, pk = make_pk(name, 8)
    r = backend.order
    coeff = st.one_of(
        st.sampled_from([0, 1, r - 1, (r - 1) // 2, (r + 1) // 2]),
        st.integers(-(1 << 40), -1).map(lambda k: k % r),
        st.integers(0, r - 1),
    )
    coeffs = tuple(data.draw(st.lists(coeff, min_size=1, max_size=pk.degree + 1)))
    assert commit(pk, QuantizedPoly(coeffs, r)) == naive_commit(pk, coeffs)


@pytest.mark.parametrize("name", ["exponent", "pairing"])
def test_degree_12_witness_far_from_zero(name):
    """Quotient coefficients at z grow by about log2(z) bits per step, so
    the longest scalars a commit takes are those of a degree-12 update's
    quotient at its last share point, 26 = 2 * (12 + 1)."""
    backend, pk = make_pk(name, 12)
    rng = random.Random(26)
    r = backend.order
    coeffs = (rng.randrange(r),) + tuple(rng.randint(-(1 << 20), 1 << 20) % r for _ in range(12))
    phi = QuantizedPoly(coeffs, r)
    w = create_witness(pk, phi, [26])
    assert w.evals[0] == poly_eval(list(coeffs), 26, r)
    quotient = [sum(coeffs[i] * 26 ** (i - j - 1) for i in range(j + 1, 13)) for j in range(12)]
    assert w.value == naive_commit(pk, quotient)
    assert verify_share(pk, [(commit(pk, phi), w)])
    assert not verify_share(pk, [(commit(pk, phi), at_point(w.value, 26, (w.evals[0] + 1) % r))])


def test_degree_overflow_rejected(ctx):
    backend, pk, rng = ctx
    too_big = random_poly(rng, pk.degree + 1, backend.order)
    with pytest.raises(ValueError):
        commit(pk, too_big)


def test_witness_constant_poly(ctx):
    backend, pk, _ = ctx
    c = 321
    phi = QuantizedPoly((c,) + (0,) * 8, backend.order)
    w = create_witness(pk, phi, [5])
    assert w.evals[0] == c
    assert w.value == backend.g1_identity
    assert verify_share(pk, [(commit(pk, phi), w)])


def test_witness_hand_example(ctx):
    """phi = 3 + 2x + x^2 at z=2: eval 11, quotient x + 4."""
    backend, pk, _ = ctx
    phi = QuantizedPoly((3, 2, 1), backend.order)
    w = create_witness(pk, phi, [2])
    assert w.evals[0] == 11
    quotient = QuantizedPoly((4, 1, 0), backend.order)
    assert w.value == commit(pk, quotient)
    assert verify_share(pk, [(commit(pk, phi), w)])


def test_witness_completeness_all_points(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    for z in range(1, 19):
        assert verify_share(pk, [(c, create_witness(pk, phi, [z]))])


def test_point_zero_reserved(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    with pytest.raises(ValueError):
        create_witness(pk, phi, [0])
    w = create_witness(pk, phi, [1])
    assert not verify_share(pk, [(commit(pk, phi), at_point(w.value, 0, w.evals[0]))])


def test_soundness_tampered_eval(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    w = create_witness(pk, phi, [3])
    bad = at_point(w.value, w.points[0], (w.evals[0] + 1) % backend.order)
    assert not verify_share(pk, [(c, bad)])


def test_soundness_wrong_polynomial_witness(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    other = random_poly(rng, 8, backend.order)
    w_other = create_witness(pk, other, [3])
    assert not verify_share(pk, [(commit(pk, phi), w_other)])


def test_binding_distinct_polys_distinct_commitments(ctx):
    backend, pk, rng = ctx
    seen = set()
    for _ in range(50):
        phi = random_poly(rng, 8, backend.order)
        key = backend.g1_to_bytes(commit(pk, phi))
        assert key not in seen
        seen.add(key)


def opened_bundle(pk, rng, points=(1, 3, 5, 7)):
    phi = random_poly(rng, 8, pk.backend.order)
    return commit(pk, phi), [create_witness(pk, phi, [z]) for z in points]


def test_batch_rejects_one_tampered_share_at_every_position(ctx):
    backend, pk, rng = ctx
    c, shares = opened_bundle(pk, rng)
    assert verify_share(pk, flat([(c, shares)]))
    for i, w in enumerate(shares):
        tampered = {
            "eval": at_point(w.value, w.points[0], (w.evals[0] + 1) % backend.order),
            "witness": at_point(backend.g1_add(w.value, backend.g1), w.points[0], w.evals[0]),
            "point": at_point(w.value, w.points[0] + 10, w.evals[0]),
        }
        for kind, bad in tampered.items():
            batch = shares[:i] + [bad] + shares[i + 1:]
            assert not verify_share(pk, flat([(c, batch)])), (i, kind)
    # two evaluation errors that cancel in an unweighted sum
    up, down = shares[0], shares[1]
    cancelling = [
        at_point(up.value, up.points[0], (up.evals[0] + 1) % backend.order),
        at_point(down.value, down.points[0], (down.evals[0] - 1) % backend.order),
        *shares[2:],
    ]
    assert not verify_share(pk, flat([(c, cancelling)]))


def test_batch_of_identity_witnesses(ctx):
    """A constant polynomial opens to the identity witness at every point."""
    backend, pk, _ = ctx
    phi = QuantizedPoly((4242,) + (0,) * 8, backend.order)
    c = commit(pk, phi)
    shares = [create_witness(pk, phi, [z]) for z in (2, 4, 6, 8)]
    assert all(w.value == backend.g1_identity for w in shares)
    assert verify_share(pk, flat([(c, shares)]))
    shares[1] = at_point(shares[1].value, shares[1].points[0], 4243)
    assert not verify_share(pk, flat([(c, shares)]))


def test_torsion_inputs_keep_their_verdicts():
    """Adding the 2-torsion point T = (0, 0) to a witness or a commitment
    does not change the pairing check, so these out-of-subgroup inputs are
    accepted, singly and batched, while a wrong evaluation is still refused.
    Decoders do not yet check the subgroup; see ROADMAP."""
    backend, pk = make_pk("pairing", 8)
    c, shares = opened_bundle(pk, random.Random(5))
    T = (0, 0)
    c_T = backend.g1_add(c, T)
    shares_T = [at_point(backend.g1_add(w.value, T), w.points[0], w.evals[0]) for w in shares]
    for commitment in (c, c_T):
        for batch in (shares, shares_T):
            assert verify_share(pk, [(commitment, batch[0])])
            assert verify_share(pk, flat([(commitment, batch)]))
        bad = at_point(shares_T[0].value, shares_T[0].points[0], (shares_T[0].evals[0] + 1) % backend.order)
        assert not verify_share(pk, [(commitment, bad)])
        assert not verify_share(pk, flat([(commitment, [bad, *shares_T[1:]])]))


def test_batch_weights_deterministic_and_bound_to_every_input(ctx):
    backend, pk, rng = ctx
    c, shares = opened_bundle(pk, rng)
    rho = batch_weights(pk, flat([(c, shares)]))
    assert rho == batch_weights(pk, flat([(c, list(shares))]))
    assert len(rho) == len(shares)
    assert all(0 <= r < 1 << 128 for r in rho)
    assert len(set(rho)) == len(rho)
    variants = [batch_weights(pk, flat([(backend.g1_add(c, backend.g1), shares)]))]
    for i, w in enumerate(shares):
        for changed in (
            at_point(w.value, w.points[0] + 1, w.evals[0]),
            at_point(w.value, w.points[0], w.evals[0] + 1),
            at_point(backend.g1_add(w.value, backend.g1), w.points[0], w.evals[0]),
        ):
            variants.append(batch_weights(pk, flat([(c, shares[:i] + [changed] + shares[i + 1:])])))
    for other in variants:
        assert all(a != b for a, b in zip(rho, other))


def batch_faults(backend, openings):
    """(kind, openings) for each fault at each position of the
    ``(commitment, witnesses)`` batch ``openings``: an eval + 1; an eval + 1
    and another - 1, which cancel in an unweighted sum; a witness swapped
    with another commitment's at the same point; two commitments swapped."""
    slots = [(k, i) for k, (_, ws) in enumerate(openings) for i in range(len(ws))]

    def changed(cells):
        out = [[c, list(ws)] for c, ws in openings]
        for (k, i), value in cells.items():
            if i is None:
                out[k][0] = value
            else:
                out[k][1][i] = value
        return out

    def bumped(k, i, by):
        w = openings[k][1][i]
        return at_point(w.value, w.points[0], (w.evals[0] + by) % backend.order)

    for k, i in slots:
        yield "eval", changed({(k, i): bumped(k, i, 1)})
    for (k, i), (l, j) in combinations(slots, 2):
        yield "cancelling", changed({(k, i): bumped(k, i, 1), (l, j): bumped(l, j, -1)})
    for k, l in combinations(range(len(openings)), 2):
        yield "commitments", changed({(k, None): openings[l][0], (l, None): openings[k][0]})
        for i in range(len(openings[k][1])):
            yield "witness", changed({(k, i): openings[l][1][i], (l, i): openings[k][1][i]})


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_batch_over_commitments_refuses_each_fault_anywhere(ctx, count):
    """One check over ``count`` commitments, each opened at the same two
    points, passes when honest and refuses every fault of ``batch_faults``
    at every position."""
    backend, pk, rng = ctx
    openings = [opened_bundle(pk, rng, points=(2, 5)) for _ in range(count)]
    assert verify_share(pk, flat(openings))
    kinds = Counter()
    for kind, bad in batch_faults(backend, openings):
        kinds[kind] += 1
        assert not verify_share(pk, flat(bad)), kind
    assert kinds["eval"] == 2 * count and kinds["commitments"] == count * (count - 1) // 2


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_batch_over_commitments_fault_property(data):
    """The property form on the exponent group: 1-4 commitments opened at
    1-3 shared points, one drawn fault at a drawn position; its example
    count comes from the active Hypothesis profile."""
    backend, pk = make_pk("exponent", 8)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    points = data.draw(st.lists(st.integers(1, 2**20), min_size=1, max_size=3, unique=True), label="points")
    openings = [opened_bundle(pk, rng, points) for _ in range(data.draw(st.integers(1, 4), label="count"))]
    assert verify_share(pk, flat(openings))
    kind, bad = data.draw(st.sampled_from(list(batch_faults(backend, openings))), label="fault")
    assert not verify_share(pk, flat(bad)), kind
