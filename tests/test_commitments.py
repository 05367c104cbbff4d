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


def bumped(w, i, by, order):
    """``w`` with its ``i``-th evaluation moved by ``by``."""
    return Witness(w.value, tuple((y + by) % order if j == i else y for j, y in enumerate(w.evals)))


def moved(points, i):
    """``points`` with its ``i``-th point moved past the largest: another
    slot's points, sharing the others."""
    return (*points[:i], points[i] + max(points), *points[i + 1:])


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


def test_one_g1_line_table_per_process():
    """Every key's share check pairs with its first power, g1, and the
    pairing backend prepares g1 as one line table, once per process."""
    backend, pk1 = make_pk("pairing", 4, b"one")
    _, pk2 = make_pk("pairing", 6, b"two")
    table = backend.prepare_pair(backend.g1)
    assert backend.prepare_pair(pk1.powers[0]) is backend.prepare_pair(pk2.powers[0]) is table


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
    centering boundary, at the short-scalar boundary 2^31 on either side of
    0, small negatives stored as residues, and anything; its example count
    comes from the active Hypothesis profile."""
    backend, pk = make_pk(name, 8)
    r = backend.order
    short_edges = [s * k % r for k in (2**31 - 1, 2**31, 2**31 + 1) for s in (1, -1)]
    coeff = st.one_of(
        st.sampled_from([0, 1, r - 1, (r - 1) // 2, (r + 1) // 2, *short_edges]),
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
    assert verify_share(pk, [26], [(commit(pk, phi), w)])
    assert not verify_share(pk, [26], [(commit(pk, phi), bumped(w, 0, 1, r))])


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
    assert verify_share(pk, [5], [(commit(pk, phi), w)])


def test_witness_hand_example(ctx):
    """phi = 3 + 2x + x^2 at z=2: eval 11, quotient x + 4."""
    backend, pk, _ = ctx
    phi = QuantizedPoly((3, 2, 1), backend.order)
    w = create_witness(pk, phi, [2])
    assert w.evals[0] == 11
    quotient = QuantizedPoly((4, 1, 0), backend.order)
    assert w.value == commit(pk, quotient)
    assert verify_share(pk, [2], [(commit(pk, phi), w)])


def test_witness_completeness_all_points(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    for z in range(1, 19):
        assert verify_share(pk, [z], [(c, create_witness(pk, phi, [z]))])


def test_point_zero_reserved(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    with pytest.raises(ValueError):
        create_witness(pk, phi, [0])
    w = create_witness(pk, phi, [1])
    assert not verify_share(pk, [0], [(commit(pk, phi), w)])


def test_soundness_tampered_eval(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    w = create_witness(pk, phi, [3])
    assert not verify_share(pk, [3], [(c, bumped(w, 0, 1, backend.order))])


def test_soundness_wrong_polynomial_witness(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    other = random_poly(rng, 8, backend.order)
    w_other = create_witness(pk, other, [3])
    assert not verify_share(pk, [3], [(commit(pk, phi), w_other)])


def test_binding_distinct_polys_distinct_commitments(ctx):
    backend, pk, rng = ctx
    seen = set()
    for _ in range(50):
        phi = random_poly(rng, 8, backend.order)
        key = backend.g1_to_bytes(commit(pk, phi))
        assert key not in seen
        seen.add(key)


def opened(pk, rng, points=(1, 3, 5, 7)):
    """A random polynomial's commitment and its opening at ``points``."""
    phi = random_poly(rng, 8, pk.backend.order)
    return commit(pk, phi), create_witness(pk, phi, points)


def test_batch_rejects_one_tampered_share_at_every_position(ctx):
    """Three commitments opened at the slot (1, 3, 5, 7) pass as one batch;
    an eval + 1 at any position of any opening, a witness + g1, a check at
    the slot with any one point moved, and an eval + 1 with another - 1 in
    one opening are each refused."""
    backend, pk, rng = ctx
    points = (1, 3, 5, 7)
    openings = [opened(pk, rng, points) for _ in range(3)]
    assert verify_share(pk, points, openings)
    for k, (c, w) in enumerate(openings):
        tampered = {
            **{f"eval {i}": bumped(w, i, 1, backend.order) for i in range(len(points))},
            "witness": Witness(backend.g1_add(w.value, backend.g1), w.evals),
            "cancelling": bumped(bumped(w, 0, 1, backend.order), 1, -1, backend.order),
        }
        for kind, bad in tampered.items():
            assert not verify_share(pk, points, openings[:k] + [(c, bad)] + openings[k + 1:]), (k, kind)
    for i in range(len(points)):
        assert not verify_share(pk, moved(points, i), openings), i


def test_batch_of_identity_witnesses(ctx):
    """A constant polynomial opens to the identity witness at every point set."""
    backend, pk, _ = ctx
    phi = QuantizedPoly((4242,) + (0,) * 8, backend.order)
    c = commit(pk, phi)
    points = (2, 4, 6, 8)
    w = create_witness(pk, phi, points)
    assert w.value == backend.g1_identity and w.evals == (4242,) * 4
    assert verify_share(pk, points, [(c, w), (c, w)])
    assert not verify_share(pk, points, [(c, w), (c, bumped(w, 1, 1, backend.order))])


def test_torsion_inputs_keep_their_verdicts():
    """Adding the 2-torsion point T = (0, 0) to a witness or a commitment
    does not change the pairing check, so these out-of-subgroup inputs are
    accepted, singly and batched, while a wrong evaluation is still refused.
    Decoders do not yet check the subgroup; see ROADMAP."""
    backend, pk = make_pk("pairing", 8)
    rng, points = random.Random(5), (1, 3, 5, 7)
    (c, w), other = opened(pk, rng, points), opened(pk, rng, points)
    T = (0, 0)
    c_T = backend.g1_add(c, T)
    w_T = Witness(backend.g1_add(w.value, T), w.evals)
    for commitment in (c, c_T):
        for opening in (w, w_T):
            assert verify_share(pk, points, [(commitment, opening)])
            assert verify_share(pk, points, [(commitment, opening), other])
        bad = bumped(w_T, 0, 1, backend.order)
        assert not verify_share(pk, points, [(commitment, bad)])
        assert not verify_share(pk, points, [(commitment, bad), other])


def test_batch_weights_deterministic_and_bound_to_every_input(ctx):
    """The weights of a check at one slot are a function of the slot's
    points and every commitment and witness: any change moves every weight."""
    backend, pk, rng = ctx
    points = (1, 3, 5, 7)
    openings = [opened(pk, rng, points) for _ in range(3)]
    rho = batch_weights(pk, points, openings)
    assert rho == batch_weights(pk, list(points), [tuple(one) for one in openings])
    assert len(rho) == len(openings)
    assert all(0 <= r < 1 << 128 for r in rho)
    assert len(set(rho)) == len(rho)
    variants = [batch_weights(pk, moved(points, i), openings) for i in range(len(points))]
    variants.append(batch_weights(pk, points[::-1], openings))
    for k, (c, w) in enumerate(openings):
        for changed in (
            (backend.g1_add(c, backend.g1), w),
            (c, Witness(backend.g1_add(w.value, backend.g1), w.evals)),
            (c, Witness(w.value, w.evals + (0,))),
            *((c, bumped(w, i, 1, backend.order)) for i in range(len(points))),
        ):
            variants.append(batch_weights(pk, points, openings[:k] + [changed] + openings[k + 1:]))
    for other in variants:
        assert all(a != b for a, b in zip(rho, other))


def batch_faults(backend, points, openings):
    """(kind, points, openings) for each fault of the ``(commitment,
    witness)`` batch ``openings`` at the slot ``points``: an eval + 1 at each
    position; an eval + 1 and another - 1, which cancel in an unweighted sum;
    one evaluation too many or too few; two witnesses swapped; two
    commitments swapped; and the batch checked at another slot's points."""
    cells = [(k, i) for k in range(len(openings)) for i in range(len(points))]

    def changed(witnesses={}, commitments={}):
        return [(commitments.get(k, c), witnesses.get(k, w)) for k, (c, w) in enumerate(openings)]

    def bump(cells_by):
        out = {}
        for (k, i), by in cells_by.items():
            out[k] = bumped(out.get(k, openings[k][1]), i, by, backend.order)
        return out

    for k, i in cells:
        yield "eval", points, changed(bump({(k, i): 1}))
    for a, b in combinations(cells, 2):
        yield "cancelling", points, changed(bump({a: 1, b: -1}))
    for k, (_, w) in enumerate(openings):
        yield "count", points, changed({k: Witness(w.value, w.evals + (0,))})
        yield "count", points, changed({k: Witness(w.value, w.evals[:-1])})
    for k, l in combinations(range(len(openings)), 2):
        yield "witnesses", points, changed({k: openings[l][1], l: openings[k][1]})
        yield "commitments", points, changed(commitments={k: openings[l][0], l: openings[k][0]})
    for i in range(len(points)):
        yield "points", moved(points, i), openings


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_batch_over_commitments_refuses_each_fault_anywhere(ctx, count):
    """One check over ``count`` commitments, each opened at the same two
    points, passes when honest and refuses every fault of ``batch_faults``
    at every position."""
    backend, pk, rng = ctx
    points = (2, 5)
    openings = [opened(pk, rng, points) for _ in range(count)]
    assert verify_share(pk, points, openings)
    kinds = Counter()
    for kind, at, bad in batch_faults(backend, points, openings):
        kinds[kind] += 1
        assert not verify_share(pk, at, bad), kind
    assert kinds["eval"] == 2 * count and kinds["commitments"] == count * (count - 1) // 2
    assert kinds["count"] == 2 * count and kinds["points"] == 2


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_batch_over_commitments_fault_property(data):
    """The property form on the exponent group: 1-4 commitments opened at
    1-3 shared points, one drawn fault at a drawn position; its example
    count comes from the active Hypothesis profile."""
    backend, pk = make_pk("exponent", 8)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    points = tuple(data.draw(st.lists(st.integers(1, 2**20), min_size=1, max_size=3, unique=True), label="points"))
    openings = [opened(pk, rng, points) for _ in range(data.draw(st.integers(1, 4), label="count"))]
    assert verify_share(pk, points, openings)
    kind, at, bad = data.draw(st.sampled_from(list(batch_faults(backend, points, openings))), label="fault")
    assert not verify_share(pk, at, bad), kind

