import random

import numpy as np
import pytest

from chainlearn.commitments import (
    CommitPK,
    Witness,
    combine,
    commit,
    create_witness,
    trusted_setup,
    verify_share,
)
from chainlearn.groups import get_backend
from chainlearn.quantize import QuantizedPoly, encode, sum_polys


def make_pk(backend_name, degree, seed=b"ceremony"):
    backend = get_backend(backend_name)
    return backend, trusted_setup(backend, degree, seed)


def random_poly(rng, dim, modulus):
    return QuantizedPoly(tuple(rng.randrange(modulus) for _ in range(dim + 1)), 20, modulus)


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
        lhs = backend.pair(pk.powers[j + 1], pk.g2)
        rhs = backend.pair(pk.powers[j], pk.g2_alpha)
        assert backend.gt_eq(lhs, rhs)


def test_pk_roundtrip():
    backend, pk = make_pk("pairing", 4)
    restored = CommitPK.from_bytes(backend, pk.to_bytes())
    assert restored.to_bytes() == pk.to_bytes()
    with pytest.raises(ValueError):
        CommitPK.from_bytes(backend, pk.to_bytes() + b"\x00")


def test_commit_zero_is_identity(ctx):
    backend, pk, _ = ctx
    zero = QuantizedPoly((0,) * 9, 20, backend.order)
    assert commit(pk, zero).value == backend.g1_identity


def test_commit_inverse_cancels(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    neg = QuantizedPoly(tuple((-c) % backend.order for c in phi.coeffs), 20, backend.order)
    prod = combine(backend, [commit(pk, phi), commit(pk, neg)])
    assert prod.value == backend.g1_identity


def test_homomorphism(ctx):
    backend, pk, rng = ctx
    a = random_poly(rng, 8, backend.order)
    b = random_poly(rng, 8, backend.order)
    lhs = combine(backend, [commit(pk, a), commit(pk, b)])
    rhs = commit(pk, a.add(b))
    assert lhs.value == rhs.value


def test_combine_singleton_and_commutativity(ctx):
    backend, pk, rng = ctx
    cs = [commit(pk, random_poly(rng, 8, backend.order)) for _ in range(4)]
    assert combine(backend, cs[:1]).value == cs[0].value
    shuffled = cs[::-1]
    assert combine(backend, cs).value == combine(backend, shuffled).value
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
    assert lhs.value == rhs.value


def test_degree_overflow_rejected(ctx):
    backend, pk, rng = ctx
    too_big = random_poly(rng, pk.degree + 1, backend.order)
    with pytest.raises(ValueError):
        commit(pk, too_big)


def test_witness_constant_poly(ctx):
    backend, pk, _ = ctx
    c = 321
    phi = QuantizedPoly((c,) + (0,) * 8, 20, backend.order)
    w = create_witness(pk, phi, 5)
    assert w.eval == c
    assert w.value == backend.g1_identity
    assert verify_share(pk, commit(pk, phi), w)


def test_witness_hand_example(ctx):
    """phi = 3 + 2x + x^2 at z=2: eval 11, quotient x + 4."""
    backend, pk, _ = ctx
    phi = QuantizedPoly((3, 2, 1), 20, backend.order)
    w = create_witness(pk, phi, 2)
    assert w.eval == 11
    quotient = QuantizedPoly((4, 1, 0), 20, backend.order)
    assert w.value == commit(pk, quotient).value
    assert verify_share(pk, commit(pk, phi), w)


def test_witness_completeness_all_points(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    for z in range(1, 19):
        assert verify_share(pk, c, create_witness(pk, phi, z))


def test_point_zero_reserved(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    with pytest.raises(ValueError):
        create_witness(pk, phi, 0)
    w = create_witness(pk, phi, 1)
    assert not verify_share(pk, commit(pk, phi), Witness(w.value, 0, w.eval))


def test_soundness_tampered_eval(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    c = commit(pk, phi)
    w = create_witness(pk, phi, 3)
    bad = Witness(w.value, w.point, (w.eval + 1) % backend.order)
    assert not verify_share(pk, c, bad)


def test_soundness_wrong_polynomial_witness(ctx):
    backend, pk, rng = ctx
    phi = random_poly(rng, 8, backend.order)
    other = random_poly(rng, 8, backend.order)
    w_other = create_witness(pk, other, 3)
    assert not verify_share(pk, commit(pk, phi), w_other)


def test_binding_distinct_polys_distinct_commitments(ctx):
    backend, pk, rng = ctx
    seen = set()
    for _ in range(50):
        phi = random_poly(rng, 8, backend.order)
        key = backend.g1_to_bytes(commit(pk, phi).value)
        assert key not in seen
        seen.add(key)
