import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.groups import (
    _P,
    _R,
    _comb_adds,
    _comb_level,
    _f2_mul,
    _f2_pow,
    _f2_sqr,
    _final_exp,
    _jac_dbl,
    _jac_madd,
    _pt_add_many,
    _pt_neg,
    _to_affine,
    get_backend,
)
from chainlearn.signatures import keygen

BACKENDS = ["exponent", "pairing"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


def gt_mul(backend, a, b):
    """Target-group product: F_p2 multiplication on the curve, the sum of
    exponents on the debug group."""
    return _f2_mul(a, b) if backend.name == "pairing" else (a + b) % backend.order


def test_generator_order(backend):
    assert backend.g1_mul(backend.g1, backend.order) == backend.g1_identity


def test_scalar_mul_matches_repeated_add(backend):
    acc = backend.g1_identity
    for k in range(8):
        assert backend.g1_mul(backend.g1, k) == acc
        acc = backend.g1_add(acc, backend.g1)


def test_pairing_bilinear(backend):
    rng = random.Random(11)
    e_gg = backend.pair(backend.g1, backend.g1)
    assert e_gg != backend.gt_one, "pairing must be non-degenerate"
    for _ in range(3):
        a = rng.randrange(1, backend.order)
        b = rng.randrange(1, backend.order)
        lhs = backend.pair(backend.g1_mul(backend.g1, a), backend.g1_mul(backend.g1, b))
        assert lhs == backend.gt_pow(e_gg, a * b)


def test_pairing_additive_in_first_argument(backend):
    P1 = backend.g1_mul(backend.g1, 111)
    P2 = backend.g1_mul(backend.g1, 222)
    g = backend.g1
    lhs = backend.pair(backend.g1_add(P1, P2), g)
    assert lhs == gt_mul(backend, backend.pair(P1, g), backend.pair(P2, g))


def test_pair_with_identity_is_one(backend):
    assert backend.pair(backend.g1_identity, backend.g1) == backend.gt_one
    assert backend.pair(backend.g1, backend.g1_identity) == backend.gt_one


def random_points(backend, rng, n):
    return [backend.g1_mul(backend.g1, rng.randrange(1, backend.order)) for _ in range(n)]


def test_multi_pair_two_terms_is_product_of_pairs(backend):
    rng = random.Random(12)
    for _ in range(2):
        P1, P2, Q1, Q2 = random_points(backend, rng, 4)
        product = backend.multi_pair(
            (backend.prepare_pair(P1), backend.prepare_pair(P2)), (Q1, Q2)
        )
        assert product == gt_mul(backend, backend.pair(P1, Q1), backend.pair(P2, Q2))


def test_multi_pair_one_term_is_pair(backend):
    rng = random.Random(13)
    P, Q = random_points(backend, rng, 2)
    assert backend.multi_pair((backend.prepare_pair(P),), (Q,)) == backend.pair(P, Q)
    # the pairing is symmetric, which lets a fixed second argument drive the loop
    assert backend.pair(P, Q) == backend.pair(Q, P)


def test_multi_pair_identity_terms_drop_out(backend):
    rng = random.Random(14)
    P, Q = random_points(backend, rng, 2)
    O = backend.g1_identity
    lines_P, lines_O = backend.prepare_pair(P), backend.prepare_pair(O)
    e_PQ = backend.pair(P, Q)
    assert backend.multi_pair((lines_P, lines_P), (Q, O)) == e_PQ
    assert backend.multi_pair((lines_O, lines_P), (Q, Q)) == e_PQ
    assert backend.multi_pair((lines_P, lines_O), (O, Q)) == backend.gt_one
    assert backend.multi_pair((), ()) == backend.gt_one


def textbook_tate(P, Q, p=_P):
    """Reference Tate pairing e(P, psi(Q)): Miller's loop in affine
    coordinates, one inversion per line, psi(x, y) = (-x, i*y)."""
    xd, yq = (-Q[0]) % p, Q[1]

    def step(f, S, T):
        """f times the line through S and T at psi(Q), and S + T."""
        (x1, y1), (x2, y2) = S, T
        if x1 == x2 and (y1 + y2) % p == 0:
            return f, None  # vertical: F_p-rational, killed by the final exponentiation
        if S == T:
            lam = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        line = ((lam * (x1 - xd) - y1) % p, yq)
        return _f2_mul(f, line), (x3, (lam * (x1 - x3) - y1) % p)

    f, S = (1, 0), P
    for bit in bin(_R)[3:]:
        f, S = step(_f2_sqr(f), S, S)
        if bit == "1":
            f, S = step(f, S, P)
    return _final_exp(f)


def test_pair_matches_textbook_miller_loop():
    backend = get_backend("pairing")
    P, Q = random_points(backend, random.Random(15), 2)
    Q_torsion = backend.g1_add(Q, (0, 0))  # plus the 2-torsion point
    for a, b in ((P, Q), (Q, P), (P, Q_torsion), (backend.g1, backend.g1)):
        assert backend.pair(a, b) == textbook_tate(a, b)


def test_element_roundtrip(backend):
    for k in [0, 1, 2, 12345, backend.order - 1]:
        P = backend.g1_mul(backend.g1, k)
        data = backend.g1_to_bytes(P)
        assert len(data) == backend.element_size
        assert backend.g1_from_bytes(data) == P


def test_neg_cancels(backend):
    P = backend.g1_mul(backend.g1, 777)
    assert backend.g1_add(P, backend.msm([P], [-1])) == backend.g1_identity


def test_from_bytes_rejects_garbage(backend):
    with pytest.raises(ValueError):
        backend.g1_from_bytes(b"\xff" * (backend.element_size + 3))


@pytest.mark.parametrize("flag", [0x01, 0x04, 0x06, 0x07, 0xFF])
def test_from_bytes_refuses_other_flags(flag):
    """Only 0x02 and 0x03 name a point: 0xff once decoded to g1 as well."""
    backend = get_backend("pairing")
    data = backend.g1_to_bytes(backend.g1)
    with pytest.raises(ValueError, match="flag"):
        backend.g1_from_bytes(bytes([flag]) + data[1:])


def test_from_bytes_refuses_identity_with_trailing_bytes():
    backend = get_backend("pairing")
    with pytest.raises(ValueError, match="identity"):
        backend.g1_from_bytes(b"\x00" + backend.g1_to_bytes(backend.g1)[1:])


def test_from_bytes_refuses_odd_flag_for_y_zero():
    """(0, 0) has y = 0, which is even: its odd flag once decoded to (0, p)."""
    backend = get_backend("pairing")
    assert backend.g1_from_bytes(b"\x02" + bytes(64)) == (0, 0)
    with pytest.raises(ValueError):
        backend.g1_from_bytes(b"\x03" + bytes(64))


def ladder_mul(backend, P, k):
    """Reference scalar multiplication: affine double-and-add over g1_add."""
    out, k = backend.g1_identity, k % backend.order
    while k:
        if k & 1:
            out = backend.g1_add(out, P)
        P = backend.g1_add(P, P)
        k >>= 1
    return out


def naive_msm(backend, points, scalars):
    acc = backend.g1_identity
    for P, k in zip(points, scalars):
        acc = backend.g1_add(acc, backend.g1_mul(P, k))
    return acc


def point_pool(backend):
    """Identity, P, -P and an unrelated Q: draws from it repeat and cancel bases."""
    P = backend.g1_mul(backend.g1, 0xC0FFEE)
    return [backend.g1_identity, P, backend.msm([P], [-1]), backend.g1_mul(backend.g1, 12345)]


@pytest.mark.parametrize("name", BACKENDS)
def test_g1_mul_matches_ladder_at_edge_scalars(name):
    backend = get_backend(name)
    _, P, _, _ = point_pool(backend)
    r = backend.order
    for k in [0, 1, r - 1, r, r + 1, -1, 0xDEADBEEF, r // 3, (r - 1) // 2, (r + 1) // 2]:
        assert backend.g1_mul(P, k) == ladder_mul(backend, P, k), k
    assert backend.g1_mul(P, r - 1) == backend.msm([P], [-1])
    assert backend.g1_mul(P, r + 1) == P


@pytest.mark.parametrize("name", BACKENDS)
def test_msm_edge_cases(name):
    backend = get_backend(name)
    O, P, negP, Q = point_pool(backend)
    r = backend.order
    k = 0x1234567890ABCDEF1234567890ABCDEF % r
    cases = [
        ([], []),
        ([P, Q], [0, 0]),
        ([O, O], [5, r - 2]),
        ([P, P], [1, 1]),  # doubling fallback on the first addition
        ([P, P], [k, k]),
        ([P, negP], [1, 1]),  # cancellation to the identity
        ([P, negP, Q], [k, k, 7]),
        ([P, Q], [-1, r + 1]),
        ([P, Q, P], [3 * r - 5, -k, r]),
        ([P, Q], [(r - 1) // 2, (r + 1) // 2]),  # the last residue kept, the first one negated
        ([P, negP, Q], [(r + 1) // 2, (r - 1) // 2, -(r + 1) // 2]),
    ]
    for points, scalars in cases:
        assert backend.msm(points, scalars) == naive_msm(backend, points, scalars), scalars
    assert backend.msm([], []) == backend.g1_identity
    assert backend.msm([P, negP], [k, k]) == backend.g1_identity


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_msm_matches_naive_fold(name, data):
    backend = get_backend(name)
    pool = point_pool(backend)
    r = backend.order
    scalar = st.one_of(
        st.integers(-3 * r, 3 * r),
        st.sampled_from([0, 1, -1, r - 1, r, r + 1]),
    )
    terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), scalar), max_size=4))
    points = [P for P, _ in terms]
    scalars = [k for _, k in terms]
    assert backend.msm(points, scalars) == naive_msm(backend, points, scalars)


# g1, a keygen key (plain here), the identity and the 2-torsion point, which
# a genesis read from a chain file can carry as a key: a comb built naively
# on the last two would raise; g1 once more, prepared as ``g1_base`` with its
# 12-tooth comb, where ``prepare_base`` gives the others 8 teeth
FIXED_BASES = {
    "g1": get_backend("pairing").g1,
    "g1_base": get_backend("pairing").g1,
    "key": tuple(keygen(get_backend("pairing"), b"fixed-base").public),
    "identity": None,
    "torsion": (0, 0),
}


@pytest.fixture(scope="module")
def prepared_bases():
    backend = get_backend("pairing")
    prepared = {name: backend.prepare_base(P) for name, P in FIXED_BASES.items()}
    return {**prepared, "g1_base": backend.g1_base}


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_fixed_base_product_matches_msm(prepared_bases, data):
    """One ``msm`` that mixes prepared and plain points is the same call over
    the plain points, for one to four terms: prepared points with short and
    full-size scalars, plain ones with 128-bit and full-size scalars, the
    identity and (0, 0) among them; its example count comes from the active
    Hypothesis profile, like the decoder fuzzing."""
    backend = get_backend("pairing")
    # a centered residue below 2^31 in size is added from a prepared point's
    # odd multiples, any other from its comb: the boundary, odd and even, on
    # either side of 0
    short = [s * k for k in (2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1, 2**31 + 2) for s in (1, -1)]
    edges = [0, 1, _R - 1, _R, -1, (_R - 1) // 2, (_R + 1) // 2, *short]
    scalar = st.one_of(
        st.sampled_from(edges),
        st.integers(-(2**31), 2**31),
        st.integers(0, 2**128 - 1),  # a share check's batch weights
        st.integers(-2 * _R, 2 * _R),
    )
    terms = data.draw(
        st.lists(st.tuples(st.sampled_from(sorted(FIXED_BASES)), st.booleans(), scalar), min_size=1, max_size=4)
    )
    points = [prepared_bases[n] if prepared else FIXED_BASES[n] for n, prepared, _ in terms]
    scalars = [k for *_, k in terms]
    assert backend.msm(points, scalars) == backend.msm([FIXED_BASES[n] for n, *_ in terms], scalars)


def test_g1_base_has_the_wide_comb():
    """g1's prepared point holds a 12-tooth comb of 2^11 entries, read in 22
    columns; any other prepared point, g1 under ``prepare_base`` included,
    holds an 8-tooth comb of 2^7 entries, read in 32."""
    backend = get_backend("pairing")
    assert len(backend.g1_base.comb) == 2**11
    assert len(_comb_adds(backend.g1_base.comb, _R - 2)) == 22
    for P in (backend.g1, point_pool(backend)[1], (0, 0)):
        comb = backend.prepare_base(P).comb
        assert len(comb) == 2**7 and len(_comb_adds(comb, _R - 2)) == 32


def jacobian(P, z, p=_P):
    """P as the Jacobian triple (x z^2, y z^3, z); the identity has Z = 0."""
    if P is None:
        return 0, 1, 0
    return P[0] * z * z % p, P[1] * z * z * z % p, z


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_jacobian_kernel_matches_affine_sums(data):
    """``_jac_dbl`` and ``_jac_madd`` on a Jacobian P with a random Z give
    ``_pt_add_many``'s affine sums, with P the identity (Z = 0) and Q = P,
    Q = -P, the 2-torsion point T = (0, 0), whose y is 0, and W + T among
    the inputs."""
    backend = get_backend("pairing")
    W = backend.g1_mul(backend.g1, data.draw(st.integers(1, _R - 1)))
    T = (0, 0)
    WT = _pt_add_many([(W, T)])[0]
    P = data.draw(st.sampled_from([None, W, _pt_neg(W), T, WT, backend.g1]))
    Q = data.draw(st.sampled_from([q for q in (P, _pt_neg(P), W, T, WT, backend.g1) if q is not None]))
    X, Y, Z = jacobian(P, data.draw(st.integers(2, _P - 1)))
    assert _to_affine(*_jac_dbl(X, Y, Z)) == _pt_add_many([(P, P)])[0]
    assert _to_affine(*_jac_madd(X, Y, Z, *Q)) == _pt_add_many([(P, Q)])[0]


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(data=st.data())
def test_comb_level_matches_pairwise_sums(data):
    """A comb level, T - t and T + t for every entry T over one batched
    inversion, is the level ``_pt_add_many`` makes pair by pair: on random
    tables, with a tooth on an entry's x, a None tooth and a None entry."""
    backend = get_backend("pairing")
    point = st.integers(1, _R - 1).map(lambda k: backend.g1_mul(backend.g1, k))
    table = data.draw(st.lists(point, min_size=1, max_size=4))
    table += data.draw(st.sampled_from([[], [None], [(0, 0)]]))
    t = data.draw(st.one_of(st.none(), point, st.sampled_from(table)))
    if data.draw(st.booleans()):
        t = _pt_neg(t)
    assert _comb_level(table, t) == _pt_add_many([(T, _pt_neg(t)) for T in table] + [(T, t) for T in table])


@given(st.integers(0, _P - 1), st.integers(0, _P - 1))
def test_f2_square_is_the_product(a, b):
    assert _f2_sqr((a, b)) == _f2_mul((a, b), (a, b))


@pytest.mark.parametrize("name", BACKENDS)
def test_prepared_point_is_its_point(name):
    """``prepare_base`` is idempotent, and a prepared point equals its point
    and encodes to the same bytes; the identity stays the identity."""
    backend = get_backend(name)
    assert backend.g1_base == backend.g1 and backend.prepare_base(backend.g1_base) is backend.g1_base
    for P in point_pool(backend):
        prepared = backend.prepare_base(P)
        assert backend.prepare_base(prepared) is prepared
        assert prepared == P and backend.g1_to_bytes(prepared) == backend.g1_to_bytes(P)
    assert backend.prepare_base(backend.g1_identity) == backend.g1_identity


def test_split_final_exponentiation_matches_direct_power():
    rng = random.Random(7)
    cases = [(rng.randrange(_P), rng.randrange(_P)) for _ in range(4)]
    cases += [(rng.randrange(1, _P), 0), (0, rng.randrange(1, _P)), (1, 0), (0, 0)]
    for f in cases:
        assert _final_exp(f) == _f2_pow(f, (_P * _P - 1) // _R), f
