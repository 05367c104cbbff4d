import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.groups import get_backend
from chainlearn.quantize import SCALE_BITS, HeadroomError, QuantizedPoly, decode, encode, sum_polys

MOD = get_backend("exponent").order


def test_zero_vector_zero_blinding_is_all_zero():
    q = encode(np.zeros(4), 0, MOD)
    assert q.coeffs == (0, 0, 0, 0, 0)


def test_half_encodes_to_2_pow_19():
    # 0.5 * 2^20 = 524288
    q = encode([0.5], 0, MOD)
    assert q.coeffs[1] == 524288


def test_negative_half_is_centered_residue():
    q = encode([-0.5], 0, MOD)
    assert q.coeffs[1] == MOD - 524288


def test_blinding_slot_stored_and_dropped():
    q = encode([0.25], 123456789, MOD)
    assert q.coeffs[0] == 123456789
    assert decode(q) == pytest.approx([0.25])


def test_roundtrip_error_bound():
    rng = np.random.default_rng(0)
    v = rng.normal(size=64)
    q = encode(v, 7, MOD)
    err = np.abs(decode(q) - v)
    assert err.max() <= 2.0 ** (-SCALE_BITS - 1) + 1e-15


def test_sum_of_35_unit_norm_vectors():
    rng = np.random.default_rng(1)
    vs = []
    for _ in range(35):
        v = rng.normal(size=25)
        vs.append(v / np.linalg.norm(v))
    qs = [encode(v, int(rng.integers(0, MOD)), MOD) for v in vs]
    total = sum_polys(qs)
    direct = np.sum(vs, axis=0)
    assert np.abs(decode(total) - direct).max() <= 35 * 2.0 ** (-SCALE_BITS - 1)


def test_additivity_is_exact_on_grid():
    rng = np.random.default_rng(2)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    qa = encode(a, 11, MOD)
    qb = encode(b, 22, MOD)
    np.testing.assert_array_equal(decode(qa.add(qb)), decode(qa) + decode(qb))
    assert qa.add(qb).coeffs[0] == 33


def test_headroom_overflow_rejected():
    huge = MOD / (2 * 128) / (1 << SCALE_BITS) * 1.01
    with pytest.raises(HeadroomError):
        encode([huge], 0, MOD)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        encode([np.nan], 0, MOD)


def test_mismatched_params_rejected():
    qa = encode([0.5], 0, MOD)
    for other in (encode([0.5], 0, MOD - 2), encode([0.5, 0.5], 0, MOD)):
        with pytest.raises(ValueError):
            qa.add(other)


@given(
    st.lists(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False), min_size=1, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_field_addition_matches_grid_addition(a, b):
    n = min(len(a), len(b))
    qa = encode(np.array(a[:n]), 5, MOD)
    qb = encode(np.array(b[:n]), 9, MOD)
    lhs = decode(qa.add(qb))
    rhs = decode(qa) + decode(qb)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=0)


def test_encode_decode_identity_on_grid_values():
    coeffs = (5, 12, MOD - 99, 1 << 19)
    q = QuantizedPoly(coeffs, MOD)
    q2 = encode(decode(q), 5, MOD)
    assert q2.coeffs == coeffs
