import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.polynomials import lagrange_interpolate, poly_eval, quotient_at

P = (1 << 61) - 1


def test_eval_known_values():
    # 3 + 2x + x^2
    assert poly_eval([3, 2, 1], 0, P) == 3
    assert poly_eval([3, 2, 1], 2, P) == 11
    assert poly_eval([3, 2, 1], 3, P) == 18


def test_quotient_exact_division():
    coeffs = [3, 2, 1]
    q, rem = quotient_at(coeffs, 2, P)
    assert q == [4, 1]  # (phi(x) - 11) / (x - 2) = x + 4
    assert rem == poly_eval(coeffs, 2, P)


def test_quotient_reconstructs_polynomial():
    rng = random.Random(0)
    for _ in range(50):
        coeffs = [rng.randrange(P) for _ in range(rng.randint(1, 10))]
        z = rng.randrange(1, 1000)
        q, rem = quotient_at(coeffs, z, P)
        # phi(x) = q(x) * (x - z) + rem, checked at a few points
        for x in (0, 1, 7, z):
            lhs = poly_eval(coeffs, x, P)
            rhs = (poly_eval(q, x, P) * (x - z) + rem) % P
            assert lhs == rhs


def test_interpolation_hand_example():
    coeffs = lagrange_interpolate([(1, 6), (2, 11), (3, 18)], P)
    assert coeffs == [3, 2, 1]


def test_interpolation_requires_distinct_points():
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 5), (1, 6)], P)


@given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1, max_size=8), st.randoms())
@settings(max_examples=40, deadline=None)
def test_interpolation_roundtrip(coeffs, rnd):
    points = rnd.sample(range(1, 40), len(coeffs))
    values = [(x, poly_eval(coeffs, x, P)) for x in points]
    back = lagrange_interpolate(values, P)
    # strip leading zero coefficients the sample may imply
    while len(back) > len(coeffs):
        assert back[-1] == 0
        back.pop()
    assert back == [c % P for c in coeffs]
