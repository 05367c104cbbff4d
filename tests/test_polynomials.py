import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlearn.polynomials import divide_monic, interpolate, lagrange_basis, poly_eval, vanishing

P = (1 << 61) - 1


def test_eval_known_values():
    # 3 + 2x + x^2
    assert poly_eval([3, 2, 1], 0, P) == 3
    assert poly_eval([3, 2, 1], 2, P) == 11
    assert poly_eval([3, 2, 1], 3, P) == 18


def test_quotient_exact_division():
    coeffs = [3, 2, 1]
    q, rem = divide_monic(coeffs, [P - 2, 1], P)
    assert q == [4, 1]  # (phi(x) - 11) / (x - 2) = x + 4
    assert rem == [poly_eval(coeffs, 2, P)]


def test_quotient_reconstructs_polynomial():
    rng = random.Random(0)
    for _ in range(50):
        coeffs = [rng.randrange(P) for _ in range(rng.randint(1, 10))]
        z = rng.randrange(1, 1000)
        q, (rem,) = divide_monic(coeffs, vanishing([z], P), P)
        # phi(x) = q(x) * (x - z) + rem, checked at a few points
        for x in (0, 1, 7, z):
            lhs = poly_eval(coeffs, x, P)
            rhs = (poly_eval(q, x, P) * (x - z) + rem) % P
            assert lhs == rhs


def test_division_by_a_vanishing_polynomial():
    """phi = q * Z_S + I_S for point sets of 1-6 points and polynomials of
    every length up to 10: I_S has |S| coefficients and agrees with phi on
    S, and q is empty when phi is shorter than Z_S."""
    rng = random.Random(1)
    assert vanishing([1, 2], P) == [2, P - 3, 1]  # (x - 1)(x - 2)
    for _ in range(100):
        coeffs = [rng.randrange(P) for _ in range(rng.randint(1, 10))]
        points = rng.sample(range(1, 40), rng.randint(1, 6))
        z = vanishing(points, P)
        q, rem = divide_monic(coeffs, z, P)
        assert len(q) == max(len(coeffs) - len(points), 0) and len(rem) == len(points)
        for s in points:
            assert poly_eval(rem, s, P) == poly_eval(coeffs, s, P)
        for x in (0, 5, 41):
            assert poly_eval(coeffs, x, P) == (poly_eval(q, x, P) * poly_eval(z, x, P) + poly_eval(rem, x, P)) % P


def test_interpolation_hand_example():
    basis = lagrange_basis([1, 2, 3], P)
    assert [[poly_eval(L, x, P) for x in (1, 2, 3)] for L in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert interpolate(basis, [6, 11, 18], P) == [3, 2, 1]


def test_interpolation_requires_distinct_points():
    with pytest.raises(ValueError):
        lagrange_basis([1, 1], P)
    with pytest.raises(ValueError):
        lagrange_basis([1, P + 1], P)  # equal mod p


@given(st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1, max_size=8), st.randoms())
@settings(max_examples=40, deadline=None)
def test_interpolation_roundtrip(coeffs, rnd):
    points = rnd.sample(range(1, 40), len(coeffs))
    values = [poly_eval(coeffs, x, P) for x in points]
    back = interpolate(lagrange_basis(points, P), values, P)
    # strip leading zero coefficients the sample may imply
    while len(back) > len(coeffs):
        assert back[-1] == 0
        back.pop()
    assert back == [c % P for c in coeffs]
