"""Polynomial arithmetic over a prime field, coefficient-vector form.

Coefficient lists are little-endian: ``coeffs[j]`` multiplies x^j.  Used for
share evaluation, witness quotients and Lagrange recovery.
"""

from __future__ import annotations


def poly_eval(coeffs: list[int], x: int, p: int) -> int:
    """Horner evaluation of the polynomial at x, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def quotient_at(coeffs: list[int], z: int, p: int) -> tuple[list[int], int]:
    """Synthetic division by (x - z): returns (quotient, remainder).

    The remainder equals the evaluation at z, so (phi(x) - phi(z)) / (x - z)
    is exactly the returned quotient.
    """
    d = len(coeffs) - 1
    if d < 0:
        raise ValueError("empty polynomial")
    q = [0] * d
    acc = coeffs[d]
    for j in range(d - 1, -1, -1):
        q[j] = acc
        acc = (acc * z + coeffs[j]) % p
    return q, acc


def lagrange_interpolate(points: list[tuple[int, int]], p: int) -> list[int]:
    """Coefficients of the unique degree <= n-1 polynomial through n points.

    Points are (x, y) pairs with distinct x mod p.  O(n^2).
    """
    xs = [x % p for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    n = len(points)
    coeffs = [0] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - x_j), built incrementally
        num = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = _mul_linear(num, (-xj) % p, p)
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        for k in range(len(num)):
            coeffs[k] = (coeffs[k] + num[k] * scale) % p
    return coeffs


def _mul_linear(poly: list[int], c: int, p: int) -> list[int]:
    # poly * (x + c)
    out = [0] * (len(poly) + 1)
    for j, a in enumerate(poly):
        out[j] = (out[j] + a * c) % p
        out[j + 1] = (out[j + 1] + a) % p
    return out
