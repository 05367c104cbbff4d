"""Polynomial arithmetic over a prime field, coefficient-vector form.

Coefficient lists are little-endian: ``coeffs[j]`` multiplies x^j.  Used for
share evaluation, witness quotients and Lagrange interpolation.
"""

from __future__ import annotations


def poly_eval(coeffs: list[int], x: int, p: int) -> int:
    """Horner evaluation of the polynomial at x, mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def divide_monic(coeffs: list[int], divisor: list[int], p: int) -> tuple[list[int], list[int]]:
    """Long division by the monic polynomial ``divisor``: returns (quotient,
    remainder), the remainder with one coefficient fewer than ``divisor``.

    By (x - z) this is synthetic division, and the remainder is the
    evaluation at z.
    """
    k = len(divisor) - 1
    rem = list(coeffs) + [0] * k
    quotient = [0] * max(len(coeffs) - k, 0)
    for j in range(len(quotient) - 1, -1, -1):
        c = quotient[j] = rem[j + k] % p
        for i in range(k):  # subtract c * x^j * divisor; its top term cancels
            rem[j + i] -= c * divisor[i]
    return quotient, [r % p for r in rem[:k]]


def vanishing(points, p: int) -> list[int]:
    """Coefficients of the monic prod (x - s) over ``points``."""
    poly = [1]
    for s in points:
        poly = _mul_linear(poly, -s % p, p)
    return poly


def lagrange_basis(xs, p: int) -> list[list[int]]:
    """The Lagrange polynomials of the points ``xs``, distinct mod p, as
    coefficient lists in point order: L_j is 1 at xs[j] and 0 at the others.
    Each is Z / (x - x_j) scaled to 1 at x_j, Z the monic vanishing
    polynomial of ``xs``.  O(n^2)."""
    xs = [x % p for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    z = vanishing(xs, p)
    basis = []
    for x in xs:
        lagrange, _ = divide_monic(z, [-x % p, 1], p)
        scale = pow(poly_eval(lagrange, x, p), -1, p)
        basis.append([c * scale % p for c in lagrange])
    return basis


def interpolate(basis, values, p: int) -> list[int]:
    """The coefficients of sum(y_j * L_j) mod p, the polynomial of degree
    below len(values) through ``values`` at the points whose
    ``lagrange_basis`` is ``basis``, in the same order."""
    coeffs = [0] * len(basis)
    for y, lagrange in zip(values, basis, strict=True):
        for k, c in enumerate(lagrange):
            coeffs[k] += y * c
    return [c % p for c in coeffs]


def _mul_linear(poly: list[int], c: int, p: int) -> list[int]:
    # poly * (x + c)
    out = [0] * (len(poly) + 1)
    for j, a in enumerate(poly):
        out[j] = (out[j] + a * c) % p
        out[j + 1] = (out[j + 1] + a) % p
    return out
