"""Fixed-point bridge between real update vectors and field polynomials.

A length-d real vector becomes a (d+1)-coefficient polynomial over the
backend's scalar field: coefficient 0 is a blinding slot (a fresh uniform
field element per vector) and coefficient j in 1..d holds
round(v_j * 2^SCALE_BITS) as a centered residue mod p.  Addition of encoded
vectors is exact coefficient-wise field addition, so commitments, masking and
share sums all agree with real-vector sums on the quantization grid.  The
scale is one constant of the program, so a polynomial is just its
coefficients and its field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALE_BITS = 20
# Largest number of bounded vectors expected in one field-domain sum
# (updates per block plus noise terms); encode() rejects entries that could
# overflow the centered range when that many are added together.
HEADROOM = 128


class HeadroomError(ValueError):
    """An entry too large for safe field-domain accumulation: bad input, so a ``ValueError``."""


@dataclass(frozen=True)
class QuantizedPoly:
    """Field-coefficient view of a real vector.

    coeffs[0] is the blinding slot; coeffs[1:] are the encoded entries.
    """

    coeffs: tuple
    modulus: int

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def add(self, other: "QuantizedPoly") -> "QuantizedPoly":
        """Coefficient-wise field addition (includes blinding slots)."""
        if self.modulus != other.modulus:
            raise ValueError("mismatched fields")
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("mismatched dimensions")
        p = self.modulus
        return QuantizedPoly(tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)), p)


def encode(values, blinding: int, modulus: int, out=None) -> QuantizedPoly:
    """Encode a real vector; raises HeadroomError when an entry cannot be
    summed ``HEADROOM`` times without leaving the centered residue range.
    ``out``, if given, is a float64 array the fixed-point entries
    (``np.rint(values * 2^SCALE_BITS)``) are written into."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries cannot be encoded")
    scale = 1 << SCALE_BITS
    limit = modulus // (2 * HEADROOM)
    fixed = np.rint(arr * scale, out=out)
    if fixed.size and max(fixed.max(), -fixed.min()) >= limit:
        raise HeadroomError(
            f"entry magnitude {np.abs(arr).max():.6g} exceeds headroom bound "
            f"{limit / scale:.6g} at scale 2^{SCALE_BITS}, headroom={HEADROOM}"
        )
    return fixed_poly(fixed, blinding, modulus)


def fixed_poly(fixed: np.ndarray, blinding: int, modulus: int) -> QuantizedPoly:
    """The polynomial whose data slots are the integral fixed-point entries
    ``fixed`` (as ``encode`` rounds them) and whose blinding is ``blinding``."""
    return QuantizedPoly((blinding % modulus, *(int(c) % modulus for c in fixed.tolist())), modulus)


def admissible(poly: QuantizedPoly, modulus: int, dim: int) -> bool:
    """Whether a polynomial received from another peer is a canonical
    encoding here: field ``modulus``, ``dim`` data slots and every
    coefficient a residue in [0, modulus).  Commitments reduce coefficients
    mod p, so nothing else catches these."""
    return (
        poly.modulus == modulus
        and poly.dim == dim
        and all(0 <= c < modulus for c in poly.coeffs)
    )


def decode(poly: QuantizedPoly) -> np.ndarray:
    """Centered-residue decode of the data slots; the blinding slot is dropped."""
    p = poly.modulus
    half = p // 2
    scale = float(1 << SCALE_BITS)
    out = np.empty(poly.dim, dtype=np.float64)
    for j, c in enumerate(poly.coeffs[1:]):
        out[j] = (c - p if c > half else c) / scale
    return out


def sum_polys(polys) -> QuantizedPoly:
    polys = list(polys)
    if not polys:
        raise ValueError("nothing to sum")
    acc = polys[0]
    for q in polys[1:]:
        acc = acc.add(q)
    return acc
