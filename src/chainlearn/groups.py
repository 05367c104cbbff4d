"""Pairing-friendly group backends behind one small interface.

Two interchangeable backends drive all commitments, share checks and
signatures:

``PairingGroup``
    A real bilinear pairing: the supersingular curve y^2 = x^3 + x over a
    513-bit prime p with p = 3 (mod 4), subgroup order r (~2^255, low Hamming
    weight), distortion map (x, y) -> (-x, i*y) into E(F_p2) and the Tate
    pairing with denominator elimination.  Embedding degree is 2, so discrete
    logs live in a ~1026-bit field: legacy-grade (~80-bit) security, fine for
    a research artifact, not for production deployments.

``ExponentGroup``
    A non-hiding debug backend over the Mersenne prime 2^61 - 1.  Group
    elements are their own discrete logarithms and the pairing multiplies
    exponents, which turns every pairing equation into direct polynomial
    evaluation.  All protocol algebra holds exactly; nothing is hidden.
    Used for fast tests and large simulation runs, never where hiding
    matters.

Both expose: ``order``, the generator ``g1`` (the pairing is symmetric, so
it serves both arguments), group ops, the one multi-scalar product
``msm(points, scalars)`` (``g1_mul`` is its one-term case), ``prepare_base``,
which makes a point a prepared point that equals it (``g1_base`` is g1's,
made with the backend), pairing products ``multi_pair(prepared, points)``
over first arguments prepared once by ``prepare_pair`` (``pair`` is the
one-term case), the target-group identity ``gt_one`` and power ``gt_pow``,
and canonical serialization.

On the curve ``msm`` picks each term's table by whether its point is
prepared, and runs one doubling chain for all of them.  A prepared point is
the tuple (x, y) itself and carries two tables, each built at its first
use, so preparing a point costs nothing: P's signed Lim-Lee comb (CRYPTO
1994), and P's odd multiples P, 3P, ..., 15P.  The comb's width belongs to
the point.  Every prepared point has 8 teeth 2^(32j) * P: 128 affine
points, about 33 kB, whose negations cover the other half of the signed
tooth sums, read in 32 columns.  ``g1_base``, the one base of every
commitment's blinding slot, every signature and every nonce, has 12 teeth
2^(22j) * g1: 2,048 points, about 0.5 MB, read in 22 columns, built once
per process.  A key's comb takes only a few full-size scalars per
experiment, too few to pay back a 16 times larger table.  A scalar whose
centered residue is below 2^31 in size is short: its width-5 NAF has at
most 32 digits, so it is added from the odd multiples, one addition per
nonzero digit (Moller, SAC 2001, interleaves such wNAF terms); any other
scalar takes one addition per comb column (Brickell, Gordon, McCurley and
Wilson, EUROCRYPT 1992, precompute fixed-base powers the same way), in 32
doublings, or 22 on g1 alone.  A prepared point that only ever takes
full-size scalars never builds its odd multiples.  A plain point's odd
multiples are built for each call, and its wNAF term is as long as its
scalar.  On the debug group a prepared element is the element itself.

The kernel, Jacobian doubling and mixed addition (``dbl-2007-bl`` and
``madd-2007-bl`` of Bernstein and Lange's Explicit-Formulas Database), is
written for what CPython charges at 513 bits: squaring one object costs
about 225 ns, a product of two 365 ns and a reduction mod p 780 ns.  So
each square is one object times itself, and a value that only feeds a sum
reduced next stays unreduced: a doubling makes 7 reductions, not 9.  A comb
is built with one batched inversion for its teeth and one per level, as
T - t and T + t share the denominator x_t - x_T.  The pairing backend
builds g1's line table once, at the first ``prepare_pair(g1)``, and every
commitment key's share check reads it.

On the curve ``msm`` takes each scalar k as its centered residue mod r: for
k > r/2 it multiplies -P by r - k, so a small negative number stored mod r
is as cheap as a small positive one, and a prepared point gives the plain
point's product on every decodable point.  On the order-r subgroup this is
k * P.  Decoders still admit other points (see ROADMAP), and there a
product can differ from the plain residue's by a multiple of r * P, of
order prime to r, on which the pairing is 1: verdicts do not change.

Curve parameters were generated once by
``demos/generate_group_parameters.py`` and are frozen here.
"""

from __future__ import annotations

from functools import cached_property

# --- frozen supersingular curve parameters ---------------------------------
# r prime, r = 2^255 + 95 (Hamming weight 7 keeps the Miller loop short)
# p prime, p = r * 4*(2^255 + 111) - 1, p = 3 (mod 4)  =>  #E(F_p) = p + 1
_P = 0x1000000000000000000000000000000000000000000000000000000000000019C000000000000000000000000000000000000000000000000000000000000A4C3
_R = 0x800000000000000000000000000000000000000000000000000000000000005F
_COFACTOR = (_P + 1) // _R
_FINAL_EXP_HARD = (_P + 1) // _R  # (p^2 - 1)/r = (p - 1) * this
_R_BITS = bin(_R)[3:]  # left-to-right, leading bit dropped

_G1_BYTES = 1 + 64  # flag byte + big-endian x


# --- F_p2 = F_p[i] / (i^2 + 1), elements as (real, imag) tuples -------------

def _f2_mul(x, y, p=_P):
    a, b = x
    c, d = y
    ac = a * c % p
    bd = b * d % p
    return ((ac - bd) % p, ((a + b) * (c + d) - ac - bd) % p)


def _f2_sqr(x, p=_P):
    a, b = x
    aa, bb, t = a * a, b * b, a + b
    return ((aa - bb) % p, (t * t - aa - bb) % p)


def _f2_pow(x, e, p=_P):
    out = (1, 0)
    while e:
        if e & 1:
            out = _f2_mul(out, x, p)
        x = _f2_sqr(x, p)
        e >>= 1
    return out


# --- affine/Jacobian arithmetic on y^2 = x^3 + x over F_p -------------------
# Affine points are (x, y) tuples; None is the point at infinity.

def _batch_inverse(values, p=_P):
    """Inverses of nonzero values mod p with one modular inversion
    (Montgomery's trick)."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _pt_add_many(pairs, p=_P):
    """[P + Q for P, Q in pairs] in affine form, all slopes sharing one
    inversion."""
    dens = []
    for P, Q in pairs:
        if P is None or Q is None or (P[0] == Q[0] and (P[1] + Q[1]) % p == 0):
            dens.append(1)  # no slope
        elif P[0] == Q[0]:
            dens.append(2 * P[1])
        else:
            dens.append(Q[0] - P[0])
    out = []
    for (P, Q), inv in zip(pairs, _batch_inverse(dens, p)):
        if P is None or Q is None:
            out.append(Q if P is None else P)
            continue
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                out.append(None)
                continue
            lam = (3 * x1 * x1 + 1) * inv % p
        else:
            lam = (y2 - y1) * inv % p
        x3 = (lam * lam - x1 - x2) % p
        out.append((x3, (lam * (x1 - x3) - y1) % p))
    return out


def _pt_neg(P, p=_P):
    if P is None:
        return None
    return (P[0], (-P[1]) % p)


def _jac_dbl(X, Y, Z, p=_P):
    """Jacobian doubling on the a = 1 curve (dbl-2007-bl)."""
    XX = X * X
    YY = Y * Y % p
    YYYY = YY * YY
    ZZ = Z * Z % p
    t = X + YY
    S = 2 * (t * t - XX - YYYY) % p
    M = (3 * XX + ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    t = Y + Z
    return X3, (M * (S - X3) - 8 * YYYY) % p, (t * t - YY - ZZ) % p


def _jac_madd(X1, Y1, Z1, x2, y2, p=_P):
    """Mixed Jacobian + affine addition (madd-2007-bl). Returns Jacobian
    (X, Y, Z)."""
    if Z1 == 0:
        return x2, y2, 1
    ZZ = Z1 * Z1 % p
    H = (x2 * ZZ - X1) % p
    r2 = 2 * (y2 * (Z1 * ZZ % p) - Y1) % p
    if H == 0:  # the same x: Q = P doubles, Q = -P cancels
        return _jac_dbl(X1, Y1, Z1, p) if r2 == 0 else (0, 1, 0)
    HH = H * H % p
    I = 4 * HH
    J = H * I % p
    V = X1 * I % p
    X3 = (r2 * r2 - J - 2 * V) % p
    t = Z1 + H
    return X3, (r2 * (V - X3) - 2 * Y1 * J) % p, (t * t - ZZ - HH) % p


def _to_affine(X, Y, Z, p=_P):
    if Z == 0:
        return None
    zinv = pow(Z, -1, p)
    z2 = zinv * zinv % p
    return (X * z2 % p, Y * z2 % p * zinv % p)


_WNAF_WIDTH = 5
_WNAF_MOD = 1 << _WNAF_WIDTH
_WNAF_TABLE = 1 << (_WNAF_WIDTH - 2)  # odd multiples P, 3P, ..., 15P


def _odd_multiples(points, p=_P):
    """P, 3P, ..., 15P for each of ``points``, in affine form, one batched
    inversion per multiple for all of them."""
    tables = [[P] for P in points]
    doubles = _pt_add_many([(P, P) for P in points], p)
    for _ in range(_WNAF_TABLE - 1):
        for table, Q in zip(tables, _pt_add_many([(t[-1], D) for t, D in zip(tables, doubles)], p)):
            table.append(Q)
    return tables


def _wnaf_adds(odd, k, p=_P):
    """k * P as the points a doubling chain adds, least significant first:
    k's width-5 NAF digits, each nonzero one odd with |d| < 16 and at most
    one of any five consecutive ones nonzero, as the signed multiple d * P
    read from P's odd multiples ``odd``, and None for a zero digit."""
    adds = []
    while k:
        Q = None
        if k & 1:
            d = k & (_WNAF_MOD - 1)
            if d >= _WNAF_MOD // 2:
                d -= _WNAF_MOD
            k -= d
            x, y = odd[abs(d) >> 1]
            Q = (x, y if d > 0 else p - y)
        adds.append(Q)
        k >>= 1
    return adds


def _chain(terms, p=_P):
    """The sum over ``terms`` of sum_n 2^n * A_n, where entry n of a term is
    the affine point A_n or None: one shared chain of Jacobian doublings, as
    long as the longest term, and a single inversion back to affine form."""
    X, Y, Z = 0, 1, 0
    for n in range(max(map(len, terms), default=0) - 1, -1, -1):
        if Z:
            X, Y, Z = _jac_dbl(X, Y, Z, p)
        for adds in terms:
            if n < len(adds) and adds[n]:
                x, y = adds[n]
                X, Y, Z = _jac_madd(X, Y, Z, x, y, p)
    return _to_affine(X, Y, Z, p)


def _comb_spacing(teeth):
    """Columns of a ``teeth``-tooth comb that covers any scalar up to r: 32
    for 8 teeth, 22 for 12."""
    return -(-_R.bit_length() // teeth)


def _comb_level(table, t, p=_P):
    """[T - t for T in table] + [T + t for T in table] in affine form.  T - t
    and T + t share the slope denominator x_t - x_T, so one batched
    inversion over the table serves both halves.  A None tooth or entry, or
    an entry on t's x, takes ``_pt_add_many`` instead."""
    if t is None or any(T is None or T[0] == t[0] for T in table):
        return _pt_add_many([(T, _pt_neg(t)) for T in table] + [(T, t) for T in table], p)
    xt, yt = t
    minus, plus = [], []
    for (x, y), inv in zip(table, _batch_inverse([xt - x for x, _ in table], p)):
        for out, lam in ((minus, (-yt - y) * inv % p), (plus, (yt - y) * inv % p)):
            x3 = (lam * lam - x - xt) % p
            out.append((x3, (lam * (x - x3) - y) % p))
    return minus + plus


def _comb_table(P, teeth, p=_P):
    """The signed Lim-Lee comb of P with ``teeth`` teeth 2^(s*j) * P, s its
    column count: entry m < 2^(teeth-1) is the top tooth plus, for each lower
    tooth j, that tooth if bit j of m is set and minus it if not.  The
    entries' negations are the other signed tooth sums.  The teeth are made
    affine with one batched inversion; a tooth that vanishes (P of order 2)
    is None, which additions skip."""
    spacing = _comb_spacing(teeth)
    X, Y, Z = P[0], P[1], 1
    chain = [(X, Y, Z)]
    for _ in range(teeth - 1):
        for _ in range(spacing):
            X, Y, Z = _jac_dbl(X, Y, Z, p)
        chain.append((X, Y, Z))
    affine = []
    for (X, Y, Z), zinv in zip(chain, _batch_inverse([Z or 1 for _, _, Z in chain], p)):
        z2 = zinv * zinv % p
        affine.append((X * z2 % p, Y * z2 % p * zinv % p) if Z else None)
    table = [affine.pop()]
    for tooth in affine:
        table = _comb_level(table, tooth, p)
    return tuple(table)


def _comb_adds(comb, k, p=_P):
    """k * P for |k| <= r as the points the last s steps of a doubling chain
    add, least significant first, read from P's ``comb``, whose teeth and
    column count s its size gives.

    With N = teeth * s, an odd k is the sum of (2 b_n - 1) * 2^n over n < N,
    where b_n are the bits of (k + 2^N - 1) / 2; an even k is done as k + 1,
    and the caller subtracts P.  For a negative k these bits are those of -k
    complemented: its magnitude with every column's sign flipped, and k + 1
    moves towards zero, which flips the correction.  Column i, digits i,
    i + s, ..., is a table entry or its negation, added i steps before the
    end.
    """
    top = len(comb)  # 2^(teeth - 1): a column's digit of the top tooth
    spacing = _comb_spacing(top.bit_length())
    width = top.bit_length() * spacing
    bits = format(((k | 1) + (1 << width) - 1) >> 1, f"0{width}b")  # column s - 1 - c is bits[c::s]
    adds = []
    for c in range(spacing - 1, -1, -1):
        m = int(bits[c::spacing], 2)  # top digit +1: entry m - top, else the negation of entry top - 1 - m
        Q = comb[(m if m & top else ~m) & (top - 1)]
        adds.append(None if Q is None else (Q[0], Q[1] if m & top else p - Q[1]))
    return adds


class _Base(tuple):
    """A prepared point: the affine point P = (x, y) itself, which also
    carries its ``teeth``-tooth comb and its odd multiples P, 3P, ..., 15P,
    each table built at its first use."""

    teeth = 8

    @cached_property
    def comb(self):
        return _comb_table(self, self.teeth)

    @cached_property
    def odd(self):
        return _odd_multiples([self])[0]


class _WideBase(_Base):
    """g1's prepared point: a 12-tooth comb of 2,048 entries and 22 columns,
    built once per process, as every commitment, signature and nonce takes
    a full-size scalar on g1."""

    teeth = 12


_SHORT = 1 << (_comb_spacing(_Base.teeth) - 1)  # |k| below this: k's wNAF fits an 8-tooth comb's chain


def _msm(points, scalars, p=_P):
    """Sum of k_i * P_i for affine points and integer scalars k_i, unreduced,
    |k_i| <= r for a prepared P_i, in one doubling chain.

    A prepared P_i adds a k_i below 2^31 in size by its wNAF digits from its
    odd multiples and any other k_i from its comb, with -P_i added at the
    end for an even one.  A plain P_i's odd multiples are built for the
    call, all in one batch (Straus's interleaving), and it adds k_i by its
    wNAF digits.  The chain is as long as the longest term: at most 32
    doublings if every point is prepared, 22 for full-size scalars on g1
    alone."""
    terms, plain = [], []
    for P, k in zip(points, scalars):
        if P is None or k == 0:
            continue
        if not isinstance(P, _Base):
            plain.append((P, k))
        elif -_SHORT < k < _SHORT:
            terms.append(_wnaf_adds(P.odd, k, p))
        else:
            terms.append(_comb_adds(P.comb, k, p))
            if not k & 1:
                terms.append([_pt_neg(P)])
    if plain:
        tables = _odd_multiples([P for P, _ in plain], p)
        terms += [_wnaf_adds(odd, k, p) for odd, (_, k) in zip(tables, plain)]
    return _chain(terms, p)


def _sqrt_mod_p(a, p=_P):
    """Square root for p = 3 (mod 4); None if a is a non-residue."""
    y = pow(a, (p + 1) // 4, p)
    return y if y * y % p == a % p else None


def _point_from_seed_x(x0, p=_P):
    """First curve point with x >= x0, pushed into the order-r subgroup."""
    x = x0
    while True:
        y = _sqrt_mod_p((x * x * x + x) % p)
        if y is not None:
            # cofactor clearing must not reduce the scalar mod r
            P = _msm([(x, y)], [_COFACTOR], p)
            if P is not None:
                return P
        x += 1


def _final_exp(f, p=_P):
    """f^((p^2 - 1)/r), split as (f^(p-1))^((p+1)/r).

    Frobenius on F_p2 is conjugation, so f^(p-1) = conj(f)/f =
    conj(f)^2 / N(f) with the F_p norm N(f) = a^2 + b^2, nonzero unless f is.
    """
    a, b = f
    norm = (a * a + b * b) % p
    if norm == 0:
        return (0, 0)
    ninv = pow(norm, -1, p)
    unitary = ((a + b) * (a - b) % p * ninv % p, -2 * a * b % p * ninv % p)
    return _f2_pow(unitary, _FINAL_EXP_HARD, p)


# Miller's loop for r: one tangent line per bit, then a chord line for each
# set bit.  Entry k of every line table belongs to step k; True marks the
# steps that square the accumulator first.
_MILLER_STEPS = [step for bit in _R_BITS for step in ((True, False) if bit == "1" else (True,))]


def _miller_lines(P, p=_P):
    """Line table of Miller's loop for r driven by the fixed point P.

    Step k's line through the loop's running multiple S is stored as
    (lam, c), with value ``c - lam * x`` at x plus the imaginary y-term, so
    evaluating it at a variable point costs one multiplication.  Vertical
    lines (the chord through S = -P that ends the loop) are F_p-rational and
    stored as None.  The lines are built in Jacobian coordinates and made
    affine with one batched inversion.
    """
    if P is None:
        return None
    xp_, yp_ = P
    X1, Y1, Z1 = xp_, yp_, 1
    nums, dens = [], []  # (lam, c) numerators and their common denominator
    for square in _MILLER_STEPS:
        ZZ = Z1 * Z1 % p
        if square:
            # tangent line at S, then S = 2S
            E = (3 * X1 * X1 + ZZ * ZZ) % p
            Z3 = 2 * Y1 * Z1 % p
            nums.append((E * Z1 * ZZ % p, (E * Z1 * X1 - Z3 * Y1) % p))
            dens.append(Z3 * ZZ * Z1 % p)
            X1, Y1, Z1 = _jac_dbl(X1, Y1, Z1, p)
        else:
            # chord line through S and P, then S = S + P
            num = (yp_ * ZZ * Z1 - Y1) % p
            den = (xp_ * ZZ - X1) * Z1 % p
            nums.append((num, (num * xp_ - den * yp_) % p))
            dens.append(den)
            X1, Y1, Z1 = _jac_madd(X1, Y1, Z1, xp_, yp_, p)
    inverses = _batch_inverse([d or 1 for d in dens], p)
    return [(lam * inv % p, c * inv % p) if d else None
            for (lam, c), d, inv in zip(nums, dens, inverses)]


def _multi_tate(tables, points, p=_P):
    """Product of Tate pairings e(P_i, psi(Q_i)) from the P_i's line tables.

    psi(Q) = (-x, i*y) for Q = (x, y).  Line values are scaled by F_p
    factors, which the final exponentiation (p^2 - 1)/r kills because
    (p - 1) divides it; vertical lines are dropped for the same reason.  All
    terms share one squaring chain and one final exponentiation.
    """
    terms = [(lines, (-Q[0]) % p, Q[1]) for lines, Q in zip(tables, points)
             if lines is not None and Q is not None]
    if not terms:
        return (1, 0)
    # _f2_sqr and _f2_mul inlined: this loop is the share check's hot path
    f0, f1 = 1, 0
    for k, square in enumerate(_MILLER_STEPS):
        if square:
            a, b, t = f0 * f0, f1 * f1, f0 + f1
            f0, f1 = (a - b) % p, (t * t - a - b) % p
        for lines, xd, yq in terms:
            line = lines[k]
            if line:
                lam, c = line
                re = (c - lam * xd) % p
                t0, t1 = f0 * re, f1 * yq
                f0, f1 = (t0 - t1) % p, ((f0 + f1) * (re + yq) - t0 - t1) % p
    return _final_exp((f0, f1), p)


def _centered(k):
    """The residue of k mod r in (-r/2, r/2)."""
    k %= _R
    return k - _R if k > _R >> 1 else k


class PairingGroup:
    """Real bilinear pairing backend (see module docstring for caveats)."""

    name = "pairing"
    order = _R

    def __init__(self) -> None:
        self.g1 = _point_from_seed_x(2)
        self.g1_base = _WideBase(self.g1)
        self.g1_identity = None
        self.gt_one = (1, 0)

    def g1_add(self, a, b):
        return _pt_add_many([(a, b)])[0]

    def g1_mul(self, P, k: int):
        return self.msm((P,), (k,))

    def msm(self, points, scalars):
        """Sum of k_i * P_i over zip(points, scalars), each k_i taken as its
        centered residue mod r; any of the points may be prepared."""
        return _msm(points, [_centered(k) for k in scalars])

    def prepare_base(self, P):
        """``P`` as a prepared point, which equals P and builds its tables
        at first use; a prepared point and the identity are returned as
        they are."""
        return P if P is None or isinstance(P, _Base) else _Base(P)

    @cached_property
    def _g1_lines(self):
        return _miller_lines(self.g1)

    def prepare_pair(self, P):
        """Line table of ``P`` as a fixed first pairing argument; g1's is
        built once, at its first use, and shared."""
        return self._g1_lines if P == self.g1 else _miller_lines(P)

    def multi_pair(self, prepared, points):
        """Product of e(P_i, Q_i) over zip(prepared, points), where
        ``prepared`` holds ``prepare_pair(P_i)``."""
        return _multi_tate(prepared, points)

    def pair(self, P, Q):
        return _multi_tate((_miller_lines(P),), (Q,))

    def gt_pow(self, a, k: int):
        return _f2_pow(a, k % _R)

    def g1_to_bytes(self, P) -> bytes:
        if P is None:
            return b"\x00" * _G1_BYTES
        flag = 2 + (P[1] & 1)
        return bytes([flag]) + P[0].to_bytes(64, "big")

    def g1_from_bytes(self, data: bytes):
        """Decode ``g1_to_bytes`` output, and only that: the flag byte is 0
        for the identity, with 64 zero bytes after it, else 2 plus the parity
        of y."""
        if len(data) != _G1_BYTES:
            raise ValueError(f"group element must be {_G1_BYTES} bytes")
        flag = data[0]
        if flag == 0:
            if any(data[1:]):
                raise ValueError("the identity is encoded as zero bytes")
            return None
        if flag not in (2, 3):
            raise ValueError(f"bad flag byte {flag}")
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise ValueError("x-coordinate out of range")
        y = _sqrt_mod_p((x * x * x + x) % _P)
        if y is None:
            raise ValueError("not a curve point")
        if (y & 1) != (flag & 1):
            if y == 0:
                raise ValueError("y = 0 is even")
            y = _P - y
        return (x, y)

    element_size = _G1_BYTES  # bytes of an encoded element
    scalar_size = (order.bit_length() + 7) // 8  # bytes of a scalar below the order


class ExponentGroup:
    """Debug backend: elements are exponents mod 2^61 - 1, pairing multiplies
    them, so every check reduces to arithmetic over a small prime field."""

    name = "exponent"
    order = (1 << 61) - 1

    def __init__(self) -> None:
        self.g1 = 1
        self.g1_base = 1
        self.g1_identity = 0
        self.gt_one = 0

    def g1_add(self, a, b):
        return (a + b) % self.order

    def g1_mul(self, a, k: int):
        return a * (k % self.order) % self.order

    def msm(self, points, scalars):
        """Sum of k_i * a_i over zip(points, scalars)."""
        acc = 0
        for a, k in zip(points, scalars):
            acc += a * (k % self.order)
        return acc % self.order

    def prepare_base(self, a):
        return a  # a prepared element is the element itself

    def prepare_pair(self, a):
        return a

    def multi_pair(self, prepared, points):
        return sum(a * b for a, b in zip(prepared, points)) % self.order

    def pair(self, a, b):
        return a * b % self.order

    def gt_pow(self, a, k: int):
        return a * (k % self.order) % self.order

    def g1_to_bytes(self, a) -> bytes:
        return int(a).to_bytes(8, "little")

    def g1_from_bytes(self, data: bytes):
        if len(data) != 8:
            raise ValueError("group element must be 8 bytes")
        value = int.from_bytes(data, "little")
        if value >= self.order:
            raise ValueError("element out of range")
        return value

    element_size = 8
    scalar_size = (order.bit_length() + 7) // 8


BACKENDS = {"pairing": PairingGroup, "exponent": ExponentGroup}
_CACHE: dict = {}


def get_backend(name: str):
    """Return the (cached) backend instance for ``name``."""
    if name not in BACKENDS:
        raise ValueError(f"unknown group backend {name!r}; choose from {sorted(BACKENDS)}")
    if name not in _CACHE:
        _CACHE[name] = BACKENDS[name]()
    return _CACHE[name]
