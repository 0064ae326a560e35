"""Polynomials in q over the rationals.

A polynomial in Q[q] is stored as Python ints over one positive int
denominator, the integer part and rational content of von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6 (see ``QPoly``).  Every
operation runs on the stored integers, and products and gcds alike on
big integers at q = 256^w (Kronecker substitution, ibid. section 8.4):
a product is one integer multiply, and a gcd one integer gcd, unpacked
into a candidate that exact division in Z verifies (the heuristic gcd,
see ``_int_poly_gcd``).  Slots of 1, 2, 4 or 8 bytes convert through
``array`` in C.  The rational functions built on top live in
:mod:`qappell.qarith`, which re-exports ``QPoly`` and ``qpoly_gcd``.
Every printed polynomial, in q or in x, text or LaTeX, is laid out by
``join_terms`` under a ``Spelling``.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import wraps
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import NamedTuple


_F0 = Fraction(0)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def operand(scalars: tuple):
    """The operand rule of ``QPoly`` and ``QRat``, a decorator for a binary
    operator of a type T: a T passes as is, a `scalars` instance becomes
    T(other), and anything else, a list included, gives NotImplemented."""
    def rule(op):
        @wraps(op)
        def coerced(self, other):
            cls = type(self)
            if isinstance(other, cls):
                return op(self, other)
            if isinstance(other, scalars):
                return op(self, cls(other))
            return NotImplemented
        return coerced
    return rule


_operand = operand((int, Fraction))


# ---------------------------------------------------------------------------
# Integer-coefficient helpers


def _primitive(v: list[int]) -> list[int]:
    """Strip trailing zeros, divide by the content, make the leading
    coefficient positive."""
    while v and not v[-1]:
        v.pop()
    if not v:
        return v
    g = _int_gcd(*v)
    if v[-1] < 0:
        g = -g
    if g != 1:
        v = [c // g for c in v]
    return v


def _int_mul(ia: list[int], ib: list[int]) -> list[int]:
    """Convolution over Z.  A product of two non-scalar operands is one
    big-integer multiply (Kronecker substitution)."""
    na, nb = len(ia), len(ib)
    if na == 0 or nb == 0:
        return []
    if na == 1:
        c = ia[0]
        return [c * x for x in ib]
    if nb == 1:
        c = ib[0]
        return [c * x for x in ia]
    ma = max(max(ia), -min(ia))
    mb = max(max(ib), -min(ib))
    # Slots of w bytes hold every product coefficient as a balanced digit.
    w = _width(ma * mb * min(na, nb))
    return _kron_unpack(_kron_pack(ia, w) * _kron_pack(ib, w), w, na + nb - 1)


# Signed array typecodes by item size, for slots that convert in C.
_CODES = {array(c).itemsize: c for c in "bhilq"}


def _width(bound: int) -> int:
    """A slot width in bytes that holds every integer of absolute value
    at most bound as a balanced digit, bound < 2^(8w-1): the least such
    w, rounded up to 1, 2, 4 or 8 bytes so that machine words carry it."""
    w = (bound.bit_length() + 8) // 8
    return w if w > 8 else 1 << (w - 1).bit_length()


def _top_bits(w: int, n: int) -> int:
    """sum 2^(8w-1) * 256^(w*i) over i < n.  Both Kronecker kernels hold
    c_i + 2^(8w-1) in slot i, the two's complement of c_i with its top
    bit flipped, so the packed value and the slots differ by this."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _kron_pack(v: list[int], w: int) -> int:
    """sum v[i] * 256^(w*i), for |v[i]| < 2^(8w-1): each v[i] is written
    as a w-byte two's complement and the top bits corrected once, so
    packing stays linear in size."""
    if w in _CODES:
        a = array(_CODES[w], v)
        if sys.byteorder == "big":
            a.byteswap()
        buf = a.tobytes()
    else:
        buf = b"".join(c.to_bytes(w, "little", signed=True) for c in v)
    top = _top_bits(w, len(v))
    return (int.from_bytes(buf, "little") ^ top) - top


def _kron_unpack(v: int, w: int, n: int) -> list[int]:
    """The n coefficients c_i of v = sum c_i * 256^(w*i), each read as a
    balanced digit, so -2^(8w-1) <= c_i < 2^(8w-1) must hold: the
    inverse of ``_kron_pack``."""
    top = _top_bits(w, n)
    buf = ((v + top) ^ top).to_bytes(n * w, "little")
    if w in _CODES:
        a = array(_CODES[w])
        a.frombytes(buf)
        if sys.byteorder == "big":
            a.byteswap()
        return a.tolist()
    return [int.from_bytes(buf[i:i + w], "little", signed=True)
            for i in range(0, n * w, w)]


def _int_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact synthetic division over Z by a primitive divisor; raises
    ArithmeticError if the division is not exact."""
    dd = len(den) - 1
    lead = den[-1]
    dq = len(num) - 1 - dd
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    rem = list(num)
    out = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[dd + k]
        if top:
            if top % lead:
                raise ArithmeticError("inexact polynomial division")
            c = top // lead
            out[k] = c
            for i in range(dd):
                rem[i + k] -= c * den[i]
    if any(rem[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of nonzero primitive integer polynomials by the heuristic gcd
    (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989): the primitive
    part of the balanced base-X digits of h = gcd(a(X), b(X)), X = 256^w.

    Exact, not probabilistic.  X >= 2 max(|a|, |b|) + 2, so a candidate
    that divides both inputs is their gcd (CGG, Theorem 1).  A failed one
    is the gcd D times c = gcd(a'(X), b'(X)) for the cofactors a', b',
    and c divides their nonzero resultant; once X > 2 |Res(a', b')| |D|
    the digits are exactly c D, so doubling w on failure always ends.
    """
    w = _width(2 * max(map(abs, a + b)) + 2)
    while True:
        h = _int_gcd(_kron_pack(a, w), _kron_pack(b, w))
        g = _primitive(_kron_unpack(h, w, h.bit_length() // (8 * w) + 2))
        try:
            _int_div_exact(a, g)
            _int_div_exact(b, g)
            return g
        except ArithmeticError:
            w *= 2


# ---------------------------------------------------------------------------
# Printed layout


class Spelling(NamedTuple):
    """How a writer spells v^k, c times v^k, and c in brackets."""

    power: str
    product: str
    brackets: str


TEXT = Spelling("{}^{}", "{}*{}", "({})")
LATEX = Spelling("{}^{{{}}}", "{} {}", "\\left({}\\right)")


def join_terms(terms, var: str, spelling: Spelling) -> str:
    """Lay out the terms c v^k, given as (k, negative, text, composite)
    in print order: a leading "-", then " - " or " + " between terms,
    and "0" for none.  A term is the text of |c| at k = 0, v^k alone
    when that text is "1", and else the text, bracketed if composite,
    times v^k."""
    parts = []
    for k, negative, text, composite in terms:
        parts.append((" - " if negative else " + ") if parts
                     else "-" if negative else "")
        if k:
            power = var if k == 1 else spelling.power.format(var, k)
            text = power if text == "1" else spelling.product.format(
                spelling.brackets.format(text) if composite else text, power)
        parts.append(text)
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# Polynomials in q


class QPoly:
    """Dense polynomial in q over Q, coefficients in ascending powers.

    Stored as ints c_0 .. c_n over one int L > 0, for sum c_i q^i / L.
    Canonical form: no trailing zero and gcd(c_0, ..., c_n, L) = 1, so
    equality and hashing are structural, a constant hashing as the
    Fraction it equals.  The zero polynomial is the empty tuple over 1
    and reports degree -1.  ``coeffs`` builds the rational coefficients
    c_i / L on each read.
    """

    __slots__ = ("_ints", "_den", "_hash")

    def __new__(cls, coeffs=()):
        if not hasattr(coeffs, "__iter__"):
            coeffs = (coeffs,)
        cs = [_as_fraction(c) for c in coeffs]
        den = _int_lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (den // c.denominator) for c in cs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._ints)

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def is_one(self) -> bool:
        return self._ints == (1,) and self._den == 1

    def __bool__(self) -> bool:
        return bool(self._ints)

    @_operand
    def __eq__(self, other) -> bool:
        return self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._ints, self._den) if self.degree > 0
                              else Fraction(sum(self._ints), self._den))
        return self._hash

    def __neg__(self) -> QPoly:
        return _poly([-c for c in self._ints], self._den)

    @_operand
    def __add__(self, other) -> QPoly:
        a, b, den = self._ints, other._ints, self._den
        if den != other._den:
            g = _int_gcd(den, other._den)
            a = [c * (other._den // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * other._den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    __radd__ = __add__

    @_operand
    def __sub__(self, other) -> QPoly:
        return self + (-other)

    @_operand
    def __rsub__(self, other) -> QPoly:
        return other - self

    @_operand
    def __mul__(self, other) -> QPoly:
        if not self._ints or not other._ints:
            return P_ZERO
        return _poly(_int_mul(self._ints, other._ints), self._den * other._den)

    __rmul__ = __mul__

    def evaluate(self, q0) -> Fraction:
        """Exact value at a rational q0: Horner over the stored integers,
        divided by the denominator once at the end."""
        q0 = _as_fraction(q0)
        acc = _F0
        for c in reversed(self._ints):
            acc = acc * q0 + c
        return acc if self._den == 1 else acc / self._den

    def div_exact(self, d: QPoly) -> QPoly:
        """Quotient self / d, required to be exact in Q[q].

        Raises ArithmeticError on a nonzero remainder; that always
        indicates an arithmetic bug upstream, never bad user input.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return P_ZERO
        # With d = content * primitive, the quotient by the primitive
        # part is integral (Gauss's lemma); the contents meet in one
        # rational factor.
        ib = d._ints
        cb = _int_gcd(*ib)
        if ib[-1] < 0:
            cb = -cb
        if cb != 1:
            ib = [c // cb for c in ib]
        quot = _int_div_exact(self._ints, ib)
        return _poly([c * d._den for c in quot], self._den * cb)

    def __str__(self) -> str:
        return self.layout(str, TEXT)

    def layout(self, write, spelling: Spelling) -> str:
        """Ascending q-powers, each magnitude spelled by write(Fraction)."""
        return join_terms(((k, c < 0, write(abs(c)), False)
                           for k, c in enumerate(self.coeffs) if c), "q", spelling)

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _poly(ints: list[int], den: int = 1) -> QPoly:
    """The canonical QPoly sum ints[i] q^i / den, for a nonzero den."""
    while ints and not ints[-1]:
        ints.pop()
    if den < 0:
        ints, den = [-c for c in ints], -den
    if den != 1:
        g = _int_gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    p = object.__new__(QPoly)
    p._ints = tuple(ints)
    p._den = den
    p._hash = None
    return p


P_ZERO = QPoly()
P_ONE = QPoly(1)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """gcd in Q[q], returned with primitive integer coefficients and a
    positive leading coefficient (the zero polynomial only for gcd(0, 0)):
    by Gauss's lemma, the heuristic gcd of the primitive parts in Z[q].
    """
    ia, ib = a._ints, b._ints
    if not ia or not ib:
        return _poly(_primitive(list(ia or ib)))
    return _poly(_int_poly_gcd(_primitive(list(ia)), _primitive(list(ib))))
