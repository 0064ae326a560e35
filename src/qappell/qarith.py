"""Exact arithmetic kernel: polynomials in q over the rationals and
canonical-form rational functions in q.

Scalars are arbitrary-precision ``fractions.Fraction`` values, and q stays
symbolic everywhere in the core; a numeric q enters only through the
``evaluate`` methods.  All values are immutable after construction and
hashable, so they can be shared and sent between threads freely.

The heavy operations run over cleared integer coefficient lists:
multiplication packs the operands into single big integers (Kronecker
substitution), exact division and gcd (primitive-PRS Euclid) stay in Z
throughout, and sums of many rational functions go through ``FracAcc``,
which defers the canonicalizing gcd to one call per result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# Integer-coefficient helpers


def _int_coeffs(coeffs) -> tuple[list[int], int]:
    """Rescale Fraction coefficients to integers: returns (ints, L) with
    ints[i] == coeffs[i] * L exactly."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // _int_gcd(den, d)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [int(c * den) for c in coeffs], den


def _content(v: list[int]) -> int:
    """Positive gcd of the entries (0 for the empty list), early-exiting
    once it collapses to 1."""
    g = 0
    for c in v:
        if c:
            g = _int_gcd(g, c)
            if g == 1:
                return 1
    return g


def _primitive(v: list[int]) -> list[int]:
    """Strip trailing zeros, divide by the content, make the leading
    coefficient positive."""
    while v and not v[-1]:
        v.pop()
    if not v:
        return v
    g = _content(v)
    if v[-1] < 0:
        g = -g
    if g != 1:
        v = [c // g for c in v]
    return v


def _int_mul(ia: list[int], ib: list[int]) -> list[int]:
    """Convolution over Z.  Large products go through Kronecker
    substitution so the work happens in one big-integer multiply."""
    na, nb = len(ia), len(ib)
    if na == 0 or nb == 0:
        return []
    if na == 1:
        c = ia[0]
        return [c * x for x in ib]
    if nb == 1:
        c = ib[0]
        return [c * x for x in ia]
    if na * nb <= 256:
        out = [0] * (na + nb - 1)
        for i, ca in enumerate(ia):
            if ca:
                for j, cb in enumerate(ib):
                    if cb:
                        out[i + j] += ca * cb
        return out
    ma = max(max(ia), -min(ia))
    mb = max(max(ib), -min(ib))
    if ma == 0 or mb == 0:
        return [0] * (na + nb - 1)
    # Slots of w bytes hold every product coefficient as a balanced digit.
    bits = ma.bit_length() + mb.bit_length() + min(na, nb).bit_length() + 2
    w = (bits + 7) // 8
    n = na + nb - 1
    prod = _kron_pack(ia, w) * _kron_pack(ib, w)
    sign = -1 if prod < 0 else 1
    buf = abs(prod).to_bytes(n * w, "little")
    base = 1 << (8 * w)
    half = base >> 1
    out = []
    carry = 0
    for i in range(0, n * w, w):
        d = int.from_bytes(buf[i:i + w], "little") + carry
        carry = d >= half
        out.append(sign * (d - base if carry else d))
    return out


def _kron_pack(v: list[int], w: int) -> int:
    """sum v[i] * 256^(w*i), built from the byte strings of the positive
    and the negative coefficients, so packing stays linear in size."""
    zero = bytes(w)
    pos = b"".join(c.to_bytes(w, "little") if c > 0 else zero for c in v)
    neg = b"".join((-c).to_bytes(w, "little") if c < 0 else zero for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


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


def _pseudo_rem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of u by v over Z (deg u >= deg v >= 1).

    The lc(v) scaling is skipped whenever it is a no-op, which keeps
    coefficient growth minimal for the mostly-monic inputs here.
    """
    n = len(v) - 1
    lv = v[-1]
    r = list(u)
    while len(r) - 1 >= n:
        k = len(r) - 1 - n
        c = r.pop()
        if lv == 1 or lv == -1:
            if c:
                cc = c if lv == 1 else -c
                for i in range(k, k + n):
                    r[i] -= cc * v[i - k]
        else:
            for i in range(len(r)):
                ri = lv * r[i]
                if k <= i:
                    ri -= c * v[i - k]
                r[i] = ri
        while r and not r[-1]:
            r.pop()
    return r


_GCD_PRIME = (1 << 61) - 1


def _rem_modp(u: list[int], v: list[int], p: int) -> list[int]:
    """Remainder of u by v over GF(p) (deg v >= 1)."""
    dv = len(v) - 1
    inv = pow(v[-1], p - 2, p)
    vm = [c * inv % p for c in v[:dv]]
    r = list(u)
    while len(r) > dv:
        c = r.pop()
        if c:
            k = len(r) - dv
            for i in range(dv):
                r[k + i] = (r[k + i] - c * vm[i]) % p
        while r and not r[-1]:
            r.pop()
    return r


def _gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of the mod-p images (leading coefficients nonzero mod p)."""
    fa = [c % p for c in a]
    fb = [c % p for c in b]
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _rem_modp(fa, fb, p)
    inv = pow(fa[-1], p - 2, p)
    return [c * inv % p for c in fa]


def _divides(d: list[int], f: list[int]) -> bool:
    try:
        _int_div_exact(f, d)
    except ArithmeticError:
        return False
    return True


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of primitive integer polynomials.

    A single-prime modular image settles the common cases: a constant
    image proves the gcd is 1, and a reconstructed candidate verified by
    exact division in both inputs is the gcd (any common divisor divides
    the gcd, and the image bounds its degree from above).  Unlucky
    primes or oversized coefficients fall back to the primitive PRS.
    """
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    p = _GCD_PRIME
    if a[-1] % p and b[-1] % p:
        image = _gcd_modp(a, b, p)
        if len(image) == 1:
            return [1]
        gamma = _int_gcd(a[-1], b[-1])
        half = p >> 1
        cand = []
        for c in image:
            c = c * gamma % p
            cand.append(c - p if c > half else c)
        cand = _primitive(cand)
        if cand and _divides(cand, a) and _divides(cand, b):
            return cand
    while True:
        r = _primitive(_pseudo_rem(a, b))
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, r


# ---------------------------------------------------------------------------
# Polynomials in q


class QPoly:
    """Dense polynomial in q over Q, coefficients in ascending powers.

    Canonical form: no trailing zero coefficients.  The zero polynomial
    stores an empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._hash = None

    @classmethod
    def constant(cls, c) -> QPoly:
        return cls((c,))

    @classmethod
    def q_power(cls, k: int) -> QPoly:
        """The monomial q**k (k >= 0)."""
        if k < 0:
            raise ValueError("q_power needs k >= 0; use QRat.q_power for negative k")
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (_F1,)

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _F0

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else _F0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __neg__(self) -> QPoly:
        return QPoly([-c for c in self.coeffs])

    def __add__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QPoly:
        return QPoly(other) - self

    def __mul__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(_as_fraction(other))
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return P_ZERO
        ia, la = _int_coeffs(self.coeffs)
        ib, lb = _int_coeffs(other.coeffs)
        out = _int_mul(ia, ib)
        scale = la * lb
        if scale == 1:
            return QPoly(out)
        return QPoly([Fraction(c, scale) for c in out])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QPoly:
        if e < 0:
            raise ValueError("negative power of a QPoly; use QRat")
        result = P_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c) -> QPoly:
        c = _as_fraction(c)
        if not c:
            return P_ZERO
        return QPoly([a * c for a in self.coeffs])

    def evaluate(self, q0) -> Fraction:
        """Exact value at a rational q0 (Horner)."""
        q0 = _as_fraction(q0)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def div_exact(self, d: QPoly) -> QPoly:
        """Quotient self / d, required to be exact in Q[q].

        Raises ArithmeticError on a nonzero remainder; that always
        indicates an arithmetic bug upstream, never bad user input.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return P_ZERO
        if d.degree == 0:
            return self.scale(1 / d.coeffs[0])
        ia, la = _int_coeffs(self.coeffs)
        ib, lb = _int_coeffs(d.coeffs)
        cb = _content(ib)
        if ib[-1] < 0:
            cb = -cb
        if cb != 1:
            ib = [c // cb for c in ib]
        quot = _int_div_exact(ia, ib)
        scale = la * cb
        if lb == scale:
            return QPoly(quot)
        return QPoly([Fraction(c * lb, scale) for c in quot])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


P_ZERO = QPoly()
P_ONE = QPoly(1)
P_Q = QPoly((0, 1))


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """gcd in Q[q], returned with primitive integer coefficients and a
    positive leading coefficient (the zero polynomial only for gcd(0, 0))."""
    if a.is_zero():
        if b.is_zero():
            return P_ZERO
        return QPoly(_primitive(_int_coeffs(b.coeffs)[0]))
    if b.is_zero():
        return QPoly(_primitive(_int_coeffs(a.coeffs)[0]))
    if a.degree == 0 or b.degree == 0:
        return P_ONE
    ia = _primitive(_int_coeffs(a.coeffs)[0])
    ib = _primitive(_int_coeffs(b.coeffs)[0])
    return QPoly(_int_poly_gcd(ia, ib))


@lru_cache(maxsize=None)
def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1); the empty sum [0]_q is 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0")
    return QPoly((1,) * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        return P_ONE
    return q_factorial(n - 1) * q_integer(n)


@lru_cache(maxsize=None)
def q_double_factorial_even(m: int) -> QPoly:
    """[2m]_q!! = [2m]_q [2m-2]_q ... [2]_q, with [0]_q!! = 1."""
    if m < 0:
        raise ValueError("q_double_factorial_even needs m >= 0")
    if m == 0:
        return P_ONE
    return q_double_factorial_even(m - 1) * q_integer(2 * m)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial [n k]_q via the q-Pascal recursion
    [n k] = [n-1 k-1] + q^k [n-1 k]; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("q_binomial needs n >= 0")
    if k < 0 or k > n:
        return P_ZERO
    if k == 0 or k == n:
        return P_ONE
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k) * QPoly.q_power(k)


# ---------------------------------------------------------------------------
# Rational functions in q


class QRat:
    """Rational function in q in canonical form.

    Invariants: den != 0, gcd(num, den) = 1 in Q[q], den monic.  With
    that normal form, equality of values is structural equality, which
    is what the identity checks in the rest of the package rely on.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num=0, den=1, *, _canonical=False):
        if not isinstance(num, QPoly):
            num = QPoly(num)
        if not isinstance(den, QPoly):
            den = QPoly(den)
        if not _canonical:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def from_poly(p: QPoly) -> QRat:
        return QRat(p, P_ONE, _canonical=True)

    @staticmethod
    def q_power(k: int) -> QRat:
        """q**k for any integer k (negative powers land in the denominator)."""
        if k >= 0:
            return QRat(QPoly.q_power(k), P_ONE, _canonical=True)
        return QRat(P_ONE, QPoly.q_power(-k), _canonical=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __neg__(self) -> QRat:
        return QRat(-self.num, self.den, _canonical=True)

    def __add__(self, other) -> QRat:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one() and d.is_one():
            return QRat(a + c, P_ONE, _canonical=True)
        if b == d:
            return QRat(a + c, b)
        g = qpoly_gcd(b, d)
        if g.degree <= 0:
            return _monic(a * d + c * b, b * d)
        b1 = b.div_exact(g)
        d1 = d.div_exact(g)
        t = a * d1 + c * b1
        if t.is_zero():
            return QRAT_ZERO
        h = qpoly_gcd(t, g)
        if h.degree > 0:
            t = t.div_exact(h)
            g = g.div_exact(h)
        return _monic(t, b1 * d1 * g)

    __radd__ = __add__

    def __sub__(self, other) -> QRat:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QRat:
        return QRat(other) - self

    def __mul__(self, other) -> QRat:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QRAT_ZERO
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one() and d.is_one():
            return QRat(a * c, P_ONE, _canonical=True)
        # Cross-cancel so the product of two canonical forms needs no
        # further gcd, only the monic rescale.
        if a.degree > 0 and d.degree > 0:
            g1 = qpoly_gcd(a, d)
            if g1.degree > 0:
                a = a.div_exact(g1)
                d = d.div_exact(g1)
        if c.degree > 0 and b.degree > 0:
            g2 = qpoly_gcd(c, b)
            if g2.degree > 0:
                c = c.div_exact(g2)
                b = b.div_exact(g2)
        return _monic(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QRat:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> QRat:
        return QRat(other) / self

    def __pow__(self, e: int) -> QRat:
        if e < 0:
            return self.reciprocal() ** (-e)
        result = QRAT_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def reciprocal(self) -> QRat:
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of the zero rational function")
        return _monic(self.den, self.num)

    def evaluate(self, q0) -> Fraction:
        """Exact value at rational q0; PoleError if the denominator vanishes."""
        q0 = _as_fraction(q0)
        d = self.den.evaluate(q0)
        if not d:
            raise PoleError(f"denominator {self.den} vanishes at q = {q0}")
        return self.num.evaluate(q0) / d

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num_s = str(self.num)
        if _needs_parens(self.num):
            num_s = f"({num_s})"
        den_s = str(self.den)
        if _needs_parens(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"QRat({self})"


def _needs_parens(p: QPoly) -> bool:
    nonzero = [c for c in p.coeffs if c]
    if len(nonzero) > 1:
        return True
    return bool(nonzero) and nonzero[0].denominator != 1


def _monic(num: QPoly, den: QPoly) -> QRat:
    """Rescale an already-reduced num/den pair to a monic denominator."""
    lead = den.leading()
    if lead != 1:
        inv = 1 / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return QRat(num, den, _canonical=True)


def _normalize(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return P_ZERO, P_ONE
    g = qpoly_gcd(num, den)
    if g.degree > 0:
        num = num.div_exact(g)
        den = den.div_exact(g)
    lead = den.leading()
    if lead != 1:
        inv = 1 / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


QRAT_ZERO = QRat(0)
QRAT_ONE = QRat(1)
QRAT_Q = QRat(P_Q)


class FracAcc:
    """Accumulator for a sum of rational functions.

    Terms merge over a running common denominator (pairwise lcm, via one
    structured gcd each); the canonicalizing gcd runs once, in
    ``value()``.  Used by the series and polynomial inner loops, where
    per-term normalization would dominate the runtime.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num = P_ZERO
        self.den = P_ONE

    def add(self, r: QRat) -> None:
        self.add_raw(r.num, r.den)

    def sub(self, r: QRat) -> None:
        self.add_raw(-r.num, r.den)

    def add_raw(self, num: QPoly, den: QPoly) -> None:
        """Add num/den, which need not be reduced (den must be nonzero)."""
        if num.is_zero():
            return
        if self.num.is_zero():
            self.num = num
            self.den = den
            return
        if self.den == den:
            self.num = self.num + num
            return
        if den.is_one():
            self.num = self.num + num * self.den
            return
        g = qpoly_gcd(self.den, den)
        if g.degree <= 0:
            self.num = self.num * den + num * self.den
            self.den = self.den * den
        else:
            d1 = den.div_exact(g)
            self.num = self.num * d1 + num * self.den.div_exact(g)
            self.den = self.den * d1

    def add_product(self, a: QRat, b: QRat) -> None:
        """Add a*b without canonicalizing the intermediate product."""
        if a.is_zero() or b.is_zero():
            return
        self.add_raw(a.num * b.num, a.den * b.den)

    def sub_product(self, a: QRat, b: QRat) -> None:
        if a.is_zero() or b.is_zero():
            return
        self.add_raw(-(a.num * b.num), a.den * b.den)

    def value(self) -> QRat:
        return QRat(self.num, self.den)
