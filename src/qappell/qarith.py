"""Exact arithmetic kernel: rational functions in q, the q-constants
[n]_q, [n]_q!, [n k]_q and [2m]_q!!, and the ``FracAcc`` sum.

Every number, alpha and polynomial coefficient of the four families has
a denominator of the form q^a prod Phi_d(q) over cyclotomic polynomials
(Lang, *Algebra*, VI.3), and so do the q-constants, by
q^n - 1 = prod_{d | n} Phi_d.  A ``QRat`` of that kind is held factored:
one exponent vector over q and the Phi_d, with an expanded numerator
part (see ``QRat``).  Products add vectors, sums take the element-wise
minimum as the common factor, and canonicalization is trial division of
the numerator by each Phi_d of negative exponent, so none of them needs
a polynomial gcd.  Expanding a Phi product, and summing the groups of a
``FracAcc`` times their Phi cofactors, are each one big-integer
computation at q = 256^w (Kronecker substitution, von zur Gathen &
Gerhard section 8.4), unpacked once; the slot width w comes from a bound
on every coefficient, and each cofactor's bound and packed value are
memoized.  ``_pair`` alone picks a value's form: factored exactly when
the reduced denominator is q^a prod Phi_d, found by trial division, else
generic, the canonical pair reduced by ``qpoly_gcd`` (heuristic gcd,
Char, Geddes & Gonnet 1989); generic sums and products are QRat(num,
den).  Sums of many rational functions go through ``FracAcc``, which
canonicalizes once per result, and one row of a triangular solve is
``solve_step``.  An int, Fraction or QPoly operand is coerced by
``qpoly.operand``, the rule QPoly shares, a coefficient by ``_as_qrat``,
and anything else is refused.

The polynomials themselves, ``QPoly`` and ``qpoly_gcd``, live in
:mod:`qappell.qpoly` and are re-exported here.  q stays symbolic
everywhere in the core; a numeric q enters only through the ``evaluate``
methods, which return ``fractions.Fraction`` values.  All values are
immutable after construction (``QRat`` caches its expanded pair on
first use) and hashable, so they can be shared and sent between threads
freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm as _int_lcm
from operator import add

from .qpoly import (P_ONE, P_ZERO, QPoly, _as_fraction, _int_div_exact,
                    _kron_pack, _kron_unpack, _poly, _width, operand, qpoly_gcd)


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


# ---------------------------------------------------------------------------
# Cyclotomic factors


@lru_cache(maxsize=None)
def _phi(d: int) -> tuple[int, ...]:
    """Integer coefficients of the cyclotomic polynomial Phi_d(q), d >= 1,
    as q^d - 1 divided by Phi_e for each proper divisor e of d.  Index 0
    stands for q itself, so one exponent vector covers q and every Phi_d."""
    if d == 0:
        return (0, 1)
    v = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            v = _int_div_exact(v, _phi(e))
    return tuple(v)


def _phi_divides(ints, d: int) -> bool:
    """Whether Phi_d divides sum ints[i] q^i (d >= 1): the coefficients
    are folded modulo q^d - 1, a multiple of Phi_d, and the fold is
    reduced by the monic Phi_d."""
    phi = _phi(d)
    k = len(phi) - 1
    r = [sum(ints[i::d]) for i in range(d)]
    for top in range(d - 1, k - 1, -1):
        c = r[top]
        if c:
            for i in range(k):
                r[top - k + i] -= c * phi[i]
    return not any(r[:k])


@lru_cache(maxsize=512)
def _phi_at(d: int, w: int) -> int:
    """Phi_d(X) at X = 256^w, and X for d = 0, without building Phi_d:
    the product of (X^e - 1)^mu(d/e) over the divisors e of d for which
    d/e is a product of distinct primes, the others having mu = 0."""
    x = 1 << 8 * w
    if d == 0:
        return x
    pairs, n = [(d, 1)], d
    for p in range(2, d + 1):
        if n % p == 0:
            pairs += [(e // p, -mu) for e, mu in pairs]
            while n % p == 0:
                n //= p
    parts = {1: 1, -1: 1}
    for e, mu in pairs:
        parts[mu] *= x ** e - 1
    return parts[1] // parts[-1]


def _vec(v) -> tuple[int, ...]:
    """v as a canonical exponent vector: a tuple without trailing zeros."""
    n = len(v)
    while n and not v[n - 1]:
        n -= 1
    return tuple(v if n == len(v) else v[:n])


def _vadd(a: tuple, b: tuple) -> tuple:
    """Element-wise sum of two exponent vectors."""
    if not b:
        return a
    if not a:
        return b
    if len(a) < len(b):
        a, b = b, a
    if len(a) > len(b):
        return tuple(map(add, a, b)) + a[len(b):]
    return _vec(list(map(add, a, b)))


@lru_cache(maxsize=1024)
def _size(cof: tuple) -> tuple[int, int]:
    """For the product of Phi_d^cof[d], all cof[d] >= 0: a bound on every
    coefficient, since the sum of the absolute coefficients is
    submultiplicative, and the number of coefficients."""
    bound = slots = 1
    for d, e in enumerate(cof):
        if e:
            bound *= sum(map(abs, _phi(d))) ** e
            slots += e * (len(_phi(d)) - 1)
    return bound, slots


@lru_cache(maxsize=1024)
def _packed(cof: tuple, w: int) -> int:
    """The product over cof at q = 256^w."""
    vs = [_phi_at(d, w) ** e for d, e in enumerate(cof) if e] or [1]
    # A balanced product tree keeps the big-integer multiplies even.
    while len(vs) > 1:
        vs = [vs[i] * vs[i + 1] if i + 1 < len(vs) else vs[i]
              for i in range(0, len(vs), 2)]
    return vs[0]


@lru_cache(maxsize=128)
def _expand(cof: tuple) -> QPoly:
    """The product of Phi_d^cof[d], all cof[d] >= 0: one big-integer
    product at q = 256^w, unpacked once."""
    bound, slots = _size(cof)
    w = _width(bound)
    # _expand caches its own result, so the product skips _packed's cache.
    return _poly(_kron_unpack(_packed.__wrapped__(cof, w), w, slots))


def _part(m: tuple, sign: int) -> QPoly:
    """The expanded factor of exponent vector m on one side: sign 1 gives
    the numerator part, -1 the denominator part."""
    return _expand(_vec([max(sign * e, 0) for e in m]))


def _cancel(m: tuple, n: QPoly, held: tuple = ()) -> tuple[tuple, QPoly]:
    """Divide the nonzero n by Phi_d while m[d] is negative and the
    division is exact, raising m[d] by one each time.  A Phi_d negative
    in `held`, the vector n was canonical under, is skipped: n is prime
    to it.  Returns the reduced (m, n)."""
    ints = n._ints
    v = list(m)
    for d, e in enumerate(m):
        if e >= 0 or d < len(held) and held[d] < 0:
            continue
        if d == 0:
            z = 0
            while z < -e and not ints[z]:
                z += 1
            ints = ints[z:]
            v[0] += z
        else:
            phi = _phi(d)
            while v[d] < 0 and len(ints) >= len(phi) and _phi_divides(ints, d):
                ints = _int_div_exact(ints, phi)
                v[d] += 1
    if len(ints) == len(n._ints):
        return m, n
    return _vec(v), _poly(list(ints), n._den)


# ---------------------------------------------------------------------------
# Rational functions in q


def _as_qrat(c) -> QRat:
    """c as a QRat: a QRat as is, an int, Fraction or QPoly converted."""
    if isinstance(c, QRat):
        return c
    if isinstance(c, (int, Fraction, QPoly)):
        return QRat(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


_operand = operand((int, Fraction, QPoly))


class QRat:
    """Rational function in q.

    A value whose denominator is q^a times cyclotomic polynomials (every
    value the families produce) is held factored: an exponent vector, a
    tuple whose index 0 is the power of q and index d >= 1 the exponent
    of Phi_d, positive in the numerator and negative in the denominator,
    times an expanded numerator part N that no Phi_d of negative
    exponent divides.  The vector has no trailing zeros, so equal
    factors are equal tuples and () is no factor at all.  Products add
    vectors element-wise, and sums take the element-wise minimum as the
    common factor, so neither needs a polynomial gcd.  Any other value
    is held generically as its canonical pair (vector None) and
    combined by QRat(num, den); ``_pair`` picks the form.

    ``num`` and ``den`` are the canonical pair in either form: den monic,
    gcd(num, den) = 1 in Q[q].  They are expanded on first use and
    cached, and equality, hashing and printing read them, so equal
    values compare and hash equal whichever form holds them; a value over
    1 hashes as its numerator, as the QPoly or number it equals does.
    """

    __slots__ = ("_m", "_n", "_num", "_den", "_hash")

    def __new__(cls, num=0, den=1):
        if not isinstance(num, QPoly):
            num = QPoly(num)
        if not isinstance(den, QPoly):
            den = QPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return QRAT_ZERO
        return _pair(num, den)

    @staticmethod
    @lru_cache(maxsize=None)
    def q_power(k: int) -> QRat:
        """q**k for any integer k (negative powers land in the denominator)."""
        return _factored((k,) if k else (), P_ONE)

    @staticmethod
    @lru_cache(maxsize=None)
    def q_integer(n: int) -> QRat:
        """[n]_q = prod Phi_d over the divisors d > 1 of n, since
        q^n - 1 = prod_{d | n} Phi_d; the empty sum [0]_q is 0."""
        if n < 0:
            raise ValueError("q_integer needs n >= 0")
        if n == 0:
            return QRAT_ZERO
        return _factored(_vec([0, 0] + [int(n % d == 0) for d in range(2, n + 1)]), P_ONE)

    @staticmethod
    @lru_cache(maxsize=None)
    def q_factorial(n: int) -> QRat:
        """[n]_q! = [1]_q ... [n]_q, in which Phi_d occurs floor(n/d) times."""
        if n < 0:
            raise ValueError("q_factorial needs n >= 0")
        return _factored(_vec([0, 0] + [n // d for d in range(2, n + 1)]), P_ONE)

    @staticmethod
    @lru_cache(maxsize=None)
    def q_binomial(n: int, k: int) -> QRat:
        """[n k]_q = [n]_q! / ([k]_q! [n-k]_q!); zero outside 0 <= k <= n."""
        if n < 0:
            raise ValueError("q_binomial needs n >= 0")
        if k < 0 or k > n:
            return QRAT_ZERO
        return _factored(_vec([0, 0] + [n // d - k // d - (n - k) // d
                                         for d in range(2, n + 1)]), P_ONE)

    @staticmethod
    @lru_cache(maxsize=None)
    def q_double_factorial_even(m: int) -> QRat:
        """[2m]_q!! = [2]_q [4]_q ... [2m]_q: Phi_d divides [2j]_q for
        floor(2m/d) of the j <= m if d is even, floor(m/d) if d is odd."""
        if m < 0:
            raise ValueError("q_double_factorial_even needs m >= 0")
        return _factored(_vec([0, 0] + [(2 * m if d % 2 == 0 else m) // d
                                         for d in range(2, 2 * m + 1)]), P_ONE)

    @property
    def num(self) -> QPoly:
        if self._num is None:
            pos = _part(self._m, 1)
            self._num = self._n if pos.is_one() else self._n * pos
        return self._num

    @property
    def den(self) -> QPoly:
        if self._den is None:
            self._den = _part(self._m, -1)
        return self._den

    def is_zero(self) -> bool:
        return not self._n._ints

    def is_one(self) -> bool:
        return self._m == () and self._n.is_one()

    def __bool__(self) -> bool:
        return bool(self._n._ints)

    @_operand
    def __eq__(self, other) -> bool:
        if self._m is not None and self._m == other._m:
            return self._n == other._n
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.num if self.den.is_one() else (self.num, self.den))
        return self._hash

    def __neg__(self) -> QRat:
        if self._m is None:
            return _generic(-self._n, self._den)
        r = _factored(self._m, -self._n)
        r._den = self._den
        return r

    @_operand
    def __add__(self, other) -> QRat:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._m is None or other._m is None:
            g = qpoly_gcd(self.den, other.den)
            b, d = self.den.div_exact(g), other.den.div_exact(g)
            return QRat(self.num * d + other.num * b, self.den * d)
        acc = FracAcc()
        acc.add_raw(self._m, self._n)
        acc.add_raw(other._m, other._n)
        return acc.value()

    __radd__ = __add__

    @_operand
    def __sub__(self, other) -> QRat:
        return self + (-other)

    @_operand
    def __rsub__(self, other) -> QRat:
        return other - self

    @_operand
    def __mul__(self, other) -> QRat:
        if self.is_zero() or other.is_zero():
            return QRAT_ZERO
        ma, mb = self._m, other._m
        if ma is None or mb is None:
            return QRat(self.num * other.num, self.den * other.den)
        m = _vadd(ma, mb)
        na, nb = self._n, other._n
        # A numerator part may hold a Phi_d whose exponent was not
        # negative in its own vector but is in the product's.
        if na.degree > 0:
            m, na = _cancel(m, na, ma)
        if nb.degree > 0:
            m, nb = _cancel(m, nb, mb)
        # Share a numerator part when the other one is 1.
        return _factored(m, na if nb.is_one() else nb if na.is_one() else na * nb)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, other) -> QRat:
        return self * other.reciprocal()

    @_operand
    def __rtruediv__(self, other) -> QRat:
        return other / self

    def reciprocal(self) -> QRat:
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of the zero rational function")
        n = self._n
        if self._m is not None and n.degree == 0:
            return _factored(tuple(-e for e in self._m), _poly([n._den], n._ints[0]))
        return _pair(self.den, self.num, coprime=True)

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
        return "/".join(f"({p})" if _needs_parens(p) else str(p) for p in (self.num, self.den))

    def __repr__(self) -> str:
        return f"QRat({self})"


def _needs_parens(p: QPoly) -> bool:
    nonzero = [c for c in p._ints if c]
    return len(nonzero) > 1 or (bool(nonzero) and p._den != 1)


def _factored(m: tuple, n: QPoly) -> QRat:
    """The value Phi^m n, for an n prime to every Phi_d of negative
    exponent in the vector m."""
    r = object.__new__(QRat)
    r._m = m if n._ints else ()
    r._n = n
    r._num = r._den = r._hash = None
    return r


def _generic(num: QPoly, den: QPoly) -> QRat:
    r = object.__new__(QRat)
    r._m = None
    r._n = r._num = num
    r._den = den
    r._hash = None
    return r


def _pair(num: QPoly, den: QPoly, coprime: bool = False) -> QRat:
    """The value num/den for a nonzero num, and the one place a form is
    chosen: factored exactly when the monic reduced den is q^a prod Phi_d.
    A pair not known to be coprime is reduced by ``_cancel`` when den is
    already such a product, else by ``qpoly_gcd``."""
    lead, scale = den._ints[-1], den._den
    if lead != scale:
        num, den = num * Fraction(scale, lead), _poly(list(den._ints), lead)
    m = _cyclotomic(den)
    if m is not None:
        return _factored(*_cancel(_vec(m), num))
    if not coprime:
        g = qpoly_gcd(num, den)
        if g.degree > 0:
            return _pair(num.div_exact(g), den.div_exact(g), coprime=True)
    return _generic(num, den)


@lru_cache(maxsize=None)
def _totients(k: int) -> tuple[tuple[int, int], ...]:
    """Every (d, phi(d)) with phi(d) <= k, d ascending, built prime by
    prime: a p <= k + 1 not yet found is prime, since every composite
    up to k + 1 is a product of smaller primes with phi <= k."""
    found = {1: 1}
    for p in range(2, k + 2):
        if p not in found:
            for d, t in list(found.items()):
                d, t = d * p, t * (p - 1)
                while t <= k:
                    found[d] = t
                    d, t = d * p, t * p
    return tuple(sorted(found.items()))


def _cyclotomic(den: QPoly) -> list[int] | None:
    """The exponents of the monic den as q^a prod Phi_d, or None when den
    has another factor.  Past q^a, such a product is integer and
    palindromic up to sign; Phi_d is tried for d ascending while its
    degree phi(d) fits the degree left, first by the necessary test that
    Phi_d(X) divides den(X) at X = 256^w, then by ``_phi_divides``."""
    ints = den._ints
    a = next(i for i, c in enumerate(ints) if c)
    ints = ints[a:]
    if den._den != 1 or ints != ints[::-1] and ints != tuple(-c for c in reversed(ints)):
        return None
    m = [-a]
    if len(ints) > 1:
        w = _width(max(map(abs, ints)))
        at = _kron_pack(ints, w)
        # The degrees up to the next power of two share one candidate list;
        # its Phi_d(X) skip the cache, so a search evicts none of the sums'.
        for d, t in _totients((1 << (len(ints) - 1).bit_length()) - 1):
            if t >= len(ints):
                continue
            phi_at = _phi_at.__wrapped__(d, w)
            while t < len(ints) and not at % phi_at and _phi_divides(ints, d):
                ints, at = _int_div_exact(ints, _phi(d)), at // phi_at
                m += [0] * (d + 1 - len(m))
                m[d] -= 1
    return None if len(ints) > 1 else m


QRAT_ZERO = _factored((), P_ZERO)
QRAT_ONE = _factored((), P_ONE)
QRAT_Q = QRat.q_power(1)


def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1); the empty sum [0]_q is 0."""
    return QRat.q_integer(n).num


def q_factorial(n: int) -> QPoly:
    """[n]_q! = [n]_q [n-1]_q ... [1]_q, with [0]_q! = 1."""
    return QRat.q_factorial(n).num


def q_double_factorial_even(m: int) -> QPoly:
    """[2m]_q!! = [2m]_q [2m-2]_q ... [2]_q, with [0]_q!! = 1."""
    return QRat.q_double_factorial_even(m).num


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial [n k]_q, zero outside 0 <= k <= n."""
    return QRat.q_binomial(n, k).num


def solve_step(rhs: QRat, terms, pivot: QRat) -> QRat:
    """One row of a triangular solve: (rhs - sum of a*b over the (a, b)
    pairs of terms) / pivot.  The products go through one FracAcc
    unreduced, so the row is canonicalized once; a unit pivot divides
    nothing, so with one it is a plain canonical sum."""
    acc = FracAcc()
    acc.add(rhs)
    for a, b in terms:
        acc.add_product(-a, b)
    return acc.value() if pivot.is_one() else acc.value() / pivot


class FracAcc:
    """Accumulator for a sum of rational functions.

    Factored terms are kept unreduced, summed per exponent vector.
    ``value()`` brings the groups over the element-wise minimum of their
    zero-padded vectors and over the lcm of their integer denominators,
    with no gcd: it evaluates every group times its Phi cofactor at one
    point q = 256^w, adds the results as Python ints and unpacks a
    nonzero sum once, then runs the trial divisions that make the sum
    canonical.  The slot width w comes from a bound on every coefficient
    of the sum.  Generic terms are summed apart by ``QRat.__add__``.
    Used by the series and polynomial inner loops, where per-term
    normalization would dominate the runtime.
    """

    __slots__ = ("_groups", "_rest")

    def __init__(self):
        self._groups: dict[tuple, QPoly] = {}
        self._rest = QRAT_ZERO

    def add(self, r: QRat) -> None:
        if r._m is None:
            self._rest = self._rest + r
        else:
            self.add_raw(r._m, r._n)

    def add_raw(self, m: tuple, n: QPoly) -> None:
        """Add Phi^m n for an exponent vector m; n need not be reduced."""
        if n._ints:
            groups = self._groups
            groups[m] = groups[m] + n if m in groups else n

    def add_product(self, a: QRat, b: QRat) -> None:
        """Add a*b without canonicalizing the intermediate product."""
        if a._m is None or b._m is None:
            self._rest = self._rest + a * b
        elif a and b:
            self.add_raw(_vadd(a._m, b._m), a._n * b._n)

    def value(self) -> QRat:
        groups = [(key, n) for key, n in self._groups.items() if n._ints]
        if not groups:
            return self._rest
        # The common factor c is the element-wise minimum of the keys,
        # padded with zeros: a Phi_d that a key lacks has exponent 0 there.
        top = max(len(key) for key, _ in groups)
        keys = [key + (0,) * (top - len(key)) for key, _ in groups]
        c = [min(col) for col in zip(*keys)]
        den = _int_lcm(*(n._den for _, n in groups))
        # Each part times den/L and its cofactor over c, at q = 256^w: no
        # coefficient of the sum exceeds the sum over the groups of
        # max|part| (den/L) prod |Phi_d|_1^e, the bound the slots hold.
        terms, bound, slots = [], 0, 1
        for key, (_, part) in zip(keys, groups):
            cof = _vec([e - x for e, x in zip(key, c)])
            scale = den // part._den
            cof_bound, cof_slots = _size(cof)
            bound += max(map(abs, part._ints)) * scale * cof_bound
            slots = max(slots, len(part._ints) - 1 + cof_slots)
            terms.append((part._ints, scale, cof))
        w = _width(bound)
        v = sum(_kron_pack(ints, w) * scale * _packed(cof, w)
                for ints, scale, cof in terms)
        if not v:
            return self._rest
        n = _poly(_kron_unpack(v, w, slots), den)
        # The vector is made after the temporaries, so it pins none of their memory.
        r = _factored(*_cancel(_vec(c), n))
        return r + self._rest if self._rest else r
