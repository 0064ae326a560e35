"""Truncated formal power series in t over the rational functions of q.

A series carries coefficients for t^0 .. t^N where N is its order.  The
order is fixed at construction and operations never extend it silently:
binary operations demand equal orders, and division shrinks the order by
the valuation of the divisor, solving one ``solve_step`` row per
coefficient.  ``scale_powers`` (v -> cv) and ``jackson`` (the Jackson
derivative) act on coefficient sequences, so ``XPoly`` shares them.
"""

from __future__ import annotations

from .qarith import FracAcc, QRat, QRAT_ONE, QRAT_ZERO, _as_qrat, solve_step


class OrderMismatchError(ValueError):
    """Binary operation on series with different truncation orders."""


class ZeroDivisorError(ArithmeticError):
    """Division by a series that is identically zero to its order."""


class CancellationError(ArithmeticError):
    """Division where the dividend has a nonzero coefficient below the
    divisor's valuation, so the common t-power does not cancel."""


def scale_powers(coeffs, c: QRat) -> list[QRat]:
    """The coefficients a_k c^k: the substitution v -> c*v in
    sum a_k v^k, for series in t and polynomials in x alike."""
    out = []
    power = QRAT_ONE
    for k, a in enumerate(coeffs):
        out.append(a if k == 0 else a * power)
        power = power * c
    return out


def jackson(coeffs) -> list[QRat]:
    """The coefficients [k]_q a_k, k >= 1, of the Jackson derivative of
    sum a_k v^k, for series in t and polynomials in x alike."""
    return [coeffs[k] * QRat.q_integer(k) for k in range(1, len(coeffs))]


class Series:
    """Immutable truncated power series in t with QRat coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_as_qrat(c) for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least the t^0 coefficient")
        self.coeffs = cs

    @classmethod
    def constant(cls, c, order: int) -> Series:
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls((_as_qrat(c),) + (QRAT_ZERO,) * order)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls.constant(QRAT_ZERO, order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.constant(QRAT_ONE, order)

    @classmethod
    def monomial(cls, order: int, k: int, c=1) -> Series:
        """c * t^k truncated at the given order."""
        if not 0 <= k <= order:
            raise ValueError("monomial power outside 0..order")
        cs = [QRAT_ZERO] * (order + 1)
        cs[k] = _as_qrat(c)
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> QRat:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all zero."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return None

    def _check_order(self, other: Series) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> Series:
        return Series([-c for c in self.coeffs])

    def __add__(self, other) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> Series:
        """Cauchy product truncated to the common order."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        n = self.order
        out = []
        for m in range(n + 1):
            acc = FracAcc()
            for k in range(m + 1):
                acc.add_product(self.coeffs[k], other.coeffs[m - k])
            out.append(acc.value())
        return Series(out)

    def __truediv__(self, other) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return self.divide(other)

    def divide(self, b: Series) -> Series:
        """Truncated quotient.

        If b has valuation m, the first m coefficients of self must be
        zero; the common t^m cancels and the result has order
        self.order - m.
        """
        self._check_order(b)
        m = b.valuation()
        if m is None:
            raise ZeroDivisorError("division by a series that is zero to its order")
        for i in range(m):
            if not self.coeffs[i].is_zero():
                raise CancellationError(
                    f"dividend has a nonzero t^{i} coefficient below the "
                    f"divisor valuation {m}")
        a = self.coeffs[m:]
        bb = b.coeffs[m:]
        out: list[QRat] = []
        for n in range(len(a)):
            out.append(solve_step(a[n], ((bb[j], out[n - j])
                                         for j in range(1, n + 1)), bb[0]))
        return Series(out)

    def scale(self, c) -> Series:
        """Multiply every coefficient by the scalar c."""
        c = _as_qrat(c)
        return Series([a * c for a in self.coeffs])

    def scale_arg(self, c) -> Series:
        """Substitute t -> c*t: the t^n coefficient picks up c^n."""
        return Series(scale_powers(self.coeffs, _as_qrat(c)))

    def q_derivative(self) -> Series:
        """Jackson derivative in t: the t^n coefficient becomes
        [n+1]_q * a_{n+1}; the order drops by one."""
        if self.order < 1:
            raise ValueError("q_derivative needs order >= 1")
        return Series(jackson(self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"Series(order={self.order}; {shown}{tail})"


def eq_exponential(order: int) -> Series:
    """The q-exponential e_q(t) = sum t^n / [n]_q! truncated at `order`."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return Series([QRat.q_factorial(n).reciprocal() for n in range(order + 1)])
