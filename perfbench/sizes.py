"""Object-size metrics, computed from public values after all timing.

In exact arithmetic the size of the objects drives the time, so the
traced run reports the largest denominator degree in q and the largest
coefficient bit length, both for the quotients ``Series.divide`` returned
during the traced work and for each family's generator, numbers and
alphas at order 24.
"""

from __future__ import annotations

SIZE_ORDER = 24


def qrat_sizes(values) -> tuple[int, int]:
    """(largest denominator degree, largest numerator or denominator bit
    length of any rational coefficient) over an iterable of QRat."""
    den_deg = 0
    bits = 0
    for v in values:
        den_deg = max(den_deg, v.den.degree)
        for poly in (v.num, v.den):
            for c in poly.coeffs:
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return den_deg, bits


def family_sizes(order: int = SIZE_ORDER) -> dict[str, int]:
    """families.<kind>.max_den_deg / .max_coeff_bits over the generator,
    A_0..A_order and alpha_0..alpha_(order-1)."""
    from qappell.families import FamilyKind, make_family

    out = {}
    for kind in FamilyKind:
        fam = make_family(kind, order)
        values = (*fam.generator.coeffs, *fam.numbers(order),
                  *fam.alphas(order - 1))
        den_deg, bits = qrat_sizes(values)
        out[f"families.{kind.value}.max_den_deg"] = den_deg
        out[f"families.{kind.value}.max_coeff_bits"] = bits
    return out
