"""qappell: an exact-arithmetic kernel for q-calculus that builds the
q-Appell polynomial families (q-Bernoulli, q-Euler, q-Genocchi,
q-Hermite) from their generating functions and verifies their recurrence
relations and q-difference equations as identities in Q(q)[x].
"""

from .qarith import (PoleError, QPoly, QRat, q_binomial,
                     q_double_factorial_even, q_factorial, q_integer,
                     qpoly_gcd)
from .qseries import (CancellationError, OrderMismatchError, Series,
                      ZeroDivisorError, eq_exponential)
from .appell import (AppellFamily, VerificationReport, XPoly,
                     verify_difference_range, verify_lowering_range,
                     verify_recurrence_range)
from .families import (DiscrepancyReport, FamilyKind, classical_limit,
                       euler_number_series, euler_numbers, make_family,
                       verify_euler_number_relation, verify_printed_theorem)
from .hermite import (hermite_series_form, printed_series_form,
                      verify_hermite_difference_range,
                      verify_hermite_generator_ratio,
                      verify_hermite_recurrence_range)

__version__ = "0.1.0"

__all__ = [
    "AppellFamily", "CancellationError", "DiscrepancyReport", "FamilyKind",
    "OrderMismatchError", "PoleError", "QPoly", "QRat", "Series",
    "VerificationReport", "XPoly", "ZeroDivisorError", "classical_limit",
    "eq_exponential", "euler_number_series", "euler_numbers",
    "hermite_series_form", "make_family", "printed_series_form",
    "q_binomial", "q_double_factorial_even", "q_factorial", "q_integer",
    "qpoly_gcd", "verify_difference_range", "verify_euler_number_relation",
    "verify_hermite_difference_range", "verify_hermite_generator_ratio",
    "verify_hermite_recurrence_range", "verify_lowering_range",
    "verify_printed_theorem", "verify_recurrence_range",
]
