"""In-memory span recorder that wraps qappell functions from outside the
package, and the per-layer metrics derived from what it records.

A span is one call of a wrapped function.  For each span name the
recorder keeps the call count, the total time and the self time: the
call's duration minus the part of it that nested spans cover.  Nothing
is written while the program runs; a caller reads ``Recorder.report()``
once the traced work is done.

Wrapping replaces every binding of the original object: the attribute of
its defining module, each ``from ... import`` binding in other qappell
modules (``reports.make_family``, ``cli.make_family``, the package
re-exports, ...), and each alias in a class body (``__rmul__ = __mul__``).
An ``lru_cache`` keeps its ``cache_info()`` and ``cache_clear()`` on the
wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from sizes import qrat_sizes
from workloads import FAMILIES

# Per-layer spans: (module, attribute, metrics emitted for the span).
SPANS = (
    ("qarith", "qpoly_gcd", ("calls", "self_s")),
    ("qarith", "QPoly.__mul__", ("calls", "self_s")),
    ("qarith", "QPoly.div_exact", ("calls", "self_s")),
    ("qarith", "QRat.__add__", ("calls", "self_s")),
    ("qarith", "QRat.__mul__", ("calls", "self_s")),
    ("qarith", "QRat.evaluate", ("calls", "self_s")),
    ("qarith", "FracAcc.add_raw", ("calls", "self_s")),
    ("qarith", "FracAcc.value", ("calls", "self_s")),
    ("qseries", "Series.divide", ("calls", "self_s")),
    ("qseries", "Series.__mul__", ("calls", "self_s")),
    ("qseries", "Series.scale_arg", ("calls", "self_s")),
    ("qseries", "Series.q_derivative", ("calls", "self_s")),
    ("qseries", "eq_exponential", ("calls", "self_s")),
    ("families", "make_family", ("calls", "total_s")),
    ("families", "verify_printed_theorem", ("calls", "self_s")),
    ("families", "euler_numbers", ("calls", "self_s")),
    ("appell", "AppellFamily.numbers", ("calls", "self_s")),
    ("appell", "AppellFamily.polynomial", ("calls", "self_s")),
    ("appell", "AppellFamily.alphas", ("calls", "self_s")),
    ("appell", "recurrence_residual", ("calls", "self_s")),
    ("appell", "difference_residual", ("calls", "self_s")),
    ("appell", "verify_lowering_range", ("calls", "self_s")),
    ("appell", "XPoly.__add__", ("calls", "self_s")),
    ("appell", "XPoly.scale", ("calls", "self_s")),
    ("appell", "XPoly.q_derivative", ("calls", "self_s")),
    ("appell", "XPoly.evaluate", ("calls", "self_s")),
    ("hermite", "recurrence_residual", ("calls", "self_s")),
    ("hermite", "difference_residual", ("calls", "self_s")),
    ("hermite", "verify_cross_construction", ("calls", "self_s")),
    ("reports", "hard_reports", ("total_s",)),
    ("reports", "descriptive_reports", ("total_s",)),
    ("render", "dumps", ("calls", "self_s")),
    ("render", "xpoly_to_json", ("calls", "self_s")),
    ("render", "qrat_to_json", ("calls", "self_s")),
    ("cli", "main", ("total_s",)),
)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

# Per-layer metrics that are not a span's count or time: name -> unit.
_DERIVED = (
    ("qarith.qpoly_gcd.nontrivial_share", "ratio"),
    ("qarith.q_binomial.hit_ratio", "ratio"),
    ("qseries.Series.divide.max_den_deg", "degree"),
    ("qseries.Series.divide.max_coeff_bits", "bits"),
    ("families.make_family.hit_ratio", "ratio"),
    *((f"families.{kind}.{size}", unit) for kind in FAMILIES
      for size, unit in (("max_den_deg", "degree"), ("max_coeff_bits", "bits"))),
    ("trace.overhead_s", "s"),
)

_HIGHER_IS_BETTER = ("nontrivial_share", "hit_ratio")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in emission order, with its unit."""
    out = {}
    for module, attr, kinds in SPANS:
        for kind in kinds:
            out[f"{module}.{attr}.{kind}"] = _UNITS[kind]
    out.update(_DERIVED)
    return out


def metric_better(name: str) -> str:
    return "higher" if name.endswith(_HIGHER_IS_BETTER) else "lower"


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _hit_ratio(counts: dict, cache: str) -> float:
    hits = counts.get(f"{cache}_hits", 0)
    return _ratio(hits, hits + counts.get(f"{cache}_misses", 0))


def layer_metrics(spans: dict, counts: dict, sizes: dict,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from merged recorder reports.

    A span that the workload never reached reads 0 calls and 0 s.
    """
    values = {}
    for module, attr, kinds in SPANS:
        calls, total_s, self_s = spans.get(f"{module}.{attr}", (0, 0.0, 0.0))
        picked = {"calls": calls, "total_s": total_s, "self_s": self_s}
        for kind in kinds:
            values[f"{module}.{attr}.{kind}"] = picked[kind]
    gcd_calls = spans.get("qarith.qpoly_gcd", (0,))[0]
    derived = {
        "qarith.qpoly_gcd.nontrivial_share":
            _ratio(counts.get("qpoly_gcd_nontrivial", 0), gcd_calls),
        "qarith.q_binomial.hit_ratio": _hit_ratio(counts, "q_binomial"),
        "families.make_family.hit_ratio": _hit_ratio(counts, "make_family"),
        "trace.overhead_s": overhead_s,
    }
    for name, _unit in _DERIVED:
        values[name] = derived[name] if name in derived else sizes.get(name, 0)
    return values


def merge_reports(reports) -> tuple[dict, dict, dict]:
    """Sum span stats and counts over child reports; keep the largest sizes."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for rep in reports:
        for name, stat in rep["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(stat):
                acc[i] += v
        for name, v in rep["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in rep["sizes"].items():
            sizes[name] = max(sizes.get(name, 0), v)
    return spans, counts, sizes


class Recorder:
    """Installs span wrappers on the loaded qappell modules and records
    into memory.  Import every qappell module the traced work uses
    before ``install()``, so that all their bindings get wrapped."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.gcd_nontrivial = 0
        self.divide_results: list = []
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if observe is not None:
                observe(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _observer(self, name: str):
        if name == "qarith.qpoly_gcd":
            def count_nontrivial(g):
                if g.degree >= 1:
                    self.gcd_nontrivial += 1
            return count_nontrivial
        if name == "qseries.Series.divide":
            # Sizes are measured after the traced work, never inside a span.
            return self.divide_results.append
        return None

    def _rebind(self, namespace_owner, orig, wrapper) -> None:
        for key, value in list(vars(namespace_owner).items()):
            if value is orig:
                self._undo.append((namespace_owner, key, value))
                setattr(namespace_owner, key, wrapper)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qappell" or key.startswith("qappell.")]
        for module_name, attr, _kinds in SPANS:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"qappell.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = vars(owner)[member]
                self._rebind(owner, orig, self._wrap(name, orig, self._observer(name)))
            else:
                orig = getattr(module, member)
                wrapper = self._wrap(name, orig, self._observer(name))
                for m in modules:
                    self._rebind(m, orig, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def report(self) -> dict:
        """Spans, counts and sizes of the traced work, JSON-ready."""
        from qappell import families, qarith

        q_binomial = qarith.q_binomial.cache_info()
        make_family = families.make_family.cache_info()
        counts = {
            "qpoly_gcd_nontrivial": self.gcd_nontrivial,
            "q_binomial_hits": q_binomial.hits,
            "q_binomial_misses": q_binomial.misses,
            "make_family_hits": make_family.hits,
            "make_family_misses": make_family.misses,
        }
        den_deg, coeff_bits = qrat_sizes(
            c for series in self.divide_results for c in series.coeffs)
        sizes = {"qseries.Series.divide.max_den_deg": den_deg,
                 "qseries.Series.divide.max_coeff_bits": coeff_bits}
        return {"spans": self.stats, "counts": counts, "sizes": sizes}
