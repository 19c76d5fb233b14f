"""Span recording around the public functions of each `toda_spectrum` layer.

The wrappers live here, in the benchmark, and are installed only in traced
worker processes: each wrapper replaces the function in its defining module
and in every ``toda_spectrum`` namespace that imported it by name, so calls
made through module globals are recorded too. A span is ``[name, start, end,
parent, request]`` (times from ``time.perf_counter``); spans stay in memory
and are handed to `run.py` when the pass ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, function) pairs whose calls become spans; names are "<module>.<function>"
TARGETS = (
    ("root_systems", "root_system"),
    ("root_systems", "generate_roots"),
    ("root_systems", "embed_roots"),
    ("exact_poly", "char_poly_exact"),
    ("exact_poly", "poly_divide_exact"),
    ("exact_poly", "refine_real_roots"),
    ("masses", "mass_matrix"),
    ("masses", "mass_char_poly"),
    ("masses", "mass_matrix_embedded"),
    ("masses", "perron_components"),
    ("masses", "spectrum_method1"),
    ("masses", "spectrum_method2"),
    ("masses", "mass_ratio_spread"),
    ("spectral", "jacobi_eigen"),
    ("spectral", "perron_vector"),
    ("radicals", "radical_identity_suite"),
    ("radicals", "eval_radical"),
)
MATMUL = "exact_poly.RationalMatrix.matmul"
CLI_COMMAND = "cli.command"


class Tracer:
    """Collects spans for one process; ``request`` tags the spans of the current request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._eigen: list[tuple] = []  # (input matrix, EigenDecomposition)
        self._polys: list = []  # returned RationalPolynomial objects

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "spectral.jacobi_eigen":
                self._eigen.append((args[0], result))
            elif name == "exact_poly.char_poly_exact":
                self._polys.append(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; ``toda_spectrum`` must already be imported."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "toda_spectrum"]
        for module, attr in TARGETS:
            original = getattr(sys.modules[f"toda_spectrum.{module}"], attr)
            wrapped = self._wrap(f"{module}.{attr}", original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    setattr(ns, attr, wrapped)
        matrix_cls = sys.modules["toda_spectrum.exact_poly"].RationalMatrix
        matrix_cls.__matmul__ = self._wrap(MATMUL, matrix_cls.__matmul__)

    def export(self) -> dict:
        """Spans plus the solver diagnostics recomputed from returned values."""
        residual = 0.0
        for matrix, eig in self._eigen:
            n = len(eig.eigenvalues)
            for k, lam in enumerate(eig.eigenvalues):
                v = [row[k] for row in eig.eigenvectors]
                r = math.sqrt(
                    sum((sum(matrix[i][j] * v[j] for j in range(n)) - lam * v[i]) ** 2
                        for i in range(n))
                )
                residual = max(residual, r)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for p in self._polys for c in p.coefficients),
            default=0,
        )
        return {"spans": self.spans, "jacobi_max_residual": residual, "charpoly_max_bits": bits}


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children, in seconds."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
