"""Nested square-root closed forms, evaluated straight from their text.

A closed form is written in Python's expression syntax restricted to decimal
integer literals, unary minus, ``+ - * /`` and ``sqrt(x)``, where ``/``
divides only by a value free of square roots. Every closed form this package
verifies is kept as such text.

:func:`eval_radical` has Python's own parser read the text and evaluates the
tree it builds. Every ``+ - * /`` and every square root runs in the standard
library's decimal arithmetic at 40 significant digits, in one fixed context,
and the result is rounded once to the nearest double, so it is the same on
every platform.
"""

from __future__ import annotations

import _ast  # the builtin node types; the ast module would add its own import to every command
import math
from decimal import Context, Decimal

from .report import CheckReport, CheckResult, check


class NegativeRadicandError(ValueError):
    """A square-root argument evaluated to a negative number."""

    def __init__(self, radicand: str, value: float):
        self.radicand = radicand
        self.value = value
        super().__init__(f"negative radicand {value!r} in sqrt({radicand})")


# Every evaluation uses this one context, never the caller's thread-local one.
# 40 significant digits leave a wide margin over the 17 that a double holds.
_CONTEXT = Context(prec=40)

_BINARY = {
    _ast.Add: _CONTEXT.add,
    _ast.Sub: _CONTEXT.subtract,
    _ast.Mult: _CONTEXT.multiply,
    _ast.Div: _CONTEXT.divide,
}


def eval_radical(text: str) -> float:
    """Evaluate a closed form; return the nearest double.

    The text, stripped of leading and trailing whitespace, is Python's
    expression syntax restricted to integer literals in decimal digits (not
    ``0x10``, ``1_0``, ``05`` or ``True``), unary minus, ``+ - * /`` and
    ``sqrt(x)`` of one positional argument, which bind as in Python.

    Raises ValueError on any other syntax, on a tree too deep for the
    interpreter's recursion limit, on division by zero or by a value that
    holds a square root, and NegativeRadicandError, naming the radicand's
    text, when a square root's argument is negative.
    """
    source = text.strip()
    try:
        value, _ = _evaluate(compile(source, "<radical>", "eval", _ast.PyCF_ONLY_AST).body, source)
    except SyntaxError as err:
        raise ValueError(f"bad radical syntax: {err.msg}") from None
    except RecursionError:  # a tree deeper than the interpreter's stack, as a sum of 1000 terms
        raise ValueError("closed form nested too deeply to evaluate") from None
    return float(value)


def _evaluate(node: _ast.expr, source: str) -> tuple[Decimal, bool]:
    """The value of ``node``, and whether that value is free of square roots."""
    kind = type(node)
    if kind is _ast.BinOp and (op := type(node.op)) in _BINARY:
        value, rational = _evaluate(node.left, source)
        rhs, rhs_rational = _evaluate(node.right, source)
        if op is _ast.Div:
            if not rhs_rational:
                raise ValueError("division is only supported by rational values")
            if not rhs:
                raise ValueError("division by zero")
        return _BINARY[op](value, rhs), rational and rhs_rational
    if kind is _ast.Constant and type(node.value) is int:
        # the literal's own width: 0x10, 1_0 and 00 are wider than their value
        if node.end_col_offset - node.col_offset == len(str(node.value)):
            return Decimal(node.value), True
    elif kind is _ast.Call:
        func, args = node.func, node.args
        if type(func) is _ast.Name and func.id == "sqrt" and len(args) == 1 and not node.keywords:
            value, _ = _evaluate(args[0], source)
            if value < 0:
                raise NegativeRadicandError(_source_text(source, args[0]), float(value))
            return _CONTEXT.sqrt(value), False
    elif kind is _ast.UnaryOp and type(node.op) is _ast.USub:
        value, rational = _evaluate(node.operand, source)
        return _CONTEXT.minus(value), rational
    raise ValueError(f"not allowed in a closed form: {_source_text(source, node)!r}")


def _source_text(source: str, node: _ast.expr) -> str:
    """The text of ``node`` in ``source``, whose newlines the parser read as "\\n".

    A node's lines count from 1 and its columns are UTF-8 byte offsets.
    """
    lines = source.replace("\r\n", "\n").replace("\r", "\n").encode().split(b"\n")
    lines = lines[node.lineno - 1 : node.end_lineno]
    lines[-1] = lines[-1][: node.end_col_offset]
    lines[0] = lines[0][node.col_offset :]
    return b"\n".join(lines).decode()


# ---------------------------------------------------------------------------
# the closed forms under verification
# ---------------------------------------------------------------------------

# Closed forms for the four positive adjacency eigenvalues, in printed order.
# They pair with exponents (1, 11, 7, 13): the middle two entries are
# customarily listed in the transposed order relative to descending value.
EIGENVALUE_CLOSED_FORMS: tuple[str, ...] = (
    "1/2*sqrt(7 + sqrt(5) + sqrt(30 + 6*sqrt(5)))",
    "1/2*sqrt(7 + sqrt(5) - sqrt(30 + 6*sqrt(5)))",
    "1/2*sqrt(7 - sqrt(5) + sqrt(30 - 6*sqrt(5)))",
    "1/2*sqrt(7 - sqrt(5) - sqrt(30 - 6*sqrt(5)))",
)

# (name, kind, fraction of pi, closed form, note). The 2cos(pi/30) radicand is
# customarily printed with a stray comma; it is written here in the shape of its
# sibling entries, which also matches the first eigenvalue closed form.
TRIG_CLOSED_FORMS: tuple[tuple[str, str, int, str, str], ...] = (
    ("2cos(pi/5)", "cos", 5, "(1 + sqrt(5))/2", ""),
    ("2sin(pi/5)", "sin", 5, "sqrt((5 - sqrt(5))/2)", ""),
    ("2cos(pi/10)", "cos", 10, "sqrt((5 + sqrt(5))/2)", ""),
    ("2sin(pi/10)", "sin", 10, "sqrt((3 - sqrt(5))/2)", ""),
    (
        "2cos(pi/15)",
        "cos",
        15,
        "1/2*sqrt(9 + sqrt(5) + 2*sqrt(3)*sqrt((5 - sqrt(5))/2))",
        "",
    ),
    (
        "2sin(pi/15)",
        "sin",
        15,
        "1/2*sqrt(7 - sqrt(5) - 2*sqrt(3)*sqrt((5 - sqrt(5))/2))",
        "",
    ),
    (
        "2cos(pi/30)",
        "cos",
        30,
        "1/2*sqrt(7 + sqrt(5) + 2*sqrt(3)*sqrt((5 + sqrt(5))/2))",
        "stray comma in the customary printing emended",
    ),
    (
        "2sin(pi/30)",
        "sin",
        30,
        "1/2*sqrt(9 - sqrt(5) - 2*sqrt(3)*sqrt((5 + sqrt(5))/2))",
        "",
    ),
)

# Mass closed forms keyed by E8 particle label. Each value equals the particle
# mass divided by sqrt(2) on the absolute scale (equivalently: doubling its
# square gives the particle's squared mass), although these expressions are
# customarily labelled as squared masses.
MASS_CLOSED_FORMS: dict[int, str] = {
    5: "1/2*sqrt(15 + 3*sqrt(5) + sqrt(6)*sqrt(25 + 11*sqrt(5)))",
    7: "1/2*sqrt(15 + 3*sqrt(5) - sqrt(6)*sqrt(25 + 11*sqrt(5)))",
    8: "1/2*sqrt(15 - 3*sqrt(5) + sqrt(6)*sqrt(25 - 11*sqrt(5)))",
    2: "1/2*sqrt(15 - 3*sqrt(5) - sqrt(6)*sqrt(25 - 11*sqrt(5)))",
    4: "1/2*sqrt(15 + 3*sqrt(5) + sqrt(6)*sqrt(5 - sqrt(5)))",
    6: "1/2*sqrt(15 + 3*sqrt(5) - sqrt(6)*sqrt(5 - sqrt(5)))",
    3: "1/2*sqrt(15 - 3*sqrt(5) + sqrt(6)*sqrt(5 + sqrt(5)))",
    1: "1/2*sqrt(15 - 3*sqrt(5) - sqrt(6)*sqrt(5 + sqrt(5)))",
}

_E8_EXPONENT_CANDIDATES = (1, 7, 11, 13)


def match_eigenvalue_exponents() -> list[tuple[int, float, float]]:
    """Pair each eigenvalue closed form with its exponent by nearest value.

    Returns (exponent, closed-form value, relative residual) in printed order.
    """
    out = []
    for form in EIGENVALUE_CLOSED_FORMS:
        value = eval_radical(form)
        best = min(
            _E8_EXPONENT_CANDIDATES,
            key=lambda a: abs(value - 2.0 * math.cos(a * math.pi / 30.0)),
        )
        reference = 2.0 * math.cos(best * math.pi / 30.0)
        out.append((best, value, abs(value - reference) / abs(reference)))
    return out


def radical_identity_suite() -> CheckReport:
    """Verify the eigenvalue and trigonometric closed forms against trigonometry.

    The mass closed forms are checked in :mod:`toda_spectrum.verify`, which
    holds the E8 quartics and Perron components they are judged against.
    """
    checks: list[CheckResult] = []

    matched = match_eigenvalue_exponents()
    exponents = tuple(m[0] for m in matched)
    eig_res = max(m[2] for m in matched)
    values_desc = sorted((m[1] for m in matched), reverse=True)
    ordered = all(a > b > 0.0 for a, b in zip(values_desc, values_desc[1:]))
    checks.append(
        check(
            "eigenvalue-closed-forms",
            eig_res if (set(exponents) == set(_E8_EXPONENT_CANDIDATES) and ordered) else 1.0,
            1e-12,
            f"printed order pairs with exponents {exponents} (middle two transposed); "
            "sorted descending the values follow exponents 1, 7, 11, 13",
        )
    )

    trig_res = 0.0
    notes = []
    for name, kind, denom, form, note in TRIG_CLOSED_FORMS:
        func = math.cos if kind == "cos" else math.sin
        reference = 2.0 * func(math.pi / denom)
        trig_res = max(trig_res, abs(eval_radical(form) - reference) / abs(reference))
        if note:
            notes.append(f"{name}: {note}")
    checks.append(
        check(
            "trig-closed-forms",
            trig_res,
            1e-12,
            "; ".join(notes) if notes else "",
        )
    )
    return CheckReport(tuple(checks))
