"""Nested square-root closed forms, evaluated straight from their text.

A closed form is written in a tiny textual grammar: integers, ``sqrt(...)``,
``+``, ``-``, ``*``, ``/`` and parentheses, where ``/`` divides only by a
value free of square roots. Every closed form this package verifies is kept
as such text.

:func:`eval_radical` evaluates the text as it parses it. Every ``+ - * /``
and every square root runs in the standard library's decimal arithmetic at 40
significant digits, in one fixed context, and the result is rounded once to
the nearest double, so it is the same on every platform.
"""

from __future__ import annotations

import math
import re
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

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(sqrt)|([()+\-*/]))")


def eval_radical(text: str) -> float:
    """Evaluate a closed form written in the textual grammar; return the nearest double.

    expr := term (("+" | "-") term)*,  term := factor (("*" | "/") factor)*,
    factor := "-" factor | "(" expr ")" | "sqrt" "(" expr ")" | integer.

    Raises ValueError on bad syntax or on division by a value that holds a
    square root, and NegativeRadicandError, naming the radicand's text, when
    a square root's argument is negative.
    """
    # each match eats the whitespace before a token, so drop what trails the last
    text = text.rstrip()
    spans: list[tuple[int, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad radical syntax at {text[pos:]!r}")
        pos = m.end()
        spans.append((m.start(m.lastindex), pos))
    tokens = [text[a:b] for a, b in spans] + [None]
    i = 0

    def take(expected: str | None = None) -> str:
        nonlocal i
        tok = tokens[i]
        if tok is None or (expected is not None and tok != expected):
            want = repr(expected) if expected else "a term"
            found = repr(tok) if tok else "the end of the text"
            raise ValueError(f"expected {want}, found {found}")
        i += 1
        return tok

    # each rule returns (value, whether the value is free of square roots)
    def expr() -> tuple[Decimal, bool]:
        value, rational = term()
        while tokens[i] in ("+", "-"):
            op = _CONTEXT.add if take() == "+" else _CONTEXT.subtract
            rhs, rhs_rational = term()
            value, rational = op(value, rhs), rational and rhs_rational
        return value, rational

    def term() -> tuple[Decimal, bool]:
        value, rational = factor()
        while tokens[i] in ("*", "/"):
            op = take()
            rhs, rhs_rational = factor()
            if op == "*":
                value = _CONTEXT.multiply(value, rhs)
            elif rhs_rational:
                value = _CONTEXT.divide(value, rhs)
            else:
                raise ValueError("division is only supported by rational values")
            rational = rational and rhs_rational
        return value, rational

    def factor() -> tuple[Decimal, bool]:
        tok = take()
        if tok == "-":
            value, rational = factor()
            return _CONTEXT.minus(value), rational
        if tok == "(":
            node = expr()
            take(")")
            return node
        if tok == "sqrt":
            take("(")
            first = i
            value, _ = expr()
            take(")")
            if value < 0:
                radicand = text[spans[first][0] : spans[i - 2][1]]
                raise NegativeRadicandError(radicand, float(value))
            return _CONTEXT.sqrt(value), False
        if tok.isdigit():
            return Decimal(tok), True
        raise ValueError(f"unexpected token {tok!r}")

    value, _ = expr()
    if tokens[i] is not None:
        raise ValueError(f"trailing tokens starting at {tokens[i]!r}")
    return float(value)


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
