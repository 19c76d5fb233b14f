"""Nested square-root expressions with exact rational leaves.

An expression is a sum of terms; each term is either a rational constant or a
rational coefficient times the square root of another expression. That shape
is closed under addition, subtraction, multiplication and division by
rationals (square roots multiply by multiplying their radicands), and it
covers every closed form this package verifies.

Evaluation runs bottom-up in the standard library's decimal arithmetic at 40
significant digits, in one fixed context: the rational terms of each sum are
added exactly as fractions and rounded once, square roots of rationals are
first combined exactly where one is a rational multiple of another (sqrt(8)
is 2*sqrt(2)), and each remaining term coeff * sqrt(inner) uses the correctly
rounded decimal square root. The result is then rounded to the nearest double,
so it is the same on every platform.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Iterator

from .report import CheckReport, CheckResult, check


class NegativeRadicandError(ValueError):
    """A square-root argument evaluated to a negative number."""

    def __init__(self, subtree: "RadicalExpr", value: float):
        self.subtree = subtree
        self.value = value
        super().__init__(f"negative radicand {value!r} in sqrt({subtree})")


# Every evaluation uses this one context, never the caller's thread-local one.
# 40 significant digits leave a wide margin over the 17 that a double holds.
_CONTEXT = Context(prec=40)


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalTerm:
    """coefficient, or coefficient * sqrt(radicand) when a radicand is present."""

    coeff: Fraction
    radicand: "RadicalExpr | None" = None


@dataclass(frozen=True)
class RadicalExpr:
    """A sum of radical terms. Immutable; build with the operators or `parse_radical`."""

    terms: tuple[RadicalTerm, ...]

    @staticmethod
    def rational(value: Fraction | int) -> "RadicalExpr":
        return RadicalExpr((RadicalTerm(Fraction(value)),))

    @property
    def depth(self) -> int:
        return max(
            (1 + t.radicand.depth for t in self.terms if t.radicand is not None),
            default=0,
        )

    def __add__(self, other: "RadicalExpr") -> "RadicalExpr":
        return RadicalExpr(self.terms + other.terms)

    def __neg__(self) -> "RadicalExpr":
        return RadicalExpr(tuple(RadicalTerm(-t.coeff, t.radicand) for t in self.terms))

    def __sub__(self, other: "RadicalExpr") -> "RadicalExpr":
        return self + (-other)

    def __mul__(self, other: "RadicalExpr") -> "RadicalExpr":
        out: list[RadicalTerm] = []
        for a in self.terms:
            for b in other.terms:
                coeff = a.coeff * b.coeff
                if a.radicand is None and b.radicand is None:
                    out.append(RadicalTerm(coeff))
                elif a.radicand is None:
                    out.append(RadicalTerm(coeff, b.radicand))
                elif b.radicand is None:
                    out.append(RadicalTerm(coeff, a.radicand))
                else:
                    out.append(RadicalTerm(coeff, a.radicand * b.radicand))
        return RadicalExpr(tuple(out))

    def __truediv__(self, divisor: Fraction | int) -> "RadicalExpr":
        d = Fraction(divisor)
        if d == 0:
            raise ZeroDivisionError("division of a radical expression by zero")
        return RadicalExpr(tuple(RadicalTerm(t.coeff / d, t.radicand) for t in self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, t in enumerate(self.terms):
            sign = "-" if t.coeff < 0 else "+"
            mag = -t.coeff if t.coeff < 0 else t.coeff
            if t.radicand is None:
                body = _frac_str(mag)
            elif mag == 1:
                body = f"sqrt({t.radicand})"
            else:
                body = f"{_frac_str(mag)}*sqrt({t.radicand})"
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def sqrt(arg: "RadicalExpr | Fraction | int") -> RadicalExpr:
    radicand = arg if isinstance(arg, RadicalExpr) else RadicalExpr.rational(arg)
    return RadicalExpr((RadicalTerm(Fraction(1), radicand),))


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The square root of q >= 0 when it is rational, else None."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _times_sqrt(coeff: Fraction, radicand: Decimal) -> Decimal:
    root = _CONTEXT.multiply(coeff.numerator, _CONTEXT.sqrt(radicand))
    return _CONTEXT.divide(root, coeff.denominator)


def _eval_decimal(e: RadicalExpr) -> Decimal:
    # A rational radicand v is folded exactly: into the rational part when v is
    # a rational square, else into the coefficient of the first surd sqrt(g)
    # with v / g a rational square. Telling commensurable surds apart this way
    # needs no factoring of v.
    rational = Fraction(0)
    surds: dict[Fraction, Fraction] = {}
    nested: list[RadicalTerm] = []
    for t in e.terms:
        if t.radicand is None:
            rational += t.coeff
        elif any(u.radicand is not None for u in t.radicand.terms):
            nested.append(t)
        else:
            v = sum((u.coeff for u in t.radicand.terms), Fraction(0))
            if v < 0:
                raise NegativeRadicandError(t.radicand, float(v))
            r = _rational_sqrt(v)
            if r is not None:
                rational += t.coeff * r
                continue
            for g in surds:
                r = _rational_sqrt(v / g)
                if r is not None:
                    surds[g] += t.coeff * r
                    break
            else:
                surds[v] = t.coeff

    acc = _CONTEXT.divide(rational.numerator, rational.denominator)
    for g, coeff in surds.items():
        acc = _CONTEXT.add(acc, _times_sqrt(coeff, _CONTEXT.divide(g.numerator, g.denominator)))
    for t in nested:
        inner = _eval_decimal(t.radicand)
        if inner < 0:
            raise NegativeRadicandError(t.radicand, float(inner))
        acc = _CONTEXT.add(acc, _times_sqrt(t.coeff, inner))
    return acc


def eval_radical(e: RadicalExpr) -> float:
    """Evaluate in 40-digit decimal arithmetic; return the nearest double.

    The rational terms of each sum, and the coefficients of commensurable
    square roots of rationals, are added exactly before one rounding, so a
    radicand that is exactly zero, such as sqrt(8) - 2*sqrt(2), evaluates to
    zero rather than to a rounding residue of either sign.
    """
    return float(_eval_decimal(e))


# ---------------------------------------------------------------------------
# tiny textual form: rationals, sqrt(...), + - * / ( )
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(sqrt)|([()+\-*/]))")


def _tokenize(text: str) -> Iterator[str]:
    # each match eats the whitespace before a token, so drop what trails the last
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad radical syntax at {text[pos:]!r}")
        pos = m.end()
        yield m.group(1) or m.group(2) or m.group(3)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> RadicalExpr:
        e = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens starting at {self.peek()!r}")
        return e

    def expr(self) -> RadicalExpr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> RadicalExpr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                node = node * rhs
            else:
                if len(rhs.terms) != 1 or rhs.terms[0].radicand is not None:
                    raise ValueError("division is only supported by rational values")
                node = node / rhs.terms[0].coeff
        return node

    def factor(self) -> RadicalExpr:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "sqrt":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return sqrt(node)
        if tok is not None and tok.isdigit():
            self.take()
            return RadicalExpr.rational(int(tok))
        raise ValueError(f"unexpected token {tok!r}")


def parse_radical(text: str) -> RadicalExpr:
    """Parse the tiny textual form: rationals, sqrt(...), +, -, *, / and parentheses."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# the closed forms under verification
# ---------------------------------------------------------------------------

# Closed forms for the four positive adjacency eigenvalues, in printed order.
# They pair with exponents (1, 11, 7, 13): the middle two entries are
# customarily listed in the transposed order relative to descending value.
EIGENVALUE_CLOSED_FORMS: tuple[RadicalExpr, ...] = tuple(
    parse_radical(text)
    for text in (
        "1/2*sqrt(7 + sqrt(5) + sqrt(30 + 6*sqrt(5)))",
        "1/2*sqrt(7 + sqrt(5) - sqrt(30 + 6*sqrt(5)))",
        "1/2*sqrt(7 - sqrt(5) + sqrt(30 - 6*sqrt(5)))",
        "1/2*sqrt(7 - sqrt(5) - sqrt(30 - 6*sqrt(5)))",
    )
)

# (name, kind, fraction of pi, closed form, note). The 2cos(pi/30) radicand is
# customarily printed with a stray comma; it is parsed here in the shape of its
# sibling entries, which also matches the first eigenvalue closed form.
TRIG_CLOSED_FORMS: tuple[tuple[str, str, int, RadicalExpr, str], ...] = (
    ("2cos(pi/5)", "cos", 5, parse_radical("(1 + sqrt(5))/2"), ""),
    ("2sin(pi/5)", "sin", 5, parse_radical("sqrt((5 - sqrt(5))/2)"), ""),
    ("2cos(pi/10)", "cos", 10, parse_radical("sqrt((5 + sqrt(5))/2)"), ""),
    ("2sin(pi/10)", "sin", 10, parse_radical("sqrt((3 - sqrt(5))/2)"), ""),
    (
        "2cos(pi/15)",
        "cos",
        15,
        parse_radical("1/2*sqrt(9 + sqrt(5) + 2*sqrt(3)*sqrt((5 - sqrt(5))/2))"),
        "",
    ),
    (
        "2sin(pi/15)",
        "sin",
        15,
        parse_radical("1/2*sqrt(7 - sqrt(5) - 2*sqrt(3)*sqrt((5 - sqrt(5))/2))"),
        "",
    ),
    (
        "2cos(pi/30)",
        "cos",
        30,
        parse_radical("1/2*sqrt(7 + sqrt(5) + 2*sqrt(3)*sqrt((5 + sqrt(5))/2))"),
        "stray comma in the customary printing emended",
    ),
    (
        "2sin(pi/30)",
        "sin",
        30,
        parse_radical("1/2*sqrt(9 - sqrt(5) - 2*sqrt(3)*sqrt((5 + sqrt(5))/2))"),
        "",
    ),
)

# Mass closed forms keyed by E8 particle label. Each value equals the particle
# mass divided by sqrt(2) on the absolute scale (equivalently: doubling its
# square gives the particle's squared mass), although these expressions are
# customarily labelled as squared masses.
MASS_CLOSED_FORMS: dict[int, RadicalExpr] = {
    5: parse_radical("1/2*sqrt(15 + 3*sqrt(5) + sqrt(6)*sqrt(25 + 11*sqrt(5)))"),
    7: parse_radical("1/2*sqrt(15 + 3*sqrt(5) - sqrt(6)*sqrt(25 + 11*sqrt(5)))"),
    8: parse_radical("1/2*sqrt(15 - 3*sqrt(5) + sqrt(6)*sqrt(25 - 11*sqrt(5)))"),
    2: parse_radical("1/2*sqrt(15 - 3*sqrt(5) - sqrt(6)*sqrt(25 - 11*sqrt(5)))"),
    4: parse_radical("1/2*sqrt(15 + 3*sqrt(5) + sqrt(6)*sqrt(5 - sqrt(5)))"),
    6: parse_radical("1/2*sqrt(15 + 3*sqrt(5) - sqrt(6)*sqrt(5 - sqrt(5)))"),
    3: parse_radical("1/2*sqrt(15 - 3*sqrt(5) + sqrt(6)*sqrt(5 + sqrt(5)))"),
    1: parse_radical("1/2*sqrt(15 - 3*sqrt(5) - sqrt(6)*sqrt(5 + sqrt(5)))"),
}

_E8_EXPONENT_CANDIDATES = (1, 7, 11, 13)


def match_eigenvalue_exponents() -> list[tuple[int, float, float]]:
    """Pair each eigenvalue closed form with its exponent by nearest value.

    Returns (exponent, closed-form value, relative residual) in printed order.
    """
    out = []
    for expr in EIGENVALUE_CLOSED_FORMS:
        value = eval_radical(expr)
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
            eig_res if (set(exponents) == {1, 7, 11, 13} and ordered) else 1.0,
            1e-12,
            f"printed order pairs with exponents {exponents} (middle two transposed); "
            "sorted descending the values follow exponents 1, 7, 11, 13",
        )
    )

    trig_res = 0.0
    notes = []
    for name, kind, denom, expr, note in TRIG_CLOSED_FORMS:
        func = math.cos if kind == "cos" else math.sin
        reference = 2.0 * func(math.pi / denom)
        trig_res = max(trig_res, abs(eval_radical(expr) - reference) / abs(reference))
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
