"""Exact rational polynomials and matrices.

The matrix kernels clear denominators once and then work in Python integers,
the fraction-free idea of Bareiss (1968): a product scales both factors by the
lcm of their denominators, multiplies integer rows and divides once per entry;
the characteristic polynomial runs Faddeev-LeVerrier on the scaled integer
matrix, where every division is exact, and unscales the coefficients at the
end. Every coefficient is exact, and no ``Fraction`` is normalised inside the
O(n^4) loop.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .record import Record

RationalLike = Fraction | int


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RationalPolynomial(Record):
    """Univariate polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_frac(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def of(cls, *coefficients: RationalLike) -> "RationalPolynomial":
        """Build from ascending coefficients: ``of(c0, c1, ..., cn)``."""
        return cls(tuple(_frac(c) for c in coefficients))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return RationalPolynomial(tuple(summed))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero or other.is_zero:
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    def evaluate(self, x: float) -> float:
        """Horner evaluation in double precision."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + float(c)
        return acc

    def evaluate_exact(self, x: RationalLike) -> Fraction:
        xf = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xf + c
        return acc

    def magnitude_at(self, x: float) -> float:
        """Sum of |coefficient| * |x|^k: the natural scale for evaluation residuals."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * abs(x) + abs(float(c))
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if power == 0:
                body = _coeff_str(mag)
            else:
                x = "x" if power == 1 else f"x^{power}"
                body = x if mag == 1 else f"{_coeff_str(mag)}{x}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def _coeff_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


class RationalMatrix(Record):
    """Square matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = []
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(tuple(_frac(v) for v in row))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[RationalLike]]) -> "RationalMatrix":
        return cls(tuple(tuple(_frac(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        scale_a, a = _integer_rows(self)
        scale_b, b = _integer_rows(other)
        scale = scale_a * scale_b
        return RationalMatrix(
            tuple(tuple(Fraction(v, scale) for v in row) for row in _int_matmul(a, b))
        )


def _integer_rows(m: RationalMatrix) -> tuple[int, list[list[int]]]:
    """The lcm L of the denominators of ``m``, and the integer rows of L*m."""
    scale = math.lcm(*(v.denominator for row in m.entries for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in m.entries]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def char_poly_exact(m: RationalMatrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(xI - m), exact.

    Faddeev-LeVerrier on the integer matrix a = L*m, L the lcm of the
    denominators of m: with M_1 = a and c_k = -trace(M_k)/k,
    M_{k+1} = a (M_k + c_k I); the c_k are the descending coefficients of
    det(xI - a) after the leading 1. They are integers, so each division by k
    is exact, and the coefficients of m are c_k / L^k.
    """
    n = m.n
    scale, a = _integer_rows(m)
    coeffs_desc: list[Fraction] = [Fraction(1)]
    mk = a
    for k in range(1, n + 1):
        ck, remainder = divmod(-sum(mk[i][i] for i in range(n)), k)
        if remainder:
            raise ArithmeticError(f"trace of M_{k} is not divisible by {k}")
        coeffs_desc.append(Fraction(ck, scale**k))
        if k < n:
            shifted = [
                [v + ck if i == j else v for j, v in enumerate(row)] for i, row in enumerate(mk)
            ]
            mk = _int_matmul(a, shifted)
    return RationalPolynomial(tuple(reversed(coeffs_desc)))


def poly_divide_exact(
    p: RationalPolynomial, d: RationalPolynomial
) -> tuple[RationalPolynomial, RationalPolynomial]:
    """Exact division with remainder: p = d*q + r, deg r < deg d."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coefficients)
    dc = d.coefficients
    dn = len(dc) - 1
    lead = dc[-1]
    if len(rem) - 1 < dn:
        return RationalPolynomial(()), p
    quot = [Fraction(0)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        if rem[i] == 0:
            continue
        factor = rem[i] / lead
        quot[i - dn] = factor
        for j in range(dn + 1):
            rem[i - dn + j] -= factor * dc[j]
    return RationalPolynomial(tuple(quot)), RationalPolynomial(tuple(rem))


# grid points per call of refine_real_roots
_GRID_SAMPLES = 20000


def refine_real_roots(p: RationalPolynomial, lo: float, hi: float) -> list[float]:
    """All simple real roots of p in [lo, hi], by grid scan plus bisection.

    Suited to the well-separated spectra this package produces; roots closer
    than the grid pitch would be missed, which the tests guard against by
    checking expected counts.
    """
    if p.degree < 1:
        return []
    coeffs = [float(c) for c in p.coefficients]

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    roots: list[float] = []
    step = (hi - lo) / _GRID_SAMPLES
    prev_x, prev_v = lo, f(lo)
    if prev_v == 0.0:
        roots.append(prev_x)
    for i in range(1, _GRID_SAMPLES + 1):
        x = lo + i * step
        v = f(x)
        if v == 0.0:
            roots.append(x)
        elif prev_v != 0.0 and (prev_v < 0) != (v < 0):
            a, b = prev_x, x
            fa = prev_v
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid == a or mid == b:
                    break
                fm = f(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if (fa < 0) != (fm < 0):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
        prev_x, prev_v = x, v
    return roots
