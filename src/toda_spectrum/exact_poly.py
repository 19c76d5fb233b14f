"""Exact rational polynomials and matrices.

Characteristic polynomials are computed with the Faddeev-LeVerrier recurrence
over :class:`fractions.Fraction`, so every coefficient comes out exact. That
is O(n^4) with fat rationals, which is entirely fine at the ranks this package
handles; correctness is the point, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

RationalLike = Fraction | int


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RationalPolynomial:
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

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coefficients[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

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

    def scale(self, factor: RationalLike) -> "RationalPolynomial":
        f = _frac(factor)
        return RationalPolynomial(tuple(c * f for c in self.coefficients))

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


@dataclass(frozen=True)
class RationalMatrix:
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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        return RationalMatrix(
            tuple(
                tuple(
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), Fraction(0))
                    for j in range(n)
                )
                for i in range(n)
            )
        )

    def to_float(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.entries]


def char_poly_exact(m: RationalMatrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(xI - m), exact.

    Faddeev-LeVerrier: with M1 = m and c_k = -trace(M_k)/k,
    M_{k+1} = m (M_k + c_k I); the c_k are the descending coefficients
    after the leading 1.
    """
    n = m.n
    coeffs_desc: list[Fraction] = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        coeffs_desc.append(ck)
        if k < n:
            shifted = RationalMatrix(
                tuple(
                    tuple(mk.entries[i][j] + (ck if i == j else 0) for j in range(n))
                    for i in range(n)
                )
            )
            mk = m @ shifted
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


def refine_real_roots(
    p: RationalPolynomial, lo: float, hi: float, samples: int = 20000
) -> list[float]:
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
    step = (hi - lo) / samples
    prev_x, prev_v = lo, f(lo)
    if prev_v == 0.0:
        roots.append(prev_x)
    for i in range(1, samples + 1):
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
