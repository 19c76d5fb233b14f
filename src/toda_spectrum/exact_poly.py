"""Exact rational polynomials and matrices.

A ``RationalMatrix`` is held as integer rows over one common denominator, so
the matrix kernels work in Python integers throughout, the fraction-free idea
of Bareiss (1968): a product multiplies integer rows and the two
denominators, then cancels one gcd; no ``Fraction`` is built or normalised
per entry. The characteristic polynomial is Leverrier's: the power sums
p_k = tr(a^k) of the integer matrix a, from the powers up to a^ceil(n/2)
only, then the coefficients by Newton's identities, where every division is
exact; the coefficients are unscaled at the end. Every coefficient is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .record import Record

RationalLike = Fraction | int


def _frac(x: RationalLike, what: str) -> Fraction:
    """``x`` as a ``Fraction``; ``TypeError`` unless it is an ``int`` or a ``Fraction``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"{what} {x!r} is not an int or a Fraction")


class RationalPolynomial(Record):
    """Univariate polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_frac(c, f"coefficient {k}") for k, c in enumerate(self.coefficients))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def of(cls, *coefficients: RationalLike) -> "RationalPolynomial":
        """Build from ascending coefficients: ``of(c0, c1, ..., cn)``."""
        return cls(coefficients)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
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
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
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
        xf = _frac(x, "point")
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
    """Square matrix of exact rationals: integer ``rows`` over one positive ``denominator``.

    Entry (i, j) is ``rows[i][j] / denominator``. The constructor cancels the
    gcd of the denominator and every entry, which leaves the denominator at
    the lcm of the entries' reduced denominators: equal matrices have equal
    fields, so ``==`` and ``hash`` are value equality. :meth:`from_rows`
    takes ``int`` and ``Fraction`` entries, and :attr:`entries` gives them
    back as ``Fraction`` rows when read.
    """

    rows: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        d = self.denominator
        if not isinstance(d, int):
            raise TypeError(f"denominator {d!r} is not an int")
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        try:
            g = math.gcd(d, *itertools.chain.from_iterable(rows))
        except TypeError:
            i, j, v = next(
                (i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)
                if not isinstance(v, int)
            )
            raise TypeError(f"matrix entry ({i}, {j}) = {v!r} is not an int") from None
        if g > 1:
            rows = tuple(tuple([v // g for v in row]) for row in rows)
            d //= g
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "denominator", d)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[RationalLike]]) -> "RationalMatrix":
        """The matrix of these ``int`` or ``Fraction`` entries; ``TypeError`` on any other."""
        rows = [tuple(row) for row in rows]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"matrix entry ({i}, {j}) = {v!r} is not an int or a Fraction")
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        return cls(
            tuple(tuple([v.numerator * (scale // v.denominator) for v in row]) for row in rows),
            scale,
        )

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction`` rows, built on first read."""
        d = self.denominator
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.rows)), self.denominator)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch")
        return RationalMatrix(
            _int_matmul(self.rows, other.rows), self.denominator * other.denominator
        )


def _int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in a]


def char_poly_exact(m: RationalMatrix) -> RationalPolynomial:
    """Monic characteristic polynomial det(xI - m), exact.

    Leverrier's method on the integer matrix a = L*m, L = ``m.denominator``.
    The power sums p_k = tr(a^k), k <= n, come from the powers a^1 ... a^h,
    h = ceil(n/2), alone: for k > h, tr(a^h a^(k-h)) is summed entrywise
    without forming the product. That is h - 1 integer matrix products, not
    the n - 1 of Faddeev's recurrence. Newton's identities,
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1), then give the
    descending coefficients c_k of det(xI - a) after the leading 1. They are
    integers, so each division by k is exact (a remainder raises
    ``ArithmeticError``), and the coefficients of m are c_k / L^k.
    """
    n = m.n
    a = m.rows
    h = (n + 1) // 2
    powers = [a]  # powers[k - 1] = a^k
    for _ in range(h - 1):
        powers.append(_int_matmul(powers[-1], a))
    sums = [sum(row[i] for i, row in enumerate(p)) for p in powers]
    top = list(zip(*powers[-1]))  # tr(a^h b) = sum over s of row s of b dot column s of a^h
    for p in powers[: n - h]:
        sums.append(sum(sum(map(operator.mul, row, col)) for row, col in zip(p, top)))
    coeffs = [1]
    for k in range(1, n + 1):
        # c_1..c_(k-1) against p_(k-1)..p_1
        total = sums[k - 1] + sum(map(operator.mul, coeffs[1:], reversed(sums[: k - 1])))
        ck, remainder = divmod(-total, k)
        if remainder:
            raise ArithmeticError(f"Newton sum {k} is not divisible by {k}")
        coeffs.append(ck)
    scale = m.denominator
    return RationalPolynomial(
        tuple(Fraction(c, scale**k) for k, c in reversed(list(enumerate(coeffs))))
    )


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
