import math
from fractions import Fraction

import pytest
from dense_reference import faddeev_char_poly, from_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toda_spectrum import classical
from toda_spectrum.exact_poly import (
    RationalMatrix,
    RationalPolynomial,
    char_poly_exact,
    poly_divide_exact,
    refine_real_roots,
)
from toda_spectrum.masses import mass_char_poly, mass_matrix
from toda_spectrum.root_systems import AlgebraId, cartan_matrix, dynkin_adjacency, root_system
from toda_spectrum.verify import E8_MASS_QUARTICS

# frozen expected coefficients, ascending degree
E8_ADJACENCY_CHARPOLY = (1, 0, -8, 0, 14, 0, -7, 0, 1)
E8_MASS_CHARPOLY = (518400, -1296000, 1166400, -518400, 127440, -18000, 1440, -60, 1)

# smallest root of the quartic carrying particles 1,3,4,6; refined independently
SMALLEST_LIGHT_QUARTIC_ROOT = 0.851341619564988


# ---------------------------------------------------------------------------
# oracle: characteristic polynomial by cofactor expansion of xI - m over the
# polynomial ring (independent of the power-sum route under test)
# ---------------------------------------------------------------------------


def _poly_det(mat: list[list[RationalPolynomial]]) -> RationalPolynomial:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = RationalPolynomial.of()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def charpoly_oracle(entries: list[list[Fraction]]) -> RationalPolynomial:
    n = len(entries)
    x = RationalPolynomial.of(0, 1)
    zero = RationalPolynomial.of()
    mat = [
        [
            (x if i == j else zero) + RationalPolynomial.of(-entries[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(mat)


# entries with denominators 1-6, so the kernels' lcm scaling meets mixed denominators
rationals = st.builds(Fraction, st.integers(min_value=-30, max_value=30), st.integers(1, 6))


def rational_matrices(n: int):
    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(rational_matrices))
def test_char_poly_matches_cofactor_oracle(entries):
    assert char_poly_exact(from_rows(entries)) == charpoly_oracle(entries)


def naive_matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(rational_matrices(n), rational_matrices(n))
    )
)
@example(([[0, 0], [0, 0]], [[Fraction(1, 2), -3], [5, Fraction(-2, 3)]]))
@example(([[Fraction(-3, 4), 2], [Fraction(1, 6), -1]], [[0, 0], [0, 0]]))
@example(([[Fraction(-3, 4)]], [[Fraction(-2, 5)]]))
def test_matmul_matches_naive_triple_sum(pair):
    a, b = pair
    product = from_rows(a) @ from_rows(b)
    assert product == from_rows(naive_matmul(a, b))
    assert all(isinstance(v, Fraction) for row in product.entries for v in row)


def jordan_block(n: int, eigenvalue: Fraction) -> list[list[Fraction | int]]:
    """``eigenvalue`` on the diagonal, 1 just above it, 0 elsewhere."""
    return [[eigenvalue if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(rational_matrices))
@example([[0] * 8 for _ in range(8)])
@example(jordan_block(8, Fraction(0)))
@example(jordan_block(5, Fraction(0)))
@example(jordan_block(6, Fraction(-3, 2)))
@example([[Fraction(2, 3) if i == j else 0 for j in range(7)] for i in range(7)])
@example([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, Fraction(-1, 5)]])
def test_char_poly_matches_faddeev_reference(entries):
    assert char_poly_exact(from_rows(entries)) == faddeev_char_poly(entries)


def test_char_poly_of_jordan_blocks_is_a_power():
    x = RationalPolynomial.of(0, 1)
    for n, eigenvalue in [(8, Fraction(0)), (7, Fraction(5, 3))]:
        expected = RationalPolynomial.of(1)
        for _ in range(n):
            expected = expected * (x - RationalPolynomial.of(eigenvalue))
        assert char_poly_exact(from_rows(jordan_block(n, eigenvalue))) == expected


REFERENCE_ALGEBRAS = classical.all_algebras(16) + ["A31", "B31", "C31", "D31"]


@pytest.mark.parametrize("name", REFERENCE_ALGEBRAS)
def test_mass_and_adjacency_char_polys_match_faddeev_reference(name):
    mass = mass_matrix(name)
    assert char_poly_exact(mass) == faddeev_char_poly(mass.entries)
    adjacency = dynkin_adjacency(root_system(name).cartan)
    assert char_poly_exact(from_rows(adjacency)) == faddeev_char_poly(adjacency)


@pytest.mark.parametrize("name", classical.all_algebras(16))
def test_mass_matrix_is_marks_matrix_times_gram_in_fractions(name):
    rs = root_system(name)
    n, marks = rs.rank, rs.marks
    k = [[Fraction(marks[i] * marks[j] + (marks[i] if i == j else 0)) for j in range(n)]
         for i in range(n)]
    expected = naive_matmul(k, [list(row) for row in rs.gram])
    product = mass_matrix(name)
    assert product.entries == tuple(map(tuple, expected))
    assert product == from_rows(expected)


def test_matrix_is_integer_rows_over_the_least_common_denominator():
    half = Fraction(1, 2)
    m = from_rows([[half, 1], [Fraction(-3, 4), 0]])
    assert (m.rows, m.denominator) == (((2, 4), (-3, 0)), 4)
    assert m.entries == ((half, Fraction(1)), (Fraction(-3, 4), Fraction(0)))
    scaled = RationalMatrix(((6, 12), (-9, 0)), 12)
    assert scaled == m and hash(scaled) == hash(m)
    assert (scaled.rows, scaled.denominator) == (m.rows, m.denominator)
    assert from_rows([[True, False], [0, 1]]) == RationalMatrix(((1, 0), (0, 1)))
    assert m.trace() == half
    for denominator in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            RationalMatrix(((1,),), denominator)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: from_rows([[0.1]]), r"entry \(0, 0\) = 0\.1 "),
        (lambda: from_rows([[1, 2], [3, "1/3"]]), r"entry \(1, 1\) = '1/3' "),
        (lambda: RationalMatrix(((1, 2), (Fraction(1, 2), 0))), r"entry \(1, 0\) = Fraction"),
        (lambda: RationalMatrix(((1,),), 0.5), r"denominator 0\.5 "),
        (lambda: RationalPolynomial.of(1, 0.1), r"coefficient 1 0\.1 "),
        (lambda: RationalPolynomial(("1/3",)), r"coefficient 0 '1/3' "),
        (lambda: RationalPolynomial.of(1, 2).evaluate_exact(0.5), r"point 0\.5 "),
    ],
)
def test_inexact_input_is_a_type_error_naming_the_entry(build, message):
    with pytest.raises(TypeError, match=message):
        build()


@pytest.mark.parametrize(
    "apply",
    [
        lambda m, p: m @ 2,
        lambda m, p: m @ p,
        lambda m, p: p + 1,
        lambda m, p: p - Fraction(1, 2),
        lambda m, p: p * 2,
        lambda m, p: p * m,
    ],
)
def test_foreign_operand_is_a_type_error(apply):
    m = from_rows([[1, 2], [3, 4]])
    p = RationalPolynomial.of(1, 1)
    with pytest.raises(TypeError, match="unsupported operand"):
        apply(m, p)


def test_char_poly_matches_oracle_5x5():
    entries = [
        [2, -1, 0, 3, 1],
        [0, 1, 4, -2, 0],
        [1, 1, 0, 0, -3],
        [-2, 0, 5, 1, 1],
        [0, 2, -1, 0, 2],
    ]
    assert char_poly_exact(from_rows(entries)) == charpoly_oracle(entries)


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------


def test_char_poly_e8_adjacency():
    a = from_rows(dynkin_adjacency(cartan_matrix(AlgebraId("E", 8))))
    poly = char_poly_exact(a)
    assert poly.coefficients == tuple(Fraction(c) for c in E8_ADJACENCY_CHARPOLY)
    assert str(poly) == "x^8 - 7x^6 + 14x^4 - 8x^2 + 1"


def test_char_poly_zero_matrix():
    assert str(char_poly_exact(from_rows([[0, 0], [0, 0]]))) == "x^2"


def test_char_poly_e8_mass_carrier():
    poly = mass_char_poly("E8")
    assert poly.coefficients == tuple(Fraction(c) for c in E8_MASS_CHARPOLY)


def test_char_poly_exact_at_diagonal_eigenvalues():
    diag = [Fraction(3, 2), Fraction(-7, 3), Fraction(0), Fraction(5)]
    m = from_rows(
        [[diag[i] if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    )
    poly = char_poly_exact(m)
    for value in diag:
        assert poly.evaluate_exact(value) == 0


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def test_divide_mass_charpoly_into_quartics():
    quotient, remainder = poly_divide_exact(mass_char_poly("E8"), E8_MASS_QUARTICS[0])
    assert remainder.is_zero
    assert quotient == E8_MASS_QUARTICS[1]


def test_divide_by_unit():
    p = RationalPolynomial.of(3, 0, 2)
    q, r = poly_divide_exact(p, RationalPolynomial.of(1))
    assert q == p and r.is_zero


def test_divide_textbook_factorization():
    q, r = poly_divide_exact(RationalPolynomial.of(-1, 0, 1), RationalPolynomial.of(-1, 1))
    assert q == RationalPolynomial.of(1, 1)
    assert r.is_zero


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact(RationalPolynomial.of(1, 1), RationalPolynomial.of())


@st.composite
def rational_polys(draw, max_deg=6):
    coeffs = draw(
        st.lists(
            st.fractions(
                min_value=-4,
                max_value=4,
                max_denominator=6,
            ),
            min_size=0,
            max_size=max_deg + 1,
        )
    )
    return RationalPolynomial(tuple(coeffs))


@settings(max_examples=100, deadline=None)
@given(rational_polys(), rational_polys())
def test_division_round_trip(p, d):
    if d.is_zero:
        return
    q, r = poly_divide_exact(p, d)
    assert d * q + r == p
    assert r.is_zero or r.degree < d.degree


# ---------------------------------------------------------------------------
# evaluation and roots
# ---------------------------------------------------------------------------


def test_eval_adjacency_poly_at_top_eigenvalue():
    a = from_rows(dynkin_adjacency(cartan_matrix(AlgebraId("E", 8))))
    poly = char_poly_exact(a)
    assert abs(poly.evaluate(2.0 * math.cos(math.pi / 30))) < 1e-10


def test_eval_at_zero_gives_constant():
    assert RationalPolynomial.of(7, -3, 2).evaluate(0.0) == 7.0


def test_eval_light_quartic_near_smallest_mass_square():
    # the quartic carrying particles 1,3,4,6 vanishes at the lightest
    # particle's squared mass (~0.8513416)
    assert abs(E8_MASS_QUARTICS[1].evaluate(SMALLEST_LIGHT_QUARTIC_ROOT)) < 1e-4


def test_refine_real_roots_quadratic():
    roots = refine_real_roots(RationalPolynomial.of(-2, 0, 1), -3.0, 3.0)
    assert len(roots) == 2
    assert abs(roots[0] + math.sqrt(2)) < 1e-12
    assert abs(roots[1] - math.sqrt(2)) < 1e-12


def test_refine_real_roots_mass_quartics():
    for quartic in E8_MASS_QUARTICS:
        roots = refine_real_roots(quartic, 0.0, 25.0)
        assert len(roots) == 4
        for root in roots:
            assert abs(quartic.evaluate(root)) / quartic.magnitude_at(root) < 1e-14


def test_largest_root_of_first_quartic_is_heaviest_mass_square():
    roots = refine_real_roots(E8_MASS_QUARTICS[0], 0.0, 25.0)
    assert abs(max(roots) - 19.479362636440847) < 1e-9


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_integer_polynomial():
    poly = RationalPolynomial.of(518400, -1296000, 1166400, -518400, 127440, -18000, 1440, -60, 1)
    assert str(poly) == (
        "x^8 - 60x^7 + 1440x^6 - 18000x^5 + 127440x^4 - 518400x^3"
        " + 1166400x^2 - 1296000x + 518400"
    )


def test_render_small_cases():
    assert str(RationalPolynomial.of()) == "0"
    assert str(RationalPolynomial.of(5)) == "5"
    assert str(RationalPolynomial.of(0, -1)) == "-x"
    assert str(RationalPolynomial.of(0, 0, 1)) == "x^2"
    assert str(RationalPolynomial.of(1, -2, 1)) == "x^2 - 2x + 1"
    assert str(RationalPolynomial.of(Fraction(1, 2), 1)) == "x + (1/2)"


def test_trailing_zero_coefficients_are_stripped():
    assert RationalPolynomial.of(1, 2, 0, 0) == RationalPolynomial.of(1, 2)
    assert RationalPolynomial.of(1, 2, 0, 0).degree == 1
