import math
from fractions import Fraction

import pytest

from toda_spectrum import classical
from toda_spectrum.root_systems import (
    AlgebraId,
    CartanMatrix,
    InvalidAlgebraError,
    cartan_matrix,
    dynkin_adjacency,
    embed_coefficients,
    embed_roots,
    generate_roots,
    root_system,
)

ALL_ALGEBRAS = classical.all_algebras(8)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_names():
    assert AlgebraId.parse("E8") == AlgebraId("E", 8)
    assert AlgebraId.parse("a5") == AlgebraId("A", 5)
    assert AlgebraId.parse(" b3 ") == AlgebraId("B", 3)
    assert str(AlgebraId.parse("g2")) == "G2"


@pytest.mark.parametrize("bad", ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4", "A0", "foo", "8E"])
def test_parse_rejects_invalid(bad):
    with pytest.raises(InvalidAlgebraError):
        AlgebraId.parse(bad)


def test_cartan_matrix_g2():
    assert cartan_matrix(AlgebraId("G", 2)).entries == ((2, -1), (-3, 2))


def test_cartan_matrix_a1():
    assert cartan_matrix(AlgebraId("A", 1)).entries == ((2,),)


def test_cartan_matrix_e8_matches_adjacency():
    want_adjacency = (
        (0, 1, 0, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 1, 0, 1),
        (0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
    )
    assert dynkin_adjacency(cartan_matrix(AlgebraId("E", 8))) == want_adjacency


def test_cartan_rejects_affine():
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -2), (-2, 2)))  # determinant zero: not finite type


def test_cartan_rejects_bad_entries():
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -4), (-1, 2)))
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((1, 0), (0, 2)))  # diagonal


# ---------------------------------------------------------------------------
# root generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_positive_root_counts(name):
    rs = root_system(name)
    assert len(rs.positive_roots) == classical.positive_root_count(name[0], int(name[1:]))


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_coxeter_numbers(name):
    rs = root_system(name)
    assert rs.coxeter_number == classical.coxeter_number(name[0], int(name[1:]))
    assert rs.coxeter_number == 1 + sum(rs.marks)


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_highest_root_dominates_componentwise(name):
    rs = root_system(name)
    for root in rs.positive_roots:
        assert all(c <= m for c, m in zip(root, rs.highest_root))


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "E6", "G2", "F4"])
def test_reflection_closure_idempotent(name):
    rs = root_system(name)
    n = rs.rank
    cm = rs.cartan.entries
    known = set(rs.positive_roots)
    for coeffs in rs.positive_roots:
        for i in range(n):
            k = sum(coeffs[j] * cm[j][i] for j in range(n))
            image = list(coeffs)
            image[i] -= k
            img = tuple(image)
            if all(x >= 0 for x in img) and any(img):
                assert img in known


def test_e8_highest_root_and_coxeter():
    rs = root_system("E8")
    assert rs.highest_root == (2, 3, 4, 5, 6, 4, 2, 3)
    assert rs.marks == (2, 3, 4, 5, 6, 4, 2, 3)
    assert rs.coxeter_number == 30


def test_a1_trivial_system():
    rs = root_system("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.highest_root == (1,)
    assert rs.coxeter_number == 2


def test_a2_by_hand():
    # brute-force closure by hand: {a1, a2, a1+a2}
    rs = root_system("A2")
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))
    assert rs.highest_root == (1, 1)
    assert rs.coxeter_number == 3


def test_root_system_closed_once_whatever_the_spelling(monkeypatch):
    import toda_spectrum.root_systems as module

    calls = []
    original = module.generate_roots
    monkeypatch.setattr(
        module, "generate_roots", lambda *args: calls.append(args) or original(*args)
    )
    rs = root_system(AlgebraId("A", 10))
    assert root_system("A10") is rs
    assert root_system("a10") is rs
    assert len(calls) <= 1


def test_generate_roots_from_raw_cartan():
    rs = generate_roots(CartanMatrix(((2, -1), (-1, 2))))
    assert rs.algebra is None
    assert len(rs.positive_roots) == 3


# ---------------------------------------------------------------------------
# gram form and normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_gram_symmetric_and_long_root_normalized(name):
    rs = root_system(name)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.gram[i][j] == rs.gram[j][i]
        assert rs.gram[i][i] == 2 * rs.symmetrizers[i]
    assert max(2 * d for d in rs.symmetrizers) == 2


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_gram_positive_definite(name):
    # exact leading principal minors, all positive
    rs = root_system(name)
    n = rs.rank
    for k in range(1, n + 1):
        sub = [[rs.gram[i][j] for j in range(k)] for i in range(k)]
        assert _det(sub) > 0


def _det(rows):
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def test_b2_symmetrizers():
    rs = root_system("B2")
    assert rs.symmetrizers == (Fraction(1), Fraction(1, 2))


def test_g2_symmetrizers():
    rs = root_system("G2")
    assert rs.symmetrizers == (Fraction(1, 3), Fraction(1))


# ---------------------------------------------------------------------------
# Euclidean embedding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["A1", "A5", "B3", "C4", "D5", "E6", "E8", "F4", "G2"])
def test_embedding_reproduces_gram_form(name):
    rs = root_system(name)
    vectors = embed_roots(rs)
    n = rs.rank
    # simple roots: indices 1..n
    for i in range(n):
        for j in range(n):
            dot = sum(a * b for a, b in zip(vectors[i + 1], vectors[j + 1]))
            assert abs(dot - float(rs.gram[i][j])) <= 1e-12
    # the affine vector is minus the mark-weighted sum of the simple roots
    for k in range(n):
        recon = -sum(rs.marks[i] * vectors[i + 1][k] for i in range(n))
        assert abs(vectors[0][k] - recon) <= 1e-12


def test_e8_all_embedded_roots_have_length_two():
    rs = root_system("E8")
    for root in rs.positive_roots:
        coords = embed_coefficients(rs, root)
        assert abs(sum(x * x for x in coords) - 2.0) <= 1e-12
    affine = embed_roots(rs)[0]
    assert abs(sum(x * x for x in affine) - 2.0) <= 1e-12


def test_a1_embedding():
    rs = root_system("A1")
    vectors = embed_roots(rs)
    assert abs(vectors[1][0] - math.sqrt(2)) <= 1e-15
    assert abs(vectors[0][0] + math.sqrt(2)) <= 1e-15


def test_b2_long_and_short_lengths():
    rs = root_system("B2")
    lengths = sorted(
        sum(x * x for x in embed_coefficients(rs, root)) for root in rs.positive_roots
    )
    assert [round(v, 12) for v in lengths] == [1.0, 1.0, 2.0, 2.0]
