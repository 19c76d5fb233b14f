"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; any assertion failure marks that criterion red.
"""

import math
from fractions import Fraction

from toda_spectrum import classical
from toda_spectrum.exact_poly import (
    RationalMatrix,
    char_poly_exact,
    poly_divide_exact,
    refine_real_roots,
)
from toda_spectrum.masses import (
    mass_char_poly,
    mass_ratio_spread,
    perron_components,
    spectrum_method1,
)
from toda_spectrum.radicals import (
    MASS_CLOSED_FORMS,
    TRIG_CLOSED_FORMS,
    eval_radical,
    match_eigenvalue_exponents,
)
from toda_spectrum.root_systems import dynkin_adjacency, root_system
from toda_spectrum.spectral import jacobi_eigen, recover_exponents
from toda_spectrum.verify import (
    E8_MASS_QUARTICS,
    E8_QUARTIC_LABELS,
    SUITES,
    closed_form_mass_scale,
)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS - {text}")


def test_criterion_01_adjacency_charpoly_exact():
    poly = char_poly_exact(RationalMatrix.from_rows(dynkin_adjacency(root_system("E8").cartan)))
    assert poly.coefficients == tuple(Fraction(c) for c in (1, 0, -8, 0, 14, 0, -7, 0, 1))
    _report(1, "E8 adjacency characteristic polynomial is x^8 - 7x^6 + 14x^4 - 8x^2 + 1, exactly")


def test_criterion_02_mass_charpoly_and_factorization_exact():
    poly = mass_char_poly("E8")
    want = (518400, -1296000, 1166400, -518400, 127440, -18000, 1440, -60, 1)
    assert poly.coefficients == tuple(Fraction(c) for c in want)
    quotient, remainder = poly_divide_exact(poly, E8_MASS_QUARTICS[0])
    assert remainder.is_zero
    assert quotient == E8_MASS_QUARTICS[1]
    _report(2, "E8 mass charpoly exact; division by one quartic factor yields the other, remainder 0")


def test_criterion_03_perron_vector_reference_and_recurrences():
    u = perron_components("E8")
    assert abs(u[4] - 1.0) <= 1e-12  # component 5 normalises to 1
    reference = (0.2091, 0.4158, 0.6180, 0.8135, 1.0, 0.6728, 0.3383, 0.5028)
    assert max(abs(a - b) for a, b in zip(u, reference)) <= 5e-5
    a = dynkin_adjacency(root_system("E8").cartan)
    lam = 2.0 * math.cos(math.pi / 30)
    residual = max(
        abs(sum(u[i] * a[i][j] for i in range(8)) - lam * u[j]) for j in range(8)
    )
    assert residual <= 1e-10
    _report(3, "Perron vector matches the 4-decimal reference row and every recurrence to 1e-10")


def test_criterion_04_golden_ratio_mass_ratios():
    u = perron_components("E8")
    golden = (1 + math.sqrt(5)) / 2
    for heavy, light in ((7, 1), (6, 2), (5, 3), (4, 8)):
        assert abs(u[heavy - 1] / u[light - 1] - golden) / golden <= 1e-10
    _report(4, "u7/u1 = u6/u2 = u5/u3 = u4/u8 = (1+sqrt(5))/2 to 1e-10 relative")


def test_criterion_05_eigenvalues_exponents_and_pairing():
    a = [[float(v) for v in row] for row in dynkin_adjacency(root_system("E8").cartan)]
    eigs = jacobi_eigen(a).eigenvalues
    assert recover_exponents(eigs, 30) == (1, 7, 11, 13, 17, 19, 23, 29)
    for x, e in zip(eigs, (1, 7, 11, 13, 17, 19, 23, 29)):
        assert abs(x - 2.0 * math.cos(e * math.pi / 30)) <= 1e-10
    for j in range(8):
        assert abs(eigs[7 - j] + eigs[j]) <= 1e-10
    _report(5, "eigenvalues are 2cos(a pi/30) with exponents 1,7,11,13,17,19,23,29; +/- pairing holds")


def test_criterion_06_product_identity_and_mass_scale():
    u = perron_components("E8")
    prod_a = u[1] * u[4] * u[6] * u[7]
    prod_b = u[0] * u[2] * u[3] * u[5]
    assert abs(prod_a - prod_b) / abs(prod_b) <= 1e-10
    spectrum = spectrum_method1("E8")
    fitted = spectrum.mass_squares[4] / u[4] ** 2  # node 5 component is 1
    assert abs(fitted**4 * prod_a**2 - 720.0) / 720.0 <= 1e-8
    closed = closed_form_mass_scale()
    assert abs(fitted - closed) / closed <= 1e-10
    _report(6, "u2u5u7u8 = u1u3u4u6; scale^4 * product^2 = 720; fitted scale matches the closed form")


def test_criterion_07_cross_method_oracle_simply_laced():
    names = [f"A{r}" for r in range(1, 9)] + [f"D{r}" for r in range(3, 9)] + ["E6", "E7", "E8"]
    for name in names:
        assert mass_ratio_spread(name) <= 1e-9, name
    _report(7, "squared-mass to squared-component ratio is constant to 1e-9 for all simply-laced algebras")


def test_criterion_08_radical_suite():
    matched = match_eigenvalue_exponents()
    assert {m[0] for m in matched} == {1, 7, 11, 13}
    assert max(m[2] for m in matched) <= 1e-12
    for name, kind, denom, expr, _note in TRIG_CLOSED_FORMS:
        func = math.cos if kind == "cos" else math.sin
        want = 2.0 * func(math.pi / denom)
        assert abs(eval_radical(expr) - want) / abs(want) <= 1e-12, name
    u = perron_components("E8")
    ratios = []
    for quartic, labels in zip(E8_MASS_QUARTICS, E8_QUARTIC_LABELS):
        roots = refine_real_roots(quartic, 0.0, 25.0)
        for label in labels:
            value = eval_radical(MASS_CLOSED_FORMS[label])
            doubled_square = 2.0 * value * value
            nearest = min(roots, key=lambda r: abs(r - doubled_square))
            assert abs(doubled_square - nearest) / nearest <= 1e-9
            ratios.append(value / u[label - 1])
    assert max(ratios) / min(ratios) - 1.0 <= 1e-12
    detail = SUITES["e8-paper"]()["mass-closed-forms"].detail
    assert "squared masses does not hold literally" in detail
    print(
        "ACCEPTANCE  8: NOTE - the nested-radical mass forms scale like the masses "
        "(2 e_j^2 equals the squared mass), not like squared masses as customarily labelled"
    )
    _report(8, "all radical identities hold; doubled squares land on the designated quartic roots")


def test_criterion_09_exponent_tables_exact():
    for name in classical.all_algebras(8):
        rs = root_system(name)
        eigs = jacobi_eigen(
            [
                [
                    0.0
                    if i == j
                    else -float(rs.gram[i][j])
                    / math.sqrt(float(rs.symmetrizers[i] * rs.symmetrizers[j]))
                    for j in range(rs.rank)
                ]
                for i in range(rs.rank)
            ]
        ).eigenvalues
        assert recover_exponents(eigs, rs.coxeter_number) == classical.exponents(
            name[0], int(name[1:])
        ), name
    _report(9, "recovered exponents match the classical tables for every simple algebra of rank <= 8")


def test_criterion_10_root_counts_exact():
    assert len(root_system("E8").positive_roots) == 120
    assert len(root_system("E6").positive_roots) == 36
    assert len(root_system("E7").positive_roots) == 63
    for rank in range(1, 9):
        assert len(root_system(f"A{rank}").positive_roots) == rank * (rank + 1) // 2
    _report(10, "positive-root counts: E8 = 120, E6 = 36, E7 = 63, A_l = l(l+1)/2, exactly")
