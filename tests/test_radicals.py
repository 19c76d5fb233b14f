import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_spectrum.exact_poly import refine_real_roots
from toda_spectrum.masses import perron_components
from toda_spectrum.radicals import (
    EIGENVALUE_CLOSED_FORMS,
    MASS_CLOSED_FORMS,
    TRIG_CLOSED_FORMS,
    NegativeRadicandError,
    RadicalExpr,
    eval_radical,
    match_eigenvalue_exponents,
    parse_radical,
    radical_identity_suite,
    sqrt,
)
from toda_spectrum.verify import E8_MASS_QUARTICS, SUITES, closed_form_mass_scale


# ---------------------------------------------------------------------------
# oracle: evaluate the same tree with mpmath at 50 digits
# ---------------------------------------------------------------------------


def mp_eval(expr: RadicalExpr) -> mpmath.mpf:
    total = mpmath.mpf(0)
    for term in expr.terms:
        coeff = mpmath.mpf(term.coeff.numerator) / term.coeff.denominator
        if term.radicand is None:
            total += coeff
        else:
            total += coeff * mpmath.sqrt(mp_eval(term.radicand))
    return total


ALL_CLOSED_FORMS = (
    list(EIGENVALUE_CLOSED_FORMS)
    + [entry[3] for entry in TRIG_CLOSED_FORMS]
    + [MASS_CLOSED_FORMS[label] for label in range(1, 9)]
)


def test_evaluation_is_the_nearest_double_to_mpmath():
    with mpmath.workdps(50):
        for expr in ALL_CLOSED_FORMS:
            assert eval_radical(expr) == float(mp_eval(expr)), str(expr)


# ---------------------------------------------------------------------------
# evaluation basics
# ---------------------------------------------------------------------------


def test_sqrt_four_is_two():
    assert eval_radical(sqrt(4)) == 2.0


def test_golden_section_expression():
    expr = parse_radical("(1 + sqrt(5))/2")
    assert abs(eval_radical(expr) - 1.6180339887) <= 1e-9
    assert abs(eval_radical(expr) - (1 + math.sqrt(5)) / 2) <= 1e-15


def test_first_eigenvalue_closed_form():
    expr = parse_radical("1/2*sqrt(7 + sqrt(5) + sqrt(30 + 6*sqrt(5)))")
    assert abs(eval_radical(expr) - 2 * math.cos(math.pi / 30)) <= 1e-14
    assert f"{eval_radical(expr):.5f}" == "1.98904"


@pytest.mark.parametrize(
    "text",
    ["sqrt(1/10 + 2/10 - 3/10)", "sqrt(1/3 + 1/3 + 1/3 - 1)", "sqrt(19/15 - 1/15 - 6/5)"],
)
def test_exactly_zero_rational_radicand_is_zero(text):
    # each sum is zero in exact arithmetic, though not when added term by term in floats
    assert eval_radical(parse_radical(text)) == 0.0


@pytest.mark.parametrize(
    "text",
    [
        "sqrt(sqrt(8) - 2*sqrt(2))",
        "sqrt(2*sqrt(2) - sqrt(8))",
        "sqrt(sqrt(18) - 3*sqrt(2))",
        "sqrt(3*sqrt(2) - sqrt(18))",
        "sqrt(sqrt(27) - 3*sqrt(3))",
        "sqrt(3*sqrt(3) - sqrt(27))",
        "sqrt(sqrt(50) - 5*sqrt(2))",
        "sqrt(5*sqrt(2) - sqrt(50))",
        "sqrt(50) - 5*sqrt(2)",
        "5*sqrt(2) - sqrt(50)",
        "sqrt(1 + sqrt(8) - 1 - 2*sqrt(2))",
    ],
)
def test_commensurable_square_roots_cancel_exactly(text):
    # sqrt(8) = 2*sqrt(2): both share one rounded square root, whatever the order
    assert eval_radical(parse_radical(text)) == 0.0


def test_negative_radicand_names_subtree():
    expr = sqrt(RadicalExpr.rational(3) - RadicalExpr.rational(7))
    with pytest.raises(NegativeRadicandError) as exc:
        eval_radical(expr)
    assert "3 - 7" in str(exc.value)


def test_paper_forms_have_bounded_depth():
    for expr in ALL_CLOSED_FORMS:
        assert expr.depth <= 3


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=0, max_value=50, max_denominator=20),
    st.fractions(min_value="1/20", max_value=10, max_denominator=20),
    st.fractions(min_value="1/20", max_value=5, max_denominator=20),
)
def test_monotone_in_positive_leaves(base, bump, coeff):
    # raising any positive leaf raises the value
    lo = eval_radical(sqrt(RadicalExpr.rational(base)))
    hi = eval_radical(sqrt(RadicalExpr.rational(base + bump)))
    assert hi > lo
    inner = RadicalExpr.rational(2) + sqrt(base + bump)
    outer_lo = eval_radical(sqrt(RadicalExpr.rational(2) + sqrt(base)))
    outer_hi = eval_radical(sqrt(inner))
    assert outer_hi > outer_lo
    scaled_lo = eval_radical(sqrt(inner) * RadicalExpr.rational(coeff))
    scaled_hi = eval_radical(sqrt(inner) * RadicalExpr.rational(coeff + bump))
    assert scaled_hi > scaled_lo


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_round_trip_through_str():
    for expr in ALL_CLOSED_FORMS:
        again = parse_radical(str(expr))
        assert eval_radical(again) == eval_radical(expr)


def test_parse_products_of_square_roots_merge():
    a = parse_radical("sqrt(6)*sqrt(25 + 11*sqrt(5))")
    b = parse_radical("sqrt(150 + 66*sqrt(5))")
    assert abs(eval_radical(a) - eval_radical(b)) <= 1e-15 * eval_radical(b)


def test_parse_unary_minus_and_rationals():
    assert eval_radical(parse_radical("-3/2 + sqrt(9)/2")) == 0.0
    assert eval_radical(parse_radical("2*3")) == 6.0


@pytest.mark.parametrize(
    "text, plain",
    [("sqrt(5) ", "sqrt(5)"), ("1\n", "1"), ("  (1 + sqrt(5))/2 \n", "(1 + sqrt(5))/2")],
)
def test_parse_ignores_leading_and_trailing_whitespace(text, plain):
    assert str(parse_radical(text)) == str(parse_radical(plain))


@pytest.mark.parametrize("bad", ["sqrt(", "1 +", "(2", "sqrt 5", "2.5", "x + 1", "1/sqrt(2)"])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ValueError):
        parse_radical(bad)


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def test_radical_identity_suite_all_pass():
    report = radical_identity_suite()
    assert report.all_passed
    assert [c.name for c in report] == ["eigenvalue-closed-forms", "trig-closed-forms"]


def test_eigenvalue_forms_pair_with_exponents_by_value():
    matched = match_eigenvalue_exponents()
    assert [m[0] for m in matched] == [1, 11, 7, 13]  # printed order
    assert max(m[2] for m in matched) <= 1e-12
    values = sorted((m[1] for m in matched), reverse=True)
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
    by_exponent = sorted(matched)
    assert [m[0] for m in by_exponent] == [1, 7, 11, 13]


def test_trig_identities_to_1e12():
    for name, kind, denom, expr, _note in TRIG_CLOSED_FORMS:
        func = math.cos if kind == "cos" else math.sin
        want = 2.0 * func(math.pi / denom)
        assert abs(eval_radical(expr) - want) <= 1e-12 * abs(want), name


def test_two_sin_pi_over_ten():
    expr = parse_radical("sqrt((3 - sqrt(5))/2)")
    assert f"{eval_radical(expr):.5f}" == "0.61803"
    assert f"{2 * math.sin(math.pi / 10):.5f}" == "0.61803"


def test_heaviest_mass_closed_form():
    value = eval_radical(MASS_CLOSED_FORMS[5])
    assert abs(value - 3.1208462503) <= 1e-9
    doubled_square = 2.0 * value * value
    heaviest = max(refine_real_roots(E8_MASS_QUARTICS[0], 0.0, 25.0))
    assert abs(doubled_square - heaviest) <= 1e-9 * heaviest
    assert f"{heaviest:.4f}" == "19.4794"


def test_mass_forms_proportional_to_perron_components():
    u = perron_components("E8")
    expected = math.sqrt(closed_form_mass_scale() / 2.0)
    ratios = [eval_radical(MASS_CLOSED_FORMS[j]) / u[j - 1] for j in range(1, 9)]
    assert max(ratios) / min(ratios) - 1.0 <= 1e-12
    for r in ratios:
        assert abs(r - expected) <= 1e-12 * expected
    assert f"{expected:.10f}" == "3.1208462503"


def test_mass_forms_double_squares_are_quartic_roots():
    roots_by_quartic = [set() for _ in E8_MASS_QUARTICS]
    for qi, quartic in enumerate(E8_MASS_QUARTICS):
        for root in refine_real_roots(quartic, 0.0, 25.0):
            roots_by_quartic[qi].add(round(root, 9))
    seen = [set(), set()]
    labels = [(2, 5, 7, 8), (1, 3, 4, 6)]
    for qi, label_set in enumerate(labels):
        for label in label_set:
            value = eval_radical(MASS_CLOSED_FORMS[label])
            seen[qi].add(round(2.0 * value * value, 9))
    assert seen[0] == roots_by_quartic[0]
    assert seen[1] == roots_by_quartic[1]


def test_labeling_discrepancy_is_reported_not_silenced():
    detail = SUITES["e8-paper"]()["mass-closed-forms"].detail
    assert "squared masses does not hold literally" in detail
