import math
import re
import sys

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from toda_spectrum.exact_poly import refine_real_roots
from toda_spectrum.masses import perron_components
from toda_spectrum.radicals import (
    EIGENVALUE_CLOSED_FORMS,
    MASS_CLOSED_FORMS,
    TRIG_CLOSED_FORMS,
    NegativeRadicandError,
    eval_radical,
    match_eigenvalue_exponents,
    radical_identity_suite,
)
from toda_spectrum.verify import E8_MASS_QUARTICS, SUITES, closed_form_mass_scale


# ---------------------------------------------------------------------------
# oracle: evaluate the same text with mpmath at 50 digits
# ---------------------------------------------------------------------------


def mp_eval(text: str) -> mpmath.mpf:
    # the grammar's + - * / ( ) bind as Python's do; integers become mpf leaves
    source = re.sub(r"\d+", lambda m: f"mpf({m.group()})", text)
    with mpmath.workdps(50):
        return eval(source, {"__builtins__": {}, "mpf": mpmath.mpf, "sqrt": mpmath.sqrt})


ALL_CLOSED_FORMS = (
    list(EIGENVALUE_CLOSED_FORMS)
    + [entry[3] for entry in TRIG_CLOSED_FORMS]
    + [MASS_CLOSED_FORMS[label] for label in range(1, 9)]
)


def test_evaluation_is_the_nearest_double_to_mpmath():
    assert len(ALL_CLOSED_FORMS) == 20
    for form in ALL_CLOSED_FORMS:
        assert eval_radical(form) == float(mp_eval(form)), form


def _forms(sqrt_depth: int) -> st.SearchStrategy[str]:
    """Forms with positive integer leaves whose square roots nest at most sqrt_depth deep."""
    leaf = st.integers(1, 99).map(str)
    if sqrt_depth > 0:
        leaf = st.one_of(leaf, _forms(sqrt_depth - 1).map(lambda t: f"sqrt({t})"))
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda ab: f"({ab[0]} + {ab[1]})"),
            st.tuples(kids, kids).map(lambda ab: f"{ab[0]}*{ab[1]}"),
            st.tuples(kids, st.integers(1, 30)).map(lambda ad: f"{ad[0]}/{ad[1]}"),
        ),
        max_leaves=6,
    )


@seed(20190612)
@settings(max_examples=300, deadline=None)
@given(_forms(3))
def test_random_forms_are_the_nearest_double_to_mpmath(form):
    assert eval_radical(form) == float(mp_eval(form))


# ---------------------------------------------------------------------------
# evaluation basics
# ---------------------------------------------------------------------------


def test_sqrt_four_is_two():
    assert eval_radical("sqrt(4)") == 2.0


def test_golden_section_expression():
    form = "(1 + sqrt(5))/2"
    assert abs(eval_radical(form) - 1.6180339887) <= 1e-9
    assert abs(eval_radical(form) - (1 + math.sqrt(5)) / 2) <= 1e-15


def test_first_eigenvalue_closed_form():
    form = "1/2*sqrt(7 + sqrt(5) + sqrt(30 + 6*sqrt(5)))"
    assert abs(eval_radical(form) - 2 * math.cos(math.pi / 30)) <= 1e-14
    assert f"{eval_radical(form):.5f}" == "1.98904"


@pytest.mark.parametrize("text", ["sqrt(1/10 + 2/10 - 3/10)", "sqrt(19/15 - 1/15 - 6/5)"])
def test_exactly_zero_rational_radicand_is_zero(text):
    # each sum is zero in 40-digit decimals, though not when added term by term in floats
    assert eval_radical(text) == 0.0


@pytest.mark.parametrize(
    "radicand",
    [
        "sqrt(8) - 2*sqrt(2)",
        "2*sqrt(2) - sqrt(8)",
        "sqrt(12) - 2*sqrt(3)",
        "2*sqrt(3) - sqrt(12)",
        "sqrt(18) - 3*sqrt(2)",
        "3*sqrt(2) - sqrt(18)",
        "sqrt(27) - 3*sqrt(3)",
        "3*sqrt(3) - sqrt(27)",
        "sqrt(50) - 5*sqrt(2)",
        "5*sqrt(2) - sqrt(50)",
        "1 + sqrt(8) - 1 - 2*sqrt(2)",
        "1/3 + 1/3 + 1/3 - 1",
    ],
)
def test_cancelling_radicand_is_zero_to_working_precision(radicand):
    # sqrt(8) and 2*sqrt(2) are each rounded to 40 digits, so they cancel only to there;
    # the square root of what is left raises exactly when it came out negative
    residue = eval_radical(radicand)
    assert abs(residue) <= 1e-38
    if residue < 0:
        with pytest.raises(NegativeRadicandError) as exc:
            eval_radical(f"sqrt({radicand})")
        assert f"sqrt({radicand})" in str(exc.value)
    else:
        assert eval_radical(f"sqrt({radicand})") == pytest.approx(math.sqrt(residue), rel=1e-15)


@pytest.mark.parametrize(
    "text, radicand",
    [
        ("sqrt(3 - 7)", "3 - 7"),
        ("sqrt(2*(3 - 7))", "2*(3 - 7)"),
        ("1 + sqrt(2*(3 -\n   7))", "2*(3 -\n   7)"),
        ("sqrt(5 - sqrt(\n 100)) + 1", "5 - sqrt(\n 100)"),
    ],
)
def test_negative_radicand_names_subtree(text, radicand):
    with pytest.raises(NegativeRadicandError) as exc:
        eval_radical(text)
    assert exc.value.radicand == radicand
    assert f"sqrt({radicand})" in str(exc.value)


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=0, max_value=50, max_denominator=20),
    st.fractions(min_value="1/20", max_value=10, max_denominator=20),
    st.fractions(min_value="1/20", max_value=5, max_denominator=20),
)
def test_monotone_in_positive_leaves(base, bump, coeff):
    # raising any positive leaf raises the value
    lo = eval_radical(f"sqrt({base})")
    hi = eval_radical(f"sqrt({base + bump})")
    assert hi > lo
    inner = f"2 + sqrt({base + bump})"
    outer_lo = eval_radical(f"sqrt(2 + sqrt({base}))")
    outer_hi = eval_radical(f"sqrt({inner})")
    assert outer_hi > outer_lo
    scaled_lo = eval_radical(f"sqrt({inner})*{coeff}")
    scaled_hi = eval_radical(f"sqrt({inner})*{coeff + bump}")
    assert scaled_hi > scaled_lo


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_products_of_square_roots_merge():
    a = eval_radical("sqrt(6)*sqrt(25 + 11*sqrt(5))")
    b = eval_radical("sqrt(150 + 66*sqrt(5))")
    assert abs(a - b) <= 1e-15 * b


def test_parse_unary_minus_and_rationals():
    assert eval_radical("-3/2 + sqrt(9)/2") == 0.0
    assert eval_radical("2*3") == 6.0


@pytest.mark.parametrize(
    "text, plain",
    [("sqrt(5) ", "sqrt(5)"), ("1\n", "1"), ("  (1 + sqrt(5))/2 \n", "(1 + sqrt(5))/2")],
)
def test_parse_ignores_leading_and_trailing_whitespace(text, plain):
    assert eval_radical(text) == eval_radical(plain)


@pytest.mark.parametrize(
    "bad",
    [
        "sqrt(", "1 +", "(2", "sqrt 5", "2.5", "x + 1", "1/sqrt(2)",
        # Python syntax outside the grammar
        "0x10", "1_0", "1e3", "+5", "2**3", "5 % 2", "7 // 2", "True", "abs(4)",
        "sqrt(1, 2)", "sqrt(x=4)", "(1, 2)", "sqrt",
        # leading zeros and non-ASCII digits, which Python's grammar rejects
        "05", "00", "\u0661",
        # deeper than the interpreter's recursion limit
        pytest.param("+".join(["1"] * 5000), id="a sum of 5000 terms"),
        # longer than the default limit on converting integers from text
        pytest.param(
            "1" * 4301,
            id="a literal of 4301 digits",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no such limit before 3.10.7"
            ),
        ),
    ],
)
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ValueError):
        eval_radical(bad)


@pytest.mark.parametrize("text", ["1/0", "1/(2-2)", "0/0"])
def test_division_by_zero_is_a_value_error(text):
    with pytest.raises(ValueError, match="^division by zero$") as err:
        eval_radical(text)
    assert err.type is ValueError  # not decimal's DivisionByZero or InvalidOperation


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
    for name, kind, denom, form, _note in TRIG_CLOSED_FORMS:
        func = math.cos if kind == "cos" else math.sin
        want = 2.0 * func(math.pi / denom)
        assert abs(eval_radical(form) - want) <= 1e-12 * abs(want), name


def test_two_sin_pi_over_ten():
    assert f"{eval_radical('sqrt((3 - sqrt(5))/2)'):.5f}" == "0.61803"
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
