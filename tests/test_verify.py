from toda_spectrum import masses
from toda_spectrum.masses import CONSISTENCY_TOL
from toda_spectrum.report import CheckReport, ExactCheckResult, check, check_exact
from toda_spectrum.verify import SUITES, _merged_check

E8_TABLE = [
    "adjacency-charpoly",
    "eigenvalue-closed-forms",
    "perron-components",
    "golden-ratio-mass-ratios",
    "trig-closed-forms",
    "mass-charpoly",
    "quartic-factorization",
    "cross-product-identity",
    "mass-scale-constant-term",
    "mass-scale-closed-form",
    "mass-closed-forms",
]


def test_suites_are_the_verify_scopes_in_order():
    assert list(SUITES) == ["e8-paper", "all-ade", "exponents"]


def test_e8_paper_suite_is_the_eleven_entry_table():
    report = SUITES["e8-paper"]()
    assert [c.name for c in report] == E8_TABLE
    assert report.all_passed


def test_all_ade_judges_against_the_consistency_tolerance():
    report = SUITES["all-ade"]()
    assert len(report) == 17
    assert all(c.tolerance == CONSISTENCY_TOL for c in report)


def test_with_tolerance_rejudges_every_residual():
    report = SUITES["e8-paper"]()
    strict = report.with_tolerance(1e-30)
    assert [c.name for c in strict] == E8_TABLE
    assert [c.residual for c in strict] == [c.residual for c in report]
    assert all(c.tolerance == (0.0 if isinstance(c, ExactCheckResult) else 1e-30) for c in strict)
    assert all(c.passed == (abs(c.residual) <= 1e-30) for c in strict)
    assert not strict.all_passed
    assert strict["mass-charpoly"].passed  # exact checks have residual 0


def test_e8_paper_computes_each_char_poly_once(monkeypatch):
    original = masses.char_poly_exact
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(masses, "char_poly_exact", counting)
    masses._mass_char_poly.cache_clear()
    SUITES["e8-paper"]()
    assert len(calls) == 2  # the adjacency char-poly once, the mass char-poly once


def test_e8_paper_computes_the_perron_vector_once(monkeypatch):
    original = masses.perron_vector
    calls = []

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(masses, "perron_vector", counting)
    masses._perron_components.cache_clear()
    SUITES["e8-paper"]()
    assert len(calls) == 1


def test_merged_row_is_judged_like_the_part_nearest_to_failing():
    roots = check("roots", 1e-15, 1e-9)
    ratio = check("ratio", 1e-10, 1e-12)  # above its own tolerance, below the other's
    merged = _merged_check("mass-closed-forms", roots, ratio)
    assert (merged.residual, merged.tolerance, merged.passed) == (1e-10, 1e-12, False)
    assert merged.passed == (abs(merged.residual) <= merged.tolerance)

    roots = check("roots", 5e-13, 1e-9)
    ratio = check("ratio", 5e-13, 1e-12)
    merged = _merged_check("mass-closed-forms", roots, ratio)
    assert (merged.residual, merged.tolerance, merged.passed) == (5e-13, 1e-12, True)
    assert merged.detail == f"{roots.detail}; {ratio.detail}"


def test_with_tolerance_keeps_exact_checks_exact():
    failed = CheckReport((check_exact("x", False),))
    loose = failed.with_tolerance(1.0)
    assert (loose["x"].residual, loose["x"].tolerance, loose["x"].passed) == (1.0, 0.0, False)
    assert all(c.passed == (abs(c.residual) <= c.tolerance) for c in loose)
    assert not loose.all_passed
    assert CheckReport((check_exact("x", True),)).with_tolerance(0.0).all_passed
    assert CheckReport((check("y", 1.0, 0.0),)).with_tolerance(1.0).all_passed  # re-judged
