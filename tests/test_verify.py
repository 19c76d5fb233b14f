from toda_spectrum.masses import CONSISTENCY_TOL
from toda_spectrum.verify import SUITES

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
    assert all(c.tolerance == 1e-30 for c in strict)
    assert all(c.passed == (abs(c.residual) <= 1e-30) for c in strict)
    assert not strict.all_passed
    assert strict["mass-charpoly"].passed  # exact checks have residual 0
