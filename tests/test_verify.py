import ast
import pathlib

import toda_spectrum
from toda_spectrum import masses, verify
from toda_spectrum.report import CheckReport, ExactCheckResult, check, check_exact
from toda_spectrum.verify import CONSISTENCY_TOL, SUITES, _merged_check

PACKAGE = pathlib.Path(toda_spectrum.__file__).parent

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


def test_swapped_quartic_labels_fail_the_mass_closed_forms_row(monkeypatch):
    monkeypatch.setattr(verify, "E8_QUARTIC_LABELS", tuple(reversed(verify.E8_QUARTIC_LABELS)))
    row = SUITES["e8-paper"]()["mass-closed-forms"]
    assert not row.passed
    assert row.residual > 1e-3  # the root residual, not the proportionality part
    assert row.tolerance == 1e-9


def _package_imports(module: str) -> set[str]:
    """The ``toda_spectrum`` modules that ``module`` imports, relatively or by absolute name."""
    paths = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "toda_spectrum." + base if base else "toda_spectrum"
            if base == "toda_spectrum":
                paths += [f"{base}.{a.name}" for a in node.names]
            else:
                paths.append(base)
    return {p.partition(".")[2] for p in paths if p.partition(".")[0] == "toda_spectrum"}


def test_radicals_imports_only_report_from_the_package():
    assert _package_imports("radicals") <= {"report"}


def test_masses_imports_no_check_module():
    assert not _package_imports("masses") & {"classical", "report", "radicals", "verify"}


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from toda_spectrum import *", namespace)
    assert set(toda_spectrum.__all__) <= namespace.keys()


# the public API, sorted; a change to it is deliberate and recorded in CHANGES.md
PUBLIC_API = [
    "AdjacencyEigenvalues",
    "AlgebraId",
    "CartanMatrix",
    "CheckReport",
    "CheckResult",
    "ConsistencyError",
    "E8",
    "EigenDecomposition",
    "GOLDEN_RATIO",
    "InvalidAlgebraError",
    "MassMethod",
    "NegativeRadicandError",
    "NormalizationInfo",
    "PerronVector",
    "RationalMatrix",
    "RationalPolynomial",
    "RootSystem",
    "Spectrum",
    "adjacency_eigen",
    "cartan_matrix",
    "char_poly_exact",
    "dynkin_adjacency",
    "embed_roots",
    "eval_radical",
    "generate_roots",
    "jacobi_eigen",
    "mass_char_poly",
    "mass_matrix",
    "mass_ratio_spread",
    "perron_components",
    "perron_vector",
    "poly_divide_exact",
    "radical_identity_suite",
    "recover_exponents",
    "refine_real_roots",
    "root_system",
    "spectrum_method1",
    "spectrum_method2",
]


def test_public_api_is_the_recorded_list():
    assert sorted(toda_spectrum.__all__) == PUBLIC_API
