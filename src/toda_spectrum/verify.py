"""The named verification suites, each a zero-argument function returning a CheckReport.

``SUITES`` maps a suite name to its function, in the order the ``toda verify``
command lists them:

- ``e8-paper``: the eleven-entry E8 identity table (characteristic
  polynomials, Perron components, golden ratios, closed forms);
- ``all-ade``: cross-method agreement for every simply-laced algebra of
  rank <= 8;
- ``exponents``: recovered exponents against the classical tables for every
  algebra of rank <= 8.
"""

from __future__ import annotations

from typing import Callable

from . import classical
from .exact_poly import poly_divide_exact
from .masses import (
    CONSISTENCY_TOL,
    E8,
    E8_MASS_QUARTICS,
    E8_PERRON_REFERENCE_4DP,
    adjacency_char_poly,
    adjacency_eigen,
    e8_identity_suite,
    mass_char_poly,
    mass_ratio_spread,
    perron_components,
)
from .radicals import radical_identity_suite
from .report import CheckReport, CheckResult, check, check_exact
from .root_systems import root_system
from .spectral import recover_exponents

ADJACENCY_CHARPOLY_E8 = "x^8 - 7x^6 + 14x^4 - 8x^2 + 1"
MASS_CHARPOLY_E8 = (
    "x^8 - 60x^7 + 1440x^6 - 18000x^5 + 127440x^4 - 518400x^3"
    " + 1166400x^2 - 1296000x + 518400"
)


def _e8_suite_checks() -> CheckReport:
    """The eleven-entry E8 verification table."""
    identity = e8_identity_suite()
    radical = radical_identity_suite()

    a_poly = adjacency_char_poly(E8)
    u = perron_components(E8)
    perron_res = max(abs(x - ref) for x, ref in zip(u, E8_PERRON_REFERENCE_4DP))
    m_poly = mass_char_poly(E8)
    quotient, remainder = poly_divide_exact(m_poly, E8_MASS_QUARTICS[0])
    roots_check = radical["mass-closed-forms-as-factor-roots"]
    ratio_check = radical["mass-closed-forms-proportional-to-masses"]
    return CheckReport(
        (
            check_exact("adjacency-charpoly", str(a_poly) == ADJACENCY_CHARPOLY_E8, str(a_poly)),
            radical["eigenvalue-closed-forms"],
            check(
                "perron-components",
                perron_res,
                5e-5,
                "components match the four-decimal reference row",
            ),
            identity["golden-ratio-mass-ratios"],
            radical["trig-closed-forms"],
            check_exact("mass-charpoly", str(m_poly) == MASS_CHARPOLY_E8, str(m_poly)),
            check_exact(
                "quartic-factorization",
                remainder.is_zero and quotient == E8_MASS_QUARTICS[1],
                f"quotient {quotient}; remainder {remainder}",
            ),
            identity["cross-product-identity"],
            identity["mass-scale-constant-term"],
            identity["mass-scale-closed-form"],
            CheckResult(
                "mass-closed-forms",
                max(roots_check.residual, ratio_check.residual),
                roots_check.tolerance,
                roots_check.passed and ratio_check.passed,
                f"{roots_check.detail}; {ratio_check.detail}",
            ),
        )
    )


def _exponent_checks() -> CheckReport:
    checks = []
    for name in classical.all_algebras(8):
        eig = adjacency_eigen(name)
        got = recover_exponents(eig.eigenvalues, root_system(name).coxeter_number)
        want = classical.exponents(name[0], int(name[1:]))
        checks.append(
            check_exact(f"exponents-{name}", got == want, " ".join(str(a) for a in got))
        )
    return CheckReport(tuple(checks))


def _ade_checks() -> CheckReport:
    return CheckReport(
        tuple(
            check(
                f"mass-ratio-{name}",
                mass_ratio_spread(name),
                CONSISTENCY_TOL,
                "squared masses proportional to squared Perron components",
            )
            for name in classical.simply_laced_algebras(8)
        )
    )


SUITES: dict[str, Callable[[], CheckReport]] = {
    "e8-paper": _e8_suite_checks,
    "all-ade": _ade_checks,
    "exponents": _exponent_checks,
}
