"""The named verification suites, each a zero-argument function returning a CheckReport.

``SUITES`` maps a suite name to its function, in the order the ``toda verify``
command lists them:

- ``e8-paper``: the eleven-entry E8 identity table (characteristic
  polynomials, Perron components, golden ratios, closed forms). Nine of its
  checks are defined here, with their reference data, which label particles
  by Dynkin node. The ``eigenvalue-closed-forms`` and
  ``trig-closed-forms`` rows come from
  :func:`toda_spectrum.radicals.radical_identity_suite`, and the three
  closed-form tables from :mod:`toda_spectrum.radicals`; that suite stays
  there because the benchmark's tracer wraps it by that name;
- ``all-ade``: cross-method agreement for every simply-laced algebra of
  rank <= 8, each ``mass_ratio_spread`` judged against ``CONSISTENCY_TOL``,
  the one place the simply-laced verdict is defined;
- ``exponents``: recovered exponents against the classical tables for every
  algebra of rank <= 8.
"""

from __future__ import annotations

import math
from typing import Callable

from . import classical
from .exact_poly import RationalPolynomial, poly_divide_exact
from .masses import (
    GOLDEN_RATIO,
    _mass_scale,
    adjacency_char_poly,
    adjacency_eigen,
    mass_char_poly,
    mass_ratio_spread,
    perron_components,
)
from .radicals import MASS_CLOSED_FORMS, eval_radical, radical_identity_suite
from .report import CheckReport, CheckResult, check, check_exact
from .root_systems import AlgebraId, root_system
from .spectral import recover_exponents

E8 = AlgebraId("E", 8)

ADJACENCY_CHARPOLY_E8 = "x^8 - 7x^6 + 14x^4 - 8x^2 + 1"
MASS_CHARPOLY_E8 = (
    "x^8 - 60x^7 + 1440x^6 - 18000x^5 + 127440x^4 - 518400x^3"
    " + 1166400x^2 - 1296000x + 518400"
)

# E8 particle labels follow the Dynkin node numbering. Each pair below is
# (heavier, lighter) with mass ratio equal to the golden ratio.
E8_GOLDEN_PAIRS = ((7, 1), (6, 2), (5, 3), (4, 8))

# Perron components of the E8 adjacency matrix rounded to four decimals,
# normalised so component 5 equals 1 (the branch node carries the maximum).
E8_PERRON_REFERENCE_4DP = (0.2091, 0.4158, 0.6180, 0.8135, 1.0, 0.6728, 0.3383, 0.5028)

# The degree-8 characteristic polynomial of the E8 mass matrix splits into two
# monic quartics. Each carries the squared masses of four particles; the label
# sets below were established numerically (the swapped assignment misses the
# roots by residuals around 1e2).
E8_MASS_QUARTICS: tuple[RationalPolynomial, RationalPolynomial] = (
    RationalPolynomial.of(720, -720, 240, -30, 1),
    RationalPolynomial.of(720, -1080, 300, -30, 1),
)
E8_QUARTIC_LABELS: tuple[tuple[int, ...], tuple[int, ...]] = ((2, 5, 7, 8), (1, 3, 4, 6))

CONSISTENCY_TOL = 1e-9  # largest mass_ratio_spread a simply-laced algebra may show


def closed_form_mass_scale() -> float:
    """The E8 mass scale in closed form: 2 sqrt(3) sin(6 pi/30) / sin(pi/30)."""
    theta = math.pi / 30.0
    return 2.0 * math.sqrt(3.0) * math.sin(6.0 * theta) / math.sin(theta)


def _merged_check(name: str, *parts: CheckResult) -> CheckResult:
    """One row standing for several checks, passing only when every one of them passes.

    It reports the residual and tolerance of the part nearest to failing (the
    largest residual/tolerance ratio), so a failing part shows a residual
    above its own tolerance.
    """
    worst = max(parts, key=lambda c: abs(c.residual) / c.tolerance)
    return CheckResult(
        name,
        worst.residual,
        worst.tolerance,
        all(c.passed for c in parts),
        "; ".join(c.detail for c in parts),
    )


def _e8_suite_checks() -> CheckReport:
    """The eleven-entry E8 verification table."""
    a_poly = adjacency_char_poly(E8)
    eigenvalue_forms, trig_forms = radical_identity_suite()
    u = perron_components(E8)
    perron_res = max(abs(x - ref) for x, ref in zip(u, E8_PERRON_REFERENCE_4DP))
    golden_res = max(
        abs(u[heavy - 1] / u[light - 1] - GOLDEN_RATIO) / GOLDEN_RATIO
        for heavy, light in E8_GOLDEN_PAIRS
    )
    m_poly = mass_char_poly(E8)
    quotient, remainder = poly_divide_exact(m_poly, E8_MASS_QUARTICS[0])
    prod_a = u[1] * u[4] * u[6] * u[7]
    prod_b = u[0] * u[2] * u[3] * u[5]
    scale = _mass_scale(E8, u)
    closed = closed_form_mass_scale()
    root_res = 0.0
    ratios = []
    for quartic, labels in zip(E8_MASS_QUARTICS, E8_QUARTIC_LABELS):
        for label in labels:
            value = eval_radical(MASS_CLOSED_FORMS[label])
            doubled_square = 2.0 * value * value
            root_res = max(
                root_res,
                abs(quartic.evaluate(doubled_square)) / quartic.magnitude_at(doubled_square),
            )
            ratios.append(value / u[label - 1])

    return CheckReport(
        (
            check_exact("adjacency-charpoly", str(a_poly) == ADJACENCY_CHARPOLY_E8, str(a_poly)),
            eigenvalue_forms,
            check(
                "perron-components",
                perron_res,
                5e-5,
                "components match the four-decimal reference row",
            ),
            check(
                "golden-ratio-mass-ratios",
                golden_res,
                1e-10,
                "u7/u1, u6/u2, u5/u3 and u4/u8 all equal (1+sqrt(5))/2",
            ),
            trig_forms,
            check_exact("mass-charpoly", str(m_poly) == MASS_CHARPOLY_E8, str(m_poly)),
            check_exact(
                "quartic-factorization",
                remainder.is_zero and quotient == E8_MASS_QUARTICS[1],
                f"quotient {quotient}; remainder {remainder}",
            ),
            check(
                "cross-product-identity",
                abs(prod_a - prod_b) / abs(prod_b),
                1e-10,
                f"u2*u5*u7*u8 = u1*u3*u4*u6 = {prod_b:.6f}",
            ),
            check(
                "mass-scale-constant-term",
                abs(scale**4 * prod_a**2 - 720.0) / 720.0,
                1e-10,
                "fourth power of the scale times the squared particle-product equals 720",
            ),
            check(
                "mass-scale-closed-form",
                abs(scale - closed) / closed,
                1e-10,
                "determinant-fitted scale matches 2 sqrt(3) sin(6 pi/30)/sin(pi/30) = "
                f"{closed:.10f}",
            ),
            _merged_check(
                "mass-closed-forms",
                check(
                    "mass-closed-forms-as-factor-roots",
                    root_res,
                    1e-9,
                    "doubling the square of form j gives the squared mass of particle j "
                    "(a root of its quartic); particles 2,5,7,8 land on the quartic "
                    "with quadratic coefficient 240, particles 1,3,4,6 on the 300 one",
                ),
                check(
                    "mass-closed-forms-proportional-to-masses",
                    max(ratios) / min(ratios) - 1.0,
                    1e-12,
                    "each form divided by its Perron component is one constant, so the "
                    "forms scale like the masses themselves; the customary labelling of "
                    "these expressions as squared masses does not hold literally "
                    "(the squared mass is twice the square of the form)",
                ),
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
