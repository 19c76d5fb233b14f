"""Toda-lattice mass spectra by two routes, and the exact identity suite for E8.

Route one (``spectrum_method1``): the left Perron-Frobenius vector of the
Dynkin adjacency matrix 2I - C carries the mass ratios; the absolute scale is
the unique constant making the product of all squared masses equal the
determinant of the mass matrix.

Route two (``spectrum_method2``): the mass matrix is the weighted sum of outer
products of the affine root family (the simple roots plus the lowest root,
weighted by the marks, with weight one on the lowest root). Its eigenvalues
are the squared masses. The same spectrum is carried by an exact rational
matrix - the mark-weighted coefficient outer-product sum times the Gram
matrix - so the characteristic polynomial can be computed with no floating
point at all.

For simply-laced algebras the two routes agree node by node; for B, C, F and G
both spectra are reported without asserting agreement.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import classical
from .exact_poly import RationalMatrix, RationalPolynomial, char_poly_exact
from .report import CheckReport, CheckResult, check
from .root_systems import (
    AlgebraId,
    RootSystem,
    dynkin_adjacency,
    embed_roots,
    root_system,
)
from .spectral import perron_vector, symmetric_eigenvalues

E8 = AlgebraId("E", 8)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

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


class MassMethod(enum.Enum):
    PERRON_FROBENIUS = "pf"
    MASS_MATRIX = "massmatrix"


class ConsistencyError(RuntimeError):
    """The two mass routes disagreed where they are required to agree."""


@dataclass(frozen=True)
class NormalizationInfo:
    """How a spectrum is scaled: which quantity was fixed, and the factor applied."""

    kind: str
    fixed: str
    scale: float


@dataclass(frozen=True)
class Spectrum:
    """Particle masses for one algebra, one method.

    For E8 the index i corresponds to particle (Dynkin node) i+1; for every
    other algebra masses are listed in ascending order.
    """

    algebra: AlgebraId
    masses: tuple[float, ...]
    mass_squares: tuple[float, ...]
    method: MassMethod
    normalization: NormalizationInfo

    def __post_init__(self) -> None:
        if len(self.masses) != self.algebra.rank or len(self.mass_squares) != self.algebra.rank:
            raise ValueError("spectrum length must equal the rank")
        for m, sq in zip(self.masses, self.mass_squares):
            if m <= 0.0:
                raise ValueError("masses must be strictly positive")
            if abs(sq - m * m) > 1e-12 * sq:
                raise ValueError("mass_squares must be the squares of masses")

    def rescaled(self, kind: str) -> "Spectrum":
        """A copy scaled per ``kind``: absolute | max | first | unit."""
        base = 1.0 / self.normalization.scale
        absolute = [m * base for m in self.masses]
        if kind == "absolute":
            scale = 1.0
            fixed = "squared masses are mass-matrix eigenvalues (long roots of squared length 2)"
        elif kind == "max":
            scale = 1.0 / max(absolute)
            fixed = "heaviest mass = 1"
        elif kind == "first":
            h = root_system(self.algebra).coxeter_number
            scale = 2.0 * math.sin(math.pi / h) / min(absolute)
            fixed = "lightest mass = 2 sin(pi/h)"
        elif kind == "unit":
            scale = 1.0 / math.sqrt(sum(m * m for m in absolute))
            fixed = "Euclidean norm of the mass vector = 1"
        else:
            raise ValueError(f"unknown normalization {kind!r}")
        masses = tuple(m * scale for m in absolute)
        return Spectrum(
            algebra=self.algebra,
            masses=masses,
            mass_squares=tuple(m * m for m in masses),
            method=self.method,
            normalization=NormalizationInfo(kind, fixed, scale),
        )


@dataclass(frozen=True)
class MassMatrixExact:
    """Exact rational matrix sharing its spectrum with the (real symmetric) mass matrix."""

    kg: RationalMatrix
    description: str


def mass_matrix(algebra: AlgebraId | str) -> MassMatrixExact:
    """Exact spectrum carrier for the mass matrix.

    With c_j the coefficient vectors of the affine root family and n_j the
    marks (n_0 = 1), the mass matrix equals L^T K L for the Cholesky factor L
    of the Gram matrix and K = sum n_j c_j c_j^T. It is therefore similar to
    K G, which is exact: K is an integer matrix (marks outer product plus the
    diagonal of marks) and G the rational Gram matrix.
    """
    rs = root_system(algebra)
    n = rs.rank
    marks = rs.marks
    k_entries = [
        [Fraction(marks[i] * marks[j] + (marks[i] if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    kg = RationalMatrix.from_rows(k_entries) @ RationalMatrix(rs.gram)
    return MassMatrixExact(
        kg=kg,
        description=(
            "mark-weighted coefficient outer-product sum times the Gram matrix; "
            "similar to the symmetric mass matrix, so the spectrum is identical"
        ),
    )


def mass_char_poly(algebra: AlgebraId | str) -> RationalPolynomial:
    """Exact characteristic polynomial of the mass matrix.

    Cached per algebra: every spelling of one algebra returns the same object.
    """
    return _mass_char_poly(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _mass_char_poly(aid: AlgebraId) -> RationalPolynomial:
    return char_poly_exact(mass_matrix(aid).kg)


def adjacency_char_poly(algebra: AlgebraId | str) -> RationalPolynomial:
    """Exact characteristic polynomial of the Dynkin adjacency matrix 2I - C."""
    return char_poly_exact(RationalMatrix.from_rows(dynkin_adjacency(root_system(algebra).cartan)))


def mass_matrix_embedded(algebra: AlgebraId | str) -> list[list[float]]:
    """The symmetric mass matrix built from embedded root coordinates."""
    rs = root_system(algebra)
    n = rs.rank
    vectors = embed_roots(rs)
    weights = [1] + list(rs.marks)
    b = [[0.0] * n for _ in range(n)]
    for w, vec in zip(weights, vectors):
        for a in range(n):
            wa = w * vec[a]
            for c in range(n):
                b[a][c] += wa * vec[c]
    return b


def adjacency_symmetrized(rs: RootSystem) -> list[list[float]]:
    """Symmetric matrix similar to 2I - C (entrywise G_ij / sqrt(d_i d_j) off the shift)."""
    n = rs.rank
    d = [math.sqrt(float(x)) for x in rs.symmetrizers]
    return [
        [0.0 if i == j else -float(rs.gram[i][j]) / (d[i] * d[j]) for j in range(n)]
        for i in range(n)
    ]


@dataclass(frozen=True)
class AdjacencyEigenvalues:
    """Eigenvalues of the Dynkin adjacency matrix 2I - C, in descending order."""

    eigenvalues: tuple[float, ...]


def adjacency_eigen(algebra: AlgebraId | str) -> AdjacencyEigenvalues:
    """Adjacency eigenvalues, from the symmetrized similar matrix (no eigenvectors)."""
    return AdjacencyEigenvalues(symmetric_eigenvalues(adjacency_symmetrized(root_system(algebra))))


def perron_components(algebra: AlgebraId | str) -> tuple[float, ...]:
    """Left Perron-Frobenius components of the adjacency matrix, node-indexed.

    Scaled so the first component is 2 sin(theta), where the top eigenvalue is
    2 cos(theta). Cached per algebra, like ``mass_char_poly``.
    """
    return _perron_components(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _perron_components(aid: AlgebraId) -> tuple[float, ...]:
    a = [[float(v) for v in row] for row in dynkin_adjacency(root_system(aid).cartan)]
    pv = perron_vector(a)
    scale = 2.0 * math.sin(math.acos(pv.eigenvalue / 2.0)) / pv.components[0]
    return tuple(x * scale for x in pv.components)


@functools.lru_cache(maxsize=None)
def _mass_squares(aid: AlgebraId) -> tuple[float, ...]:
    """Mass-matrix eigenvalues in ascending order, computed once per algebra."""
    squares_desc = symmetric_eigenvalues(mass_matrix_embedded(aid))
    if squares_desc[-1] <= 0.0:
        raise ConsistencyError(
            f"mass matrix of {aid} produced a nonpositive eigenvalue: {squares_desc[-1]}"
        )
    return tuple(sorted(squares_desc))


def _mass_scale(rs: RootSystem, u: tuple[float, ...]) -> float:
    """Scale factor relating squared masses to squared Perron components.

    Fixed by matching the product of all squared masses to the mass-matrix
    determinant, read off the exact characteristic polynomial's constant term.
    """
    n = rs.rank
    poly = mass_char_poly(_identify(rs))
    constant = poly.coefficients[0] if poly.coefficients else Fraction(0)
    determinant = constant if n % 2 == 0 else -constant
    if determinant <= 0:
        raise ConsistencyError("mass-matrix determinant must be positive")
    prod_u = 1.0
    for x in u:
        prod_u *= x
    return (float(determinant) / (prod_u * prod_u)) ** (1.0 / n)


def _identify(rs: RootSystem) -> AlgebraId:
    if rs.algebra is None:
        raise ValueError("root system carries no algebra id")
    return rs.algebra


def spectrum_method1(algebra: AlgebraId | str) -> Spectrum:
    """Masses from the Perron-Frobenius route, on the absolute scale.

    E8 masses are node-indexed; other algebras come out ascending.
    """
    aid = AlgebraId.of(algebra)
    rs = root_system(aid)
    u = perron_components(aid)
    scale = _mass_scale(rs, u)
    root_scale = math.sqrt(scale)
    masses = [root_scale * x for x in u]
    if aid != E8:
        masses.sort()
    return Spectrum(
        algebra=aid,
        masses=tuple(masses),
        mass_squares=tuple(m * m for m in masses),
        method=MassMethod.PERRON_FROBENIUS,
        normalization=NormalizationInfo(
            "absolute",
            "product of squared masses equals the mass-matrix determinant",
            1.0,
        ),
    )


def spectrum_method2(algebra: AlgebraId | str) -> Spectrum:
    """Masses as square roots of the mass-matrix eigenvalues, absolute scale.

    E8 eigenvalues are assigned to particles by ranking against the Perron
    components (particle j carries mass proportional to component j); other
    algebras come out ascending.
    """
    aid = AlgebraId.of(algebra)
    ascending = _mass_squares(aid)
    if aid == E8:
        u = perron_components(aid)
        order = sorted(range(len(u)), key=lambda i: u[i])
        squares = [0.0] * len(u)
        for rank_pos, node in enumerate(order):
            squares[node] = ascending[rank_pos]
    else:
        squares = list(ascending)
    masses = tuple(math.sqrt(x) for x in squares)
    return Spectrum(
        algebra=aid,
        masses=masses,
        mass_squares=tuple(squares),
        method=MassMethod.MASS_MATRIX,
        normalization=NormalizationInfo(
            "absolute",
            "squared masses are mass-matrix eigenvalues (long roots of squared length 2)",
            1.0,
        ),
    )


def mass_ratio_spread(algebra: AlgebraId | str) -> float:
    """Spread of squared-mass to squared-component ratios across particles.

    Squared masses come from the mass-matrix eigenvalues, components from the
    Perron route; both are sorted ascending and divided pairwise. The spread
    is max(ratio)/min(ratio) - 1, zero when the two routes agree perfectly.
    """
    aid = AlgebraId.of(algebra)
    u = sorted(perron_components(aid))
    squares = _mass_squares(aid)
    ratios = [m / (x * x) for m, x in zip(squares, u)]
    return max(ratios) / min(ratios) - 1.0


CONSISTENCY_TOL = 1e-9


def consistency_check(algebra: AlgebraId | str) -> float:
    """Cross-method spread; raises for simply-laced algebras if it exceeds 1e-9.

    For B, C, F and G the spread is reported without judgement: the node-wise
    proportionality of masses and Perron components is a simply-laced fact.
    """
    aid = AlgebraId.of(algebra)
    spread = mass_ratio_spread(aid)
    if classical.simply_laced(aid.family) and spread > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"mass routes disagree for simply-laced {aid}: spread {spread:.3e} > {CONSISTENCY_TOL}"
        )
    return spread


def closed_form_mass_scale() -> float:
    """The E8 mass scale in closed form: 2 sqrt(3) sin(6 pi/30) / sin(pi/30)."""
    theta = math.pi / 30.0
    return 2.0 * math.sqrt(3.0) * math.sin(6.0 * theta) / math.sin(theta)


def e8_identity_suite() -> CheckReport:
    """Verify the named E8 identities; failures come back as report entries."""
    rs = root_system(E8)
    u = perron_components(E8)
    checks: list[CheckResult] = []

    golden_res = max(
        abs(u[heavy - 1] / u[light - 1] - GOLDEN_RATIO) / GOLDEN_RATIO
        for heavy, light in E8_GOLDEN_PAIRS
    )
    checks.append(
        check(
            "golden-ratio-mass-ratios",
            golden_res,
            1e-10,
            "u7/u1, u6/u2, u5/u3 and u4/u8 all equal (1+sqrt(5))/2",
        )
    )

    prod_a = u[1] * u[4] * u[6] * u[7]
    prod_b = u[0] * u[2] * u[3] * u[5]
    checks.append(
        check(
            "cross-product-identity",
            abs(prod_a - prod_b) / abs(prod_b),
            1e-10,
            f"u2*u5*u7*u8 = u1*u3*u4*u6 = {prod_b:.6f}",
        )
    )

    scale = _mass_scale(rs, u)
    checks.append(
        check(
            "mass-scale-constant-term",
            abs(scale**4 * prod_a**2 - 720.0) / 720.0,
            1e-10,
            "fourth power of the scale times the squared particle-product equals 720",
        )
    )
    closed = closed_form_mass_scale()
    checks.append(
        check(
            "mass-scale-closed-form",
            abs(scale - closed) / closed,
            1e-10,
            f"determinant-fitted scale matches 2 sqrt(3) sin(6 pi/30)/sin(pi/30) = {closed:.10f}",
        )
    )

    partition_res = 0.0
    for quartic, labels in zip(E8_MASS_QUARTICS, E8_QUARTIC_LABELS):
        for label in labels:
            msq = scale * u[label - 1] ** 2
            partition_res = max(
                partition_res, abs(quartic.evaluate(msq)) / quartic.magnitude_at(msq)
            )
    checks.append(
        check(
            "quartic-root-partition",
            partition_res,
            1e-10,
            "squared masses of particles 2,5,7,8 are the roots of "
            f"{E8_MASS_QUARTICS[0]}; particles 1,3,4,6 match {E8_MASS_QUARTICS[1]}",
        )
    )
    return CheckReport(tuple(checks))
