"""Toda-lattice mass spectra by two routes.

Route one (``spectrum_method1``): the left Perron-Frobenius vector of the
Dynkin adjacency matrix 2I - C carries the mass ratios; the absolute scale is
the unique constant making the product of all squared masses equal the
determinant of the mass matrix.

Route two (``spectrum_method2``): the mass matrix is the weighted sum of outer
products of the affine root family (the simple roots plus the lowest root,
weighted by the marks, with weight one on the lowest root). Its eigenvalues
are the squared masses. They are computed on the affine Dynkin diagram: the
(n+1) x (n+1) matrix W^(1/2) G' W^(1/2), with G' the Gram matrix of the
affine family and W = diag(1, marks), has the same eigenvalues plus one zero.
It is built from the nonzero Gram entries in O(n + bonds), as a diagonal and
a bond list, and reduced as a band matrix. The dense embedded matrix
(``mass_matrix_embedded``) is kept as the tests' independent reference. The
same spectrum is carried by an exact rational matrix - the mark-weighted
coefficient outer-product sum times the Gram matrix - so the characteristic
polynomial can be computed with no floating point at all.

Both routes list every spectrum's masses in ascending order, one rule for
every algebra. The Perron components stay indexed by Dynkin node; the
paper's node-labelled identities are read from them by ``toda verify
e8-paper``. For simply-laced algebras the two routes agree index by index.
For B, C, F and G both spectra are reported and no verdict is given, but the
agreement is measured: B2, C2, F4 and G2 agree at rounding level (spread
2e-15 or less), while B_n and C_n from rank 3 do not (spread 2.0 at rank 3,
falling to about 0.30 at rank 16). One identity accounts for both. The Gram
form G = C diag(d), d the symmetrizers, is symmetric, so when u is the left
Perron vector of 2I - C, the products d_i u_i form that of 2I - C^T, the
adjacency matrix of the Langlands dual algebra X^v; route 2's squared masses
are those products squared. Route 1 of X is therefore route 2 of X^v: B_n
and C_n swap, and B2 = C2, F4 and G2 (nodes reversed) are their own duals.
This module measures the agreement
(``mass_ratio_spread``) and judges nothing: the simply-laced verdict and the
identity checks live in :mod:`toda_spectrum.verify`.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from fractions import Fraction

from .exact_poly import RationalMatrix, RationalPolynomial, char_poly_exact
from .record import Record
from .root_systems import (
    AlgebraId,
    RootSystem,
    dynkin_adjacency,
    embed_roots,
    root_system,
)
from .spectral import eigenvalues_from_bonds, perron_vector

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class MassMethod(enum.Enum):
    PERRON_FROBENIUS = "pf"
    MASS_MATRIX = "massmatrix"


class ConsistencyError(RuntimeError):
    """The mass matrix broke a property its spectrum must have (see ``_mass_squares``)."""


class NormalizationInfo(Record):
    """How a spectrum is scaled: which quantity was fixed, and the factor applied."""

    kind: str
    fixed: str
    scale: float


class Spectrum(Record):
    """Particle masses for one algebra, one method, in ascending order.

    Index i is particle i+1 for every algebra. Node labels are not kept here:
    ``verify e8-paper`` reads them from :func:`perron_components`.
    """

    algebra: AlgebraId
    masses: tuple[float, ...]
    mass_squares: tuple[float, ...]
    method: MassMethod
    normalization: NormalizationInfo

    def __post_init__(self) -> None:
        if len(self.masses) != self.algebra.rank or len(self.mass_squares) != self.algebra.rank:
            raise ValueError("spectrum length must equal the rank")
        # written as "not ..." so that a NaN or an infinite mass or square fails
        for m, sq in zip(self.masses, self.mass_squares):
            if not 0.0 < m < math.inf:
                raise ValueError("masses must be finite and strictly positive")
            if not abs(sq - m * m) <= 1e-12 * sq < math.inf:
                raise ValueError("mass_squares must be the squares of masses")
        if any(a > b for a, b in zip(self.masses, self.masses[1:])):
            raise ValueError("masses must be in ascending order")

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
            # added left to right, as ``sum`` did before Python 3.12 (from 3.12
            # it compensates), so that every version prints the same digits
            scale = 1.0 / math.sqrt(functools.reduce(operator.add, (m * m for m in absolute), 0.0))
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


def mass_matrix(algebra: AlgebraId | str) -> RationalMatrix:
    """Exact rational matrix K G sharing its spectrum with the (real symmetric) mass matrix.

    With c_j the coefficient vectors of the affine root family and n_j the
    marks (n_0 = 1), the mass matrix equals L^T K L for the Cholesky factor L
    of the Gram matrix and K = sum n_j c_j c_j^T. It is therefore similar to
    K G, which is exact: K is an integer matrix (marks outer product plus the
    diagonal of marks) and G the rational Gram matrix. G_ij = C_ij s_j / L is
    filled from the Cartan bonds and :func:`_integer_symmetrizers`, so no
    ``Fraction`` is read or built per entry, and the dense Gram table is not read.
    """
    rs = root_system(algebra)
    n = rs.rank
    marks = rs.marks
    k_rows = [[mi * mj for mj in marks] for mi in marks]
    for i, mi in enumerate(marks):
        k_rows[i][i] += mi
    scaled, scale = _integer_symmetrizers(rs)
    g_rows = [[0] * n for _ in range(n)]
    for g, bonds in zip(g_rows, rs.cartan.bonds):
        for j, c in bonds:
            g[j] = c * scaled[j]
    return RationalMatrix(k_rows) @ RationalMatrix(g_rows, scale)


def _integer_symmetrizers(rs: RootSystem) -> tuple[list[int], int]:
    """The symmetrizers as integers s over their lcm denominator L, so G_ij = C_ij s_j / L."""
    scale = math.lcm(*(d.denominator for d in rs.symmetrizers))
    return [d.numerator * (scale // d.denominator) for d in rs.symmetrizers], scale


def mass_char_poly(algebra: AlgebraId | str) -> RationalPolynomial:
    """Exact characteristic polynomial of the mass matrix.

    Cached per algebra: every spelling of one algebra returns the same object.
    """
    return _mass_char_poly(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _mass_char_poly(aid: AlgebraId) -> RationalPolynomial:
    return char_poly_exact(mass_matrix(aid))


def adjacency_char_poly(algebra: AlgebraId | str) -> RationalPolynomial:
    """Exact characteristic polynomial of the Dynkin adjacency matrix 2I - C."""
    return char_poly_exact(RationalMatrix(dynkin_adjacency(root_system(algebra).cartan)))


def mass_matrix_embedded(algebra: AlgebraId | str) -> list[list[float]]:
    """The symmetric n x n mass matrix built from embedded root coordinates.

    A dense sum of outer products over a Cholesky embedding of the roots. No
    algebra request builds it; it is the independent reference the tests
    hold :func:`_affine_bonds` to.
    """
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


Bonds = tuple[list[float], list[tuple[int, int, float]]]


def _affine_bonds(rs: RootSystem) -> Bonds:
    """Diagonal and bonds of the (n+1) x (n+1) matrix W^(1/2) G' W^(1/2).

    The matrix lives on the affine Dynkin diagram. G' is the Gram matrix of
    the affine root family, node 0 the lowest root -theta, and W = diag(1,
    marks). With V the matrix whose rows are the family's vectors, the mass
    matrix is V^T W V, so its eigenvalues are the nonzero ones of
    W^(1/2) V V^T W^(1/2), which is this matrix. Its one other eigenvalue is
    0, with eigenvector (1, sqrt(marks)), because the family weighted by
    (1, marks) sums to zero.

    Built in O(n + bonds) from the nonzero Gram entries G_ij with i <= j:
    G'_00 = 2, and G'_0j = -sum_k marks_k G_kj = -p_j G_jj / 2, where the
    integer p_j is the pairing of theta with coroot j, nonzero only where
    node 0 bonds. Each G_ij = C_ij s_j / L, read off the Cartan bonds over the
    integer symmetrizers (:func:`_integer_symmetrizers`), is one correctly
    rounded integer division, so it is ``float(C_ij * d_j)`` to the bit, and
    no ``Fraction`` is read or made. Each bond ``(i, j, x)`` has i < j, as
    :func:`eigenvalues_from_bonds` takes it.
    """
    n = rs.rank
    marks = rs.marks
    pairing = [0] * n
    for k, row in enumerate(rs.cartan.bonds):
        for j, c in row:
            pairing[j] += marks[k] * c
    scaled, scale = _integer_symmetrizers(rs)
    diagonal = [2.0] + [0.0] * n
    bonds = []
    for i, row in enumerate(rs.cartan.bonds):
        for j, c in row:
            if i > j:
                continue
            g = c * scaled[j] / scale
            x = math.sqrt(marks[i] * marks[j]) * g
            if i < j:
                bonds.append((i + 1, j + 1, x))
                continue
            diagonal[i + 1] = x
            if pairing[j]:
                bonds.append((0, j + 1, -math.sqrt(marks[j]) * (pairing[j] * g / 2.0)))
    return diagonal, bonds


def _adjacency_bonds(rs: RootSystem) -> Bonds:
    """Diagonal and bonds of the symmetric matrix similar to 2I - C.

    Its diagonal is zero, and the bond of nodes i < j is sqrt(C_ij C_ji), 1,
    sqrt 2 or sqrt 3 correctly rounded: the entry (i, j) of D^(-1/2) (2I - C)
    D^(1/2), D the symmetrizers, since C_ij d_j = C_ji d_i.
    """
    entries = rs.cartan.entries
    bonds = [
        (i, j, math.sqrt(c * entries[j][i]))
        for i, row in enumerate(rs.cartan.bonds)
        for j, c in row
        if i < j
    ]
    return [0.0] * rs.rank, bonds


class AdjacencyEigenvalues(Record):
    """Eigenvalues of the Dynkin adjacency matrix 2I - C, in descending order."""

    eigenvalues: tuple[float, ...]


def adjacency_eigen(algebra: AlgebraId | str) -> AdjacencyEigenvalues:
    """Adjacency eigenvalues, from the bonds of the symmetrized similar matrix (no eigenvectors)."""
    return AdjacencyEigenvalues(eigenvalues_from_bonds(*_adjacency_bonds(root_system(algebra))))


def perron_components(algebra: AlgebraId | str) -> tuple[float, ...]:
    """Left Perron-Frobenius components of the adjacency matrix, node-indexed.

    Scaled so the first component is 2 sin(theta), where the top eigenvalue is
    2 cos(theta). Cached per algebra, like ``mass_char_poly``.
    """
    return _perron_components(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _perron_components(aid: AlgebraId) -> tuple[float, ...]:
    pv = perron_vector(dynkin_adjacency(root_system(aid).cartan))
    scale = 2.0 * math.sin(math.acos(pv.eigenvalue / 2.0)) / pv.components[0]
    return tuple(x * scale for x in pv.components)


# an eigenvalue of the affine mass matrix at most this times the largest is its null one
NULL_EIGENVALUE_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _mass_squares(aid: AlgebraId) -> tuple[float, ...]:
    """Mass-matrix eigenvalues in ascending order, computed once per algebra.

    They are the eigenvalues of the affine matrix of :func:`_affine_bonds`
    less its null one. Raises ``ConsistencyError`` unless exactly one
    eigenvalue is at rounding level and every other one is positive.
    """
    eigenvalues = eigenvalues_from_bonds(*_affine_bonds(root_system(aid)))
    squares = [x for x in eigenvalues if abs(x) > NULL_EIGENVALUE_TOL * eigenvalues[0]]
    if len(squares) != len(eigenvalues) - 1:
        raise ConsistencyError(
            f"affine mass matrix of {aid} has {len(eigenvalues) - len(squares)} "
            "eigenvalues at rounding level, not one"
        )
    if squares[-1] <= 0.0:
        raise ConsistencyError(
            f"mass matrix of {aid} produced a nonpositive eigenvalue: {squares[-1]}"
        )
    return tuple(reversed(squares))


def _mass_scale(aid: AlgebraId, u: tuple[float, ...]) -> float:
    """Scale factor relating squared masses to squared Perron components.

    Fixed by matching the product of all squared masses to the mass-matrix
    determinant, read off the exact characteristic polynomial's constant term.
    """
    n = aid.rank
    poly = mass_char_poly(aid)
    constant = poly.coefficients[0] if poly.coefficients else Fraction(0)
    determinant = constant if n % 2 == 0 else -constant
    if determinant <= 0:
        raise ConsistencyError("mass-matrix determinant must be positive")
    prod_u = 1.0
    for x in u:
        prod_u *= x
    return (float(determinant) / (prod_u * prod_u)) ** (1.0 / n)


def spectrum_method1(algebra: AlgebraId | str) -> Spectrum:
    """Masses from the Perron-Frobenius route, on the absolute scale, ascending."""
    aid = AlgebraId.of(algebra)
    u = perron_components(aid)
    root_scale = math.sqrt(_mass_scale(aid, u))
    masses = tuple(sorted(root_scale * x for x in u))
    return Spectrum(
        algebra=aid,
        masses=masses,
        mass_squares=tuple(m * m for m in masses),
        method=MassMethod.PERRON_FROBENIUS,
        normalization=NormalizationInfo(
            "absolute",
            "product of squared masses equals the mass-matrix determinant",
            1.0,
        ),
    )


def spectrum_method2(algebra: AlgebraId | str) -> Spectrum:
    """Masses as square roots of the mass-matrix eigenvalues, absolute scale, ascending.

    No Perron component is read, so the route is independent of route one.
    """
    aid = AlgebraId.of(algebra)
    squares = _mass_squares(aid)
    return Spectrum(
        algebra=aid,
        masses=tuple(math.sqrt(x) for x in squares),
        mass_squares=squares,
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
