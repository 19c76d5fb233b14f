"""Floating-point spectral machinery.

A cyclic Jacobi eigensolver for symmetric matrices, left Perron-Frobenius
vectors by shifted power iteration, and recovery of algebra exponents from
adjacency eigenvalues. Tolerances are fixed constants so repeated runs are
bit-identical.

Power iteration visits only the nonzero entries of each column, so a step
costs O(n + nonzeros); a Dynkin adjacency has at most three per column.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

Matrix = Sequence[Sequence[float]]

JACOBI_OFFDIAG_TOL = 1e-13
SYMMETRY_TOL = 1e-12
POWER_DELTA_TOL = 1e-14
EXPONENT_RESIDUAL_TOL = 1e-9

_MAX_SWEEPS = 100
_MAX_POWER_ITER = 200_000


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with orthonormal eigenvector columns."""

    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[tuple[float, ...], ...]  # row-major; column k pairs with eigenvalue k

    def eigenvector(self, k: int) -> tuple[float, ...]:
        return tuple(row[k] for row in self.eigenvectors)


@dataclass(frozen=True)
class PerronVector:
    """Strictly positive left eigenvector for the top eigenvalue of a nonnegative matrix."""

    components: tuple[float, ...]
    eigenvalue: float


def jacobi_eigen(m: Matrix) -> EigenDecomposition:
    """Cyclic Jacobi rotations until every off-diagonal entry is below 1e-13."""
    n = len(m)
    a = [[float(v) for v in row] for row in m]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    skew = max(
        (abs(a[i][j] - a[j][i]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    if skew > SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = 0.5 * (a[i][j] + a[j][i])

    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_MAX_SWEEPS):
        off = max(
            (abs(a[p][q]) for p in range(n) for q in range(p + 1, n)),
            default=0.0,
        )
        if off < JACOBI_OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < JACOBI_OFFDIAG_TOL * 1e-3:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    else:
        raise RuntimeError("Jacobi iteration did not converge")

    order = sorted(range(n), key=lambda k: -a[k][k])
    eigenvalues = tuple(a[k][k] for k in order)
    eigenvectors = tuple(tuple(v[i][k] for k in order) for i in range(n))
    return EigenDecomposition(eigenvalues, eigenvectors)


def perron_vector(a: Matrix) -> PerronVector:
    """Left Perron-Frobenius vector of a nonnegative irreducible matrix, max component 1.

    Power iteration runs on (a + 2I) acting on row vectors, starting from all
    ones; the +2 shift keeps bipartite sign structure (top eigenvalue pairs
    +/-) from stalling the iteration. The reported eigenvalue refers to ``a``
    itself.

    Each step costs O(n + nonzeros): the nonzero entries of each column are
    listed once and summed in row order, which gives the same iterates, bit
    for bit, as summing over every row, because adding a zero product is exact.
    """
    n = len(a)
    mat = [[float(x) for x in row] for row in a]
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for x in row:
            if x < 0.0:
                raise ValueError("matrix must be nonnegative")

    cols = [[(i, mat[i][j]) for i in range(n) if mat[i][j] != 0.0] for j in range(n)]

    def step(vec: list[float]) -> tuple[list[float], float]:
        w = [sum([vec[i] * x for i, x in col]) + 2.0 * vec[j] for j, col in enumerate(cols)]
        top = max(w)
        if top <= 0.0:
            raise ValueError("power iteration collapsed; matrix is not irreducible")
        nxt = [x / top for x in w]
        return nxt, max(map(abs, map(operator.sub, nxt, vec)))

    u = [1.0] * n
    for _ in range(_MAX_POWER_ITER):
        u, delta = step(u)
        if delta < POWER_DELTA_TOL:
            break
    else:
        raise ValueError("power iteration did not converge; matrix may be reducible")

    # polish: once converged to the contractual delta, keep stepping while the
    # delta still shrinks, pushing the iterate to the rounding floor
    for _ in range(200):
        nxt, nxt_delta = step(u)
        if nxt_delta >= delta:
            break
        u, delta = nxt, nxt_delta

    # u is max-normalized here; a component at rounding scale means the
    # support graph is reducible and the true Perron vector is not positive
    if min(u) <= 1e-12:
        raise ValueError("Perron vector has a vanishing component; matrix is reducible")

    k = max(range(n), key=lambda i: u[i])
    image = [sum(u[i] * mat[i][j] for i in range(n)) for j in range(n)]
    eigenvalue = image[k] / u[k]

    return PerronVector(tuple(u), eigenvalue)


def recover_exponents(eigenvalues: Sequence[float], h: int) -> tuple[int, ...]:
    """Integers a with eigenvalue = 2 cos(a pi / h), sorted ascending.

    A residual above 1e-9 means the Coxeter number is wrong or the matrix is
    not a Dynkin adjacency, and is reported as an error.
    """
    out = []
    for x in eigenvalues:
        if not -2.0 < x < 2.0:
            raise ValueError(f"eigenvalue {x} outside (-2, 2)")
        a = round(h * math.acos(x / 2.0) / math.pi)
        residual = abs(x - 2.0 * math.cos(a * math.pi / h))
        if residual > EXPONENT_RESIDUAL_TOL:
            raise ValueError(
                f"eigenvalue {x} is not 2 cos(a pi/{h}) for any integer a "
                f"(best residual {residual:.3e})"
            )
        out.append(a)
    return tuple(sorted(out))
