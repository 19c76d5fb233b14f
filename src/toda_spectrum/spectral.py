"""Floating-point spectral machinery.

Eigenvalues of symmetric matrices by Householder tridiagonalisation and
implicit QL with Wilkinson shifts, left Perron-Frobenius vectors by shifted
power iteration, and recovery of algebra exponents from adjacency eigenvalues.
Tolerances are fixed constants so repeated runs are bit-identical.

``symmetric_eigenvalues`` is the solver every algebra request uses. It
computes eigenvalues only: one reduction of about (4/3) n^3 flops, skipped
where a column is already tridiagonal (the A, B and C adjacencies), then
O(n^2) work in QL. Each solve is checked against two exact invariants,
sum(lambda) = tr M and sum(lambda^2) = ||M||_F^2. The cyclic Jacobi solver
``jacobi_eigen`` costs O(n^3) per sweep and also accumulates eigenvectors; no
algebra request runs it. It is kept as the eigenvector-producing reference the
tests compare against, and because the benchmark's tracer wraps it by name.

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
INVARIANT_TOL = 1e-12
POWER_DELTA_TOL = 1e-14
EXPONENT_RESIDUAL_TOL = 1e-9

_MAX_SWEEPS = 100
_MAX_QL_ITER = 30  # per eigenvalue, as in EISPACK tql1
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


def _symmetric_copy(m: Matrix) -> list[list[float]]:
    """A float copy of ``m``, symmetrised; raises unless square and symmetric to 1e-12."""
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
    return a


def symmetric_eigenvalues(m: Matrix) -> tuple[float, ...]:
    """Eigenvalues of a symmetric matrix in descending order, without eigenvectors.

    Householder reflections reduce ``m`` to tridiagonal form, then implicit QL
    with Wilkinson shifts diagonalises it (Golub & Van Loan, Matrix
    Computations, 8.3; EISPACK tred1 and tql1). Raises ``ValueError`` for
    input that is not square and symmetric, and ``RuntimeError`` if QL needs
    more than 30 iterations for one eigenvalue or if the eigenvalues miss
    sum = trace or sum of squares = squared Frobenius norm by more than 1e-12
    relative.
    """
    a = _symmetric_copy(m)
    # scale by a power of two so that the largest entry lies in [1/2, 1): exact
    # for every entry above 2^-1022, and no entry that matters is subnormal
    top = max((abs(x) for row in a for x in row), default=0.0)
    shift = math.frexp(top)[1]
    a = [[math.ldexp(x, -shift) for x in row] for row in a]
    eigenvalues = _ql_implicit(*_tridiagonalize(a))
    _check_invariants(a, eigenvalues)
    return tuple(sorted((math.ldexp(x, shift) for x in eigenvalues), reverse=True))


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of a tridiagonal matrix orthogonally similar to ``a``.

    Step k reflects rows and columns k+1.. so that column k is zero below its
    subdiagonal; a column that already is gets no reflection. ``a`` is not
    modified.
    """
    n = len(a)
    diag, off = [0.0] * n, [0.0] * n  # off[k] couples k and k + 1; off[n-1] stays 0
    b = a  # the trailing block still to reduce; rebuilt each step, never written
    for k in range(n - 1):
        diag[k] = b[0][0]
        x = b[0][1:]
        b = [row[1:] for row in b[1:]]
        off[k] = x[0]
        if any(x[1:]):
            # reflector I - v v^T / h with v = y + sign(y0)|y| e1 and v^T v = 2h,
            # for y = x / max|x_i|, so that neither |y| nor h under- or overflows
            scale = max(map(abs, x))
            v = [xi / scale for xi in x]
            norm = math.hypot(*v)
            h = norm * (norm + abs(v[0]))
            v[0] += math.copysign(norm, v[0])
            off[k] = -math.copysign(norm * scale, x[0])
            p = [sum(map(operator.mul, row, v)) / h for row in b]
            half = sum(map(operator.mul, p, v)) / (2.0 * h)
            w = [pi - half * vi for pi, vi in zip(p, v)]
            b = [
                [bij - vi * wj - wi * vj for bij, wj, vj in zip(row, w, v)]
                for row, vi, wi in zip(b, v, w)
            ]
    if n:
        diag[-1] = b[0][0]
    return diag, off


def _ql_implicit(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix (d, e), overwriting both.

    ``e[k]`` couples k and k + 1, and ``e[-1]`` is 0. For each l, implicit QL
    steps with a Wilkinson shift chase the off-diagonal entry e[l] down until
    it is negligible against the largest |d_i| + |e_i| of the matrix (the
    test of tql1; a test against the neighbouring diagonal entries alone can
    stall on subnormal ones).
    """
    n = len(d)
    norm = max((abs(x) + abs(y) for x, y in zip(d, e)), default=0.0)
    for l in range(n):
        for _ in range(_MAX_QL_ITER + 1):
            m = l
            while m < n - 1 and norm + abs(e[m]) != norm:
                m += 1
            if m == l:
                break
            # the shift is the eigenvalue of the leading 2x2 block nearer d[l]
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: split the block at i + 1 and start again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise RuntimeError(f"QL iteration did not converge in {_MAX_QL_ITER} steps")
    return d


def _check_invariants(a: list[list[float]], eigenvalues: list[float]) -> None:
    """Raise unless sum(lambda) = tr a and sum(lambda^2) = ||a||_F^2.

    The first is judged relative to sum |lambda|, the second relative to
    ||a||_F^2, both at 1e-12; the sums are exact (``math.fsum``).
    """
    trace = math.fsum(row[i] for i, row in enumerate(a))
    frobenius = math.fsum(x * x for row in a for x in row)
    trace_err = abs(math.fsum(eigenvalues) - trace)
    frobenius_err = abs(math.fsum(x * x for x in eigenvalues) - frobenius)
    # written as "not <=" so that a NaN fails
    if not trace_err <= INVARIANT_TOL * math.fsum(map(abs, eigenvalues)):
        raise RuntimeError(f"eigenvalue sum misses the trace by {trace_err:.3e}")
    if not frobenius_err <= INVARIANT_TOL * frobenius:
        raise RuntimeError(
            f"eigenvalue squares miss the squared Frobenius norm by {frobenius_err:.3e}"
        )


def jacobi_eigen(m: Matrix) -> EigenDecomposition:
    """Cyclic Jacobi rotations until every off-diagonal entry is below 1e-13."""
    n = len(m)
    a = _symmetric_copy(m)
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
