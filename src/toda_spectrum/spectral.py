"""Floating-point spectral machinery: symmetric eigenvalues, left Perron-Frobenius
vectors by shifted power iteration, and algebra exponents from adjacency
eigenvalues. Tolerances are fixed constants so repeated runs are bit-identical.

Every algebra request enters ``eigenvalues_from_bonds`` with the diagonal
and the bond list of its Dynkin matrix, and gets eigenvalues only. Reverse
Cuthill-McKee turns a Dynkin matrix, affine or not, into a band of width
b <= 3, Givens rotations reduce the band to tridiagonal form in O(n^2 b),
implicit QL takes O(n^2), and the rest is O(n + bonds). The dense
``symmetric_eigenvalues`` hands its diagonal and nonzero entries to the same
solver; dense input is b = n - 1, at O(n^3). Each solve is checked against
sum(lambda) = tr M and sum(lambda^2) = ||M||_F^2. No algebra request runs the
cyclic Jacobi solver ``jacobi_eigen`` (O(n^3) per sweep, with eigenvectors):
it is the tests' eigenvector reference, and the benchmark's tracer wraps it
by name. ``perron_vector`` takes finite, nonnegative, irreducible input,
irreducibility decided exactly from the nonzero pattern; its power-iteration
step visits only the nonzero entries of each column, O(n + nonzeros), and
non-convergence raises ``RuntimeError``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """A float copy of ``m``, symmetrised; raises unless square, finite and symmetric to 1e-12."""
    n = len(m)
    a = [[float(v) for v in row] for row in m]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
        if not all(map(math.isfinite, row)):
            raise ValueError("matrix entries must be finite")
    skew = max(
        (abs(a[i][j] - a[j][i]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    if not skew <= SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = 0.5 * (a[i][j] + a[j][i])
    return a


def symmetric_eigenvalues(m: Matrix) -> tuple[float, ...]:
    """Eigenvalues of a dense symmetric matrix in descending order, without eigenvectors.

    Raises ``ValueError`` unless ``m`` is square, finite and symmetric, then
    passes its diagonal and its nonzero entries above the diagonal to
    :func:`eigenvalues_from_bonds`, which raises ``RuntimeError`` as described
    there. The copy and the scan visit all n^2 entries, and the band that
    dense input leaves is b = n - 1, so the reduction costs O(n^3); no algebra
    request comes this way.
    """
    a = _symmetric_copy(m)
    n = len(a)
    bonds = [(i, j, row[j]) for i, row in enumerate(a) for j in range(i + 1, n) if row[j]]
    return eigenvalues_from_bonds([a[i][i] for i in range(n)], bonds)


def eigenvalues_from_bonds(
    diagonal: Sequence[float], bonds: Sequence[tuple[int, int, float]]
) -> tuple[float, ...]:
    """Eigenvalues, descending, of the symmetric matrix given by its diagonal and its bonds.

    Each bond ``(i, j, x)`` with i < j sets entries (i, j) and (j, i) to x and
    names its pair once; every other off-diagonal entry is zero. Reverse
    Cuthill-McKee renumbers the nodes, the band is reduced to tridiagonal
    form, and implicit QL with Wilkinson shifts (EISPACK tql1) diagonalises
    it. Outside the band reduction and QL, the work is O(n + bonds).

    Raises ``ValueError`` for a value that is not finite, or a bond that is
    not a pair i < j of the nodes or that repeats a pair; ``RuntimeError`` if
    QL needs more than 30 iterations for one eigenvalue or if the eigenvalues
    miss sum = trace or sum of squares = squared Frobenius norm by 1e-12
    relative.
    """
    n = len(diagonal)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, x in bonds:
        if not 0 <= i < j < n:
            raise ValueError(f"bond ({i}, {j}) is not a pair i < j of the {n} nodes")
        if not abs(x) < math.inf:
            raise ValueError(f"bond ({i}, {j}) has the non-finite value {x}")
        adj[i].append(j)
        adj[j].append(i)
    if len({(i, j) for i, j, _ in bonds}) != len(bonds):
        raise ValueError("a pair of nodes has more than one bond")
    for neighbours in adj:
        neighbours.sort()
    # scale by a power of two so that the largest entry lies in [1/2, 1): exact
    # for every entry above 2^-1022, and no entry that matters is subnormal
    top = max(map(abs, itertools.chain(diagonal, (x for _, _, x in bonds))), default=0.0)
    shift = math.frexp(top)[1]
    at = [0] * n
    for k, node in enumerate(_reverse_cuthill_mckee(adj)):
        at[node] = k
    # the renumbered matrix, lower triangle only: row k holds columns 0..k
    a = [[0.0] * (k + 1) for k in range(n)]
    diag = [math.ldexp(x, -shift) for x in diagonal]
    for node, x in enumerate(diag):
        if not abs(x) < math.inf:  # scaling keeps a value finite or not
            raise ValueError(f"diagonal entry {node} is not finite")
        a[at[node]][at[node]] = x
    off, b = [], 0
    for i, j, x in bonds:
        p, q = sorted((at[i], at[j]))
        a[q][p] = x = math.ldexp(x, -shift)
        off.append(x)
        if x:  # an entry can underflow in the scaling
            b = max(b, q - p)
    eigenvalues = _ql_implicit(*_band_to_tridiagonal(a, b))
    _check_invariants(diag, off, eigenvalues)
    return tuple(sorted((math.ldexp(x, shift) for x in eigenvalues), reverse=True))


def _reverse_cuthill_mckee(adj: list[list[int]]) -> list[int]:
    """An order of the nodes of a graph that keeps its bonds near the diagonal.

    ``adj[v]`` lists the neighbours of node v in ascending order, which fixes
    the tie-breaks. Each component is numbered breadth first, unseen
    neighbours by ascending degree, from a pseudo-peripheral node: while that
    adds levels, restart from a least-degree node of the last level. The
    order is then reversed (Cuthill & McKee 1969; George & Liu 1981).
    """
    degree = [len(x) for x in adj].__getitem__
    order: list[int] = []
    numbered: set[int] = set()
    for start in sorted(range(len(adj)), key=degree):
        if start not in numbered:
            levels = _levels(adj, start, degree)
            while len(wider := _levels(adj, min(levels[-1], key=degree), degree)) > len(levels):
                levels = wider
            component = [v for level in levels for v in level]
            order += component
            numbered.update(component)
    return order[::-1]


def _levels(adj: list[list[int]], root: int, key: Callable | None = None) -> list[list[int]]:
    """Breadth-first levels from ``root``, each node once; ``adj[v]`` taken in ``key`` order."""
    levels, seen = [[root]], {root}
    while nxt := [w for v in levels[-1] for w in sorted(adj[v], key=key) if w not in seen]:
        levels.append(list(dict.fromkeys(nxt)))  # the first parent places a shared child
        seen.update(nxt)
    return levels


def _band_to_tridiagonal(a: list[list[float]], b: int) -> tuple[list[float], list[float]]:
    """Diagonal and off-diagonal of a tridiagonal matrix orthogonally similar to ``a``.

    ``a`` holds the lower triangle, row i with columns 0..i, and b is the
    largest distance of a nonzero from the diagonal. Each column is cleared
    from the bottom of the band up by rotations in planes (i - 1, i). A
    rotation leaves one entry b + 1 below the diagonal, which rotations b
    rows apart chase off the end (Schwarz 1968; LAPACK sbtrd): O(n^2 b) in
    all, and dense input is b = n - 1. Overwrites ``a``.
    """
    n = len(a)
    for k in range(n - 2):
        for i in range(min(k + b, n - 1), k + 1, -1):
            p, q, col = i - 1, i, k  # rotate planes p, q to clear a[q][col]
            while q < n and a[q][col]:
                # x/max, y/max: neither hypot nor the ratios under- or overflow
                x, y = a[p][col], a[q][col]
                scale = max(abs(x), abs(y))
                r = math.hypot(x / scale, y / scale)
                c, s = x / scale / r, y / scale / r
                # rows p, q left of the 2 x 2 block (zero left of col), then
                # columns p, q below it, down to the row of the new bulge
                rp, rq = a[p], a[q]
                x, y = rp[col:p], rq[col:p]
                rp[col:p] = [c * u + s * v for u, v in zip(x, y)]
                rq[col:p] = [c * v - s * u for u, v in zip(x, y)]
                for row in a[q + 1 : q + b + 1]:
                    row[p], row[q] = c * row[p] + s * row[q], c * row[q] - s * row[p]
                x, y, z = rp[p], rq[p], rq[q]
                rp[p] = c * c * x + 2.0 * c * s * y + s * s * z
                rq[q] = s * s * x - 2.0 * c * s * y + c * c * z
                rq[p], rq[col] = c * s * (z - x) + (c * c - s * s) * y, 0.0
                p, q, col = p + b, q + b, p
    return [a[i][i] for i in range(n)], [a[i + 1][i] for i in range(n - 1)] + [0.0] * (n > 0)


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


def _check_invariants(
    diagonal: list[float], off_diagonal: list[float], eigenvalues: list[float]
) -> None:
    """Raise unless sum(lambda) = tr a and sum(lambda^2) = ||a||_F^2.

    The symmetric matrix a has this diagonal, and each of ``off_diagonal``
    twice off it. The first is judged relative to sum |lambda|, the second
    relative to ||a||_F^2, both at 1e-12; the sums are exact (``math.fsum``).
    """
    trace = math.fsum(diagonal)
    squares = [x * x for x in off_diagonal]
    frobenius = math.fsum(itertools.chain((x * x for x in diagonal), squares, squares))
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

    ``a`` must be square with finite nonnegative entries, and irreducible,
    which is decided exactly from its nonzero pattern before any step: every
    node must be reached from node 0 along the rows and along the columns
    (strong connectivity; Berman & Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*), so any 1 x 1 matrix passes. Otherwise
    ``ValueError``. Power iteration runs on (a + 2I) acting on row vectors,
    starting from all ones; the +2 shift keeps bipartite sign structure (top
    eigenvalue pairs +/-) from stalling the iteration; ``RuntimeError`` if it
    has not converged after ``_MAX_POWER_ITER`` steps. The reported
    eigenvalue refers to ``a`` itself.

    Each step costs O(n + nonzeros): the nonzero entries of each column are
    listed once and summed in row order, which gives the same iterates, bit
    for bit, as summing over every row, because adding a zero product is exact.
    """
    n = len(a)
    rows: list[list[int]] = [[] for _ in range(n)]
    cols: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, x in enumerate(map(float, row)):
            if not 0.0 <= x < math.inf:  # written so that a NaN fails
                raise ValueError("matrix entries must be finite and nonnegative")
            if x:
                rows[i].append(j)
                cols[j].append((i, x))
    reverse = [[i for i, _ in col] for col in cols]
    if not n or any(sum(map(len, _levels(adj, 0))) < n for adj in (rows, reverse)):
        raise ValueError("matrix is not irreducible: its nonzero pattern is not strongly connected")

    def step(vec: list[float]) -> tuple[list[float], float]:
        w = [sum([vec[i] * x for i, x in col]) + 2.0 * vec[j] for j, col in enumerate(cols)]
        top = max(w)
        nxt = [x / top for x in w]
        return nxt, max(map(abs, map(operator.sub, nxt, vec)))

    u = [1.0] * n
    for _ in range(_MAX_POWER_ITER):
        u, delta = step(u)
        if delta < POWER_DELTA_TOL:
            break
    else:
        raise RuntimeError(f"power iteration did not converge in {_MAX_POWER_ITER} steps")

    # polish: once converged to the contractual delta, keep stepping while the
    # delta still shrinks, pushing the iterate to the rounding floor
    for _ in range(200):
        nxt, nxt_delta = step(u)
        if nxt_delta >= delta:
            break
        u, delta = nxt, nxt_delta

    k = max(range(n), key=lambda i: u[i])
    eigenvalue = sum(u[i] * x for i, x in cols[k]) / u[k]

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
