"""Dense references: ``CartanMatrix`` validation, the ``RootSystem`` derivations, dense
views and the Faddeev-LeVerrier characteristic polynomial.

``CartanMatrix`` checks its entries on the bond list, and a ``RootSystem``,
which is its Cartan matrix, derives its Gram form from the bonds. The
functions here do the same work the plain way: validation runs the same
checks in the same order, each over all n^2 entries in row-major order, and
the Gram form is one ``Fraction`` product per entry. The tests hold the
library to them: the same exception and message for every input, and equal
values, of the same types, for every accepted one.

The library computes every spectrum from a diagonal and a bond list. Two
helpers give the tests the dense n x n view of that input: ``dense`` fills
the symmetric matrix of a diagonal and a bond list, as
``dense(*masses._affine_bonds(rs))`` or ``dense(*masses._adjacency_bonds(rs))``,
and ``dense_eigenvalues`` takes any square, finite, symmetric matrix to the
library's solver, every nonzero entry above the diagonal as a bond.

``from_rows`` builds a ``RationalMatrix`` from rows of ``int`` and
``Fraction`` entries, over the lcm of their denominators.

``faddeev_char_poly`` is the characteristic polynomial by the
Faddeev-LeVerrier recurrence, n - 1 matrix products, which the library used
before it took the power sums from half the powers; the tests hold
``char_poly_exact`` to it.

``column_perron`` is the power iteration of ``perron_vector`` with one
Python loop per column, as the library ran it before its step became a few
sweeps over whole lists; the tests hold ``perron_vector`` to it bit for bit.
Its ``shift`` is the multiple of I added to the matrix: 1.0, the primitive
shift ``perron_vector`` iterates on, by default, and 2.0 for the iteration
the library ran before, which the tests hold the new one to within 1e-10.
Its column sums go through ``row_order_sum``, which adds left to right as
``sum`` did before Python 3.12 (from 3.12 ``sum`` compensates, and its
result can differ in the last bit).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from toda_spectrum.exact_poly import RationalMatrix, RationalPolynomial
from toda_spectrum.root_systems import InvalidAlgebraError, _raise_to_dominant
from toda_spectrum.spectral import (
    _MAX_POWER_ITER,
    POWER_DELTA_TOL,
    PerronVector,
    _float,
    _levels,
    _symmetric_copy,
    eigenvalues_from_bonds,
)


def dense_cartan_entries(family: str, l: int):
    """Cartan entries of a named algebra, every entry of an n x n list set first."""
    c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if family == "G":
        bond(0, 1, -1, -3)
    else:
        for i in range(l - 1 if family in "ABCF" else l - 2):
            bond(i, i + 1)
        if family == "B":
            bond(l - 2, l - 1, -2, -1)
        elif family == "C":
            bond(l - 2, l - 1, -1, -2)
        elif family == "F":
            bond(1, 2, -2, -1)
        elif family == "D":
            bond(l - 3, l - 1)
        elif family == "E":
            bond(l - 4, l - 1)
    return tuple(tuple(row) for row in c)


def dense_bonds(entries):
    """Per row, the nonzero entries ``(j, C_ij)``, found by visiting every entry."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in entries)


def dense_tree_order(entries):
    """(node, parent) pairs breadth first from node 0; raises unless a connected tree."""
    n = len(entries)
    bonds = dense_bonds(entries)
    edges = (sum(map(len, bonds)) - n) // 2  # the diagonal is in every row
    order = [(0, -1)] if n else []
    reached = {0}
    for node, _ in order:
        for j, _ in bonds[node]:
            if j not in reached:
                reached.add(j)
                order.append((j, node))
    if edges != n - 1 or len(order) != n:
        raise InvalidAlgebraError(
            f"Dynkin diagram with {n} nodes and {edges} bonds is not a connected tree; "
            "matrix is not of finite type"
        )
    return tuple(order)


def dense_validate(entries) -> None:
    """Raise what ``CartanMatrix(entries)`` must raise, each check scanning every entry."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InvalidAlgebraError("Cartan matrix must be square")
    for i in range(n):
        if entries[i][i] != 2:
            raise InvalidAlgebraError("Cartan diagonal entries must equal 2")
    for i in range(n):
        for j in range(n):
            v = entries[i][j]
            if v != 0 and not isinstance(v, int):
                raise InvalidAlgebraError(f"Cartan entry {v!r} at ({i},{j}) is not an integer")
            if i != j and v not in (0, -1, -2, -3):
                raise InvalidAlgebraError(
                    f"off-diagonal Cartan entry {v} at ({i},{j}) not in {{0,-1,-2,-3}}"
                )
    for i in range(n):
        for j in range(n):
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise InvalidAlgebraError("Cartan zero pattern must be symmetric")
    num, den = [2] * n, [1] * n
    for i, p in reversed(dense_tree_order(entries)):
        if num[i] <= 0:
            shown = f"{num[i]}/{den[i]}" if den[i] != 1 else num[i]
            raise InvalidAlgebraError(
                f"pivot {shown} at node {i} is not positive; matrix is not of finite type"
            )
        if p >= 0:
            top = num[p] * num[i] - entries[p][i] * entries[i][p] * den[p] * den[i]
            bottom = den[p] * num[i]
            g = math.gcd(top, bottom)
            num[p], den[p] = top // g, bottom // g


def dense_root_system(entries) -> dict:
    """What ``RootSystem(CartanMatrix(entries))`` derives from its one field, dense.

    The symmetrizers, the Gram form with one ``Fraction`` per entry, the marks
    and h, beside the matrix's own entries, bonds and tree order.
    """
    dense_validate(entries)
    n = len(entries)
    order = dense_tree_order(entries)
    d = [Fraction(1)] * n
    for i, p in order[1:]:
        cip, cpi = entries[i][p], entries[p][i]
        d[i] = d[p] if cip == cpi else d[p] * Fraction(cip, cpi)
    top = max(d)
    d = tuple(d) if top == 1 else tuple(x / top for x in d)
    bonds = dense_bonds(entries)
    gram = tuple(tuple(entries[i][j] * d[j] for j in range(n)) for i in range(n))
    marks = _raise_to_dominant(bonds, d.index(1))
    return {
        "entries": entries,
        "bonds": bonds,
        "tree_order": order,
        "symmetrizers": d,
        "gram": gram,
        "marks": marks,
        "coxeter_number": 1 + sum(marks),
    }


def dense(diagonal, bonds):
    """The symmetric matrix with this diagonal and these bonds, every other entry 0.0."""
    n = len(diagonal)
    m = [[0.0] * n for _ in range(n)]
    for i, x in enumerate(diagonal):
        m[i][i] = x
    for i, j, x in bonds:
        m[i][j] = m[j][i] = x
    return m


def dense_eigenvalues(m):
    """Eigenvalues, descending, of a dense symmetric matrix, by the library's bond-list solver.

    ``_symmetric_copy`` raises ``ValueError`` unless ``m`` is square, finite
    and symmetric; its diagonal and its nonzero entries above the diagonal
    then go to ``eigenvalues_from_bonds``. Dense input is a band of width
    n - 1, so the reduction costs O(n^3).
    """
    a = _symmetric_copy(m)
    n = len(a)
    bonds = [(i, j, row[j]) for i, row in enumerate(a) for j in range(i + 1, n) if row[j]]
    return eigenvalues_from_bonds([a[i][i] for i in range(n)], bonds)


def from_rows(rows) -> RationalMatrix:
    """The matrix of these ``int`` or ``Fraction`` entries; ``TypeError`` on any other."""
    rows = [tuple(row) for row in rows]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"matrix entry ({i}, {j}) = {v!r} is not an int or a Fraction")
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return RationalMatrix(
        tuple(tuple([v.numerator * (scale // v.denominator) for v in row]) for row in rows),
        scale,
    )


def faddeev_char_poly(entries) -> RationalPolynomial:
    """det(xI - m) of a square matrix of ints and ``Fraction``s, by Faddeev-LeVerrier.

    On the integer matrix a = L*m, L the lcm of the denominators: with
    M_1 = a and c_k = -trace(M_k)/k, M_(k+1) = a (M_k + c_k I); the c_k are
    the descending coefficients of det(xI - a) after the leading 1, integers,
    and those of m are c_k / L^k.
    """
    n = len(entries)
    scale = math.lcm(*(Fraction(v).denominator for row in entries for v in row))
    a = [[int(v * scale) for v in row] for row in entries]
    coeffs_desc = [Fraction(1)]
    mk = a
    for k in range(1, n + 1):
        ck, remainder = divmod(-sum(mk[i][i] for i in range(n)), k)
        if remainder:
            raise ArithmeticError(f"trace of M_{k} is not divisible by {k}")
        coeffs_desc.append(Fraction(ck, scale**k))
        if k < n:
            shifted = [
                [v + ck if i == j else v for j, v in enumerate(row)] for i, row in enumerate(mk)
            ]
            columns = list(zip(*shifted))
            mk = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]
    return RationalPolynomial(tuple(reversed(coeffs_desc)))


def row_order_sum(terms) -> float:
    """((0 + t1) + t2) + ...: the terms added left to right, from the integer 0."""
    return functools.reduce(operator.add, terms, 0)


def column_perron(a, shift: float = 1.0) -> PerronVector:
    """``perron_vector`` with one loop per column over that column's nonzero entries.

    The same checks, the same errors and the same iteration, on shift * I + a:
    each column sum is its nonzero products in row order, then + shift * v_j.
    At the default shift 1.0, the one ``perron_vector`` runs, that is + v_j
    exactly; ``shift=2.0`` gives the iteration it ran on 2I + a before.
    """
    n = len(a)
    rows = [[] for _ in range(n)]
    cols = [[] for _ in range(n)]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, x in enumerate(map(_float, row)):
            if not 0.0 <= x < math.inf:
                raise ValueError("matrix entries must be finite and nonnegative")
            if x:
                rows[i].append(j)
                cols[j].append((i, x))
    reverse = [[i for i, _ in col] for col in cols]
    if not n or any(sum(map(len, _levels(adj, 0))) < n for adj in (rows, reverse)):
        raise ValueError("matrix is not irreducible: its nonzero pattern is not strongly connected")

    def step(vec):
        w = [row_order_sum(vec[i] * x for i, x in col) + shift * vec[j] for j, col in enumerate(cols)]
        top = max(w)
        if not top < math.inf:
            raise OverflowError("power iteration overflowed: a step's largest component is inf")
        nxt = [x / top for x in w]
        return nxt, max(map(abs, map(operator.sub, nxt, vec)))

    u = [1.0] * n
    for _ in range(_MAX_POWER_ITER):
        u, delta = step(u)
        if delta < POWER_DELTA_TOL:
            break
    else:
        raise RuntimeError(f"power iteration did not converge in {_MAX_POWER_ITER} steps")
    for _ in range(200):
        nxt, nxt_delta = step(u)
        if nxt_delta >= delta:
            break
        u, delta = nxt, nxt_delta
    k = max(range(n), key=lambda i: u[i])
    return PerronVector(tuple(u), row_order_sum(u[i] * x for i, x in cols[k]) / u[k])
