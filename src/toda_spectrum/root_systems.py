"""Root systems of the simple Lie algebras.

Everything combinatorial here is exact: roots live as integer coefficient
vectors over the simple roots, inner products as rationals. Floating point
enters only in :func:`embed_roots`, which realises roots as Euclidean vectors
through a Cholesky factorisation of the Gram matrix.

A :class:`RootSystem` is its Cartan matrix: ``cartan`` is its one field,
and the symmetrizers, the Gram form, the marks (the coefficients of the
highest root) and the Coxeter number are derived from it on first read, so
no construction can disagree with its matrix. It carries no name. The marks
come from one raising walk from a long simple root, and no positive root set
is built for them; the full set is closed only when
:attr:`RootSystem.positive_roots` is first read. The spectra read no dense
Gram table: they take the Gram entries off the Cartan bonds and the
symmetrizers (:mod:`toda_spectrum.masses`).

A build reads each Cartan row once, at C speed, into the bond list of the
Dynkin diagram. Everything after that (the entry checks, the tree, the exact
pivots, the symmetrizers and the raising walk) is O(n + bonds) Python-level
work.

Node numbering follows one fixed convention per family: chains are numbered
left to right, and a branch node, where present, is attached last (node
``rank`` hangs off node ``rank - 2`` in the D family and off node ``rank - 3``
in the E family). The double bonds of B, C and the triple bond of G sit at the
right end of the chain; F carries its double bond between nodes 2 and 3.
Long roots are normalised to squared length 2.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction

from .record import Record


class InvalidAlgebraError(ValueError):
    """Raised for unknown families, out-of-range ranks, or a rejected Cartan matrix.

    A Cartan matrix is rejected when it is malformed (ragged, or with a
    non-integer or out-of-range entry) or not of finite type.
    """


_RANK_RANGES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

RANK_RULES_TEXT = "A>=1, B>=2, C>=2, D>=3, E in {6,7,8}, F=4, G=2"

_NAME_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$", re.ASCII)


class AlgebraId(Record, order=True):
    """A simple Lie algebra: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGES:
            raise InvalidAlgebraError(
                f"unknown family {self.family!r}; valid families and ranks: {RANK_RULES_TEXT}"
            )
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise InvalidAlgebraError(
                f"rank {self.rank!r} is not an integer; valid families and ranks: {RANK_RULES_TEXT}"
            )
        lo, hi = _RANK_RANGES[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidAlgebraError(
                f"rank {self.rank} invalid for family {self.family}; "
                f"valid families and ranks: {RANK_RULES_TEXT}"
            )

    @classmethod
    def parse(cls, text: str) -> "AlgebraId":
        """Parse names like ``"E8"`` or ``"a5"`` (case-insensitive)."""
        m = _NAME_RE.match(text.strip())
        if not m:
            raise InvalidAlgebraError(
                f"cannot parse algebra name {text!r}; expected <letter><rank> "
                f"with {RANK_RULES_TEXT}"
            )
        digits = m.group(2)
        try:
            rank = int(digits)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise InvalidAlgebraError(
                f"rank with {len(digits)} digits is too large; "
                f"valid families and ranks: {RANK_RULES_TEXT}"
            ) from None
        return cls(m.group(1).upper(), rank)

    @classmethod
    def of(cls, algebra: "AlgebraId | str") -> "AlgebraId":
        """``algebra`` itself, or the id parsed from a name like ``"E8"``."""
        return cls.parse(algebra) if isinstance(algebra, str) else algebra

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class CartanMatrix(Record):
    """Integer Cartan matrix of finite type.

    Entry ``(i, j)`` is twice the inner product of simple roots i and j divided
    by the squared length of root j.

    Construction checks finite type exactly (Kac, *Infinite-dimensional Lie
    algebras*, ch. 4): the Dynkin diagram must be a connected tree, and the
    exact pivots of a leaf-first elimination must all be positive. Scaling
    the columns by the positive symmetrizers keeps every pivot's sign, so
    this is positive definiteness of the symmetrized matrix. The elimination
    fills nothing on a tree and costs O(n); its pivots are integer pairs
    (numerator, positive denominator) in lowest terms, the values a
    ``Fraction`` elimination would reach.

    The checks run in this order, and the first that fails raises
    :class:`InvalidAlgebraError`: every row has n entries; every diagonal
    entry equals 2; each nonzero entry, row by row, is an ``int``, and off
    the diagonal one of -1, -2, -3; the transpose of every nonzero entry is
    nonzero; the Dynkin diagram is a connected tree (:attr:`tree_order`); the
    pivots are positive. Each row is read once, at C speed, into
    :attr:`bonds`, and every check after the diagonal costs O(n + bonds)
    Python-level work.

    Only nonzero entries are type-checked, so :attr:`entries` keeps its zeros
    as given (a ``0.0`` zero stays), and nothing derived reads one: the bonds
    drop them, and all else is built from the bonds over zeros of its own.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.entries
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InvalidAlgebraError("Cartan matrix must be square")
        if any(row[i] != 2 for i, row in enumerate(rows)):
            raise InvalidAlgebraError("Cartan diagonal entries must equal 2")
        for i, row in enumerate(self.bonds):
            for j, v in row:
                if not isinstance(v, int):
                    raise InvalidAlgebraError(
                        f"Cartan entry {v!r} at ({i},{j}) is not an integer"
                    )
                if i != j and v not in (-1, -2, -3):
                    raise InvalidAlgebraError(
                        f"off-diagonal Cartan entry {v} at ({i},{j}) not in {{0,-1,-2,-3}}"
                    )
        if not all(rows[j][i] for i, row in enumerate(self.bonds) for j, _ in row):
            raise InvalidAlgebraError("Cartan zero pattern must be symmetric")
        # leaf-first elimination: on a tree it fills nothing, and each pivot
        # num[i] / den[i] is final once the node's children are eliminated
        num, den = [2] * n, [1] * n
        for i, p in reversed(self.tree_order):
            if num[i] <= 0:
                shown = f"{num[i]}/{den[i]}" if den[i] != 1 else num[i]
                raise InvalidAlgebraError(
                    f"pivot {shown} at node {i} is not positive; matrix is not of finite type"
                )
            if p >= 0:
                # pivot[p] -= C_pi C_ip / pivot[i], over the denominator den[p] num[i]
                top = num[p] * num[i] - rows[p][i] * rows[i][p] * den[p] * den[i]
                bottom = den[p] * num[i]
                g = math.gcd(top, bottom)
                num[p], den[p] = top // g, bottom // g

    @property
    def rank(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def bonds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node i, the nonzero entries ``(j, C_ij)`` of row i, the diagonal included.

        Each row is filtered by ``itertools.compress``, so the n^2 zeros are
        skipped in C and Python sees only the bonds.
        """
        return tuple(tuple(itertools.compress(enumerate(row), row)) for row in self.entries)

    @functools.cached_property
    def tree_order(self) -> tuple[tuple[int, int], ...]:
        """(node, parent) pairs in breadth-first order from node 0, whose parent is -1.

        Read off :attr:`bonds`. Raises unless the bonds join the n nodes into
        one connected tree: n - 1 bonds, every node reached from node 0.
        """
        n = self.rank
        edges = (sum(map(len, self.bonds)) - n) // 2  # the diagonal is in every row
        order = [(0, -1)] if n else []
        reached = {0}
        for node, _ in order:
            for j, _ in self.bonds[node]:
                if j not in reached:
                    reached.add(j)
                    order.append((j, node))
        if edges != n - 1 or len(order) != n:
            raise InvalidAlgebraError(
                f"Dynkin diagram with {n} nodes and {edges} bonds is not a connected tree; "
                "matrix is not of finite type"
            )
        return tuple(order)


def cartan_matrix(algebra: AlgebraId) -> CartanMatrix:
    """Cartan matrix in the fixed node numbering documented in the module docstring."""
    l = algebra.rank
    c = [[0] * l for _ in range(l)]
    for i, row in enumerate(c):
        row[i] = 2

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    fam = algebra.family
    if fam == "G":
        bond(0, 1, -1, -3)  # node 1 short, node 2 long
    else:
        chain_end = l - 1 if fam in ("A", "B", "C", "F", "G") else l - 2
        for i in range(chain_end):
            bond(i, i + 1)
        if fam == "B":
            bond(l - 2, l - 1, -2, -1)  # last node short
        elif fam == "C":
            bond(l - 2, l - 1, -1, -2)  # last node long, the rest short
        elif fam == "F":
            bond(1, 2, -2, -1)  # nodes 3,4 short
        elif fam == "D":
            bond(l - 3, l - 1)
        elif fam == "E":
            bond(l - 4, l - 1)
    return CartanMatrix(tuple(tuple(row) for row in c))


def dynkin_adjacency(cartan: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """The matrix 2I - C: zero diagonal, nonnegative off-diagonal, every entry an ``int``.

    Set at :attr:`CartanMatrix.bonds` over C-speed ``int`` zero rows, never reading a zero.
    """
    rows = [[0] * cartan.rank for _ in cartan.bonds]
    for i, row in enumerate(cartan.bonds):
        for j, v in row:
            rows[i][j] = -v if j != i else 0
    return tuple(map(tuple, rows))


class RootSystem(Record):
    """The root system of a Cartan matrix, which is its one field.

    Everything else is a function of ``cartan``, computed on first read and
    kept on the instance, so ``==``, ``hash``, ``repr`` and ``asdict`` see
    the matrix alone. ``symmetrizers[i]`` is half the squared length of
    simple root i; ``gram[i][j]`` is the inner product of simple roots i, j.
    ``marks`` are the coefficients of the highest root over the simple roots,
    so they are the highest root itself, and the Coxeter number is one plus
    their sum.
    """

    cartan: CartanMatrix

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @functools.cached_property
    def symmetrizers(self) -> tuple[Fraction, ...]:
        """Per-node rational weights d making C_ij * d_j symmetric, scaled so max(d) = 1."""
        cartan = self.cartan
        d = [Fraction(1)] * cartan.rank
        for i, p in cartan.tree_order[1:]:
            # symmetry of the Gram form: C_pi d_i = C_ip d_p
            cip, cpi = cartan.entries[i][p], cartan.entries[p][i]
            d[i] = d[p] if cip == cpi else d[p] * Fraction(cip, cpi)
        top = max(d)
        return tuple(d) if top == 1 else tuple(x / top for x in d)

    @functools.cached_property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense Gram matrix C_ij * d_j, set at the Cartan bonds over ``Fraction`` zeros."""
        d = self.symmetrizers
        rows = [[Fraction(0)] * self.rank for _ in d]
        for g, bonds in zip(rows, self.cartan.bonds):
            for j, c in bonds:
                g[j] = c * d[j]
        return tuple(map(tuple, rows))

    @functools.cached_property
    def marks(self) -> tuple[int, ...]:
        """The highest root, by one raising walk from a long simple root (at most h - 2 steps)."""
        return _raise_to_dominant(self.cartan.bonds, self.symmetrizers.index(1))

    @property
    def coxeter_number(self) -> int:
        return 1 + sum(self.marks)

    @functools.cached_property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """Positive roots as integer coefficient vectors, sorted by (height, vector).

        Built on first read by breadth-first closure under simple reflections,
        then kept on the instance. Each reflection costs O(n + nonzeros): the
        pairing with a coroot sums only the nonzero entries of its Cartan
        column, the diagonal and at most three bonds, and only a reflection
        that raises the height copies its O(n) image. Terminates because every
        :class:`CartanMatrix` is of finite type, so its root system is finite.
        """
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        # the zero pattern is symmetric, so column i is nonzero at the bonds of row i
        entries = self.cartan.entries
        cols = [[(j, entries[j][i]) for j, _ in row] for i, row in enumerate(self.cartan.bonds)]
        seen: set[tuple[int, ...]] = set(simple)
        frontier = list(simple)
        while frontier:
            new: list[tuple[int, ...]] = []
            for coeffs in frontier:
                for i, col in enumerate(cols):
                    # pairing of the root with coroot i, in coefficient space
                    k = sum([coeffs[j] * a for j, a in col])
                    # follow only reflections that raise the height (k < 0): a
                    # positive root b that is not simple has k = <b, i> > 0 for
                    # some i, so it is the raised image of the lower root s_i(b)
                    if k >= 0:
                        continue
                    image = list(coeffs)
                    image[i] -= k
                    img = tuple(image)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        return tuple(sorted(seen, key=lambda c: (sum(c), c)))


def _raise_to_dominant(
    bonds: tuple[tuple[tuple[int, int], ...], ...], start: int
) -> tuple[int, ...]:
    """Raise simple root ``start`` by simple reflections until no pairing is negative.

    ``pairing[i]`` is the pairing of the current root with coroot i. While one
    is negative, reflecting in that simple root raises the height and keeps the
    root positive; only the pairings of the node and its neighbours change, so
    a step costs O(1 + bonds at the node). The walk stays in the Weyl orbit of
    the start, and a finite orbit holds exactly one dominant root, where it
    ends: the highest root from a long start, the highest short root from a
    short one (Bourbaki, *Lie groups* ch. VI).
    """
    root = [0] * len(bonds)
    root[start] = 1
    pairing = [0] * len(bonds)
    for j, v in bonds[start]:
        pairing[j] = v
    # every node with a negative pairing is on the stack exactly once: only a
    # reflected node's own pairing rises, and it is popped before it is reflected
    negative = [i for i, k in enumerate(pairing) if k < 0]
    while negative:
        i = negative.pop()
        k = pairing[i]
        root[i] -= k
        for j, v in bonds[i]:
            was = pairing[j]
            pairing[j] -= k * v
            if pairing[j] < 0 <= was:
                negative.append(j)
    return tuple(root)


def generate_roots(cartan: CartanMatrix) -> RootSystem:
    """The root system of ``cartan``; its symmetrizers, Gram form and marks follow on first read."""
    return RootSystem(cartan)


def root_system(algebra: AlgebraId | str) -> RootSystem:
    """Root system for an algebra given as an :class:`AlgebraId` or a name like ``"E8"``.

    Cached per algebra: every spelling of one algebra returns the same object.
    """
    return _root_system(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _root_system(aid: AlgebraId) -> RootSystem:
    return generate_roots(cartan_matrix(aid))


def _cholesky(gram: tuple[tuple[Fraction, ...], ...]) -> list[list[float]]:
    n = len(gram)
    lower = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = float(gram[i][j]) - sum(lower[i][k] * lower[j][k] for k in range(j))
            if i == j:
                if s <= 0.0:
                    raise InvalidAlgebraError("Gram matrix is not positive definite")
                lower[i][i] = math.sqrt(s)
            else:
                lower[i][j] = s / lower[j][j]
    return lower


def embed_roots(rs: RootSystem) -> list[list[float]]:
    """Euclidean coordinates of the affine root family.

    Index 0 holds the lowest root (minus the highest root); index j >= 1 holds
    simple root j. Pairwise dot products reproduce the Gram form.
    """
    lower = _cholesky(rs.gram)
    n = rs.rank
    vectors = [[0.0] * n]
    for i in range(n):
        vectors.append([lower[i][k] for k in range(n)])
    for k in range(n):
        vectors[0][k] = -sum(rs.marks[i] * lower[i][k] for i in range(n))
    return vectors
