"""Root systems of the simple Lie algebras.

Everything combinatorial here is exact: roots live as integer coefficient
vectors over the simple roots, inner products as rationals. Floating point
enters only in :func:`embed_roots`, which realises roots as Euclidean vectors
through a Cholesky factorisation of the Gram matrix.

Node numbering follows one fixed convention per family: chains are numbered
left to right, and a branch node, where present, is attached last (node
``rank`` hangs off node ``rank - 2`` in the D family and off node ``rank - 3``
in the E family). The double bonds of B, C and the triple bond of G sit at the
right end of the chain; F carries its double bond between nodes 2 and 3.
Long roots are normalised to squared length 2.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction


class InvalidAlgebraError(ValueError):
    """Raised for unknown families, out-of-range ranks, or non-finite-type input."""


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

_NAME_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


@dataclass(frozen=True, order=True)
class AlgebraId:
    """A simple Lie algebra: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGES:
            raise InvalidAlgebraError(
                f"unknown family {self.family!r}; valid families and ranks: {RANK_RULES_TEXT}"
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
        return cls(m.group(1).upper(), int(m.group(2)))

    @classmethod
    def of(cls, algebra: "AlgebraId | str") -> "AlgebraId":
        """``algebra`` itself, or the id parsed from a name like ``"E8"``."""
        return cls.parse(algebra) if isinstance(algebra, str) else algebra

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix of finite type.

    Entry ``(i, j)`` is twice the inner product of simple roots i and j divided
    by the squared length of root j.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise InvalidAlgebraError("Cartan matrix must be square")
            if row[i] != 2:
                raise InvalidAlgebraError("Cartan diagonal entries must equal 2")
            for j, v in enumerate(row):
                if i != j and v not in (0, -1, -2, -3):
                    raise InvalidAlgebraError(
                        f"off-diagonal Cartan entry {v} at ({i},{j}) not in {{0,-1,-2,-3}}"
                    )
                if (v == 0) != (self.entries[j][i] == 0):
                    raise InvalidAlgebraError("Cartan zero pattern must be symmetric")
        det = _det_exact([[Fraction(v) for v in row] for row in self.entries])
        if det <= 0:
            raise InvalidAlgebraError(
                f"Cartan determinant {det} is not positive; matrix is not of finite type"
            )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]


def cartan_matrix(algebra: AlgebraId) -> CartanMatrix:
    """Cartan matrix in the fixed node numbering documented in the module docstring."""
    l = algebra.rank
    c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

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
    """The matrix 2I - C: zero diagonal, nonnegative off-diagonal."""
    n = cartan.rank
    return tuple(
        tuple((2 if i == j else 0) - cartan.entries[i][j] for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class RootSystem:
    """A full positive root system with highest root, marks and Coxeter number.

    ``positive_roots`` are integer coefficient vectors over the simple roots,
    sorted by (height, vector). ``symmetrizers[i]`` is half the squared length
    of simple root i; ``gram[i][j]`` is the inner product of simple roots i, j.
    """

    algebra: AlgebraId | None
    cartan: CartanMatrix
    positive_roots: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[Fraction, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    highest_root: tuple[int, ...]
    marks: tuple[int, ...]
    coxeter_number: int

    @property
    def rank(self) -> int:
        return self.cartan.rank


def _symmetrizers(cartan: CartanMatrix) -> tuple[Fraction, ...]:
    """Per-node rational weights making C_ij * d_j symmetric, scaled so max(d) = 1."""
    n = cartan.rank
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan.entries[i][j] != 0 and d[j] is None:
                # symmetry of the Gram form: C_ij d_j = C_ji d_i
                d[j] = d[i] * Fraction(cartan.entries[j][i], cartan.entries[i][j])
                stack.append(j)
    if any(x is None for x in d):
        raise InvalidAlgebraError("Dynkin diagram is not connected")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[union-attr]


def generate_roots(cartan: CartanMatrix, algebra: AlgebraId | None = None) -> RootSystem:
    """Build the positive roots by breadth-first closure under simple reflections.

    Terminates for finite-type input; a matrix sneaking past the determinant
    check but generating more roots than any finite type allows is rejected.
    """
    n = cartan.rank
    cap = 4 * n * n + 40  # safely above every finite-type positive-root count
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[tuple[int, ...]] = []
        for coeffs in frontier:
            for i in range(n):
                # pairing of the root with coroot i, in coefficient space
                k = sum(coeffs[j] * cartan.entries[j][i] for j in range(n))
                if k == 0:
                    continue
                image = list(coeffs)
                image[i] -= k
                img = tuple(image)
                if img not in seen and all(x >= 0 for x in img) and any(img):
                    seen.add(img)
                    new.append(img)
        if len(seen) > cap:
            raise InvalidAlgebraError(
                "reflection closure exceeded the finite-type bound; invalid algebra"
            )
        frontier = new

    positive = tuple(sorted(seen, key=lambda c: (sum(c), c)))
    highest = positive[-1]
    if any(sum(c) == sum(highest) for c in positive[:-1]):
        raise InvalidAlgebraError("no unique highest root; invalid algebra")

    d = _symmetrizers(cartan)
    gram = tuple(
        tuple(Fraction(cartan.entries[i][j]) * d[j] for j in range(n)) for i in range(n)
    )
    return RootSystem(
        algebra=algebra,
        cartan=cartan,
        positive_roots=positive,
        symmetrizers=d,
        gram=gram,
        highest_root=highest,
        marks=highest,
        coxeter_number=1 + sum(highest),
    )


def root_system(algebra: AlgebraId | str) -> RootSystem:
    """Root system for an algebra given as an :class:`AlgebraId` or a name like ``"E8"``.

    Cached per algebra: every spelling of one algebra returns the same object.
    """
    return _root_system(AlgebraId.of(algebra))


@functools.lru_cache(maxsize=None)
def _root_system(aid: AlgebraId) -> RootSystem:
    return generate_roots(cartan_matrix(aid), aid)


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


def embed_coefficients(rs: RootSystem, coeffs: tuple[int, ...]) -> list[float]:
    """Euclidean coordinates of a root given by simple-root coefficients."""
    lower = _cholesky(rs.gram)
    n = rs.rank
    return [sum(coeffs[i] * lower[i][k] for i in range(n)) for k in range(n)]


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
