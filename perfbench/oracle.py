"""Independent answer checks for the benchmark.

Nothing here imports ``toda_spectrum``. The Lie-algebra data (Cartan matrix in
the package's documented node numbering, Gram matrix with long roots of squared
length 2, marks, Coxeter number, exponents) is rebuilt from the classical
tables, and the exact determinant and trace of the mass matrix come from the
closed forms

    det(K G) = h * prod(marks) * det(G),    trace(K G) = sum_ij K_ij G_ji,

with K = diag(marks) + marks marks^T. Each ``check_*`` function returns ``None``
for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

# also the tolerance for `spectrum --format table|csv`, whose 10 significant
# digits are within 5e-10 relative of the full value
REL_TOL = 1e-9

_EXCEPTIONAL_MARKS = {
    ("E", 6): (1, 2, 3, 2, 1, 2),
    ("E", 7): (1, 2, 3, 4, 3, 2, 2),
    ("E", 8): (2, 3, 4, 5, 6, 4, 2, 3),
    ("F", 4): (2, 3, 4, 2),
    ("G", 2): (3, 2),
}
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


@dataclass(frozen=True)
class Algebra:
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    marks: tuple[int, ...]
    coxeter: int
    exponents: tuple[int, ...]
    positive_roots: int
    mass_det: Fraction
    mass_trace: Fraction

    @property
    def simply_laced(self) -> bool:
        return self.family in "ADE"

    # The two determinants below cost O(n^3) Fraction operations and only the
    # char-poly checks need them, so they are computed on first use; the
    # high-rank spectrum checks then stay cheap.
    @functools.cached_property
    def mass_charpoly_at_1(self) -> Fraction:
        """det(I - KG): the mass char-poly evaluated at 1."""
        kg = _mass_times_gram(self.marks, self.gram)
        n = self.rank
        return _det([[(1 if i == j else 0) - kg[i][j] for j in range(n)] for i in range(n)])

    @functools.cached_property
    def adjacency_det(self) -> int:
        n = self.rank
        return int(_det([[Fraction((2 if i == j else 0) - self.cartan[i][j]) for j in range(n)]
                         for i in range(n)]))


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _cartan(family: str, n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j], c[j][i] = cij, cji

    if family == "G":
        bond(0, 1, -1, -3)
        return c
    chain = n - 1 if family in "ABCF" else n - 2
    for i in range(chain):
        bond(i, i + 1)
    if family == "B":
        bond(n - 2, n - 1, -2, -1)
    elif family == "C":
        bond(n - 2, n - 1, -1, -2)
    elif family == "F":
        bond(1, 2, -2, -1)
    elif family == "D":
        bond(n - 3, n - 1)
    elif family == "E":
        bond(n - 4, n - 1)
    return c


def _squared_lengths(family: str, n: int) -> list[Fraction]:
    two, one = Fraction(2), Fraction(1)
    if family == "B":
        return [two] * (n - 1) + [one]
    if family == "C":
        return [one] * (n - 1) + [two]
    if family == "F":
        return [two, two, one, one]
    if family == "G":
        return [Fraction(2, 3), two]
    return [two] * n


def _marks(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return (1,) * n
    if family == "B":
        return (1,) + (2,) * (n - 1)
    if family == "C":
        return (2,) * (n - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return _EXCEPTIONAL_MARKS[(family, n)]


def _exponents(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, n + 1))
    if family in "BC":
        return tuple(range(1, 2 * n, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    return _EXCEPTIONAL_EXPONENTS[(family, n)]


def parse_name(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", name)
    if not m:
        raise ValueError(f"not an algebra name: {name!r}")
    return m.group(1), int(m.group(2))


def _mass_times_gram(marks, gram) -> list[list[Fraction]]:
    """KG for K = m m^T + diag(m), in O(n^2): (KG)_ij = m_i (sum_t m_t G_tj + G_ij)."""
    n = len(marks)
    col = [sum(marks[t] * gram[t][j] for t in range(n)) for j in range(n)]
    return [[marks[i] * (col[j] + gram[i][j]) for j in range(n)] for i in range(n)]


@functools.lru_cache(maxsize=None)
def algebra(name: str) -> Algebra:
    family, n = parse_name(name)
    cartan = _cartan(family, n)
    lengths = _squared_lengths(family, n)
    gram = [[cartan[i][j] * lengths[j] / 2 for j in range(n)] for i in range(n)]
    marks = _marks(family, n)
    h = 1 + sum(marks)
    kg = _mass_times_gram(marks, gram)
    return Algebra(
        family=family,
        rank=n,
        cartan=tuple(map(tuple, cartan)),
        gram=tuple(map(tuple, gram)),
        marks=marks,
        coxeter=h,
        exponents=_exponents(family, n),
        positive_roots=n * h // 2,
        mass_det=h * math.prod(marks) * _det(gram),
        mass_trace=sum(kg[i][i] for i in range(n)),
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_squares(alg: Algebra, squares: list[float], label: str) -> str | None:
    if len(squares) != alg.rank:
        return f"{label}: {len(squares)} masses for rank {alg.rank}"
    if min(squares) <= 0.0:
        return f"{label}: nonpositive squared mass"
    prod = math.prod(squares)
    if _rel(prod, float(alg.mass_det)) > REL_TOL:
        return f"{label}: product of squared masses {prod!r} != det {float(alg.mass_det)!r}"
    return None


def _check_poly(alg: Algebra, coeffs: list[Fraction], det: Fraction, trace: Fraction,
                at_1: Fraction | None) -> str | None:
    n = alg.rank
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return f"char-poly not monic of degree {n}"
    if coeffs[0] != (-1) ** n * det:
        return f"constant term {coeffs[0]} != (-1)^n det = {(-1) ** n * det}"
    if coeffs[n - 1] != -trace:
        return f"x^(n-1) coefficient {coeffs[n - 1]} != -trace = {-trace}"
    if at_1 is not None and sum(coeffs) != at_1:
        return f"p(1) = {sum(coeffs)} != det(I - KG) = {at_1}"
    return None


# -- in-process answers ----------------------------------------------------


def check_answer(kind: str, name: str, answer) -> str | None:
    alg = algebra(name)
    if kind == "spectrum_both":
        for route in ("pf", "massmatrix"):
            reason = _check_squares(alg, answer[route], route)
            if reason:
                return reason
        if alg.simply_laced and not answer["spread"] <= REL_TOL:
            return f"mass_ratio_spread {answer['spread']!r} > {REL_TOL} for simply-laced {name}"
        return None
    if kind == "charpoly_b":
        coeffs = [Fraction(c) for c in answer]
        return _check_poly(alg, coeffs, alg.mass_det, alg.mass_trace, alg.mass_charpoly_at_1)
    if kind == "spectrum_massmatrix":
        return _check_squares(alg, answer, "massmatrix")
    if kind == "perron":
        u = answer
        if len(u) != alg.rank or min(u) <= 0.0:
            return "Perron components not positive or wrong length"
        top = 2.0 * math.cos(math.pi / alg.coxeter)
        adj = [[(2 if i == j else 0) - alg.cartan[i][j] for j in range(alg.rank)]
               for i in range(alg.rank)]
        for j in range(alg.rank):
            lam = sum(u[i] * adj[i][j] for i in range(alg.rank)) / u[j]
            if abs(lam - top) > REL_TOL:  # top lies in [0, 2): compare absolutely
                return f"left Perron eigenvalue {lam!r} != 2cos(pi/h) = {top!r}"
        return None
    if kind == "exponents":
        if tuple(answer) != alg.exponents:
            return f"exponents {answer} != {list(alg.exponents)}"
        return None
    raise ValueError(f"unknown request kind {kind!r}")


# -- CLI answers -----------------------------------------------------------


def _masses_ok(name: str, got: list[float], want: list[float]) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} masses, expected {len(want)}"
    worst = max(_rel(g, w) for g, w in zip(got, want))
    if worst > REL_TOL:
        return f"{name}: masses differ from the library by {worst:.3e} relative"
    return None


def _check_spectrum_output(alg: Algebra, fmt: str, out: str, ref: dict) -> str | None:
    methods = sorted(ref)
    if fmt == "json":
        doc = json.loads(out)
        if doc["coxeter_number"] != alg.coxeter or doc["methods"] != methods:
            return "spectrum json header mismatch"
        for m in methods:
            reason = _masses_ok(m, [p[m]["mass"] for p in doc["particles"]], ref[m])
            if reason:
                return reason
        if "consistency_spread" in doc and alg.simply_laced and doc["consistency_spread"] > REL_TOL:
            return f"consistency spread {doc['consistency_spread']} > {REL_TOL}"
        return None
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        for m in methods:
            col = header.index(f"mass_{m}")
            reason = _masses_ok(m, [float(r[col]) for r in body], ref[m])
            if reason:
                return reason
        return None
    lines = out.splitlines()
    if not lines[0].startswith(f"algebra {alg.family}{alg.rank} ") or not lines[0].endswith(
        f"coxeter number {alg.coxeter}"
    ):
        return "spectrum table header mismatch"
    rows = [line.split() for line in lines[3 : 3 + alg.rank]]
    for k, m in enumerate(methods):
        reason = _masses_ok(m, [float(r[1 + 2 * k]) for r in rows], ref[m])
        if reason:
            return reason
    return None


def _check_verify_output(fmt: str, out: str) -> str | None:
    if fmt == "json":
        return None if json.loads(out)["all_passed"] is True else "verify reports a failed check"
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", out.splitlines()[-1])
    if not m or m.group(1) != m.group(2) or m.group(1) == "0":
        return f"verify summary line {out.splitlines()[-1]!r}"
    return None


def _check_inspect_output(alg: Algebra, what: str, doc: dict) -> str | None:
    n = alg.rank
    if what == "cartan":
        ok = tuple(map(tuple, doc["cartan"])) == alg.cartan
    elif what == "roots":
        ok = doc["count"] == alg.positive_roots and tuple(doc["highest_root"]) == alg.marks
    elif what == "charpoly-a":
        coeffs = [Fraction(c) for c in doc["coefficients_ascending"]]
        return _check_poly(alg, coeffs, Fraction(alg.adjacency_det), Fraction(0), None)
    elif what == "charpoly-b":
        coeffs = [Fraction(c) for c in doc["coefficients_ascending"]]
        return _check_poly(alg, coeffs, alg.mass_det, alg.mass_trace, alg.mass_charpoly_at_1)
    elif what == "dynkin":
        want = sorted(
            [i + 1, j + 1, alg.cartan[i][j] * alg.cartan[j][i]]
            for i in range(n) for j in range(i + 1, n) if alg.cartan[i][j]
        )
        ok = sorted(doc["edges"]) == want
    else:
        ok = tuple(doc["exponents"]) == alg.exponents and doc["coxeter_number"] == alg.coxeter
    return None if ok else f"inspect {what} output differs from the classical data"


def check_cli(argv: list[str], returncode: int, out: str, ref: dict | None) -> str | None:
    """Check one `toda` invocation; ``ref`` holds library masses for `spectrum`."""
    if returncode != 0:
        return f"exit code {returncode}"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    try:
        if argv[0] == "verify":
            return _check_verify_output(fmt, out)
        alg = algebra(argv[1])
        if argv[0] == "spectrum":
            return _check_spectrum_output(alg, fmt, out, ref)
        return _check_inspect_output(alg, argv[2], json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
