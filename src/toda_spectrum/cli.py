"""Command line interface: spectra, verification suites, and algebra data.

The commands only parse arguments and lay out results: the checks behind
``verify`` live in :mod:`toda_spectrum.verify`, and every command hands one
:class:`Output` (a JSON object, CSV rows and table lines) to :func:`_write`,
which prints the form ``--format`` asks for.

Exit codes form a stable contract: 0 for success (all checks passed), 1 for a
verification failure, 2 for usage errors. Data goes to stdout, diagnostics to
stderr; identical invocations print identical bytes. Set NO_COLOR to strip the
little ANSI styling the verify tables use on terminals.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import click

from . import __version__
from . import verify as suites
from .exact_poly import RationalPolynomial
from .masses import (
    GOLDEN_RATIO,
    Spectrum,
    adjacency_char_poly,
    adjacency_eigen,
    mass_char_poly,
    mass_ratio_spread,
    spectrum_method1,
    spectrum_method2,
)
from .record import asdict
from .root_systems import AlgebraId, InvalidAlgebraError, RootSystem, root_system
from .spectral import recover_exponents


class Output(NamedTuple):
    """One result in every format: JSON object, CSV rows under an optional header, table lines."""

    data: dict
    header: list | None
    rows: list
    lines: list[str]
    indent: int | None = None


def _write(out: Output, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(out.data, indent=out.indent, sort_keys=True))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if out.header:
            writer.writerow(out.header)
        writer.writerows(out.rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        for line in out.lines:
            click.echo(line)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
)


def _algebra(text: str) -> AlgebraId:
    try:
        return AlgebraId.parse(text)
    except InvalidAlgebraError as exc:
        raise click.UsageError(str(exc))


def _tolerance(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    """Reject a ``--tolerance`` that is negative, infinite or NaN, as a usage error.

    ``-0.0`` passes the check and becomes ``0.0``, so that it prints as
    ``--tolerance 0`` does.
    """
    if value is not None and not 0.0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite nonnegative number")
    return None if value is None else value + 0.0  # -0.0 + 0.0 is 0.0


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(passed: bool) -> str:
    text = "PASS" if passed else "FAIL"
    if _use_color():
        return f"\033[92m{text}\033[0m" if passed else f"\033[91m{text}\033[0m"
    return text


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Mass spectra of two-dimensional affine Toda lattices for simple Lie algebras."""


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _ratio_rows(spec: Spectrum, tolerance: float) -> list[dict]:
    rows = []
    n = len(spec.masses)
    for i in range(n):
        for j in range(i + 1, n):
            value = spec.masses[j] / spec.masses[i]
            golden = (
                min(abs(value - GOLDEN_RATIO), abs(1.0 / value - GOLDEN_RATIO))
                <= tolerance * GOLDEN_RATIO
            )
            rows.append({"a": i + 1, "b": j + 1, "value": value, "golden": golden})
    return rows


@main.command()
@click.argument("algebra")
@click.option(
    "--method",
    type=click.Choice(["pf", "massmatrix", "both"]),
    default="both",
    show_default=True,
    help="Perron-Frobenius route, mass-matrix route, or both side by side.",
)
@click.option(
    "--normalize",
    type=click.Choice(["max", "first", "unit", "absolute"]),
    default="max",
    show_default=True,
    help="max: heaviest mass = 1; first: lightest mass = 2 sin(pi/h); "
    "unit: mass vector of norm 1; absolute: mass-matrix eigenvalue scale.",
)
@_format_option
@click.option(
    "--tolerance",
    type=float,
    default=1e-9,
    show_default=True,
    callback=_tolerance,
    help="Relative window for flagging golden-ratio mass ratios.",
)
def spectrum(algebra: str, method: str, normalize: str, fmt: str, tolerance: float) -> None:
    """Print particle masses and mass ratios for ALGEBRA (e.g. E8, A5, b3)."""
    aid = _algebra(algebra)
    specs: dict[str, Spectrum] = {}
    if method in ("pf", "both"):
        specs["pf"] = spectrum_method1(aid).rescaled(normalize)
    if method in ("massmatrix", "both"):
        specs["massmatrix"] = spectrum_method2(aid).rescaled(normalize)
    primary = specs.get("pf", specs.get("massmatrix"))
    assert primary is not None
    ratios = _ratio_rows(primary, tolerance)
    spread = mass_ratio_spread(aid) if method == "both" else None
    h = root_system(aid).coxeter_number
    names = sorted(specs)
    labels = range(1, len(primary.masses) + 1)
    masses = {k: [specs[name].masses[k - 1] for name in names] for k in labels}
    squares = {k: [specs[name].mass_squares[k - 1] for name in names] for k in labels}

    data = {
        "algebra": str(aid),
        "coxeter_number": h,
        "methods": names,
        "normalization": asdict(primary.normalization),
        "particles": [
            {
                "label": k,
                **{
                    name: {"mass": m, "mass_squared": sq}
                    for name, m, sq in zip(names, masses[k], squares[k])
                },
            }
            for k in labels
        ],
        "ratios": ratios,
        "golden_ratio_tolerance": tolerance,
    }
    if spread is not None:
        data["consistency_spread"] = spread

    golden_with: dict[int, list[int]] = {k: [] for k in labels}
    for row in ratios:
        if row["golden"]:
            golden_with[row["a"]].append(row["b"])
            golden_with[row["b"]].append(row["a"])
    header = ["label"] + [f"{q}_{name}" for q in ("mass", "mass_squared") for name in names]
    header.append("golden_with")
    rows = [
        [k]
        + [_fmt(x) for x in masses[k] + squares[k]]
        + [";".join(str(x) for x in sorted(golden_with[k]))]
        for k in labels
    ]

    cells = [["particle"] + [c for name in names for c in (f"mass[{name}]", f"mass^2[{name}]")]]
    cells += [
        [str(k)] + [_fmt(x) for pair in zip(masses[k], squares[k]) for x in pair] for k in labels
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    lines = [f"algebra {aid}    coxeter number {h}"]
    lines.append(f"normalization: {primary.normalization.fixed}")
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]
    if ratios:
        lines.append(f"mass ratios (golden ratio flagged within {tolerance:g} relative):")
        for row in ratios:
            flag = "  golden" if row["golden"] else ""
            lines.append(f"  m{row['b']}/m{row['a']} = {_fmt(row['value'])}{flag}")
    if spread is not None:
        lines.append(f"consistency spread across methods: {spread:.3e}")

    _write(Output(data, header, rows, lines, indent=2), fmt)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@click.argument("scope", type=click.Choice(list(suites.SUITES)))
@_format_option
@click.option(
    "--tolerance",
    type=float,
    default=None,
    callback=_tolerance,
    help=(
        "Judge every float check against this one tolerance; exact checks keep "
        "tolerance 0 and their own verdict."
    ),
)
def verify(scope: str, fmt: str, tolerance: float | None) -> None:
    """Run a verification suite; exit code 0 only if every check passes.

    e8-paper: the full E8 identity table (characteristic polynomials, Perron
    components, golden ratios, closed forms). all-ade: cross-method agreement
    for every simply-laced algebra of rank <= 8. exponents: recovered
    exponents against the classical tables for every algebra of rank <= 8.
    """
    report = suites.SUITES[scope]()
    if tolerance is not None:
        report = report.with_tolerance(tolerance)

    name_w = max(len(c.name) for c in report)
    passed = sum(1 for c in report if c.passed)
    lines = [
        f"{c.name.ljust(name_w)}  residual {c.residual:>10.3e}  "
        f"tolerance {c.tolerance:>10.3e}  {_status(c.passed)}"
        for c in report
    ]
    _write(
        Output(
            {
                "scope": scope,
                "all_passed": report.all_passed,
                "checks": [asdict(c) for c in report],
            },
            ["name", "residual", "tolerance", "passed"],
            [[c.name, f"{c.residual:.3e}", f"{c.tolerance:.3e}", c.passed] for c in report],
            lines + [f"{passed}/{len(report)} checks passed"],
            indent=2,
        ),
        fmt,
    )
    if not report.all_passed:
        sys.exit(1)


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def _cartan(aid: AlgebraId, rs: RootSystem) -> Output:
    rows = [list(row) for row in rs.cartan.entries]
    width = max(len(str(v)) for row in rows for v in row)
    lines = [" ".join(str(v).rjust(width) for v in row) for row in rows]
    return Output({"algebra": str(aid), "cartan": rows}, None, rows, lines)


def _roots(aid: AlgebraId, rs: RootSystem) -> Output:
    roots = [list(r) for r in rs.positive_roots]
    data = {
        "algebra": str(aid),
        "count": len(roots),
        "positive_roots": roots,
        "highest_root": list(rs.marks),
        "marks": list(rs.marks),
    }
    lines = [f"{len(roots)} positive roots of {aid} (simple-root coefficients):"]
    lines += ["  (" + ", ".join(str(v) for v in r) + ")" for r in roots]
    lines.append("highest root: (" + ", ".join(str(v) for v in rs.marks) + ")")
    return Output(data, None, roots, lines)


def _poly(aid: AlgebraId, poly: RationalPolynomial) -> Output:
    coeffs = [int(c) if c.denominator == 1 else str(c) for c in poly.coefficients]
    data = {"algebra": str(aid), "polynomial": str(poly), "coefficients_ascending": coeffs}
    return Output(data, ["degree", "coefficient"], list(enumerate(coeffs)), [str(poly)])


def _dynkin(aid: AlgebraId, rs: RootSystem) -> Output:
    """The chain of nodes left to right, with a D or E branch node drawn below.

    Bonds come from the Cartan bond list; arrows point from long roots to short ones.
    The last node is a branch node when its neighbour is not the node before it.
    """
    c = rs.cartan.entries
    last = rs.rank - 1
    attach = next((j + 1 for j, _ in rs.cartan.bonds[last] if j not in (last, last - 1)), 0)
    branched = attach > 0
    line = ""
    for node in range(1, aid.rank if branched else aid.rank + 1):
        if node > 1:
            a, b = c[node - 2][node - 1], c[node - 1][node - 2]
            mid = "=" if a * b == 2 else "3"
            line += " --- " if a == b else f" ={mid}> " if a < b else f" <{mid}= "
        if node == attach:
            col = len(line) + (len(str(node)) - 1) // 2
        line += str(node)
    lines = [line]
    if branched:
        label = str(aid.rank)
        lines += [" " * col + "|", " " * max(0, col - (len(label) - 1) // 2) + label]
    # (node, node, bond multiplicity) with 1-based labels
    bonds = enumerate(rs.cartan.bonds)
    edges = [[i + 1, j + 1, v * c[j][i]] for i, row in bonds for j, v in row if i < j]
    data = {"algebra": str(aid), "ascii": lines, "edges": edges}
    return Output(data, ["node_a", "node_b", "bond"], edges, lines)


def _exponents(aid: AlgebraId, rs: RootSystem) -> Output:
    exps = recover_exponents(adjacency_eigen(aid).eigenvalues, rs.coxeter_number)
    data = {"algebra": str(aid), "coxeter_number": rs.coxeter_number, "exponents": list(exps)}
    lines = [
        f"exponents of {aid} (coxeter number {rs.coxeter_number}):",
        "  " + " ".join(str(a) for a in exps),
    ]
    return Output(data, ["exponent"], [[a] for a in exps], lines)


INSPECT_TOPICS: dict[str, Callable[[AlgebraId, RootSystem], Output]] = {
    "cartan": _cartan,
    "roots": _roots,
    "charpoly-a": lambda aid, rs: _poly(aid, adjacency_char_poly(aid)),
    "charpoly-b": lambda aid, rs: _poly(aid, mass_char_poly(aid)),
    "dynkin": _dynkin,
    "exponents": _exponents,
}


@main.command()
@click.argument("algebra")
@click.argument("what", type=click.Choice(list(INSPECT_TOPICS)))
@_format_option
def inspect(algebra: str, what: str, fmt: str) -> None:
    """Print algebra data: the Cartan matrix, positive roots, characteristic
    polynomials of the adjacency (charpoly-a) or mass (charpoly-b) matrix,
    the Dynkin diagram, or the exponents."""
    aid = _algebra(algebra)
    _write(INSPECT_TOPICS[what](aid, root_system(aid)), fmt)


if __name__ == "__main__":
    main()
