"""Byte-level snapshot of the `toda` command line.

`data/cli_golden.json` holds, for each command, the stdout and exit code the
CLI produced when the snapshot was recorded (in-process through
`cli_runner.invoke`, so never a terminal and never coloured; help text wraps
at 80 columns). Refactors of the CLI must reproduce both exactly; a
deliberate change of output is recorded in CHANGES.md together with a
re-recorded snapshot.
"""

import functools
import json
from pathlib import Path

import pytest
from cli_runner import invoke
from dense_reference import column_perron

from toda_spectrum import masses, verify
from toda_spectrum.spectral import jacobi_eigen

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["args"]) for c in GOLDEN])
def test_cli_output_matches_snapshot(case):
    result = invoke(*case["args"])
    assert result.stdout == case["stdout"]
    assert result.exit_code == case["exit_code"]


# The entries re-recorded when the mass-matrix and adjacency eigenvalues moved
# from cyclic Jacobi to Householder tridiagonalisation plus implicit QL: their
# floats moved in the last digits. The test below holds them to a reference
# computed with Jacobi.
RERECORDED_FOR_THE_SOLVER = [
    f"spectrum {alg} --method {method} --normalize {norm} --format {fmt}"
    for alg, method, fmt in [
        ("E8", "massmatrix", "json"),
        ("E8", "both", "table"),
        ("E8", "both", "json"),
        ("B3", "massmatrix", "json"),
        ("B3", "both", "json"),
    ]
    for norm in ("max", "first", "unit", "absolute")
] + [
    "verify all-ade --format table",
    "verify all-ade --format json",
    "verify all-ade --format csv",
    "verify all-ade --format json --tolerance 1e-30",
]
# The entries whose floats moved in the last digits again when the squared
# masses came from the affine (n+1) x (n+1) matrix, reduced as a band matrix:
# every entry above, but B3 massmatrix with --normalize max, and these.
RERECORDED_FOR_THE_AFFINE_ROUTE = [
    f"spectrum {alg} --method {method} --normalize {norm} --format json"
    for alg, method in [("G2", "massmatrix"), ("G2", "both"), ("A1", "massmatrix")]
    for norm in ("max", "first", "unit", "absolute")
] + ["spectrum A1 --method both --normalize absolute --format json"]
# The entries re-recorded when the Perron power iteration moved from 2I + A to
# I + A: the route-1 floats, and the verify residuals read from them, moved in
# their last digits. The test below holds them to the iteration on 2I + A.
RERECORDED_FOR_THE_SHIFT = (
    [
        f"spectrum {alg} --method {method} --normalize {norm} --format {fmt}"
        for alg, method, fmt in [
            ("B3", "both", "json"),
            ("E8", "both", "json"),
            ("E8", "both", "table"),
            ("E8", "pf", "json"),
        ]
        for norm in ("max", "first", "unit", "absolute")
    ]
    + [
        f"verify {suite} --format {fmt}"
        for suite in ("all-ade", "e8-paper")
        for fmt in ("table", "json", "csv")
    ]
    + ["verify all-ade --format json --tolerance 1e-30", "verify e8-paper --tolerance 1e-30"]
)
BY_ARGS = {" ".join(c["args"]): c for c in GOLDEN}


def _format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "table"


def _table_rows(stdout):
    """(label, cells) for each particle row of a `spectrum` table."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("particle"))
    rows = [line.split() for line in lines[start + 1 :] if line[:1].isdigit()]
    return [(int(label), cells) for label, *cells in rows]


def _verify_rows(stdout, fmt):
    """(residual, tolerance, passed) for each row of a `verify` output."""
    if fmt == "json":
        return [(c["residual"], c["tolerance"], c["passed"]) for c in json.loads(stdout)["checks"]]
    if fmt == "csv":
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        return [(float(r), float(t), p == "True") for _, r, t, p in rows]
    rows = [line.split() for line in stdout.splitlines() if " residual " in line]
    return [(float(r[2]), float(r[4]), r[5] == "PASS") for r in rows]


@pytest.mark.parametrize("args", RERECORDED_FOR_THE_SOLVER + RERECORDED_FOR_THE_AFFINE_ROUTE)
def test_rerecorded_entries_agree_with_a_jacobi_reference(args, monkeypatch):
    stdout = BY_ARGS[args]["stdout"]
    argv = args.split()
    fmt = _format(argv)
    if argv[0] == "verify":
        rows = _verify_rows(stdout, fmt)
        assert len(rows) == 17
        for residual, tolerance, passed in rows:
            assert abs(residual) <= verify.CONSISTENCY_TOL
            assert passed == (abs(residual) <= tolerance)
        return

    # squared masses from Jacobi on the dense embedded n x n mass matrix
    monkeypatch.setattr(
        masses,
        "_mass_squares",
        lambda aid: tuple(sorted(jacobi_eigen(masses.mass_matrix_embedded(aid)).eigenvalues)),
    )
    alg, norm = argv[1], argv[argv.index("--normalize") + 1]
    reference = {
        "pf": masses.spectrum_method1(alg).rescaled(norm).masses,
        "massmatrix": masses.spectrum_method2(alg).rescaled(norm).masses,
    }
    if fmt == "json":
        data = json.loads(stdout)
        for particle in data["particles"]:
            for name in data["methods"]:
                want = reference[name][particle["label"] - 1]
                assert abs(particle[name]["mass"] - want) <= 1e-12 * want
                assert abs(particle[name]["mass_squared"] - want**2) <= 1e-12 * want**2
    else:  # the table prints 10 significant digits, mass and mass^2 per method
        rows = _table_rows(stdout)
        assert len(rows) == len(reference["pf"])
        for label, cells in rows:
            for k, name in enumerate(("massmatrix", "pf")):
                want = reference[name][label - 1]
                assert cells[2 * k] == f"{want:.10g}"
                assert cells[2 * k + 1] == f"{want * want:.10g}"


@pytest.fixture
def perron_on_2i_plus_a(monkeypatch):
    """Route 1 with the Perron vector of the power iteration on 2I + A."""
    monkeypatch.setattr(masses, "perron_vector", functools.partial(column_perron, shift=2.0))
    masses._perron_components.cache_clear()
    yield
    masses._perron_components.cache_clear()


@pytest.mark.parametrize("args", RERECORDED_FOR_THE_SHIFT)
def test_rerecorded_entries_agree_with_the_iteration_on_2i_plus_a(args, perron_on_2i_plus_a):
    stdout = BY_ARGS[args]["stdout"]
    argv = args.split()
    fmt = _format(argv)
    if argv[0] == "verify":
        rows = _verify_rows(stdout, fmt)
        reference = _verify_rows(invoke(*argv).stdout, fmt)
        assert len(rows) == len(reference) > 0
        for (residual, tolerance, passed), (want, *want_rest) in zip(rows, reference):
            assert abs(residual - want) <= verify.CONSISTENCY_TOL
            assert [tolerance, passed] == want_rest
        return

    alg, norm = argv[1], argv[argv.index("--normalize") + 1]
    reference = {
        "pf": masses.spectrum_method1(alg).rescaled(norm).masses,
        "massmatrix": masses.spectrum_method2(alg).rescaled(norm).masses,
    }
    if fmt == "json":
        data = json.loads(stdout)
        for particle in data["particles"]:
            for name in data["methods"]:
                want = reference[name][particle["label"] - 1]
                assert abs(particle[name]["mass"] - want) <= 1e-10 * want
                assert abs(particle[name]["mass_squared"] - want**2) <= 1e-10 * want**2
    else:  # 10 significant digits: 1e-10, plus at most half a unit in the last digit, 5e-10
        rows = _table_rows(stdout)
        assert len(rows) == len(reference["pf"])
        for label, cells in rows:
            for k, name in enumerate(("massmatrix", "pf")):
                want = reference[name][label - 1]
                assert abs(float(cells[2 * k]) - want) <= 6e-10 * want
                assert abs(float(cells[2 * k + 1]) - want**2) <= 6e-10 * want**2
