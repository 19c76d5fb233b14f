import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import invoke as run

import toda_spectrum
from toda_spectrum.cli import main

SRC = str(Path(__file__).parents[1] / "src")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_e8_pf_max_reproduces_reference_components():
    result = run("spectrum", "E8", "--method", "pf", "--normalize", "max", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert [p["label"] for p in payload["particles"]] == list(range(1, 9))
    masses = [p["pf"]["mass"] for p in payload["particles"]]
    # the node-indexed reference row, listed in ascending order as the particles are
    reference = sorted((0.2091, 0.4158, 0.6180, 0.8135, 1.0, 0.6728, 0.3383, 0.5028))
    assert len(masses) == len(reference)
    assert all(abs(m - r) <= 5e-5 for m, r in zip(masses, reference))
    assert payload["coxeter_number"] == 30


def test_spectrum_a1_single_row():
    result = run("spectrum", "A1")
    assert result.exit_code == 0
    rows = [line for line in result.stdout.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 1


def test_spectrum_both_reports_consistency_spread():
    result = run("spectrum", "E8", "--method", "both")
    assert result.exit_code == 0
    spread_lines = [l for l in result.stdout.splitlines() if l.startswith("consistency spread")]
    assert len(spread_lines) == 1
    assert float(spread_lines[0].rsplit(" ", 1)[1]) < 1e-9


def test_spectrum_flags_exactly_four_golden_pairs_for_e8():
    result = run("spectrum", "E8", "--method", "pf", "--format", "json")
    payload = json.loads(result.stdout)
    golden = [(r["a"], r["b"]) for r in payload["ratios"] if r["golden"]]
    assert sorted(golden) == [(1, 2), (3, 6), (4, 7), (5, 8)]


def test_spectrum_table_marks_golden_rows():
    result = run("spectrum", "E8", "--method", "pf")
    golden_rows = [l for l in result.stdout.splitlines() if l.endswith("golden")]
    assert len(golden_rows) == 4


def test_spectrum_json_round_trips_ratios():
    result = run("spectrum", "E6", "--method", "massmatrix", "--format", "json")
    payload = json.loads(result.stdout)
    masses = [p["massmatrix"]["mass"] for p in payload["particles"]]
    for row in payload["ratios"]:
        assert row["value"] == masses[row["b"] - 1] / masses[row["a"] - 1]


def test_spectrum_json_agrees_with_table_to_printed_precision():
    table = run("spectrum", "E6", "--method", "massmatrix").stdout
    payload = json.loads(run("spectrum", "E6", "--method", "massmatrix", "--format", "json").stdout)
    rows = [l.split() for l in table.splitlines() if l and l[0].isdigit()]
    for row, particle in zip(rows, payload["particles"]):
        assert row[1] == f"{particle['massmatrix']['mass']:.10g}"
        assert row[2] == f"{particle['massmatrix']['mass_squared']:.10g}"


def test_spectrum_csv_shape():
    result = run("spectrum", "B3", "--format", "csv")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "label,mass_massmatrix,mass_pf,mass_squared_massmatrix,mass_squared_pf,golden_with"
    assert len(lines) == 4
    assert "." in lines[1]  # decimal point, not comma


def test_spectrum_unknown_algebra_exits_2():
    result = run("spectrum", "X9")
    assert result.exit_code == 2
    assert "E in {6,7,8}" in result.stderr


def test_spectrum_rank_in_digits_that_are_not_ascii_exits_2():
    result = run("spectrum", "A\u0663")  # ARABIC-INDIC DIGIT THREE
    assert result.exit_code == 2
    assert "cannot parse algebra name" in result.stderr


def test_spectrum_rank_with_5000_digits_exits_2():
    result = run("spectrum", "A" + "9" * 5000)
    assert result.exit_code == 2
    assert "rank with 5000 digits is too large" in result.stderr


def test_spectrum_deterministic_output():
    first = run("spectrum", "E8", "--method", "both", "--format", "json").stdout
    second = run("spectrum", "E8", "--method", "both", "--format", "json").stdout
    assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_e8_suite_passes_with_eleven_checks():
    result = run("verify", "e8-paper")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    check_lines = [l for l in lines if "residual" in l]
    assert len(check_lines) == 11
    assert all(l.endswith("PASS") for l in check_lines)
    assert lines[-1] == "11/11 checks passed"


def test_verify_exponents_scope():
    result = run("verify", "exponents")
    assert result.exit_code == 0
    check_lines = [l for l in result.stdout.splitlines() if "residual" in l]
    assert len(check_lines) == 33  # every simple algebra of rank <= 8


def test_verify_all_ade_scope():
    result = run("verify", "all-ade")
    assert result.exit_code == 0
    check_lines = [l for l in result.stdout.splitlines() if "residual" in l]
    assert len(check_lines) == 17  # A1..A8, D3..D8, E6, E7, E8


def test_verify_json_format():
    result = run("verify", "e8-paper", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 11
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "adjacency-charpoly"
    assert "mass-closed-forms" in names


def test_verify_csv_format():
    result = run("verify", "all-ade", "--format", "csv")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "name,residual,tolerance,passed"
    assert len(lines) == 18


def test_verify_tolerance_override_can_force_failure():
    result = run("verify", "e8-paper", "--tolerance", "1e-30")
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "E8", "--form", "json"],
        ["spectrum", "E8", "--meth", "pf"],
        ["spectrum", "E8", "--norm", "unit"],
        ["verify", "e8-paper", "--tol", "0"],
        ["inspect", "E8", "cartan", "--form", "json"],
        ["--vers", "inspect", "E8", "cartan"],
    ],
)
def test_abbreviated_option_is_a_usage_error(argv):
    result = run(*argv)
    assert result.exit_code == 2
    assert "unrecognized arguments" in result.stderr
    assert result.stdout == ""


def test_verify_unknown_scope_exits_2():
    result = run("verify", "everything")
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_charpoly_a_bit_exact():
    result = run("inspect", "E8", "charpoly-a")
    assert result.stdout.strip() == "x^8 - 7x^6 + 14x^4 - 8x^2 + 1"


def test_inspect_charpoly_b_bit_exact():
    result = run("inspect", "E8", "charpoly-b")
    assert result.stdout.strip() == (
        "x^8 - 60x^7 + 1440x^6 - 18000x^5 + 127440x^4 - 518400x^3"
        " + 1166400x^2 - 1296000x + 518400"
    )


def test_inspect_cartan_table():
    result = run("inspect", "A2", "cartan")
    assert result.stdout.splitlines() == [" 2 -1", "-1  2"]


def test_inspect_cartan_json_is_adjacency_complement():
    result = run("inspect", "E8", "cartan", "--format", "json")
    cartan = json.loads(result.stdout)["cartan"]
    assert cartan[4] == [0, 0, 0, -1, 2, -1, 0, -1]


def test_inspect_roots_a2():
    result = run("inspect", "A2", "roots")
    assert "3 positive roots" in result.stdout


def test_inspect_roots_json_count_e8():
    result = run("inspect", "E8", "roots", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["count"] == 120
    assert payload["highest_root"] == [2, 3, 4, 5, 6, 4, 2, 3]


def test_inspect_dynkin_e8_labels():
    result = run("inspect", "E8", "dynkin")
    lines = result.stdout.splitlines()
    assert lines[0] == "1 --- 2 --- 3 --- 4 --- 5 --- 6 --- 7"
    assert lines[1].index("|") == lines[0].index("5")
    assert lines[2].strip() == "8"


@pytest.mark.parametrize(
    "algebra, drawing",
    [
        ("A1", ["1"]),
        ("A3", ["1 --- 2 --- 3"]),
        ("C3", ["1 --- 2 <== 3"]),
        ("F4", ["1 --- 2 ==> 3 --- 4"]),
        ("D3", ["1 --- 2", "|", "3"]),
        ("D4", ["1 --- 2 --- 3", "      |", "      4"]),
        ("E6", ["1 --- 2 --- 3 --- 4 --- 5", "            |", "            6"]),
    ],
)
def test_inspect_dynkin_drawing(algebra, drawing):
    result = run("inspect", algebra, "dynkin")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == drawing


def test_inspect_exponents_e8():
    result = run("inspect", "E8", "exponents", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["exponents"] == [1, 7, 11, 13, 17, 19, 23, 29]
    assert payload["coxeter_number"] == 30


def test_inspect_bad_argument_exits_2():
    result = run("inspect", "E8", "everything")
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", [["verify", "e8-paper"], ["spectrum", "E8"]])
def test_tolerance_not_finite_and_nonnegative_is_a_usage_error(command, value):
    result = run(*command, f"--tolerance={value}")
    assert result.exit_code == 2
    assert "is not a finite nonnegative number" in result.stderr
    assert "PASS" not in result.stdout and "particle" not in result.stdout


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "all-ade"],
        ["verify", "all-ade", "--format", "csv"],
        ["spectrum", "A3", "--format", "json"],
        ["spectrum", "A3"],
    ],
    ids=" ".join,
)
def test_negative_zero_tolerance_prints_as_zero(command):
    zero = run(*command, "--tolerance", "0")
    assert run(*command, "--tolerance", "-0.0").stdout == zero.stdout
    assert "-0.0" not in zero.stdout and "-0.000e+00" not in zero.stdout


# ---------------------------------------------------------------------------
# version
# ---------------------------------------------------------------------------


def test_version_needs_no_installed_metadata(monkeypatch):
    # a source checkout run as `python -m toda_spectrum.cli` has no package metadata
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    result = run("--version")
    assert result.exit_code == 0
    assert "version 0.1.0" in result.stdout


def test_package_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert toda_spectrum.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["inspect", "E8", "exponents"], ["--help"], ["--version"]])
def test_main_returns_0_on_success_without_raising(argv, capsys):
    # the call that perfbench/worker.py makes for a traced `toda` command
    assert main(argv, standalone_mode=False) == 0


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "e8-paper", "--tolerance", "1e-30"], 1), (["spectrum", "X9"], 2)],
)
def test_main_raises_system_exit_on_failure_outside_standalone_mode(argv, code, capsys):
    # the traced benchmark worker reads a failing command's code from SystemExit
    with pytest.raises(SystemExit) as exc:
        main(argv, standalone_mode=False)
    assert exc.value.code == code


def test_main_in_standalone_mode_exits_with_the_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "e8-paper", "--tolerance", "1e-30"])
    assert exc.value.code == 1


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *args], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        # the reader is gone before the first line is written
        (["spectrum", "E8", "--method", "both"], 0),
        # about 190 kB, more than a pipe holds: the command is still writing
        # when the reader closes after one line, as under `| head -1`
        (["inspect", "D40", "roots"], 1),
    ],
)
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(argv, lines_read):
    read_end, write_end = os.pipe()
    if not lines_read:
        os.close(read_end)
    proc = _python("-m", "toda_spectrum.cli", *argv, stdout=write_end)
    os.close(write_end)
    if lines_read:
        with open(read_end, "rb") as reader:
            assert reader.readline()
    _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (1, b"")


def test_importing_the_cli_loads_none_of_click_dataclasses_inspect_or_typing():
    # -S: no site hooks, some of which (.pth files) import typing themselves
    code = (
        "import sys; before = set(sys.modules); import toda_spectrum.cli; "
        "print(sorted({'click', 'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"
    )
    proc = _python("-S", "-c", code, stdout=subprocess.PIPE, text=True)
    stdout, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stdout, stderr) == (0, "[]\n", "")
