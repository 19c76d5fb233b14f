import importlib.metadata
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import toda_spectrum
from toda_spectrum.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, args, catch_exceptions=False)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_e8_pf_max_reproduces_reference_components():
    result = run("spectrum", "E8", "--method", "pf", "--normalize", "max", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
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
    rows = [line for line in result.output.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 1


def test_spectrum_both_reports_consistency_spread():
    result = run("spectrum", "E8", "--method", "both")
    assert result.exit_code == 0
    spread_lines = [l for l in result.output.splitlines() if l.startswith("consistency spread")]
    assert len(spread_lines) == 1
    assert float(spread_lines[0].rsplit(" ", 1)[1]) < 1e-9


def test_spectrum_flags_exactly_four_golden_pairs_for_e8():
    result = run("spectrum", "E8", "--method", "pf", "--format", "json")
    payload = json.loads(result.output)
    golden = [(r["a"], r["b"]) for r in payload["ratios"] if r["golden"]]
    assert sorted(golden) == [(1, 2), (3, 6), (4, 7), (5, 8)]


def test_spectrum_table_marks_golden_rows():
    result = run("spectrum", "E8", "--method", "pf")
    golden_rows = [l for l in result.output.splitlines() if l.endswith("golden")]
    assert len(golden_rows) == 4


def test_spectrum_json_round_trips_ratios():
    result = run("spectrum", "E6", "--method", "massmatrix", "--format", "json")
    payload = json.loads(result.output)
    masses = [p["massmatrix"]["mass"] for p in payload["particles"]]
    for row in payload["ratios"]:
        assert row["value"] == masses[row["b"] - 1] / masses[row["a"] - 1]


def test_spectrum_json_agrees_with_table_to_printed_precision():
    table = run("spectrum", "E6", "--method", "massmatrix").output
    payload = json.loads(run("spectrum", "E6", "--method", "massmatrix", "--format", "json").output)
    rows = [l.split() for l in table.splitlines() if l and l[0].isdigit()]
    for row, particle in zip(rows, payload["particles"]):
        assert row[1] == f"{particle['massmatrix']['mass']:.10g}"
        assert row[2] == f"{particle['massmatrix']['mass_squared']:.10g}"


def test_spectrum_csv_shape():
    result = run("spectrum", "B3", "--format", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "label,mass_massmatrix,mass_pf,mass_squared_massmatrix,mass_squared_pf,golden_with"
    assert len(lines) == 4
    assert "." in lines[1]  # decimal point, not comma


def test_spectrum_unknown_algebra_exits_2():
    result = runner.invoke(main, ["spectrum", "X9"])
    assert result.exit_code == 2
    assert "E in {6,7,8}" in result.output


def test_spectrum_rank_in_digits_that_are_not_ascii_exits_2():
    result = runner.invoke(main, ["spectrum", "A\u0663"])  # ARABIC-INDIC DIGIT THREE
    assert result.exit_code == 2
    assert "cannot parse algebra name" in result.output


def test_spectrum_rank_with_5000_digits_exits_2():
    result = runner.invoke(main, ["spectrum", "A" + "9" * 5000])
    assert result.exit_code == 2
    assert "rank with 5000 digits is too large" in result.output
    assert result.exc_info is None or result.exc_info[0] is SystemExit


def test_spectrum_deterministic_output():
    first = run("spectrum", "E8", "--method", "both", "--format", "json").output
    second = run("spectrum", "E8", "--method", "both", "--format", "json").output
    assert first == second


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_e8_suite_passes_with_eleven_checks():
    result = run("verify", "e8-paper")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    check_lines = [l for l in lines if "residual" in l]
    assert len(check_lines) == 11
    assert all(l.endswith("PASS") for l in check_lines)
    assert lines[-1] == "11/11 checks passed"


def test_verify_exponents_scope():
    result = run("verify", "exponents")
    assert result.exit_code == 0
    check_lines = [l for l in result.output.splitlines() if "residual" in l]
    assert len(check_lines) == 33  # every simple algebra of rank <= 8


def test_verify_all_ade_scope():
    result = run("verify", "all-ade")
    assert result.exit_code == 0
    check_lines = [l for l in result.output.splitlines() if "residual" in l]
    assert len(check_lines) == 17  # A1..A8, D3..D8, E6, E7, E8


def test_verify_json_format():
    result = run("verify", "e8-paper", "--format", "json")
    payload = json.loads(result.output)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 11
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "adjacency-charpoly"
    assert "mass-closed-forms" in names


def test_verify_csv_format():
    result = run("verify", "all-ade", "--format", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "name,residual,tolerance,passed"
    assert len(lines) == 18


def test_verify_tolerance_override_can_force_failure():
    result = runner.invoke(main, ["verify", "e8-paper", "--tolerance", "1e-30"])
    assert result.exit_code == 1


def test_verify_unknown_scope_exits_2():
    result = runner.invoke(main, ["verify", "everything"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_charpoly_a_bit_exact():
    result = run("inspect", "E8", "charpoly-a")
    assert result.output.strip() == "x^8 - 7x^6 + 14x^4 - 8x^2 + 1"


def test_inspect_charpoly_b_bit_exact():
    result = run("inspect", "E8", "charpoly-b")
    assert result.output.strip() == (
        "x^8 - 60x^7 + 1440x^6 - 18000x^5 + 127440x^4 - 518400x^3"
        " + 1166400x^2 - 1296000x + 518400"
    )


def test_inspect_cartan_table():
    result = run("inspect", "A2", "cartan")
    assert result.output.splitlines() == [" 2 -1", "-1  2"]


def test_inspect_cartan_json_is_adjacency_complement():
    result = run("inspect", "E8", "cartan", "--format", "json")
    cartan = json.loads(result.output)["cartan"]
    assert cartan[4] == [0, 0, 0, -1, 2, -1, 0, -1]


def test_inspect_roots_a2():
    result = run("inspect", "A2", "roots")
    assert "3 positive roots" in result.output


def test_inspect_roots_json_count_e8():
    result = run("inspect", "E8", "roots", "--format", "json")
    payload = json.loads(result.output)
    assert payload["count"] == 120
    assert payload["highest_root"] == [2, 3, 4, 5, 6, 4, 2, 3]


def test_inspect_dynkin_e8_labels():
    result = run("inspect", "E8", "dynkin")
    lines = result.output.splitlines()
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
    assert result.output.splitlines() == drawing


def test_inspect_exponents_e8():
    result = run("inspect", "E8", "exponents", "--format", "json")
    payload = json.loads(result.output)
    assert payload["exponents"] == [1, 7, 11, 13, 17, 19, 23, 29]
    assert payload["coxeter_number"] == 30


def test_inspect_bad_argument_exits_2():
    result = runner.invoke(main, ["inspect", "E8", "everything"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", [["verify", "e8-paper"], ["spectrum", "E8"]])
def test_tolerance_not_finite_and_nonnegative_is_a_usage_error(command, value):
    result = runner.invoke(main, [*command, f"--tolerance={value}"])
    assert result.exit_code == 2
    assert "is not a finite nonnegative number" in result.output
    assert "PASS" not in result.output and "particle" not in result.output


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
    assert "version 0.1.0" in result.output


def test_package_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert toda_spectrum.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)
