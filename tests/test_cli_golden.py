"""Byte-level snapshot of the `toda` command line.

`data/cli_golden.json` holds, for each command, the stdout and exit code the
CLI produced when the snapshot was recorded (through `CliRunner`, so never a
terminal and never coloured; help text wraps at 80 columns). Refactors of the
CLI must reproduce both exactly; a deliberate change of output is recorded in
CHANGES.md together with a re-recorded snapshot.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from toda_spectrum.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["args"]) for c in GOLDEN])
def test_cli_output_matches_snapshot(case):
    result = CliRunner().invoke(main, case["args"], terminal_width=80)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == case["stdout"]
    assert result.exit_code == case["exit_code"]
