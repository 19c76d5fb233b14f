"""Run one `toda` command in-process, the way the console script runs it.

`invoke` calls `main(argv, standalone_mode=False)`, which returns 0 on
success and raises `SystemExit` with any other code, with stdout and stderr
captured separately and COLUMNS set to 80, so that help text wraps the same
on every host. Any other exception that `main` lets out is not caught.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

from toda_spectrum.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(*args: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args), standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())
