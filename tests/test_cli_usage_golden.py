"""Golden usage, help and argument-error texts of ``repro-compress``.

``main()`` builds only the parser of the command it runs (any other argv
builds the whole tree).  This module pins what the parsers print: the
``--help`` of the top level, of every command and of ``perf report``,
and the stderr and exit code of the usage errors below.  Every text is
captured with ``COLUMNS=80``, so the wrapping does not depend on the
terminal.

The cases run in a fresh interpreter, where only the built-in codecs are
registered (``compress --help`` lists them all).  argparse words some
messages differently from one Python version to the next, so the goldens
are compared on the version that captured them.
Regenerate them (only after a deliberate change to the CLI's arguments)
with::

    PYTHONPATH=src python -m tests.test_cli_usage_golden --update
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli_usage.json"
COMMANDS = (
    "compress", "decompress", "resume", "info", "stats", "profile", "perf",
    "audit", "explain", "verify", "repair", "faults",
)
CASES: tuple[tuple[str, ...], ...] = (
    ("--help",),
    *((cmd, "--help") for cmd in COMMANDS),
    ("perf", "report", "--help"),
    (),
    ("bogus",),
    ("perf",),
    ("verify",),
    ("verify", "a.rpz", "--bogus"),
    ("compress", "a", "b", "--compressor", "NOPE"),
)


def _label(argv: tuple[str, ...]) -> str:
    return " ".join(argv) or "(no arguments)"


def capture(argv: tuple[str, ...], run=main) -> dict:
    """Exit code, stdout and stderr of ``run(argv)`` at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def capture_all() -> dict:
    """Every case's capture, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_cli_usage_golden", "--print"],
        cwd=Path(__file__).parent.parent, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


_GOLDEN_DATA = (json.loads(GOLDEN.read_text()) if GOLDEN.exists()
                else {"python": None, "cases": {}})
_SAME_PYTHON = _GOLDEN_DATA["python"] == "%d.%d" % sys.version_info[:2]


def test_golden_covers_every_case():
    assert sorted(_GOLDEN_DATA["cases"]) == sorted(_label(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_label)
def test_one_command_parser_prints_what_the_whole_tree_prints(argv):
    # Holds on every Python version, whatever argparse's wording.
    assert capture(argv) == capture(argv, lambda args: _parser().parse_args(args))


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture_all()


@pytest.mark.skipif(not _SAME_PYTHON, reason="argparse wording differs between "
                    f"Python versions; goldens captured on {_GOLDEN_DATA['python']}")
@pytest.mark.parametrize("argv", CASES, ids=_label)
def test_usage_matches_golden(argv, captured):
    assert captured["cases"][_label(argv)] == _GOLDEN_DATA["cases"][_label(argv)]


if __name__ == "__main__":
    if "--print" in sys.argv[1:]:
        print(json.dumps({
            "python": "%d.%d" % sys.version_info[:2],
            "cases": {_label(argv): capture(argv) for argv in CASES},
        }))
    elif "--update" in sys.argv[1:]:
        GOLDEN.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: python -m tests.test_cli_usage_golden --update")
