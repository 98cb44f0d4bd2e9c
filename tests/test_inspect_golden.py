"""Golden outputs of the stream-inspection commands.

``info``, ``stats``, ``verify``, ``explain --json``, ``audit --json`` and
``repair --json`` all read a compressed stream without an original.  This
module pins what each command prints, writes and exits with for the v1-v4
streams of the legacy corpus (:mod:`tests.test_legacy_corpus`, written by
the v1-v4 writer, whose goldens that writer's readers produced) and their
v5 counterparts written now from the same field, each clean, truncated at a
seeded offset, and with four seeded bit flips.  A refactor of the readers
behind these commands must leave every output unchanged.

``stats`` output drops its timing line and the decode-metrics block, which
vary from run to run.  Floats inside the JSON outputs compare with a
relative tolerance of 1e-9; everything else compares exactly.

Regenerate the goldens (only after a deliberate output change) with::

    PYTHONPATH=src python -m tests.test_inspect_golden --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.testing import faults

from tests.test_legacy_corpus import corpus_field, legacy_streams, write_streams

GOLDEN = Path(__file__).parent / "golden" / "inspect_golden.json"
COMMANDS = ("info", "stats", "verify", "explain", "audit", "repair")


def fixtures() -> dict[str, bytes]:
    """``{label: blob}``: every fixture clean, truncated and bit-flipped."""
    clean = {**legacy_streams(), **write_streams(corpus_field())}
    out: dict[str, bytes] = {}
    for seed, (label, blob) in enumerate(clean.items()):
        keep = int(np.random.default_rng(seed).integers(6, len(blob) - 1))
        out[label] = blob
        out[f"{label}+truncate"] = faults.truncate(blob, keep)
        out[f"{label}+flip4"] = faults.flip_random_bits(blob, n=4, seed=seed)
    return out


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strip_stats(text: str) -> str:
    """Drop the run-dependent lines of ``stats`` output."""
    keep = []
    for line in text.splitlines():
        if line.startswith("decode metrics:"):
            break
        if not line.startswith("decode:"):
            keep.append(line)
    return "\n".join(keep)


def _read_json(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    os.remove(path)
    return data


def capture(command: str, stream: str) -> dict:
    """One command's exit code, stdout, stderr and written files."""
    if command == "explain":
        code, out, err = _run(["explain", stream, "--json", "r.json"])
        return {"code": code, "stdout": out, "stderr": err, "json": _read_json("r.json")}
    if command == "audit":
        code, out, err = _run(["audit", stream, "--json", "r.json"])
        return {"code": code, "stdout": out, "stderr": err, "json": _read_json("r.json")}
    if command == "repair":
        code, out, err = _run(["repair", stream, "fixed.rpz", "--json", "r.json"])
        digest = None
        if os.path.exists("fixed.rpz"):
            digest = hashlib.sha256(Path("fixed.rpz").read_bytes()).hexdigest()
            os.remove("fixed.rpz")
        return {
            "code": code, "stdout": out, "stderr": err,
            "json": _read_json("r.json"), "output_sha256": digest,
        }
    code, out, err = _run([command, stream])
    if command == "stats":
        out = _strip_stats(out)
    return {"code": code, "stdout": out, "stderr": err}


def capture_all() -> dict[str, dict[str, dict]]:
    """``{fixture: {command: capture}}`` run in the current directory."""
    results: dict[str, dict[str, dict]] = {}
    for label, blob in fixtures().items():
        Path("s.rpz").write_bytes(blob)
        results[label] = {cmd: capture(cmd, "s.rpz") for cmd in COMMANDS}
    os.remove("s.rpz")
    return results


def _same(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-300) or (
            math.isnan(want) and math.isnan(got)
        ), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def captured(tmp_path_factory) -> dict[str, dict[str, dict]]:
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden"))
    try:
        return capture_all()
    finally:
        os.chdir(cwd)


_GOLDEN_DATA = json.loads(GOLDEN.read_text())


def test_golden_covers_every_fixture():
    assert sorted(_GOLDEN_DATA) == sorted(fixtures())
    assert all(sorted(cmds) == sorted(COMMANDS) for cmds in _GOLDEN_DATA.values())


def test_explain_ok_means_verify_ok():
    from repro.integrity import verify_stream
    from repro.observe.quality import explain_stream

    for label, blob in fixtures().items():
        assert explain_stream(blob).ok == verify_stream(blob).ok, label


@pytest.mark.parametrize("label", sorted(_GOLDEN_DATA))
@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_matches_golden(command, label, captured):
    _same(captured[label][command], _GOLDEN_DATA[label][command], f"{label}/{command}")


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.test_inspect_golden --update")
    import tempfile

    target = GOLDEN.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        data = capture_all()
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"wrote {target}")
