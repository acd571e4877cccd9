"""Byte guard on the numerical lab: the JSON report of ``verify-geometry`` and
``verify-dynamics``, at default flags, on every tuple of the benchmark's
``lab`` workload.

The golden fixtures pin a few configurations in full; this test pins the
sha256 digest of the JSON report and the exit code of both modes on all 32
tuples, so a refactor of the polygon, the half-plane or the integrator that
changes one bit of any of these reports fails here. The tuples are written
out below: a fixed draw of 30 from the fuzz family (n = 3..5, a_j = 2..9)
and two fixed cases.

Regenerate the digests (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_lab_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from brieskorn import cli, tolerances

DIGESTS = Path(__file__).resolve().parent / "golden" / "lab_report_digests.json"
MODES = ("verify-geometry", "verify-dynamics")
LAB_TUPLES = (
    (4, 8, 9, 2), (9, 4, 4, 7), (7, 6, 4), (8, 4, 5, 5), (9, 5, 6, 8),
    (9, 4, 4, 7, 4), (5, 5, 9, 6, 3), (5, 3, 7), (5, 8, 6), (8, 9, 4, 8),
    (8, 3, 5), (3, 3, 8, 5, 4), (4, 6, 9), (4, 5, 8, 2), (4, 2, 6, 6),
    (7, 8, 8, 5, 3), (9, 7, 9, 8), (5, 5, 5, 9), (8, 8, 4, 9), (5, 9, 7, 5),
    (4, 5, 6, 7), (5, 2, 6), (6, 6, 6, 4), (6, 5, 8, 8, 6), (7, 6, 5, 2),
    (4, 6, 7), (9, 3, 2, 9), (5, 2, 9, 9), (9, 7, 6), (5, 6, 7, 9, 7),
    (2, 3, 5, 7), (50, 60, 70),
)
CASES = [f"{mode} {','.join(map(str, exponents))}"
         for exponents in LAB_TUPLES for mode in MODES]


def _digest(case: str) -> dict:
    mode, csv = case.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([mode, "--exponents", csv, "--format", "json"])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_every_lab_report_keeps_its_bytes(monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(CASES)
    changed = [case for case in CASES if _digest(case) != expected[case]]
    assert not changed, f"{len(changed)} lab reports changed: {changed}"


def _regenerate() -> None:
    import os

    os.environ.pop(tolerances.ENV_VAR, None)
    DIGESTS.write_text(json.dumps({case: _digest(case) for case in CASES}, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
