"""Byte guard on deep ``compare`` reports: thousands of gradings in one report.

The golden fixtures hold no dims dict with more than about 15 entries. This
test pins the sha256 digest of the json, tsv and text output and the exit
code of ``compare`` on tuples with 3 to 10 orbifold points, fiber winding
w <= 4 and grading floors from -500 to -4000, the range of the benchmark's
``exact-deep`` workload, and of ``homology`` on four of them. So a change to
the tiling, the comparison, the Poincare series or the rendering of a deep
report that moves one byte fails here.

One more case swaps in a closed form whose base block is one too large at
its odd grading -3, so that the oracle differs from the chain side at every
odd grading, and a report with ``comparison.first_mismatch`` and exit code 2
is pinned too. (Each side hands over one period, so a skew cannot sit at a
single deep grading.)

Regenerate the digests (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_deep_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from brieskorn import cli, closedform, tolerances

DIGESTS = Path(__file__).resolve().parent / "golden" / "deep_report_digests.json"
FORMATS = ("json", "tsv", "text")
DEEP_CASES = (
    ((2, 3, 7), -4000),       # 3 minima, w = 1
    ((2, 4, 7), -2899),       # 4 minima, w = 3
    ((3, 3, 7), -529),        # 5 minima, w = 4
    ((2, 6, 9), -1797),       # 6 minima, w = 4, genus 1
    ((3, 4, 4), -2567),       # 6 minima, w = 2
    ((2, 5, 5), -3001),       # 7 minima, w = 1
    ((2, 6, 12), -1210),      # 10 minima, w = 3, genus 2
    ((2, 2, 3, 3), -2366),    # 10 minima, w = 2, genus 2
    ((2, 2, 2, 5), -500),     # 10 minima, w = 3
)
# homology mode on one tuple of each genus 0, 1 and 2, and the shallowest floor
HOMOLOGY_CASES = (DEEP_CASES[0], DEEP_CASES[3], DEEP_CASES[6], DEEP_CASES[8])
CASES = [
    f"{mode} {','.join(map(str, exponents))} {floor}"
    for mode, cases in (("compare", DEEP_CASES), ("homology", HOMOLOGY_CASES))
    for exponents, floor in cases
]
# the closed form's base block is off by one at this grading only
MISMATCH_CASE = "compare 2,3,7 -2000 block skewed at -3"
MISMATCH_GRADING = -3


def _skewed_closed_form(data, grading_floor):
    answer = closedform.closed_form_homology(data, grading_floor)
    block = dict(answer.block)
    block[MISMATCH_GRADING] = block.get(MISMATCH_GRADING, 0) + 1
    return replace(answer, block=block)


def _argv(case: str, fmt: str) -> list[str]:
    mode, csv, floor = case.split()[:3]
    return [mode, "--exponents", csv, "--grading-floor", floor, "--format", fmt]


def _digest(case: str) -> dict:
    digest = {}
    for fmt in FORMATS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(_argv(case, fmt))
        digest.setdefault("exit", code)
        assert digest["exit"] == code
        digest[fmt] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digest


@pytest.fixture
def expected(monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    digests = json.loads(DIGESTS.read_text())
    assert sorted(digests) == sorted(CASES + [MISMATCH_CASE])
    return digests


def test_every_deep_report_keeps_its_bytes(expected):
    changed = [case for case in CASES if _digest(case) != expected[case]]
    assert not changed, f"{len(changed)} deep reports changed: {changed}"


def test_a_deep_mismatch_report_keeps_its_bytes(expected, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_homology", _skewed_closed_form)
    got = _digest(MISMATCH_CASE)
    assert got["exit"] == cli.EXIT_MISMATCH
    assert got == expected[MISMATCH_CASE]
    # the sides differ, so each keeps its own dims dict
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare",
                                         grading_floor=-2000))
    assert code == cli.EXIT_MISMATCH
    assert report["oracle"] is not report["homology"]["dims"]
    assert report["oracle"] != report["homology"]["dims"]


def _regenerate() -> None:
    import os

    os.environ.pop(tolerances.ENV_VAR, None)
    digests = {case: _digest(case) for case in CASES}
    cli.closed_form_homology = _skewed_closed_form
    digests[MISMATCH_CASE] = _digest(MISMATCH_CASE)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
