"""Golden reports: stdout and exit code of ``cli.main`` for a fixed set of argv.

Every mode, including the ``compute-homology`` alias, runs in each output
format, on passing and on failing configurations. The fixtures under
``tests/golden/`` hold the expected stdout, one file per case, and
``tests/golden/exit_codes.json`` the expected exit codes. A refactor that
keeps the program's behaviour keeps all of them byte-identical.

Regenerate the fixtures (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py

which prints each case whose bytes or exit code changed before it writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from brieskorn import cli, tolerances

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
FORMATS = ("json", "tsv", "text")

# (case name, argv without --format); floors stay >= -20 and samples <= 50,
# except the default 1000 samples of the lab's invariance block
CASES = (
    ("invariants-2-3-7", ["invariants", "--exponents", "2,3,7"]),
    ("invariants-2-2-2-3", ["invariants", "--exponents", "2,2,2,3"]),
    ("generators-default", ["generators", "--exponents", "2,3,7"]),
    ("generators-floor", ["generators", "--exponents", "2,3,7", "--grading-floor", "-6"]),
    ("generators-action", ["generators", "--exponents", "2,3,7", "--action-bound", "5/2"]),
    ("complex", ["complex", "--exponents", "2,3,7", "--classes", "2"]),
    ("homology", ["homology", "--exponents", "2,3,7", "--grading-floor", "-10"]),
    ("compute-homology",
     ["compute-homology", "--exponents", "2,3,11", "--grading-floor", "-6"]),
    ("compare", ["compare", "--exponents", "2,2,2,3", "--grading-floor", "-12"]),
    ("compare-2-3-7-floor-20", ["compare", "--exponents", "2,3,7", "--grading-floor", "-20"]),
    ("verify-geometry-2-3-7", ["verify-geometry", "--exponents", "2,3,7"]),
    ("verify-geometry-2-3-5-7",
     ["verify-geometry", "--exponents", "2,3,5,7", "--samples", "10", "--seed", "3"]),
    ("verify-geometry-loose-tol",
     ["verify-geometry", "--exponents", "2,3,7", "--tol", "area=1e-6",
      "--tol", "invariance=1e-7"]),
    # the relation check's sample points at a non-default count and seed
    ("verify-geometry-2-3-7-samples",
     ["verify-geometry", "--exponents", "2,3,7", "--samples", "50", "--seed", "7"]),
    ("verify-dynamics-2-3-7",
     ["verify-dynamics", "--exponents", "2,3,7", "--samples", "50", "--seed", "7"]),
    ("verify-dynamics-default-samples", ["verify-dynamics", "--exponents", "2,3,7"]),
    ("verify-dynamics-no-samples",
     ["verify-dynamics", "--exponents", "2,3,7", "--samples", "0"]),
    # a five-vertex lab tuple: its polygon is shot as a fan of three triangles
    ("verify-geometry-5-5-9-6-3", ["verify-geometry", "--exponents", "5,5,9,6,3"]),
    ("verify-dynamics-5-5-9-6-3",
     ["verify-dynamics", "--exponents", "5,5,9,6,3", "--samples", "20"]),
    ("verify-dynamics-epsilons",
     ["verify-dynamics", "--exponents", "2,3,7", "--samples", "10", "--epsilon", "0.5",
      "--epsilon", "1e-4", "--iterates", "3"]),
    # failing configurations
    ("not-hyperbolic", ["invariants", "--exponents", "2,3,5"]),
    ("invalid-exponent", ["invariants", "--exponents", "1,3,7"]),
    # homology and compare take no --classes: an unrecognized argument
    ("incomplete-window",
     ["homology", "--exponents", "2,3,7", "--grading-floor", "-10", "--classes", "2"]),
    ("exclusive-filters",
     ["generators", "--exponents", "2,3,7", "--action-bound", "2", "--grading-floor", "-4"]),
    ("malformed-tol", ["invariants", "--exponents", "2,3,7", "--tol", "nonsense"]),
    ("verify-geometry-area-tol",
     ["verify-geometry", "--exponents", "2,3,7", "--tol", "area=1e-30"]),
    # the polygon's angle verdict, in each lab mode: exits 3 on angle_error
    ("verify-geometry-angle-tol",
     ["verify-geometry", "--exponents", "2,3,7", "--tol", "angle=1e-30"]),
    ("verify-dynamics-angle-tol",
     ["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--tol", "angle=1e-30"]),
    ("verify-geometry-50-60-70", ["verify-geometry", "--exponents", "50,60,70"]),
    ("verify-geometry-50-60-70-samples",
     ["verify-geometry", "--exponents", "50,60,70", "--samples", "50", "--seed", "7"]),
    # exits 3 on its matrix and lifted relations
    ("verify-geometry-100-100-100", ["verify-geometry", "--exponents", "100,100,100"]),
    ("verify-dynamics-2-3-5-7",
     ["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "50"]),
    ("verify-dynamics-zero-epsilon",
     ["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--epsilon", "0",
      "--iterates", "1"]),
    # the longest periods of the lab workload; exits 3 on determinant drift
    ("verify-dynamics-50-60-70",
     ["verify-dynamics", "--exponents", "50,60,70", "--samples", "10"]),
)

IDS = [f"{name}.{fmt}" for name, _ in CASES for fmt in FORMATS]
ARGV = {f"{name}.{fmt}": [*argv, "--format", fmt] for name, argv in CASES for fmt in FORMATS}


@pytest.mark.parametrize("case", IDS)
def test_golden_report(case, capsys, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    code = cli.main(ARGV[case])
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
    assert code == json.loads(EXIT_CODES.read_text())[case]


def _leaf_lines(node, path=""):
    """One ``path<TAB>compact JSON`` line per leaf: dicts and lists holding a
    dict are walked, anything else (empty containers too) is a leaf."""
    if isinstance(node, dict) and node:
        items = [(f"{path}.{key}" if path else key, child) for key, child in node.items()]
    elif isinstance(node, list) and any(isinstance(child, dict) for child in node):
        items = [(f"{path}[{i}]", child) for i, child in enumerate(node)]
    else:
        return [f"{path}\t{json.dumps(node, separators=(',', ':'))}"]
    return [line for child_path, child in items for line in _leaf_lines(child, child_path)]


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_text_and_tsv_print_every_leaf_of_the_json_report(name, capsys, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    out = {}
    for fmt in FORMATS:
        code = cli.main(ARGV[f"{name}.{fmt}"])
        out[fmt] = capsys.readouterr().out
    report = json.loads(out["json"])
    tsv = out["tsv"].splitlines()
    assert sorted(tsv) == sorted(_leaf_lines(report))
    assert out["text"].splitlines() == [line.replace("\t", " = ", 1) for line in tsv]
    # a failing run names its failures in every format; a missed tolerance
    # names the check, its measured value and the tolerance
    assert bool(report.get("errors")) == (code != 0)
    assert any(line.startswith("errors[0].type\t") for line in tsv) == (code != 0)
    for error in report.get("errors", []):
        if error["type"] == "CheckFailed":
            assert {"check", "value", "tolerance"} <= error.keys()


def _regenerate() -> None:
    import contextlib
    import io
    import os

    from regeneration import print_changes

    os.environ.pop(tolerances.ENV_VAR, None)
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    paths = {case: GOLDEN / f"{case}.out" for case in IDS}
    old = {case: {"exit": codes.get(case), "out": path.read_text()}
           for case, path in paths.items() if path.exists()}
    new = {}
    for case in IDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(ARGV[case])
        new[case] = {"exit": code, "out": buffer.getvalue()}
    print_changes(old, new)
    for case, entry in new.items():
        paths[case].write_text(entry["out"])
    EXIT_CODES.write_text(json.dumps({case: entry["exit"] for case, entry in new.items()},
                                     indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
