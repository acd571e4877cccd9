"""Byte guard on the numerical lab: the JSON report of ``verify-geometry`` and
``verify-dynamics``, at default flags, on every tuple of the benchmark's
``lab`` workload, and the guards that keep those bytes independent of the
BLAS library numpy links.

The golden fixtures pin a few configurations in full; this test pins the
sha256 digest of the JSON report and the exit code of both modes on all 32
tuples, so a refactor of the polygon, the half-plane or the integrator that
changes one bit of any of these reports fails here. The tuples are written
out below: a fixed draw of 30 from the fuzz family (n = 3..5, a_j = 2..9)
and two fixed cases.

Regenerate the digests (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_lab_reports.py

which prints each case whose bytes or exit code changed before it writes.

The lab makes no BLAS or LAPACK call: an AST guard keeps ``@`` and the
names ``matmul``, ``linalg``, ``dot`` and ``einsum`` out of the package,
and where numpy reports OpenBLAS, whose kernels round a matrix product
differently with and without fused multiply-add, a child process under a
forced non-FMA kernel must print the same reports.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brieskorn import cli, halfplane, tolerances

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


BLAS_NAMES = {"matmul", "linalg", "dot", "einsum"}


def blas_uses(source: str) -> list[str]:
    """Each ``@`` in the source, and each name, attribute or import among
    BLAS_NAMES, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.alias) and BLAS_NAMES & {*node.name.split("."), node.asname}:
            found.append(f"{node.lineno}: import {node.name}")
    return found


def test_no_module_of_the_package_calls_blas():
    package = Path(cli.__file__).parent
    found = {path.name: blas_uses(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


# source substitutions on a copy of a module, (module, text, replacement),
# that the BLAS guard must catch
BLAS_MUTANTS = {
    "one @ restored in halfplane": (
        halfplane,
        "    return (m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,\n"
        "            m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)",
        "    return tuple((np.array([[m.a, m.b], [m.c, m.d]])\n"
        "                  @ np.array([[n.a, n.b], [n.c, n.d]])).ravel().tolist())"),
}


@pytest.mark.parametrize("mutant", BLAS_MUTANTS)
def test_the_blas_guard_kills_each_mutant(mutant):
    module, text, replacement = BLAS_MUTANTS[mutant]
    source = Path(module.__file__).read_text()
    assert source.count(text) == 1
    assert blas_uses(source) == []
    mutated = source.replace(text, replacement)
    compile(mutated, module.__file__, "exec")
    assert blas_uses(mutated)


def _blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return ""
    return str(info.get("Build Dependencies", {}).get("blas", {}).get("name", ""))


# a report of each lab mode, on a triangle, on the one failing lab tuple
# and on a four-vertex fan at the default 1000 invariance samples
KERNEL_CASES = (
    ["verify-geometry", "--exponents", "2,3,7"],
    ["verify-geometry", "--exponents", "50,60,70"],
    ["verify-dynamics", "--exponents", "2,3,5,7"],
)
_RENDER_CHILD = """
import contextlib, io, json, sys
from brieskorn import cli
reports = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    reports.append([code, out.getvalue()])
json.dump(reports, sys.stdout)
"""


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy does not report OpenBLAS, whose kernel OPENBLAS_CORETYPE forces")
def test_lab_reports_do_not_depend_on_the_openblas_kernel(monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    here = []
    for argv in KERNEL_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        here.append([code, out.getvalue()])
    # the kernel is chosen when OpenBLAS loads, so it is forced in a child;
    # Sandybridge has no fused multiply-add, the kernel this machine picks may
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", _RENDER_CHILD], input=json.dumps(KERNEL_CASES),
                           capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(child.stdout) == here


def _regenerate() -> None:
    import os

    from regeneration import print_changes

    os.environ.pop(tolerances.ENV_VAR, None)
    digests = {case: _digest(case) for case in CASES}
    print_changes(json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}, digests)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
