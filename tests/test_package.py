"""The public names of the package, the code its command line runs, and the
exact side's kept mutants."""

import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import brieskorn
import test_cli
import test_closedform
import test_homology
import test_invariants
import test_orbits
from brieskorn import cli, closedform, homology, invariants, orbits, tolerances
from test_golden import ARGV

PACKAGE = Path(brieskorn.__file__).resolve().parent


def test_star_import_binds_every_public_name_once():
    names = brieskorn.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(brieskorn, name)] == []
    namespace = {}
    exec("from brieskorn import *", namespace)
    for name in names:
        assert namespace[name] is getattr(brieskorn, name)


# numpy and the lab's float modules: no exact mode may load one
FLOAT_MODULES = ["numpy", "brieskorn.dynamics", "brieskorn.halfplane", "brieskorn.polygon"]
EXACT_ARGVS = [
    ["invariants", "--exponents", "2,3,7"],
    ["generators", "--exponents", "2,3,7", "--grading-floor", "-10"],
    ["generators", "--exponents", "2,3,7", "--action-bound", "5/2"],
    ["complex", "--exponents", "2,3,7"],
    ["homology", "--exponents", "2,3,7"],
    ["compare", "--exponents", "2,3,7"],
]
# runs every exact argv, then both lab modes, in one fresh interpreter, and
# prints the exit codes and which FLOAT_MODULES were loaded after each part
_LOADED_CHILD = """
import contextlib, io, json, sys
from brieskorn import cli
names, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
    exact = [name for name in names if name in sys.modules]
    codes += [cli.main([mode, "--exponents", "2,3,7"])
              for mode in ("verify-geometry", "verify-dynamics")]
print(json.dumps([codes, exact, [name for name in names if name in sys.modules]]))
"""


def assert_exact_modes_load_no_float_code(src):
    """The exact modes, run from the package under ``src``, load none of
    FLOAT_MODULES, in process and as ``python -m brieskorn compare``; the
    two lab modes load them all."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(tolerances.ENV_VAR, None)
    child = subprocess.run([sys.executable, "-c", _LOADED_CHILD, json.dumps(FLOAT_MODULES),
                            json.dumps(EXACT_ARGVS)], cwd=src, env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    codes, exact, lab = json.loads(child.stdout)
    assert codes == [0] * (len(EXACT_ARGVS) + 2)
    assert exact == []
    assert lab == FLOAT_MODULES
    # -X importtime names on stderr every module the command imports
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "brieskorn", "compare",
                            "--exponents", "2,3,7"], cwd=src, env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    imported = {line.rpartition("|")[2].strip() for line in child.stderr.splitlines()}
    assert "brieskorn.cli" in imported
    assert imported.isdisjoint(FLOAT_MODULES)


def test_the_exact_modes_load_no_float_code():
    assert_exact_modes_load_no_float_code(PACKAGE.parent)


# mutants of the float-free import: (a module, a substitution in its source);
# the package written with it must fail assert_exact_modes_load_no_float_code
IMPORT_MUTANTS = {
    "numpy imported by an exact module": (
        "orbits.py", test_cli._substitute("\nimport math\n", "\nimport math\n\nimport numpy\n")),
}


@pytest.mark.parametrize("mutant", IMPORT_MUTANTS)
def test_the_float_free_import_test_kills_each_mutant(mutant, tmp_path):
    name, mutate = IMPORT_MUTANTS[mutant]
    package = tmp_path / "brieskorn"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / name).write_text(mutate((package / name).read_text()))
    with pytest.raises(AssertionError):
        assert_exact_modes_load_no_float_code(tmp_path)


def package_defs(tree, prefix=""):
    """(first line, qualified name) of every def under an AST node: methods
    under their class, nested defs under ``<locals>``. A decorated def's first
    line is its first decorator's, as its code object counts it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield min([node.lineno] + [d.lineno for d in node.decorator_list]), name
            yield from package_defs(node, f"{name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from package_defs(node, f"{prefix}{node.name}.")
        else:
            yield from package_defs(node, prefix)


# the defs that no command-line run enters, by name or, for any class's
# __repr__, by method name, each with the reason it stays in the package
NOT_ENTERED = {
    "__repr__": "a debugging aid: no report prints an object",
    "__getattr__": "the library's public names; the command line imports the modules it runs",
    "RationalMatrix.multiply": "the compose-to-zero check multiplies two consecutive "
    "differentials only when both are non-zero, and no fiber-class complex has two: "
    "its outer ones are zero",
}


def test_every_def_of_the_package_runs_in_some_golden_case(monkeypatch):
    # every golden argv, in all three formats, under a profile hook: a def
    # that none of them enters is code only the tests use, and belongs there
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            for argv in ARGV.values():
                cli.main(argv)
        finally:
            sys.setprofile(previous)
    entered = {(os.path.realpath(path), line) for path, line in entered}
    missed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in package_defs(ast.parse(path.read_text())):
            if (str(path), line) not in entered:
                missed.add(f"{path.stem}.{name}")
    allowed = {name for name in missed
               if {name.rsplit(".", 1)[-1], name.split(".", 1)[1]} & NOT_ENTERED.keys()}
    assert missed - allowed == set()
    assert "homology.RationalMatrix.multiply" in missed


def test_homology_imports_nothing_from_fractions():
    # its matrices hold ints, and their rank over Q needs no Fraction
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "homology.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert "fractions" not in imported


def _bind_runs(mp, copy):
    """Binds a mutated copy of orbits where the test of the fiber complex
    reads build_complex, making the real OrbitGenerator, so that only the
    mutation can tell the two complexes apart."""
    mp.setattr(copy, "OrbitGenerator", orbits.OrbitGenerator)
    mp.setattr(test_orbits, "build_complex", copy.build_complex)


def _bind_rank(mp, copy):
    """Binds the mutated rank to the globals of homology itself, so that the
    killer's patch of the module's ``dict`` and ``min`` reaches it."""
    mp.setattr(homology.RationalMatrix, "rank", types.FunctionType(
        copy.RationalMatrix.rank.__code__, vars(homology)))


# mutants of the exact side: (a module, a substitution in its source, how
# the mutated copy of the module is bound, the test that must fail against it)
EXACT_MUTANTS = {
    "tree one column short": (
        orbits, test_cli._substitute("for c in range(M - 1):", "for c in range(M - 2):"),
        lambda mp, copy: mp.setattr(closedform, "build_complex", copy.build_complex),
        lambda mp, _: test_closedform.test_chain_equals_closed_form_on_window()),
    "the saddle run counts the point field": (
        orbits, test_cli._substitute('"saddle", saddle_count(data)', '"point", saddle_count(data)'),
        _bind_runs,
        lambda mp, corpus: test_orbits.test_fiber_complex_equals_the_orbit_by_orbit_complex(
            corpus)),
    "a run's counter starts at 0": (
        orbits, test_cli._substitute("range(1, count + 1)", "range(count)"),
        _bind_runs,
        lambda mp, corpus: test_orbits.test_fiber_complex_equals_the_orbit_by_orbit_complex(
            corpus)),
    "a tree column's second entry is +1": (
        orbits, test_cli._substitute("columns[c] = {c: 1, c + 1: -1}",
                                     "columns[c] = {c: 1, c + 1: 1}"),
        _bind_runs,
        lambda mp, corpus: test_orbits.test_fiber_complex_equals_the_orbit_by_orbit_complex(
            corpus)),
    "rank eliminates the matrix's own rows": (
        homology, test_cli._substitute("column = dict(column)", "column = column"),
        _bind_rank,
        lambda mp, _: (
            test_homology.test_rank_leaves_the_matrix_and_copies_only_the_columns_it_changes(mp))),
    "rank copies every column before it is bucketed": (
        homology, test_cli._substitute(
            "if column:\n                buckets.setdefault(min(column), []).append(column)",
            "if column:\n                buckets.setdefault(min(column), []).append(dict(column))"),
        _bind_rank,
        lambda mp, corpus: (
            test_homology.test_a_fiber_class_boundary_is_ranked_without_a_copy_or_a_deletion(
                mp, corpus))),
    "a singleton pivot drops the rows it deletes from": (
        homology, test_cli._substitute("                    if column:\n",
                                       "                    if column and pivot is not None:\n"),
        lambda mp, copy: mp.setattr(homology.RationalMatrix, "rank", copy.RationalMatrix.rank),
        lambda mp, _: test_homology.test_singleton_candidates_agree_with_dense_rank()),
    "gap numerator without the first exponent": (
        invariants, test_cli._substitute("for a in self.exponents)", "for a in self.exponents[1:])"),
        lambda mp, copy: mp.setattr(invariants.BrieskornParams, "gap_over_lcm",
                                    copy.BrieskornParams.gap_over_lcm),
        lambda mp, corpus: test_invariants.test_the_gap_is_an_integer_numerator_over_the_lcm(
            corpus)),
    "comparison window one grading short": (
        closedform, test_cli._substitute("math.lcm(chain.period, oracle.period) + 1)",
                                         "math.lcm(chain.period, oracle.period) + 2)"),
        lambda mp, copy: mp.setattr(test_closedform, "compare_graded", copy.compare_graded),
        lambda mp, _: test_closedform.test_window_agrees_with_the_full_scan()),
    "stale __all__ entry": (
        brieskorn, test_cli._substitute('    "measured_interior_angles": "polygon",\n',
                                        '    "measured_interior_angles": "polygon",\n'
                                        '    "mobius_apply": "halfplane",\n'),
        lambda mp, copy: (mp.setitem(sys.modules, "brieskorn", copy),
                          mp.setitem(globals(), "brieskorn", copy)),
        lambda mp, _: test_star_import_binds_every_public_name_once()),
}


@pytest.mark.parametrize("mutant", EXACT_MUTANTS)
def test_the_exact_side_tests_kill_each_mutant(mutant, monkeypatch, fuzz_corpus):
    module, mutate, bind, killer = EXACT_MUTANTS[mutant]
    copy = types.ModuleType(module.__name__)
    copy.__package__ = module.__package__  # its relative imports reach the loaded modules
    exec(compile(mutate(Path(module.__file__).read_text()), module.__file__, "exec"), vars(copy))
    bind(monkeypatch, copy)
    with pytest.raises(AssertionError):
        killer(monkeypatch, fuzz_corpus)
