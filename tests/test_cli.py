"""Command-line interface: exit codes, payloads, determinism."""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brieskorn import cli, dynamics, errors, halfplane, polygon, tolerances, validate_params
from brieskorn.errors import NotHyperbolic
import test_polygon
from test_polygon import turn_every_rotation
from brieskorn.cli import EXIT_MISMATCH, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main, render, run


def run_cli(argv):
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    code, report = run(config)
    return code, report


def test_homology_worked_example():
    code, report = run_cli(
        ["compute-homology", "--exponents", "2,3,7", "--grading-floor", "-10"]
    )
    assert code == EXIT_OK
    assert report["homology"]["dims"] == {
        "-2": 10, "-4": 11, "-6": 11, "-8": 11, "-10": 11,
    }


def test_invariants_not_hyperbolic_exit_code():
    code, report = run_cli(["invariants", "--exponents", "2,3,5"])
    assert code == EXIT_VALIDATION
    assert report["errors"][0]["type"] == "NotHyperbolic"
    assert report["errors"][0]["gap"] == "-1/30"


def test_invalid_exponent_exit_code():
    code, report = run_cli(["invariants", "--exponents", "1,3,7"])
    assert code == EXIT_VALIDATION
    assert report["errors"][0]["type"] == "InvalidExponent"


def test_compare_equal():
    code, report = run_cli(
        ["compare", "--exponents", "2,2,2,3", "--grading-floor", "-12"]
    )
    assert code == EXIT_OK
    assert report["comparison"]["equal"] is True


def test_compare_mismatch_exit_code(monkeypatch):
    def broken_oracle(data, floor):
        # the closed form's base block is one too large at its top grading
        from brieskorn import closed_form_homology

        answer = closed_form_homology(data, floor)
        answer.block[-2] = answer.block.get(-2, 0) + 1
        return answer

    monkeypatch.setattr(cli, "closed_form_homology", broken_oracle)
    code, report = run_cli(["compare", "--exponents", "2,3,7", "--grading-floor", "-6"])
    assert code == EXIT_MISMATCH
    assert report["comparison"]["first_mismatch"]["grading"] == -2
    [error] = report["errors"]
    assert error["type"] == "ComparisonMismatch"
    assert "grading -2" in error["message"]


def test_generators_action_bound_count():
    code, report = run_cli(["generators", "--exponents", "2,3,7", "--action-bound", "2"])
    assert code == EXIT_OK
    assert len(report["generators"]) == 30


def test_generators_filters_mutually_exclusive():
    args = cli.build_parser().parse_args(
        ["generators", "--exponents", "2,3,7", "--action-bound", "2",
         "--grading-floor", "-4"]
    )
    with pytest.raises(ValueError):
        cli.config_from_args(args)


def test_complex_mode_payload():
    code, report = run_cli(["complex", "--exponents", "2,3,7", "--classes", "2"])
    assert code == EXIT_OK
    first = report["differentials"][0]
    assert first["class"] == "fiber:1"
    assert first["generators"]["-4"] == ["v1.1^2", "v2.1^3", "v3.1^7"]
    assert first["matrices"]["-3"] == [[1, 0], [-1, 1], [0, -1]]


def test_verify_geometry_exit_and_payload():
    code, report = run_cli(["verify-geometry", "--exponents", "2,3,7"])
    assert code == EXIT_OK
    ver = report["verification"]
    assert ver["area"]["error"] < 1e-12
    assert max(ver["angle_errors"]) < 1e-10
    assert all(v < 1e-8 for v in ver["relations"].values())


def test_verify_dynamics_exit_and_payload():
    code, report = run_cli(
        ["verify-dynamics", "--exponents", "2,3,7", "--samples", "50", "--iterates", "2"]
    )
    assert code == EXIT_OK
    ver = report["verification"]
    assert ver["invariance"]["max_form_residual"] < 1e-8
    for row in ver["rotation_table"]:
        assert row["cz"] == row["cz_formula"]
        assert row["relative_error"] < 1e-6


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_dynamics_computes_each_sample_and_row_once(monkeypatch):
    draws = _count_calls(monkeypatch, halfplane, "random_samples")
    residuals = _count_calls(monkeypatch, halfplane, "invariance_residuals")
    integrations = _count_calls(monkeypatch, dynamics, "integrate_monodromy")
    code, report = run_cli(
        ["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "30", "--seed", "3"]
    )
    assert code == EXIT_OK
    # one draw call, from the seed, hands all 30 samples to one array call
    assert draws == [(3, 30)]
    assert [tuple(map(len, args)) for args in residuals] == [(30, 30)]
    rows = report["verification"]["rotation_table"]
    keys = [(row["vertex"], row["iterate"], row["epsilon"]) for row in rows]
    # both default epsilons clamp to one window limit on some rows; each key is
    # integrated once and its row emitted once per requested epsilon
    assert len(rows) == 16 and len(set(keys)) == 12
    assert len(integrations) == len(set(keys))
    for row, key in zip(rows, keys):
        assert row == rows[keys.index(key)]


@pytest.mark.parametrize("mode", ["verify-geometry", "verify-dynamics"])
def test_each_lab_run_measures_the_interior_angles_once(mode, monkeypatch):
    unmeasured = run_cli([mode, "--exponents", "2,3,4,5", "--samples", "5"])
    measured = _count_calls(monkeypatch, polygon, "measured_interior_angles")
    tangents = _count_calls(monkeypatch, polygon, "initial_direction")
    assert run_cli([mode, "--exponents", "2,3,4,5", "--samples", "5"]) == unmeasured
    # the angle check, the angle errors and the area share one measurement,
    # which takes two tangents at each of the four vertices
    assert len(measured) == 1
    assert len(tangents) == 8


def test_each_nondegeneracy_entry_names_its_rotation_row():
    code, report = run_cli(
        ["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--epsilon", "0",
         "--iterates", "2"]
    )
    assert code == EXIT_TOLERANCE
    rows = report["verification"]["rotation_table"]
    errors = [e for e in report["errors"] if e["type"] == "NondegeneracyFailure"]
    assert len(errors) == len(rows) == 6
    for i, (row, error) in enumerate(zip(rows, errors)):
        assert error["check"] == f"verification.rotation_table[{i}].ode_angle"
        assert error["message"] == row["error"]
        # zero epsilon: the wrapped rotation 0 is within degenerate_rotation
        assert error["value"] == 0.0
        assert error["tolerance"] == tolerances.resolve(None)["degenerate_rotation"]


def test_rotation_rows_report_the_integrator_work(monkeypatch):
    integrations = []
    real = dynamics.integrate_monodromy

    def recorded(*args, **kwargs):
        integrations.append(real(*args, **kwargs))
        return integrations[-1]

    monkeypatch.setattr(dynamics, "integrate_monodromy", recorded)
    _, report = run_cli(["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "5"])
    # one integration per distinct row, in row order
    distinct = {}
    for row in report["verification"]["rotation_table"]:
        key = (row["vertex"], row["iterate"], row["epsilon"])
        distinct.setdefault(key, row)
    assert [row["steps"] for row in distinct.values()] == [r.steps for r in integrations]
    for row in distinct.values():
        assert "rejected_steps" not in row
        # the fewest equal steps that each turn M by at most 0.1
        turn = abs(row["analytic_angle"])
        assert turn / row["steps"] <= 0.1 * (1 + 1e-12)
        assert row["steps"] == 1 or turn / (row["steps"] - 1) > 0.1
    assert max(row["steps"] for row in distinct.values()) > 1


NEAR_EUCLIDEAN = [(2, 3, a) for a in range(7, 13)] + [(2, 4, a) for a in range(5, 9)] \
    + [(3, 3, a) for a in range(4, 7)]


def _hyperbolic(exponents):
    try:
        validate_params(list(exponents))
    except NotHyperbolic:
        return False
    return True


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.one_of(
    st.sampled_from(NEAR_EUCLIDEAN),
    st.lists(st.integers(2, 1000), min_size=3, max_size=5).map(tuple),
    st.integers(5, 60).map(lambda k: (2,) * k),
))
@example((100, 100, 100))
@example((2,) * 60)
def test_verify_dynamics_passes_across_the_hyperbolic_range(exponents):
    assume(_hyperbolic(exponents))
    argv = ["verify-dynamics", "--exponents", ",".join(map(str, exponents))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, json.loads(out.getvalue())["errors"]


def test_json_reports_are_deterministic():
    outputs = set()
    for _ in range(2):
        code, report = run_cli(
            ["verify-dynamics", "--exponents", "2,3,7", "--samples", "25", "--seed", "7"]
        )
        outputs.add(render(report, "json"))
    assert len(outputs) == 1
    parsed = json.loads(outputs.pop())
    assert parsed["seed"] == 7


def test_main_prints_and_returns(capsys):
    code = main(["invariants", "--exponents", "2,3,7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["seifert"]["d"] == 1


def test_main_rejects_bad_tolerance(capsys):
    code = main(["invariants", "--exponents", "2,3,7", "--tol", "nonsense"])
    assert code == EXIT_VALIDATION


def test_tolerance_override_threads_through():
    code, report = run_cli(
        ["verify-geometry", "--exponents", "2,3,7", "--tol", "area=1e-30"]
    )
    # an impossible tolerance turns success into a tolerance failure
    assert code == EXIT_TOLERANCE


def test_tolerance_environment_profile(monkeypatch):
    from brieskorn import tolerances

    monkeypatch.setenv(tolerances.ENV_VAR, "area=1e-3, angle=1e-2")
    resolved = tolerances.resolve()
    assert resolved["area"] == 1e-3
    assert resolved["angle"] == 1e-2
    resolved = tolerances.resolve({"area": 1e-5})
    assert resolved["area"] == 1e-5
    with pytest.raises(KeyError):
        tolerances.resolve({"bogus": 1.0})


TYPED_EXITS = [
    (["verify-geometry", "--exponents", "2,3,7", "--tol", "bogus=1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-geometry", "--exponents", "2,3,7"], "bogus=1",
     EXIT_VALIDATION, "UnknownTolerance"),
    (["verify-geometry", "--exponents", "2,3,7", "--tol", "angle=1e-20"], None,
     EXIT_TOLERANCE, "ConstructionFailure"),
    (["compare", "--exponents", "2,3,7", "--grading-floor", "0"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["generators", "--exponents", "2,3,7", "--action-bound", "-1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--epsilon", "-0.1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["invariants", "--exponents", "2,3,7", "--tol", "bogus=1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["generators", "--exponents", "2,3,7", "--action-bound", "1/0"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-dynamics", "--exponents", "2,3,7", "--samples", "-5"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-geometry", "--exponents", "2,3,7", "--samples", "-1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--iterates", "-2"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["complex", "--exponents", "2,3,7", "--classes", "-1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["complex", "--exponents", "2,3,7", "--classes", "0"], None,
     EXIT_VALIDATION, "ConfigError"),
    # homology and compare take no --classes: argparse refuses it
    (["compare", "--exponents", "2,3,7", "--classes", "0"], None,
     EXIT_VALIDATION, "ConfigError"),
    # the fixed-step integrator has no step tolerance any more
    (["verify-dynamics", "--exponents", "2,3,7", "--tol", "ode_step=1"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["verify-dynamics", "--exponents", "2,3,7"], "ode_step=1",
     EXIT_VALIDATION, "UnknownTolerance"),
    # argparse's own refusals
    (["compare", "--exponents", "2,3,7", "--bogus"], None,
     EXIT_VALIDATION, "ConfigError"),
    (["compare", "--exponents", "2,3,7", "--grading-floor", "abc"], None,
     EXIT_VALIDATION, "ConfigError"),
    # refused before the window's cap (0.042 on (2,3,7)) could hide it
    (["verify-dynamics", "--exponents", "2,3,7", "--samples", "5", "--epsilon", "1.5"], None,
     EXIT_VALIDATION, "ConfigError"),
    # an exponent past float range has no float angle pi/a: refused before the build
    (["verify-geometry", "--exponents", f"2,3,{10**400}"], None, EXIT_VALIDATION, "ConfigError"),
    (["verify-dynamics", "--exponents", f"2,3,{10**400}"], None, EXIT_VALIDATION, "ConfigError"),
]


@pytest.mark.parametrize("argv, env, expected_code, error_type", TYPED_EXITS)
def test_failures_end_in_typed_exit_codes(
    argv, env, expected_code, error_type, capsys, monkeypatch
):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    if env is not None:
        monkeypatch.setenv(tolerances.ENV_VAR, env)
    assert main(argv) == expected_code
    out, err = capsys.readouterr()
    assert json.loads(out)["errors"][0]["type"] == error_type
    assert err == ""


def test_the_exact_modes_accept_an_exponent_past_float_range(capsys):
    huge = 10**400
    for argv in (["invariants"], ["generators", "--grading-floor", "-10"], ["complex"]):
        assert main([*argv, "--exponents", f"2,3,{huge}"]) == EXIT_OK
        assert str(huge) in capsys.readouterr().out
    assert main(["verify-geometry", "--exponents", f"2,3,{huge}"]) == EXIT_VALIDATION
    [error] = json.loads(capsys.readouterr().out)["errors"]
    assert error["message"] == f"exponent {huge} is past float range; the lab modes need pi/a"


def assert_a_closed_pipe_ends_the_output_not_the_run(root):
    """Run the package under ``root`` into pipes whose reader goes away.

    The child has Python's default buffered stdout, as in a shell: with
    PYTHONUNBUFFERED set, no data can be left in a buffer to flush at exit.
    """
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop(tolerances.ENV_VAR, None)
    env.pop("PYTHONUNBUFFERED", None)

    def finish(child):
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_OK
        assert err == ""  # no traceback, nor an exception ignored at exit

    # some 200,000 lines of report: writing them fails long before the end
    child = subprocess.Popen(
        [sys.executable, "-m", "brieskorn", "compare", "--exponents", "2,3,7",
         "--grading-floor", "-200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    finish(child)
    # a report that fits the buffer, into a pipe closed before it is written:
    # the failed flush leaves it in the buffer, and the flush at exit fails
    # again unless stdout was pointed elsewhere
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = subprocess.Popen(
        [sys.executable, "-m", "brieskorn", "invariants", "--exponents", "2,3,7"],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    finish(child)


def test_a_reader_that_closes_the_pipe_early_ends_the_output_not_the_run():
    assert_a_closed_pipe_ends_the_output_not_the_run(Path(cli.__file__).parents[1])


def test_a_refused_argument_prints_in_the_requested_format(capsys):
    argv = ["compare", "--exponents", "2,3,7", "--bogus", "--format", "tsv"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr() == (
        'errors[0].type\t"ConfigError"\n'
        'errors[0].message\t"unrecognized arguments: --bogus"\n', "")
    # a --format that cannot be read falls back to json
    assert main(["compare", "--exponents", "2,3,7", "--format", "yaml"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert json.loads(out)["errors"][0]["type"] == "ConfigError" and err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--help"])
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: brieskorn compare") and err == ""


def test_readme_exit_table_lists_every_error_class():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| error | exit | raised when |")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:  # after the header's separator row
        names, code = row.split("|")[1:3]
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = int(code)
    declared = {
        cls.__name__: cls.exit_code for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.BrieskornError)
        and cls is not errors.BrieskornError
    }
    assert listed == declared
    # every class has a raiser: a class that nothing constructs is dead
    package = Path(errors.__file__).parent
    sources = "".join(path.read_text() for path in package.glob("*.py")
                      if path.name != "errors.py")
    assert {name for name in declared if f"{name}(" not in sources} == set()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "tiny"])
def test_tolerance_values_fail_closed(value, capsys, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    argv = ["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "5"]
    assert main([*argv, "--tol", f"determinant={value}"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["errors"][0]["type"] == "ConfigError"
    monkeypatch.setenv(tolerances.ENV_VAR, f"determinant={value}")
    assert main(argv) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["errors"][0]["type"] == "ConfigError"


def _string_literals(path):
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_tolerance_is_read_outside_its_declaration():
    package = Path(tolerances.__file__).parent
    literals = set().union(*(_string_literals(path) for path in package.glob("*.py")
                             if path.name != "tolerances.py"))
    assert set(tolerances.DEFAULT_TOLERANCES) - literals == set()


def test_only_cli_and_tolerances_resolve_or_hold_a_tolerance():
    # every other module measures: it neither resolves the tolerances, nor
    # holds a value against one, nor reads the defaults (worst is a maximum)
    package = Path(tolerances.__file__).parent
    deciding = {"resolve", "exceeds", "DEFAULT_TOLERANCES"}
    named = {}
    for path in sorted(package.glob("*.py")):
        if path.name in ("cli.py", "tolerances.py"):
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
        if names & deciding:
            named[path.name] = sorted(names & deciding)
    assert named == {}


@pytest.mark.parametrize("mode", cli._RUNNERS)
def test_one_run_resolves_the_tolerances_once(mode, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    calls = []
    real = tolerances.resolve
    monkeypatch.setattr(tolerances, "resolve",
                        lambda overrides=None: calls.append(overrides) or real(overrides))
    code, _ = run(cli.RunConfig(exponents=[2, 3, 7], mode=mode, samples=5))
    assert code == EXIT_OK
    assert len(calls) == 1


def test_resolve_is_idempotent_and_run_checks_direct_configs():
    resolved = tolerances.resolve()
    assert tolerances.resolve(resolved) == resolved
    assert "denominator" not in resolved
    config = cli.RunConfig(exponents=[2, 3, 7], mode="verify-geometry",
                           tolerances={"matrix_relation": float("nan")})
    code, report = run(config)
    assert code == EXIT_VALIDATION
    assert report["errors"][0]["type"] == "ConfigError"


@pytest.mark.parametrize("field, mode", [
    ("samples", "verify-dynamics"), ("samples", "verify-geometry"),
    ("iterates", "verify-dynamics"),
])
def test_run_refuses_negative_counts_in_direct_configs(field, mode):
    config = cli.RunConfig(exponents=[2, 3, 7], mode=mode, **{field: -2})
    code, report = run(config)
    assert code == EXIT_VALIDATION
    assert report["errors"][0] == {"type": "ConfigError", "message": f"{field} must be >= 0, got -2"}


@pytest.mark.parametrize("mode", ["compute-homology", "verify", ""])
def test_run_refuses_a_mode_with_no_runner(mode):
    # compute-homology is an alias of the command line, which reports it as
    # homology; RunConfig takes the mode's own name
    code, report = run(cli.RunConfig(exponents=[2, 3, 7], mode=mode))
    assert code == EXIT_VALIDATION
    assert report["errors"] == [{
        "type": "ConfigError",
        "message": f"unknown mode {mode!r}; expected one of invariants, generators, "
                   "complex, homology, compare, verify-geometry, verify-dynamics",
    }]
    assert run_cli(["compute-homology", "--exponents", "2,3,7"])[1]["mode"] == "homology"


@pytest.mark.parametrize("mode", ["complex", "homology", "compare"])
def test_run_refuses_fewer_than_one_class_in_direct_configs(mode):
    for classes in (0, -3):
        code, report = run(cli.RunConfig(exponents=[2, 3, 7], mode=mode, classes=classes))
        assert code == EXIT_VALIDATION
        assert report["errors"][0] == {
            "type": "ConfigError", "message": f"classes must be >= 1, got {classes}"
        }


def _nan_frame_residual(monkeypatch):
    real = halfplane.invariance_residuals

    def patched(elements, points):
        form, frame = real(elements, points)
        frame[1] = math.nan  # not first: Python's max would drop it
        return form, frame

    monkeypatch.setattr(halfplane, "invariance_residuals", patched)


def _nan_return_measure(name):
    """A patch that makes the measure ``name`` of every return map NaN."""
    def patch(monkeypatch):
        real = dynamics.linearized_return_map

        def patched(*args):
            return dataclasses.replace(real(*args), **{name: math.nan})

        monkeypatch.setattr(dynamics, "linearized_return_map", patched)

    return patch


def _nan_rotation(monkeypatch):
    # the integrated rotation alone: the monodromy, and so the relative and
    # determinant errors, stay as they are
    real = dynamics.integrate_monodromy
    monkeypatch.setattr(dynamics, "integrate_monodromy",
                        lambda model, T: dataclasses.replace(real(model, T), rotation=math.nan))


def _nan_first_spin(monkeypatch):
    real = polygon.build_polygon_group

    def patched(params):
        group = real(params)
        group.rotation_spins[0] = math.nan
        return group

    monkeypatch.setattr(polygon, "build_polygon_group", patched)


def _nan_last_angle(monkeypatch):
    real = polygon.measured_interior_angles
    monkeypatch.setattr(polygon, "measured_interior_angles",
                        lambda group: [*real(group)[:-1], math.nan])


TOL = tolerances.DEFAULT_TOLERANCES

# one case per tolerance verdict of the lab, with the check its errors entry
# names and the tolerance it misses; each passes on (2,3,7) unpatched
NAN_SITES = {
    "invariance": (["verify-dynamics", "--samples", "5"], _nan_frame_residual,
                   "verification.invariance.max_frame_residual", TOL["invariance"]),
    "rotation": (["verify-dynamics", "--samples", "5"], _nan_return_measure("relative_error"),
                 "verification.rotation_table[0].relative_error", TOL["ode_vs_analytic"]),
    "determinant_error": (["verify-dynamics", "--samples", "5"],
                          _nan_return_measure("determinant"),
                          "verification.rotation_table[0].determinant_error",
                          TOL["determinant"]),
    # a NaN rotation passes the degenerate check and fails the window check,
    # against row 0's window (0, pi) of period ratio 1/2
    "window": (["verify-dynamics", "--samples", "5"], _nan_rotation,
               "verification.rotation_table[0].ode_angle", math.pi),
    "area": (["verify-geometry"],
             lambda mp: mp.setattr(polygon, "measured_area", lambda group: math.nan),
             "verification.area.error", TOL["area"]),
    "angle": (["verify-geometry"], _nan_last_angle, "angle_error", TOL["angle"]),
    "spin": (["verify-geometry"], _nan_first_spin, "rotation_spin[1]", 1e-6),
    "relations": (["verify-geometry"],
                  lambda mp: mp.setattr(polygon, "_matrix_deviation", lambda m: math.nan),
                  "verification.relations.reflection_involution[1]", TOL["matrix_relation"]),
}


@pytest.mark.parametrize("site", NAN_SITES)
def test_nan_fails_every_lab_verdict(site, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    argv, patch, check, tolerance = NAN_SITES[site]
    assert run_cli([argv[0], "--exponents", "2,3,7", *argv[1:]])[0] == EXIT_OK
    patch(monkeypatch)
    code, report = run_cli([argv[0], "--exponents", "2,3,7", *argv[1:]])
    assert code == EXIT_TOLERANCE
    if site == "invariance":
        assert math.isnan(report["verification"]["invariance"]["max_frame_residual"])
    [error] = [e for e in report["errors"] if e.get("check") == check]
    assert math.isnan(error["value"])
    assert error["tolerance"] == tolerance


def _lab_run(**given):
    return run(cli.RunConfig(exponents=[2, 3, 7], mode="verify-dynamics", samples=5, **given))


# a failing rotation row keeps only these
FAILED_ROW = {"vertex", "iterate", "epsilon", "period_2pi", "steps", "error"}


def test_the_window_check_reads_the_window_of_the_epsilon_cap(monkeypatch):
    # every rotation NaN: each row fails its window check, held against the
    # window that LocalModel.in_window caps the row's epsilon by,
    # 2*pi*float(1 - frac(ratio)); the float formula 2*pi*(1.0 - float(frac))
    # differs from it in the last bit at ratio 1/3
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    _nan_rotation(monkeypatch)
    code, report = _lab_run(epsilons=(1e-2,), iterates=1)
    assert code == EXIT_TOLERANCE
    rows = report["verification"]["rotation_table"]
    ratios = [Fraction(row["period_2pi"]) for row in rows]
    assert ratios == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)]
    assert [(e["type"], e["check"], e["tolerance"]) for e in report["errors"]] == [
        ("NondegeneracyFailure", f"verification.rotation_table[{i}].ode_angle",
         2 * math.pi * float(1 - ratio)) for i, ratio in enumerate(ratios)
    ]
    assert report["errors"][1]["tolerance"] == 4.1887902047863905
    for row, error in zip(rows, report["errors"]):
        assert math.isnan(error["value"])
        assert set(row) == FAILED_ROW and row["error"] == error["message"]


def test_a_correction_outside_its_window_is_refused_at_its_row(monkeypatch):
    # uncapped, epsilon 0.9 turns the corrections of the rows at vertices 1
    # and 2 past their windows; the row at i, vertex 3, stays inside its own
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    monkeypatch.setattr(dynamics.LocalModel, "in_window",
                        classmethod(lambda cls, v, ratio, epsilon: cls(v, 1.0, epsilon)))
    code, report = _lab_run(epsilons=(0.9,), iterates=1)
    assert code == EXIT_TOLERANCE
    rows = report["verification"]["rotation_table"]
    assert len(report["errors"]) == 2 and "error" not in rows[2]
    for i, (row, error) in enumerate(zip(rows, report["errors"])):
        window = 2 * math.pi * float(1 - Fraction(row["period_2pi"]))
        assert (error["type"], error["check"], error["tolerance"]) == (
            "NondegeneracyFailure", f"verification.rotation_table[{i}].ode_angle", window)
        assert window < error["value"] < math.inf
        assert error["message"] == row["error"] == (
            f"rotation correction {error['value']:.3e} leaves the window "
            f"(0, {window:.3e}); shrink epsilon")
        assert set(row) == FAILED_ROW


def test_the_spin_is_held_before_the_angles(monkeypatch):
    # both polygon verdicts miss; the run ends at the first spin
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    turn_every_rotation(monkeypatch)
    code, report = run_cli(["verify-geometry", "--exponents", "2,3,7", "--tol", "angle=1e-30"])
    assert code == EXIT_TOLERANCE
    assert [error["check"] for error in report["errors"]] == ["rotation_spin[1]"]


def _substitute(text, replacement):
    def mutate(source):
        assert source.count(text) == 1
        return source.replace(text, replacement)

    return mutate


def _swap(first, second, end):
    """A mutation that runs the block from ``second`` up to ``end`` before
    the block from ``first`` up to ``second``."""
    def mutate(source):
        head, rest = source.split(first, 1)
        block, rest = rest.split(second, 1)
        other, tail = rest.split(end, 1)
        return f"{head}{second}{other}{first}{block}{end}{tail}"

    return mutate


# mutants of the lab's verdicts: (function, its module, a source
# substitution, the test that must fail against it). The mutated copy
# replaces the function in its module, where cli reads it at call time.
VERDICT_MUTANTS = {
    "window check dropped": (
        "_ungradable", cli,
        _substitute("if not 0.0 < result.correction < result.window:", "if False:"),
        lambda mp: test_nan_fails_every_lab_verdict("window", mp)),
    "window by the other float formula": (
        "linearized_return_map", dynamics,
        _substitute("period, window = _rotation_window(period_ratio)",
                    "period, window = 2.0 * math.pi * float(period_ratio), 2.0 * math.pi * "
                    "(1.0 - float(period_ratio - math.floor(period_ratio)))"),
        test_the_window_check_reads_the_window_of_the_epsilon_cap),
    "window check before the degenerate check": (
        "_ungradable", cli,
        _swap("    if result.wrapped_rotation", "    if not 0.0 < result.correction",
              "    return None"),
        lambda mp: test_each_nondegeneracy_entry_names_its_rotation_row()),
    "spin check dropped": (
        "_checked_polygon", cli,
        _substitute("if tol_mod.exceeds(abs(wrapped), _SPIN_TOL):", "if False:"),
        test_polygon.test_a_missed_rotation_spin_names_its_check),
    "angles held to the area tolerance": (
        "_checked_polygon", cli, _substitute('tols["angle"]', 'tols["area"]'),
        lambda mp: test_nan_fails_every_lab_verdict("angle", mp)),
    "angle check before the spin check": (
        "_checked_polygon", cli,
        _swap("    for j, (spin", "    angle_errors = [", "    return group, angle_errors"),
        test_the_spin_is_held_before_the_angles),
}


@pytest.mark.parametrize("mutant", VERDICT_MUTANTS)
def test_the_verdict_tests_kill_each_mutant(mutant, monkeypatch):
    name, home, mutate, killer = VERDICT_MUTANTS[mutant]
    namespace = dict(vars(home))
    exec(mutate(textwrap.dedent(inspect.getsource(getattr(home, name)))), namespace)
    # the copy reads the module's own globals, so a patch of the module reaches it
    mutated = types.FunctionType(namespace[name].__code__, vars(home), name)
    monkeypatch.setattr(home, name, mutated)
    with pytest.raises(AssertionError):
        killer(monkeypatch)


# mutants of the broken-pipe handling: (a substitution in cli.py); the
# package written with it must fail assert_a_closed_pipe_ends_the_output_not_the_run
PIPE_MUTANTS = {
    "stdout not pointed at devnull": _substitute(
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "        pass\n"),
}


@pytest.mark.parametrize("mutant", PIPE_MUTANTS)
def test_the_closed_pipe_test_kills_each_mutant(mutant, tmp_path):
    package = tmp_path / "brieskorn"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "cli.py").write_text(PIPE_MUTANTS[mutant]((package / "cli.py").read_text()))
    with pytest.raises(AssertionError):
        assert_a_closed_pipe_ends_the_output_not_the_run(tmp_path)


@pytest.mark.parametrize("loosened, check, value, tolerance", [
    ("matrix_relation", "verification.relations.lift_order[2]", 1.11e-7, 1e-8),
    ("invariance", "verification.relations.rotation_order[2]", 9.45e-8, 1e-9),
])
def test_relations_are_held_to_their_own_tolerance(loosened, check, value, tolerance,
                                                    monkeypatch):
    # (50,60,70) misses one matrix and one lifted relation at the defaults;
    # loosening one tolerance leaves only the relation held to the other
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    code, report = run_cli(["verify-geometry", "--exponents", "50,60,70",
                            "--tol", f"{loosened}=1e-6"])
    assert code == EXIT_TOLERANCE
    [error] = report["errors"]
    assert (error["type"], error["check"], error["tolerance"]) == ("CheckFailed", check, tolerance)
    assert error["value"] == pytest.approx(value, rel=1e-2)


@pytest.mark.parametrize("mode", ["verify-geometry", "verify-dynamics"])
def test_run_and_the_command_line_share_each_lab_modes_default_samples(mode, capsys,
                                                                        monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    code, report = run(cli.RunConfig(exponents=[2, 3, 7], mode=mode))
    assert main([mode, "--exponents", "2,3,7"]) == code
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("mode", ["compare", "homology", "verify-dynamics", "generators",
                                  "complex"])
def test_run_and_the_command_line_give_the_same_report_at_the_defaults(mode, capsys,
                                                                       monkeypatch):
    # the parser states no default of its own: an option left out takes RunConfig's
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    code, report = run(cli.RunConfig(exponents=[2, 3, 7], mode=mode))
    assert main([mode, "--exponents", "2,3,7"]) == code == EXIT_OK
    assert capsys.readouterr().out == render(report, "json") + "\n"


def test_cz_mismatch_is_a_failed_check(monkeypatch):
    real = cli.conley_zehnder
    monkeypatch.setattr(cli, "conley_zehnder", lambda *args: real(*args) + 2)
    code, report = run_cli(["verify-dynamics", "--exponents", "2,3,7", "--samples", "5",
                            "--iterates", "1"])
    assert code == EXIT_TOLERANCE
    rows = report["verification"]["rotation_table"]
    assert [e["check"] for e in report["errors"]] == [
        f"verification.rotation_table[{i}].cz - cz_formula" for i in range(len(rows))
    ]
    assert {(e["type"], e["value"], e["tolerance"]) for e in report["errors"]} == {
        ("CheckFailed", 2, 0)
    }


def test_worst_and_exceeds_carry_nan():
    assert tolerances.worst([]) == 0.0
    assert tolerances.worst([1.0, 3.0, 2.0]) == 3.0
    assert math.isnan(tolerances.worst([1.0, math.nan, 2.0]))
    assert not tolerances.exceeds(1.0, 1.0)
    assert tolerances.exceeds(1.5, 1.0)
    assert tolerances.exceeds(math.nan, 1.0)
