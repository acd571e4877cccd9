"""Command-line interface: exit codes, payloads, determinism."""

import json
import math

import pytest

from brieskorn import cli, dynamics, polygon, tolerances
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
        from brieskorn import closed_form_homology

        dims = closed_form_homology(data, floor)
        dims[-2] = dims.get(-2, 0) + 1
        return dims

    monkeypatch.setattr(cli, "closed_form_homology", broken_oracle)
    code, report = run_cli(["compare", "--exponents", "2,3,7", "--grading-floor", "-6"])
    assert code == EXIT_MISMATCH
    assert report["comparison"]["first_mismatch"]["grading"] == -2


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


def test_incomplete_window_exit_code():
    code, report = run_cli(
        ["homology", "--exponents", "2,3,7", "--grading-floor", "-10", "--classes", "2"]
    )
    assert code == EXIT_VALIDATION
    assert report["errors"][0]["type"] == "IncompleteWindow"


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
    elements = _count_calls(monkeypatch, cli, "random_mobius")
    points = _count_calls(monkeypatch, cli, "random_point")
    residuals = _count_calls(monkeypatch, cli, "invariance_residuals")
    integrations = _count_calls(monkeypatch, dynamics, "integrate_monodromy")
    code, report = run_cli(
        ["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "30", "--seed", "3"]
    )
    assert code == EXIT_TOLERANCE
    # 30 draws of each kind, all handed to one array call
    assert len(elements) == len(points) == 30
    assert [tuple(map(len, args)) for args in residuals] == [(30, 30)]
    rows = report["verification"]["rotation_table"]
    keys = [(row["vertex"], row["iterate"], row["epsilon"]) for row in rows]
    # both default epsilons clamp to one window limit on some rows; each key is
    # integrated once and its row emitted once per requested epsilon
    assert len(rows) == 16 and len(set(keys)) == 12
    assert len(integrations) == len(set(keys))
    for row, key in zip(rows, keys):
        assert row == rows[keys.index(key)]


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


def test_tsv_rendering():
    code, report = run_cli(
        ["homology", "--exponents", "2,3,11", "--grading-floor", "-6", "--format", "tsv"]
    )
    text = render(report, "tsv")
    assert "grading\t-2\t2" in text
    assert "grading\t-4\t3" in text


def test_text_rendering_mentions_invariants():
    code, report = run_cli(["invariants", "--exponents", "2,3,7", "--format", "text"])
    text = render(report, "text")
    assert "d=1" in text and "genus=0" in text


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9", "tiny"])
def test_tolerance_values_fail_closed(value, capsys, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    argv = ["verify-dynamics", "--exponents", "2,3,5,7", "--samples", "5"]
    assert main([*argv, "--tol", f"determinant={value}"]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["errors"][0]["type"] == "ConfigError"
    monkeypatch.setenv(tolerances.ENV_VAR, f"determinant={value}")
    assert main(argv) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["errors"][0]["type"] == "ConfigError"


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


def _nan_frame_residual(monkeypatch):
    real = cli.invariance_residuals

    def patched(elements, points):
        form, frame = real(elements, points)
        frame[1] = math.nan  # not first: Python's max would drop it
        return form, frame

    monkeypatch.setattr(cli, "invariance_residuals", patched)


def _nan_relative_error(monkeypatch):
    real = cli.linearized_return_map

    def patched(*args, **kwargs):
        result = real(*args, **kwargs)
        result.relative_error = math.nan
        return result

    monkeypatch.setattr(cli, "linearized_return_map", patched)


def _nan_last_angle(monkeypatch):
    real = polygon.measured_interior_angles
    monkeypatch.setattr(polygon, "measured_interior_angles",
                        lambda group: [*real(group)[:-1], math.nan])


# one case per tolerance verdict of the lab; each passes on (2,3,7) unpatched
NAN_SITES = {
    "invariance": (["verify-dynamics", "--samples", "5"], _nan_frame_residual),
    "rotation": (["verify-dynamics", "--samples", "5"], _nan_relative_error),
    "area": (["verify-geometry"],
             lambda mp: mp.setattr(cli, "measured_area", lambda group: math.nan)),
    "angle": (["verify-geometry"], _nan_last_angle),
    "relations": (["verify-geometry"],
                  lambda mp: mp.setattr(polygon, "_matrix_deviation", lambda m: math.nan)),
}


@pytest.mark.parametrize("site", NAN_SITES)
def test_nan_fails_every_lab_verdict(site, monkeypatch):
    monkeypatch.delenv(tolerances.ENV_VAR, raising=False)
    argv, patch = NAN_SITES[site]
    assert run_cli([argv[0], "--exponents", "2,3,7", *argv[1:]])[0] == EXIT_OK
    patch(monkeypatch)
    code, report = run_cli([argv[0], "--exponents", "2,3,7", *argv[1:]])
    assert code == EXIT_TOLERANCE
    if site == "invariance":
        assert math.isnan(report["verification"]["invariance"]["max_frame_residual"])


def test_worst_and_exceeds_carry_nan():
    assert tolerances.worst([]) == 0.0
    assert tolerances.worst([1.0, 3.0, 2.0]) == 3.0
    assert math.isnan(tolerances.worst([1.0, math.nan, 2.0]))
    assert not tolerances.exceeds(1.0, 1.0)
    assert tolerances.exceeds(1.5, 1.0)
    assert tolerances.exceeds(math.nan, 1.0)
