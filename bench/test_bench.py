"""Tests of the benchmark's oracle, input rules and checks."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import oracle
import workloads

BENCH = Path(__file__).resolve().parent


def test_seifert_237_by_hand():
    # d = 42 * (1 - 1/2 - 1/3 - 1/7) = 1; m = 42 / lcm = 1; one point of each multiplicity
    data = oracle.seifert((2, 3, 7))
    assert (data.d, data.m, data.w, data.genus) == (1, 1, 1, 0)
    assert data.counts == ((1, 2), (1, 3), (1, 7))
    assert data.gap == Fraction(1, 42)


def test_seifert_2223_by_hand():
    # d = 24 * (2 - 3/2 - 1/3) = 4; m = 24 / 6 = 4; the 2s give regular fibers
    data = oracle.seifert((2, 2, 2, 3))
    assert (data.d, data.m, data.w, data.genus, data.minima) == (4, 4, 1, 0, 10)
    assert data.counts == ((2, 1), (2, 1), (2, 1), (4, 3))


def test_seifert_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        oracle.seifert((2, 3, 5))
    with pytest.raises(ValueError):
        oracle.seifert((1, 3, 7))


def test_closed_form_237_by_hand():
    # -2: iterates 1 of v1, 1-2 of v2, 1-6 of v3, plus the maximum of fiber class 1;
    # every lower even grading: 11 (one more iterate of v1, two of v2, six of v3,
    # the minimum of class n and the maximum of class n + 1)
    dims = oracle.closed_form(oracle.seifert((2, 3, 7)), -10)
    assert dims == {-2: 10, -4: 11, -6: 11, -8: 11, -10: 11}


def test_closed_form_counts_genus_in_odd_gradings():
    data = oracle.seifert((2, 2, 2, 2, 2, 2))  # w = 2, g = 17, every point regular
    assert (data.w, data.genus) == (2, 17)
    # class 1 at (-6, -5, -4), class 2 at (-10, -9, -8)
    assert oracle.closed_form(data, -9) == {-4: 1, -5: 34, -6: 1, -8: 1, -9: 34}


def test_interior_angles_right_angle():
    # the unit circle meets the imaginary axis at i at a right angle
    p = complex(math.cos(1.0), math.sin(1.0))
    angles = oracle.interior_angles([p, 2j, 1j])
    assert angles[2] == pytest.approx(math.pi / 2, abs=1e-14)
    assert sum(angles) < math.pi


def test_seifert_payload_errors_names_fields():
    data = oracle.seifert((2, 3, 7))
    payload = {"d": 1, "m": 1, "fiber_winding": 1, "orbifold_counts": [[1, 2], [1, 3], [1, 7]],
               "genus": 0, "minima_count": 3, "s": "42"}
    assert oracle.seifert_payload_errors(data, payload) == []
    wrong = dict(payload, genus=1, extra=0)
    assert oracle.seifert_payload_errors(data, wrong) == ["extra", "genus"]


def test_inputs_repeat_per_seed_and_stay_in_family():
    for name in ("exact-wide", "exact-deep"):
        ops = workloads.build(name, 7)
        assert ops == workloads.build(name, 7)
        assert ops != workloads.build(name, 8)
    for op in workloads.build("exact-wide", 7):
        assert 50 <= oracle.seifert(op.exponents).minima <= 250 and -20 <= op.floor <= -6
    for op in workloads.build("exact-deep", 7):
        assert 3 <= oracle.seifert(op.exponents).minima <= 10 and -4000 <= op.floor <= -500
    assert {op.exponents for op in workloads.build("lab", 1)} == {
        op.exponents for op in workloads.build("lab", 2)}


def test_oracle_and_inputs_never_import_the_program():
    code = ("import sys, oracle, workloads, checks, spans; workloads.build('exact-wide', 1); "
            "print(any(m.split('.')[0] == 'brieskorn' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


def test_unexplained_keeps_only_unknown_failures():
    assert checks.unexplained(["dynamics.determinant", "dynamics.exit"]) == []
    assert checks.unexplained(["geometry.exit", "geometry.rotation_order"]) == []
    assert checks.unexplained(["geometry.exit", "dynamics.determinant"]) == ["geometry.exit"]
    assert checks.unexplained(["compare.homology"]) == ["compare.homology"]


def test_compare_check_catches_a_wrong_dimension():
    op = workloads.Op((2, 3, 7), -6, 0.0, ())
    expected = checks.Expected(op)
    dims = {str(k): v for k, v in sorted(expected.dims.items(), reverse=True)}
    report = {
        "seifert": {"d": 1, "m": 1, "fiber_winding": 1, "s": "42", "genus": 0,
                    "orbifold_counts": [[1, 2], [1, 3], [1, 7]], "minima_count": 3},
        "homology": {"dims": dims}, "oracle": dims,
        "comparison": {"equal": True, "floor": -6},
    }
    assert expected.check([(0, json.dumps(report))]) == []
    report["homology"]["dims"] = dict(dims, **{"-4": dims["-4"] + 1})
    assert expected.check([(0, json.dumps(report))]) == ["compare.homology"]
    assert expected.check([(2, "{}")]) == [
        "compare.exit", "compare.seifert", "compare.homology", "compare.oracle", "compare.equal"]


def test_scaled_times_use_the_mean_reference_around_an_operation():
    import run

    # reference loop at twice its nominal time before and after: half the latency
    nominal = run.REFERENCE_MS / 1e3
    assert run.scaled(0.2, 2 * nominal, 2 * nominal) == pytest.approx(0.1)
    assert run.scaled(0.2, nominal, 3 * nominal) == pytest.approx(0.1)
    assert run.reference_s() > 0
