"""Polygon construction, measurement, and group relations."""

import itertools
import math
import random

import pytest

from brieskorn import NotHyperbolic, cli, polygon, validate_params
from brieskorn.errors import DegenerateInput
from brieskorn.halfplane import (
    EdgeReflection,
    LiftedIsometry,
    MobiusElement,
    rotation_about_i,
)
from brieskorn.polygon import (
    _FAN_GRID,
    _solve_fan,
    build_polygon_group,
    check_relations,
    expected_area,
    measured_area,
    measured_interior_angles,
)
from fan_reference import solve_fan
from halfplane_reference import apply, lifted_residuals, power, random_point
from test_lab_reports import LAB_TUPLES

# fans far from the fuzz family: many right angles, large and mixed exponents
EXTREME_FANS = ((2,) * 60, (100, 100, 100, 100), (50, 60, 70, 80), (2, 2, 2, 3))


def group_for(*exponents):
    return build_polygon_group(validate_params(list(exponents)))


def test_triangle_2_3_7_area():
    group = group_for(2, 3, 7)
    assert abs(measured_area(group) - math.pi / 42) < 1e-12


def test_triangle_3_3_4_angles():
    group = group_for(3, 3, 4)
    measured = measured_interior_angles(group)
    for got, want in zip(measured, [math.pi / 3, math.pi / 3, math.pi / 4]):
        assert abs(got - want) < 1e-10


def test_euclidean_triple_rejected():
    with pytest.raises(NotHyperbolic):
        validate_params([2, 3, 6])


def test_placement_convention():
    group = group_for(2, 3, 7)
    assert group.vertices[-1] == pytest.approx(1j)
    assert group.vertices[0].real == pytest.approx(0.0, abs=1e-15)
    assert group.vertices[0].imag > 1.0


def test_reflection_matrices_are_involutions():
    group = group_for(3, 4, 7)
    for refl in group.reflections:
        a, b, c, d = refl.a, refl.b, refl.c, refl.d
        assert abs((a * a + b * c) - (c * b + d * d)) < 1e-12
        assert abs(a * b + b * d) < 1e-12 and abs(c * a + d * c) < 1e-12


@pytest.mark.parametrize("exponents", [
    (2, 3, 7), (2, 3, 5, 7), (50, 60, 70), (100, 100, 100), (97, 89, 83, 79),
    (5, 5, 9, 6, 3), (2,) * 12, (200, 300, 400),
])
def test_each_reflection_fixes_its_edge(exponents):
    group = group_for(*exponents)
    n = len(group.vertices)
    for j, refl in enumerate(group.reflections):
        a, b, c, d = refl.a, refl.b, refl.c, refl.d
        for z in (group.vertices[j], group.vertices[(j + 1) % n]):
            w = z.conjugate()
            assert abs((a * w + b) / (c * w + d) - z) <= 1e-10 * abs(z)


def turn_every_rotation(monkeypatch):
    """An extra turn about i, which moves every rotation's spin at its vertex."""
    real = EdgeReflection.compose
    monkeypatch.setattr(EdgeReflection, "compose",
                        lambda self, other: rotation_about_i(1e-3).compose(real(self, other)))


def test_a_missed_rotation_spin_names_its_check(monkeypatch):
    turn_every_rotation(monkeypatch)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="verify-geometry"))
    assert code == cli.EXIT_TOLERANCE == 3
    assert report["errors"] == [{
        "type": "ConstructionFailure",
        "message": "rotation at vertex 1 spins by -3.139868, expected 3.141593",
        "check": "rotation_spin[1]",
        "value": 0.001725082140609402,
        "tolerance": 1e-6,
    }]
    assert cli._SPIN_TOL == 1e-6


def test_rotation_orders_2_3_7():
    group = group_for(2, 3, 7)
    # the rotation fixing the first vertex is the composite of the two
    # adjacent edge reflections and squares to +/- identity
    rot = group.rotation_generators[0]
    power = rot.power(2)
    entries = (power.a, power.b, power.c, power.d)
    deviation = min(max(abs(x - e) for x, e in zip(entries, (1, 0, 0, 1))),
                    max(abs(x + e) for x, e in zip(entries, (1, 0, 0, 1))))
    assert deviation < 1e-9


def test_lifted_square_is_vertical_shift_2_3_7():
    group = group_for(2, 3, 7)
    squared = power(group.lifted_generators[0], 2)
    rng = random.Random(9)
    for _ in range(20):
        p = random_point(rng)
        q = apply(squared, p)
        assert abs(q.x - p.x) + abs(q.y - p.y) < 1e-8
        assert abs(q.t - (p.t + 2 * math.pi)) < 1e-8


def test_relations_all_small_triples():
    for triple in itertools.combinations_with_replacement(range(2, 14), 3):
        try:
            params = validate_params(list(triple))
        except NotHyperbolic:
            continue
        group = build_polygon_group(params)
        for name, value in check_relations(group).items():
            limit = 1e-8 if name.startswith("lift") else 1e-9
            assert value < limit, (triple, name, value)


def test_relations_larger_polygons():
    for exponents in [(2, 2, 2, 3), (2, 3, 7, 43), (2, 2, 3, 3, 3), (3, 3, 3, 3, 3), (2, 3, 4, 5, 6, 7)]:
        group = group_for(*exponents)
        residuals = check_relations(group)
        assert max(residuals.values()) < 1e-8, (exponents, residuals)


def test_area_matches_curvature_integral_up_to_50():
    # spot sample; the full sweep up to 50 runs in the acceptance suite
    for triple in [(2, 3, 50), (2, 49, 50), (50, 50, 50), (5, 17, 23)]:
        group = group_for(*triple)
        assert abs(measured_area(group) - expected_area(group.params)) < 1e-12


def test_identity_element_has_zero_residual():
    identity = MobiusElement.identity()
    assert (identity.a, identity.b, identity.c, identity.d) == (1.0, 0.0, 0.0, 1.0)


def test_a_sabotaged_winding_breaks_its_lift_order():
    group = group_for(2, 3, 7)
    # sabotage one lifted generator's winding so the lifted relations break
    bad = LiftedIsometry(group.lifted_generators[0].base,
                         group.lifted_generators[0].winding_offset + 0.3)
    group.lifted_generators[0] = bad
    assert check_relations(group)["lift_order[1]"] > 0.1


def fan_tuples(seed, count):
    """Seeded hyperbolic tuples with n = 4..9 and a_j = 2..15."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 9)
        exponents = tuple(rng.randint(2, 15) for _ in range(n))
        if sum(1.0 / a for a in exponents) < n - 2:
            out.append(exponents)
    return out


def fan_angles(exponents):
    return [math.pi / a for a in exponents]


def test_fan_solver_matches_the_grid_scan_bit_for_bit():
    for exponents in [*fan_tuples(20261019, 2000), *EXTREME_FANS]:
        angles = fan_angles(exponents)
        assert _solve_fan(angles).hex() == solve_fan(angles).hex(), exponents


def test_fan_defect_is_defined_on_the_whole_grid_and_changes_sign_once():
    # the premise of bisecting over the grid's indices: the first sign
    # change the scan finds is the only one, and no probe degenerates
    for exponents in [*fan_tuples(7, 300), *EXTREME_FANS,
                      *(t for t in LAB_TUPLES if len(t) > 3)]:
        angles = fan_angles(exponents)
        signs = []
        for diagonal in _FAN_GRID:
            traced = polygon._trace_fan(angles, diagonal)
            assert traced is not None, (exponents, diagonal)
            defect = sum(traced[0]) - angles[-1]
            signs.append("+" if defect > 0.0 else "-" if defect < 0.0 else "0")
        positive = signs.count("+")
        assert 0 < positive < len(signs), exponents
        assert signs == ["+"] * positive + ["-"] * (len(signs) - positive), exponents


def test_fan_solver_traces_at_most_64_fans_per_solve(monkeypatch):
    calls = []
    trace_fan = polygon._trace_fan

    def counted(angles, diagonal):
        calls.append(diagonal)
        return trace_fan(angles, diagonal)

    monkeypatch.setattr(polygon, "_trace_fan", counted)
    for exponents in [t for t in LAB_TUPLES if len(t) > 3]:
        calls.clear()
        _solve_fan(fan_angles(exponents))
        # about nine grid probes and one bisection step per bit of the root
        assert len(calls) <= 64, (exponents, len(calls))


def relation_tuples(seed, count):
    """Seeded hyperbolic tuples with n = 3..6 and a_j = 2..15."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        exponents = tuple(rng.randint(2, 15) for _ in range(n))
        if sum(1.0 / a for a in exponents) < n - 2:
            out.append(exponents)
    return out


def test_relation_residuals_equal_the_point_by_point_oracle_bit_for_bit():
    cases = [(t, {}) for t in relation_tuples(20261019, 500)]
    cases += [((2,) * 60, {}), ((100, 100, 100), {}),
              ((2, 3, 7), {"samples": 50, "seed": 7}), ((50, 60, 70), {"samples": 50, "seed": 7})]
    # where the lifted relations fail badly (lift_order[2] is 1.99 on the last)
    cases += [((97, 89, 83, 79), {}), ((200, 300, 400), {}), ((1000, 1000, 1000), {})]
    for exponents, sampling in cases:
        group = group_for(*exponents)
        residuals = check_relations(group, **sampling)
        expected = lifted_residuals(group, **sampling)
        assert {k: v.hex() for k, v in residuals.items() if k.startswith("lift")} == {
            k: v.hex() for k, v in expected.items()}, exponents


def test_a_nan_lift_fails_its_relations():
    group = group_for(2, 3, 7)
    group.lifted_generators[2] = LiftedIsometry(group.lifted_generators[2].base, math.nan)
    residuals = check_relations(group)
    # the t-deviations follow the space deviations; a NaN among them is kept
    assert math.isnan(residuals["lift_order[3]"])
    assert math.isnan(residuals["lift_product"])


def nan_matrix_group():
    """(2,3,7) with its third lift on the NaN matrix [[nan, nan], [0, 0]],
    whose denominator c*z + d is zero at every point."""
    group = group_for(2, 3, 7)
    group.lifted_generators[2] = LiftedIsometry(MobiusElement(math.nan, math.nan, 0.0, 0.0),
                                                group.lifted_generators[2].winding_offset)
    return group


def test_a_nan_matrix_lift_is_refused_as_degenerate(monkeypatch):
    # the lifted product meets the collapse at the image of i under that
    # lift, before any t-shift is taken there; without the refusal the NaN
    # image would reach continued_arg, which refuses it with another message
    refusal = {"type": "DegenerateInput", "message": "Moebius denominator collapsed at z = 1j"}
    with pytest.raises(DegenerateInput) as caught:
        check_relations(nan_matrix_group())
    assert caught.value.payload() == refusal
    monkeypatch.setattr(polygon, "build_polygon_group", lambda params: nan_matrix_group())
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="verify-geometry"))
    assert code == DegenerateInput.exit_code == 3
    assert report["errors"] == [refusal]
