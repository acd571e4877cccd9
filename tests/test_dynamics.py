"""Perturbed Reeb dynamics: fields, monodromy, rotation, and grading."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from brieskorn.dynamics import (
    LocalModel,
    analytic_return,
    contraction_residual,
    field_jacobian,
    hamiltonian_field,
    integrate_monodromy,
    linearized_return_map,
)
from brieskorn.errors import NondegeneracyFailure


def test_unperturbed_field_vanishes():
    model = LocalModel(1j, 1.0, 0.0)
    for z in (1j, 0.5 + 2j, -1 + 0.3j):
        assert np.allclose(hamiltonian_field(model, z), 0.0)


def test_field_vanishes_at_the_zero():
    model = LocalModel(0.4 + 1.3j, 2.0 - 1.0j, 0.25)
    assert np.allclose(hamiltonian_field(model, model.v), 0.0)


def test_contraction_identity_random_points():
    rng = random.Random(3)
    model = LocalModel(0.5 + 1.5j, 0.7 - 0.2j, 0.3)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert contraction_residual(model, z, step=1e-5) < 1e-6


class CallablePerturbation:
    """General smooth perturbation given by f alone; derivatives by differences."""

    def __init__(self, f, step: float = 1e-5):
        self._f = f
        self.step = step

    def f(self, z: complex) -> float:
        return self._f(z)

    def inv_f(self, z: complex) -> float:
        return 1.0 / self._f(z)

    def grad_inv_f(self, z: complex) -> tuple[float, float]:
        h = self.step
        gx = (self.inv_f(z + h) - self.inv_f(z - h)) / (2.0 * h)
        gy = (self.inv_f(z + 1j * h) - self.inv_f(z - 1j * h)) / (2.0 * h)
        return gx, gy

    def hess_inv_f(self, z: complex) -> np.ndarray:
        h = self.step

        def grad(w):
            return np.array(self.grad_inv_f(w))

        col_x = (grad(z + h) - grad(z - h)) / (2.0 * h)
        col_y = (grad(z + 1j * h) - grad(z - 1j * h)) / (2.0 * h)
        return np.column_stack([col_x, col_y])


def test_contraction_identity_general_perturbation():
    model = CallablePerturbation(lambda z: 1.0 + 0.2 * math.sin(z.real) ** 2 / (1 + z.imag**2))
    for z in (0.3 + 0.8j, -1.1 + 2.2j, 2j):
        assert contraction_residual(model, z, step=1e-5) < 1e-6


def test_field_jacobian_matches_differences():
    model = LocalModel(0.2 + 1.1j, 1.5, 0.4)
    z = 0.7 + 0.9j
    step = 1e-6
    jac = field_jacobian(model, z)
    fd = np.column_stack(
        [
            (hamiltonian_field(model, z + step) - hamiltonian_field(model, z - step))
            / (2 * step),
            (hamiltonian_field(model, z + 1j * step) - hamiltonian_field(model, z - 1j * step))
            / (2 * step),
        ]
    )
    assert np.abs(jac - fd).max() < 1e-6


def test_zero_epsilon_is_degenerate_with_identity_monodromy():
    model = LocalModel(1j, 1.0, 0.0)
    with pytest.raises(NondegeneracyFailure) as excinfo:
        linearized_return_map(model, 2 * math.pi)
    result = excinfo.value.result
    assert result.rotation_angle == 0.0
    assert np.allclose(result.ode_monodromy, np.eye(2))


def test_clockwise_rotation_matches_closed_form():
    model = LocalModel(1j, 1.0, 1e-3)
    result = linearized_return_map(model, 2 * math.pi, period_ratio=Fraction(1))
    assert result.analytic_angle == pytest.approx(-4 * math.pi * 1e-3)
    assert result.rotation_angle == pytest.approx(-4 * math.pi * 1e-3, rel=1e-6)
    assert result.relative_error < 1e-6
    assert abs(result.determinant - 1.0) < 1e-9


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
@pytest.mark.parametrize("laps", [1, 21])
def test_monodromy_accuracy_over_long_times(epsilon, laps):
    model = LocalModel(1j, 1.0, epsilon)
    result = linearized_return_map(
        model, 2 * math.pi * laps, period_ratio=Fraction(laps)
    )
    assert result.relative_error < 1e-6
    assert abs(result.determinant - 1.0) < 1e-9
    assert result.rotation_angle == pytest.approx(result.analytic_angle, rel=1e-6)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_grading_extraction_2_3_7(epsilon):
    # the first exceptional orbit has period ratio n/2, so its index is
    # -2*floor(n/2) - 1
    for n in range(1, 6):
        model = LocalModel(1j, 1.0, epsilon)
        result = linearized_return_map(
            model, math.pi * n, period_ratio=Fraction(n, 2)
        )
        assert result.cz_index == -2 * (n // 2) - 1


def test_grading_extraction_off_the_reference_point():
    # same ratios computed at an actual polygon vertex with c != 1
    from brieskorn import seifert_data, validate_params
    from brieskorn.polygon import build_polygon_group

    data = seifert_data(validate_params([2, 3, 7]))
    group = build_polygon_group(data.params)
    for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
        vertex = group.vertices[j - 1]
        ratio = Fraction(data.d, data.m * t_j)
        model = LocalModel(vertex, 0.8 + 0.3j, 1e-3)
        result = linearized_return_map(
            model, 2 * math.pi * float(ratio), period_ratio=ratio
        )
        assert result.cz_index == -2 * math.floor(ratio) - 1


def test_oversized_epsilon_fails_loudly():
    model = LocalModel(1j, 1.0, 0.9)
    with pytest.raises(NondegeneracyFailure):
        # correction 2*eps*T = 0.9*4*pi exceeds the window width 2*pi
        linearized_return_map(model, 2 * math.pi, period_ratio=Fraction(1))


def test_monodromy_preserves_the_hyperbolic_area_form():
    # the flow preserves dx dy / y^2, so the Euclidean determinant of the
    # derivative equals the square of the conformal factor ratio; on the
    # closed orbit (start at the zero) that ratio is one
    model = LocalModel(0.3 + 1.4j, 1.2, 0.2)
    start = 0.9 + 0.8j
    result = integrate_monodromy(model, 5.0, start=start)
    weighted = np.linalg.det(result.matrix) * start.imag**2 / result.endpoint.imag**2
    assert abs(weighted - 1.0) < 1e-9
    on_orbit = integrate_monodromy(model, 5.0)
    assert on_orbit.endpoint == model.v
    assert abs(np.linalg.det(on_orbit.matrix) - 1.0) < 1e-9


def test_analytic_return_rate():
    model = LocalModel(0.5 + 2j, 3.0, 1e-2)
    _, angle = analytic_return(model, 1.0)
    assert angle == pytest.approx(-2 * 1e-2 * 4.0 * 9.0)
