"""Perturbed Reeb dynamics: fields, monodromy, rotation, and grading."""

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn import dynamics, seifert_data, validate_params
from brieskorn.dynamics import (
    LocalModel,
    analytic_return,
    field_jacobian,
    integrate_monodromy,
    linearized_return_map,
)
from brieskorn.errors import ConfigError
from brieskorn.polygon import build_polygon_group
from collocation_reference import hamiltonian_field, reference_monodromy, reference_steps


def test_a_model_outside_its_domain_is_a_config_error():
    # a zero on or below the real axis, or epsilon outside [0, 1)
    for v, epsilon in ((-1j, 0.5), (2.0 + 0j, 0.5), (1j, 1.0), (1j, -0.1)):
        with pytest.raises(ConfigError):
            LocalModel(v, 1.0, epsilon)


@pytest.mark.parametrize("epsilon", [1.0, 1.5, 5.0, math.inf, math.nan, -0.1])
def test_a_requested_epsilon_outside_its_domain_is_refused_before_the_cap(epsilon):
    # the cap at i and ratio 1/3 is 0.25: a request of 1.0 or more, capped
    # first, would pass the model's own check
    with pytest.raises(ConfigError, match=re.escape("epsilon must lie in [0, 1)")):
        LocalModel.in_window(1j, Fraction(1, 3), epsilon)


@pytest.mark.parametrize("v", [2.0 + 0j, -1j, 3 - 2j])
def test_a_windowed_zero_off_the_upper_half_plane_is_refused_before_the_cap(v):
    # the cap divides by 2 * Im(v)**2 * period, so the zero is refused first,
    # as the model refuses it
    message = "the zero must lie in the upper half-plane"
    with pytest.raises(ConfigError, match=re.escape(message)):
        LocalModel(v, 1.0, 0.01)
    with pytest.raises(ConfigError, match=re.escape(message)):
        LocalModel.in_window(v, Fraction(1, 3), 0.01)


@pytest.mark.parametrize("ratio", [Fraction(0), Fraction(-1, 2), Fraction(1, 10**400)])
def test_a_window_whose_period_is_not_positive_is_refused_before_the_cap(ratio):
    # the cap divides by the period, so a period of 0, or one that rounds to
    # 0.0, is refused first
    with pytest.raises(ConfigError, match=re.escape(f"the period 2*pi*{ratio} must be positive")):
        LocalModel.in_window(1j, ratio, 0.01)


def test_unperturbed_field_vanishes():
    model = LocalModel(1j, 1.0, 0.0)
    for z in (1j, 0.5 + 2j, -1 + 0.3j):
        assert np.allclose(hamiltonian_field(model, z), 0.0)


def test_field_vanishes_at_the_zero():
    model = LocalModel(0.4 + 1.3j, 2.0 - 1.0j, 0.25)
    assert np.allclose(hamiltonian_field(model, model.v), 0.0)


def contraction_residual(model, z: complex, step: float = 1e-5) -> float:
    """Check i_X omega = -d(1/f) with centrally differenced 1/f."""
    def inv_f(w):
        return 1.0 / model.f(w)

    x_field = hamiltonian_field(model, z)
    y2 = z.imag * z.imag
    d_inv_f = np.array(
        [
            (inv_f(z + step) - inv_f(z - step)) / (2.0 * step),
            (inv_f(z + 1j * step) - inv_f(z - 1j * step)) / (2.0 * step),
        ]
    )
    # (i_X omega)(e_x) = -X_y / y^2, (i_X omega)(e_y) = X_x / y^2
    contraction = np.array([-x_field[1] / y2, x_field[0] / y2])
    return float(np.linalg.norm(contraction + d_inv_f))


def test_contraction_identity_random_points():
    rng = random.Random(3)
    model = LocalModel(0.5 + 1.5j, 0.7 - 0.2j, 0.3)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert contraction_residual(model, z, step=1e-5) < 1e-6


class CallablePerturbation:
    """General smooth perturbation given by f alone; its gradient by differences."""

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


def test_contraction_identity_general_perturbation():
    model = CallablePerturbation(lambda z: 1.0 + 0.2 * math.sin(z.real) ** 2 / (1 + z.imag**2))
    for z in (0.3 + 0.8j, -1.1 + 2.2j, 2j):
        assert contraction_residual(model, z, step=1e-5) < 1e-6


def test_field_jacobian_matches_differences():
    model = LocalModel(0.2 + 1.1j, 1.5, 0.4)
    z = 0.7 + 0.9j
    step = 1e-6
    jac = field_jacobian(model, z)

    def field(w):
        return np.asarray(hamiltonian_field(model, w))

    fd = np.column_stack(
        [
            (field(z + step) - field(z - step)) / (2 * step),
            (field(z + 1j * step) - field(z - 1j * step)) / (2 * step),
        ]
    )
    assert np.abs(jac - fd).max() < 1e-6


def test_zero_epsilon_is_degenerate_with_identity_monodromy():
    model = LocalModel(1j, 1.0, 0.0)
    result = linearized_return_map(model, Fraction(1))
    assert result.rotation_angle == 0.0
    assert np.allclose(result.ode_monodromy, np.eye(2))
    # a multiple of 2*pi to the last bit: within every degenerate_rotation
    assert result.wrapped_rotation == 0.0


def test_clockwise_rotation_matches_closed_form():
    model = LocalModel(1j, 1.0, 1e-3)
    result = linearized_return_map(model, Fraction(1))
    assert result.analytic_angle == pytest.approx(-4 * math.pi * 1e-3)
    assert result.rotation_angle == pytest.approx(-4 * math.pi * 1e-3, rel=1e-6)
    assert result.relative_error < 1e-6
    assert abs(result.determinant - 1.0) < 1e-9


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
@pytest.mark.parametrize("laps", [1, 21])
def test_monodromy_accuracy_over_long_times(epsilon, laps):
    model = LocalModel(1j, 1.0, epsilon)
    result = linearized_return_map(model, Fraction(laps))
    assert result.relative_error < 1e-6
    assert abs(result.determinant - 1.0) < 1e-9
    assert result.rotation_angle == pytest.approx(result.analytic_angle, rel=1e-6)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_grading_extraction_2_3_7(epsilon):
    # the first exceptional orbit has period ratio n/2, so its index is
    # -2*floor(n/2) - 1
    for n in range(1, 6):
        model = LocalModel(1j, 1.0, epsilon)
        result = linearized_return_map(model, Fraction(n, 2))
        assert result.cz_index == -2 * (n // 2) - 1


def test_grading_extraction_off_the_reference_point():
    # same ratios computed at an actual polygon vertex with c != 1
    data = seifert_data(validate_params([2, 3, 7]))
    group = build_polygon_group(data.params)
    for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
        vertex = group.vertices[j - 1]
        ratio = Fraction(data.d, data.m * t_j)
        model = LocalModel(vertex, 0.8 + 0.3j, 1e-3)
        result = linearized_return_map(model, ratio)
        assert type(result.cz_index) is int
        assert result.cz_index == -2 * math.floor(ratio) - 1


def test_oversized_epsilon_leaves_the_window():
    model = LocalModel(1j, 1.0, 0.9)
    result = linearized_return_map(model, Fraction(1))
    # correction 2*eps*T = 0.9*4*pi exceeds the window width 2*pi
    assert result.window == 2 * math.pi
    assert result.correction == pytest.approx(3.6 * math.pi, rel=1e-6)
    assert result.wrapped_rotation == pytest.approx(0.4 * math.pi, rel=1e-5)


def test_the_return_map_carries_the_measures_of_both_verdicts():
    result = linearized_return_map(LocalModel(1j, 1.0, 0.2), Fraction(3, 2))
    # correction 2*eps*T = 1.2*pi leaves the window (0, pi)
    assert result.correction == -result.rotation_angle
    assert result.correction == pytest.approx(1.2 * math.pi, rel=1e-6)
    assert result.window == math.pi
    assert result.wrapped_rotation == pytest.approx(0.8 * math.pi, rel=1e-5)
    assert result.wrapped_rotation == abs(math.remainder(result.rotation_angle, 2 * math.pi))


def test_the_return_map_and_the_epsilon_cap_share_one_window():
    # the two float formulas of the width, 2*pi*float(1 - frac) and
    # 2*pi*(1.0 - float(frac)), differ in the last bit at 1/3
    ratio = Fraction(1, 3)
    period, window = dynamics._rotation_window(ratio)
    assert window == 2 * math.pi * float(1 - ratio) == 4.1887902047863905
    assert window != 2 * math.pi * (1.0 - float(ratio))
    model = LocalModel.in_window(2j, ratio, 0.5)
    assert model.epsilon == 0.25 * window / (2.0 * 4.0 * period) < 0.5
    assert linearized_return_map(model, ratio).window == window


def fraction_rotation_window(period_ratio: Fraction) -> tuple[float, float]:
    """``dynamics._rotation_window`` as it was, in ``Fraction`` arithmetic:
    the oracle of its integer form."""
    period = 2.0 * math.pi * float(period_ratio)
    gap = 2.0 * math.pi * float(1 - (period_ratio - math.floor(period_ratio)))
    return period, gap


def test_the_integer_window_is_the_fraction_window_bit_for_bit():
    # negative and integer ratios, and numerators past 2**53, where the
    # int division is rounded once
    rng = random.Random(33)
    ratios = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-1, 3),
              Fraction(2**53 + 1, 2), Fraction(-(2**60) - 1, 3), Fraction(2**200 + 1, 2**199)]
    for _ in range(20000):
        scale = 2 ** rng.choice((4, 16, 53, 64, 120))
        ratios.append(Fraction(rng.randint(-scale, scale), rng.choice((1, rng.randint(1, scale)))))
    assert any(r.denominator == 1 for r in ratios) and any(r < 0 for r in ratios)
    for ratio in ratios:
        window = dynamics._rotation_window(ratio)
        assert [x.hex() for x in window] == [x.hex() for x in fraction_rotation_window(ratio)], ratio


def test_monodromy_preserves_the_hyperbolic_area_form():
    # the flow preserves dx dy / y^2, so the Euclidean determinant of the
    # derivative equals the square of the conformal factor ratio; on the
    # closed orbit (start at the zero) that ratio is one. Only the reference
    # integrates off the zero, where the ratio is no quadratic invariant, so
    # it takes 200 steps rather than its own 24
    model = LocalModel(0.3 + 1.4j, 1.2, 0.2)
    start = 0.9 + 0.8j
    matrix, _, endpoint, _ = reference_monodromy(model, 5.0, start=start, steps=200)
    weighted = np.linalg.det(matrix) * start.imag**2 / endpoint.imag**2
    assert abs(weighted - 1.0) < 1e-9
    on_orbit = integrate_monodromy(model, 5.0)
    assert abs(np.linalg.det(on_orbit.matrix) - 1.0) < 1e-9


def test_analytic_return_rate():
    model = LocalModel(0.5 + 2j, 3.0, 1e-2)
    _, angle = analytic_return(model, 1.0)
    assert angle == pytest.approx(-2 * 1e-2 * 4.0 * 9.0)


def _lab_models(fuzz_corpus, seed):
    """(model, period, requested epsilon) at the polygon vertices of a few fuzz
    tuples, iterates 1..3, one requested epsilon drawn large enough to clamp
    to the window limit and one drawn small."""
    rng = random.Random(seed)
    corpus = [data for data in fuzz_corpus if len(data.orbifold_counts) <= 4][:6]
    for data in corpus:
        group = build_polygon_group(data.params)
        for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
            for n in range(1, 4):
                ratio = Fraction(data.d, data.m * t_j) * n
                for requested in (rng.uniform(0.05, 0.5), rng.uniform(1e-6, 1e-5)):
                    model = LocalModel.in_window(group.vertices[j - 1], ratio, requested)
                    yield model, 2 * math.pi * float(ratio), requested


def _workload_models():
    """(model, period, requested epsilon) for every rotation row that
    verify-dynamics integrates at its defaults (iterates 1..2, epsilons 1e-2
    and 1e-3) on (2,3,5,7) and (50,60,70), the lab workload's fixed tuples."""
    for exponents in ((2, 3, 5, 7), (50, 60, 70)):
        data = seifert_data(validate_params(list(exponents)))
        group = build_polygon_group(data.params)
        for j, (_, t_j) in enumerate(data.orbifold_counts, start=1):
            for n in (1, 2):
                ratio = Fraction(data.d, data.m * t_j) * n
                for requested in (1e-2, 1e-3):
                    model = LocalModel.in_window(group.vertices[j - 1], ratio, requested)
                    yield model, 2 * math.pi * float(ratio), requested


def test_the_base_point_never_moves_at_the_zero(fuzz_corpus):
    # the premise of integrating M' = dX(v) M alone: at every zero the lab
    # integrates, the field is exactly (+-0.0, +-0.0), so the reference, which
    # integrates the base point too, ends exactly where it starts
    models = list(_lab_models(fuzz_corpus, seed=5)) + list(_workload_models())
    for model, period, _ in models:
        assert all(x == 0.0 for x in hamiltonian_field(model, model.v))
        _, _, endpoint, _ = reference_monodromy(model, period)
        assert endpoint == model.v


def test_integrator_matches_the_collocation_reference_at_the_zero(fuzz_corpus):
    # the package's closed Pade map and the reference's stage equations, solved
    # by fixed-point iteration, are one Gauss-Legendre step up to rounding
    clamped = free = 0
    models = list(_lab_models(fuzz_corpus, seed=5)) + list(_workload_models())
    for model, period, requested in models:
        clamped += model.epsilon < requested
        free += model.epsilon == requested
        got = integrate_monodromy(model, period)
        matrix, rotation, _, steps = reference_monodromy(model, period)
        assert got.steps == steps
        assert np.abs(got.matrix - matrix).max() <= 1e-14
        assert abs(got.rotation - rotation) <= 1e-14
    assert clamped and free


def _expm_error(model, T, matrix):
    """Relative Frobenius distance of ``matrix`` from exp(T A) at 50 digits."""
    with mpmath.workdps(50):
        exact = mpmath.expm(T * mpmath.matrix(field_jacobian(model, model.v)))
        return float(mpmath.mnorm(mpmath.matrix(matrix) - exact, "f")
                     / mpmath.mnorm(exact, "f"))


# in_window caps the turn T * spin at pi/2, so at most 16 steps of turn theta
# <= 0.1, each off by theta**5/720: a relative error of at most about 2.1e-7
PADE_BOUND = 2.2e-7


def test_the_lab_monodromies_stay_within_the_pade_bound_of_the_exponential(fuzz_corpus):
    models = list(_lab_models(fuzz_corpus, seed=5)) + list(_workload_models())
    # the clamped turn pi/2 takes 16 steps of turn 0.098, the worst case
    models.append((LocalModel.in_window(1j, Fraction(1), 0.5), 2 * math.pi, 0.5))
    errors = []
    for model, period, _ in models:
        got = integrate_monodromy(model, period)
        errors.append(_expm_error(model, period, got.matrix))
        assert abs(np.linalg.det(got.matrix) - 1.0) <= 1e-13
    assert max(errors) <= PADE_BOUND
    assert max(errors) > 1e-7  # the bound is met, not dodged


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    x=st.floats(-5.0, 5.0),
    y=st.floats(0.05, 2000.0),
    ratio=st.fractions(Fraction(1, 200), Fraction(40)),
    requested=st.floats(1e-6, 0.99),
)
def test_every_windowed_model_stays_within_the_pade_bound(x, y, ratio, requested):
    model = LocalModel.in_window(complex(x, y), ratio, requested)
    period = 2 * math.pi * float(ratio)
    got = integrate_monodromy(model, period)
    assert _expm_error(model, period, got.matrix) <= PADE_BOUND
    assert abs(np.linalg.det(got.matrix) - 1.0) <= 1e-13


def test_the_rotation_is_unwrapped_over_several_turns():
    # 2 * eps * T = 40 radians, six full turns of the first column
    model = LocalModel(1j, 1.0, 0.5)
    got = integrate_monodromy(model, 40.0)
    _, angle = analytic_return(model, 40.0)
    assert got.steps == 400
    assert got.rotation == pytest.approx(angle, rel=1e-6)


@pytest.mark.parametrize(
    "model, T", [(LocalModel(1j, 1.0, 0.2), 1.0), (LocalModel(0.3 + 1.4j, 1.2, 0.2), 5.0)]
)
def test_integration_evaluates_the_jacobian_once_and_never_the_field(monkeypatch, model, T):
    # the field itself lives in the collocation reference: dynamics has none
    assert not hasattr(dynamics, "hamiltonian_field")
    calls = {"field_jacobian": []}

    def recording(name):
        real = getattr(dynamics, name)

        def recorded(*args):
            calls[name].append(args)
            return real(*args)

        return recorded

    for name in calls:
        monkeypatch.setattr(dynamics, name, recording(name))
    result = integrate_monodromy(model, T)
    monkeypatch.undo()
    assert calls == {"field_jacobian": [(model, model.v)]}
    # the fixed step count: ceil(T * spin / 0.1), more than one step here
    assert result.steps == reference_steps(model, T) > 1


def test_a_nan_anywhere_in_the_jacobian_leaves_the_step_cap_at_t(monkeypatch):
    # a NaN spin takes one step of h = T, as a zero spin does; the monodromy
    # is then NaN, and so are the measures that verify-dynamics refuses
    model = LocalModel(1j, 1.0, 0.01)
    for entry in range(4):
        rows = [0.5, -0.25, 0.125, 0.0]
        rows[entry] = math.nan
        monkeypatch.setattr(dynamics, "field_jacobian",
                            lambda model, z, e=tuple(rows): ((e[0], e[1]), (e[2], e[3])))
        got = integrate_monodromy(model, 100.0)
        assert got.steps == 1
        assert np.isnan(got.matrix).all() and math.isnan(got.rotation)
        result = linearized_return_map(model, Fraction(16))
        assert result.steps == 1 and math.isnan(result.determinant)
        # a NaN distance passes the degenerate check; the NaN correction
        # fails the window check
        assert math.isnan(result.wrapped_rotation) and math.isnan(result.correction)


def test_an_overflowing_jacobian_takes_one_step_to_a_nan_monodromy():
    # far up the half-plane y^2 overflows: dX(v) is ((nan, inf), (-inf, nan))
    model = LocalModel(1e200j, 1.0, 0.5)
    assert str(field_jacobian(model, model.v)) == "((nan, inf), (-inf, nan))"
    got = integrate_monodromy(model, 1.0)
    assert got.steps == 1
    assert np.isnan(got.matrix).all() and math.isnan(got.rotation)


def test_an_overflowing_rate_ends_in_a_nan_correction():
    # Im v ** 2 overflows (1e200j), or |c| ** 2 does (|c| = 1e200), or the
    # product of the rate does (1e100j with |c| = 1e60): the closed-form angle
    # is -inf with a NaN matrix, not an OverflowError or math.cos's
    # ValueError, and the NaN monodromy gives the NaN correction that
    # verify-dynamics refuses
    for model in (LocalModel(1e200j, 1.0, 0.5), LocalModel(1j, 1e200, 0.5),
                  LocalModel(1e100j, 1e60, 0.5)):
        matrix, angle = analytic_return(model, 1.0)
        assert angle == -math.inf and np.isnan(matrix).all()
        result = linearized_return_map(model, Fraction(1, 6))
        assert result.analytic_angle == -math.inf and result.steps == 1
        assert math.isnan(result.rotation_angle) and math.isnan(result.relative_error)
        assert math.isnan(result.correction)


def test_a_window_far_up_the_half_plane_caps_epsilon_at_zero():
    # Im v ** 2 overflows in the cap itself, which then reads 0: the model has
    # no perturbation, and its return map is NaN
    ratio = Fraction(7, 3)
    model = LocalModel.in_window(1e200j, ratio, 0.01)
    assert model.epsilon == 0.0
    result = linearized_return_map(model, ratio)
    assert math.isnan(result.analytic_angle) and math.isnan(result.correction)


def test_a_window_near_the_real_axis_leaves_epsilon_uncapped():
    # Im v ** 2 underflows to zero, and so does the rate the cap divides by:
    # the cap is then infinite, and the request stands as the model takes it
    model = LocalModel.in_window(1e-170j, Fraction(1, 3), 0.01)
    assert model.epsilon == LocalModel(1e-170j, 1.0, 0.01).epsilon == 0.01
