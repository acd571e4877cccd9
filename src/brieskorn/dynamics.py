"""Perturbed Reeb dynamics over the hyperbolic base.

Scaling the contact form by f = 1 + eps*|phi|^2 projects the Reeb flow to
the Hamiltonian flow of 1/f on the base, for the hyperbolic area form
omega = dx dy / y^2:

    X = (-y^2 * d(1/f)/dy,  y^2 * d(1/f)/dx),      i_X omega = -d(1/f).

The perturbing functions have no global closed form, but near a zero v
only the 2-jet of |phi|^2 matters, so the local model phi(z) = c*(z - v)
exercises everything: v is a fixed point of X whose linearization is a
clockwise rotation at rate 2*eps*y_v^2*|c|^2, and the monodromy of the
variational flow over time T can be compared against the closed-form
rotation. In the invariant frame, which turns counterclockwise at unit
rate along the fiber, the return map therefore rotates by -(T + eps'),
and the grading of the orbit follows from floor((rotation)/2pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tolerances as tol_mod
from .errors import ConfigError, NondegeneracyFailure


class LocalModel:
    """Perturbation f = 1 + eps*|c*(z - v)|^2 with analytic derivatives."""

    def __init__(self, v: complex, coefficient: complex, epsilon: float):
        if not 0.0 <= epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        if v.imag <= 0:
            raise ValueError("the zero must lie in the upper half-plane")
        self.v = complex(v)
        self.coefficient = complex(coefficient)
        self.epsilon = float(epsilon)
        self._k = self.epsilon * abs(coefficient) ** 2

    @classmethod
    def in_window(cls, v: complex, period_ratio: Fraction, epsilon: float) -> LocalModel:
        """Unit-coefficient model at v, with epsilon capped so that the perturbed
        rotation over the period 2*pi*period_ratio is at most a quarter of its
        window (0, gap), gap = 2*pi*(1 - frac(period_ratio)).
        """
        period = 2.0 * math.pi * float(period_ratio)
        gap = 2.0 * math.pi * float(1 - (period_ratio - math.floor(period_ratio)))
        limit = 0.25 * gap / (2.0 * v.imag**2 * period)
        return cls(v, 1.0, min(epsilon, limit))

    def f(self, z: complex) -> float:
        return 1.0 + self._k * abs(z - self.v) ** 2

    def inv_f(self, z: complex) -> float:
        return 1.0 / self.f(z)

    def grad_inv_f(self, z: complex) -> tuple[float, float]:
        f = self.f(z)
        scale = -2.0 * self._k / (f * f)
        return scale * (z.real - self.v.real), scale * (z.imag - self.v.imag)

    def hess_inv_f(self, z: complex) -> np.ndarray:
        f = self.f(z)
        dx = z.real - self.v.real
        dy = z.imag - self.v.imag
        k = self._k
        # d/dxi d/dxj of 1/f for f = 1 + k*(dx^2 + dy^2)
        common = 2.0 * k / (f * f)
        cross = 8.0 * k * k / (f * f * f)
        return np.array(
            [
                [-common + cross * dx * dx, cross * dx * dy],
                [cross * dx * dy, -common + cross * dy * dy],
            ]
        )


def hamiltonian_field(model, z: complex) -> np.ndarray:
    """The projected Reeb field (-y^2 * (1/f)_y, y^2 * (1/f)_x) at z."""
    gx, gy = model.grad_inv_f(z)
    y2 = z.imag * z.imag
    return np.array([-y2 * gy, y2 * gx])


def field_jacobian(model, z: complex) -> np.ndarray:
    """Exact Jacobian of the projected field at z."""
    gx, gy = model.grad_inv_f(z)
    hess = model.hess_inv_f(z)
    y = z.imag
    y2 = y * y
    return np.array(
        [
            [-y2 * hess[1, 0], -2.0 * y * gy - y2 * hess[1, 1]],
            [y2 * hess[0, 0], 2.0 * y * gx + y2 * hess[0, 1]],
        ]
    )


def contraction_residual(model, z: complex, step: float = 1e-5) -> float:
    """Check i_X omega = -d(1/f) with centrally differenced 1/f."""
    x_field = hamiltonian_field(model, z)
    y2 = z.imag * z.imag
    d_inv_f = np.array(
        [
            (model.inv_f(z + step) - model.inv_f(z - step)) / (2.0 * step),
            (model.inv_f(z + 1j * step) - model.inv_f(z - 1j * step)) / (2.0 * step),
        ]
    )
    # (i_X omega)(e_x) = -X_y / y^2, (i_X omega)(e_y) = X_x / y^2
    contraction = np.array([-x_field[1] / y2, x_field[0] / y2])
    return float(np.linalg.norm(contraction + d_inv_f))


def analytic_return(model: LocalModel, T: float) -> tuple[np.ndarray, float]:
    """Closed-form linearized return map at the zero of the local model.

    Returns the matrix and the signed rotation angle (negative, i.e.
    clockwise, for positive epsilon).
    """
    rate = 2.0 * model.epsilon * model.v.imag ** 2 * abs(model.coefficient) ** 2
    theta = rate * T
    matrix = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    return matrix, -theta


# Fehlberg 4(5) embedded pair
_RKF_NODES = (0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


def _rkf_step(deriv, state, h):
    k = [deriv(state)]
    for nodes in _RKF_A:
        stage = state + h * sum(a * ki for a, ki in zip(nodes, k))
        k.append(deriv(stage))
    fifth = state + h * sum(b * ki for b, ki in zip(_RKF_B5, k))
    fourth = state + h * sum(b * ki for b, ki in zip(_RKF_B4, k))
    return fifth, float(np.max(np.abs(fifth - fourth)))


@dataclass
class MonodromyResult:
    matrix: np.ndarray
    rotation: float  # unwrapped signed rotation of the first column
    endpoint: complex
    steps: int


def integrate_monodromy(
    model,
    T: float,
    *,
    start: complex | None = None,
    step_tol: float = 1e-10,
    max_step: float | None = None,
) -> MonodromyResult:
    """Monodromy of the variational system over [0, T].

    Integrates dz/dt = X(z) jointly with dM/dt = dX(z) M from M = identity,
    using an adaptive Fehlberg 4(5) pair. The rotation of the first column
    of M is accumulated step by step (steps are kept small enough that the
    per-step turn stays well under pi, so the unwrap is unambiguous).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    z0 = model.v if start is None else start

    def deriv(state):
        z = complex(state[0], state[1])
        x_field = hamiltonian_field(model, z)
        jac = field_jacobian(model, z)
        m = state[2:].reshape(2, 2)
        return np.concatenate([x_field, (jac @ m).ravel()])

    state = np.array([z0.real, z0.imag, 1.0, 0.0, 0.0, 1.0])
    if T == 0.0:
        return MonodromyResult(matrix=np.eye(2), rotation=0.0, endpoint=z0, steps=0)

    # keep per-step rotation bounded for the unwrap
    spin = float(np.abs(field_jacobian(model, z0)).max())
    cap = T
    if max_step is not None:
        cap = min(cap, max_step)
    if spin > 0:
        cap = min(cap, 0.5 / spin)

    t = 0.0
    h = min(cap, T / 8.0)
    rotation = 0.0
    prev_angle = 0.0
    steps = 0
    while t < T:
        h = min(h, T - t, cap)
        new_state, err = _rkf_step(deriv, state, h)
        scale = step_tol * max(1.0, float(np.max(np.abs(state))))
        if err > scale and h > 1e-13 * T:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            continue
        state = new_state
        t += h
        steps += 1
        angle = math.atan2(state[4], state[2])
        delta = angle - prev_angle
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        rotation += delta
        prev_angle = angle
        if err > 0:
            h = min(cap, h * min(5.0, 0.9 * (scale / err) ** 0.2))
        else:
            h = min(cap, h * 5.0)
    return MonodromyResult(
        matrix=state[2:].reshape(2, 2),
        rotation=rotation,
        endpoint=complex(state[0], state[1]),
        steps=steps,
    )


@dataclass
class LinearizedReturn:
    """Everything extracted from the linearized return map over one orbit."""

    analytic_matrix: np.ndarray
    analytic_angle: float
    ode_monodromy: np.ndarray
    rotation_angle: float
    determinant: float
    relative_error: float
    cz_index: int | None


def linearized_return_map(
    model: LocalModel,
    T: float,
    *,
    period_ratio: Fraction | None = None,
    tolerances=None,
) -> LinearizedReturn:
    """Integrated versus closed-form return map, with the orbit's grading.

    ``period_ratio`` is T / 2*pi as an exact rational when the caller knows
    it (the orbit periods are rational multiples of 2*pi); it pins the
    unperturbed rotation count so the index extraction is exact.

    The total rotation in the invariant frame is (ode rotation) - T, and
    the Conley-Zehnder index of the elliptic orbit is 2*floor(theta) + 1
    for theta = ((ode rotation) - T) / 2*pi.

    Raises NondegeneracyFailure (with the partial result attached) when
    the perturbed rotation is a multiple of 2*pi within tolerance, or when
    it is large enough to cross the next integer level, in which case the
    caller should shrink epsilon.
    """
    tols = tol_mod.resolve(tolerances)
    analytic_matrix, analytic_angle = analytic_return(model, T)
    ode = integrate_monodromy(model, T, step_tol=tols["ode_step"])
    determinant = float(np.linalg.det(ode.matrix))
    relative_error = float(
        np.linalg.norm(ode.matrix - analytic_matrix) / np.linalg.norm(analytic_matrix)
    )

    ratio = period_ratio if period_ratio is not None else T / (2.0 * math.pi)
    fractional = float(ratio - math.floor(ratio))

    correction = -ode.rotation  # positive for a clockwise perturbed rotation
    result = LinearizedReturn(
        analytic_matrix=analytic_matrix,
        analytic_angle=analytic_angle,
        ode_monodromy=ode.matrix,
        rotation_angle=ode.rotation,
        determinant=determinant,
        relative_error=relative_error,
        cz_index=None,
    )

    two_pi = 2.0 * math.pi
    wrapped = abs(math.remainder(ode.rotation, two_pi))
    if wrapped <= tols["degenerate_rotation"]:
        raise NondegeneracyFailure(
            f"perturbed rotation {ode.rotation:.3e} is a multiple of 2*pi; "
            "perturb epsilon",
            result,
        )
    gap = two_pi * (1.0 - fractional) if fractional > 0.0 else two_pi
    if not 0.0 < correction < gap:
        raise NondegeneracyFailure(
            f"rotation correction {correction:.3e} leaves the window (0, {gap:.3e}); "
            "shrink epsilon",
            result,
        )

    if period_ratio is not None:
        theta_floor = -math.floor(period_ratio) - 1
    else:
        theta_floor = math.floor((ode.rotation - T) / two_pi)
    result.cz_index = 2 * theta_floor + 1
    return result
