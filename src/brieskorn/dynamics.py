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

The field, its Jacobian and the model's Hessian are plain float tuples.
The return map is integrated at the zero, where X(v) = 0: the base point
never moves and the variational system is M' = A M with the constant
A = dX(v), evaluated once per integration. M is integrated on four Python
floats with the Fehlberg tableau unrolled stage by stage: no step calls
numpy or BLAS, so the integration is IEEE-deterministic. Only the finished
monodromy and the closed-form map are numpy arrays.
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

    def grad_inv_f(self, z: complex) -> tuple[float, float]:
        f = self.f(z)
        scale = -2.0 * self._k / (f * f)
        return scale * (z.real - self.v.real), scale * (z.imag - self.v.imag)

    def hess_inv_f(self, z: complex) -> tuple[tuple[float, float], tuple[float, float]]:
        f = self.f(z)
        dx = z.real - self.v.real
        dy = z.imag - self.v.imag
        k = self._k
        # d/dxi d/dxj of 1/f for f = 1 + k*(dx^2 + dy^2)
        common = 2.0 * k / (f * f)
        cross = 8.0 * k * k / (f * f * f)
        return (
            (-common + cross * dx * dx, cross * dx * dy),
            (cross * dx * dy, -common + cross * dy * dy),
        )


def hamiltonian_field(model, z: complex) -> tuple[float, float]:
    """The projected Reeb field (-y^2 * (1/f)_y, y^2 * (1/f)_x) at z."""
    gx, gy = model.grad_inv_f(z)
    y2 = z.imag * z.imag
    return -y2 * gy, y2 * gx


def field_jacobian(model, z: complex) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact Jacobian of the projected field at z, as rows."""
    gx, gy = model.grad_inv_f(z)
    hess = model.hess_inv_f(z)
    y = z.imag
    y2 = y * y
    return (
        (-y2 * hess[1][0], -2.0 * y * gy - y2 * hess[1][1]),
        (y2 * hess[0][0], 2.0 * y * gx + y2 * hess[0][1]),
    )


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
_RKF_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


(_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43), \
    (_A50, _A51, _A52, _A53, _A54) = _RKF_A
_B50, _B51, _B52, _B53, _B54, _B55 = _RKF_B5
_B40, _B41, _B42, _B43, _B44, _B45 = _RKF_B4


def _rkf_step(jac, state, h):
    """One Fehlberg 4(5) step of M' = A M, A = ``jac``: (fifth-order M, error).

    The state is M as four floats, row by row. The six stages are written
    out: entry by entry, each stage adds h * (0 + a0*k0 + a1*k1 + ...) in
    tableau order, as ``sum`` over the tableau would, and each k is A M as
    four two-term sums.
    """
    (j0, j1), (j2, j3) = jac
    a, b, c, d = state
    k0a, k0b, k0c, k0d = j0 * a + j1 * c, j0 * b + j1 * d, j2 * a + j3 * c, j2 * b + j3 * d
    sa = a + h * (0 + _A10 * k0a)
    sb = b + h * (0 + _A10 * k0b)
    sc = c + h * (0 + _A10 * k0c)
    sd = d + h * (0 + _A10 * k0d)
    k1a, k1b, k1c, k1d = j0 * sa + j1 * sc, j0 * sb + j1 * sd, j2 * sa + j3 * sc, j2 * sb + j3 * sd
    sa = a + h * (0 + _A20 * k0a + _A21 * k1a)
    sb = b + h * (0 + _A20 * k0b + _A21 * k1b)
    sc = c + h * (0 + _A20 * k0c + _A21 * k1c)
    sd = d + h * (0 + _A20 * k0d + _A21 * k1d)
    k2a, k2b, k2c, k2d = j0 * sa + j1 * sc, j0 * sb + j1 * sd, j2 * sa + j3 * sc, j2 * sb + j3 * sd
    sa = a + h * (0 + _A30 * k0a + _A31 * k1a + _A32 * k2a)
    sb = b + h * (0 + _A30 * k0b + _A31 * k1b + _A32 * k2b)
    sc = c + h * (0 + _A30 * k0c + _A31 * k1c + _A32 * k2c)
    sd = d + h * (0 + _A30 * k0d + _A31 * k1d + _A32 * k2d)
    k3a, k3b, k3c, k3d = j0 * sa + j1 * sc, j0 * sb + j1 * sd, j2 * sa + j3 * sc, j2 * sb + j3 * sd
    sa = a + h * (0 + _A40 * k0a + _A41 * k1a + _A42 * k2a + _A43 * k3a)
    sb = b + h * (0 + _A40 * k0b + _A41 * k1b + _A42 * k2b + _A43 * k3b)
    sc = c + h * (0 + _A40 * k0c + _A41 * k1c + _A42 * k2c + _A43 * k3c)
    sd = d + h * (0 + _A40 * k0d + _A41 * k1d + _A42 * k2d + _A43 * k3d)
    k4a, k4b, k4c, k4d = j0 * sa + j1 * sc, j0 * sb + j1 * sd, j2 * sa + j3 * sc, j2 * sb + j3 * sd
    sa = a + h * (0 + _A50 * k0a + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
    sb = b + h * (0 + _A50 * k0b + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
    sc = c + h * (0 + _A50 * k0c + _A51 * k1c + _A52 * k2c + _A53 * k3c + _A54 * k4c)
    sd = d + h * (0 + _A50 * k0d + _A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
    k5a, k5b, k5c, k5d = j0 * sa + j1 * sc, j0 * sb + j1 * sd, j2 * sa + j3 * sc, j2 * sb + j3 * sd
    a5 = a + h * (0 + _B50 * k0a + _B51 * k1a + _B52 * k2a + _B53 * k3a
                  + _B54 * k4a + _B55 * k5a)
    b5 = b + h * (0 + _B50 * k0b + _B51 * k1b + _B52 * k2b + _B53 * k3b
                  + _B54 * k4b + _B55 * k5b)
    c5 = c + h * (0 + _B50 * k0c + _B51 * k1c + _B52 * k2c + _B53 * k3c
                  + _B54 * k4c + _B55 * k5c)
    d5 = d + h * (0 + _B50 * k0d + _B51 * k1d + _B52 * k2d + _B53 * k3d
                  + _B54 * k4d + _B55 * k5d)
    a4 = a + h * (0 + _B40 * k0a + _B41 * k1a + _B42 * k2a + _B43 * k3a
                  + _B44 * k4a + _B45 * k5a)
    b4 = b + h * (0 + _B40 * k0b + _B41 * k1b + _B42 * k2b + _B43 * k3b
                  + _B44 * k4b + _B45 * k5b)
    c4 = c + h * (0 + _B40 * k0c + _B41 * k1c + _B42 * k2c + _B43 * k3c
                  + _B44 * k4c + _B45 * k5c)
    d4 = d + h * (0 + _B40 * k0d + _B41 * k1d + _B42 * k2d + _B43 * k3d
                  + _B44 * k4d + _B45 * k5d)
    ea, eb, ec, ed = abs(a5 - a4), abs(b5 - b4), abs(c5 - c4), abs(d5 - d4)
    # the largest, or NaN if one is NaN: the sum is NaN exactly then
    err = ea + eb + ec + ed
    if err == err:
        err = max(ea, eb, ec, ed)
    return (a5, b5, c5, d5), err


@dataclass
class MonodromyResult:
    matrix: np.ndarray
    rotation: float  # unwrapped signed rotation of the first column
    steps: int  # accepted steps
    rejected: int  # steps retried with a smaller h


def integrate_monodromy(model, T: float, *, step_tol: float = 1e-10) -> MonodromyResult:
    """Monodromy of the variational system over [0, T] at the model's zero.

    X(v) = 0, so the base point stays at v and the variational system is
    M' = A M with the constant A = dX(v), integrated from M = identity with
    an adaptive Fehlberg 4(5) pair. A is evaluated once per call. The
    rotation of the first column of M is accumulated step by step (steps
    are kept small enough that the per-step turn stays well under pi, so
    the unwrap is unambiguous).

    The state is M as four Python floats and every stage is written out in
    plain float arithmetic, so no step calls numpy or BLAS and the result
    is IEEE-deterministic. The error tolerance is scaled by the largest of
    1, |Re v|, |Im v| and the entries of M, the size of the whole state
    (z, M) of the variational system, whose z stays at v.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0.0:
        return MonodromyResult(matrix=np.eye(2), rotation=0.0, steps=0, rejected=0)

    jac = field_jacobian(model, model.v)
    vx, vy = abs(model.v.real), abs(model.v.imag)
    # keep per-step rotation bounded for the unwrap
    spin = tol_mod.worst(abs(entry) for row in jac for entry in row)
    cap = min(T, 0.5 / spin) if spin > 0 else T

    state = (1.0, 0.0, 0.0, 1.0)
    t = 0.0
    h = min(cap, T / 8.0)
    rotation = 0.0
    prev_angle = 0.0
    steps = rejected = 0
    while t < T:
        h = min(h, T - t, cap)
        new_state, err = _rkf_step(jac, state, h)
        # no NaN guard: a NaN in v or M makes err NaN, and then scale is unread
        scale = step_tol * max(1.0, vx, vy, abs(state[0]), abs(state[1]),
                               abs(state[2]), abs(state[3]))
        if err > scale and h > 1e-13 * T:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            rejected += 1
            continue
        state = new_state
        t += h
        steps += 1
        angle = math.atan2(state[2], state[0])
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
    m0, m1, m2, m3 = state
    return MonodromyResult(
        matrix=np.array([[m0, m1], [m2, m3]]), rotation=rotation, steps=steps, rejected=rejected
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
    steps: int  # accepted integrator steps
    rejected_steps: int


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
        steps=ode.steps,
        rejected_steps=ode.rejected,
    )

    two_pi = 2.0 * math.pi
    wrapped = abs(math.remainder(ode.rotation, two_pi))
    if wrapped <= tols["degenerate_rotation"]:
        raise NondegeneracyFailure(
            f"perturbed rotation {ode.rotation:.3e} is a multiple of 2*pi; "
            "perturb epsilon",
            result, value=wrapped, tolerance=tols["degenerate_rotation"],
        )
    gap = two_pi * (1.0 - fractional) if fractional > 0.0 else two_pi
    if not 0.0 < correction < gap:
        raise NondegeneracyFailure(
            f"rotation correction {correction:.3e} leaves the window (0, {gap:.3e}); "
            "shrink epsilon",
            result, value=correction, tolerance=gap,
        )

    if period_ratio is not None:
        theta_floor = -math.floor(period_ratio) - 1
    else:
        theta_floor = math.floor((ode.rotation - T) / two_pi)
    result.cz_index = 2 * theta_floor + 1
    return result
