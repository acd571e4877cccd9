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

The field's Jacobian and the model's Hessian are plain float tuples.
The return map is integrated at the zero, where X(v) = 0, so the package
never evaluates X itself: the base point never moves, and the variational
system is M' = A M with the constant A = dX(v), evaluated once per
integration. M is integrated by fixed 2-stage Gauss-Legendre steps, which
conserve det M = 1, on four Python floats: no step calls numpy or BLAS, so
the integration is IEEE-deterministic. The monodromy and the closed-form
map are nested float tuples too, and the return map's determinant and
Frobenius norms are written out on their entries: this module calls no
numpy at all. Each row's period and grading window come from the exact
period ratio p/q by integer division (``_rotation_window``), with no
``Fraction`` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import tolerances as tol_mod
from .errors import ConfigError

Matrix = tuple[tuple[float, float], tuple[float, float]]  # rows ((a, b), (c, d))


def _rotation_window(period_ratio: Fraction) -> tuple[float, float]:
    """The period 2*pi*period_ratio and the gap 2*pi*(1 - frac(period_ratio)):
    a correction in the window (0, gap) keeps the orbit's grading. Every
    row's epsilon cap and window check read both from here.

    With period_ratio = p/q, q > 0, 1 - frac is (q - p % q)/q exactly, and
    each ratio becomes a float by one correctly rounded int division, as
    ``float`` of a ``Fraction`` does: no ``Fraction`` is formed."""
    p, q = period_ratio.numerator, period_ratio.denominator
    return 2.0 * math.pi * (p / q), 2.0 * math.pi * ((q - p % q) / q)


class LocalModel:
    """Perturbation f = 1 + eps*|c*(z - v)|^2 with analytic derivatives."""

    def __init__(self, v: complex, coefficient: complex, epsilon: float):
        if not 0.0 <= epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        if v.imag <= 0:
            raise ConfigError("the zero must lie in the upper half-plane")
        self.v = complex(v)
        self.coefficient = complex(coefficient)
        self.epsilon = float(epsilon)
        self._k = self.epsilon * _square(abs(coefficient))

    @classmethod
    def in_window(cls, v: complex, period_ratio: Fraction, epsilon: float) -> LocalModel:
        """Unit-coefficient model at v, with epsilon capped so that the perturbed
        rotation over the period 2*pi*period_ratio is at most a quarter of its
        window (see ``_rotation_window``). A request outside [0, 1) reaches the
        model's check uncapped; a zero off the upper half-plane or a period
        that is not positive is refused before the cap divides by either.
        """
        if v.imag <= 0:
            raise ConfigError("the zero must lie in the upper half-plane")
        period, gap = _rotation_window(period_ratio)
        if not period > 0.0:
            raise ConfigError(f"the period 2*pi*{period_ratio} must be positive")
        # a rate that underflows to zero puts no cap on epsilon
        rate = 2.0 * _square(v.imag) * period
        limit = 0.25 * gap / rate if rate else math.inf
        return cls(v, 1.0, min(epsilon, limit) if epsilon < 1.0 else epsilon)

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


def _square(y: float) -> float:
    """``y ** 2``, or inf where the float power overflows (|y| above about 1.3e154).

    The power, not ``y * y``: the two differ in the last bit for some y, and
    every rotation row rests on this one.
    """
    try:
        return y ** 2
    except OverflowError:
        return math.inf


def analytic_return(model: LocalModel, T: float) -> tuple[Matrix, float]:
    """Closed-form linearized return map at the zero of the local model.

    Returns the matrix and the signed rotation angle (negative, i.e.
    clockwise, for positive epsilon). An infinite angle has no rotation
    matrix, so the matrix is NaN there, as the integrated one is.
    """
    rate = 2.0 * model.epsilon * _square(model.v.imag) * _square(abs(model.coefficient))
    theta = rate * T
    if math.isinf(theta):  # math.cos and math.sin refuse it
        cos = sin = math.nan
    else:
        cos, sin = math.cos(theta), math.sin(theta)
    return ((cos, sin), (-sin, cos)), -theta


# Fixed step: h * spin <= _TURN, spin the largest entry of |A|. Each step
# then turns M by at most about 0.1, far below pi for the unwrap, and the
# Pade phase error of a step that turns by theta is theta**5/720.
_TURN = 0.1


def _gauss_legendre_map(jac, h):
    """The 2-stage Gauss-Legendre step of M' = A M, A = ``jac``, as four floats.

    A is constant, so the stage equations are linear and the step is the
    (2,2) Pade map S = D^-1 N of hA, N = I + hA/2 + (hA)^2/12 and
    D = I - hA/2 + (hA)^2/12, with D^-1 = adj(D) / det(D). S is returned row
    by row, like the state. A NaN or an infinity anywhere in A makes S NaN.
    """
    (a, b), (c, d) = jac
    p, q, r, s = h * a, h * b, h * c, h * d
    # (hA)^2 / 12
    x0, x1 = (p * p + q * r) / 12.0, (p * q + q * s) / 12.0
    x2, x3 = (r * p + s * r) / 12.0, (r * q + s * s) / 12.0
    n0, n1, n2, n3 = 1.0 + p / 2.0 + x0, q / 2.0 + x1, r / 2.0 + x2, 1.0 + s / 2.0 + x3
    d0, d1, d2, d3 = 1.0 - p / 2.0 + x0, x1 - q / 2.0, x2 - r / 2.0, 1.0 - s / 2.0 + x3
    det = d0 * d3 - d1 * d2
    i0, i1, i2, i3 = d3 / det, -d1 / det, -d2 / det, d0 / det
    return i0 * n0 + i1 * n2, i0 * n1 + i1 * n3, i2 * n0 + i3 * n2, i2 * n1 + i3 * n3


@dataclass
class MonodromyResult:
    matrix: Matrix
    rotation: float  # unwrapped signed rotation of the first column
    steps: int


def integrate_monodromy(model, T: float) -> MonodromyResult:
    """Monodromy of the variational system over [0, T] at the model's zero.

    X(v) = 0, so the base point stays at v and the variational system is
    M' = A M with the constant A = dX(v), evaluated once per call. M is
    integrated from the identity by N fixed 2-stage Gauss-Legendre steps of
    h = T/N, N = ceil(T * spin / 0.1). Collocation conserves quadratic
    invariants, so det M stays 1 to rounding for the trace-free A. The
    rotation of the first column of M is accumulated step by step.

    The step map S is formed once, and each step is M <- S M on four Python
    floats, so no step calls numpy or BLAS and the result is
    IEEE-deterministic. A NaN or infinite spin gives one step, and then a
    NaN monodromy.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0.0:
        return MonodromyResult(matrix=((1.0, 0.0), (0.0, 1.0)), rotation=0.0, steps=0)

    jac = field_jacobian(model, model.v)
    spin = tol_mod.worst(abs(entry) for row in jac for entry in row)
    turns = T * spin / _TURN
    steps = math.ceil(turns) if 1.0 < turns < math.inf else 1
    s0, s1, s2, s3 = _gauss_legendre_map(jac, T / steps)

    m0, m1, m2, m3 = 1.0, 0.0, 0.0, 1.0
    rotation = prev_angle = 0.0
    for _ in range(steps):
        m0, m1, m2, m3 = (s0 * m0 + s1 * m2, s0 * m1 + s1 * m3,
                          s2 * m0 + s3 * m2, s2 * m1 + s3 * m3)
        angle = math.atan2(m2, m0)
        rotation += math.remainder(angle - prev_angle, 2.0 * math.pi)
        prev_angle = angle
    return MonodromyResult(matrix=((m0, m1), (m2, m3)), rotation=rotation, steps=steps)


@dataclass
class LinearizedReturn:
    """Everything measured on the linearized return map over one orbit; ``cli``
    decides which rows can be graded and holds the errors to their tolerances."""

    analytic_matrix: Matrix
    analytic_angle: float
    ode_monodromy: Matrix
    rotation_angle: float
    determinant: float
    relative_error: float
    wrapped_rotation: float  # distance of the rotation from the nearest multiple of 2*pi
    correction: float  # -rotation_angle, positive for a clockwise rotation
    window: float  # the correction's window (0, window), from _rotation_window
    cz_index: int
    steps: int  # integrator steps


def _frobenius(*entries: float) -> float:
    """The Frobenius norm of a matrix, its squared entries added from left to right."""
    total = 0.0
    for x in entries:
        total += x * x
    return math.sqrt(total)


def linearized_return_map(model: LocalModel, period_ratio: Fraction) -> LinearizedReturn:
    """Integrated versus closed-form return map over the period
    T = 2*pi*period_ratio, with the orbit's grading.

    The total rotation in the invariant frame is (ode rotation) - T, and the
    Conley-Zehnder index of the elliptic orbit is 2*floor(theta) + 1 for
    theta = ((ode rotation) - T) / 2*pi. While the correction lies in its
    window, floor(theta) = -floor(period_ratio) - 1, which the exact ratio
    gives without rounding.
    """
    period, window = _rotation_window(period_ratio)
    analytic_matrix, analytic_angle = analytic_return(model, period)
    ode = integrate_monodromy(model, period)
    (m0, m1), (m2, m3) = ode.matrix
    (r0, r1), (r2, r3) = analytic_matrix
    relative_error = (_frobenius(m0 - r0, m1 - r1, m2 - r2, m3 - r3)
                      / _frobenius(r0, r1, r2, r3))
    return LinearizedReturn(
        analytic_matrix=analytic_matrix,
        analytic_angle=analytic_angle,
        ode_monodromy=ode.matrix,
        rotation_angle=ode.rotation,
        determinant=m0 * m3 - m1 * m2,
        relative_error=relative_error,
        wrapped_rotation=abs(math.remainder(ode.rotation, 2.0 * math.pi)),
        correction=-ode.rotation,
        window=window,
        cz_index=2 * (-math.floor(period_ratio) - 1) + 1,
        steps=ode.steps,
    )
