"""Numpy reference for ``dynamics.integrate_monodromy``.

The 2-stage Gauss-Legendre collocation of the variational system
dz/dt = X(z), dM/dt = dX(z) M, written in its stage form over numpy arrays:
the state is one 6-vector, and each step solves the stage equations
K_i = F(y + h * sum_j a_ij K_j) by fixed-point iteration, with the field and
the Jacobian evaluated at each stage's own base point. It shares the field
and the Jacobian with the package and nothing of its step, which is the
closed (2,2) Pade map of a constant A. Unlike the package, which integrates
M' = dX(v) M at the model's zero v only, it also starts off the zero.
"""

import math

import numpy as np

from brieskorn.dynamics import field_jacobian, hamiltonian_field

_ROOT3 = math.sqrt(3.0)
_GL_A = np.array([[0.25, 0.25 - _ROOT3 / 6.0], [0.25 + _ROOT3 / 6.0, 0.25]])
_GL_B = np.array([0.5, 0.5])


def _collocation_step(deriv, state, h):
    stages = np.array([deriv(state), deriv(state)])
    for _ in range(100):  # contracts by about h * spin / 2 per pass
        update = np.array([deriv(state + h * (row @ stages)) for row in _GL_A])
        if np.array_equal(update, stages):
            break
        stages = update
    return state + h * (_GL_B @ stages)


def reference_steps(model, T, start=None):
    """N = ceil(T * spin / 0.1), spin the largest entry of |dX| at the start."""
    z0 = model.v if start is None else start
    spin = float(np.abs(np.array(field_jacobian(model, z0))).max())
    return max(1, math.ceil(T * spin / 0.1))


def reference_monodromy(model, T, *, start=None, steps=None):
    """(matrix, rotation, endpoint, steps) over [0, T] in N equal steps."""
    z0 = model.v if start is None else start
    if T == 0.0:
        return np.eye(2), 0.0, z0, 0
    if steps is None:
        steps = reference_steps(model, T, z0)

    def deriv(state):
        z = complex(state[0], state[1])
        x_field = np.array(hamiltonian_field(model, z))
        jac = np.array(field_jacobian(model, z))
        m = state[2:].reshape(2, 2)
        return np.concatenate([x_field, (jac @ m).ravel()])

    state = np.array([z0.real, z0.imag, 1.0, 0.0, 0.0, 1.0])
    h = T / steps
    rotation = prev_angle = 0.0
    for _ in range(steps):
        state = _collocation_step(deriv, state, h)
        angle = math.atan2(state[4], state[2])
        delta = angle - prev_angle
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        rotation += delta
        prev_angle = angle
    return state[2:].reshape(2, 2), rotation, complex(state[0], state[1]), steps
