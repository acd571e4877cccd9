"""Numpy reference for ``dynamics.integrate_monodromy``.

The same adaptive Fehlberg 4(5) integration of the variational system
dz/dt = X(z), dM/dt = dX(z) M, written over numpy arrays: the state is one
6-vector, each stage evaluates the field and the Jacobian at its own base
point, sums the tableau with Python's ``sum`` over arrays and forms dX(z) M
with ``@``. It shares the field, the Jacobian and the tableau with the
package and nothing of its float-by-float step. Unlike the package, which
integrates M' = dX(v) M at the model's zero v only, it also starts off the
zero.
"""

import math

import numpy as np

from brieskorn.dynamics import _RKF_A, _RKF_B4, _RKF_B5, field_jacobian, hamiltonian_field


def _rkf_step(deriv, state, h):
    k = [deriv(state)]
    for nodes in _RKF_A:
        stage = state + h * sum(a * ki for a, ki in zip(nodes, k))
        k.append(deriv(stage))
    fifth = state + h * sum(b * ki for b, ki in zip(_RKF_B5, k))
    fourth = state + h * sum(b * ki for b, ki in zip(_RKF_B4, k))
    return fifth, float(np.max(np.abs(fifth - fourth)))


def reference_monodromy(model, T, *, start=None, step_tol=1e-10):
    """(matrix, rotation, endpoint, accepted steps, rejected steps) over [0, T]."""
    z0 = model.v if start is None else start

    def deriv(state):
        z = complex(state[0], state[1])
        x_field = np.array(hamiltonian_field(model, z))
        jac = np.array(field_jacobian(model, z))
        m = state[2:].reshape(2, 2)
        return np.concatenate([x_field, (jac @ m).ravel()])

    state = np.array([z0.real, z0.imag, 1.0, 0.0, 0.0, 1.0])
    if T == 0.0:
        return np.eye(2), 0.0, z0, 0, 0

    spin = float(np.abs(np.array(field_jacobian(model, z0))).max())
    cap = T
    if spin > 0:
        cap = min(cap, 0.5 / spin)

    t = 0.0
    h = min(cap, T / 8.0)
    rotation = 0.0
    prev_angle = 0.0
    steps = rejected = 0
    while t < T:
        h = min(h, T - t, cap)
        new_state, err = _rkf_step(deriv, state, h)
        scale = step_tol * max(1.0, float(np.max(np.abs(state))))
        if err > scale and h > 1e-13 * T:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            rejected += 1
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
    return state[2:].reshape(2, 2), rotation, complex(state[0], state[1]), steps, rejected
