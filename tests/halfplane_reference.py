"""Numpy-scalar reference for ``halfplane``'s lifts, and the object forms of
the invariance draws.

``continued_arg`` is the package's continued argument as it ran on numpy
scalars: c*w + d and the quotient in complex128 arithmetic, phases by
``cmath.phase``. The package computes the same on Python floats and must
match it bit for bit. ``random_mobius`` and ``canonical`` build the
``MobiusElement`` and ``LiftedIsometry`` that ``random_samples`` and
``invariance_residuals`` handle as rows of floats.
"""

import cmath
import math

import numpy as np

from brieskorn.halfplane import LiftedIsometry, MobiusElement, random_matrix

REF = 1j


def continued_arg(c, d, z_to, *, z_from=REF, arg_from=None, _depth=0):
    c, d = np.float64(c), np.float64(d)
    w0 = c * z_from + d
    w1 = c * z_to + d
    if arg_from is None:
        arg_from = cmath.phase(w0)
    turn = cmath.phase(w1 / w0)
    if abs(turn) < 0.5 * math.pi or _depth > 60:
        return arg_from + turn
    mid = 0.5 * (z_from + z_to)
    half = continued_arg(c, d, mid, z_from=z_from, arg_from=arg_from, _depth=_depth + 1)
    return continued_arg(c, d, z_to, z_from=mid, arg_from=half, _depth=_depth + 1)


def theta_shift(h: LiftedIsometry, z: complex) -> float:
    """``h.theta_shift(z)`` on numpy scalars."""
    c, d = h.base.c, h.base.d
    return h.winding_offset - 2.0 * (continued_arg(c, d, z) - cmath.phase(c * 1j + d))


def random_mobius(rng, **bounds) -> MobiusElement:
    a, b, c, d = random_matrix(rng, **bounds)
    return MobiusElement([[a, b], [c, d]])


def canonical(base: MobiusElement) -> LiftedIsometry:
    """The lift whose shift at i is the principal value -2*Arg(c*i + d)."""
    return LiftedIsometry(base, -2.0 * cmath.phase(base.c * 1j + base.d))
