"""Object and numpy-scalar references for ``halfplane``'s array paths.

``continued_arg`` is the package's continued argument as it ran on numpy
scalars: c*w + d and the quotient in complex128 arithmetic, phases by
``cmath.phase``. The package computes the same on Python floats and must
match it bit for bit. ``random_matrix``, ``random_point`` and
``random_mobius`` draw one sample at a time as objects or rows, and
``canonical`` builds the ``LiftedIsometry`` that ``random_samples`` and
``invariance_residuals`` handle as arrays. ``power`` and
``action_deviation`` are the lifted relation check point by point:
``k`` calls of ``compose`` and one ``apply`` per point, which
``halfplane.lifted_power`` and ``polygon.check_relations`` compute as
arrays.
"""

import cmath
import math
import random

import numpy as np

from brieskorn import tolerances
from brieskorn.halfplane import LiftedIsometry, MobiusElement, UpperHalfPoint

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


def random_matrix(rng: random.Random, *, entry_bound: float = 2.0,
                  det_floor: float = 0.05) -> tuple[float, float, float, float]:
    """Entries (a, b, c, d) uniform in [-bound, bound] with determinant above
    ``det_floor``, divided by sqrt(det) as ``MobiusElement`` divides them."""
    # rng.uniform(low, high) is low + (high - low) * rng.random(), written out
    draw, low, span = rng.random, -entry_bound, 2.0 * entry_bound
    while True:
        a, b, c, d = (low + span * draw(), low + span * draw(),
                      low + span * draw(), low + span * draw())
        det = a * d - b * c
        if det > det_floor:
            if abs(det - 1.0) > MobiusElement.DET_SLACK:
                root = math.sqrt(det)
                return a / root, b / root, c / root, d / root
            return a, b, c, d


def random_point(rng: random.Random) -> UpperHalfPoint:
    """x, y, t uniform in [-2, 2], [0.2, 3] and [-6, 6], as ``rng.uniform`` draws them."""
    draw = rng.random
    return UpperHalfPoint(-2.0 + 4.0 * draw(), 0.2 + 2.8 * draw(), -6.0 + 12.0 * draw())


def random_mobius(rng, **bounds) -> MobiusElement:
    a, b, c, d = random_matrix(rng, **bounds)
    return MobiusElement([[a, b], [c, d]])


def canonical(base: MobiusElement) -> LiftedIsometry:
    """The lift whose shift at i is the principal value -2*Arg(c*i + d)."""
    return LiftedIsometry(base, -2.0 * cmath.phase(base.c * 1j + base.d))


def power(h: LiftedIsometry, k: int) -> LiftedIsometry:
    """h composed with itself k times, by k calls of ``compose``."""
    out = LiftedIsometry.identity()
    for _ in range(k):
        out = h.compose(out)
    return out


def action_deviation(h: LiftedIsometry, vertical_shift: float, points) -> float:
    """Worst distance of h from the vertical shift, point by point."""
    deviations = []
    for p in points:
        image = h.apply(p)
        deviations += [abs(image.x - p.x) + abs(image.y - p.y),
                       abs(image.t - (p.t + vertical_shift))]
    return tolerances.worst(deviations)


def lifted_residuals(group, *, samples=20, seed=0) -> dict[str, float]:
    """The lifted relation residuals of ``check_relations``, point by point."""
    rng = random.Random(seed)
    points = [random_point(rng) for _ in range(max(1, samples))]
    exponents = group.params.exponents
    two_pi = 2.0 * math.pi
    out = {}
    product = LiftedIsometry.identity()
    for j, (a_j, lift) in enumerate(zip(exponents, group.lifted_generators), start=1):
        out[f"lift_order[{j}]"] = action_deviation(power(lift, a_j), two_pi, points)
        product = product.compose(lift)
    out["lift_product"] = action_deviation(product, two_pi * (len(exponents) - 2), points)
    return out
