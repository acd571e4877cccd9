"""Object and numpy-scalar references for ``halfplane``'s array paths.

``continued_arg`` is the package's continued argument as it ran on numpy
scalars: c*w + d and the quotient in complex128 arithmetic, phases by
``cmath.phase``. The package computes the same on Python floats and must
match it bit for bit. ``apply`` maps one ``UpperHalfPoint`` by a lift.
``random_matrix``, ``random_point`` and ``random_mobius`` draw one sample
at a time as objects or rows, and ``canonical`` builds the
``LiftedIsometry`` that ``random_samples`` and ``invariance_residuals``
handle as arrays. ``power`` and ``action_deviation`` are the lifted
relation check point by point: ``k`` calls of ``compose`` and one
``apply`` per point, which ``halfplane.lifted_powers``,
``halfplane.lifted_images`` and ``polygon.check_relations`` compute as
arrays.

``frame_at``, ``contact_covector`` and ``lifted_jacobian`` give the
invariant frame, the contact form and the lift's analytic Jacobian at one
point, and ``contact_invariance_residual`` and
``frame_invariance_residual`` the residuals that
``halfplane.invariance_residuals`` computes over arrays. Each product of a
vector with the Jacobian and each norm is written out as sums of products
over all three coordinates, added from left to right, as
``halfplane`` writes them out with the zero entries of the Jacobian left
out: a term 0*x or 1*x changes no finite sum, so the two agree bit for bit
on finite entries. The Jacobian's complex entries are numpy complex128
scalars, rounded as the array operations round them.
"""

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from brieskorn import tolerances
from brieskorn.halfplane import LiftedIsometry, MobiusElement

REF = 1j


@dataclass(frozen=True)
class UpperHalfPoint:
    x: float
    y: float
    t: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"point must have y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def apply(h: LiftedIsometry, p: UpperHalfPoint) -> UpperHalfPoint:
    """The image of p under h: the Moebius image of p.z, and t plus h's t-shift at p.z."""
    image = h.base.apply(p.z)
    return UpperHalfPoint(image.real, image.imag, p.t + h.theta_shift(p.z))


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
    return MobiusElement(a, b, c, d)


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
        image = apply(h, p)
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


def frame_at(p: UpperHalfPoint) -> tuple[np.ndarray, np.ndarray]:
    """The global invariant frame of the contact planes at p.

    Both vectors are annihilated by dt + dx/y, and the pair is positively
    oriented for the area form it induces on the planes.
    """
    y, t = p.y, p.t
    e1 = np.array([y * math.cos(t), y * math.sin(t), -math.cos(t)])
    e2 = np.array([-y * math.sin(t), y * math.cos(t), math.sin(t)])
    return e1, e2


def contact_covector(p: UpperHalfPoint) -> np.ndarray:
    """Coefficients of dt + dx/y in the (dx, dy, dt) basis."""
    return np.array([1.0 / p.y, 0.0, 1.0])


def lifted_jacobian(h: LiftedIsometry, p: UpperHalfPoint) -> np.ndarray:
    """Analytic Jacobian of the lifted action at p, in (x, y, t) coordinates.

    The (x, y) block is the real form of the holomorphic derivative
    1/(c*z + d)^2 and the t-row is the gradient of the angular shift,
    -2 * grad arg(c*z + d).
    """
    c, d = np.float64(h.base.c), np.float64(h.base.d)
    den = c * p.z + d
    square = np.complex128(complex(den.real * den.real - den.imag * den.imag,
                                   den.real * den.imag + den.imag * den.real))
    w = 1.0 / square
    q = c / den
    return np.array(
        [
            [w.real, -w.imag, 0.0],
            [w.imag, w.real, 0.0],
            [-2.0 * q.imag, -2.0 * q.real, 1.0],
        ]
    )


def _dot(u, v) -> float:
    """u[0]*v[0] + u[1]*v[1] + u[2]*v[2], added from left to right."""
    return float(u[0]) * float(v[0]) + float(u[1]) * float(v[1]) + float(u[2]) * float(v[2])


def _norm(v) -> float:
    return math.sqrt(_dot(v, v))


def _form_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    there, here = contact_covector(image), contact_covector(p)
    return _norm([_dot(there, jac[:, k]) - here[k] for k in range(3)])


def _frame_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    worst = 0.0
    for here, there in zip(frame_at(p), frame_at(image)):
        worst = max(worst, _norm([_dot(jac[k], here) - there[k] for k in range(3)]))
    return worst


def contact_invariance_residual(h: LiftedIsometry, p: UpperHalfPoint) -> float:
    """Norm of (pullback of the contact form under h at p) minus the form at p."""
    return _form_residual(lifted_jacobian(h, p), p, apply(h, p))


def frame_invariance_residual(h: LiftedIsometry, p: UpperHalfPoint) -> float:
    """Worst mismatch between the pushed-forward frame and the frame at the image."""
    return _frame_residual(lifted_jacobian(h, p), p, apply(h, p))
