"""Upper half-plane isometries, their continuous lifts, and the invariant
contact form.

Points of the unit tangent bundle of the hyperbolic plane are coordinates
(x, y, t) with y > 0; the contact form is dt + dx/y, whose Reeb flow is
vertical translation. A Moebius matrix [[a, b], [c, d]] of determinant one
acts on the bundle by

    (w, t) |-> ((a*w + b)/(c*w + d), t - 2*arg(c*w + d)),

and an element of the universal cover group is such a matrix together
with a continuous choice of the argument, recorded here as the exact
t-shift the element applies at the reference point w = i.

The invariance block of ``verify-dynamics`` draws its samples from
``--seed`` alone (``--samples`` of each; the exponents play no part), as
arrays: ``random_samples`` gives an (N, 4) array of matrices (a, b, c, d)
and an (N, 3) array of points (x, y, t), drawn in turn, each matrix
rescaled to determinant one as ``MobiusElement`` rescales it. The draws
are the values of ``rng.random`` calls, taken in bulk by ``_uniforms``,
bit for bit, and leave ``rng`` where those calls leave it.
``invariance_residuals`` then computes all the residuals in one call.
They are rounding noise, pinned in reports, so that call
reproduces ``contact_invariance_residual`` and
``frame_invariance_residual`` of the canonical lifts bit for bit: complex
squares are built from real and imaginary parts, because numpy's complex
array multiply may fuse operations; dot products and norms run as stacked
``np.matmul``, the BLAS kernels the scalar ``@`` and ``np.linalg.norm``
use (``einsum`` or sums of squares need not round the same way); phases,
cosines and sines stay on ``math`` per point, so they do not depend on
numpy's SIMD dispatch.

The relation check of ``verify-geometry`` works on arrays too. Its sample
points come from ``random_points``. ``lifted_power`` builds a lifted
power by the chain of ``MobiusElement.compose`` calls that repeated
``LiftedIsometry.compose`` makes, and computes the t-shifts along the
chain as one array; ``LiftedIsometry.apply_many`` applies a lift to all
the points in one call. Each keeps the bits of its point-by-point form.
Every array of Moebius images goes through ``_mobius_images``, which
refuses a collapsed denominator or an image off the half-plane.

A lift's t-shift (``continued_arg``) runs on Python floats, with no numpy
scalar: c*w + d is formed by components, and the quotient of two such
values by ``_quotient``, which is numpy's complex128 division written out
(Smith's method, R. L. Smith, *Algorithm 116: Complex division*, CACM
1962, scaled by a reciprocal as numpy scales it), so every shift keeps the
bits it had when it was computed on numpy scalars. ``_lift_shifts`` takes
the same operations over arrays, for one bottom row (c, d) per point or
one for all points: c*i + d, c*z + d and their quotient as array
arithmetic, ``_quotient``'s two branches chosen by ``np.where``, and the
phases per point with ``math.atan2``. The few rows whose first turn is
pi/2 or more (or NaN) go through ``continued_arg`` itself, which halves
their segment, a bounded number of times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

_REF = 1j  # reference point anchoring all argument lifts
_DENOMINATOR_TOL = 1e-12  # |c*z + d| below this times max(1, |z|) is degenerate


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


class MobiusElement:
    """Real 2x2 matrix of determinant one acting on the upper half-plane.

    Compositions renormalize by 1/sqrt(det) once the determinant drifts
    more than half the matrix tolerance from one.
    """

    DET_SLACK = 5e-10

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("need a 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det <= 0:
            raise ValueError(f"determinant must be positive, got {det}")
        if abs(det - 1.0) > self.DET_SLACK:
            m = m / math.sqrt(det)
        self.matrix = m

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(np.eye(2))

    @property
    def a(self):
        return self.matrix[0, 0]

    @property
    def b(self):
        return self.matrix[0, 1]

    @property
    def c(self):
        return self.matrix[1, 0]

    @property
    def d(self):
        return self.matrix[1, 1]

    def apply(self, z: complex) -> complex:
        den = self.c * z + self.d
        if abs(den) < _DENOMINATOR_TOL * max(1.0, abs(z)):
            raise DegenerateInput(f"Moebius denominator collapsed at z = {z}")
        return (self.a * z + self.b) / den

    def derivative(self, z: complex) -> complex:
        den = self.c * z + self.d
        return 1.0 / (den * den)

    def compose(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(self.matrix @ other.matrix)

    def inverse(self) -> "MobiusElement":
        return MobiusElement([[self.d, -self.b], [-self.c, self.a]])

    def power(self, k: int) -> "MobiusElement":
        if k < 0:
            return self.inverse().power(-k)
        out = MobiusElement.identity()
        for _ in range(k):
            out = out.compose(self)
        return out

    def __repr__(self):
        a, b, c, d = self.matrix.ravel()
        return f"MobiusElement([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"


class EdgeReflection:
    """Anti-holomorphic isometry z -> (a*conj(z) + b)/(c*conj(z) + d).

    The matrix has determinant -1; composing two reflections multiplies
    the matrices and yields an orientation-preserving MobiusElement.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det >= 0:
            raise ValueError("reflection matrices have determinant -1")
        m = m / math.sqrt(-det)
        self.matrix = m

    def compose(self, other: "EdgeReflection") -> MobiusElement:
        return MobiusElement(self.matrix @ other.matrix)


def reflection_across(z1: complex, z2: complex) -> EdgeReflection:
    """Reflection across the geodesic through two distinct points of H."""
    scale = max(1.0, abs(z1), abs(z2))
    dx = z2.real - z1.real
    if abs(dx) < 1e-14 * scale:
        x0 = 0.5 * (z1.real + z2.real)
        return EdgeReflection([[-1.0, 2.0 * x0], [0.0, 1.0]])
    center = (abs(z2) ** 2 - abs(z1) ** 2) / (2.0 * dx)
    radius = abs(z1 - center)
    return EdgeReflection(
        [[center / radius, (radius * radius - center * center) / radius],
         [1.0 / radius, -center / radius]]
    )


def rotation_about_i(alpha: float) -> MobiusElement:
    """Element of stab(i) whose derivative at i rotates counterclockwise by alpha."""
    h = 0.5 * alpha
    return MobiusElement([[math.cos(h), math.sin(h)], [-math.sin(h), math.cos(h)]])


def point_transport(z: complex) -> MobiusElement:
    """The upper-triangular element taking i to z."""
    root = math.sqrt(z.imag)
    return MobiusElement([[z.imag / root, z.real / root], [0.0, 1.0 / root]])


def mobius_apply(g: MobiusElement, z: complex) -> complex:
    if z.imag <= 0:
        raise DegenerateInput(f"point must lie in the upper half-plane, got {z}")
    return g.apply(z)


def _phase(c: float, d: float, z: complex) -> float:
    """The principal argument of c*z + d, formed as ``continued_arg`` forms it."""
    return math.atan2(c * z.imag + 0.0, c * z.real + d)


def _quotient(ar: float, ai: float, br: float, bi: float) -> tuple[float, float]:
    """(ar + ai*i) / (br + bi*i), rounded as numpy's complex128 division rounds it.

    Smith's method: divide through by the larger part of the divisor, then
    multiply by the reciprocal of the scale. A zero divisor gives numpy's
    infinities and NaNs, where Python's float division would raise.
    """
    if abs(br) >= abs(bi):
        if br == 0.0:  # and so bi == 0.0
            return ar * math.inf, ai * math.inf
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    if bi == 0.0:  # reached only when br is NaN
        return math.nan, math.nan
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


_MAX_DEPTH = 60  # halvings of a piece before its turn is taken as it stands
# for real (c, d) at most one half of a halved piece is halved again, so a
# segment takes at most 1 + 2*61 pieces
_MAX_PIECES = 2 * _MAX_DEPTH + 3


def continued_arg(c: float, d: float, z_to: complex) -> float:
    """Continuous branch of arg(c*w + d) along the segment from i to z_to.

    The segment is halved until successive principal arguments differ by
    less than pi/2, which pins the lift. For real (c, d) the image of the
    segment is a line segment that misses zero, so the argument is monotone
    along it and turns by less than pi in all: the first turn is taken
    whole for all but a few segments, and a piece still turning by pi/2
    or more after 61 halvings is taken as it stands.

    Raises DegenerateInput when a turn is NaN (a product that overflows, a
    divisor that underflows to zero) or when the segment needs more than
    ``_MAX_PIECES`` pieces, so every call ends after at most that many
    quotients.
    """
    # c*w + d by components, rounded as numpy's complex128 product and sum
    # round it: adding 0.0 turns a -0.0 imaginary part into 0.0, as the
    # product's cross term does, which keeps the sign atan2 reads on the cut
    z_from = _REF
    re0, im0 = c * z_from.real + d, c * z_from.imag + 0.0
    arg = math.atan2(im0, re0)
    pending = [(z_to, 0)]  # ends of the pieces still to walk, the next one last
    for _ in range(_MAX_PIECES):
        z, depth = pending.pop()
        re1, im1 = c * z.real + d, c * z.imag + 0.0
        q_re, q_im = _quotient(re1, im1, re0, im0)
        turn = math.atan2(q_im, q_re)
        if turn != turn:
            raise DegenerateInput(
                f"arg(c*w + d) for c = {c!r}, d = {d!r} turns by NaN toward z = {z}")
        if abs(turn) < 0.5 * math.pi or depth > _MAX_DEPTH:
            arg += turn
            if not pending:
                return arg
            z_from, re0, im0 = z, re1, im1
        else:
            pending += ((z, depth + 1), (0.5 * (z_from + z), depth + 1))
    raise DegenerateInput(
        f"arg(c*w + d) for c = {c!r}, d = {d!r} does not settle along the segment "
        f"from i to z = {z_to} in {_MAX_PIECES} pieces")


class LiftedIsometry:
    """Element of the universal cover group: a matrix plus a winding offset.

    ``winding_offset`` is the exact t-shift applied at the reference point
    i; the shift elsewhere follows by continuing arg(c*w + d) from i. The
    center of the group is the pure vertical shift by 2*pi.
    """

    def __init__(self, base: MobiusElement, winding_offset: float):
        self.base = base
        self.winding_offset = float(winding_offset)

    @classmethod
    def identity(cls) -> "LiftedIsometry":
        return cls(MobiusElement.identity(), 0.0)

    @classmethod
    def center(cls, k: int = 1) -> "LiftedIsometry":
        return cls(MobiusElement.identity(), 2.0 * math.pi * k)

    @classmethod
    def with_shift_at(cls, base: MobiusElement, z0: complex, shift: float) -> "LiftedIsometry":
        """The lift whose t-shift at z0 equals ``shift`` exactly.

        Valid only when ``shift`` is congruent mod 2*pi to the base
        element's angular action at z0; callers are expected to verify
        the resulting group relations.
        """
        c, d = float(base.c), float(base.d)
        return cls(base, shift + 2.0 * (continued_arg(c, d, z0) - _phase(c, d, _REF)))

    def theta_shift(self, z: complex) -> float:
        """The continuous t-shift this element applies over the point z."""
        c, d = float(self.base.c), float(self.base.d)
        return self.winding_offset - 2.0 * (continued_arg(c, d, z) - _phase(c, d, _REF))

    def apply(self, p: UpperHalfPoint) -> UpperHalfPoint:
        image = self.base.apply(p.z)
        return UpperHalfPoint(float(image.real), float(image.imag), float(p.t + self.theta_shift(p.z)))

    def apply_many(self, x: np.ndarray, y: np.ndarray,
                   t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``apply`` to each point (x_k, y_k, t_k), bit for bit, as three
        arrays of image coordinates; a degenerate point raises
        DegenerateInput (see ``_mobius_images``)."""
        m = self.base.matrix
        image, _ = _mobius_images(m[0, 0], m[0, 1], m[1, 0], m[1, 1], x, y)
        shifts = _lift_shifts(float(m[1, 0]), float(m[1, 1]), x, y, self.winding_offset)
        return image.real, image.imag, t + shifts

    def compose(self, other: "LiftedIsometry") -> "LiftedIsometry":
        """Composition acting as self after other, with the lift chained
        so the t-shift of the product is the sum of shifts along the way."""
        base = self.base.compose(other.base)
        offset = other.winding_offset + self.theta_shift(other.base.apply(_REF))
        return LiftedIsometry(base, offset)

    def __repr__(self):
        return f"LiftedIsometry({self.base!r}, winding_offset={self.winding_offset:.6g})"


def lifted_power(h: LiftedIsometry, k: int) -> LiftedIsometry:
    """h composed with itself k >= 0 times, bit for bit as k calls of
    ``h.compose`` from the identity build it: the same chain of matrices,
    and the t-shifts of h over the chain's images of i as one array, added
    to the offset from left to right."""
    bases = [MobiusElement.identity()]
    for _ in range(k):
        bases.append(h.base.compose(bases[-1]))
    m = np.array([base.matrix for base in bases[:-1]]).reshape(k, 2, 2)
    images, _ = _mobius_images(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1],
                               np.full(k, _REF.real), np.full(k, _REF.imag))
    c, d = float(h.base.c), float(h.base.d)
    offset = 0.0
    for shift in _lift_shifts(c, d, images.real, images.imag, h.winding_offset).tolist():
        offset += shift
    return LiftedIsometry(bases[-1], offset)


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
    z = p.z
    c, d = h.base.c, h.base.d
    w = h.base.derivative(z)
    q = c / (c * z + d)
    return np.array(
        [
            [w.real, -w.imag, 0.0],
            [w.imag, w.real, 0.0],
            [-2.0 * q.imag, -2.0 * q.real, 1.0],
        ]
    )


def _form_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    pulled = contact_covector(image) @ jac
    return float(np.linalg.norm(pulled - contact_covector(p)))


def _frame_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    worst = 0.0
    for here, there in zip(frame_at(p), frame_at(image)):
        worst = max(worst, float(np.linalg.norm(jac @ here - there)))
    return worst


def contact_invariance_residual(h: LiftedIsometry, p: UpperHalfPoint) -> float:
    """Norm of (pullback of the contact form under h at p) minus the form at p."""
    return _form_residual(lifted_jacobian(h, p), p, h.apply(p))


def frame_invariance_residual(h: LiftedIsometry, p: UpperHalfPoint) -> float:
    """Worst mismatch between the pushed-forward frame and the frame at the image."""
    return _frame_residual(lifted_jacobian(h, p), p, h.apply(p))


def _frame_columns(y: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``frame_at`` for many points, as two (N, 3, 1) stacks of column vectors."""
    t = t.tolist()
    cos_t = np.array(list(map(math.cos, t)))
    sin_t = np.array(list(map(math.sin, t)))
    e1 = np.stack([y * cos_t, y * sin_t, -cos_t], axis=1)
    e2 = np.stack([-y * sin_t, y * cos_t, sin_t], axis=1)
    return e1[:, :, None], e2[:, :, None]


def _covector_rows(y: np.ndarray) -> np.ndarray:
    """``contact_covector`` for many points, as an (N, 1, 3) stack of rows."""
    rows = np.zeros((len(y), 1, 3))
    rows[:, 0, 0] = 1.0 / y
    rows[:, 0, 2] = 1.0
    return rows


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector of an (N, 1, 3) or (N, 3, 1) stack."""
    rows = v.reshape(len(v), 1, 3)
    return np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1)))[:, 0, 0]


def _mobius_images(a, b, c, d, x: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image (a*z + b)/(c*z + d) of each point z = x + y*i and its
    denominator, rounded as ``MobiusElement.apply`` rounds them; the entries
    are one matrix for all points or one per point.

    Raises DegenerateInput at the first point whose denominator collapses
    or whose image leaves the upper half-plane.
    """
    z = np.empty(len(x), dtype=complex)
    z.real, z.imag = x, y
    den = c * z + d
    collapsed = np.abs(den) < _DENOMINATOR_TOL * np.maximum(1.0, np.abs(z))
    if collapsed.any():
        k = int(collapsed.argmax())
        raise DegenerateInput(f"Moebius denominator collapsed at z = {complex(x[k], y[k])}")
    image = (a * z + b) / den
    outside = ~(image.imag > 0)
    if outside.any():
        k = int(outside.argmax())
        raise DegenerateInput(
            f"image of z = {complex(x[k], y[k])} has y = {image.imag[k]}, "
            "outside the upper half-plane"
        )
    return image, den


def _lift_shifts(c, d, x: np.ndarray, y: np.ndarray, offset=None) -> np.ndarray:
    """The t-shift over each point x + y*i of the lift of the bottom row
    (c, d) whose shift at i is ``offset`` (the canonical lift's -2*r if
    None); (c, d) is one row for all points or one per point.

    Entry k equals offset - 2*(continued_arg(c_k, d_k, x_k + y_k*i) - r_k),
    with r_k the principal argument of c_k*i + d_k, bit for bit: both
    values c*w + d and their ``_quotient`` are formed as arrays, by the
    same operations in the same order, and the phases are taken per point
    with ``math.atan2``. A row whose first turn is pi/2 or more, or NaN (a
    zero or NaN divisor, where ``_quotient`` leaves Smith's formula), goes
    through ``continued_arg`` itself.
    """
    c, d, x, y = np.broadcast_arrays(c, d, x, y)
    # the branch np.where does not select may divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        re0, im0 = c * 0.0 + d, c * 1.0 + 0.0
        re1, im1 = c * x + d, c * y + 0.0
        real_first = np.abs(re0) >= np.abs(im0)
        rat = np.where(real_first, im0 / re0, re0 / im0)
        scl = 1.0 / np.where(real_first, re0 + im0 * rat, im0 + re0 * rat)
        q_re = np.where(real_first, (re1 + im1 * rat) * scl, (re1 * rat + im1) * scl)
        q_im = np.where(real_first, (im1 - re1 * rat) * scl, (im1 * rat - re1) * scl)
    ref = np.array(list(map(math.atan2, im0.tolist(), re0.tolist())))
    turn = np.array(list(map(math.atan2, q_im.tolist(), q_re.tolist())))
    arg = ref + turn
    for k in np.flatnonzero(~(np.abs(turn) < 0.5 * math.pi)).tolist():
        arg[k] = continued_arg(float(c[k]), float(d[k]), complex(x[k], y[k]))
    return (-2.0 * ref if offset is None else offset) - 2.0 * (arg - ref)


def invariance_residuals(matrices, points) -> tuple[np.ndarray, np.ndarray]:
    """The contact and frame residuals of the canonical lift of each matrix
    at its point, as two arrays.

    ``matrices`` holds rows (a, b, c, d) of determinant one and ``points``
    rows (x, y, t), as the (N, 4) and (N, 3) arrays of ``random_samples``
    or as sequences of rows. The canonical lift of a matrix shifts t at i
    by the principal value -2*Arg(c*i + d) = -2*atan2(c, d). With h that
    lift and p the point, entry k equals ``contact_invariance_residual(h,
    p)`` and ``frame_invariance_residual(h, p)`` bit for bit, by the rules
    in the module docstring, except that a frame residual keeps a NaN from
    either frame vector.

    Raises DegenerateInput at the first point whose Moebius denominator
    collapses or whose image leaves the upper half-plane.
    """
    a, b, c, d = np.asarray(matrices, dtype=float).reshape(-1, 4).T
    x, y, t = np.asarray(points, dtype=float).reshape(-1, 3).T
    if len(a) != len(x):
        raise ValueError("need one point per matrix")
    if not len(x):
        return np.zeros(0), np.zeros(0)
    image, den = _mobius_images(a, b, c, d, x, y)
    image_t = t + _lift_shifts(c, d, x, y)

    dr, di = den.real, den.imag
    square = np.empty_like(den)
    square.real = dr * dr - di * di
    square.imag = dr * di + di * dr
    w = 1.0 / square
    q = c / den
    jac = np.zeros((len(x), 3, 3))
    jac[:, 0, 0] = jac[:, 1, 1] = w.real
    jac[:, 0, 1] = -w.imag
    jac[:, 1, 0] = w.imag
    jac[:, 2, 0] = -2.0 * q.imag
    jac[:, 2, 1] = -2.0 * q.real
    jac[:, 2, 2] = 1.0

    form = _norms(np.matmul(_covector_rows(image.imag), jac) - _covector_rows(y))
    here = _frame_columns(y, t)
    there = _frame_columns(image.imag, image_t)
    frame = np.maximum(*(_norms(np.matmul(jac, e) - f) for e, f in zip(here, there)))
    return form, frame


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()`` as one float64 array, bit
    for bit, leaving ``rng`` where ``count`` calls of ``random()`` leave it.

    ``random()`` forms ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 from the
    next two 32-bit outputs w0, w1 of the Mersenne Twister, and
    ``getrandbits(64*count)`` returns the next 2*count outputs, in order, as
    the little-endian 32-bit words of one integer. Every step is exact.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
                          dtype="<u4")
    return ((words[0::2] >> 5) * 2.0**26 + (words[1::2] >> 6)) / 2.0**53


# a point's coordinates (x, y, t) are uniform in [-2, 2] x [0.2, 3] x [-6, 6]
_POINT_LOW = np.array([-2.0, 0.2, -6.0])
_POINT_SPAN = np.array([4.0, 2.8, 12.0])
# a sample is a matrix of entries uniform in [-2, 2], then a point
_SAMPLE_LOW = np.concatenate([np.full(4, -2.0), _POINT_LOW])
_SAMPLE_SPAN = np.concatenate([np.full(4, 4.0), _POINT_SPAN])


def random_points(rng: random.Random, count: int) -> np.ndarray:
    """``count`` points as a (count, 3) array of rows (x, y, t), uniform in
    [-2, 2] x [0.2, 3] x [-6, 6], as ``rng.uniform`` draws each coordinate in
    turn: ``rng.uniform(low, high)`` is low + (high - low) * rng.random()."""
    return _POINT_LOW + _POINT_SPAN * _uniforms(rng, 3 * count).reshape(count, 3)


def random_samples(rng: random.Random, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` matrices and points, drawn in turn, as a (count, 4) array of
    rows (a, b, c, d) and a (count, 3) array of rows (x, y, t).

    Each matrix has entries uniform in [-2, 2], redrawn until its
    determinant exceeds 0.05, and is divided by sqrt(det) as
    ``MobiusElement`` divides it; each point is drawn as ``random_points``
    draws it. The values and the state ``rng`` is left in are those of one
    ``rng.random()`` call per draw: a window of four draws at p is tried as
    a matrix, and the next is tried at p + 4 if it is refused, at p + 7
    (after its point) if it is taken.

    The draws come from ``_uniforms`` in chunks. Each chunk is the fewest
    draws that could still finish, seven per sample left less the draws in
    hand past p, so no draw is taken that the per-draw loop would not take.
    The determinants are computed over a chunk's new windows only.
    """
    drawn = np.zeros(0)
    taken: list[bool] = []  # taken[q]: the window of draws q..q+3 is a matrix
    starts: list[int] = []  # the windows taken, in order
    take, p = starts.append, 0
    while len(starts) < count:
        drawn = np.concatenate(
            [drawn, _uniforms(rng, 7 * (count - len(starts)) - (len(drawn) - p))])
        e = -2.0 + 4.0 * drawn[len(taken):]  # the entries of the new windows
        taken += (e[:-3] * e[3:] - e[1:-2] * e[2:-1] > 0.05).tolist()
        # a window taken past end has its point still to draw
        end, windows = len(drawn) - 7, len(taken)
        while p < windows:
            if not taken[p]:
                p += 4
            elif p > end:
                break
            else:
                take(p)
                p += 7
    rows = _SAMPLE_LOW + _SAMPLE_SPAN * drawn[np.array(starts, dtype=np.intp)[:, None]
                                              + np.arange(7)]
    a, b, c, d = rows[:, :4].T
    det = a * d - b * c
    # dividing by 1.0 leaves a matrix of determinant near one as it is
    root = np.where(np.abs(det - 1.0) > MobiusElement.DET_SLACK, np.sqrt(det), 1.0)
    return rows[:, :4] / root[:, None], rows[:, 4:]
