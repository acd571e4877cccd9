"""Upper half-plane isometries, their continuous lifts, and the invariant
contact form.

Points of the unit tangent bundle of the hyperbolic plane are coordinates
(x, y, t) with y > 0; the contact form is dt + dx/y, whose Reeb flow is
vertical translation. A Moebius matrix [[a, b], [c, d]] of determinant one
acts on the bundle by

    (w, t) |-> ((a*w + b)/(c*w + d), t - 2*arg(c*w + d)),

and an element of the universal cover group is such a matrix together
with a continuous choice of the argument, recorded here as the exact
t-shift the element applies at the reference point w = i. A point of the
bundle is held as its coordinates (x, y, t), one at a time or as arrays;
the package has no point object, and the tests' oracles do.

The isometries, ``MobiusElement`` and ``EdgeReflection``, hold their
matrix as four Python floats; products, inverses, actions and derivatives
are written out on them. No numpy array, and so no BLAS kernel, rounds
them, and each product entry is one plain sum of two products: the same
bits whichever kernel numpy links or selects at run time.

The invariance block of ``verify-dynamics`` draws its samples from
``--seed`` alone (``--samples`` of each; the exponents play no part), as
arrays: ``random_samples`` gives an (N, 4) array of matrices (a, b, c, d)
and an (N, 3) array of points (x, y, t), drawn in turn, each matrix
rescaled to determinant one as ``MobiusElement`` rescales it. The draws
are the values of ``rng.random`` calls, taken by ``_uniforms`` in chunks,
in bulk from 64 values on and call by call below, bit for bit, and leave
``rng`` where those calls leave it.
``invariance_residuals`` then computes all the residuals in one call, as
elementwise arithmetic over (N,) arrays: complex squares are built from
real and imaginary parts, because numpy's complex array multiply may fuse
operations; each product of the Jacobian with a vector and each norm is
written out as a sum of products, added from left to right, with no
matmul, dot or linalg call; phases, cosines and sines stay on ``math`` per
point, so they do not depend on numpy's SIMD dispatch. The residuals are
rounding noise, pinned in reports, and the point-by-point oracles in the
tests repeat the same operations, bit for bit.

The relation check of ``verify-geometry`` works point by point on the
floats, with points from ``random_points`` (one ``rng.random()`` call per
coordinate, in the box and order of ``random_samples``). Every Moebius
image, of a point or of i under a composition, is refused in one place,
``_image``: a collapsed denominator, or an image off the half-plane (a NaN
included). The array images of ``_mobius_images`` raise through it.

A lift's t-shift is -2*arg(c*w + d), continued over the half-plane from
its value at i. For real (c, d) the imaginary part c*Im(w) of c*w + d has
the sign of c on all of the half-plane (and c*w + d = d when c = 0), so
c*w + d never crosses the branch cut of the principal argument, and the
continued argument is the principal one: ``continued_arg`` is a single
``math.atan2`` on Python floats. ``_lift_shifts`` takes the same operations
over arrays, with the phases per point by ``math.atan2``. Both refuse a
point where c*w + d rounds so that its half-plane is lost (see
``continued_arg``). The tests hold both to an independent oracle, a walk
that halves the segment from i until each turn is less than pi/2.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

import numpy as np

from .errors import DegenerateInput

_REF = 1j  # reference point anchoring all argument lifts
_DENOMINATOR_TOL = 1e-12  # |c*z + d| below this times max(1, |z|) is degenerate


class MobiusElement:
    """Real 2x2 matrix [[a, b], [c, d]] of determinant one acting on the
    upper half-plane, held as four Python floats.

    The constructor renormalizes by 1/sqrt(det) once the determinant drifts
    more than half the matrix tolerance from one. Products, inverses and
    actions are written out on the four floats, so no numpy or BLAS call
    rounds them; ``apply`` and ``derivative`` round their complex quotients
    as numpy's complex128 division does (``_quotient``), as the array images
    of ``_mobius_images`` round them.
    """

    __slots__ = ("a", "b", "c", "d")
    DET_SLACK = 5e-10

    def __init__(self, a: float, b: float, c: float, d: float):
        a, b, c, d = float(a), float(b), float(c), float(d)
        det = a * d - b * c
        if det <= 0:
            raise ValueError(f"determinant must be positive, got {det}")
        if abs(det - 1.0) > self.DET_SLACK:
            root = math.sqrt(det)
            a, b, c, d = a / root, b / root, c / root, d / root
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    def apply(self, z: complex) -> complex:
        return _image(self.a, self.b, self.c, self.d, z)

    def derivative(self, z: complex) -> complex:
        """1/(c*z + d)**2, the square formed by components."""
        den_re, den_im = self.c * z.real + self.d, self.c * z.imag + 0.0
        return complex(*_quotient(1.0, 0.0, den_re * den_re - den_im * den_im,
                                  den_re * den_im + den_im * den_re))

    def compose(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(*_product(self, other))

    def inverse(self) -> "MobiusElement":
        return MobiusElement(self.d, -self.b, -self.c, self.a)

    def power(self, k: int) -> "MobiusElement":
        """The k-th power for k >= 0; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"MobiusElement.power needs k >= 0, got {k}")
        out = MobiusElement.identity()
        for _ in range(k):
            out = out.compose(self)
        return out

    def __repr__(self):
        return (f"MobiusElement([[{self.a:.6g}, {self.b:.6g}], "
                f"[{self.c:.6g}, {self.d:.6g}]])")


class EdgeReflection:
    """Anti-holomorphic isometry z -> (a*conj(z) + b)/(c*conj(z) + d).

    The matrix [[a, b], [c, d]] has determinant -1; composing two
    reflections multiplies the matrices and yields an orientation-preserving
    MobiusElement.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        a, b, c, d = float(a), float(b), float(c), float(d)
        det = a * d - b * c
        if det >= 0:
            raise ValueError("reflection matrices have determinant -1")
        root = math.sqrt(-det)
        self.a, self.b, self.c, self.d = a / root, b / root, c / root, d / root

    def compose(self, other: "EdgeReflection") -> MobiusElement:
        return MobiusElement(*_product(self, other))


def _image(a: float, b: float, c: float, d: float, z: complex) -> complex:
    """(a*z + b)/(c*z + d), both by components, rounded as numpy's complex128
    product, sum and division round them (see ``continued_arg``). The one
    refusal of a Moebius image: DegenerateInput when the denominator
    collapses or the image leaves the upper half-plane, a NaN included."""
    x, y = z.real, z.imag
    den_re, den_im = c * x + d, c * y + 0.0
    image = complex(*_quotient(a * x + b, a * y + 0.0, den_re, den_im))
    if abs(complex(den_re, den_im)) < _DENOMINATOR_TOL * max(1.0, abs(z)):
        raise DegenerateInput(f"Moebius denominator collapsed at z = {z}")
    if not image.imag > 0:
        raise DegenerateInput(
            f"image of z = {z} has y = {image.imag}, outside the upper half-plane")
    return image


def _product(m, n) -> tuple[float, float, float, float]:
    """The entries of the matrix product m n, each one plain sum of two
    products: no fused multiply-add, whatever the machine."""
    return (m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d,
            m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d)


def reflection_across(z1: complex, z2: complex) -> EdgeReflection:
    """Reflection across the geodesic through two distinct points of H."""
    scale = max(1.0, abs(z1), abs(z2))
    dx = z2.real - z1.real
    if abs(dx) < 1e-14 * scale:
        x0 = 0.5 * (z1.real + z2.real)
        return EdgeReflection(-1.0, 2.0 * x0, 0.0, 1.0)
    center = (abs(z2) ** 2 - abs(z1) ** 2) / (2.0 * dx)
    radius = abs(z1 - center)
    return EdgeReflection(center / radius, (radius * radius - center * center) / radius,
                          1.0 / radius, -center / radius)


def rotation_about_i(alpha: float) -> MobiusElement:
    """Element of stab(i) whose derivative at i rotates counterclockwise by alpha."""
    h = 0.5 * alpha
    return MobiusElement(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))


def point_transport(z: complex) -> MobiusElement:
    """The upper-triangular element taking i to z."""
    root = math.sqrt(z.imag)
    return MobiusElement(z.imag / root, z.real / root, 0.0, 1.0 / root)


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


def continued_arg(c: float, d: float, z: complex) -> float:
    """The argument of c*z + d, continued over the upper half-plane from i.

    c*w + d keeps the sign of its imaginary part c*Im(w) on the whole
    half-plane, or is the real d when c = 0, so the continued argument is
    the principal one. c*z + d is formed by components, rounded as numpy's
    complex128 product and sum round it: adding 0.0 turns a -0.0 imaginary
    part into 0.0, which keeps the sign atan2 reads on the cut.

    Raises DegenerateInput when the argument is NaN, or when the imaginary
    part rounds to zero although c is not zero (it underflows, so the side
    of the cut is lost) or d is zero too (c*z + d is zero).
    """
    re, im = c * z.real + d, c * z.imag + 0.0
    arg = math.atan2(im, re)
    if arg != arg or im == 0.0 and (c != 0.0 or d == 0.0):
        raise DegenerateInput(f"arg(c*w + d) for c = {c!r}, d = {d!r} is lost at z = {z}: "
                              "c*z + d rounds to zero or NaN, or onto the real axis")
    return arg


class LiftedIsometry:
    """Element of the universal cover group: a matrix plus a winding offset.

    ``winding_offset`` is the exact t-shift applied at the reference point
    i; the shift elsewhere follows by continuing arg(c*w + d) from i. The
    center of the group is the pure vertical shift by 2*pi.

    The argument at i is taken on the first ``theta_shift`` (or ``compose``,
    which takes one) and kept, so each later point costs one ``math.atan2``.
    The argument at the point is always taken first, so a lost argument is
    refused at the point, as if none were kept.
    """

    def __init__(self, base: MobiusElement, winding_offset: float):
        self.base = base
        self.winding_offset = float(winding_offset)

    @classmethod
    def identity(cls) -> "LiftedIsometry":
        return cls(MobiusElement.identity(), 0.0)

    @classmethod
    def with_shift_at(cls, base: MobiusElement, z0: complex, shift: float) -> "LiftedIsometry":
        """The lift whose t-shift at z0 equals ``shift`` exactly.

        Valid only when ``shift`` is congruent mod 2*pi to the base
        element's angular action at z0; callers are expected to verify
        the resulting group relations.
        """
        c, d = base.c, base.d
        return cls(base, shift + 2.0 * (continued_arg(c, d, z0) - continued_arg(c, d, _REF)))

    @cached_property
    def _ref_arg(self) -> float:
        """``continued_arg(c, d, i)``, taken on first use and kept."""
        return continued_arg(self.base.c, self.base.d, _REF)

    def theta_shift(self, z: complex) -> float:
        """The continuous t-shift this element applies over the point z."""
        arg = continued_arg(self.base.c, self.base.d, z)
        return self.winding_offset - 2.0 * (arg - self._ref_arg)

    def compose(self, other: "LiftedIsometry") -> "LiftedIsometry":
        """Composition acting as self after other, with the lift chained
        so the t-shift of the product is the sum of shifts along the way."""
        base = self.base.compose(other.base)
        offset = other.winding_offset + self.theta_shift(other.base.apply(_REF))
        return LiftedIsometry(base, offset)

    def __repr__(self):
        return f"LiftedIsometry({self.base!r}, winding_offset={self.winding_offset:.6g})"


def _mobius_images(a, b, c, d, x: np.ndarray,
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image (a*z + b)/(c*z + d) of each point z = x + y*i under its own
    matrix, and its denominator, rounded as ``_image`` rounds them.

    Raises DegenerateInput through ``_image`` at the first point whose
    denominator collapses, or else at the first whose image leaves the
    upper half-plane.
    """
    z = np.empty(len(x), dtype=complex)
    z.real, z.imag = x, y
    den = c * z + d
    refused = np.abs(den) < _DENOMINATOR_TOL * np.maximum(1.0, np.abs(z))
    if not refused.any():
        image = (a * z + b) / den
        refused = ~(image.imag > 0)
    if refused.any():  # ``_image`` raises at the first such point
        k = int(refused.argmax())
        _image(float(a[k]), float(b[k]), float(c[k]), float(d[k]), complex(x[k], y[k]))
    return image, den


def _lift_shifts(c, d, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The t-shift of the canonical lift of each bottom row (c_k, d_k) over
    the point x_k + y_k*i: -2*r_k - 2*(continued_arg(c_k, d_k, x_k + y_k*i) - r_k),
    with r_k = continued_arg(c_k, d_k, i), bit for bit (see ``_args``).
    """
    ref = _args(c, d, np.zeros_like(x), np.ones_like(y))
    return -2.0 * ref - 2.0 * (_args(c, d, x, y) - ref)


def _args(c, d, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``continued_arg(c_k, d_k, x_k + y_k*i)`` for each k, bit for bit: c*z + d
    by the same operations over arrays, the phases per point with
    ``math.atan2``. Raises DegenerateInput at the first point where
    ``continued_arg`` raises it."""
    re, im = c * x + d, c * y + 0.0
    arg = np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float, len(re))
    lost = np.isnan(arg) | (im == 0.0) & ((c != 0.0) | (d == 0.0))
    if lost.any():  # the point form raises at the first such point
        k = int(lost.argmax())
        continued_arg(float(c[k]), float(d[k]), complex(x[k], y[k]))
    return arg


def invariance_residuals(matrices, points) -> tuple[np.ndarray, np.ndarray]:
    """The contact and frame residuals of the canonical lift of each matrix
    at its point, as two arrays.

    ``matrices`` holds rows (a, b, c, d) of determinant one and ``points``
    rows (x, y, t), as the (N, 4) and (N, 3) arrays of ``random_samples``
    or as sequences of rows. The canonical lift of a matrix shifts t at i
    by the principal value -2*Arg(c*i + d) = -2*atan2(c, d). With h that
    lift, J its analytic Jacobian and p the point, the contact residual is
    the norm of (the form at h(p)) J less the form at p, and the frame
    residual the larger norm of J e less the same frame vector at h(p), for
    e either frame vector at p (see ``_frame``); a NaN in either is kept.

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
    # the lift's Jacobian has rows (wr, -wi, 0), (wi, wr, 0) and the t-row
    # (tx, ty, 1) = (-2*Im q, -2*Re q, 1), the gradient of -2*arg(c*z + d)
    wr, wi = w.real, w.imag
    tx, ty = -2.0 * q.imag, -2.0 * q.real
    # the pulled-back form (1/y', 0, 1) J less (1/y, 0, 1); its dt entry is 1 - 1
    over = 1.0 / image.imag
    form = np.sqrt(_squares(over * wr + tx - 1.0 / y, over * -wi + ty))
    frame = np.maximum(*(
        np.sqrt(_squares(wr * e0 - wi * e1 - f0, wi * e0 + wr * e1 - f1,
                         tx * e0 + ty * e1 + e2 - f2))
        for (e0, e1, e2), (f0, f1, f2) in zip(_frame(y, t), _frame(image.imag, image_t))))
    return form, frame


def _frame(y: np.ndarray, t: np.ndarray) -> tuple[tuple, tuple]:
    """The invariant frame e1 = (y cos t, y sin t, -cos t), e2 = (-y sin t,
    y cos t, sin t) of the contact planes at many points, each vector as
    three (N,) arrays; cosines and sines are taken per point with ``math``."""
    t = t.tolist()
    cos_t = np.fromiter(map(math.cos, t), float, len(t))
    sin_t = np.fromiter(map(math.sin, t), float, len(t))
    return (y * cos_t, y * sin_t, -cos_t), (-y * sin_t, y * cos_t, sin_t)


def _squares(*entries: np.ndarray) -> np.ndarray:
    """The sum of the squares of the entries, added from left to right."""
    out = entries[0] * entries[0]
    for v in entries[1:]:
        out = out + v * v
    return out


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()`` as one float64 array, bit
    for bit, leaving ``rng`` where ``count`` calls of ``random()`` leave it.

    Fewer than 64 values are those calls, made one by one: there the
    word path's dozen array operations cost more than the calls (on a
    2-core x86-64 machine, 1.0 against 4.3 us at 4 values; the two cost
    the same near 100 values, and a bound of 100 ran the lab no faster than
    64). From 64 on, the values are read from words: ``random()`` forms
    ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 from the next two 32-bit
    outputs w0, w1 of the Mersenne Twister, and ``getrandbits(64*count)``
    returns the next 2*count outputs, in order, as the little-endian
    32-bit words of one integer. Every step is exact.
    """
    if count < 64:
        draw = rng.random
        return np.array([draw() for _ in range(count)], dtype=float)
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
                          dtype="<u4")
    return ((words[0::2] >> 5) * 2.0**26 + (words[1::2] >> 6)) / 2.0**53


# the (low, span) of a point's coordinates x, y and t: each is low + span * rng.random()
_POINT_BOX = ((-2.0, 4.0), (0.2, 2.8), (-6.0, 12.0))
# a sample is a matrix of entries uniform in [-2, 2], then a point
_SAMPLE_LOW = np.array([-2.0] * 4 + [low for low, _ in _POINT_BOX])
_SAMPLE_SPAN = np.array([4.0] * 4 + [span for _, span in _POINT_BOX])


def random_points(rng: random.Random, count: int) -> list[tuple[float, float, float]]:
    """``count`` points (x, y, t), uniform in [-2, 2] x [0.2, 3] x [-6, 6], as
    ``rng.uniform`` draws each coordinate in turn: one ``rng.random()`` each."""
    draw, ((x, dx), (y, dy), (t, dt)) = rng.random, _POINT_BOX
    return [(x + dx * draw(), y + dy * draw(), t + dt * draw()) for _ in range(count)]


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
    The chunks shrink some threefold each; at 1000 samples the last two to
    four hold fewer than 64 draws, which ``_uniforms`` takes call by call,
    and the others are read from words. The determinants are
    computed over a chunk's new windows only, and each window's flag is
    kept as one byte, read by index while the windows are walked.
    """
    drawn = np.zeros(0)
    taken = bytearray()  # taken[q]: 1 if the window of draws q..q+3 is a matrix
    starts: list[int] = []  # the windows taken, in order
    take, p = starts.append, 0
    while len(starts) < count:
        drawn = np.concatenate(
            [drawn, _uniforms(rng, 7 * (count - len(starts)) - (len(drawn) - p))])
        e = -2.0 + 4.0 * drawn[len(taken):]  # the entries of the new windows
        taken += (e[:-3] * e[3:] - e[1:-2] * e[2:-1] > 0.05).tobytes()
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
