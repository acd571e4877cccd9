"""Upper half-plane isometries, their continuous lifts, and the invariant
contact form.

Points of the unit tangent bundle of the hyperbolic plane are coordinates
(x, y, t) with y > 0; the contact form is dt + dx/y, whose Reeb flow is
vertical translation. A Moebius matrix [[a, b], [c, d]] of determinant one
acts on the bundle by

    (w, t) |-> ((a*w + b)/(c*w + d), t - 2*arg(c*w + d)),

and an element of the universal cover group is such a matrix together
with a continuous choice of the argument, recorded here as the exact
t-shift the element applies at the reference point w = i. Points of the
bundle are held only as arrays of coordinates: the one-point forms of the
array paths below (a point object, a lift applied to it) are the tests'
oracles, and the package has none.

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
are the values of ``rng.random`` calls, taken in bulk by ``_uniforms``,
bit for bit, and leave ``rng`` where those calls leave it.
``invariance_residuals`` then computes all the residuals in one call, as
elementwise arithmetic over (N,) arrays: complex squares are built from
real and imaginary parts, because numpy's complex array multiply may fuse
operations; each product of the Jacobian with a vector and each norm is
written out as a sum of products, added from left to right, with no
matmul, dot or linalg call; phases, cosines and sines stay on ``math`` per
point, so they do not depend on numpy's SIMD dispatch. The residuals are
rounding noise, pinned in reports, and the point-by-point oracles in the
tests repeat the same operations, bit for bit.

The relation check of ``verify-geometry`` works on arrays too. Its sample
points come from ``random_points``. ``lifted_powers`` builds the lifted
powers of all the generators at once: each chain of matrices by the
``MobiusElement.compose`` calls that repeated ``LiftedIsometry.compose``
makes, and the t-shifts along all the chains as one array.
``lifted_images`` applies any number of lifts to all the points in one
pass. Each keeps the bits of its point-by-point form. Every array of
Moebius images goes through ``_mobius_images``, which refuses a collapsed
denominator or an image off the half-plane.

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
        x, y = z.real, z.imag
        # c*z + d and a*z + b by components, rounded as numpy's complex128
        # product and sum round them (see ``continued_arg``)
        den_re, den_im = self.c * x + self.d, self.c * y + 0.0
        if abs(complex(den_re, den_im)) < _DENOMINATOR_TOL * max(1.0, abs(z)):
            raise DegenerateInput(f"Moebius denominator collapsed at z = {z}")
        return complex(*_quotient(self.a * x + self.b, self.a * y + 0.0, den_re, den_im))

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
    def with_shift_at(cls, base: MobiusElement, z0: complex, shift: float) -> "LiftedIsometry":
        """The lift whose t-shift at z0 equals ``shift`` exactly.

        Valid only when ``shift`` is congruent mod 2*pi to the base
        element's angular action at z0; callers are expected to verify
        the resulting group relations.
        """
        c, d = base.c, base.d
        return cls(base, shift + 2.0 * (continued_arg(c, d, z0) - _phase(c, d, _REF)))

    def theta_shift(self, z: complex) -> float:
        """The continuous t-shift this element applies over the point z."""
        c, d = self.base.c, self.base.d
        return self.winding_offset - 2.0 * (continued_arg(c, d, z) - _phase(c, d, _REF))

    def compose(self, other: "LiftedIsometry") -> "LiftedIsometry":
        """Composition acting as self after other, with the lift chained
        so the t-shift of the product is the sum of shifts along the way."""
        base = self.base.compose(other.base)
        offset = other.winding_offset + self.theta_shift(other.base.apply(_REF))
        return LiftedIsometry(base, offset)

    def __repr__(self):
        return f"LiftedIsometry({self.base!r}, winding_offset={self.winding_offset:.6g})"


def lifted_powers(lifts: list[LiftedIsometry], exponents) -> list[LiftedIsometry]:
    """Each lift h composed with itself k >= 0 times, for the paired
    exponents k, bit for bit as k calls of ``h.compose`` from the identity
    build it.

    Each chain of matrices is built by ``MobiusElement.compose``, as those
    calls build it. The images of i under every chain's matrices but the
    last go through one ``_mobius_images`` call, and the t-shifts of each h
    over its chain's images through one ``_lift_shifts`` call; each power's
    offset is its shifts added from left to right.
    """
    chains, rows = [], []  # rows: (h, the chain's matrix whose image of i h shifts over)
    for h, k in zip(lifts, exponents):
        chain = [MobiusElement.identity()]
        for _ in range(k):
            chain.append(h.base.compose(chain[-1]))
        chains.append(chain)
        rows += ((h, m) for m in chain[:-1])
    images, _ = _mobius_images(*(np.array([getattr(m, e) for _, m in rows]) for e in "abcd"),
                               np.full(len(rows), _REF.real), np.full(len(rows), _REF.imag))
    shifts = _lift_shifts(np.array([h.base.c for h, _ in rows]),
                          np.array([h.base.d for h, _ in rows]), images.real, images.imag,
                          np.array([h.winding_offset for h, _ in rows])).tolist()
    powers, start = [], 0
    for k, chain in zip(exponents, chains):
        offset = 0.0
        for shift in shifts[start:start + k]:
            offset += shift
        start += k
        powers.append(LiftedIsometry(chain[-1], offset))
    return powers


def lifted_images(lifts: list[LiftedIsometry], x: np.ndarray, y: np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every lift applied to every point (x_k, y_k, t_k) in one pass, as
    three (len(lifts), N) arrays of image coordinates: row j holds the
    Moebius image of each point under ``lifts[j]`` and t plus its
    ``theta_shift`` there, bit for bit. A degenerate point raises
    DegenerateInput (see ``_mobius_images``)."""
    count = len(x)
    a, b, c, d = (np.repeat([getattr(h.base, e) for h in lifts], count) for e in "abcd")
    offset = np.repeat([h.winding_offset for h in lifts], count)
    xs, ys, ts = (np.tile(v, len(lifts)) for v in (x, y, t))
    image, _ = _mobius_images(a, b, c, d, xs, ys)
    shape = (len(lifts), count)
    return (image.real.reshape(shape), image.imag.reshape(shape),
            (ts + _lift_shifts(c, d, xs, ys, offset)).reshape(shape))


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
    None); (c, d) and ``offset`` are one for all points or one per point.

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
    cos_t = np.array(list(map(math.cos, t)))
    sin_t = np.array(list(map(math.sin, t)))
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
