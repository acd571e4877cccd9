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

The invariance block of ``verify-dynamics`` draws its elements and points
from ``--seed`` alone (``--samples`` of each; the exponents play no part)
and computes all its residuals in one call of ``invariance_residuals``,
over arrays. The residuals are rounding noise, pinned in reports, so that
call reproduces ``contact_invariance_residual`` and
``frame_invariance_residual`` bit for bit: complex squares are built from
real and imaginary parts, because numpy's complex array multiply may fuse
operations; dot products and norms run as stacked ``np.matmul``, the BLAS
kernels the scalar ``@`` and ``np.linalg.norm`` use (``einsum`` or sums
of squares need not round the same way); phases, cosines and sines stay on
``cmath`` and ``math`` per point, so they do not depend on numpy's SIMD
dispatch.
"""

from __future__ import annotations

import cmath
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

    @classmethod
    def from_entries(cls, a, b, c, d) -> "MobiusElement":
        return cls([[a, b], [c, d]])

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

    def apply(self, z: complex, *, denominator_tol: float = _DENOMINATOR_TOL) -> complex:
        den = self.c * z + self.d
        if abs(den) < denominator_tol * max(1.0, abs(z)):
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

    def apply(self, z: complex) -> complex:
        w = z.conjugate()
        return (self.matrix[0, 0] * w + self.matrix[0, 1]) / (
            self.matrix[1, 0] * w + self.matrix[1, 1]
        )

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


def continued_arg(c: float, d: float, z_to: complex, *, z_from: complex = _REF,
                  arg_from: float | None = None, _depth: int = 0) -> float:
    """Continuous branch of arg(c*w + d) along the segment from z_from to z_to.

    The segment is subdivided until successive principal arguments differ
    by less than pi/2, which pins the lift. For real (c, d) the image of
    the half-plane never wraps around zero, so the recursion terminates
    immediately; the scheme stays correct for perturbed inputs.
    """
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
    def canonical(cls, base: MobiusElement) -> "LiftedIsometry":
        """The lift whose shift at i is the principal value -2*Arg(c*i + d)."""
        return cls(base, -2.0 * cmath.phase(base.c * 1j + base.d))

    @classmethod
    def with_shift_at(cls, base: MobiusElement, z0: complex, shift: float) -> "LiftedIsometry":
        """The lift whose t-shift at z0 equals ``shift`` exactly.

        Valid only when ``shift`` is congruent mod 2*pi to the base
        element's angular action at z0; callers are expected to verify
        the resulting group relations.
        """
        ref_arg = cmath.phase(base.c * 1j + base.d)
        at_z0 = continued_arg(base.c, base.d, z0)
        offset = shift + 2.0 * (at_z0 - ref_arg)
        return cls(base, offset)

    def theta_shift(self, z: complex) -> float:
        """The continuous t-shift this element applies over the point z."""
        c, d = self.base.c, self.base.d
        ref_arg = cmath.phase(c * 1j + d)
        return self.winding_offset - 2.0 * (continued_arg(c, d, z) - ref_arg)

    def apply(self, p: UpperHalfPoint) -> UpperHalfPoint:
        image = self.base.apply(p.z)
        return UpperHalfPoint(float(image.real), float(image.imag), float(p.t + self.theta_shift(p.z)))

    def compose(self, other: "LiftedIsometry") -> "LiftedIsometry":
        """Composition acting as self after other, with the lift chained
        so the t-shift of the product is the sum of shifts along the way."""
        base = self.base.compose(other.base)
        offset = other.winding_offset + self.theta_shift(other.base.apply(_REF))
        return LiftedIsometry(base, offset)

    def power(self, k: int) -> "LiftedIsometry":
        if k < 0:
            raise ValueError("negative powers are not needed here")
        out = LiftedIsometry.identity()
        for _ in range(k):
            out = self.compose(out)
        return out

    def __repr__(self):
        return f"LiftedIsometry({self.base!r}, winding_offset={self.winding_offset:.6g})"


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


def lifted_jacobian_fd(h: LiftedIsometry, p: UpperHalfPoint, step: float = 1e-6) -> np.ndarray:
    def embed(x, y, t):
        q = h.apply(UpperHalfPoint(x, y, t))
        return np.array([q.x, q.y, q.t])

    cols = []
    for axis in range(3):
        delta = np.zeros(3)
        delta[axis] = step
        plus = embed(p.x + delta[0], p.y + delta[1], p.t + delta[2])
        minus = embed(p.x - delta[0], p.y - delta[1], p.t - delta[2])
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


def _form_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    pulled = contact_covector(image) @ jac
    return float(np.linalg.norm(pulled - contact_covector(p)))


def _frame_residual(jac: np.ndarray, p: UpperHalfPoint, image: UpperHalfPoint) -> float:
    worst = 0.0
    for here, there in zip(frame_at(p), frame_at(image)):
        worst = max(worst, float(np.linalg.norm(jac @ here - there)))
    return worst


def contact_invariance_residual(
    h: LiftedIsometry,
    p: UpperHalfPoint,
    *,
    method: str = "analytic",
    fd_step: float = 1e-6,
) -> float:
    """Norm of (pullback of the contact form under h at p) minus the form at p."""
    if method == "analytic":
        jac = lifted_jacobian(h, p)
    elif method == "fd":
        jac = lifted_jacobian_fd(h, p, fd_step)
    else:
        raise ValueError("method must be 'analytic' or 'fd'")
    return _form_residual(jac, p, h.apply(p))


def frame_invariance_residual(
    h: LiftedIsometry,
    p: UpperHalfPoint,
    *,
    method: str = "analytic",
    fd_step: float = 1e-6,
) -> float:
    """Worst mismatch between the pushed-forward frame and the frame at the image."""
    if method == "analytic":
        jac = lifted_jacobian(h, p)
    else:
        jac = lifted_jacobian_fd(h, p, fd_step)
    return _frame_residual(jac, p, h.apply(p))


def _frame_columns(y: np.ndarray, t: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """``frame_at`` for many points, as two (N, 3, 1) stacks of column vectors."""
    cos_t = np.array([math.cos(v) for v in t])
    sin_t = np.array([math.sin(v) for v in t])
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


def invariance_residuals(
    elements: list[LiftedIsometry], points: list[UpperHalfPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """The contact and frame residuals of each element at its point, as two arrays.

    Entry k equals ``contact_invariance_residual(elements[k], points[k])``
    and ``frame_invariance_residual(elements[k], points[k])`` bit for bit,
    by the rules in the module docstring, except that a frame residual
    keeps a NaN from either frame vector.

    Raises DegenerateInput at the first point whose Moebius denominator
    collapses or whose image leaves the upper half-plane.
    """
    if len(elements) != len(points):
        raise ValueError("need one point per element")
    if not points:
        return np.zeros(0), np.zeros(0)
    a, b, c, d = np.array([h.base.matrix for h in elements]).reshape(-1, 4).T
    z = np.array([p.z for p in points])
    den = c * z + d
    collapsed = np.abs(den) < _DENOMINATOR_TOL * np.maximum(1.0, np.abs(z))
    if collapsed.any():
        z_bad = points[int(collapsed.argmax())].z
        raise DegenerateInput(f"Moebius denominator collapsed at z = {z_bad}")
    image = (a * z + b) / den
    outside = ~(image.imag > 0)
    if outside.any():
        k = int(outside.argmax())
        raise DegenerateInput(
            f"image of z = {points[k].z} has y = {image.imag[k]}, outside the upper half-plane"
        )
    image_t = [p.t + h.theta_shift(p.z) for h, p in zip(elements, points)]

    dr, di = den.real, den.imag
    square = np.empty_like(den)
    square.real = dr * dr - di * di
    square.imag = dr * di + di * dr
    w = 1.0 / square
    q = c / den
    jac = np.zeros((len(points), 3, 3))
    jac[:, 0, 0] = jac[:, 1, 1] = w.real
    jac[:, 0, 1] = -w.imag
    jac[:, 1, 0] = w.imag
    jac[:, 2, 0] = -2.0 * q.imag
    jac[:, 2, 1] = -2.0 * q.real
    jac[:, 2, 2] = 1.0

    y = z.imag
    form = _norms(np.matmul(_covector_rows(image.imag), jac) - _covector_rows(y))
    here = _frame_columns(y, [p.t for p in points])
    there = _frame_columns(image.imag, image_t)
    frame = np.maximum(*(_norms(np.matmul(jac, e) - f) for e, f in zip(here, there)))
    return form, frame


def automorphic_modulus(f_modulus_at, degree, p: UpperHalfPoint) -> float:
    """|f(z)| * (Im z)^degree, the bundle modulus of a degree-``degree`` form.

    Independent of the t-coordinate exactly: t is never read.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return f_modulus_at(p.z) * p.y ** float(degree)


def random_mobius(rng: random.Random, *, entry_bound: float = 2.0,
                  det_floor: float = 0.05) -> MobiusElement:
    """Matrix with entries uniform in [-bound, bound], renormalized to det 1."""
    while True:
        a, b, c, d = (rng.uniform(-entry_bound, entry_bound) for _ in range(4))
        det = a * d - b * c
        if det > det_floor:
            return MobiusElement([[a, b], [c, d]])


def random_point(rng: random.Random) -> UpperHalfPoint:
    return UpperHalfPoint(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0), rng.uniform(-6.0, 6.0))
