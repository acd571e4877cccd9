"""Hyperbolic polygons with angles pi/a_j and their reflection groups.

Placement convention, fixed so output is reproducible: the last vertex
v_n sits at i and the edge from v_n to v_1 runs up the imaginary axis.
Vertices are listed counterclockwise. For n = 3 the triangle is solved
directly from its angles. For n > 3 the polygon is fanned into n - 2
triangles from v_n; the angle at each interior fan vertex is split in
half between its two triangles, and the one remaining parameter, the
length of the first fan diagonal, is shot so the apex angles sum to
pi/a_n. That closing defect runs from positive (collapsing fan, by
hyperbolicity) to negative (diverging fan), so a root always exists. It
is found by bisection twice over: over the indices of a fixed log grid of
diagonals, for the cell where the defect changes sign, then over the
floats of that cell, until the defect at the midpoint is exactly zero or
the midpoint is one of the bracket's ends. Both stops occur: the exact
zero ends the solve of (2,3,5,7) and (2,)*10, the ends that of (2,3,4,5).

Each rotation generator is the product of the reflections in the two
edges meeting at its vertex (outgoing edge first), a counterclockwise
rotation by 2*pi/a_j. Its lift is pinned by prescribing the t-shift
+2*pi/a_j at the fixed vertex, which makes the a_j-th power the central
vertical shift by 2*pi and the product of all lifted generators the
(n-2)-nd power of the center.

``build_polygon_group`` records each rotation's spin at its vertex, and
``PolygonGroup.interior_angles`` the measured angles; ``cli`` holds both.
``check_relations`` measures the residual of each relation and returns
them by name; it decides nothing, as ``cli`` holds each one against its
tolerance. It tests the lifted relations as actions on sample points
from ``halfplane.random_points``, one point at a time: each lifted power
is a_j calls of ``LiftedIsometry.compose``, and each image of a point
one ``MobiusElement.apply`` and one ``theta_shift``. The matrix relations
run on the isometries' four floats.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property

from . import tolerances as tol_mod
from .errors import ConstructionFailure
from .halfplane import (
    EdgeReflection,
    LiftedIsometry,
    MobiusElement,
    point_transport,
    random_points,
    reflection_across,
    rotation_about_i,
)
from .invariants import BrieskornParams


@dataclass
class PolygonGroup:
    params: BrieskornParams
    vertices: list[complex]
    reflections: list[EdgeReflection]  # reflections[j] fixes edge (v_j, v_{j+1})
    rotation_generators: list[MobiusElement]
    lifted_generators: list[LiftedIsometry]
    rotation_spins: list[float]  # the phase of each rotation's derivative at its vertex

    @cached_property
    def interior_angles(self) -> list[float]:
        """``measured_interior_angles``, measured once per group."""
        return measured_interior_angles(self)


def _cosh_side(opposite: float, adj1: float, adj2: float) -> float:
    """Hyperbolic length (as cosh) of the side opposite one angle of a triangle."""
    return (math.cos(opposite) + math.cos(adj1) * math.cos(adj2)) / (
        math.sin(adj1) * math.sin(adj2)
    )


def _apex_angle(cosh_side: float, near: float, far: float) -> float | None:
    """Apex angle of a triangle from the adjacent side and the two other angles.

    The side of length acosh(cosh_side) joins the apex to the vertex with
    angle ``near``; ``far`` is the angle opposite that side. The principal
    branch of the resulting transcendental equation is the geometric one;
    a branch whose angle sum reaches pi signals no valid triangle.
    """
    a = math.sin(near) * cosh_side
    b = math.cos(near)
    r = math.hypot(a, b)
    beta = math.atan2(b, a) + math.asin(min(1.0, math.cos(far) / r))
    if beta <= 0.0 or beta + near + far >= math.pi:
        return None
    return beta


def _trace_fan(angles: list[float], first_diagonal: float):
    """Walk the fan triangles given the length of the diagonal to v_1.

    Interior fan vertices give half their angle to each adjacent triangle;
    v_1 and v_{n-1} spend their whole angle in the single triangle that
    contains them. Returns (apex angles, apex-to-vertex cosh distances)
    or None if some triangle degenerates. The closing constraint is that
    the apex angles sum to the prescribed angle at v_n.
    """
    n = len(angles)
    cosh_diag = math.cosh(first_diagonal)
    cosh_to_vertex = [cosh_diag]
    betas = []
    for tri in range(n - 2):
        near = angles[tri] if tri == 0 else 0.5 * angles[tri]
        far = angles[tri + 1] if tri == n - 3 else 0.5 * angles[tri + 1]
        beta = _apex_angle(cosh_diag, near, far)
        if beta is None:
            return None
        betas.append(beta)
        cosh_diag = _cosh_side(near, beta, far)
        cosh_to_vertex.append(cosh_diag)
    return betas, cosh_to_vertex


# the log grid that brackets the fan's closing diagonal, ~1.2e-4 .. 4e2
_FAN_GRID = tuple(math.exp(-9.0 + 15.0 * k / 420) for k in range(421))


def _solve_fan(angles: list[float]) -> float:
    """Diagonal length closing the fan, by bisection on a log grid, then on floats.

    The defect sum(apex angles) - pi/a_n decreases from positive at a
    collapsing fan to negative at a diverging one. Bisecting over the
    grid's indices finds the grid cell where it changes sign, or a grid
    point where it is exactly zero. Bisecting that cell stops at the first
    midpoint where the defect is exactly zero (``hm == 0.0``), or when the
    midpoint is one of the cell's ends, the root to the last float; a
    bracket narrower than 1e-16 * max(1, a) also stops it.
    """
    target = angles[-1]

    def defect(diagonal: float) -> float:
        traced = _trace_fan(angles, diagonal)
        if traced is None:
            raise ConstructionFailure(
                f"fan degenerates at diagonal {diagonal!r}; construction failed")
        return sum(traced[0]) - target

    lo, hi = 0, len(_FAN_GRID) - 1
    ha = defect(_FAN_GRID[lo])
    if not ha > 0.0 > defect(_FAN_GRID[hi]):
        raise ConstructionFailure("fan closing defect has no sign change; construction failed")
    while hi - lo > 1:
        k = (lo + hi) // 2
        hk = defect(_FAN_GRID[k])
        if hk == 0.0:
            return _FAN_GRID[k]
        if hk > 0.0:
            lo, ha = k, hk
        else:
            hi = k

    a, b = _FAN_GRID[lo], _FAN_GRID[hi]
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        hm = defect(mid)
        if hm == 0.0 or (b - a) < 1e-16 * max(1.0, a):
            return mid
        if ha * hm <= 0:
            b = mid
        else:
            a, ha = mid, hm
    return 0.5 * (a + b)


def build_polygon_group(params: BrieskornParams) -> PolygonGroup:
    """Construct the polygon, its reflections, rotations, lifts and spins;
    only a fan that cannot be solved raises ConstructionFailure."""
    angles = [math.pi / a for a in params.exponents]
    n = len(angles)

    if n == 3:
        # all three angles are known; no shooting needed
        betas = [angles[2]]
        cosh_to_vertex = [
            _cosh_side(angles[1], betas[0], angles[0]),
            _cosh_side(angles[0], betas[0], angles[1]),
        ]
    else:
        diagonal = _solve_fan(angles)
        traced = _trace_fan(angles, diagonal)
        if traced is None:
            raise ConstructionFailure("fan construction degenerated at the solved diagonal")
        betas, cosh_to_vertex = traced

    apex = 1j
    vertices = []
    accumulated = 0.0
    for k in range(n - 1):
        dist = math.acosh(max(1.0, cosh_to_vertex[k]))
        vertices.append(rotation_about_i(accumulated).apply(apex * math.exp(dist)))
        if k < n - 2:
            accumulated += betas[k]
    vertices.append(apex)

    reflections = [reflection_across(vertices[j], vertices[(j + 1) % n]) for j in range(n)]
    rotations = [reflections[j - 1].compose(reflections[j]) for j in range(n)]
    return PolygonGroup(
        params=params,
        vertices=vertices,
        reflections=reflections,
        rotation_generators=rotations,
        lifted_generators=[LiftedIsometry.with_shift_at(rotation, vertex, 2.0 * angle)
                           for rotation, vertex, angle in zip(rotations, vertices, angles)],
        rotation_spins=[cmath.phase(rotation.derivative(vertex))
                        for rotation, vertex in zip(rotations, vertices)],
    )


def initial_direction(v: complex, w: complex) -> complex:
    """Unit tangent at v of the geodesic from v toward w."""
    move = point_transport(v).inverse()
    w1 = move.apply(w)
    if abs(w1.real) < 1e-14 * max(1.0, abs(w1)):
        return 1j if abs(w1) > 1.0 else -1j
    center = (abs(w1) ** 2 - 1.0) / (2.0 * w1.real)
    candidate = 1j * (1j - center)
    candidate /= abs(candidate)
    # the initial tangent makes an acute angle with the chord to the target
    if (candidate * (w1 - 1j).conjugate()).real < 0:
        candidate = -candidate
    return candidate


def measured_interior_angles(group: PolygonGroup) -> list[float]:
    """Interior angles read off the vertex positions via tangent vectors."""
    verts = group.vertices
    n = len(verts)
    out = []
    for j in range(n):
        to_prev = initial_direction(verts[j], verts[(j - 1) % n])
        to_next = initial_direction(verts[j], verts[(j + 1) % n])
        out.append(abs(cmath.phase(to_prev / to_next)))
    return out


def measured_area(group: PolygonGroup) -> float:
    """Curvature integral of the polygon: (n-2)*pi minus the measured angles."""
    angles = group.interior_angles
    return (len(angles) - 2) * math.pi - sum(angles)


def expected_area(params: BrieskornParams) -> float:
    return math.pi * float(params.hyperbolic_gap)


def _matrix_deviation(m: MobiusElement) -> float:
    """Frobenius distance of a matrix from +identity or -identity."""
    plus = (m.a - 1.0) * (m.a - 1.0) + m.b * m.b + m.c * m.c + (m.d - 1.0) * (m.d - 1.0)
    minus = (m.a + 1.0) * (m.a + 1.0) + m.b * m.b + m.c * m.c + (m.d + 1.0) * (m.d + 1.0)
    return math.sqrt(min(plus, minus))


def check_relations(
    group: PolygonGroup,
    *,
    samples: int = 20,
    seed: int = 0,
) -> dict[str, float]:
    """Measure the residuals of the group presentation, by relation name.

    Matrix level (up to overall sign): each reflection squares to the
    identity, each rotation has its prescribed order, and the rotations
    compose around the polygon to the identity. Lifted level, tested as
    actions on sampled points of the bundle with the t-coordinate left
    unreduced: the a_j-th power of each lifted generator is the central
    shift by 2*pi, and the ordered product of all lifted generators is
    the central shift by 2*pi*(n-2). The distance of a lift from its shift
    is the worst of |dx| + |dy| and |dt - shift| over the points, NaN if
    any is NaN.

    Only measures: ``cli`` holds each residual against its tolerance. A
    Moebius image that ``MobiusElement.apply`` refuses raises DegenerateInput.
    """
    params = group.params
    n = params.n
    points = random_points(random.Random(seed), max(1, samples))

    residuals: dict[str, float] = {}

    for j, refl in enumerate(group.reflections, start=1):
        residuals[f"reflection_involution[{j}]"] = _matrix_deviation(refl.compose(refl))

    product = MobiusElement.identity()
    for j, (a_j, rot) in enumerate(zip(params.exponents, group.rotation_generators), start=1):
        residuals[f"rotation_order[{j}]"] = _matrix_deviation(rot.power(a_j))
        product = product.compose(rot)
    residuals["rotation_product"] = _matrix_deviation(product)

    two_pi = 2.0 * math.pi
    lifted_product = LiftedIsometry.identity()
    for lift in group.lifted_generators:
        lifted_product = lifted_product.compose(lift)
    for j, (a_j, lift) in enumerate(zip(params.exponents, group.lifted_generators), start=1):
        power = LiftedIsometry.identity()
        for _ in range(a_j):
            power = lift.compose(power)
        residuals[f"lift_order[{j}]"] = _shift_deviation(power, two_pi, points)
    residuals["lift_product"] = _shift_deviation(lifted_product, two_pi * (n - 2), points)
    return residuals


def _shift_deviation(lift: LiftedIsometry, shift: float, points) -> float:
    """The distance of ``lift`` from the vertical shift by ``shift`` over the
    points (x, y, t), as ``check_relations`` measures it."""
    deviations = []
    for x, y, t in points:
        z = complex(x, y)
        image = lift.base.apply(z)
        deviations += (abs(image.real - x) + abs(image.imag - y),
                       abs(t + lift.theta_shift(z) - (t + shift)))
    return tol_mod.worst(deviations)
