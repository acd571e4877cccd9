"""Hyperbolic polygons with angles pi/a_j and their reflection groups.

Placement convention, fixed so output is reproducible: the last vertex
v_n sits at i and the edge from v_n to v_1 runs up the imaginary axis.
Vertices are listed counterclockwise. For n = 3 the triangle is solved
directly from its angles. For n > 3 the polygon is fanned into n - 2
triangles from v_n; the angle at each interior fan vertex is split in
half between its two triangles, and the one remaining parameter, the
length of the first fan diagonal, is shot so the apex angles sum to
pi/a_n. That closing defect runs from positive (collapsing fan, by
hyperbolicity) to negative (diverging fan), so a root always exists.

Each rotation generator is the product of the reflections in the two
edges meeting at its vertex (outgoing edge first), a counterclockwise
rotation by 2*pi/a_j. Its lift is pinned by prescribing the t-shift
+2*pi/a_j at the fixed vertex, which makes the a_j-th power the central
vertical shift by 2*pi and the product of all lifted generators the
(n-2)-nd power of the center.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from . import tolerances as tol_mod
from .errors import ConstructionFailure, RelationFailure
from .halfplane import (
    EdgeReflection,
    LiftedIsometry,
    MobiusElement,
    point_transport,
    random_point,
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
    fan_apex_angles: tuple[float, ...]


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


def _solve_fan(angles: list[float]) -> float:
    """Diagonal length closing the fan, by log-grid scan and bisection.

    The defect sum(apex angles) - pi/a_n decreases from positive at a
    collapsing fan to negative at a diverging one; the first sign change
    from the left is bisected to machine precision.
    """
    target = angles[-1]

    def defect(diagonal: float) -> float | None:
        traced = _trace_fan(angles, diagonal)
        if traced is None:
            return None
        return sum(traced[0]) - target

    grid = [math.exp(lo) for lo in
            [-9.0 + 15.0 * k / 420 for k in range(421)]]  # ~1.2e-4 .. 4e2
    bracket = None
    previous = None
    for diagonal in grid:
        value = defect(diagonal)
        if value is None:
            previous = None
            continue
        if value == 0.0:
            return diagonal
        if previous is not None and previous[1] * value < 0:
            bracket = (previous[0], diagonal)
            break
        previous = (diagonal, value)
    if bracket is None:
        raise ConstructionFailure("fan closing defect has no sign change; construction failed")

    a, b = bracket
    ha = defect(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        hm = defect(mid)
        if hm is None:
            raise ConstructionFailure("fan bisection left the valid region")
        if hm == 0.0 or (b - a) < 1e-16 * max(1.0, a):
            return mid
        if ha * hm <= 0:
            b = mid
        else:
            a, ha = mid, hm
    return 0.5 * (a + b)


def build_polygon_group(params: BrieskornParams, *, tolerances=None) -> PolygonGroup:
    """Construct the polygon, its reflections, rotations, and lifts.

    The measured interior angles are checked against the prescribed ones
    and the rotation generators against their expected derivative, so a
    failed construction raises ConstructionFailure instead of propagating
    bad geometry.
    """
    tols = tol_mod.resolve(tolerances)
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

    reflections = [
        reflection_across(vertices[j], vertices[(j + 1) % n]) for j in range(n)
    ]
    rotations = []
    lifts = []
    for j in range(n):
        incoming = reflections[(j - 1) % n]
        outgoing = reflections[j]
        rotation = incoming.compose(outgoing)
        spin = cmath.phase(rotation.derivative(vertices[j]))
        expected = 2.0 * angles[j]
        wrapped = (spin - expected + math.pi) % (2.0 * math.pi) - math.pi
        if not abs(wrapped) <= 1e-6:
            raise ConstructionFailure(
                f"rotation at vertex {j + 1} spins by {spin:.6f}, expected {expected:.6f}"
            )
        rotations.append(rotation)
        lifts.append(LiftedIsometry.with_shift_at(rotation, vertices[j], expected))

    group = PolygonGroup(
        params=params,
        vertices=vertices,
        reflections=reflections,
        rotation_generators=rotations,
        lifted_generators=lifts,
        fan_apex_angles=tuple(betas),
    )

    worst = tol_mod.worst(
        abs(measured - prescribed)
        for measured, prescribed in zip(measured_interior_angles(group), angles)
    )
    if tol_mod.exceeds(worst, tols["angle"]):
        raise ConstructionFailure(f"constructed polygon misses its angles by {worst:.3e}")
    return group


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
    angles = measured_interior_angles(group)
    return (len(angles) - 2) * math.pi - sum(angles)


def expected_area(params: BrieskornParams) -> float:
    return math.pi * float(params.hyperbolic_gap)


def _matrix_deviation(m: MobiusElement) -> float:
    """Frobenius distance of a matrix from +identity or -identity."""
    flat = m.matrix.ravel()
    plus = sum((x - e) ** 2 for x, e in zip(flat, (1.0, 0.0, 0.0, 1.0)))
    minus = sum((x + e) ** 2 for x, e in zip(flat, (1.0, 0.0, 0.0, 1.0)))
    return math.sqrt(min(plus, minus))


def _action_deviation(h: LiftedIsometry, vertical_shift: float, points) -> float:
    deviations = []
    for p in points:
        image = h.apply(p)
        deviations += [abs(image.x - p.x) + abs(image.y - p.y),
                       abs(image.t - (p.t + vertical_shift))]
    return tol_mod.worst(deviations)


@dataclass
class RelationReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]


def check_relations(
    group: PolygonGroup,
    *,
    samples: int = 20,
    seed: int = 0,
    tolerances=None,
) -> RelationReport:
    """Verify the group presentation numerically.

    Matrix level (up to overall sign): each reflection squares to the
    identity, each rotation has its prescribed order, and the rotations
    compose around the polygon to the identity. Lifted level, tested as
    actions on sampled points of the bundle with the t-coordinate left
    unreduced: the a_j-th power of each lifted generator is the central
    shift by 2*pi, and the ordered product of all lifted generators is
    the central shift by 2*pi*(n-2).

    Raises RelationFailure (report attached) when a residual exceeds its
    tolerance.
    """
    tols = tol_mod.resolve(tolerances)
    params = group.params
    n = params.n
    rng = random.Random(seed)
    points = [random_point(rng) for _ in range(max(1, samples))]

    residuals: dict[str, float] = {}

    for j, refl in enumerate(group.reflections, start=1):
        square = MobiusElement(refl.matrix @ refl.matrix)
        residuals[f"reflection_involution[{j}]"] = _matrix_deviation(square)

    product = MobiusElement.identity()
    for j, (a_j, rot) in enumerate(zip(params.exponents, group.rotation_generators), start=1):
        residuals[f"rotation_order[{j}]"] = _matrix_deviation(rot.power(a_j))
        product = product.compose(rot)
    residuals["rotation_product"] = _matrix_deviation(product)

    two_pi = 2.0 * math.pi
    lifted_product = LiftedIsometry.identity()
    for j, (a_j, lift) in enumerate(zip(params.exponents, group.lifted_generators), start=1):
        residuals[f"lift_order[{j}]"] = _action_deviation(lift.power(a_j), two_pi, points)
        lifted_product = lifted_product.compose(lift)
    residuals["lift_product"] = _action_deviation(lifted_product, two_pi * (n - 2), points)

    report = RelationReport(residuals=residuals)

    matrix_bad = [
        name
        for name, value in residuals.items()
        if not name.startswith("lift") and tol_mod.exceeds(value, tols["matrix_relation"])
    ]
    lifted_bad = [
        name
        for name, value in residuals.items()
        if name.startswith("lift") and tol_mod.exceeds(value, tols["invariance"])
    ]
    if matrix_bad or lifted_bad:
        raise RelationFailure(
            f"group relations failed: {', '.join(matrix_bad + lifted_bad)}", report
        )
    return report
