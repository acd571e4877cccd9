"""The fan solver as it scanned its grid from the left, and the fan as it
was traced with every angle's sine and cosine taken per evaluation: the
test oracles.

``polygon._solve_fan`` finds the closing defect's sign change by bisecting
over the grid's indices and stops its bisection once the bracket holds two
adjacent floats. ``solve_fan`` is the solver it replaced, kept step for
step: scan the log grid from the left for the first sign change between
two defined probes, then bisect that bracket up to 200 times.

``polygon._trace_fan`` reads each triangle's fixed sines and cosines from
``polygon._fan_triangles``, taken once per build. ``trace_fan`` is the
trace it replaced, which took them again in ``apex_angle`` and
``cosh_side`` at every evaluation: 11 libm calls per triangle where the
package makes 5. ``solve_fan`` traces with it. The tests hold the package
to both bit for bit.
"""

from __future__ import annotations

import math

from brieskorn.errors import ConstructionFailure


def cosh_side(opposite: float, adj1: float, adj2: float) -> float:
    """Hyperbolic length (as cosh) of the side opposite one angle of a triangle."""
    return (math.cos(opposite) + math.cos(adj1) * math.cos(adj2)) / (
        math.sin(adj1) * math.sin(adj2)
    )


def apex_angle(cosh_side: float, near: float, far: float) -> float | None:
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


def trace_fan(angles: list[float], first_diagonal: float):
    """Walk the fan triangles given the length of the diagonal to v_1:
    (apex angles, apex-to-vertex cosh distances), or None if some triangle
    degenerates."""
    n = len(angles)
    cosh_diag = math.cosh(first_diagonal)
    cosh_to_vertex = [cosh_diag]
    betas = []
    for tri in range(n - 2):
        near = angles[tri] if tri == 0 else 0.5 * angles[tri]
        far = angles[tri + 1] if tri == n - 3 else 0.5 * angles[tri + 1]
        beta = apex_angle(cosh_diag, near, far)
        if beta is None:
            return None
        betas.append(beta)
        cosh_diag = cosh_side(near, beta, far)
        cosh_to_vertex.append(cosh_diag)
    return betas, cosh_to_vertex


def solve_fan(angles: list[float]) -> float:
    target = angles[-1]

    def defect(diagonal: float) -> float | None:
        traced = trace_fan(angles, diagonal)
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
