"""The fan solver as it scanned its grid from the left: the test oracle.

``polygon._solve_fan`` finds the closing defect's sign change by bisecting
over the grid's indices and stops its bisection once the bracket holds two
adjacent floats. This is the solver it replaced, kept step for step: scan
the log grid from the left for the first sign change between two defined
probes, then bisect that bracket up to 200 times. The tests hold the
solver to it bit for bit.
"""

from __future__ import annotations

import math

from brieskorn.errors import ConstructionFailure
from brieskorn.polygon import _trace_fan


def solve_fan(angles: list[float]) -> float:
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
