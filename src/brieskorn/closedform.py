"""Closed-form graded dimensions and the chain-level cross-check.

The homology of the full orbit complex decomposes over free homotopy
classes. The closed form is evaluated by direct generator enumeration:

* every exceptional iterate k >= 1 with t_j not dividing k contributes one
  dimension at grading -2*floor(k*d/(m*t_j)) - 2 (a singleton class);
* the class of the n-th fiber multiple contributes the surface homology
  (1, 2g, 1) at gradings (-2nw - 2, -2nw - 1, -2nw), w = d/m, for n >= 1.

``chain_homology`` computes the same dimensions the long way, from the
assembled complexes, so the two can be compared grading by grading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, IncompleteWindow
from .homology import GradedDims, graded_homology
from .invariants import SeifertData
from .orbits import build_complex, orbifold_points


@dataclass(frozen=True)
class ClosedFormAnswer:
    """The closed-form homology split into its two kinds of summands.

    ``g_block`` holds the fundamental window of exceptional iterates
    (k = 1 .. t_j - 1 per orbifold point); its total dimension is
    sum_j s_j * (t_j - 1). ``surface_blocks`` maps each fiber multiple n
    to its shifted copy of the surface homology. ``combined`` is the full
    truncated answer, obtained from all exceptional iterates (every
    window, not just the first) plus all surface blocks.
    """

    g_block: GradedDims
    surface_blocks: dict[int, GradedDims]
    combined: GradedDims


def _add(dims: GradedDims, grading: int, amount: int = 1) -> None:
    if amount:
        dims[grading] = dims.get(grading, 0) + amount


def exceptional_grading(data: SeifertData, j: int, k: int) -> int:
    _, t_j = data.orbifold_counts[j - 1]
    return -2 * math.floor(Fraction(k * data.d, data.m * t_j)) - 2


def closed_form_answer(data: SeifertData, grading_floor: int) -> ClosedFormAnswer:
    if grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")

    g_block: GradedDims = {}
    combined: GradedDims = {}

    for j, _i, t_j in orbifold_points(data):
        for k in range(1, t_j):
            _add(g_block, exceptional_grading(data, j, k))
        if t_j == 1:
            continue
        k = 1
        while True:
            grading = exceptional_grading(data, j, k)
            if grading < grading_floor:
                break
            if k % t_j != 0:
                _add(combined, grading)
            k += 1

    surface_blocks: dict[int, GradedDims] = {}
    w = data.fiber_winding
    n = 1
    while -2 * n * w >= grading_floor:
        block: GradedDims = {}
        _add(block, -2 * n * w, 1)
        _add(block, -2 * n * w - 1, 2 * data.genus)
        _add(block, -2 * n * w - 2, 1)
        surface_blocks[n] = block
        for grading, dim in block.items():
            if grading >= grading_floor:
                _add(combined, grading, dim)
        n += 1

    return ClosedFormAnswer(g_block=g_block, surface_blocks=surface_blocks, combined=combined)


def closed_form_homology(data: SeifertData, grading_floor: int) -> GradedDims:
    """Graded dimensions of the closed-form answer, truncated at the floor."""
    return closed_form_answer(data, grading_floor).combined


def required_classes(data: SeifertData, grading_floor: int) -> int:
    """Fiber classes needed for the chain side to be complete above the floor."""
    return math.ceil(Fraction(-grading_floor * data.m, 2 * data.d)) + 1


def chain_homology(
    data: SeifertData, grading_floor: int, classes: int | None = None
) -> GradedDims:
    """Graded homology from the assembled complexes, class by class.

    Builds the complex of every fiber class up to ``classes`` (defaulting
    to the number needed for the window) and of every singleton class with
    grading above the floor, runs the exact elimination on each, and sums.
    Every fiber class has the same boundary matrix, so each distinct
    differential is eliminated once per call: the ranks are shared by
    matrix content, never by class, and are dropped when the call returns.

    Raises IncompleteWindow if an explicit ``classes`` count is too small
    for the requested floor.
    """
    if grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")
    needed = required_classes(data, grading_floor)
    if classes is None:
        classes = needed
    elif classes < needed:
        raise IncompleteWindow(
            f"floor {grading_floor} needs {needed} fiber classes, got {classes}"
        )

    total: GradedDims = {}
    ranks: dict = {}
    for n in range(1, classes + 1):
        for grading, dim in graded_homology(build_complex(data, n), ranks).items():
            if grading >= grading_floor:
                _add(total, grading, dim)

    for j, i, t_j in orbifold_points(data):
        if t_j == 1:
            continue
        k = 1
        while True:
            grading = exceptional_grading(data, j, k)
            if grading < grading_floor:
                break
            if k % t_j != 0:
                for g, dim in graded_homology(build_complex(data, (j, i, k)), ranks).items():
                    _add(total, g, dim)
            k += 1
    return total


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    floor: int
    first_mismatch: tuple[int, int, int] | None  # (grading, chain dim, closed-form dim)


def compare_graded(chain: GradedDims, oracle: GradedDims, floor: int) -> ComparisonReport:
    """Grading-by-grading equality on all gradings >= floor.

    The first mismatch (scanning from the top grading downward) is
    reported as (grading, chain dimension, closed-form dimension).
    """
    for grading in range(0, floor - 1, -1):
        a = chain.get(grading, 0)
        b = oracle.get(grading, 0)
        if a != b:
            return ComparisonReport(equal=False, floor=floor, first_mismatch=(grading, a, b))
    return ComparisonReport(equal=True, floor=floor, first_mismatch=None)
