"""Iterate-by-iterate oracles that the tests use for both sides of ``compare``.

``long_chain_homology`` builds the complex of every fiber class and of
every singleton class above the floor and eliminates each one, where
``chain_homology`` builds the class-1 complex once and tiles one period.
The loop bound of its singleton classes is the exceptional grading
evaluated as an exact rational floor, not the integer division of the
package, and it counts its fiber classes itself: class n reaches the floor
exactly when its top grading -2nw does.

``long_closed_form`` enumerates the closed form one exceptional iterate of
one orbifold point, and one fiber class, at a time down to the floor,
where ``closed_form_answer`` tiles one period.

``loop_tile`` repeats every block entry one grading at a time, where
``closedform._tile`` writes each run of equal values in one update.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from brieskorn.closedform import exceptional_grading
from brieskorn.homology import graded_homology
from brieskorn.orbits import build_complex, orbifold_points


def _add(dims, grading, amount=1):
    if amount:
        dims[grading] = dims.get(grading, 0) + amount


def loop_tile(blocks, period, grading_floor) -> dict[int, int]:
    """Every dimension of the blocks repeated ``period`` gradings apart, down to the floor."""
    total: dict[int, int] = {}
    for block in blocks:
        for grading, dim in block.items():
            if dim:
                for shifted in range(grading, grading_floor - 1, -period):
                    total[shifted] = total.get(shifted, 0) + dim
    return total


def singleton_grading(data, j, k) -> int:
    _, t_j = data.orbifold_counts[j - 1]
    return -2 * math.floor(Fraction(k * data.d, data.m * t_j)) - 2


def singleton_classes(data, grading_floor):
    """Every (j, i, k) with t_j not dividing k whose grading is >= the floor."""
    for j, i, t_j in orbifold_points(data):
        if t_j == 1:
            continue
        k = 1
        while singleton_grading(data, j, k) >= grading_floor:
            if k % t_j != 0:
                yield j, i, k
            k += 1


def fiber_classes(data, grading_floor) -> int:
    """The fiber classes n whose top grading -2nw is >= the floor."""
    n = 0
    while -2 * (n + 1) * data.fiber_winding >= grading_floor:
        n += 1
    return n


def long_chain_homology(data, grading_floor, classes=None) -> dict[int, int]:
    """Sum of the homology of every class complex, truncated at the floor.

    ``classes`` fiber classes are summed, by default every one that reaches
    the floor.
    """
    if classes is None:
        classes = fiber_classes(data, grading_floor)
    total: dict[int, int] = {}
    for n in range(1, classes + 1):
        for grading, dim in graded_homology(build_complex(data, n)).items():
            if grading >= grading_floor:
                total[grading] = total.get(grading, 0) + dim
    for cls in singleton_classes(data, grading_floor):
        for grading, dim in graded_homology(build_complex(data, cls)).items():
            total[grading] = total.get(grading, 0) + dim
    return total


class LongClosedForm(NamedTuple):
    g_block: dict[int, int]
    surface_blocks: dict[int, dict[int, int]]  # one block per fiber class n
    combined: dict[int, int]


def long_closed_form(data, grading_floor) -> LongClosedForm:
    """The closed form with one surface block per fiber class down to the floor."""
    g_block: dict[int, int] = {}
    combined: dict[int, int] = {}

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

    surface_blocks: dict[int, dict[int, int]] = {}
    w = data.fiber_winding
    n = 1
    while -2 * n * w >= grading_floor:
        block: dict[int, int] = {}
        _add(block, -2 * n * w, 1)
        _add(block, -2 * n * w - 1, 2 * data.genus)
        _add(block, -2 * n * w - 2, 1)
        surface_blocks[n] = block
        for grading, dim in block.items():
            if grading >= grading_floor:
                _add(combined, grading, dim)
        n += 1

    return LongClosedForm(g_block=g_block, surface_blocks=surface_blocks, combined=combined)
