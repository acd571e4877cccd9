"""Iterate-by-iterate oracles that the tests use for both sides of ``compare``.

``long_chain_homology`` builds the complex of every fiber class and of
every singleton class above the floor and eliminates each one, where
``chain_homology`` builds the class-1 complex once and tiles one period.
``singleton_complex`` builds a singleton class's complex, one generator
with a zero differential, which the package counts without building.
The loop bound of its singleton classes is the exceptional grading
evaluated as an exact rational floor, not the integer division of the
package, and it counts its fiber classes itself: class n reaches the floor
exactly when its top grading -2nw does.

``long_closed_form`` enumerates the closed form one exceptional iterate of
one orbifold point, and one fiber class, at a time down to the floor,
where ``closed_form_answer`` tiles one period.

``loop_tile`` repeats every block entry one grading at a time, where
``closedform._tile`` writes every copy of the last period in one update, and
``full_scan`` compares two periodic answers at every grading down to the
floor, where ``compare_graded`` scans a window of a few periods.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from brieskorn.closedform import exceptional_grading
from brieskorn.homology import RationalMatrix, graded_homology
from brieskorn.orbits import GradedComplex, build_complex, exceptional_orbit, orbifold_points


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


def full_scan(chain, oracle) -> tuple[bool, tuple[int, int, int] | None]:
    """Equality of two ``PeriodicDims`` at every grading from 0 down to the
    higher floor, and the first mismatch from the top as (grading, chain
    dimension, oracle dimension)."""
    floor = max(chain.floor, oracle.floor)
    ours = loop_tile([chain.block], chain.period, floor)
    theirs = loop_tile([oracle.block], oracle.period, floor)
    for grading in range(0, floor - 1, -1):
        if ours.get(grading, 0) != theirs.get(grading, 0):
            return False, (grading, ours.get(grading, 0), theirs.get(grading, 0))
    return True, None


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


def singleton_complex(data, j, i, k) -> GradedComplex:
    """The complex of the class of iterate k of orbifold point (j, i), for
    t_j not dividing k: its one generator and a zero differential."""
    _, t_j = data.orbifold_counts[j - 1]
    if k % t_j == 0:
        raise ValueError(f"iterate {k} of a multiplicity-{t_j} point is a fiber class")
    gen = exceptional_orbit(data, j, i, k)
    return GradedComplex(
        class_label=f"orbit:{gen.label}",
        generators_by_grading={gen.grading: [gen]},
        differential={gen.grading: RationalMatrix(0, 1)},
    )


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
        for grading, dim in graded_homology(singleton_complex(data, *cls)).items():
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
