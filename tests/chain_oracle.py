"""Class-by-class chain homology that the tests use as an oracle for ``chain_homology``.

It builds the complex of every fiber class and of every singleton class
above the floor and eliminates each one, where ``chain_homology`` builds
the class-1 complex once and counts singleton classes directly. The loop
bound of the singleton classes is the exceptional grading evaluated as an
exact rational floor, not the integer division of the package.
"""

import math
from fractions import Fraction

from brieskorn.closedform import required_classes
from brieskorn.homology import graded_homology
from brieskorn.orbits import build_complex, orbifold_points


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


def long_chain_homology(data, grading_floor, classes=None) -> dict[int, int]:
    """Sum of the homology of every class complex, truncated at the floor."""
    if classes is None:
        classes = required_classes(data, grading_floor)
    total: dict[int, int] = {}
    for n in range(1, classes + 1):
        for grading, dim in graded_homology(build_complex(data, n)).items():
            if grading >= grading_floor:
                total[grading] = total.get(grading, 0) + dim
    for cls in singleton_classes(data, grading_floor):
        for grading, dim in graded_homology(build_complex(data, cls)).items():
            total[grading] = total.get(grading, 0) + dim
    return total
