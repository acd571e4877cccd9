"""Closed-form graded dimensions and the chain-level cross-check.

The homology of the full orbit complex decomposes over free homotopy
classes:

* every exceptional iterate k >= 1 with t_j not dividing k contributes one
  dimension at grading -2*floor(k*d/(m*t_j)) - 2 (a singleton class);
* the class of the n-th fiber multiple contributes the surface homology
  (1, 2g, 1) at gradings (-2nw - 2, -2nw - 1, -2nw), w = d/m, for n >= 1.

Both summands are periodic. w is an integer, so iterate k + t_j sits 2w
below iterate k, and fiber class n + 1 sits 2w below class n. The whole
answer is therefore one base block, the iterates k = 1 .. t_j - 1 of every
orbifold point plus fiber class 1, repeated every 2w gradings: the block
lies in [-2w - 2, -2], and

    dims(g - 2w) = dims(g)  for every g <= -3,
    dims(-2w - 2) = dims(-2) + 1,

the one exception being the bottom of fiber class 1, which has no class-0
partner. Both sides below build their base block once and tile it down to
the grading floor, so their cost outside the tiling does not depend on the
floor.

``chain_homology`` computes the same dimensions from the chain side, so
the two can be compared grading by grading. It builds and eliminates the
class-1 fiber complex once per call, counts the singleton classes of the
first period at the grading of their generator (each is one generator with
no differential), and reads the period from its own generators. It never
reads the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, InconsistentComplex
from .homology import GradedDims, graded_homology
from .invariants import SeifertData
from .orbits import EXCEPTIONAL, MAXIMUM, build_complex, conley_zehnder


@dataclass(frozen=True)
class ClosedFormAnswer:
    """The closed-form homology split into its two kinds of summands.

    ``g_block`` holds the fundamental window of exceptional iterates
    (k = 1 .. t_j - 1 per orbifold point); its total dimension is
    sum_j s_j * (t_j - 1). ``surface_block`` is fiber class 1's copy of
    the surface homology; class n is that block shifted down by 2w(n - 1).
    ``combined`` is the full truncated answer: the two blocks repeated every
    2w gradings down to the floor.
    """

    g_block: GradedDims
    surface_block: GradedDims
    combined: GradedDims


def _add(dims: GradedDims, grading: int, amount: int = 1) -> None:
    if amount:
        dims[grading] = dims.get(grading, 0) + amount


def _tile(blocks: list[GradedDims], period: int, grading_floor: int) -> GradedDims:
    """Every dimension of the blocks repeated ``period`` gradings apart, down to the floor.

    Gradings one period apart share a residue mod ``period``. Walking a
    residue class down from its top entry, the tiled dimension is the sum of
    the entries passed so far, so each stretch between two entries is one run
    of equal values, written in one C-level update.
    """
    columns: dict[int, GradedDims] = {}
    for block in blocks:
        for grading, dim in block.items():
            if dim:
                column = columns.setdefault(grading % period, {})
                column[grading] = column.get(grading, 0) + dim
    total: GradedDims = {}
    for column in columns.values():
        tops = sorted(column, reverse=True)
        running = 0
        for top, below in zip(tops, tops[1:] + [grading_floor - 1]):
            running += column[top]
            stop = max(below, grading_floor - 1)
            total.update(dict.fromkeys(range(top, stop, -period), running))
    return total


def exceptional_grading(data: SeifertData, j: int, k: int) -> int:
    _, t_j = data.orbifold_counts[j - 1]
    return -2 * (k * data.d // (data.m * t_j)) - 2


def closed_form_answer(data: SeifertData, grading_floor: int) -> ClosedFormAnswer:
    if grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")

    g_block: GradedDims = {}
    for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
        for k in range(1, t_j):
            _add(g_block, exceptional_grading(data, j, k), s_j)

    w = data.fiber_winding
    surface: GradedDims = {}
    _add(surface, -2 * w, 1)
    _add(surface, -2 * w - 1, 2 * data.genus)
    _add(surface, -2 * w - 2, 1)

    combined = _tile([g_block, surface], 2 * w, grading_floor)
    return ClosedFormAnswer(g_block=g_block, surface_block=surface, combined=combined)


def closed_form_homology(data: SeifertData, grading_floor: int) -> GradedDims:
    """Graded dimensions of the closed-form answer, truncated at the floor."""
    return closed_form_answer(data, grading_floor).combined


def chain_homology(data: SeifertData, grading_floor: int) -> GradedDims:
    """Graded homology from the chain complexes, summed over the classes.

    Builds the class-1 fiber complex once and runs the exact elimination
    on it. Its homology, together with the singleton classes of the first
    period (iterates k = 1 .. t_j - 1, each one generator with no
    differential, adding s_j at the grading of its generator), is the base
    block. The period is the grading drop from the class-1 to the class-2
    maximum orbit; every fiber class and every later exceptional iterate is
    a copy of the base block shifted down by a multiple of it, so the block
    is tiled down to the floor. Nothing outlives the call.

    Raises InconsistentComplex if iterate k + t_j of some orbifold point
    does not sit one period below iterate k.
    """
    if grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")
    period = conley_zehnder(data, MAXIMUM, 1) - conley_zehnder(data, MAXIMUM, 2)
    singletons: GradedDims = {}
    for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
        for k in range(1, t_j):
            cz = conley_zehnder(data, EXCEPTIONAL, k, j)
            shift = cz - conley_zehnder(data, EXCEPTIONAL, k + t_j, j)
            if shift != period:
                raise InconsistentComplex(
                    f"exceptional iterates {k} and {k + t_j} of exponent {j} are {shift} "
                    f"gradings apart, but fiber classes are {period}"
                )
            _add(singletons, cz - 1, s_j)
    fiber = graded_homology(build_complex(data, 1))
    return _tile([fiber, singletons], period, grading_floor)


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    floor: int
    first_mismatch: tuple[int, int, int] | None  # (grading, chain dim, closed-form dim)


def compare_graded(chain: GradedDims, oracle: GradedDims, floor: int) -> ComparisonReport:
    """Grading-by-grading equality on all gradings >= floor.

    The first mismatch (scanning from the top grading downward) is
    reported as (grading, chain dimension, closed-form dimension). Equal
    dicts are equal at every grading, so the scan runs only when they differ.
    """
    if chain == oracle:
        return ComparisonReport(equal=True, floor=floor, first_mismatch=None)
    for grading in range(0, floor - 1, -1):
        a = chain.get(grading, 0)
        b = oracle.get(grading, 0)
        if a != b:
            return ComparisonReport(equal=False, floor=floor, first_mismatch=(grading, a, b))
    return ComparisonReport(equal=True, floor=floor, first_mismatch=None)
