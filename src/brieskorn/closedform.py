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
partner. Both sides below hand over their answer as one period, a
``PeriodicDims``: the merged base block, the period and the grading floor.
Their cost does not depend on the floor.

``chain_homology`` computes the same dimensions from the chain side, so
the two can be compared grading by grading. It builds and eliminates the
class-1 fiber complex once per call, counts the singleton classes of the
first period at the grading of their generator (each is one generator with
no differential), and reads the period from its own generators. It never
reads the closed form.

``compare_graded`` is exact on periodic answers at the cost of a few
periods. At and below the lowest block entry L each side repeats with its
own period, so it tiles both sides only down to L - lcm + 1, lcm the least
common multiple of the two periods, and scans only that window; its verdict
and first mismatch are those of a scan down to the floor. The only O(floor) work of a
``compare`` is then ``PeriodicDims.tiled``, run once for the chain side's
report and, on a mismatch only, once for the oracle's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConfigError, InconsistentComplex
from .homology import GradedDims, graded_homology
from .invariants import SeifertData
from .orbits import EXCEPTIONAL, MAXIMUM, build_complex, conley_zehnder


@dataclass(frozen=True)
class PeriodicDims:
    """Graded dimensions truncated at ``floor`` that repeat every ``period`` gradings.

    The dimension at a grading g >= floor is the sum of the ``block``
    entries at g, g + period, g + 2*period, ...: every entry repeats
    ``period`` gradings apart below itself. Block entries sit at gradings <= 0.
    """

    block: GradedDims
    period: int
    floor: int

    def tiled(self) -> GradedDims:
        """Every non-zero dimension at a grading >= the floor, by descending grading."""
        return _tile(self.block, self.period, self.floor)


@dataclass(frozen=True)
class ClosedFormAnswer:
    """The closed-form homology split into its two kinds of summands.

    ``g_block`` holds the fundamental window of exceptional iterates
    (k = 1 .. t_j - 1 per orbifold point); its total dimension is
    sum_j s_j * (t_j - 1). ``surface_block`` is fiber class 1's copy of
    the surface homology; class n is that block shifted down by 2w(n - 1).
    ``combined`` is the full truncated answer: the two blocks merged into one,
    repeated every 2w gradings down to the floor.
    """

    g_block: GradedDims
    surface_block: GradedDims
    combined: PeriodicDims


def _add(dims: GradedDims, grading: int, amount: int = 1) -> None:
    if amount:
        dims[grading] = dims.get(grading, 0) + amount


def _tile(block: GradedDims, period: int, floor: int) -> GradedDims:
    """Every non-zero dimension of the block repeated ``period`` gradings apart,
    down to the floor, by descending grading.

    Walking down from the top entry, the dimension at g is the block's entry at
    g plus the dimension at g + period; this runs one grading at a time down to
    the lowest entry L and one period below it. Below L nothing is added, so the
    gradings L - period + 1 .. L repeat all the way down: every later copy of
    them is written in one C-level update.
    """
    entries = [grading for grading, dim in block.items() if dim]
    if not entries:
        return {}
    low = min(entries)
    dims: GradedDims = {}
    for grading in range(max(entries), max(low - period, floor - 1), -1):
        dim = block.get(grading, 0) + dims.get(grading + period, 0)
        if dim:
            dims[grading] = dim
    if floor <= low - period:
        last = [(grading, dim) for grading, dim in dims.items() if low - period < grading <= low]
        copies = (last[-1][0] - floor) // period  # the whole copies above the floor
        columns = (range(g - period, g - (copies + 1) * period, -period) for g, _ in last)
        gradings = itertools.chain.from_iterable(zip(*columns))
        dims.update(zip(gradings, [dim for _, dim in last] * copies))
        shift = (copies + 1) * period
        dims.update((g - shift, dim) for g, dim in last if g - shift >= floor)
    return dims


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

    block = dict(g_block)
    for grading, dim in surface.items():
        _add(block, grading, dim)
    combined = PeriodicDims(block, 2 * w, grading_floor)
    return ClosedFormAnswer(g_block=g_block, surface_block=surface, combined=combined)


def closed_form_homology(data: SeifertData, grading_floor: int) -> PeriodicDims:
    """The closed-form answer truncated at the floor, as one period."""
    return closed_form_answer(data, grading_floor).combined


def chain_homology(data: SeifertData, grading_floor: int) -> PeriodicDims:
    """Graded homology from the chain complexes, summed over the classes.

    Builds the class-1 fiber complex once and runs the exact elimination
    on it. Its homology, together with the singleton classes of the first
    period (iterates k = 1 .. t_j - 1, each one generator with no
    differential, adding s_j at the grading of its generator), is the base
    block. The period is the grading drop from the class-1 to the class-2
    maximum orbit; every fiber class and every later exceptional iterate is
    a copy of the base block shifted down by a multiple of it, so the block
    and the period are the whole answer down to the floor. Nothing outlives
    the call.

    Raises InconsistentComplex if iterate k + t_j of some orbifold point
    does not sit one period below iterate k.
    """
    if grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")
    period = conley_zehnder(data, MAXIMUM, 1) - conley_zehnder(data, MAXIMUM, 2)
    block = graded_homology(build_complex(data, 1))
    for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
        for k in range(1, t_j):
            cz = conley_zehnder(data, EXCEPTIONAL, k, j)
            shift = cz - conley_zehnder(data, EXCEPTIONAL, k + t_j, j)
            if shift != period:
                raise InconsistentComplex(
                    f"exceptional iterates {k} and {k + t_j} of exponent {j} are {shift} "
                    f"gradings apart, but fiber classes are {period}"
                )
            _add(block, cz - 1, s_j)
    return PeriodicDims(block, period, grading_floor)


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    floor: int
    first_mismatch: tuple[int, int, int] | None  # (grading, chain dim, closed-form dim)


def compare_graded(chain: PeriodicDims, oracle: PeriodicDims) -> ComparisonReport:
    """Grading-by-grading equality from grading 0 down to the higher floor.

    The first mismatch (scanning from the top grading downward) is
    reported as (grading, chain dimension, closed-form dimension). Equal
    answers are equal at every grading, so the scan runs only when they
    differ. At and below the lowest block entry L of either side, each side
    repeats with its period, so their difference repeats with the lcm of
    the two periods; where it vanishes on that many gradings down from L,
    it vanishes at every grading below. The scan stops there, or at the
    floor if that is higher, and finds what a scan down to the floor finds.
    """
    floor = max(chain.floor, oracle.floor)
    if chain == oracle:
        return ComparisonReport(equal=True, floor=floor, first_mismatch=None)
    low = min((g for side in (chain, oracle) for g, dim in side.block.items() if dim), default=0)
    window = max(floor, low - math.lcm(chain.period, oracle.period) + 1)
    ours, theirs = (_tile(side.block, side.period, window) for side in (chain, oracle))
    for grading in range(0, window - 1, -1):
        a = ours.get(grading, 0)
        b = theirs.get(grading, 0)
        if a != b:
            return ComparisonReport(equal=False, floor=floor, first_mismatch=(grading, a, b))
    return ComparisonReport(equal=True, floor=floor, first_mismatch=None)
