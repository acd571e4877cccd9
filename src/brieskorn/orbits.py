"""Reeb orbit generators, gradings, and the graded chain complexes.

Orbit inventory for a hyperbolic-type exponent tuple, after the standard
small perturbation of the invariant contact form:

* one elliptic orbit over each orbifold point of the base, whose k-th
  iterate has Conley-Zehnder index -2*floor(k*d/(m*t_j)) - 1;
* positive hyperbolic orbits over the saddle points of the perturbing
  function, with CZ(n-th iterate) = -2*n*d/m;
* one elliptic orbit over the maximum, with CZ = -2*n*d/m + 1.

The grading of a generator is CZ - 1, and its period is the stated exact
rational multiple of 2*pi. Differentials only connect generators in the
same free homotopy class: the n-th multiple of a regular fiber, or a
singleton class containing one exceptional iterate. A singleton class is
one generator with no differential, so ``build_complex`` builds fiber
classes only, and the chain side counts each singleton at its grading.

A fiber class's minima and saddles are each a ``ChainGroup``: counted runs
of generators that differ in one counting field. Its size is known without
making a generator, which is all that homology reads, and the generators
are made only when the group is iterated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .errors import ConfigError, InconsistentComplex
from .homology import RationalMatrix
from .invariants import SeifertData

EXCEPTIONAL = "exceptional"
SADDLE = "saddle"
MAXIMUM = "maximum"


class OrbitGenerator(NamedTuple):
    """A single good Reeb orbit generator, as a named tuple of nine fields.

    ``kind`` is one of "exceptional", "saddle", "maximum". Exceptional
    orbits carry the exponent index j (1-based) and the point index i
    within the s_j orbifold points of that multiplicity; saddles carry
    their saddle index. ``action`` is the period as an exact multiple of
    2*pi. ``fiber_class`` is set exactly when the orbit is freely
    homotopic to that multiple of a regular fiber.

    Being a tuple, a generator is immutable and hashable, unpacks and
    iterates as its fields in the order below, and compares equal to a
    plain tuple of them. ``_replace`` and ``_asdict`` stand in for the
    dataclass helpers.
    """

    kind: str
    iterate: int
    cz: int
    grading: int
    action: Fraction
    fiber_class: int | None
    j: int | None = None
    point: int | None = None
    saddle: int | None = None

    @property
    def label(self) -> str:
        if self.kind == EXCEPTIONAL:
            return f"v{self.j}.{self.point}^{self.iterate}"
        if self.kind == SADDLE:
            return f"x{self.saddle}^{self.iterate}"
        return f"y^{self.iterate}"


def conley_zehnder(data: SeifertData, kind: str, iterate: int, j: int | None = None) -> int:
    """Exact Conley-Zehnder index of an orbit descriptor.

    The rotation count is floored by exact integer division, so the result
    is bit-exact for any iterate.
    """
    if iterate < 1:
        raise ValueError("iterate must be >= 1")
    if kind == EXCEPTIONAL:
        if j is None:
            raise ValueError("exceptional orbits need the exponent index j")
        _, t_j = data.orbifold_counts[j - 1]
        return -2 * (iterate * data.d // (data.m * t_j)) - 1
    if kind == SADDLE:
        return -2 * iterate * data.fiber_winding
    if kind == MAXIMUM:
        return -2 * iterate * data.fiber_winding + 1
    raise ValueError(f"unknown orbit kind {kind!r}")


def exceptional_orbit(data: SeifertData, j: int, point: int, iterate: int) -> OrbitGenerator:
    s_j, t_j = data.orbifold_counts[j - 1]
    if not 1 <= point <= s_j:
        raise ValueError(f"point index {point} out of range for s_{j} = {s_j}")
    cz = conley_zehnder(data, EXCEPTIONAL, iterate, j)
    fiber = iterate // t_j if iterate % t_j == 0 else None
    return OrbitGenerator(
        kind=EXCEPTIONAL,
        iterate=iterate,
        cz=cz,
        grading=cz - 1,
        action=Fraction(iterate * data.d, data.m * t_j),
        fiber_class=fiber,
        j=j,
        point=point,
    )


def saddle_orbit(data: SeifertData, saddle: int, iterate: int) -> OrbitGenerator:
    cz = conley_zehnder(data, SADDLE, iterate)
    return OrbitGenerator(
        kind=SADDLE,
        iterate=iterate,
        cz=cz,
        grading=cz - 1,
        action=Fraction(iterate * data.d, data.m),
        fiber_class=iterate,
        saddle=saddle,
    )


def maximum_orbit(data: SeifertData, iterate: int) -> OrbitGenerator:
    cz = conley_zehnder(data, MAXIMUM, iterate)
    return OrbitGenerator(
        kind=MAXIMUM,
        iterate=iterate,
        cz=cz,
        grading=cz - 1,
        action=Fraction(iterate * data.d, data.m),
        fiber_class=iterate,
    )


def saddle_count(data: SeifertData) -> int:
    return data.minima_count - 1 + 2 * data.genus


def orbifold_points(data: SeifertData) -> list[tuple[int, int, int]]:
    """All orbifold points as (j, i, t_j), ordered lexicographically by (j, i)."""
    out = []
    for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
        for i in range(1, s_j + 1):
            out.append((j, i, t_j))
    return out


def enumerate_generators(
    data: SeifertData,
    *,
    grading_floor: int | None = None,
    action_bound: Fraction | int | None = None,
) -> list[OrbitGenerator]:
    """All generators passing exactly one of the two filters.

    ``grading_floor`` keeps generators of grading >= the floor;
    ``action_bound`` keeps generators of period <= bound * 2*pi, ties
    included. Output order: exceptional orbits by (j, i, k), then saddles
    by (n, saddle index), then maxima by n.
    """
    if (grading_floor is None) == (action_bound is None):
        raise ConfigError("exactly one of grading_floor and action_bound is required")
    if grading_floor is not None and grading_floor > -2:
        raise ConfigError("grading_floor must be <= -2")
    if action_bound is not None:
        action_bound = Fraction(action_bound)
        if action_bound <= 0:
            raise ConfigError("action_bound must be positive")

    out: list[OrbitGenerator] = []

    for j, i, t_j in orbifold_points(data):
        if action_bound is not None:
            # k * d / (m * t_j) <= bound
            k_max = math.floor(action_bound * data.m * t_j / data.d)
            for k in range(1, k_max + 1):
                out.append(exceptional_orbit(data, j, i, k))
        else:
            k = 1
            while True:
                gen = exceptional_orbit(data, j, i, k)
                if gen.grading < grading_floor:
                    break
                out.append(gen)
                k += 1

    w = data.fiber_winding
    if action_bound is not None:
        n_max_saddle = math.floor(action_bound * data.m / data.d)
        n_max_maximum = n_max_saddle
    else:
        # saddle grading -2nw - 1, maximum grading -2nw
        n_max_saddle = max(0, math.floor(Fraction(-grading_floor - 1, 2 * w)))
        n_max_maximum = max(0, math.floor(Fraction(-grading_floor, 2 * w)))

    for n in range(1, n_max_saddle + 1):
        for ell in range(1, saddle_count(data) + 1):
            out.append(saddle_orbit(data, ell, n))
    for n in range(1, n_max_maximum + 1):
        out.append(maximum_orbit(data, n))
    return out


class ChainGroup:
    """The generators of one grading of a fiber class, as counted runs.

    A run is (fields, counter, count): every generator of the run has the
    nine ``fields`` but the one named ``counter``, which runs over
    1 .. count. ``len`` is the sum of the counts, and iterating makes the
    generators run by run, each run one map of tuple.__new__ over zipped
    columns: a repeat() per shared field and a range() for the counter. No
    Python frame runs per generator, and _make's length check is left out
    because every zip has the nine columns of the fields.
    """

    __slots__ = ("runs", "size")

    def __init__(self, runs: list[tuple[tuple, str, int]]):
        self.runs = runs
        self.size = sum(count for _, _, count in runs)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for fields, counter, count in self.runs:
            columns = [repeat(x) for x in fields]
            columns[OrbitGenerator._fields.index(counter)] = range(1, count + 1)
            yield from map(tuple.__new__, repeat(OrbitGenerator), zip(*columns))


@dataclass
class GradedComplex:
    """Generators bucketed by grading plus the differential per grading step.

    Each group of ``generators_by_grading`` is sized and iterable, and is
    made when iterated: a fiber class holds a ``ChainGroup`` for its minima
    and its saddles and a one-generator list for its maximum.
    ``differential[k]`` maps the grading-k chain group to grading k-1; its
    shape is (len at k-1) x (len at k) and every entry lies in {-1, 0, +1}.
    """

    class_label: str
    generators_by_grading: dict[int, ChainGroup | list[OrbitGenerator]]
    differential: dict[int, RationalMatrix]


def build_complex(data: SeifertData, n: int) -> GradedComplex:
    """Chain complex of the fiber class n, the class of the n-th multiple of
    a regular fiber.

    The generators are the M minima orbits at the iterate n*t_j, one per
    orbifold point ordered by (j, i) (grading -2nw - 2 where w = d/m), the
    M - 1 + 2g saddle orbits (grading -2nw - 1), and the maximum orbit
    (grading -2nw). The boundary is written one saddle at a time, as a
    column: the tree saddle c maps to minimum c minus minimum c + 1, the
    column {c: 1, c + 1: -1}, for c < M - 1; the 2g handle saddles and the
    maximum map to zero, so the homology is the surface homology
    (1, 2g, 1). Only the M - 1 tree columns are allocated: the handle
    columns and both zero differentials share ``RationalMatrix.zero``'s
    read-only empty mapping. The minima are one run per exponent j,
    counting the point i, and the saddles one run counting the saddle
    index: both groups are sized without making a generator, and each
    Conley-Zehnder index is computed once per run. Raises
    InconsistentComplex when a Conley-Zehnder index puts some generator off
    the grading stated here.
    """
    if n < 1:
        raise ValueError("fiber class must be a positive integer")
    base = -2 * n * data.fiber_winding
    # the minima orbit n*t_j over a point of multiplicity t_j has the same
    # period as the n-th saddle and maximum iterates: n*d/m times 2*pi
    action = Fraction(n * data.d, data.m)

    def graded_cz(kind: str, expected: int, iterate: int, j: int | None = None) -> int:
        cz = conley_zehnder(data, kind, iterate, j)
        if cz - 1 != expected:
            where = f"{kind} orbit {iterate}" + ("" if j is None else f" of exponent {j}")
            raise InconsistentComplex(
                f"{where} has grading {cz - 1} in fiber class {n}, expected {expected}"
            )
        return cz

    minima = ChainGroup([
        ((EXCEPTIONAL, n * t_j, graded_cz(EXCEPTIONAL, base - 2, n * t_j, j), base - 2,
          action, n, j, None, None), "point", s_j)
        for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1)
    ])
    saddles = ChainGroup([
        ((SADDLE, n, graded_cz(SADDLE, base - 1, n), base - 1, action, n, None, None, None),
         "saddle", saddle_count(data)),
    ])
    max_orbit = OrbitGenerator(MAXIMUM, n, graded_cz(MAXIMUM, base, n), base, action, n)

    M = len(minima)
    # the handle columns stay the zero matrix's shared empty mapping
    boundary = RationalMatrix.zero(M, len(saddles))
    columns = boundary.sparse_columns
    for c in range(M - 1):
        columns[c] = {c: 1, c + 1: -1}

    generators = {
        base - 2: minima,
        base - 1: saddles,
        base: [max_orbit],
    }
    differential = {
        base - 2: RationalMatrix.zero(0, M),
        base - 1: boundary,
        base: RationalMatrix.zero(len(saddles), 1),
    }
    return GradedComplex(
        class_label=f"fiber:{n}",
        generators_by_grading=generators,
        differential=differential,
    )
