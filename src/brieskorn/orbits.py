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
singleton class containing one exceptional iterate.
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


@dataclass
class GradedComplex:
    """Generators bucketed by grading plus the differential per grading step.

    ``differential[k]`` maps the grading-k chain group to grading k-1; its
    shape is (len at k-1) x (len at k) and every entry lies in {-1, 0, +1}.
    """

    class_label: str
    generators_by_grading: dict[int, list[OrbitGenerator]]
    differential: dict[int, RationalMatrix]


def build_complex(data: SeifertData, cls) -> GradedComplex:
    """Chain complex of one free homotopy class.

    ``cls`` is either a positive integer n (the class of the n-th multiple
    of a regular fiber) or a tuple (j, i, k) naming a single exceptional
    iterate with t_j not dividing k, whose class contains no other
    generator and whose differential vanishes.

    For the fiber class n, the generators are the M minima orbits at the
    iterate n*t_j, one per orbifold point ordered by (j, i) (grading
    -2nw - 2 where w = d/m), the M - 1 + 2g saddle orbits (grading
    -2nw - 1), and the maximum orbit (grading -2nw). The tree saddle c
    maps to minimum c minus minimum c + 1, for c < M - 1; the 2g handle
    saddles and the maximum map to zero, so the homology is the surface
    homology (1, 2g, 1). Raises InconsistentComplex when a Conley-Zehnder
    index puts some generator off the grading stated here.
    """
    if isinstance(cls, tuple):
        j, i, k = cls
        _, t_j = data.orbifold_counts[j - 1]
        if k % t_j == 0:
            raise ValueError(f"iterate {k} of a multiplicity-{t_j} point is a fiber class")
        gen = exceptional_orbit(data, j, i, k)
        return GradedComplex(
            class_label=f"orbit:{gen.label}",
            generators_by_grading={gen.grading: [gen]},
            differential={gen.grading: RationalMatrix(0, 1)},
        )

    n = int(cls)
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

    # each chain group is one map of tuple.__new__ over zipped columns: a
    # repeat() per field the group shares and a range() for the one that
    # counts. No Python frame runs per generator, and _make's length check
    # is left out because every zip has the nine columns of the fields.
    minima_orbits = []
    for j, (s_j, t_j) in enumerate(data.orbifold_counts, start=1):
        cz = graded_cz(EXCEPTIONAL, base - 2, n * t_j, j)
        minima_orbits += map(tuple.__new__, repeat(OrbitGenerator), zip(
            repeat(EXCEPTIONAL), repeat(n * t_j), repeat(cz), repeat(base - 2),
            repeat(action), repeat(n), repeat(j), range(1, s_j + 1), repeat(None),
        ))
    cz = graded_cz(SADDLE, base - 1, n)
    saddle_orbits = list(map(tuple.__new__, repeat(OrbitGenerator), zip(
        repeat(SADDLE), repeat(n), repeat(cz), repeat(base - 1), repeat(action),
        repeat(n), repeat(None), repeat(None), range(1, saddle_count(data) + 1),
    )))
    max_orbit = OrbitGenerator(MAXIMUM, n, graded_cz(MAXIMUM, base, n), base, action, n)

    M = len(minima_orbits)
    boundary = RationalMatrix(M, len(saddle_orbits))
    rows = boundary.sparse_rows
    for col in range(M - 1):
        rows[col][col] = 1
        rows[col + 1][col] = -1

    generators = {
        base - 2: minima_orbits,
        base - 1: saddle_orbits,
        base: [max_orbit],
    }
    differential = {
        base - 2: RationalMatrix(0, M),
        base - 1: boundary,
        base: RationalMatrix(len(saddle_orbits), 1),
    }
    return GradedComplex(
        class_label=f"fiber:{n}",
        generators_by_grading=generators,
        differential=differential,
    )
