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

from .errors import ConfigError
from .homology import RationalMatrix
from .invariants import SeifertData

EXCEPTIONAL = "exceptional"
SADDLE = "saddle"
MAXIMUM = "maximum"


@dataclass(frozen=True)
class OrbitGenerator:
    """A single good Reeb orbit generator.

    ``kind`` is one of "exceptional", "saddle", "maximum". Exceptional
    orbits carry the exponent index j (1-based) and the point index i
    within the s_j orbifold points of that multiplicity; saddles carry
    their saddle index. ``action`` is the period as an exact multiple of
    2*pi. ``fiber_class`` is set exactly when the orbit is freely
    homotopic to that multiple of a regular fiber.
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


@dataclass(frozen=True)
class OrbitType:
    flavor: str  # "elliptic" or "positive_hyperbolic"
    good: bool


def orbit_type(gen: OrbitGenerator) -> OrbitType:
    """Elliptic iff CZ is odd; every orbit in this family is good.

    Bad orbits would require an even iterate of a negative hyperbolic
    orbit, and no negative hyperbolic orbits occur here.
    """
    flavor = "elliptic" if gen.cz % 2 else "positive_hyperbolic"
    return OrbitType(flavor=flavor, good=True)


def fredholm_index(data: SeifertData, gen_plus: OrbitGenerator, gen_minus: OrbitGenerator) -> int:
    """Expected cylinder dimension: the CZ difference.

    The relative Chern term vanishes because the trivialization is global.
    """
    return gen_plus.cz - gen_minus.cz


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


@dataclass(frozen=True)
class MorseModel:
    """Critical point data of the perturbing function on the base surface.

    The minima sit at the orbifold points, ordered lexicographically by
    (j, i). The M-1 tree saddles connect consecutive minima, the 2g handle
    saddles have zero incidence, and there is a single maximum; the model's
    Morse homology is therefore (1, 2g, 1) in degrees (0, 1, 2).
    """

    minima: tuple[tuple[int, int, int], ...]  # (j, i, t_j)
    tree_saddles: tuple[tuple[int, int], ...]  # (minimum index, minimum index + 1)
    handle_saddles: int
    genus: int

    @property
    def saddle_total(self) -> int:
        return len(self.tree_saddles) + self.handle_saddles

    def boundary_matrix(self) -> RationalMatrix:
        """Incidence matrix from saddles to minima (entries in {-1, 0, 1})."""
        rows = len(self.minima)
        mat = RationalMatrix(rows, self.saddle_total)
        for col, (lo, hi) in enumerate(self.tree_saddles):
            mat[lo, col] = Fraction(1)
            mat[hi, col] = Fraction(-1)
        return mat


def build_morse_model(data: SeifertData) -> MorseModel:
    minima = tuple(orbifold_points(data))
    tree = tuple((i, i + 1) for i in range(len(minima) - 1))
    return MorseModel(
        minima=minima,
        tree_saddles=tree,
        handle_saddles=2 * data.genus,
        genus=data.genus,
    )


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

    For the fiber class n, the generators are the minima orbits at the
    iterate n*t_j (grading -2nw - 2 where w = d/m), the saddle orbits
    (grading -2nw - 1), and the maximum orbit (grading -2nw). Each tree
    saddle maps to the difference of its two adjacent minima orbits; handle
    saddles and the maximum map to zero.
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
    model = build_morse_model(data)
    base = -2 * n * data.fiber_winding

    minima_orbits = [
        exceptional_orbit(data, j, i, n * t_j) for (j, i, t_j) in model.minima
    ]
    saddle_orbits = [
        saddle_orbit(data, ell, n) for ell in range(1, model.saddle_total + 1)
    ]
    max_orbit = maximum_orbit(data, n)
    assert all(g.grading == base - 2 for g in minima_orbits)
    assert all(g.grading == base - 1 for g in saddle_orbits)
    assert max_orbit.grading == base

    generators = {
        base - 2: minima_orbits,
        base - 1: saddle_orbits,
        base: [max_orbit],
    }
    differential = {
        base - 2: RationalMatrix(0, len(minima_orbits)),
        base - 1: model.boundary_matrix(),
        base: RationalMatrix(len(saddle_orbits), 1),
    }
    return GradedComplex(
        class_label=f"fiber:{n}",
        generators_by_grading=generators,
        differential=differential,
    )
