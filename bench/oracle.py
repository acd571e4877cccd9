"""Independent reference for the benchmark's checks.

Nothing here imports ``brieskorn``: the Seifert invariants are derived from
prime valuations of the exponents, the closed-form dimensions by the paper's
enumeration rule, and the laboratory's geometry from hyperbolic trigonometry
on the reported vertices. The benchmark compares every report it gets from
the program against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Tolerances the checks apply; the same values the program declares as its
# defaults, so a report that passes the program's own verdict passes here.
ANGLE_TOL = 1e-10
AREA_TOL = 1e-12
ODE_VS_ANALYTIC_TOL = 1e-6
DETERMINANT_TOL = 1e-9
INVARIANCE_TOL = 1e-8
MATRIX_RELATION_TOL = 1e-9


def _valuations(a: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= a:
        while a % p == 0:
            out[p] = out.get(p, 0) + 1
            a //= p
        p += 1
    if a > 1:
        out[a] = out.get(a, 0) + 1
    return out


def _lcm_of(factored: list[dict[int, int]]) -> int:
    primes = set().union(*factored) if factored else set()
    return math.prod(p ** max(f.get(p, 0) for f in factored) for p in primes)


@dataclass(frozen=True)
class Seifert:
    exponents: tuple[int, ...]
    gap: Fraction
    d: int
    m: int
    w: int
    counts: tuple[tuple[int, int], ...]  # (s_j, t_j)
    genus: int

    @property
    def minima(self) -> int:
        return sum(s for s, _ in self.counts)


def seifert(exponents) -> Seifert:
    """d, m, (s_j, t_j), g and w = d/m, each checked against a property it must have.

    Raises ValueError for a tuple that is not of hyperbolic type.
    """
    a = tuple(int(x) for x in exponents)
    n = len(a)
    if n < 3 or min(a) < 2:
        raise ValueError(f"not an exponent tuple: {a}")
    gap = Fraction(n - 2) - sum(Fraction(1, x) for x in a)
    if gap <= 0:
        raise ValueError(f"{a} is not of hyperbolic type (gap {gap})")
    product = math.prod(a)
    d_frac = product * gap
    if d_frac.denominator != 1:
        raise AssertionError(f"d = prod(a)*gap = {d_frac} is not an integer")
    d = d_frac.numerator

    factored = [_valuations(x) for x in a]
    lcm_all = _lcm_of(factored)
    # gcd_j prod_{i != j} a_i has valuation sum(e) - max(e) at every prime
    m = product // lcm_all
    if d % m:
        raise AssertionError(f"m = {m} does not divide d = {d}")
    counts = []
    for j in range(n):
        lcm_rest = _lcm_of(factored[:j] + factored[j + 1:])
        counts.append((product // a[j] // lcm_rest, lcm_all // lcm_rest))
    # genus from the orbifold Euler characteristic (2 - 2g) - sum s_j (1 - 1/t_j) = -m*gap
    two_g = 2 + m * gap - sum(s * (1 - Fraction(1, t)) for s, t in counts)
    if two_g.denominator != 1 or two_g.numerator % 2 or two_g < 0:
        raise AssertionError(f"orbifold Euler characteristic gives 2g = {two_g}")
    genus = two_g.numerator // 2
    minima = sum(s for s, _ in counts)
    if 2 * genus != 2 + (n - 2) * m - minima:
        raise AssertionError("genus disagrees with the count of orbifold points")
    return Seifert(a, gap, d, m, d // m, tuple(counts), genus)


def closed_form(data: Seifert, floor: int) -> dict[int, int]:
    """Graded dimensions >= floor by the paper's rule.

    Each iterate k with t_j not dividing k adds s_j at grading
    -2*floor(k*d/(m*t_j)) - 2; each fiber class n adds (1, 2g, 1) at
    (-2nw - 2, -2nw - 1, -2nw).
    """
    dims: dict[int, int] = {}

    def add(grading, amount):
        if grading >= floor and amount:
            dims[grading] = dims.get(grading, 0) + amount

    for s, t in data.counts:
        k = 1
        while (grading := -2 * (k * data.d // (data.m * t)) - 2) >= floor:
            if k % t:
                add(grading, s)
            k += 1
    n = 1
    while -2 * n * data.w >= floor:
        top = -2 * n * data.w
        add(top - 2, 1)
        add(top - 1, 2 * data.genus)
        add(top, 1)
        n += 1
    return dims


def seifert_payload_errors(data: Seifert, payload: dict) -> list[str]:
    """Names of the fields of a report's ``seifert`` block that disagree."""
    expected = {
        "d": data.d,
        "m": data.m,
        "fiber_winding": data.w,
        "orbifold_counts": [list(c) for c in data.counts],
        "genus": data.genus,
        "minima_count": data.minima,
    }
    if len(data.exponents) == 3:
        s = Fraction(math.prod(data.exponents), data.d)
        expected["s"] = str(s)
    return sorted(k for k in set(expected) | set(payload) if payload.get(k) != expected.get(k))


def _distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the upper half-plane, via sinh(d/2)."""
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


def interior_angles(vertices: list[complex]) -> list[float]:
    """Angle at each vertex of a convex polygon, by the hyperbolic half-angle formula.

    For the triangle (v_{j-1}, v_j, v_{j+1}) with side a opposite v_j:
    sin^2(A/2) = sinh(s - b) sinh(s - c) / (sinh b sinh c), s the half perimeter.
    """
    n = len(vertices)
    out = []
    for j in range(n):
        prev, here, nxt = vertices[j - 1], vertices[j], vertices[(j + 1) % n]
        a = _distance(prev, nxt)
        b = _distance(here, nxt)
        c = _distance(here, prev)
        s = 0.5 * (a + b + c)
        ratio = math.sinh(s - b) * math.sinh(s - c) / (math.sinh(b) * math.sinh(c))
        out.append(2.0 * math.asin(math.sqrt(min(1.0, max(0.0, ratio)))))
    return out


def rotation_ratio(data: Seifert, j: int, iterate: int) -> Fraction:
    """Period of the iterate of the orbit over vertex j, as a multiple of 2*pi."""
    _, t = data.counts[j - 1]
    return Fraction(iterate * data.d, data.m * t)
