"""Exponent validation and Seifert fibration invariants.

Everything in this module is exact: every invariant is computed on
arbitrary precision integers, and no floating point enters any of them.
The hyperbolic gap is carried as an integer numerator over lcm(a_1, ...,
a_n), so the hyperbolicity test and d each cost one lcm and n floor
divisions. A ``fractions.Fraction`` is made only for ``SeifertData.s``
(n = 3), for the ``BrieskornParams.hyperbolic_gap`` property, and for an
error message.

A tuple of exponents (a_1, ..., a_n), each a_j >= 2 with n >= 3, is of
hyperbolic type when sum(1/a_j) < n - 2. For such a tuple the associated
3-manifold is Seifert fibered over a closed orientable surface of genus g
with finitely many exceptional fibers, and the integers computed here
(d, m, the orbifold point counts s_j with multiplicities t_j, and g)
determine the whole graded orbit inventory downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstructionFailure, InvalidExponent, NotHyperbolic


@dataclass(frozen=True)
class BrieskornParams:
    """Validated exponent tuple, in the order given by the caller."""

    exponents: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def gap_over_lcm(self) -> tuple[int, int]:
        """The pair (N, L) with (n - 2) - sum(1/a_j) = N / L, not reduced.

        L = lcm(a_1, ..., a_n), so N is an integer; its sign is the sign of
        the gap.
        """
        lcm = math.lcm(*self.exponents)
        return (self.n - 2) * lcm - sum(lcm // a for a in self.exponents), lcm

    @property
    def hyperbolic_gap(self) -> Fraction:
        """(n - 2) - sum(1/a_j); positive exactly for hyperbolic type."""
        return Fraction(*self.gap_over_lcm)


@dataclass(frozen=True)
class SeifertData:
    """Integer invariants of the Seifert fibration and group extension.

    d              index of the fundamental group in the lifted polygon group;
                   a regular fiber is a vertical segment of length 2*pi*d/m.
    m              index of the commutator subgroup in the polygon rotation
                   group; the base surface is glued from m doubled polygons.
    fiber_winding  d/m, the number of full 2*pi rotations the invariant frame
                   makes along one regular fiber (always an exact integer).
    s              only for n = 3: the rational with 1/s = 1 - 1/p - 1/q - 1/r.
    orbifold_counts  per input index j, the pair (s_j, t_j): s_j orbifold
                   points of multiplicity t_j on the base. t_j = 1 means the
                   fibers over those points are regular.
    genus          genus g of the base surface.
    minima_count   M = sum of the s_j, one perturbation minimum per orbifold
                   point.
    """

    params: BrieskornParams
    d: int
    m: int
    fiber_winding: int
    s: Fraction | None
    orbifold_counts: tuple[tuple[int, int], ...]
    genus: int
    minima_count: int


def validate_params(raw: Sequence[int]) -> BrieskornParams:
    """Validate an exponent list, returning it unchanged on success.

    Raises InvalidExponent if n < 3 or some a_j < 2, and NotHyperbolic
    (with the exact rational gap attached) if sum(1/a_j) >= n - 2.
    """
    exponents = tuple(int(a) for a in raw)
    if len(exponents) < 3:
        raise InvalidExponent(f"need at least 3 exponents, got {len(exponents)}")
    for a in exponents:
        if a < 2:
            raise InvalidExponent(f"every exponent must be >= 2, got {a}")
    params = BrieskornParams(exponents)
    if params.gap_over_lcm[0] <= 0:
        gap = params.hyperbolic_gap
        raise NotHyperbolic(
            f"exponents {exponents} are not of hyperbolic type: "
            f"(n-2) - sum(1/a_j) = {gap}",
            gap,
        )
    return params


def seifert_data(params: BrieskornParams) -> SeifertData:
    """Compute all fibration invariants of a validated exponent tuple."""
    a = params.exponents
    n = len(a)
    product = math.prod(a)
    numerator, lcm_all = params.gap_over_lcm

    # d = (prod a_j) * ((n-2) - sum 1/a_j), an integer since each term
    # of the reciprocal sum clears the product.
    d, rem = divmod(product * numerator, lcm_all)
    if rem:
        raise ConstructionFailure(
            f"d = {Fraction(product * numerator, lcm_all)} is not an integer")

    partial_products = []
    partial_lcms = []
    for j in range(n):
        rest = a[:j] + a[j + 1 :]
        partial_products.append(math.prod(rest))
        partial_lcms.append(math.lcm(*rest))
    m = math.gcd(*partial_products)

    if d % m:
        raise ConstructionFailure(f"m = {m} does not divide d = {d}")
    fiber_winding = d // m

    counts = []
    for j in range(n):
        s_j, rem_s = divmod(partial_products[j], partial_lcms[j])
        t_j, rem_t = divmod(lcm_all, partial_lcms[j])
        if rem_s or rem_t:
            raise ConstructionFailure(
                f"the lcm {partial_lcms[j]} of the exponents other than a_{j + 1} must divide "
                f"their product {partial_products[j]} and the lcm {lcm_all} of all"
            )
        counts.append((s_j, t_j))

    minima = sum(s_j for s_j, _ in counts)
    genus_numerator = 2 + (n - 2) * (product // lcm_all) - minima
    if genus_numerator % 2 or genus_numerator < 0:
        raise ConstructionFailure(
            f"2g = {genus_numerator} is not a nonnegative even integer "
            f"(n = {n}, product {product}, lcm {lcm_all}, {minima} minima)"
        )
    genus = genus_numerator // 2

    s = Fraction(product, d) if n == 3 else None

    return SeifertData(
        params=params,
        d=d,
        m=m,
        fiber_winding=fiber_winding,
        s=s,
        orbifold_counts=tuple(counts),
        genus=genus,
        minima_count=minima,
    )
