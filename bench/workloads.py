"""Seeded inputs of the benchmark's workloads.

Inputs come from ``--seed`` by the rules below and never from the program:
tuples are drawn from a family, their invariants come from ``oracle``, and
each operation's cost is predicted by a fixed model of the work the program
does for it. A round holds one operation per cost band, so two seeds give
different tuples with the same spread of costs, and the medians and tails of
two runs compare like with like.

Run ``python3 bench/workloads.py --workload exact-wide --seed 1`` to print
the operations a seed gives.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
from dataclasses import dataclass

import oracle

WORKLOADS = ("exact-wide", "exact-deep", "lab")

# Predicted costs are in microseconds, from models fitted to timings here.
# They only place operations in cost bands; their errors, 10-30% per
# operation, are what two seeds' rounds differ by, and they average out over
# the slots of a round.

# exact-wide: many orbifold points, shallow floors; cost is dense Fraction
# elimination of the M x S boundary matrix of every fiber class.
WIDE_SLOTS = 34
WIDE_MINIMA = (50, 250)
WIDE_FLOORS = (-20, -6)
WIDE_WORK = (30_000, 600_000)
WIDE_SMALL_WINDING = 10  # every fourth slot: w <= this, so classes repeat in the window

# exact-deep: few orbifold points, small winding, deep floors; cost is
# building many small classes and reporting thousands of gradings.
DEEP_SLOTS = 48
DEEP_MINIMA = (3, 10)
DEEP_MAX_WINDING = 4
DEEP_FLOORS = (-4000, -500)
DEEP_WORK = (30_000, 450_000)

# lab: a fixed draw from the tests' fuzz family (n = 3..5, a_j = 2..9) plus
# two fixed cases. The draw does not depend on --seed: two faults fail most
# of these tuples, and the share of failed operations must not change with
# the seed. --seed sets the order of the operations in a round.
LAB_DRAW_SEED = 20250808
LAB_DRAW = 30
LAB_FIXED = ((2, 3, 5, 7), (50, 60, 70))


@dataclass(frozen=True)
class Op:
    """One operation: the CLI argument lists it runs, in order."""

    exponents: tuple[int, ...]
    floor: int | None
    work: float  # predicted cost in microseconds; 0 for lab, which has no cost model
    argvs: tuple[tuple[str, ...], ...]

    @property
    def label(self) -> str:
        return " | ".join(" ".join(argv) for argv in self.argvs)


def _csv(exponents) -> str:
    return ",".join(str(a) for a in exponents)


def _compare(data: oracle.Seifert, floor: int, work: float) -> Op:
    argv = ("compare", "--exponents", _csv(data.exponents), "--grading-floor", str(floor))
    return Op(data.exponents, floor, work, (argv,))


def fiber_classes(data: oracle.Seifert, floor: int) -> int:
    """Fiber classes the program builds for a floor (ceil(-floor*m/(2d)) + 1)."""
    return -(floor * data.m // (2 * data.d)) + 1


def singleton_classes(data: oracle.Seifert, floor: int) -> int:
    total = 0
    for s, t in data.counts:
        if t == 1:
            continue
        # iterates k with -2*floor(k*d/(m*t)) - 2 >= floor, less multiples of t
        k_max = ((-floor - 2) // 2 + 1) * data.m * t // data.d
        while -2 * (k_max * data.d // (data.m * t)) - 2 < floor:
            k_max -= 1
        total += s * (k_max - k_max // t)
    return total


def _saddles(data: oracle.Seifert) -> int:
    return data.minima - 1 + 2 * data.genus


def wide_work(data: oracle.Seifert, floor: int) -> float:
    m, s = data.minima, _saddles(data)
    # rank: one row update of S - col Fractions per tree column; multiply and
    # pivot search: one comparison per entry
    updates = (m - 1) * s - (m - 1) * (m - 2) // 2
    return fiber_classes(data, floor) * (3.8 * updates + 0.26 * (m * s + m * m) + 220)


def deep_work(data: oracle.Seifert, floor: int) -> float:
    fib = fiber_classes(data, floor)
    # generators of every fiber class and singleton classes; fitted by least
    # squares of the relative error to 340 timed operations (log sd 0.06)
    return fib * (13 * data.minima + 34 * _saddles(data)) + 14.5 * singleton_classes(data, floor)


def _bands(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    step = (hi / lo) ** (1.0 / count)
    return [(lo * step**i, lo * step ** (i + 1)) for i in range(count)]


def _log_distance(work: float, band: tuple[float, float]) -> float:
    return abs(math.log(work) - 0.5 * math.log(band[0] * band[1]))


def _minima(exponents: tuple[int, ...]) -> int:
    """Orbifold point count by the closed formula; a cheap filter before ``oracle``."""
    rests = (exponents[:j] + exponents[j + 1:] for j in range(len(exponents)))
    return sum(math.prod(rest) // math.lcm(*rest) for rest in rests)


def _wide(exponents: tuple[int, ...]) -> oracle.Seifert | None:
    if not WIDE_MINIMA[0] <= _minima(exponents) <= WIDE_MINIMA[1]:
        return None
    try:
        return oracle.seifert(exponents)
    except ValueError:
        return None


def small_winding_pool() -> list[oracle.Seifert]:
    """Wide tuples with w <= WIDE_SMALL_WINDING: exponents dividing one small multiple."""
    seen = set()
    for multiple in range(4, 13):
        divisors = [a for a in range(2, multiple + 1) if multiple % a == 0]
        for n in range(4, 8):
            seen.update(itertools.combinations_with_replacement(divisors, n))
    pool = [_wide(exponents) for exponents in sorted(seen)]
    return [d for d in pool if d is not None and d.w <= WIDE_SMALL_WINDING]


def _pick(rng: random.Random, pool, floors, band, work) -> Op:
    """A tuple of the pool and a floor whose predicted cost lies in the band,
    else the nearest pair seen."""
    best = None
    for floor in floors:
        fits = [d for d in pool if band[0] <= work(d, floor) < band[1]]
        if fits:
            data = rng.choice(fits)
            return _compare(data, floor, work(data, floor))
        data = min(pool, key=lambda d: _log_distance(work(d, floor), band))
        if best is None or _log_distance(work(data, floor), band) < _log_distance(best[2], band):
            best = (data, floor, work(data, floor))
    return _compare(*best)


def exact_wide(seed: int) -> list[Op]:
    rng = random.Random(seed)
    small_pool = small_winding_pool()
    ops = []
    for slot, band in enumerate(_bands(*WIDE_WORK, WIDE_SLOTS)):
        if slot % 4 == 3:
            floors = list(range(WIDE_FLOORS[0], WIDE_FLOORS[1] + 1))
            rng.shuffle(floors)
            ops.append(_pick(rng, small_pool, floors, band, wide_work))
            continue
        while True:
            data = _wide(tuple(sorted(rng.randint(2, 12) for _ in range(rng.randint(4, 8)))))
            floor = rng.randint(*WIDE_FLOORS)
            if data is not None and band[0] <= wide_work(data, floor) < band[1]:
                ops.append(_compare(data, floor, wide_work(data, floor)))
                break
    return ops


def deep_pool() -> list[oracle.Seifert]:
    pool = []
    for n in (3, 4, 5):
        for exponents in itertools.combinations_with_replacement(range(2, 13), n):
            if _minima(exponents) > DEEP_MINIMA[1]:
                continue
            try:
                data = oracle.seifert(exponents)
            except ValueError:
                continue
            if DEEP_MINIMA[0] <= data.minima and data.w <= DEEP_MAX_WINDING:
                pool.append(data)
    return pool


def exact_deep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    pool = deep_pool()
    return [_pick(rng, pool, [rng.randint(*DEEP_FLOORS) for _ in range(200)], band, deep_work)
            for band in _bands(*DEEP_WORK, DEEP_SLOTS)]


def lab_tuples() -> list[tuple[int, ...]]:
    rng = random.Random(LAB_DRAW_SEED)
    out = []
    while len(out) < LAB_DRAW:
        exponents = tuple(rng.randint(2, 9) for _ in range(rng.randint(3, 5)))
        try:
            oracle.seifert(exponents)
        except ValueError:
            continue
        out.append(exponents)
    return out + list(LAB_FIXED)


def lab(seed: int) -> list[Op]:
    ops = []
    for exponents in lab_tuples():
        csv = _csv(exponents)
        argvs = (("verify-geometry", "--exponents", csv), ("verify-dynamics", "--exponents", csv))
        ops.append(Op(exponents, None, 0.0, argvs))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round, in the seeded order every round uses."""
    ops = {"exact-wide": exact_wide, "exact-deep": exact_deep, "lab": lab}[workload](seed)
    random.Random(seed).shuffle(ops)
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for op in build(args.workload, args.seed):
        print(f"{op.work:>10.0f}  {op.label}")


if __name__ == "__main__":
    main()
