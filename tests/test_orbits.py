"""Orbit inventory, gradings, and complex assembly."""

import random
from fractions import Fraction

import pytest

from brieskorn import (
    InconsistentComplex,
    RationalMatrix,
    build_complex,
    conley_zehnder,
    enumerate_generators,
    graded_homology,
    seifert_data,
    validate_params,
)
from brieskorn import cli, orbits
from brieskorn.orbits import (
    GradedComplex,
    OrbitGenerator,
    exceptional_orbit,
    maximum_orbit,
    orbifold_points,
    saddle_count,
    saddle_orbit,
)


@pytest.fixture(scope="module")
def data237():
    return seifert_data(validate_params([2, 3, 7]))


def test_action_bound_inventory_2_3_7(data237):
    gens = enumerate_generators(data237, action_bound=Fraction(2))
    assert len(gens) == 30
    by_kind = {}
    for g in gens:
        by_kind.setdefault(g.kind, []).append(g)
    exceptional = by_kind["exceptional"]
    assert sorted(g.iterate for g in exceptional if g.j == 1) == [1, 2, 3, 4]
    assert sorted(g.iterate for g in exceptional if g.j == 2) == [1, 2, 3, 4, 5, 6]
    assert sorted(g.iterate for g in exceptional if g.j == 3) == list(range(1, 15))
    assert len(by_kind["saddle"]) == 4  # two saddles, iterates 1 and 2
    assert len(by_kind["maximum"]) == 2


def test_action_bound_below_minimum_is_empty(data237):
    # the shortest orbit has period 2*pi*d/(m*max t_j) = 2*pi/7
    gens = enumerate_generators(data237, action_bound=Fraction(1, 8))
    assert gens == []


def test_grading_floor_inventory_2_2_2_3():
    data = seifert_data(validate_params([2, 2, 2, 3]))
    gens = enumerate_generators(data, grading_floor=-2)
    exceptional = [g for g in gens if g.kind == "exceptional"]
    assert len(exceptional) == 8
    assert all(g.j == 4 and g.iterate in (1, 2) and g.grading == -2 for g in exceptional)
    regular = [g for g in gens if g.kind != "exceptional"]
    assert [(g.kind, g.iterate, g.grading) for g in regular] == [("maximum", 1, -2)]


def test_conley_zehnder_values(data237):
    assert conley_zehnder(data237, "exceptional", 1, j=1) == -1
    assert conley_zehnder(data237, "exceptional", 7, j=3) == -3
    data2311 = seifert_data(validate_params([2, 3, 11]))
    assert conley_zehnder(data2311, "maximum", 1) == -9
    for n in range(1, 6):
        assert conley_zehnder(data237, "saddle", n) == -2 * n
        assert conley_zehnder(data2311, "saddle", n) == -2 * n * 5


def test_exceptional_fiber_class_tagging(data237):
    assert exceptional_orbit(data237, 3, 1, 7).fiber_class == 1
    assert exceptional_orbit(data237, 3, 1, 14).fiber_class == 2
    assert exceptional_orbit(data237, 3, 1, 6).fiber_class is None


def test_saddle_differential_pattern_2_3_7(data237):
    # For the fiber class n the two saddles map to differences of adjacent
    # minima orbits: x1 -> v1^{2n} - v2^{3n}, x2 -> v2^{3n} - v3^{7n}.
    for n in (1, 2, 3):
        complex_ = build_complex(data237, n)
        base = -2 * n
        minima = complex_.generators_by_grading[base - 2]
        saddles = complex_.generators_by_grading[base - 1]
        assert [g.label for g in minima] == [f"v1.1^{2 * n}", f"v2.1^{3 * n}", f"v3.1^{7 * n}"]
        assert [g.label for g in saddles] == [f"x1^{n}", f"x2^{n}"]
        mat = complex_.differential[base - 1]
        assert [[mat[i, j] for j in range(mat.cols)] for i in range(mat.rows)] == [
            [1, 0],
            [-1, 1],
            [0, -1],
        ]
        assert complex_.differential[base].is_zero()


def test_singleton_class_complex(data237):
    complex_ = build_complex(data237, (3, 1, 1))
    assert complex_.class_label == "orbit:v3.1^1"
    assert {k: len(g) for k, g in complex_.generators_by_grading.items()} == {-2: 1}
    assert graded_homology(complex_) == {-2: 1}


def test_singleton_class_rejects_fiber_iterates(data237):
    with pytest.raises(ValueError):
        build_complex(data237, (1, 1, 2))


def test_morse_model_homology(fuzz_corpus):
    # the saddle-to-minima boundary is the Morse complex of the base: rank
    # M - 1, so the surface homology (1, 2g, 1) in the three gradings
    for data in fuzz_corpus:
        for n in (1, 2, 3):
            base = -2 * n * data.fiber_winding
            complex_ = build_complex(data, n)
            minima = len(complex_.generators_by_grading[base - 2])
            assert minima == data.minima_count
            assert complex_.differential[base - 1].rank() == minima - 1
            expected = {base - 2: 1, base - 1: 2 * data.genus, base: 1}
            assert graded_homology(complex_) == {k: v for k, v in expected.items() if v}


def test_differential_entries_and_degree(fuzz_corpus):
    for data in fuzz_corpus[:40]:
        complex_ = build_complex(data, 2)
        for k, mat in complex_.differential.items():
            gens_here = complex_.generators_by_grading.get(k, [])
            gens_below = complex_.generators_by_grading.get(k - 1, [])
            assert mat.cols == len(gens_here)
            assert mat.rows == len(gens_below)
            for i in range(mat.rows):
                for j_ in range(mat.cols):
                    entry = mat[i, j_]
                    assert entry in (-1, 0, 1)
                    if entry:
                        assert gens_here[j_].grading - gens_below[i].grading == 1
                        assert gens_here[j_].cz - gens_below[i].cz == 1


def test_grading_shift_identity(fuzz_corpus):
    rng = random.Random(5)
    for data in fuzz_corpus[:200]:
        w = data.fiber_winding
        points = orbifold_points(data)
        j, i, t_j = points[rng.randrange(len(points))]
        k = rng.randint(1, 3 * t_j)
        n = rng.randint(1, 4)
        lower = exceptional_orbit(data, j, i, k)
        higher = exceptional_orbit(data, j, i, k + n * t_j)
        assert higher.grading == lower.grading - 2 * n * w


def test_cz_parity_matches_kind(fuzz_corpus):
    for data in fuzz_corpus[:150]:
        gens = enumerate_generators(data, action_bound=Fraction(2 * data.d, data.m))
        for g in gens:
            if g.kind == "saddle":
                assert g.cz % 2 == 0
            else:
                assert g.cz % 2 == 1


def test_nonfiber_exceptional_window_for_coprime_triples():
    # For pairwise coprime (p, q, r) the singleton-class gradings are even,
    # lie in [-2d, -2], and number (p-1) + (q-1) + (r-1).
    for p, q, r in [(2, 3, 7), (2, 3, 11), (3, 4, 5), (2, 5, 7)]:
        data = seifert_data(validate_params([p, q, r]))
        d = data.d
        gradings = []
        for j, i, t_j in orbifold_points(data):
            for k in range(1, t_j):
                gen = exceptional_orbit(data, j, i, k)
                assert gen.fiber_class is None
                gradings.append(gen.grading)
        assert len(gradings) == (p - 1) + (q - 1) + (r - 1)
        assert all(g % 2 == 0 and -2 * d <= g <= -2 for g in gradings)


def test_multiplicity_one_points_only_fiber_classes(fuzz_corpus):
    for data in fuzz_corpus[:80]:
        for j, i, t_j in orbifold_points(data):
            if t_j == 1:
                for k in (1, 2, 5):
                    assert exceptional_orbit(data, j, i, k).fiber_class == k


def test_enumerate_requires_exactly_one_filter(data237):
    with pytest.raises(ValueError):
        enumerate_generators(data237)
    with pytest.raises(ValueError):
        enumerate_generators(data237, grading_floor=-4, action_bound=Fraction(1))


def test_saddle_count_includes_handles():
    data = seifert_data(validate_params([2, 2, 3, 3, 3]))
    assert saddle_count(data) == 36 - 1 + 2 * 10


def complex_orbit_by_orbit(data, n):
    """The fiber class n assembled from one orbit constructor call per generator
    and one checked entry write per incidence of an explicit tree pair."""
    base = -2 * n * data.fiber_winding
    points = orbifold_points(data)
    minima = [exceptional_orbit(data, j, i, n * t_j) for j, i, t_j in points]
    saddles = [saddle_orbit(data, ell, n)
               for ell in range(1, len(points) - 1 + 2 * data.genus + 1)]
    tree = [(i, i + 1) for i in range(len(points) - 1)]
    boundary = RationalMatrix(len(minima), len(saddles))
    for col, (lo, hi) in enumerate(tree):
        boundary[lo, col] = Fraction(1)
        boundary[hi, col] = Fraction(-1)
    return GradedComplex(
        class_label=f"fiber:{n}",
        generators_by_grading={base - 2: minima, base - 1: saddles,
                               base: [maximum_orbit(data, n)]},
        differential={base - 2: RationalMatrix(0, len(minima)), base - 1: boundary,
                      base: RationalMatrix(len(saddles), 1)},
    )


def test_fiber_complex_equals_the_orbit_by_orbit_complex(fuzz_corpus):
    for data in fuzz_corpus[:80]:
        for n in (1, 2, 3):
            built = build_complex(data, n)
            expected = complex_orbit_by_orbit(data, n)
            assert built == expected
            # tuple equality ignores the class and would pass two columns
            # swapped between fields of equal values, so check both directly
            for grading, gens in built.generators_by_grading.items():
                assert all(type(g) is OrbitGenerator for g in gens)
                assert [g.label for g in gens] == [
                    g.label for g in expected.generators_by_grading[grading]]
            assert all(type(x) is int for mat in built.differential.values()
                       for row in mat.sparse_rows for x in row.values())


def test_fiber_generators_are_what_make_builds_from_their_fields(fuzz_corpus):
    # build_complex makes generators with tuple.__new__, which skips the
    # nine-field length check of _make: each must still pass it unchanged
    for data in fuzz_corpus:
        for n in (1, 2, 3):
            for gens in build_complex(data, n).generators_by_grading.values():
                for gen in gens:
                    made = OrbitGenerator._make(tuple(gen))
                    assert type(gen) is OrbitGenerator
                    assert gen == made and gen.label == made.label


def test_generators_are_immutable_and_hash_by_value(data237):
    built = build_complex(data237, 2)
    minimum, saddle, maximum = (gens[0] for _, gens in sorted(
        built.generators_by_grading.items()))
    for gen in (minimum, saddle, maximum):
        with pytest.raises(AttributeError):
            gen.iterate = 5
    twins = (exceptional_orbit(data237, 1, 1, minimum.iterate),
             saddle_orbit(data237, 1, 2), maximum_orbit(data237, 2))
    for gen, twin in zip((minimum, saddle, maximum), twins):
        assert gen == twin and gen is not twin
        assert hash(gen) == hash(twin)
    assert len({minimum, saddle, maximum, *twins}) == 3


@pytest.mark.parametrize("kind", ["exceptional", "saddle", "maximum"])
def test_grading_off_by_one_is_inconsistent(kind, monkeypatch, data237):
    real = orbits.conley_zehnder

    def one_off(data, orbit_kind, iterate, j=None):
        return real(data, orbit_kind, iterate, j) + (orbit_kind == kind)

    monkeypatch.setattr(orbits, "conley_zehnder", one_off)
    with pytest.raises(InconsistentComplex, match=f"{kind} orbit .* expected"):
        build_complex(data237, 2)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="complex"))
    assert code == cli.EXIT_TOLERANCE
    assert report["errors"][0]["type"] == "InconsistentComplex"
