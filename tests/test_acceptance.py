"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing
a single pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from brieskorn import (
    NotHyperbolic,
    build_complex,
    chain_homology,
    closed_form_homology,
    compare_graded,
    enumerate_generators,
    graded_homology,
    seifert_data,
    validate_params,
)
from brieskorn.closedform import closed_form_answer
from brieskorn.dynamics import LocalModel, linearized_return_map
from brieskorn.orbits import exceptional_orbit, orbifold_points
from brieskorn.polygon import (
    build_polygon_group,
    check_relations,
    expected_area,
    measured_area,
)
from halfplane_reference import (
    canonical,
    contact_invariance_residual,
    frame_invariance_residual,
    random_mobius,
    random_point,
)


def _report(number: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"{status} criterion {number}: {description}")
            return False

    return _Reporter()


TUPLES = [
    (2, 3, 7),
    (2, 3, 11),
    (3, 4, 5),
    (2, 5, 7),
    (2, 3, 7, 43),
    (2, 2, 2, 3),
    (2, 2, 3, 3, 3),
]


def test_criterion_1_oracle_equivalence():
    with _report(1, "chain homology equals the closed form to floor -40"):
        start = time.time()
        floor = -40
        for exponents in TUPLES:
            data = seifert_data(validate_params(list(exponents)))
            report = compare_graded(
                chain_homology(data, floor), closed_form_homology(data, floor), floor
            )
            assert report.equal, (exponents, report.first_mismatch)
        assert time.time() - start < 10.0


def test_criterion_2_worked_values():
    with _report(2, "worked graded dimensions for (2,3,7) and (2,3,11)"):
        data = seifert_data(validate_params([2, 3, 7]))
        dims = closed_form_homology(data, -40)
        assert dims[-2] == 10
        for k in range(2, 21):
            assert dims[-2 * k] == 11
        assert all(dims.get(g, 0) == 0 for g in range(-39, 0, 2))
        chain = chain_homology(data, -40)
        assert chain == dims

        data = seifert_data(validate_params([2, 3, 11]))
        window = closed_form_answer(data, -10).g_block
        assert window == {-2: 2, -4: 3, -6: 3, -8: 3, -10: 2}
        assert sum(window.values()) == (2 - 1) + (3 - 1) + (11 - 1)


def test_criterion_3_saddle_differentials():
    with _report(3, "saddle differentials for (2,3,7), classes 1..3, and d*d = 0"):
        data = seifert_data(validate_params([2, 3, 7]))
        for n in (1, 2, 3):
            complex_ = build_complex(data, n)
            base = -2 * n
            minima = [g.label for g in complex_.generators_by_grading[base - 2]]
            assert minima == [f"v1.1^{2 * n}", f"v2.1^{3 * n}", f"v3.1^{7 * n}"]
            mat = complex_.differential[base - 1]
            assert [[int(mat[i, j]) for j in range(2)] for i in range(3)] == [
                [1, 0],
                [-1, 1],
                [0, -1],
            ]
            assert complex_.differential[base].is_zero()
            # top composition vanishes; the elimination also asserts this
            assert mat.multiply(complex_.differential[base]).is_zero()
            graded_homology(complex_)


def test_criterion_4_geometry_verification():
    with _report(4, "polygon area, matrix and lifted relations for triples <= 13"):
        start = time.time()
        for triple in itertools.combinations_with_replacement(range(2, 14), 3):
            try:
                params = validate_params(list(triple))
            except NotHyperbolic:
                continue
            group = build_polygon_group(params)
            assert abs(measured_area(group) - expected_area(params)) < 1e-12, triple
            for name, value in check_relations(group, samples=20, seed=0).items():
                limit = 1e-8 if name.startswith("lift") else 1e-9
                assert value < limit, (triple, name, value)
        assert time.time() - start < 5.0


def test_criterion_5_invariance_residuals():
    with _report(5, "form and frame invariance over 1000 seeded samples"):
        rng = random.Random(20250808)
        for _ in range(1000):
            element = canonical(random_mobius(rng))
            point = random_point(rng)
            assert contact_invariance_residual(element, point) < 1e-8
            assert frame_invariance_residual(element, point) < 1e-8


def test_criterion_6_rotation_closed_form():
    with _report(6, "integrated monodromy against the closed-form rotation"):
        for epsilon in (1e-2, 1e-3):
            for laps in (1, 21):
                model = LocalModel(1j, 1.0, epsilon)
                result = linearized_return_map(model, Fraction(laps))
                assert result.relative_error < 1e-6
                assert abs(result.determinant - 1.0) < 1e-9
                expected = 2.0 * epsilon * 2 * math.pi * laps
                assert abs(-result.rotation_angle - expected) / expected < 1e-6
            for n in range(1, 6):
                model = LocalModel(1j, 1.0, epsilon)
                result = linearized_return_map(model, Fraction(n, 2))
                assert result.cz_index == -2 * (n // 2) - 1


def test_criterion_7_property_suites(fuzz_corpus):
    with _report(7, "fuzzed corpus: divisibility, genus, parity, shifts, Euler"):
        assert len(fuzz_corpus) >= 1000
        rng = random.Random(99)
        for data in fuzz_corpus:
            assert data.d % data.m == 0
            assert isinstance(data.genus, int) and data.genus >= 0
            chain_chi = data.minima_count - (data.minima_count - 1 + 2 * data.genus) + 1
            assert chain_chi == 2 - 2 * data.genus

            w = data.fiber_winding
            points = orbifold_points(data)
            j, i, t_j = points[rng.randrange(len(points))]
            k = rng.randint(1, 2 * t_j)
            gen = exceptional_orbit(data, j, i, k)
            shifted = exceptional_orbit(data, j, i, k + t_j)
            assert shifted.grading == gen.grading - 2 * w

            sample = enumerate_generators(data, action_bound=Fraction(data.d, data.m))
            for g in sample:
                kind_parity = 0 if g.kind == "saddle" else 1
                assert g.cz % 2 == kind_parity

        for data in fuzz_corpus[::5]:
            homology = graded_homology(build_complex(data, 1))
            chi = sum((-1) ** (k % 2) * c for k, c in homology.items())
            assert chi == 2 - 2 * data.genus
