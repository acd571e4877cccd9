"""Exact elimination engine and series formatting."""

import random
from fractions import Fraction

import pytest

from brieskorn import (
    InconsistentComplex,
    RationalMatrix,
    build_complex,
    chain_homology,
    closed_form_homology,
    graded_homology,
    poincare_series,
    seifert_data,
    validate_params,
)
from brieskorn import homology
from brieskorn.orbits import GradedComplex
from dense_linalg import dense_product, dense_rank, rank_by_minors


def random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def random_small_matrix(rng, rows, cols):
    return RationalMatrix(
        rows, cols, [[rng.choice([-1, 0, 1]) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_matches_minor_expansion():
    rng = random.Random(7)
    for trial in range(500):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        if trial % 2:
            density = rng.choice([0.3, 0.7, 1.0])
            mat = RationalMatrix(rows, cols, [
                [random_rational(rng) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ])
        else:
            mat = random_small_matrix(rng, rows, cols)
        assert mat.rank() == dense_rank(mat) == rank_by_minors(mat)


def test_rank_handles_general_rationals():
    mat = RationalMatrix(
        3,
        3,
        [
            [Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)],
            [Fraction(2, 7), Fraction(1, 7), Fraction(3, 7)],
            [Fraction(1), Fraction(2, 3), Fraction(5, 3)],
        ],
    )
    # column 3 = column 1 + column 2 in rows 1 and 2; check row 3: 1 + 2/3 = 5/3
    assert mat.rank() == rank_by_minors(mat) == 2


def random_sparse_case(rng, rows=None):
    """A seeded test matrix of one of four kinds, at most 30 x 40."""
    if rows is None:
        rows = rng.randint(0, 30)
    cols = rng.randint(0, 40)
    kind = rng.choice(["general", "zero lines", "repeated rows", "path"])
    if kind == "path" and rows:
        # incidence of a path on `rows` vertices, extra zero columns, then
        # rows and columns shuffled: the shape of a fiber class's boundary
        cols = rows - 1 + rng.randint(0, 8)
        grid = [[0] * cols for _ in range(rows)]
        for col in range(rows - 1):
            grid[col][col], grid[col + 1][col] = 1, -1
        rng.shuffle(grid)
        order = list(range(cols))
        rng.shuffle(order)
        grid = [[row[j] for j in order] for row in grid]
        return RationalMatrix(rows, cols, grid)
    density = rng.choice([0.05, 0.2, 0.6, 1.0])
    grid = [
        [random_rational(rng) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    if kind == "zero lines":
        for i in rng.sample(range(rows), rows // 3):
            grid[i] = [0] * cols
        for j in rng.sample(range(cols), cols // 3):
            for row in grid:
                row[j] = 0
    elif kind == "repeated rows" and rows > 1:
        for _ in range(rng.randint(1, rows)):
            i, source = rng.randrange(rows), rng.randrange(rows)
            scale = rng.choice([1, -1, random_rational(rng) or 1])
            grid[i] = [scale * x for x in grid[source]]
    return RationalMatrix(rows, cols, grid)


def stores_no_zero(mat):
    return all(x != 0 for row in mat.sparse_rows for x in row.values())


def test_sparse_engine_agrees_with_dense_oracles():
    rng = random.Random(20261018)
    for _ in range(150):
        mat = random_sparse_case(rng)
        assert stores_no_zero(mat)
        assert mat.rank() == dense_rank(mat)
        assert mat.is_zero() == all(x == 0 for row in mat.entries for x in row)
        other = random_sparse_case(rng, rows=mat.cols)
        product = mat.multiply(other)
        assert [list(row) for row in product.entries] == dense_product(mat, other)
        assert stores_no_zero(product)
        assert product.is_zero() == all(x == 0 for row in product.entries for x in row)


def dependent_grid(rng, rows, cols, independent, draw):
    """A rows x cols grid of rank at most ``independent``: the other rows are
    integer combinations of the first ``independent`` ones."""
    basis = [[draw() for _ in range(cols)] for _ in range(independent)]
    grid = [list(row) for row in basis]
    while len(grid) < rows:
        coeffs = [rng.randint(-3, 3) for _ in basis]
        grid.append([sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(cols)])
    rng.shuffle(grid)
    return grid


def test_integer_elimination_of_entries_beyond_64_bits():
    rng = random.Random(2**64)
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        independent = rng.randint(0, min(rows, cols))

        def draw():
            return rng.choice([0, 1, -1, rng.randint(-2**80, 2**80), 3 * 2**70 + 1])

        mat = RationalMatrix(rows, cols, dependent_grid(rng, rows, cols, independent, draw))
        assert all(type(x) is int for row in mat.sparse_rows for x in row.values())
        assert mat.rank() == dense_rank(mat) <= independent


def test_rational_rows_with_large_cleared_denominators():
    # each denominator is a product of two of six primes of 19 to 89 bits,
    # so the lcm that clears a row runs to hundreds of bits
    primes = [2**61 - 1, 2**31 - 1, 2**19 - 1, 1_000_000_007, 998_244_353, 2**89 - 1]
    rng = random.Random(89)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 10)
        independent = rng.randint(0, min(rows, cols))

        def draw():
            return Fraction(rng.randint(-2**40, 2**40), rng.choice(primes) * rng.choice(primes))

        mat = RationalMatrix(rows, cols, dependent_grid(rng, rows, cols, independent, draw))
        assert mat.rank() == dense_rank(mat) <= independent


def eliminate_watching(monkeypatch, mat):
    """rank() of mat, the working rows it eliminated, and its pivot searches."""
    working, searches = [], [0]
    real_integral = homology._integral

    def integral(row):
        working.append(real_integral(row))
        return working[-1]

    def watched_min(*args, **kwargs):
        searches[0] += "key" in kwargs
        return min(*args, **kwargs)

    monkeypatch.setattr(homology, "_integral", integral)
    monkeypatch.setattr(homology, "min", watched_min, raising=False)
    rank = mat.rank()
    monkeypatch.undo()
    return rank, working, searches[0]


def test_pivot_search_runs_when_the_first_candidate_is_not_a_unit(monkeypatch):
    # column 0 lists 3 first and a unit later: the search must pass over the
    # 3 to the unit, which then loses its pivot entry and nothing else
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(3, 8), rng.randint(2, 8)
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        unit = rng.randrange(1, rows)
        for i, row in enumerate(grid):
            row[0] = 3 if i == 0 else rng.choice([1, -1]) if i == unit else rng.choice(
                [2, 3, -4, 5, 0])
        mat = RationalMatrix(rows, cols, grid)
        rank, working, searches = eliminate_watching(monkeypatch, mat)
        assert rank == dense_rank(mat)
        assert searches >= 1
        assert working[unit] == {j: x for j, x in enumerate(grid[unit]) if x and j}
        # every row left is a primitive multiple of a vector of minors, so
        # Hadamard's inequality bounds its entries by the product of the
        # row norms
        hadamard_sq = 1
        for row in grid:
            hadamard_sq *= sum(x * x for x in row)
        assert all(x * x <= hadamard_sq for row in working for x in row.values())


def test_boundary_matrices_need_no_pivot_search(monkeypatch):
    for exponents in ((2, 3, 7), (2, 2, 3, 3, 4, 4, 5)):
        data = seifert_data(validate_params(list(exponents)))
        boundary = build_complex(data, 1).differential[-2 * data.fiber_winding - 1]
        rank, _, searches = eliminate_watching(monkeypatch, boundary)
        assert rank == dense_rank(boundary) == data.minima_count - 1
        assert searches == 0


def test_rank_eliminates_copies_and_clears_only_fraction_rows(monkeypatch):
    grid = [[3, 0, -6], [0, Fraction(2, 3), Fraction(4, 9)], [0, 0, 0], [1, 1, 1]]
    mat = RationalMatrix(4, 3, grid)
    rows = list(mat.sparse_rows)
    before = [dict(row) for row in rows]
    made = []
    real_integral = homology._integral

    def integral(row):
        copy = real_integral(row)
        made.append((row, copy, dict(copy)))
        return copy

    monkeypatch.setattr(homology, "_integral", integral)
    assert mat.rank() == dense_rank(mat) == 3
    assert mat.sparse_rows == before
    assert all(now is row for now, row in zip(mat.sparse_rows, rows))
    assert all(type(copy) is dict and copy is not row for row, copy, _ in made)
    # an all-int row is copied as it is; a row with a Fraction is scaled by
    # the lcm of its denominators, 9, and divided by the gcd, 2
    assert [as_made for _, _, as_made in made] == [
        {0: 3, 2: -6}, {1: 3, 2: 2}, {0: 1, 1: 1, 2: 1}]


def test_integral_entries_are_stored_as_ints():
    mat = RationalMatrix(2, 3, [[Fraction(4, 2), 0, Fraction(1, 3)], [3, Fraction(-6, 3), 0]])
    assert [[type(x) for x in row.values()] for row in mat.sparse_rows] == [
        [int, Fraction], [int, int]
    ]
    mat[1, 2] = Fraction(10, 5)
    assert type(mat[1, 2]) is int and mat[1, 2] == 2
    half = RationalMatrix(3, 1, [[Fraction(3, 2)], [0], [0]])
    assert type(mat.multiply(half)[0, 0]) is int  # 2 * 3/2 = 3


def test_product_that_cancels_is_zero_and_stores_nothing():
    rng = random.Random(3)
    for _ in range(50):
        rows, cols = rng.randint(1, 12), rng.randint(2, 12)
        grid = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
        for row in grid:
            row[-1] = row[0]
        kernel = RationalMatrix(cols, 1)
        kernel[0, 0], kernel[cols - 1, 0] = 1, -1
        product = RationalMatrix(rows, cols, grid).multiply(kernel)
        assert product.is_zero()
        assert product.sparse_rows == [{} for _ in range(rows)]


def test_setting_an_entry_to_zero_stores_no_zero():
    mat = RationalMatrix(2, 3, [[1, 0, Fraction(2, 3)], [0, 0, 0]])
    assert mat.sparse_rows == [{0: 1, 2: Fraction(2, 3)}, {}]
    mat[0, 2] = 0
    mat[1, 1] = Fraction(0, 5)
    mat[1, 0] = Fraction(-1, 2)
    assert mat.sparse_rows == [{0: 1}, {0: Fraction(-1, 2)}]
    assert mat.entries == ((1, 0, 0), (Fraction(-1, 2), 0, 0))
    assert mat == RationalMatrix(2, 3, [[1, 0, 0], [Fraction(-1, 2), 0, 0]])
    with pytest.raises(IndexError):
        mat[2, 0] = 1
    with pytest.raises(IndexError):
        mat[0, 3]


def test_chain_homology_fractions_do_not_grow_with_the_points(monkeypatch):
    # every entry of a boundary matrix is in {-1, 0, 1}, so building and
    # eliminating the class-1 complex needs no Fraction per generator
    made = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    counts = {}
    for exponents in ((2, 2, 2, 2, 2), (2,) * 7):
        data = seifert_data(validate_params(list(exponents)))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        made[0] = 0
        dims = chain_homology(data, -8)
        counts[data.minima_count] = made[0]
        monkeypatch.undo()
        assert dims == closed_form_homology(data, -8)
    assert sorted(counts) == [40, 224]
    assert counts[40] == counts[224] > 0


def test_graded_homology_first_fiber_block_2_3_7():
    data = seifert_data(validate_params([2, 3, 7]))
    complex_ = build_complex(data, 1)
    assert graded_homology(complex_) == {-4: 1, -2: 1}


def test_graded_homology_first_fiber_block_2_2_3_3_3():
    data = seifert_data(validate_params([2, 2, 3, 3, 3]))
    complex_ = build_complex(data, 1)
    dims = {k: len(g) for k, g in complex_.generators_by_grading.items()}
    assert dims == {-14: 36, -13: 55, -12: 1}
    assert graded_homology(complex_) == {-14: 1, -13: 20, -12: 1}


def test_zero_differential_returns_chain_dims():
    gens = {0: ["a", "b"], -1: ["c"]}
    diff = {0: RationalMatrix(1, 2), -1: RationalMatrix(0, 1)}
    complex_ = GradedComplex("test", gens, diff)
    assert graded_homology(complex_) == {0: 2, -1: 1}


def test_inconsistent_complex_detected():
    gens = {0: ["a"], -1: ["b"], -2: ["c"]}
    diff = {
        0: RationalMatrix(1, 1, [[1]]),
        -1: RationalMatrix(1, 1, [[1]]),
        -2: RationalMatrix(0, 1),
    }
    with pytest.raises(InconsistentComplex):
        graded_homology(GradedComplex("bad", gens, diff))


def test_fiber_class_compose_check_forms_no_product(monkeypatch):
    # d of the maximum and d of the minima are zero, so each adjacent pair
    # of a fiber-class complex already has a zero factor
    products = []
    real = RationalMatrix.multiply

    def counted(self, other):
        products.append((self.rows, self.cols, other.cols))
        return real(self, other)

    monkeypatch.setattr(RationalMatrix, "multiply", counted)
    for exponents in ((2, 3, 7), (2, 2, 3, 3, 4, 4, 5)):
        data = seifert_data(validate_params(list(exponents)))
        assert chain_homology(data, -12) == closed_form_homology(data, -12)
    assert products == []


@pytest.mark.parametrize("zero_below", [False, True])
@pytest.mark.parametrize("zero_above", [False, True])
def test_non_zero_pair_is_multiplied_beside_zero_differentials(zero_below, zero_above):
    # d_0 = (1, 1)^T and d_{-1} = (1, s): the pair composes to zero for
    # s = -1 only, whatever zero differentials sit beside it
    for s, composes in ((-1, True), (1, False), (2, False)):
        gens = {0: ["a"], -1: ["b", "c"], -2: ["e"]}
        diff = {0: RationalMatrix(2, 1, [[1], [1]]), -1: RationalMatrix(1, 2, [[1, s]])}
        if zero_below:
            diff[-2] = RationalMatrix(0, 1)
        if zero_above:
            gens[1] = ["f", "g"]
            diff[1] = RationalMatrix(1, 2)
        complex_ = GradedComplex("pair", gens, diff)
        if composes:
            assert graded_homology(complex_) == ({1: 2} if zero_above else {})
        else:
            with pytest.raises(InconsistentComplex, match="gradings 0 and -1"):
                graded_homology(complex_)


def test_differential_of_the_wrong_shape_is_inconsistent():
    # three generators at grading -1 but d_0 has two rows; and a d_{-1}
    # that leaves more columns than there are generators at -1
    gens = {0: ["a"], -1: ["b", "c", "e"]}
    for diff in (
        {0: RationalMatrix(2, 1), -1: RationalMatrix(0, 3)},
        {0: RationalMatrix(3, 1), -1: RationalMatrix(0, 4)},
        {0: RationalMatrix(3, 1), -1: RationalMatrix(0, 3), -2: RationalMatrix(1, 0)},
    ):
        with pytest.raises(InconsistentComplex, match="generators make it"):
            graded_homology(GradedComplex("malformed", gens, diff))


def test_homology_invariant_under_generator_permutation():
    rng = random.Random(11)
    data = seifert_data(validate_params([2, 2, 3, 3, 3]))
    complex_ = build_complex(data, 1)
    reference = graded_homology(complex_)

    permuted_gens = {}
    perms = {}
    for k, gens in complex_.generators_by_grading.items():
        order = list(range(len(gens)))
        rng.shuffle(order)
        perms[k] = order
        permuted_gens[k] = [gens[i] for i in order]

    permuted_diff = {}
    for k, mat in complex_.differential.items():
        rows = perms.get(k - 1, list(range(mat.rows)))
        cols = perms.get(k, list(range(mat.cols)))
        new = RationalMatrix(mat.rows, mat.cols)
        for i, old_i in enumerate(rows):
            for j, old_j in enumerate(cols):
                new[i, j] = mat[old_i, old_j]
        permuted_diff[k] = new

    shuffled = GradedComplex("shuffled", permuted_gens, permuted_diff)
    assert graded_homology(shuffled) == reference


def test_alternating_sums_agree_per_class(fuzz_corpus):
    for data in fuzz_corpus[:120]:
        complex_ = build_complex(data, 1)
        chain_chi = sum(
            (-1) ** (k % 2) * len(g) for k, g in complex_.generators_by_grading.items()
        )
        homology = graded_homology(complex_)
        homology_chi = sum((-1) ** (k % 2) * c for k, c in homology.items())
        assert chain_chi == homology_chi == 2 - 2 * data.genus


def test_poincare_series_formatting():
    series = poincare_series({-2: 10, -4: 11, -6: 11, -8: 11}, floor=-6)
    assert series.terms == ((-2, 10), (-4, 11), (-6, 11))
    assert series.text == "10*t^2 + 11*t^4 + 11*t^6"


def test_poincare_series_empty():
    series = poincare_series({}, floor=-10)
    assert series.terms == ()
    assert series.text == "0"


def test_poincare_series_2_3_11_top_coefficient():
    from brieskorn import closed_form_homology

    data = seifert_data(validate_params([2, 3, 11]))
    series = poincare_series(closed_form_homology(data, -2), floor=-2)
    assert series.terms == ((-2, 2),)
