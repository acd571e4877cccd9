"""Exact elimination engine and series formatting."""

import math
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
from brieskorn import closedform, homology
from brieskorn.orbits import GradedComplex
from dense_linalg import dense_product, dense_rank, from_grid, rank_by_minors


def random_integer(rng):
    """A small integer, or one time in eight an integer of up to 80 bits."""
    if rng.random() < 0.125:
        return rng.randint(-2**80, 2**80)
    return rng.randint(-12, 12)


def test_rank_matches_minor_expansion():
    rng = random.Random(7)
    for trial in range(500):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        if trial % 2:
            density = rng.choice([0.3, 0.7, 1.0])
            grid = [[random_integer(rng) if rng.random() < density else 0 for _ in range(cols)]
                    for _ in range(rows)]
        else:
            grid = [[rng.choice([-1, 0, 1]) for _ in range(cols)] for _ in range(rows)]
        mat = from_grid(rows, cols, grid)
        assert mat.rank() == dense_rank(mat) == rank_by_minors(mat)


def test_rank_handles_general_rationals():
    # row 3 = row 1 / 2 + row 2 / 3: a dependency over Q that no integer
    # combination with a unit coefficient shows
    mat = from_grid(3, 3, [[2, 4, 6], [3, 0, 3], [2, 2, 4]])
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
        return from_grid(rows, cols, grid)
    density = rng.choice([0.05, 0.2, 0.6, 1.0])
    grid = [
        [random_integer(rng) if rng.random() < density else 0 for _ in range(cols)]
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
            scale = rng.choice([1, -1, random_integer(rng) or 1])
            grid[i] = [scale * x for x in grid[source]]
    return from_grid(rows, cols, grid)


def test_sparse_engine_agrees_with_dense_oracles():
    rng = random.Random(20261018)
    for _ in range(150):
        mat = random_sparse_case(rng)
        assert mat.rank() == dense_rank(mat)
        assert mat.is_zero() == all(x == 0 for row in mat.entries for x in row)
        other = random_sparse_case(rng, rows=mat.cols)
        product = mat.multiply(other)
        assert [list(row) for row in product.entries] == dense_product(mat, other)
        assert all(x != 0 for column in product.sparse_columns for x in column.values())
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

        mat = from_grid(rows, cols, dependent_grid(rng, rows, cols, independent, draw))
        assert mat.rank() == dense_rank(mat) <= independent


def eliminate_watching(monkeypatch, mat):
    """rank() of mat, the (column, copy) pair of each column it copied, the
    copy as elimination left it, and its pivot searches."""
    made, searches = [], [0]

    def copied(column):
        made.append((column, dict(column)))
        return made[-1][1]

    def watched_min(*args, **kwargs):
        searches[0] += "key" in kwargs
        return min(*args, **kwargs)

    monkeypatch.setattr(homology, "dict", copied, raising=False)
    monkeypatch.setattr(homology, "min", watched_min, raising=False)
    rank = mat.rank()
    monkeypatch.undo()
    return rank, made, searches[0]


def columns_of(grid):
    """The matrix whose columns are the rows of a non-empty integer grid."""
    return from_grid(len(grid[0]), len(grid), list(zip(*grid)))


def test_pivot_search_runs_when_the_first_candidate_is_not_a_unit(monkeypatch):
    # row 0 lists 3 first and a unit later: the search must pass over the
    # 3 to the unit, which is the pivot and so is left as it is, while the
    # 3's column is copied and changed. Every column has a second nonzero,
    # so no candidate is a singleton, which would be the pivot without a
    # search. The grid's rows are the matrix's columns
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(3, 8), rng.randint(2, 8)
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        unit = rng.randrange(1, rows)
        for i, row in enumerate(grid):
            row[0] = 3 if i == 0 else rng.choice([1, -1]) if i == unit else rng.choice(
                [2, 3, -4, 5, 0])
            row[rng.randrange(1, cols)] = rng.choice([-9, -2, 1, 4, 7])
        mat = columns_of(grid)
        rank, made, searches = eliminate_watching(monkeypatch, mat)
        assert rank == dense_rank(mat)
        assert searches >= 1
        # a copy is changed in place, so only the matrix's own columns are
        # copied, each at most once
        own = {id(column) for column in mat.sparse_columns}
        sources = [id(column) for column, _ in made]
        assert len(set(sources)) == len(sources) and own.issuperset(sources)
        assert id(mat.sparse_columns[0]) in sources
        assert id(mat.sparse_columns[unit]) not in sources
        assert mat.sparse_columns[unit] == {i: x for i, x in enumerate(grid[unit]) if x}
        # every column left is a primitive multiple of a vector of minors, so
        # Hadamard's inequality bounds its entries by the product of the
        # column norms
        hadamard_sq = 1
        for row in grid:
            hadamard_sq *= sum(x * x for x in row)
        assert all(x * x <= hadamard_sq for _, copy in made for x in copy.values())


def test_a_singleton_pivot_eliminates_by_deletion(monkeypatch):
    # row 0's candidates include a singleton {0: p}; the others are
    # x_i * e_0 + c_i * v_i with v_i primitive and each v_i leading in a
    # row of its own, so no later row touches them. The singleton is the
    # pivot even behind a unit, and without a search; it is left as it is,
    # uncopied, and every other candidate is copied once and loses its
    # entry in row 0 and its content c_i, and nothing else. The grid's rows
    # are the matrix's columns
    rng = random.Random(32)
    for _ in range(60):
        others = rng.randint(1, 6)
        cols = 1 + others + rng.randint(0, 4)
        leads = rng.sample(range(1, cols), others)
        grid, primitive = [], []
        for lead in leads:
            v = [0] * cols
            v[lead] = rng.choice([1, -1, 2, -3])
            for j in range(lead + 1, cols):
                v[j] = rng.choice([0, 0, 1, -2, 3, 5, 6])
            v[lead] //= math.gcd(*v)  # the gcd is 1 or |v[lead]|, so v is now primitive
            primitive.append({j: x for j, x in enumerate(v) if x})
            content = rng.choice([1, 2, 3, 6, 10])
            grid.append([rng.choice([1, -1, 2, -4, 6])] + [content * x for x in v[1:]])
        singleton = rng.randrange(others + 1)
        pivot = rng.choice([1, -1, 5, -6, 12])
        grid.insert(singleton, [pivot] + [0] * (cols - 1))
        primitive.insert(singleton, {0: pivot})
        mat = columns_of(grid)
        rank, made, searches = eliminate_watching(monkeypatch, mat)
        assert rank == dense_rank(mat) == len(grid)
        assert searches == 0
        others = [i for i in range(len(grid)) if i != singleton]
        assert [id(column) for column, _ in made] == [id(mat.sparse_columns[i]) for i in others]
        assert [copy for _, copy in made] == [primitive[i] for i in others]
        assert mat.sparse_columns[singleton] == {0: pivot}


def test_singleton_candidates_agree_with_dense_rank():
    # sparse integer matrices, some columns cut down to one nonzero, and
    # repeated columns: the singleton's row empties by deletion, and each
    # column that loses an entry must wait for its next row. The grid's
    # rows are the matrix's columns
    rng = random.Random(20261020)
    shared = 0
    for _ in range(300):
        rows, cols = rng.randint(2, 14), rng.randint(1, 10)
        grid = [[random_integer(rng) if rng.random() < 0.35 else 0 for _ in range(cols)]
                for _ in range(rows)]
        for _ in range(rng.randint(0, rows // 2)):
            grid[rng.randrange(rows)] = list(rng.choice(grid))
        for row in rng.sample(grid, rng.randint(1, rows)):
            keep = rng.randrange(cols)
            row[:] = [x if j == keep else 0 for j, x in enumerate(row)]
            row[keep] = row[keep] or rng.choice([1, -2, 3])
        mat = columns_of(grid)
        leads = [min(column) for column in mat.sparse_columns if column]
        shared += any(len(column) == 1 and leads.count(min(column)) > 1
                      for column in mat.sparse_columns)
        assert mat.rank() == dense_rank(mat)
    # most draws start with a singleton sharing its row with another column
    assert shared > 200


def test_boundary_matrices_need_no_pivot_search(monkeypatch):
    for exponents in ((2, 3, 7), (2, 2, 3, 3, 4, 4, 5)):
        data = seifert_data(validate_params(list(exponents)))
        boundary = build_complex(data, 1).differential[-2 * data.fiber_winding - 1]
        rank, _, searches = eliminate_watching(monkeypatch, boundary)
        assert rank == dense_rank(boundary) == data.minima_count - 1
        assert searches == 0


def test_rank_leaves_the_matrix_and_copies_only_the_columns_it_changes(monkeypatch):
    # row 0's candidates are columns 0 and 3, and the unit of column 3 is
    # the pivot; in row 1 the changed column 0 is the pivot against column
    # 1. Columns 3 (a pivot) and 2 (zero) are never changed
    grid = [[3, 0, -6], [0, 6, 4], [0, 0, 0], [1, 1, 1]]
    mat = columns_of(grid)
    columns = list(mat.sparse_columns)
    before = [dict(column) for column in columns]
    made = []

    def copied(column):
        copy = dict(column)
        made.append((column, copy, dict(copy)))
        return copy

    monkeypatch.setattr(homology, "dict", copied, raising=False)
    assert mat.rank() == dense_rank(mat) == 3
    assert mat.sparse_columns == before
    assert all(now is column for now, column in zip(mat.sparse_columns, columns))
    # each changed column is copied once, as it is, and only the copy is changed
    assert [id(column) for column, _, _ in made] == [id(columns[0]), id(columns[1])]
    assert all(type(copy) is dict and copy is not column for column, copy, _ in made)
    assert [as_made for _, _, as_made in made] == [{0: 3, 2: -6}, {1: 6, 2: 4}]
    assert [copy for _, copy, _ in made] == [{1: -1, 2: -3}, {2: -1}]


def test_a_fiber_class_boundary_is_ranked_without_a_copy_or_a_deletion(
        monkeypatch, fuzz_corpus):
    # every tree column leads at a row of its own, so no bucket holds two
    # candidates: nothing is copied, and with no copy a deletion would have
    # to change the matrix's own columns
    for data in fuzz_corpus:
        for n in (1, 2):
            boundary = build_complex(data, n).differential[-2 * n * data.fiber_winding - 1]
            columns = list(boundary.sparse_columns)
            before = [dict(column) for column in columns]
            rank, made, searches = eliminate_watching(monkeypatch, boundary)
            assert rank == data.minima_count - 1
            assert made == [] and searches == 0
            assert boundary.sparse_columns == before
            assert all(now is column for now, column in zip(boundary.sparse_columns, columns))


def test_a_matrix_without_a_nonzero_column_is_ranked_without_walking_a_row(monkeypatch):
    # every compare ranks the S x 1 zero differential of the maximum: with
    # no nonzero column the walk stops at its first row, whatever S
    empty, zero = RationalMatrix(10**8, 0), RationalMatrix(10**8, 3)
    walked = []

    def rows(*args):
        walked.append(args)
        yield 0
        raise AssertionError(f"rank walks past the first row of range{args}")

    monkeypatch.setattr(homology, "range", rows, raising=False)
    assert empty.rank() == zero.rank() == 0
    assert walked == [(10**8,), (10**8,)]


def test_product_that_cancels_is_zero_and_stores_nothing():
    rng = random.Random(3)
    for _ in range(50):
        rows, cols = rng.randint(1, 12), rng.randint(2, 12)
        grid = [[random_integer(rng) for _ in range(cols)] for _ in range(rows)]
        for row in grid:
            row[-1] = row[0]
        kernel = RationalMatrix(cols, 1)
        kernel.sparse_columns[0].update({0: 1, cols - 1: -1})
        product = from_grid(rows, cols, grid).multiply(kernel)
        assert product.is_zero()
        assert product.sparse_columns == [{}]


def test_a_zero_matrix_shares_one_read_only_column():
    # it reads as the matrix that RationalMatrix(rows, cols) makes, but
    # allocates no column dict, and a write into its shared column is refused
    for rows, cols in ((0, 4), (3, 1), (5, 4)):
        zero, written = RationalMatrix.zero(rows, cols), RationalMatrix(rows, cols)
        assert (zero.rows, zero.cols, zero.sparse_columns) == (
            rows, cols, written.sparse_columns)
        assert zero.entries == written.entries
        assert zero.is_zero() and zero.rank() == 0
        assert not any(type(column) is dict for column in zero.sparse_columns)
        assert len({id(column) for column in zero.sparse_columns}) <= 1
        product = from_grid(2, rows, [[1] * rows] * 2).multiply(zero)
        assert product.is_zero() and (product.rows, product.cols) == (2, cols)
        if cols:
            with pytest.raises(TypeError):
                zero.sparse_columns[0][0] = 1


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
        dims = chain_homology(data, -8).tiled()
        counts[data.minima_count] = made[0]
        monkeypatch.undo()
        assert dims == closed_form_homology(data, -8).tiled()
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


class SizedOnly:
    """A chain group of a known size that raises when iterated."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __iter__(self):
        raise AssertionError("a chain group was iterated")


def test_homology_reads_only_the_size_of_each_chain_group(monkeypatch, fuzz_corpus):
    # the gain of counted runs rests on this: no generator is made for
    # homology, so groups that raise on iteration give the same answer
    real = closedform.build_complex

    def sized_only(data, n):
        complex_ = real(data, n)
        groups = {k: SizedOnly(len(g)) for k, g in complex_.generators_by_grading.items()}
        return GradedComplex(complex_.class_label, groups, complex_.differential)

    with pytest.raises(AssertionError, match="iterated"):
        list(SizedOnly(1))
    for data in fuzz_corpus[:60]:
        for n in (1, 2):
            assert graded_homology(sized_only(data, n)) == graded_homology(real(data, n))
        expected = chain_homology(data, -12).tiled()
        with monkeypatch.context() as mp:
            mp.setattr(closedform, "build_complex", sized_only)
            assert chain_homology(data, -12).tiled() == expected


def test_zero_differential_returns_chain_dims():
    gens = {0: ["a", "b"], -1: ["c"]}
    diff = {0: RationalMatrix(1, 2), -1: RationalMatrix(0, 1)}
    complex_ = GradedComplex("test", gens, diff)
    assert graded_homology(complex_) == {0: 2, -1: 1}


def test_inconsistent_complex_detected():
    gens = {0: ["a"], -1: ["b"], -2: ["c"]}
    diff = {
        0: from_grid(1, 1, [[1]]),
        -1: from_grid(1, 1, [[1]]),
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
        assert chain_homology(data, -12).tiled() == closed_form_homology(data, -12).tiled()
    assert products == []


@pytest.mark.parametrize("zero_below", [False, True])
@pytest.mark.parametrize("zero_above", [False, True])
def test_non_zero_pair_is_multiplied_beside_zero_differentials(zero_below, zero_above):
    # d_0 = (1, 1)^T and d_{-1} = (1, s): the pair composes to zero for
    # s = -1 only, whatever zero differentials sit beside it
    for s, composes in ((-1, True), (1, False), (2, False)):
        gens = {0: ["a"], -1: ["b", "c"], -2: ["e"]}
        diff = {0: from_grid(2, 1, [[1], [1]]), -1: from_grid(1, 2, [[1, s]])}
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
        gens = list(gens)
        order = list(range(len(gens)))
        rng.shuffle(order)
        perms[k] = order
        permuted_gens[k] = [gens[i] for i in order]

    permuted_diff = {}
    for k, mat in complex_.differential.items():
        rows = perms.get(k - 1, list(range(mat.rows)))
        cols = perms.get(k, list(range(mat.cols)))
        new = RationalMatrix(mat.rows, mat.cols)
        moved = {old_i: i for i, old_i in enumerate(rows)}
        for column, old_j in zip(new.sparse_columns, cols):
            column.update((moved[old_i], x) for old_i, x in mat.sparse_columns[old_j].items())
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
    series = poincare_series(closed_form_homology(data, -2).tiled(), floor=-2)
    assert series.terms == ((-2, 2),)
