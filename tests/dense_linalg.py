"""Dense exact linear algebra that the tests use as oracles for the sparse engine.

The oracles read a matrix only through its dense ``entries`` view and
share no code with ``brieskorn.homology``; ``from_grid`` builds the
sparse matrix of a dense integer grid.
"""

from fractions import Fraction
from itertools import combinations

from brieskorn.homology import RationalMatrix


def from_grid(rows: int, cols: int, grid) -> RationalMatrix:
    """The rows x cols integer grid as a RationalMatrix, its zeros left out."""
    mat = RationalMatrix(rows, cols)
    for i, row in enumerate(grid):
        for sparse, x in zip(mat.sparse_columns, row):
            if x:
                sparse[i] = x
    return mat


def dense_rank(matrix) -> int:
    """Rank by dense fraction Gaussian elimination over every entry of a row.

    The pivot in each column is the nonzero candidate with the smallest
    |numerator * denominator|; on an integer matrix that is the sparse
    engine's smallest |entry|.
    """
    rows, cols = matrix.rows, matrix.cols
    work = [[Fraction(x) for x in row] for row in matrix.entries]
    rank = 0
    for col in range(cols):
        best = None
        best_size = None
        for i in range(rank, rows):
            x = work[i][col]
            if x == 0:
                continue
            size = abs(x.numerator * x.denominator)
            if best is None or size < best_size:
                best, best_size = i, size
        if best is None:
            continue
        work[rank], work[best] = work[best], work[rank]
        pivot_row = work[rank]
        pivot = pivot_row[col]
        for i in range(rank + 1, rows):
            x = work[i][col]
            if x == 0:
                continue
            factor = x / pivot
            row = work[i]
            for j in range(col, cols):
                row[j] -= factor * pivot_row[j]
        rank += 1
        if rank == rows:
            break
    return rank


def dense_product(left, right) -> list[list[Fraction]]:
    """The product of two matrices as a dense grid, by the textbook triple sum."""
    a, b = left.entries, right.entries
    return [
        [sum((a[i][k] * b[k][j] for k in range(left.cols) if a[i][k] and b[k][j]), Fraction(0))
         for j in range(right.cols)]
        for i in range(left.rows)
    ]


def rank_by_minors(matrix) -> int:
    """Rank as the largest k with a nonvanishing k x k minor.

    Exponential cost; an independent cross-check for matrices of dimension
    at most ~5.
    """
    grid = matrix.entries

    def det(rows, cols):
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        total = Fraction(0)
        for pos, c in enumerate(cols):
            x = grid[rows[0]][c]
            if x == 0:
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            total += (-1) ** pos * x * sub
        return total

    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for rows in combinations(range(matrix.rows), k):
            for cols in combinations(range(matrix.cols), k):
                if det(tuple(rows), tuple(cols)) != 0:
                    return k
    return 0
