"""Exact linear algebra over the rationals for graded chain complexes.

Dimensions at each grading are computed over the rationals by fraction-free
integer elimination; nothing here touches floating point. A matrix is
stored as sparse integer columns, one ``{row: nonzero entry}`` dict per
generator of its source grading, so a differential is written one
generator at a time, as the boundary of that generator; the columns of a
zero matrix from ``RationalMatrix.zero`` share one read-only empty
mapping. A boundary matrix has its entries in {-1, 0, 1}, and the rank of
an integer matrix over Q is reached by scaling columns by nonzero integers
and subtracting integer multiples of others, so elimination works on
Python ints alone. Elimination copies a column only when it first changes
it, so the matrix is left as it is. The tree columns of a fiber-class
boundary each lead at a row of their own, so each is a pivot with nothing
to eliminate, and ranking the boundary copies and changes nothing.
Elimination, products and zero tests cost in proportion to the nonzeros: a
boundary matrix has two per tree column, however many minima it has. The
compose-to-zero check forms a product only when both differentials are
non-zero, so it forms none on a fiber-class complex, whose outer
differentials are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InconsistentComplex


class RationalMatrix:
    """Integer matrix stored as sparse columns, whose rank is taken over Q.

    ``sparse_columns[j]`` maps each row i of a nonzero entry of column j to
    that entry. No zero is stored.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.sparse_columns: list[dict[int, int]] = [{} for _ in range(cols)]

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        """The zero matrix, whose columns all share one read-only empty
        mapping, so that it allocates no column of its own."""
        out = cls(rows, 0)
        out.cols, out.sparse_columns = cols, [_EMPTY_COLUMN] * cols
        return out

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Read-only dense view, one tuple per row."""
        columns = self.sparse_columns
        return tuple(tuple(column.get(i, 0) for column in columns) for i in range(self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def multiply(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = RationalMatrix(self.rows, other.cols)
        for column, out_column in zip(other.sparse_columns, out.sparse_columns):
            for k, y in column.items():
                for i, x in self.sparse_columns[k].items():
                    out_column[i] = out_column.get(i, 0) + x * y
            for i, z in list(out_column.items()) if out_column else ():
                if not z:
                    del out_column[i]
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_columns)

    def rank(self) -> int:
        """Rank over Q by fraction-free integer elimination on sparse columns.

        Rows are eliminated top to bottom. Every column not yet used as a
        pivot waits in the bucket of its leading row, so the columns with
        a nonzero in the current row are exactly that row's bucket, and a
        bucket of one candidate is a pivot with nothing to eliminate.

        When a candidate is a singleton, its only entry in the current
        row, the first such candidate is the pivot: every other candidate
        loses its entry in the row by deletion, which is what subtracting
        a multiple of the singleton would leave, and no entry is scaled or
        subtracted. Otherwise the pivot is the first candidate with the
        smallest |entry| p. Every other candidate, with entry a, becomes
        (p/g)*column - (a/g)*pivot_column with g = gcd(a, p). Either way,
        each changed candidate is then divided by the gcd of its entries
        and waits in the bucket of its new leading row. Each step scales a
        column by a nonzero rational or subtracts a multiple of another,
        so the rank over Q is exact, and dividing out the gcd keeps the
        ints from growing with every step.

        A column of the matrix is copied when it is first changed, and
        only the copy is changed after that; a pivot is never changed. So
        the matrix is left as it is, and a column that is never changed
        is never copied.
        """
        buckets: dict[int, list[dict[int, int]]] = {}
        for column in self.sparse_columns:
            if column:
                buckets.setdefault(min(column), []).append(column)
        # ids of the copies, which rank changes in place; no column of the
        # matrix can share one, since every column outlives this call
        copies: set[int] = set()
        rank = 0
        for row in range(self.rows):
            if not buckets:  # every column is a pivot or zero: no row is left to walk
                break
            candidates = buckets.pop(row, None)
            if candidates is None:
                continue
            rank += 1
            if len(candidates) > 1:
                for pivot_column in candidates:
                    if len(pivot_column) == 1:  # a singleton: the others lose row by deletion
                        pivot = None
                        break
                else:
                    pivot_column = min(candidates, key=lambda c: abs(c[row]))
                    pivot = pivot_column[row]
                for column in candidates:
                    if column is pivot_column:
                        continue
                    if id(column) not in copies:
                        column = dict(column)
                        copies.add(id(column))
                    if pivot is None:
                        del column[row]
                    else:
                        # the pivot's own row comes out zero and is deleted
                        a = column[row]
                        if a % pivot:
                            g = gcd(a, pivot)
                            scale, factor = pivot // g, a // g
                            for i in column:
                                column[i] *= scale
                        else:
                            factor = a // pivot
                        for i, y in pivot_column.items():
                            z = column.get(i, 0) - factor * y
                            if z:
                                column[i] = z
                            else:
                                del column[i]
                    if column:
                        content = gcd(*column.values())
                        if content > 1:
                            for i in column:
                                column[i] //= content
                        buckets.setdefault(min(column), []).append(column)
        return rank


# a class namespace is a read-only mapping (types.MappingProxyType), so its
# type gives the empty column of RationalMatrix.zero without importing types
_EMPTY_COLUMN = type(vars(RationalMatrix))({})

GradedDims = dict[int, int]


def graded_homology(complex) -> GradedDims:
    """Graded homology dimensions of a complex over the rationals.

    ``complex`` must expose ``generators_by_grading`` (grading -> a sized
    group of generators, of which only the ``len`` is read, so no generator
    is made) and ``differential`` (grading k -> RationalMatrix mapping the
    grading-k chain group into grading k-1). The dimension at grading k is
    dim ker(d_k) - rank(d_{k+1}); absent gradings have dimension zero.

    Raises InconsistentComplex unless each d_k is (generators at k-1) x
    (generators at k) and consecutive differentials compose to zero. The
    product d_k d_{k+1} is formed only when both factors are non-zero: a
    zero factor already makes it zero.
    """
    chain_dims = {k: len(g) for k, g in complex.generators_by_grading.items() if g}
    diffs = complex.differential

    for k, mat in diffs.items():
        shape = (chain_dims.get(k - 1, 0), chain_dims.get(k, 0))
        if (mat.rows, mat.cols) != shape:
            raise InconsistentComplex(
                f"differential at grading {k} is {mat.rows}x{mat.cols}, "
                f"but the generators make it {shape[0]}x{shape[1]}"
            )

    for k, mat in diffs.items():
        upper = diffs.get(k + 1)
        if upper is not None and not mat.is_zero() and not upper.is_zero():
            if not mat.multiply(upper).is_zero():
                raise InconsistentComplex(
                    f"differentials at gradings {k + 1} and {k} do not compose to zero"
                )

    rank_by_grading = {k: mat.rank() for k, mat in diffs.items()}
    out: GradedDims = {}
    for k, dim in chain_dims.items():
        # the shape and compose checks above make this nonnegative
        h = dim - rank_by_grading.get(k, 0) - rank_by_grading.get(k + 1, 0)
        if h:
            out[k] = h
    return out


@dataclass(frozen=True)
class PoincareSeries:
    """Graded dimensions rendered as a polynomial in t with exponent -grading."""

    terms: tuple[tuple[int, int], ...]
    text: str


def poincare_series(dims: GradedDims, floor: int) -> PoincareSeries:
    """Truncate at the grading floor and format deterministically.

    Terms are sorted by descending grading (ascending exponent of t); a
    grading k of dimension c renders as ``c*t^{-k}``, or just ``c`` when
    k = 0. The empty series renders as "0".
    """
    if floor > 0:
        raise ValueError("floor must be <= 0")
    # gradings are unique, so the pairs sort by grading alone
    kept = sorted(((k, c) for k, c in dims.items() if k >= floor and c), reverse=True)
    if not kept:
        return PoincareSeries(terms=(), text="0")
    pieces = []
    for k, c in kept:
        pieces.append(str(c) if k == 0 else f"{c}*t^{-k}")
    return PoincareSeries(terms=tuple(kept), text=" + ".join(pieces))
