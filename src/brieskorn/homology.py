"""Exact linear algebra over the rationals for graded chain complexes.

Dimensions at each grading are computed over the rationals by fraction-free
integer elimination; nothing here touches floating point. Matrices are
stored as sparse integer rows, one ``{column: nonzero entry}`` dict per
row. A boundary matrix has its entries in {-1, 0, 1}, and the rank of an
integer matrix over Q is reached by scaling rows by nonzero integers and
subtracting integer multiples of others, so elimination works on Python
ints alone. A row whose only entry is in the column being eliminated is
the pivot whenever there is one; the other rows then just lose their entry
in that column, with no arithmetic. Eliminating a boundary matrix is all
such deletions: its tree is a path, so at every column the row carried
down from the path's first end is a singleton. Elimination, products and
zero tests cost in proportion to the nonzeros: a boundary matrix has two
per tree column, however many minima it has. The compose-to-zero check
forms a product only when both differentials are non-zero, so it forms
none on a fiber-class complex, whose outer differentials are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InconsistentComplex


class RationalMatrix:
    """Integer matrix stored as sparse rows, whose rank is taken over Q.

    No zero is stored.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.sparse_rows: list[dict[int, int]] = [{} for _ in range(rows)]

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Read-only dense view, one tuple per row."""
        return tuple(
            tuple(row.get(j, 0) for j in range(self.cols)) for row in self.sparse_rows
        )

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def multiply(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = RationalMatrix(self.rows, other.cols)
        for row, out_row in zip(self.sparse_rows, out.sparse_rows):
            for k, x in row.items():
                for j, y in other.sparse_rows[k].items():
                    out_row[j] = out_row.get(j, 0) + x * y
            for j, z in list(out_row.items()) if out_row else ():
                if not z:
                    del out_row[j]
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def rank(self) -> int:
        """Rank over Q by fraction-free integer elimination on sparse rows.

        Each row is copied, so the matrix is left as it is. Columns are
        then eliminated left to right. Every row not yet used as a pivot
        waits in the bucket of its leading column, so the rows with a
        nonzero in the current column are exactly that column's bucket.

        When a candidate is a singleton, its only entry in the current
        column, the first such candidate is the pivot: every other
        candidate loses its entry in the column by deletion, which is
        what subtracting a multiple of the singleton would leave, and no
        entry is scaled or subtracted. Otherwise the pivot is the first
        candidate with the smallest |entry| p. Every other candidate, with
        entry a, becomes (p/g)*row - (a/g)*pivot_row with g = gcd(a, p).
        Either way, each changed candidate is then divided by the gcd of
        its entries and waits in the bucket of its new leading column.
        Each step scales a row by a nonzero rational or subtracts a
        multiple of another, so the rank over Q is exact, and dividing out
        the gcd keeps the ints from growing with every step.
        """
        buckets: dict[int, list[dict[int, int]]] = {}
        for row in self.sparse_rows:
            if row:
                buckets.setdefault(min(row), []).append(dict(row))
        rank = 0
        for col in range(self.cols):
            if not buckets:  # every row is a pivot or zero: no column is left to walk
                break
            candidates = buckets.pop(col, None)
            if candidates is None:
                continue
            rank += 1
            if len(candidates) > 1:
                for pivot_row in candidates:
                    if len(pivot_row) == 1:  # a singleton: the others lose col by deletion
                        rest = ()
                        break
                else:
                    pivot_row = min(candidates, key=lambda r: abs(r[col]))
                    pivot = pivot_row.pop(col)
                    rest = pivot_row.items()
                for row in candidates:
                    if row is pivot_row:
                        continue
                    a = row.pop(col)
                    if rest:
                        if a % pivot:
                            g = gcd(a, pivot)
                            scale, factor = pivot // g, a // g
                            for j in row:
                                row[j] *= scale
                        else:
                            factor = a // pivot
                        for j, y in rest:
                            z = row.get(j, 0) - factor * y
                            if z:
                                row[j] = z
                            else:
                                del row[j]
                    if row:
                        content = gcd(*row.values())
                        if content > 1:
                            for j in row:
                                row[j] //= content
                        buckets.setdefault(min(row), []).append(row)
        return rank


GradedDims = dict[int, int]


def graded_homology(complex) -> GradedDims:
    """Graded homology dimensions of a complex over the rationals.

    ``complex`` must expose ``generators_by_grading`` (grading -> generator
    list) and ``differential`` (grading k -> RationalMatrix mapping the
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
