"""Exact rational linear algebra for graded chain complexes.

Dimensions at each grading are computed over the rationals by fraction
Gaussian elimination; nothing here touches floating point. Matrices are
stored as sparse exact rows, one ``{column: nonzero Fraction}`` dict per
row, so elimination, products and zero tests cost in proportion to the
nonzeros: a boundary matrix has two per tree column, however many minima
it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentComplex

_ZERO = Fraction(0)


class RationalMatrix:
    """Matrix of exact rationals stored as sparse rows; no zero is stored."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.sparse_rows: list[dict[int, Fraction]] = [{} for _ in range(rows)]
        if entries is not None:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match declared shape")
            for row, grid_row in zip(self.sparse_rows, entries):
                for j, x in enumerate(grid_row):
                    x = Fraction(x)
                    if x:
                        row[j] = x

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Read-only dense view, one tuple per row."""
        return tuple(
            tuple(row.get(j, _ZERO) for j in range(self.cols)) for row in self.sparse_rows
        )

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside a {self.rows}x{self.cols} matrix")

    def __getitem__(self, idx):
        i, j = idx
        self._check(i, j)
        return self.sparse_rows[i].get(j, _ZERO)

    def __setitem__(self, idx, value):
        i, j = idx
        self._check(i, j)
        value = Fraction(value)
        if value:
            self.sparse_rows[i][j] = value
        else:
            self.sparse_rows[i].pop(j, None)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
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
                    out_row[j] = out_row.get(j, _ZERO) + x * y
            for j in [j for j, z in out_row.items() if not z]:
                del out_row[j]
        return out

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def rank(self) -> int:
        """Rank by fraction Gaussian elimination on sparse rows.

        Columns are eliminated left to right. Every row not yet used as a
        pivot waits in the bucket of its leading column, so the rows with a
        nonzero in the current column are exactly that column's bucket. The
        pivot is the candidate with the smallest |numerator * denominator|,
        which keeps intermediate fractions small.
        """
        buckets: dict[int, list[dict[int, Fraction]]] = {}
        for row in self.sparse_rows:
            if row:
                buckets.setdefault(min(row), []).append(dict(row))
        rank = 0
        for col in range(self.cols):
            candidates = buckets.pop(col, None)
            if candidates is None:
                continue
            pivot_row = min(
                candidates, key=lambda r: abs(r[col].numerator * r[col].denominator)
            )
            pivot = pivot_row[col]
            for row in candidates:
                if row is pivot_row:
                    continue
                factor = row.pop(col) / pivot
                for j, y in pivot_row.items():
                    if j != col:
                        z = row.get(j, _ZERO) - factor * y
                        if z:
                            row[j] = z
                        else:
                            del row[j]
                if row:
                    buckets.setdefault(min(row), []).append(row)
            rank += 1
            if not buckets:
                break
        return rank


GradedDims = dict[int, int]


def graded_homology(complex) -> GradedDims:
    """Graded homology dimensions of a complex over the rationals.

    ``complex`` must expose ``generators_by_grading`` (grading -> generator
    list) and ``differential`` (grading k -> RationalMatrix mapping the
    grading-k chain group into grading k-1). The dimension at grading k is
    dim ker(d_k) - rank(d_{k+1}); absent gradings have dimension zero.

    Raises InconsistentComplex unless each d_k is (generators at k-1) x
    (generators at k) and consecutive differentials compose to zero.
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
        if upper is not None and mat.cols > 0 and upper.cols > 0:
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
    kept = sorted(
        ((k, c) for k, c in dims.items() if k >= floor and c), key=lambda kc: -kc[0]
    )
    if not kept:
        return PoincareSeries(terms=(), text="0")
    pieces = []
    for k, c in kept:
        pieces.append(str(c) if k == 0 else f"{c}*t^{-k}")
    return PoincareSeries(terms=tuple(kept), text=" + ".join(pieces))


def euler_characteristic(dims: GradedDims) -> int:
    return sum((-1) ** (k % 2) * c for k, c in dims.items())
