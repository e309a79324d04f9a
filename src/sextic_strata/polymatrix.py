"""Matrices of homogeneous forms and their determinants.

Matrices coming from twisted resolutions have heterogeneous cell degrees
but a constant total degree along every permutation, so determinants are
again homogeneous.  `det_poly` expands cofactors with minors memoized by
column subset, about 2^n form products for n x n.  The table's matrices
are at most 5 x 5, but `loads` admits linear cells up to n = 64: 3.9 s
at n = 14 over GF(101), 11.2 s at n = 12 over Q.  Over Q the cost grows
with the cell degree too, so a bound on n alone would not bound it: dense
10 x 10 cells took 1.3 s linear, 19.1 s cubic (single runs, 2-vCPU Xeon
VM).  ROADMAP item 17 is to replace the expansion by a polynomial-time
elimination.

Injectivity does not need the expansion (`presentation.is_injective`
evaluates the matrix at points and falls back to `det_poly` only when
every probe lies on the curve).  `det_poly` is for callers that need the
determinant itself: the `det` command and `construct_x5` (through
`presentation.fitting_determinant`) and criterion 8's roundtrip.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import FieldMismatchError
from .fields import Field
from .forms import Form


class PolyMatrix:
    """Immutable rectangular matrix of forms over one field."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence[Form]]):
        rows = [list(r) for r in entries]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for f in r:
                if f.field is not field and f.field != field:
                    raise FieldMismatchError("entry over a different field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.field, zip(*self.entries))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(self.field, [[self.entries[i][j] for j in cols] for i in rows])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(f.pretty() for f in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def det_poly(M: PolyMatrix) -> Form:
    """Exact determinant of a square matrix of forms.

    Cofactor expansion along the first remaining row, minors memoized by
    column subset.  The zero entries of resolution normal forms keep the
    expansion sparse.
    """
    if not M.is_square:
        raise ValueError(f"determinant of non-square {M.shape} matrix")
    n = M.nrows
    field = M.field
    if n == 0:
        return Form.constant(field, 1)

    memo = {}

    def minor(cols: Tuple[int, ...]) -> Form:
        k = n - len(cols)  # expanding along row k
        if len(cols) == 1:
            return M.entry(k, cols[0])
        got = memo.get(cols)
        if got is not None:
            return got
        total = None
        for pos, c in enumerate(cols):
            e = M.entry(k, c)
            if e.is_zero:
                continue
            rest = cols[:pos] + cols[pos + 1:]
            term = e * minor(rest)
            if pos % 2 == 1:
                term = -term
            total = term if total is None else total + term
        if total is None:
            # Degree of a vanishing minor is not meaningful; tag with the
            # sum of diagonal cell degrees of the block.
            total = Form.zero(field, sum(M.entry(n - len(cols) + i, c).degree for i, c in enumerate(cols)))
        memo[cols] = total
        return total

    return minor(tuple(range(n)))

