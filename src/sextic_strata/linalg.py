"""Dense exact linear algebra over Q and F_p.

Rank, reduced row echelon form, kernel bases and linear solves via
Gaussian elimination.  Prime fields use vectorized numpy int64 row
operations (entries stay below p**2 < 2**63 between reductions);
rationals use `Fraction` arithmetic.  All matrices here are small
(at most a few hundred rows), so no sparse or asymptotically fast
methods are needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FieldMismatchError
from .fields import Field


class ScalarMatrix:
    """Exact dense matrix over a fixed base field.

    Data layout is row-major.  Over a prime field the payload is a numpy
    int64 array with canonical entries in [0, p); over Q it is a nested
    list of `Fraction`.  Instances are immutable by convention: no method
    mutates `self`.
    """

    __slots__ = ("field", "nrows", "ncols", "_np", "_rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], shape: Optional[Tuple[int, int]] = None):
        self.field = field
        if shape is not None:
            self.nrows, self.ncols = shape
        else:
            self.nrows = len(rows)
            self.ncols = len(rows[0]) if self.nrows else 0
        if field.kind == "prime":
            arr = np.array(rows, dtype=np.int64).reshape(self.nrows, self.ncols)
            self._np = arr % field.p
            self._rows = None
        else:
            self._np = None
            self._rows = [[Fraction(x) for x in row] for row in rows]
            for row in self._rows:
                if len(row) != self.ncols:
                    raise ValueError("ragged rows")

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "ScalarMatrix":
        if field.kind == "prime":
            m = cls.__new__(cls)
            m.field, m.nrows, m.ncols = field, nrows, ncols
            m._np = np.zeros((nrows, ncols), dtype=np.int64)
            m._rows = None
            return m
        return cls(field, [[Fraction(0)] * ncols for _ in range(nrows)], shape=(nrows, ncols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "ScalarMatrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m._set(i, i, field.one())
        return m

    # -- element access (internal writes only during construction) ----

    def _set(self, i: int, j: int, v) -> None:
        if self._np is not None:
            self._np[i, j] = int(v) % self.field.p
        else:
            self._rows[i][j] = Fraction(v)

    def entry(self, i: int, j: int):
        if self._np is not None:
            return int(self._np[i, j])
        return self._rows[i][j]

    def row(self, i: int) -> list:
        return [self.entry(i, j) for j in range(self.ncols)]

    def to_lists(self) -> List[list]:
        return [self.row(i) for i in range(self.nrows)]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    # -- block composition --------------------------------------------

    def paste(self, block: "ScalarMatrix", i0: int, j0: int) -> None:
        """Write `block` at offset (i0, j0).  Only used while assembling."""
        if block.field != self.field:
            raise FieldMismatchError("paste across fields")
        if self._np is not None:
            self._np[i0:i0 + block.nrows, j0:j0 + block.ncols] = block._np
        else:
            for i in range(block.nrows):
                dest = self._rows[i0 + i]
                src = block._rows[i]
                dest[j0:j0 + block.ncols] = src[:]

    def hstack(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field or other.nrows != self.nrows:
            raise ValueError("hstack shape/field mismatch")
        out = ScalarMatrix.zeros(self.field, self.nrows, self.ncols + other.ncols)
        out.paste(self, 0, 0)
        out.paste(other, 0, self.ncols)
        return out

    def vstack(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field or other.ncols != self.ncols:
            raise ValueError("vstack shape/field mismatch")
        out = ScalarMatrix.zeros(self.field, self.nrows + other.nrows, self.ncols)
        out.paste(self, 0, 0)
        out.paste(other, self.nrows, 0)
        return out

    def transpose(self) -> "ScalarMatrix":
        out = ScalarMatrix.zeros(self.field, self.ncols, self.nrows)
        if self._np is not None:
            out._np = self._np.T.copy()
        else:
            for i in range(self.nrows):
                for j in range(self.ncols):
                    out._rows[j][i] = self._rows[i][j]
        return out

    # -- arithmetic ----------------------------------------------------

    def matmul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field:
            raise FieldMismatchError("matmul across fields")
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch")
        if self._np is not None:
            out = ScalarMatrix.zeros(self.field, self.nrows, other.ncols)
            out._np = (self._np @ other._np) % self.field.p
            return out
        out = ScalarMatrix.zeros(self.field, self.nrows, other.ncols)
        for i in range(self.nrows):
            for j in range(other.ncols):
                out._rows[i][j] = sum(
                    (self._rows[i][k] * other._rows[k][j] for k in range(self.ncols)),
                    Fraction(0),
                )
        return out

    def mul_vec(self, v: Sequence) -> list:
        col = ScalarMatrix(self.field, [[x] for x in v], shape=(len(v), 1))
        return [r[0] for r in self.matmul(col).to_lists()]

    def is_zero(self) -> bool:
        if self._np is not None:
            return not self._np.any()
        return all(x == 0 for row in self._rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix) or other.field != self.field:
            return NotImplemented
        return self.shape == other.shape and self.to_lists() == other.to_lists()

    def __repr__(self):
        return f"ScalarMatrix({self.field!r}, {self.nrows}x{self.ncols})"

    # -- elimination ----------------------------------------------------

    def rref(self, pivot_cols_limit: Optional[int] = None) -> Tuple["ScalarMatrix", List[int]]:
        """Reduced row echelon form.

        Args:
            pivot_cols_limit: only search for pivots in the first that many
                columns (row operations still span the full width); used for
                augmented solves.

        Returns:
            (R, pivots) with R the RREF and pivots the pivot column indices.
        """
        limit = self.ncols if pivot_cols_limit is None else pivot_cols_limit
        if self._np is not None:
            return self._rref_gf(limit)
        return self._rref_qq(limit)

    def _rref_gf(self, limit: int):
        p = self.field.p
        a = self._np.copy()
        nrows, _ = a.shape
        pivots: List[int] = []
        r = 0
        for c in range(limit):
            if r == nrows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            inv = pow(int(a[r, c]), p - 2, p)
            a[r] = (a[r] * inv) % p
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % p
            pivots.append(c)
            r += 1
        out = ScalarMatrix.__new__(ScalarMatrix)
        out.field, out.nrows, out.ncols = self.field, self.nrows, self.ncols
        out._np, out._rows = a, None
        return out, pivots

    def _rref_qq(self, limit: int):
        rows = [row[:] for row in self._rows]
        nrows = len(rows)
        pivots: List[int] = []
        r = 0
        for c in range(limit):
            if r == nrows:
                break
            pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(nrows):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return ScalarMatrix(self.field, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[list]:
        """Basis of the right kernel, one vector per free column.

        Vectors are exact and satisfy M v = 0; ordering follows ascending
        free-column index (deterministic).
        """
        R, pivots = self.rref()
        pivot_set = set(pivots)
        field = self.field
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            v = [field.zero()] * self.ncols
            v[f] = field.one()
            for i, pc in enumerate(pivots):
                v[pc] = field.neg(R.entry(i, f))
            basis.append(v)
        return basis

    def solve(self, rhs: Sequence) -> Optional[list]:
        """One solution of M x = rhs with all free variables set to zero.

        Returns None when the system is inconsistent.  The particular
        solution is the canonical one read off the RREF, so it is
        deterministic for a fixed column order.
        """
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        aug = self.hstack(ScalarMatrix(self.field, [[x] for x in rhs], shape=(self.nrows, 1)))
        R, pivots = aug.rref(pivot_cols_limit=self.ncols)
        # Inconsistent iff some zero row of the coefficient part has
        # nonzero augmented entry.
        for i in range(len(pivots), self.nrows):
            if not self.field.is_zero(R.entry(i, self.ncols)):
                return None
        x = [self.field.zero()] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = R.entry(i, self.ncols)
        return x
