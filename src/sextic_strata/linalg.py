"""Dense exact linear algebra over Q and F_p.

Rank, reduced row echelon form, kernel bases and linear solves via
Gaussian elimination on a numpy array whose dtype the field chooses
(`Field.dtype`: int64 for primes below 2**31, Python scalars in an object
array for Q and larger primes).  One vectorized elimination serves every
field.  Over an int64 prime it defers the reduction mod p: each step
reduces only what it reads (the searched column and the pivot row), and
the whole array is reduced only when one more row update could overflow
int64 (the bound comes from `Field.dot_dtype`) and once at the end.  Q and
object-dtype primes reduce after every update, so every answer is exact.
All matrices here are small (at most a few hundred rows), so no sparse or
asymptotically fast methods are needed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FieldMismatchError
from .fields import Field


class ScalarMatrix:
    """Exact dense matrix over a fixed base field.

    The payload `a` is a 2-D numpy array of canonical entries in the
    field's dtype (see `Field.array`).  Instances are immutable by
    convention: no method mutates `self`.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: Field, rows: Sequence[Sequence], shape: Optional[Tuple[int, int]] = None):
        if shape is None:
            shape = (len(rows), len(rows[0]) if len(rows) else 0)
        # An object array reshapes ragged rows without complaint.
        if any(len(row) != shape[1] for row in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.a = field.array(rows, shape)

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap(cls, field: Field, a: np.ndarray) -> "ScalarMatrix":
        m = cls.__new__(cls)
        m.field, m.a = field, a
        return m

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "ScalarMatrix":
        return cls._wrap(field, np.full((nrows, ncols), field.zero(), dtype=field.dtype))

    # -- element access ------------------------------------------------

    def entry(self, i: int, j: int):
        return self.a.item(i, j)

    def row(self, i: int) -> list:
        return self.a[i].tolist()

    def to_lists(self) -> List[list]:
        return self.a.tolist()

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.a.shape

    # -- block composition --------------------------------------------

    def hstack(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field or other.nrows != self.nrows:
            raise ValueError("hstack shape/field mismatch")
        return ScalarMatrix._wrap(self.field, np.hstack((self.a, other.a)))

    def vstack(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field or other.ncols != self.ncols:
            raise ValueError("vstack shape/field mismatch")
        return ScalarMatrix._wrap(self.field, np.vstack((self.a, other.a)))

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix._wrap(self.field, self.a.T.copy())

    # -- arithmetic ----------------------------------------------------

    def matmul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if other.field != self.field:
            raise FieldMismatchError("matmul across fields")
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch")
        F = self.field
        dt = F.dot_dtype(self.ncols)
        prod = self.a.astype(dt, copy=False) @ other.a.astype(dt, copy=False)
        return ScalarMatrix._wrap(F, F.reduce(prod).astype(F.dtype, copy=False))

    def is_zero(self) -> bool:
        return not self.a.any()

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
        F = self.field
        limit = self.ncols if pivot_cols_limit is None else pivot_cols_limit
        a = self.a.copy()
        nrows = a.shape[0]
        budget = _update_budget(F, min(nrows, limit))
        pending = 0  # row updates applied since `a` was last reduced
        pivots: List[int] = []
        r = 0
        for c in range(limit):
            if r == nrows:
                break
            # The reduced column: a copy over F_p, a view of `a` over Q.
            col = F.reduce(a[:, c])
            nz = col[r:].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            # Columns left of c are zero mod p in rows r and below, so the
            # pivot row and the update start at c.
            row = F.reduce(F.reduce(a[i, c:]) * F.inv(col.item(i)))
            if i != r:  # swap rows r and i; row r is overwritten below
                a[i, c:] = a[r, c:]
                col[i] = col[r]
            if pending == budget:
                a, pending = F.reduce(a), 0
            # The product is formed before the subtraction, so a view is read
            # intact.  The update also clears row r, which takes the pivot row.
            a[:, c:] -= col[:, None] * row
            a[r, c:] = row
            pending += 1
            pivots.append(c)
            r += 1
        return ScalarMatrix._wrap(F, F.reduce(a)), pivots

    def rank(self) -> int:
        # h0 and h1 meet many empty matrices, at twists with no sections.
        return len(self.rref()[1]) if self.a.size else 0

    def kernel_basis(self) -> List[list]:
        """Basis of the right kernel, one vector per free column.

        Vectors are exact and satisfy M v = 0; ordering follows ascending
        free-column index (deterministic).
        """
        R, pivots = self.rref()
        F = self.field
        free = sorted(set(range(self.ncols)) - set(pivots))
        K = np.full((len(free), self.ncols), F.zero(), dtype=F.dtype)
        K[range(len(free)), free] = F.one()
        K[:, pivots] = F.reduce(-R.a[:len(pivots), free].T)
        return K.tolist()

    def solve(self, rhs: Sequence) -> Optional[list]:
        """One solution of M x = rhs with all free variables set to zero.

        Returns None when the system is inconsistent.  The particular
        solution is the canonical one read off the RREF, so it is
        deterministic for a fixed column order.
        """
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        F = self.field
        aug = self.hstack(ScalarMatrix(F, [[x] for x in rhs], shape=(self.nrows, 1)))
        R, pivots = aug.rref(pivot_cols_limit=self.ncols)
        # Inconsistent iff some zero row of the coefficient part has
        # nonzero augmented entry.
        if R.a[len(pivots):, -1].any():
            return None
        x = np.full(self.ncols, F.zero(), dtype=F.dtype)
        x[pivots] = R.a[:len(pivots), -1]
        return x.tolist()


def _update_budget(field: Field, steps: int) -> int:
    """Row updates an elimination may apply before it must reduce its array.

    After k unreduced updates an entry is a canonical entry minus k products
    of canonical entries, so it stays exact while `dot_dtype(k + 1)` is the
    payload's int64.  Object payloads (Q, primes of 2**31 and above) are
    reduced after every update.
    """
    if field.dtype is object:
        return 1
    k = max(steps, 1)
    while k > 1 and field.dot_dtype(k + 1) is not np.int64:
        k //= 2
    return k
