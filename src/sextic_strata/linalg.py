"""Dense exact linear algebra over Q and F_p.

Ranks, echelon forms, kernels and solves all come from one Gaussian
elimination, whose pivot is the first nonzero entry at or below the current
row, swapped up and scaled by `Field.inv`.  It runs on Python lists up to
SMALL_ELIMINATION_ENTRIES entries (`eliminate_lists`), else on a copy of
the numpy array whose dtype the field chooses (`Field.dtype`: int64 for
primes below 2**31, Python scalars in an object array for Q and larger
primes); the two give the same pivots and canonical arrays.  It has two
modes:

* full (Gauss-Jordan), behind `rref`, `kernel_basis` and `solve`: each
  pivot clears its column in every row, so the array ends as the RREF;
* forward, behind `pivots`, `rank` and `last_in_span`: each pivot clears
  only the rows below it, since only the pivot columns are read.  They
  are the RREF's pivot columns.

Every entry stays canonical at every step: the pivot row and each row
update are reduced mod p as they are made.  An update subtracts one
product of two canonical entries from a canonical entry, and
(p - 1)**2 < 2**62 for every int64 prime, so nothing overflows; Q and
object-dtype primes are exact anyway.  The matrices have at most a few
hundred rows, so no sparse or asymptotically fast methods are needed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FieldMismatchError
from .fields import Field

# Up to this many entries numpy's fixed cost per call outweighs the
# arithmetic.  Forward elimination of a random matrix, lists/numpy in us
# (medians of 15 interleaved runs, 2-vCPU VM): GF(101) 3x2 8/14, 5x5 23/36,
# 6x8 49/59, 12x4 42/29, 12x5 54/40, 20x20 407/180; GF(2) 6x8 20/47, 12x5
# 32/42; Q within 10% from 5x5 on.  Tall matrices cross over first.
SMALL_ELIMINATION_ENTRIES = 48


class ScalarMatrix:
    """Exact dense matrix over a fixed base field.

    The payload `a` is a 2-D numpy array of canonical entries in the
    field's dtype.  The constructor builds it with `Field.array`, the one
    conversion into the field: each entry becomes what `field.normalize`
    makes of it, so Fractions, integers beyond int64 and numpy integers are
    all reduced exactly.  Instances are immutable by convention: no method
    mutates `self`.
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

    def rref(self) -> Tuple["ScalarMatrix", List[int]]:
        """Reduced row echelon form: (R, pivots) with R the RREF and pivots
        the pivot column indices."""
        a, pivots = self._eliminate(reduced=True)
        return ScalarMatrix._wrap(self.field, a), pivots

    def pivots(self) -> List[int]:
        """The pivot columns of the RREF, found by forward elimination alone."""
        # verify's rank model meets many empty section matrices, at twists
        # with no sections.
        return self._eliminate(reduced=False)[1] if self.a.size else []

    def rank(self) -> int:
        return len(self.pivots())

    def last_in_span(self) -> bool:
        """Whether the last column lies in the span of the columns A before
        it: iff rank M = rank A, that is iff the last column is not a pivot,
        since elimination runs column by column and finds A's pivots first."""
        return self.ncols - 1 not in self.pivots()[-1:]

    def _eliminate(self, reduced: bool) -> Tuple[Optional[np.ndarray], List[int]]:
        """Gaussian elimination on a copy of the payload: (array, pivots).

        With `reduced` each pivot clears its column in every other row, and
        the array is the RREF.  Without it each pivot clears only the rows
        below it: the pivot columns are the same, and no array is returned.
        Every entry is canonical after every step.
        """
        F = self.field
        if self.a.size <= SMALL_ELIMINATION_ENTRIES:
            rows = self.a.tolist()
            pivots = eliminate_lists(F, rows, self.ncols, reduced)
            return (np.array(rows, dtype=F.dtype).reshape(self.a.shape) if reduced else None), pivots
        a = self.a.copy()
        nrows, ncols = a.shape
        pivots: List[int] = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            nz = a[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            # Columns left of c are zero in rows r and below, so the pivot
            # row and the update start at c.
            row = F.reduce(a[i, c:] * F.inv(a.item(i, c)))
            if i != r:  # swap rows r and i; row r is overwritten below
                a[i, c:] = a[r, c:]
            # A full update also clears row r, which takes the pivot row; a
            # forward one starts below it.
            top = 0 if reduced else r + 1
            a[top:, c:] = F.reduce(a[top:, c:] - a[top:, c, None] * row)
            a[r, c:] = row
            pivots.append(c)
            r += 1
        return (a if reduced else None), pivots

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
        R, pivots = self.hstack(ScalarMatrix._wrap(F, F.array(rhs, (self.nrows, 1)))).rref()
        # The RREF of [A | b] extends that of A; the system is inconsistent
        # iff b's column holds a pivot.
        if pivots and pivots[-1] == self.ncols:
            return None
        x = np.full(self.ncols, F.zero(), dtype=F.dtype)
        x[pivots] = R.a[:len(pivots), -1]
        return x.tolist()


def eliminate_lists(F: Field, rows: List[list], ncols: int, reduced: bool) -> List[int]:
    """`ScalarMatrix._eliminate` in place on rows of canonical scalars, mod p
    or in Fractions: returns the pivots, and leaves the RREF if `reduced`."""
    p = F.p if F.kind == "prime" else None
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        i = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if i is None:
            continue
        inv, pivot = F.inv(rows[i][c]), rows[i]
        row = [x * inv % p for x in pivot[c:]] if p else [x * inv for x in pivot[c:]]
        rows[i], rows[r] = rows[r], pivot[:c] + row
        for k in range(0 if reduced else r + 1, len(rows)):
            f, old = rows[k][c], rows[k]
            if f and k != r:
                old[c:] = ([(x - f * y) % p for x, y in zip(old[c:], row)] if p
                           else [x - f * y for x, y in zip(old[c:], row)])
        pivots.append(c)
    return pivots
