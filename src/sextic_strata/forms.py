"""Homogeneous forms in three variables X, Y, Z over an exact field.

A form of degree d is a read-only array of its (d+1)(d+2)/2 coefficients,
one per exponent triple (e_X, e_Y, e_Z) with e_X + e_Y + e_Z = d, in the
field's dtype.  The monomial order is graded lexicographic with X > Y > Z
and is a frozen public contract: it fixes the layout of that array, the
rows and columns of every multiplication matrix and the byte layout of
serialized forms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .fields import Field, same_field
from .linalg import ScalarMatrix

Exponent = Tuple[int, int, int]

VARIABLE_NAMES = ("X", "Y", "Z")


@lru_cache(maxsize=None)
def monomial_basis(d: int) -> Tuple[Exponent, ...]:
    """Exponent triples of degree d in graded-lex order with X > Y > Z.

    The length is (d+1)(d+2)/2.  Raises on negative degree.
    """
    if d < 0:
        raise ValueError(f"negative degree {d}")
    return tuple(
        (ex, ey, d - ex - ey)
        for ex in range(d, -1, -1)
        for ey in range(d - ex, -1, -1)
    )


@lru_cache(maxsize=None)
def monomial_index(d: int) -> Dict[Exponent, int]:
    return {e: i for i, e in enumerate(monomial_basis(d))}


def dim_forms(d: int) -> int:
    """dim of the space of degree-d forms; 0 for negative d."""
    return (d + 1) * (d + 2) // 2 if d >= 0 else 0


class Form:
    """Immutable homogeneous form of a fixed degree.

    The payload `array` holds the canonical coefficients in the monomial
    order of `degree`, read-only, of length `dim_forms(degree)` and the
    field's dtype; it may be a view of a buffer that other forms share.
    A zero form may carry any degree tag, including a negative one (cells
    of a presentation whose Hom space is zero), and all zero forms over
    one field are equal.
    """

    __slots__ = ("field", "degree", "array", "is_zero")

    def __init__(self, field: Field, degree: int, coeffs: Mapping[Exponent, object]):
        """The sum of the terms c * X^e of `coeffs`; every exponent e must be
        a monomial of `degree`, even under a zero coefficient."""
        vec = [0] * dim_forms(degree)
        for e, c in coeffs.items():
            vec[_position(degree, tuple(e))] = c
        self._fill(field, degree, field.array(vec, len(vec)))

    def _fill(self, field: Field, degree: int, array: np.ndarray) -> None:
        array.flags.writeable = False
        _set_field(self, field)
        _set_degree(self, degree)
        _set_array(self, array)
        _set_is_zero(self, not array.any())

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Form is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, field: Field, degree: int, array: np.ndarray) -> "Form":
        """The form whose payload is `array`, which is new, held by no one
        else and made read-only here; `form_views` builds forms on views."""
        f = cls.__new__(cls)
        f._fill(field, degree, array)
        return f

    @classmethod
    def zero(cls, field: Field, degree: int) -> "Form":
        return cls._of(field, degree, np.full(dim_forms(degree), field.zero(), dtype=field.dtype))

    @classmethod
    def monomial(cls, field: Field, exponent: Exponent, coeff=1) -> "Form":
        return cls(field, sum(exponent), {tuple(exponent): coeff})

    @classmethod
    def constant(cls, field: Field, value) -> "Form":
        return cls(field, 0, {(0, 0, 0): value})

    @classmethod
    def from_coeff_vector(cls, field: Field, degree: int, vec: Sequence) -> "Form":
        """The form with coefficients `vec`, in the monomial order of `degree`."""
        if len(vec) != dim_forms(degree):
            raise ValueError("coefficient vector length mismatch")
        return cls._of(field, degree, field.array(vec, len(vec)))

    # -- predicates -----------------------------------------------------

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.degree == other.degree and np.array_equal(self.array, other.array)

    def __hash__(self):
        # Zero forms of every degree tag are equal, so their hash omits it.
        if self.is_zero:
            return hash((self.field, None))
        return hash((self.field, self.degree, tuple(self.array.tolist())))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        same_field(self.field, other.field)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} + {other.degree}")
        F = self.field
        return Form._of(F, self.degree, F.reduce(self.array + other.array))

    def __neg__(self) -> "Form":
        F = self.field
        return Form._of(F, self.degree, F.reduce(-self.array))

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, other: "Form") -> "Form":
        same_field(self.field, other.field)
        F = self.field
        deg = self.degree + other.degree
        if self.is_zero or other.is_zero:
            return Form.zero(F, deg)
        # Each product monomial is hit by at most min(dim a, dim b) pairs, so
        # the sums below are exact in this dtype.
        dt = F.dot_dtype(min(self.array.size, other.array.size))
        out = np.full(dim_forms(deg), F.zero(), dtype=dt)
        np.add.at(out, product_rows(self.degree, other.degree),
                  np.multiply.outer(self.array.astype(dt, copy=False), other.array.astype(dt, copy=False)))
        return Form._of(F, deg, F.reduce(out).astype(F.dtype, copy=False))

    def scale(self, c) -> "Form":
        F = self.field
        return Form._of(F, self.degree, F.reduce(self.array * F.normalize(c)))

    # -- views -------------------------------------------------------------

    def _terms(self) -> Iterator[Tuple[Exponent, object]]:
        """(exponent, coefficient) of the nonzero terms, in monomial order."""
        basis = monomial_basis(max(self.degree, 0))
        return ((e, c) for e, c in zip(basis, self.array.tolist()) if c)

    @property
    def coeffs(self) -> Mapping[Exponent, object]:
        """Read-only {exponent: coefficient} view of the nonzero terms,
        built from `array` on every access."""
        return MappingProxyType(dict(self._terms()))

    def to_encoding(self) -> list:
        """Serialized as [[coeff, e_X, e_Y, e_Z], ...] in monomial order;
        `presentation.loads` reads it back."""
        return [[self.field.encode_coeff(c), *e] for e, c in self._terms()]

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for e, c in self._terms():
            mono = "*".join(
                (name if k == 1 else f"{name}^{k}")
                for name, k in zip(VARIABLE_NAMES, e)
                if k > 0
            )
            cs = self.field.encode_coeff(c)
            if not mono:
                terms.append(str(cs))
            elif str(cs) == "1":
                terms.append(mono)
            else:
                terms.append(f"{cs}*{mono}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Form({self.pretty()})"


# Form's slot setters, which fill a form past its __setattr__ guard.
_set_field, _set_degree, _set_array, _set_is_zero = (Form.__dict__[name].__set__ for name in Form.__slots__)


def form_views(field: Field, buf: np.ndarray, layout: Sequence[Tuple[int, bool]]) -> List[Form]:
    """One form per (degree, is_zero) of `layout`, in order, whose payloads
    are consecutive views of `buf`, made read-only here.  The slots are set
    directly, with the given `is_zero` in place of `Form._fill`'s scan.  A
    negative degree takes no coefficients, and its zero form is shared."""
    buf.flags.writeable = False
    forms, start, zeros = [], 0, {}
    for degree, is_zero in layout:
        if degree in zeros:
            forms.append(zeros[degree])
            continue
        stop = start + dim_forms(degree)
        f = Form.__new__(Form)
        _set_field(f, field)
        _set_degree(f, degree)
        _set_array(f, buf[start:stop])
        _set_is_zero(f, is_zero)
        if degree < 0:
            zeros[degree] = f
        forms.append(f)
        start = stop
    return forms


def _position(degree: int, e: Exponent) -> int:
    """Index of the exponent e in the monomial order of `degree`."""
    k = monomial_index(degree).get(e) if degree >= 0 else None
    if k is None:
        raise ValueError(f"exponent {e} does not have degree {degree}")
    return k


@lru_cache(maxsize=256)
def evaluation_matrix(field: Field, source_degrees: Tuple[int, ...], target_degrees: Tuple[int, ...],
                      point: Tuple) -> Tuple[np.ndarray, np.ndarray]:
    """The matrix taking a nonempty grid's coefficients, cell by cell in rows
    (a cell of negative degree has one zero slot), to its cells' values at
    `point`: row k holds cell k's monomial values from slot starts[k] on, in
    the largest cell's `dot_dtype`, kept as (weights, starts), not cells x slots."""
    x, y, z = (field.normalize(v) for v in point)
    degrees = [c - b for c in target_degrees for b in source_degrees]
    values = [[x ** a * y ** b * z ** c for a, b, c in monomial_basis(d)] if d >= 0 else [0] for d in degrees]
    starts = np.array(list(accumulate(map(len, values), initial=0))[:-1], dtype=np.intp)
    flat = [v for cell in values for v in cell]
    weights = field.array(flat, len(flat)).astype(field.dot_dtype(max(map(len, values))))
    weights.flags.writeable = starts.flags.writeable = False
    return weights, starts


@lru_cache(maxsize=16)
def variables(field: Field) -> Tuple[Form, Form, Form]:
    """The coordinate forms X, Y, Z, built once per field."""
    return (
        Form.monomial(field, (1, 0, 0)),
        Form.monomial(field, (0, 1, 0)),
        Form.monomial(field, (0, 0, 1)),
    )


@lru_cache(maxsize=None)
def product_rows(a: int, b: int) -> np.ndarray:
    """Rows of monomial products: entry (k, j) is the index, in the frozen
    degree-(a+b) order, of monomial k of degree a times monomial j of degree b.
    """
    idx = monomial_index(a + b)
    rows = np.array(
        [[idx[(e[0] + m[0], e[1] + m[1], e[2] + m[2])] for m in monomial_basis(b)]
         for e in monomial_basis(a)],
        dtype=np.intp,
    )
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=256)
def _scatter_layout(source_degrees: Tuple[int, ...],
                    target_degrees: Tuple[int, ...]) -> Tuple[Tuple[int, int], np.ndarray, np.ndarray]:
    """Where the cell coefficients of a twist shape go: (shape, flat, gather).

    The cell vector of the shape lists the coefficients of cell (i, j), a
    form of degree c_i - b_j, row by row over every cell whose degree is
    not negative.  Its entry gather[n] lands at the flat index flat[n] of
    the matrix.  Cells over a negative source degree have empty blocks and
    no entries here.
    """
    row_off = list(accumulate(map(dim_forms, target_degrees), initial=0))
    col_off = list(accumulate(map(dim_forms, source_degrees), initial=0))
    flat, gather, slot = [], [], 0
    for i, c in enumerate(target_degrees):
        for j, b in enumerate(source_degrees):
            size = dim_forms(c - b)
            if b >= 0 and size:
                # Monomial k times the monomials of degree b hits distinct
                # rows, so each coefficient lands in a cell of its own.
                rows = row_off[i] + product_rows(c - b, b)
                cols = col_off[j] + np.arange(rows.shape[1])
                flat.append((rows * col_off[-1] + cols).ravel())
                gather.append(np.repeat(np.arange(slot, slot + size), rows.shape[1]))
            slot += size
    flat, gather = (np.concatenate(parts or [np.zeros(0, dtype=np.intp)]) for parts in (flat, gather))
    flat.flags.writeable = gather.flags.writeable = False
    return (row_off[-1], col_off[-1]), flat, gather


def block_mult_map(field: Field, cells: Sequence[Sequence[Form]],
                   source_degrees: Sequence[int], target_degrees: Sequence[int]) -> ScalarMatrix:
    """Matrix of H^0 of the map +_j O(b_j) -> +_i O(c_i) whose cell (i, j) is a
    form of degree c_i - b_j, for b = source_degrees and c = target_degrees.

    Block (i, j) is the multiplication by cell (i, j) from degree-b_j to
    degree-c_i forms.  Blocks are offset by `dim_forms`, with the frozen
    monomial order inside each block, so a negative degree gives an empty
    block.  The cells are gathered into the slots of the layout cached per
    (source_degrees, target_degrees) and scattered into the matrix at once.
    Cells over a negative source degree are not read, nor is any cell of an
    empty map.  Zero cells are skipped whatever their degree tag; any other
    cell read of another degree than c_i - b_j or over another field raises
    ValueError, and so does a grid of another shape than the degree vectors.
    """
    if len(cells) != len(target_degrees) or any(len(row) != len(source_degrees) for row in cells):
        raise ValueError(f"cell grid does not have shape ({len(target_degrees)}, {len(source_degrees)})")
    shape, flat, gather = _scatter_layout(tuple(source_degrees), tuple(target_degrees))
    M = ScalarMatrix.zeros(field, *shape)
    if not flat.size:
        return M
    filled, size = [], 0
    for i, (c, row) in enumerate(zip(target_degrees, cells)):
        for j, (b, f) in enumerate(zip(source_degrees, row)):
            if b >= 0 and not f.is_zero:
                # The identity test spares most calls of the field's __eq__.
                if f.degree != c - b or not (f.field is field or f.field == field):
                    raise ValueError(f"cell ({i},{j}) {f!r} is not a degree-{c - b} form over {field!r}")
                filled.append((size, f.array))
            size += dim_forms(c - b)
    vec = np.full(size, field.zero(), dtype=field.dtype)
    for slot, array in filled:
        vec[slot:slot + array.size] = array
    np.put(M.a, flat, vec[gather])
    return M


def mult_map(f: Form, b: int) -> ScalarMatrix:
    """Matrix of multiplication by f from degree-b forms to degree-(a+b) forms.

    Rows and columns follow the frozen monomial order; the column for a
    monomial m holds the coefficients of f*m.
    """
    if b < 0:
        raise ValueError(f"negative source degree {b}")
    return block_mult_map(f.field, [[f]], [b], [max(f.degree, 0) + b])


def forms_rank(forms: Sequence[Form]) -> int:
    """Rank of the coefficient matrix of equal-degree forms, one column each."""
    forms = list(forms)
    if not forms:
        return 0
    degree = next((f.degree for f in forms if not f.is_zero), 0)
    return block_mult_map(forms[0].field, [forms], [0] * len(forms), [degree]).rank()


def divides(l: Form, q: Form) -> bool:
    """Whether the nonzero linear form l divides q.

    q is divisible by l iff its coefficient vector lies in the image of
    multiplication by l on forms of degree deg(q) - 1: q's column,
    appended to that matrix, is in the span of the others.
    """
    if l.is_zero or l.degree != 1:
        raise ValueError("divisor must be a nonzero linear form")
    if q.is_zero:
        return True
    d = q.degree
    if d < 1:
        return False
    return mult_map(l, d - 1).hstack(ScalarMatrix(l.field, q.array[:, None])).last_in_span()


def common_factor(q1: Form, q2: Form) -> bool:
    """Whether two equal-degree forms share a non-constant common factor.

    Uses the syzygy criterion: by unique factorization, q1 and q2 of
    degree d share a non-constant factor iff a1*q1 + a2*q2 = 0 has a
    solution with a1, a2 of degree d-1, not both zero.  That is a kernel
    rank test on the stacked multiplication matrices, so no polynomial
    gcd machinery is needed, nor a case of its own for constants or a zero form.
    """
    if q1.is_zero and q2.is_zero:
        raise ValueError("common_factor undefined for (0, 0)")
    same_field(q1.field, q2.field)
    d1 = q1.degree if not q1.is_zero else q2.degree
    d2 = q2.degree if not q2.is_zero else q1.degree
    if d1 != d2:
        raise ValueError(f"mixed degrees {d1}, {d2}")
    d = d1
    A = block_mult_map(q1.field, [[q1, q2]], [d - 1, d - 1], [2 * d - 1])
    return A.rank() < 2 * dim_forms(d - 1)
