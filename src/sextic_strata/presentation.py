"""Twisted resolutions of one-dimensional sheaves on the projective plane.

A presentation encodes an exact sequence

    0 -> A = O(s_1) + ... + O(s_m)  --phi-->  B = O(d_1) + ... + O(d_n)  ->  F  ->  0

by its twist vectors and the matrix of homogeneous forms phi, where cell
(i, j) has degree d_i - s_j (and is forced to vanish when d_i < s_j).
A presentation whose matrix breaks this degree grid is not a resolution,
so the constructor rejects it.  Once phi is injective, all cohomology is
read off the twists, plus the rank of one block of constants:

* line bundles on the plane have no H^1, and F is one-dimensional, so
  it has no H^2.  The cohomology of 0 -> A(t) -> B(t) -> F(t) -> 0 thus
  splits into 0 -> H^0 A(t) -> H^0 B(t) -> H^0 F(t) -> 0 and
  0 -> H^1 F(t) -> H^2 A(t) -> H^2 B(t) -> 0, and h^2(O(e)) = h^0(O(-3-e));
* tensoring with Omega^1(1) keeps the resolution exact.  By Bott's
  formula H^1(Omega^1(k)) is one-dimensional for k = 0 and zero otherwise;
  the Euler sequence 0 -> Omega^1(k) -> 3O(k-1) -> O(k) -> 0 gives
  h^0(Omega^1(k)) = 3 dim_forms(k-1) - dim_forms(k) for k >= 1, else 0.
  The only map left to compute is H^1(A owedge Omega^1(1)) ->
  H^1(B owedge Omega^1(1)): its matrix is the block C of phi's constants
  from the O(-1) summands of A to those of B.

The section matrices (`section_matrix`, `dual_section_matrix`) give the
same numbers by elimination; `verify` keeps them as the independent check.
`is_injective` certifies det phi != 0 without expanding it: phi at a point
of the plane, one product of the gathered cell coefficients with a cached
evaluation matrix, is a scalar matrix, and full rank there proves it.  The
determinant (`fitting_determinant`) is expanded only when every probe point
lies on the curve det phi = 0, which is what keeps the check exact over F_2.

Serialization is a frozen interchange format: `dumps` writes the twists and
each cell's nonzero terms as [coeff, e_X, e_Y, e_Z] in canonical JSON,
byte-stable.  `loads` checks the twists against the load budgets before it
reads a cell, then fills each cell's list of monomial slots in one pass,
through `monomial_index` and the field's `decode_coeff`: a slot found filled
is a duplicate, and the list gives the cell's zero flag.  One read-only
array holds the lists, each cell's form is a view of its slice, and the
cells of one negative degree share one zero form.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidPresentationError,
    NotSquareError,
)
from .fields import Field, field_from_json, json_int
from .forms import Form, block_mult_map, dim_forms, evaluation_matrix, form_views, monomial_index
from .linalg import ScalarMatrix
from .polymatrix import PolyMatrix, det_poly

FORMAT_VERSION = 1
# Three load budgets, checked from the twists before any cell is built as
# its dim_forms(d_i - s_j) coefficients: the largest cell degree, so one
# far twist cannot cost memory quadratic in it; the number of cells, which
# bounds cells of negative degree and the plain sum behind the third, the
# total of coefficients.  A table shape has at most 25 cells, of degree at
# most 5, with 90 coefficients (X0), and shifts keep all three, so 64 (2145
# coefficients a cell), 64 x 64 cells and 2^16 leave room for every shape.
MAX_CELL_DEGREE = 64
MAX_LOAD_CELLS = 4096
MAX_LOAD_COEFFICIENTS = 2 ** 16


def chi_line_bundle(e: int) -> int:
    """Euler characteristic of O(e) on the plane, any integer e."""
    return (e + 1) * (e + 2) // 2


class HilbertPoly(NamedTuple):
    """P(m) = r*m + chi for the one-dimensional sheaves in scope."""

    r: int
    chi: int


class CohomologyProfile(NamedTuple):
    """The classifying quadruple (h0 F(-1), h1 F, h0(F x Omega^1(1)), h1 F(1))."""

    a: int
    b: int
    c: int
    e: int


class Presentation:
    """Twist vectors plus the matrix of forms; immutable.

    Construction checks the matrix shape against the twists and every cell
    against the degree grid, raising InvalidPresentationError with one
    message per offending cell.  Rectangular presentations are allowed;
    the cohomology operations reject them.
    """

    __slots__ = ("field", "source", "target", "matrix", "metadata")

    def __init__(
        self,
        source: Sequence[int],
        target: Sequence[int],
        matrix: PolyMatrix,
        metadata: Optional[dict] = None,
    ):
        source = tuple(int(s) for s in source)
        target = tuple(int(d) for d in target)
        if not source or not target:
            raise InvalidPresentationError(["twist vectors must be non-empty"])
        if matrix.shape != (len(target), len(source)):
            raise InvalidPresentationError(
                [f"matrix shape {matrix.shape} does not match twists ({len(target)}, {len(source)})"]
            )
        object.__setattr__(self, "field", matrix.field)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "metadata", dict(metadata) if metadata else None)
        bad = validate_grid_only(self)
        if bad:
            raise InvalidPresentationError(bad)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Presentation is immutable")

    @property
    def is_square(self) -> bool:
        return len(self.source) == len(self.target)

    def cell_degree(self, i: int, j: int) -> int:
        return self.target[i] - self.source[j]

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"Presentation(source={self.source}, target={self.target})"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(P: Presentation) -> List[str]:
    """All contract violations of a presentation, as data.

    Checks squareness and injectivity (nonzero determinant, certified by
    `is_injective` at probe points and only expanded symbolically when
    every probe lies on the curve).  The degree grid needs no check here:
    the constructor has enforced it.  An empty list means the presentation
    is usable by every operation in the package.
    """
    if not P.is_square:
        return [f"not square ({P.matrix.nrows}x{P.matrix.ncols}); cohomology operations unavailable"]
    if not is_injective(P):
        return ["not injective: det = 0"]
    return []


# Probe points of `is_injective`, tried in order.  They reduce to the seven
# distinct points of P^2(F_2), and to seven distinct points of P^2(F_p) for
# p = 3, 5, 7, 11, 13 and 101, so no probe is wasted on a repeat there.
PROBE_POINTS = ((5, 2, 6), (2, 1, 2), (2, 4, 3), (7, 3, 2), (3, 4, 7), (2, 1, 1), (7, 7, 5))


def is_injective(P: Presentation) -> bool:
    """Whether phi is injective as a sheaf map, i.e. det phi != 0; exact.

    Evaluation at a point commutes with the determinant, so a probe point
    where the scalar matrix phi(point) has full rank proves det phi != 0.
    A nonzero determinant of degree D vanishes at a point of F_p^3 with
    probability at most D/p (Schwartz 1980, Zippel 1979), so over F_101
    the first probe almost always decides.  Only when phi has deficient
    rank at every probe, which happens for det = 0 and for curves through
    all the probes (over F_2 the form XY(X+Y) vanishes on the whole
    plane), is the determinant expanded by `det_poly`.  Each probe matrix
    is one product (`_probe_matrices`), not one evaluation per cell.
    """
    _require_square(P)
    n = P.matrix.nrows
    return any(M.rank() == n for M in _probe_matrices(P)) or not det_poly(P.matrix).is_zero


def _probe_matrices(P: Presentation) -> Iterator[ScalarMatrix]:
    """phi at each probe point: the cells' coefficients, gathered once, times `evaluation_matrix`."""
    F, n = P.field, P.matrix.nrows
    cells = zip(itertools.chain(*P.matrix.entries), (d - s for d in P.target for s in P.source))
    vec = np.concatenate([np.full(dim_forms(e) or 1, F.zero(), F.dtype) if f.is_zero else f.array for f, e in cells])
    for point in PROBE_POINTS:
        weights, starts = evaluation_matrix(F, P.source, P.target, point)
        values = F.reduce(np.add.reduceat(vec.astype(weights.dtype, copy=False) * weights, starts))
        yield ScalarMatrix._wrap(F, values.astype(F.dtype, copy=False).reshape(n, n))


def validate_grid_only(P: Presentation) -> List[str]:
    """Degree-grid violations of the matrix; `Presentation` raises on any."""
    violations: List[str] = []
    M = P.matrix
    for i in range(M.nrows):
        for j in range(M.ncols):
            f = M.entry(i, j)
            want = P.cell_degree(i, j)
            if want < 0 and not f.is_zero:
                violations.append(f"forced zero violated at ({i},{j}): Hom degree {want} < 0")
            elif not f.is_zero and f.degree != want:
                violations.append(f"degree mismatch at ({i},{j}): expected {want}, got {f.degree}")
    return violations


def _require_square(P: Presentation) -> None:
    if not P.is_square:
        raise NotSquareError(
            f"presentation is {P.matrix.nrows}x{P.matrix.ncols}; "
            "only square resolutions are in scope"
        )


# ---------------------------------------------------------------------------
# Euler characteristic
# ---------------------------------------------------------------------------


def hilbert_polynomial(P: Presentation) -> HilbertPoly:
    """Exact Hilbert polynomial r*m + chi by additivity over the resolution.

    chi(F(m)) = sum_i chi(O(d_i + m)) - sum_j chi(O(s_j + m)); for square
    shapes the quadratic terms cancel and r = sum d_i - sum s_j.
    """
    _require_square(P)
    r = sum(P.target) - sum(P.source)
    chi = sum(chi_line_bundle(d) for d in P.target) - sum(chi_line_bundle(s) for s in P.source)
    return HilbertPoly(r=r, chi=chi)


# ---------------------------------------------------------------------------
# section matrices (the elimination model of the cohomology, kept as a check)
# ---------------------------------------------------------------------------


def section_matrix(P: Presentation, t: int) -> ScalarMatrix:
    """Matrix of H^0(phi(t)): block (i, j) multiplies by phi_ij from
    H^0(O(s_j + t)) to H^0(O(d_i + t)), in the layout of `block_mult_map`."""
    return block_mult_map(P.field, P.matrix.entries, [s + t for s in P.source], [d + t for d in P.target])


def dual_section_matrix(P: Presentation, t: int) -> ScalarMatrix:
    """Serre-dual multiplication map, equal to `section_matrix(dual(P), -1 - t)`.

    Block (j, i) is multiplication by phi_ij from H^0(O(-3 - d_i - t)) to
    H^0(O(-3 - s_j - t)), read off the transposed grid.  Its rank equals
    the rank of the induced map H^2(A(t)) -> H^2(B(t)).
    """
    return block_mult_map(P.field, list(zip(*P.matrix.entries)),
                          [-3 - d - t for d in P.target], [-3 - s - t for s in P.source])


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def _net_forms(plus: Sequence[int], minus: Sequence[int], base: int, sign: int) -> int:
    """sum dim_forms(base + sign * x) over `plus` less that over `minus`, in one integer loop."""
    total = 0
    for x in plus:
        e = base + sign * x
        if e >= 0:
            total += (e + 1) * (e + 2)
    for x in minus:
        e = base + sign * x
        if e >= 0:
            total -= (e + 1) * (e + 2)
    return total // 2


def h0(P: Presentation, t: int) -> int:
    """h^0(F(t)) = sum_i dim_forms(d_i + t) - sum_j dim_forms(s_j + t).

    The caller certifies that phi is injective (`is_injective`); then H^0
    of the twisted resolution is exact, as the module docstring derives.
    `classify`, `strata.validate_shape` and CLI `cohomology` certify it
    first.  Otherwise this is the twists' number, not the cokernel's: on
    `O(-2) -> O` with a zero cell it reads 1, 3, 5, 7 at t = 0..3, not 1, 3, 6, 10.
    """
    _require_square(P)
    return _net_forms(P.target, P.source, t, 1)


def h1(P: Presentation, t: int) -> int:
    """h^1(F(t)) = sum_j dim_forms(-3 - s_j - t) - sum_i dim_forms(-3 - d_i - t).

    H^1 F(t) is the kernel of H^2 A(t) -> H^2 B(t), a surjection, and
    h^2(O(e)) = h^0(O(-3 - e)); the caller certifies injectivity, as for `h0`.
    """
    _require_square(P)
    return _net_forms(P.source, P.target, -3 - t, -1)


def _h0_twisted_omega(k: int) -> int:
    """h^0(Omega^1(k)), from the Euler sequence."""
    return 3 * dim_forms(k - 1) - dim_forms(k) if k >= 1 else 0


def h0_omega(P: Presentation) -> int:
    """h^0(F owedge Omega^1(1)), with w(k) = h^0(Omega^1(k)):

        sum_i w(d_i + 1) - sum_j w(s_j + 1) + #{j : s_j = -1} - rank C,

    where C is the block of constants of phi on the rows with d_i = -1 and
    the columns with s_j = -1 (derivation in the module docstring).  The
    caller certifies that phi is injective.
    """
    _require_square(P)
    rows = [i for i, d in enumerate(P.target) if d == -1]
    cols = [j for j, s in enumerate(P.source) if s == -1]
    rank_c = 0
    if rows and cols:
        C = [[P.matrix.entry(i, j).array[0] for j in cols] for i in rows]
        rank_c = ScalarMatrix(P.field, C, shape=(len(rows), len(cols))).rank()
    return (sum(_h0_twisted_omega(d + 1) for d in P.target)
            - sum(_h0_twisted_omega(s + 1) for s in P.source) + len(cols) - rank_c)


def profile(P: Presentation) -> CohomologyProfile:
    """The classifying quadruple (h0 F(-1), h1 F, h0(F x Omega^1(1)), h1 F(1)),
    in closed form: like `h0`, the twists' numbers unless phi is injective."""
    return CohomologyProfile(
        a=h0(P, -1),
        b=h1(P, 0),
        c=h0_omega(P),
        e=h1(P, 1),
    )


# ---------------------------------------------------------------------------
# duality and determinant
# ---------------------------------------------------------------------------


def dual(P: Presentation) -> Presentation:
    """The dual presentation: twists t -> -2 - t (in order) and transpose.

    Realizes F -> Ext^1(F, omega) twisted by O(1) on resolutions: the dual
    of 0 -> A -> B -> F -> 0 is 0 -> B' -> A' -> G -> 0 with summand twist
    -2 - t for each original twist t.  It is an involution, and the Euler
    characteristics satisfy chi(F) + chi(G) = r.
    """
    new_source = tuple(-2 - d for d in P.target)
    new_target = tuple(-2 - s for s in P.source)
    return Presentation(new_source, new_target, P.matrix.transpose())


def fitting_determinant(P: Presentation) -> Form:
    """Determinant of the matrix: the equation of the support curve.

    Homogeneous of degree sum(d_i) - sum(s_j); nonzero iff the matrix is
    injective as a sheaf map.  Callers that need only that bit use
    `is_injective`, which rarely expands the determinant.
    """
    _require_square(P)
    return det_poly(P.matrix)


# ---------------------------------------------------------------------------
# serialization (interchange format, frozen)
# ---------------------------------------------------------------------------


def presentation_to_dict(P: Presentation) -> dict:
    doc: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "field": P.field.to_json(),
        "source_twists": list(P.source),
        "target_twists": list(P.target),
        "matrix": [
            [P.matrix.entry(i, j).to_encoding() for j in range(P.matrix.ncols)]
            for i in range(P.matrix.nrows)
        ],
    }
    if P.metadata:
        doc["metadata"] = P.metadata
    return doc


def presentation_from_dict(doc: dict) -> Presentation:
    if not isinstance(doc, dict):
        raise ValueError(f"a presentation is a JSON object, not {type(doc).__name__}")
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc.get('format_version')!r}")
    field = field_from_json(doc["field"])
    source = tuple(json_int(x, "twist") for x in doc["source_twists"])
    target = tuple(json_int(x, "twist") for x in doc["target_twists"])
    if source and target and max(target) - min(source) > MAX_CELL_DEGREE:
        raise BudgetExceededError(f"cell degree {max(target) - min(source)} is past the "
                                  f"load budget {MAX_CELL_DEGREE}")
    if len(source) * len(target) > MAX_LOAD_CELLS:
        raise BudgetExceededError(f"{len(target)} x {len(source)} cells are past the load budget "
                                  f"{MAX_LOAD_CELLS}")
    if sum(dim_forms(d - s) for d in target for s in source) > MAX_LOAD_COEFFICIENTS:
        raise BudgetExceededError(f"the cells hold more coefficients than the load budget "
                                  f"{MAX_LOAD_COEFFICIENTS}")
    raw = doc["matrix"]
    if type(raw) is not list or len(raw) != len(target):
        raise ValueError("matrix row count does not match target twists")
    return Presentation(source, target, PolyMatrix(field, _decode_cells(field, source, target, raw)),
                        metadata=doc.get("metadata"))


def _decode_cells(field: Field, source: Sequence[int], target: Sequence[int], raw: list) -> List[List[Form]]:
    """The cells of `raw`, rows of `to_encoding` lists, as views of one
    read-only buffer (module docstring).

    Cell (i, j) has one slot per monomial of degree target[i] - source[j];
    a slot no term fills is zero, and a cell of as many terms as slots fills
    them all.  Every listed exponent must be a monomial of the cell's degree,
    even under a zero coefficient, and be listed once, so a cell of negative
    degree lists no term.
    """
    zero, decode = field.zero(), field.decode_coeff
    flat: list = []
    layout = []  # (degree, is_zero) per cell, row by row
    for row, d in zip(raw, target):
        if type(row) is not list or len(row) != len(source):
            raise ValueError("matrix column count does not match source twists")
        for cell, s in zip(row, source):
            if type(cell) is not list:
                raise ValueError(f"a cell is a list of terms, not {cell!r}")
            degree = d - s
            index = monomial_index(degree) if degree >= 0 else {}
            slots = [None] * len(index)
            for term in cell:
                # Only a failed check looks at the whole term: a valid one costs no test.
                try:
                    c, ex, ey, ez = term
                except (TypeError, ValueError):
                    c = ex = ey = ez = None
                e = (ex, ey, ez)
                if not (type(ex) is type(ey) is type(ez) is int):
                    raise ValueError(f"exponents must be integers, not {e!r}" if type(term) is list and len(term) == 4
                                     else f"a term is a list [coefficient, e_X, e_Y, e_Z], not {term!r}")
                k = index.get(e)
                if k is None:
                    raise ValueError(f"exponent {e} does not have degree {degree}")
                if slots[k] is not None:
                    raise ValueError(f"monomial {e} is listed twice")
                slots[k] = decode(c)
            layout.append((degree, not any(slots)))
            flat += slots if len(cell) == len(slots) else [zero if v is None else v for v in slots]
    forms = form_views(field, np.array(flat, dtype=field.dtype), layout)
    m = len(source)
    return [forms[k:k + m] for k in range(0, len(forms), m)]


def dumps(P: Presentation) -> str:
    """Canonical byte-stable serialization (sorted keys, no whitespace)."""
    return json.dumps(presentation_to_dict(P), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Presentation:
    return presentation_from_dict(json.loads(text))


def save(P: Presentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(P))


def load(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
