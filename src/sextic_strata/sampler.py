"""Seeded random presentations for each stratum, plus deterministic constructors.

Samplers draw only the free cells of each stratum's normal form (forced
zeros and forced constants are never randomized) and rejection-sample
against the shape validators, so every accepted presentation carries the
exact twist shape, passes all matrix conditions, and has nonzero
determinant.  Sampling is reproducible: identical (seed, field, stratum)
yields identical presentation bytes.  Over Q the free cells get small
integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from .errors import DivisibilityFailure, MembershipFailure, RejectionBudgetExceeded
from .fields import Field, field_name
from .forms import Form, block_mult_map, dim_forms, divides, form_views
from .polymatrix import PolyMatrix
from .presentation import Presentation, fitting_determinant
from .rng import SplitMix64
from .strata import SHAPES, StratumLabel, validate_shape

MAX_REJECTS = 1000  # rejections `sample` allows before it gives up


@dataclass(frozen=True)
class SampleRequest:
    """What to sample: stratum, field and seed."""

    label: StratumLabel
    field: Field
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "label", StratumLabel(self.label))


def random_forms(field: Field, degrees: Sequence[int], rng: SplitMix64) -> List[Form]:
    """Forms of `degrees` with uniform coefficients, small integers over Q,
    drawn in one block in order as views of one read-only buffer."""
    sizes = [dim_forms(d) for d in degrees]
    total = sum(sizes)
    if field.kind == "prime":
        buf = field.from_draws(rng.next_below_block(field.p, total), total)
    else:
        buf = field.from_draws(rng.next_below_block(19, total), total) - 9
    nonzero = np.logical_or.reduceat(buf != 0, list(accumulate(sizes[:-1], initial=0))).tolist() if total else []
    return form_views(field, buf, [(d, not nz) for d, nz in zip(degrees, nonzero)])


def random_form(field: Field, degree: int, rng: SplitMix64) -> Form:
    """Uniform coefficients in monomial order; small integers over Q."""
    return random_forms(field, [degree], rng)[0]


def _build_matrix(
    label: StratumLabel,
    field: Field,
    rng: SplitMix64,
    case: Optional[str],
) -> PolyMatrix:
    source, target = SHAPES[label]
    # Cells of the normal form that are zero or constant beyond the grid.
    zeros, constants = set(), {}
    if label is StratumLabel.X2:
        zeros = {(0, 3), (1, 3)}
    elif label is StratumLabel.X4:
        if case == "i":
            zeros = {(0, 0), (0, 1), (1, 2), (2, 2)}
            constants[(0, 2)] = 1
        else:
            zeros = {(0, 2)}
    cells = [[(d - s, (i, j)) for j, s in enumerate(source)] for i, d in enumerate(target)]
    free = [deg for row in cells for deg, ij in row if deg >= 0 and ij not in zeros and ij not in constants]
    drawn = iter(random_forms(field, free, rng))
    entries = [[Form.zero(field, deg) if deg < 0 or ij in zeros
                else Form.constant(field, constants[ij]) if ij in constants else next(drawn)
                for deg, ij in row] for row in cells]
    return PolyMatrix(field, entries)


def sample(req: SampleRequest) -> Presentation:
    """Rejection-sample a presentation of the requested stratum.

    Deterministic in (seed, field, label).  Raises RejectionBudgetExceeded
    with the reject count and the last violation list after MAX_REJECTS + 1
    rejections.
    """
    rng = SplitMix64(req.seed)
    source, target = SHAPES[req.label]
    fixed = {"stratum": req.label.value, "seed": req.seed, "field": field_name(req.field)}
    rejects = 0
    last_violations = []
    while rejects <= MAX_REJECTS:
        case = None
        if req.label is StratumLabel.X4:
            case = "i" if rng.next_below(2) == 0 else "ii"
        metadata = dict(fixed, rejects=rejects)
        if case is not None:
            metadata["case"] = case
        P = Presentation(source, target, _build_matrix(req.label, req.field, rng, case), metadata=metadata)
        violations = validate_shape(P, req.label)
        if not violations:
            return P
        rejects += 1
        last_violations = violations
    raise RejectionBudgetExceeded(rejects, last_violations)


# ---------------------------------------------------------------------------
# deterministic X5 constructor
# ---------------------------------------------------------------------------


def construct_x5(f: Form, l: Form, q: Form) -> Presentation:
    """Solve f = h*q - l*g and return the X5 presentation [[h, l], [g, q]].

    The linear system has 36 unknowns (h of degree 4, g of degree 5) and
    28 equations; its solution space is a torsor under c |-> (l*c, q*c),
    and the deterministic representative sets all free variables of the
    echelon solve to zero.  The resulting presentation satisfies
    fitting_determinant = f exactly.

    Raises DivisibilityFailure when l = 0 or l divides q, and
    MembershipFailure when f is not in the degree-6 slice of (l, q).
    """
    field = f.field
    if l.is_zero:
        raise DivisibilityFailure("l = 0")
    if l.degree != 1 or q.degree != 2 or f.degree != 6:
        raise ValueError("need degrees (f, l, q) = (6, 1, 2)")
    if divides(l, q):
        raise DivisibilityFailure("l divides q")
    A = block_mult_map(field, [[q, -l]], [4, 5], [6])
    sol = A.solve(f.array)
    if sol is None:
        raise MembershipFailure("f is not in the degree-6 slice of the ideal (l, q)")
    h = Form.from_coeff_vector(field, 4, sol[:15])
    g = Form.from_coeff_vector(field, 5, sol[15:])
    source, target = SHAPES[StratumLabel.X5]
    P = Presentation(source, target, PolyMatrix(field, [[h, l], [g, q]]))
    det = fitting_determinant(P)
    if det != f:  # pragma: no cover - guaranteed by the solve
        raise AssertionError("internal error: determinant does not reproduce f")
    return P
