"""Stratification of degree-6, Euler-characteristic-1 plane sheaves.

The moduli space M(6,1) of semistable one-dimensional plane sheaves with
Hilbert polynomial 6m+1 decomposes into six strata, each pinned down by
the cohomological quadruple

    (h0 F(-1), h1 F, h0(F x Omega^1(1)), h1 F(1))

and each realized by one frozen resolution shape with algebraic side
conditions on the matrix:

    X0  (0,0,0,0)  5O(-2) -> 4O(-1)+O          phi_11 semistable Kronecker
    X1  (0,1,0,0)  O(-3)+2O(-2) -> O(-1)+2O    none of four forbidden patterns
    X2  (0,1,1,0)  O(-3)+2O(-2)+O(-1) -> 2O(-1)+2O   three pencil conditions
    X3  (0,2,2,0)  2O(-3)+2O(-1) -> O(-2)+3O   independent entries / minors
    X4  (1,2,3,0)  2O(-3)+O(-2) -> O(-2)+O(-1)+O(1)  split on the constant c
    X5  (1,3,4,1)  O(-4)+O(-1) -> O+O(1)       l != 0 and l does not divide q

The classifier's domain is semistable sheaves.  It maps the profile of a
valid injective presentation to the unique row above and rejects every
other profile.  When the presentation has exactly the row's twist shape,
it also checks that row's matrix conditions and rejects a cokernel that
fails them as not semistable.  That gate is the only place the
classifier runs the conditions.  On each row's shape every condition is
invariant under Aut(source) x Aut(target), so none needs normal
position: X0's is the certified Kronecker decision on the linear block,
which the group moves by GL_4 x GL_5; X1, X3 and X5 have only forms of
positive degree; X2's constant block is zero on its row (a nonzero
constant there moves the profile to X1's); and X4's constant c only
scales, so its two cases are told apart by c = 0 or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, islice
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .errors import (
    NotInjectiveError,
    NotSemistable,
    NotSquareError,
    ProfileNotInTable,
    WrongShapeError,
)
from .forms import Form, block_mult_map, dim_forms, forms_rank, divides, common_factor
from .kronecker import KroneckerModule, is_semistable, moduli_dimension
from .polymatrix import maximal_minors
from .presentation import (
    CohomologyProfile,
    Presentation,
    hilbert_polynomial,
    is_injective,
    profile,
    validate,
)


class StratumLabel(str, Enum):
    X0 = "X0"
    X1 = "X1"
    X2 = "X2"
    X3 = "X3"
    X4 = "X4"
    X5 = "X5"


class PatternId(str, Enum):
    """The four forbidden zero patterns for the X1 shape."""

    P1 = "P1"  # zeros at (0,1), (0,2)
    P2 = "P2"  # zeros at (0,2), (1,2)
    P3 = "P3"  # zeros at (2,1), (2,2)
    P4 = "P4"  # zeros at (0,0), (0,1)


# Frozen twist shapes (source, target), order significant.
SHAPES: Dict[StratumLabel, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {
    StratumLabel.X0: ((-2, -2, -2, -2, -2), (-1, -1, -1, -1, 0)),
    StratumLabel.X1: ((-3, -2, -2), (-1, 0, 0)),
    StratumLabel.X2: ((-3, -2, -2, -1), (-1, -1, 0, 0)),
    StratumLabel.X3: ((-3, -3, -1, -1), (-2, 0, 0, 0)),
    StratumLabel.X4: ((-3, -3, -2), (-2, -1, 1)),
    StratumLabel.X5: ((-4, -1), (0, 1)),
}

EXPECTED_PROFILES: Dict[StratumLabel, Tuple[int, int, int, int]] = {
    StratumLabel.X0: (0, 0, 0, 0),
    StratumLabel.X1: (0, 1, 0, 0),
    StratumLabel.X2: (0, 1, 1, 0),
    StratumLabel.X3: (0, 2, 2, 0),
    StratumLabel.X4: (1, 2, 3, 0),
    StratumLabel.X5: (1, 3, 4, 1),
}

# The first three entries of a profile already tell the rows apart.
PROFILE_TO_LABEL: Dict[Tuple[int, int, int], StratumLabel] = {
    p[:3]: label for label, p in EXPECTED_PROFILES.items()
}


def _require_shape(P: Presentation, label: StratumLabel) -> None:
    wrong = _wrong_shape(P, label)
    if wrong:
        raise WrongShapeError(wrong[0])


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def classify(P: Presentation) -> StratumLabel:
    """Map a valid injective presentation of a semistable sheaf to its stratum.

    Raises ProfileNotInTable when the quadruple matches no row; that error
    signals the cokernel is not a semistable sheaf with Hilbert polynomial
    6m+1, or an arithmetic bug, and carries the offending profile.  Raises
    its subclass NotSemistable when the presentation has the canonical
    twist shape of its row but fails that row's matrix conditions, so the
    cokernel is not semistable; it carries the profile and the violated
    conditions.
    """
    return _classify(P)[0]


def _classify(P: Presentation) -> Tuple[StratumLabel, CohomologyProfile]:
    """`classify`, also returning the profile it computed."""
    if not P.is_square:
        raise NotSquareError("classification needs a square presentation")
    if not is_injective(P):
        raise NotInjectiveError("matrix has det = 0; the cokernel is not one-dimensional")
    pr = profile(P)
    label = PROFILE_TO_LABEL.get((pr.a, pr.b, pr.c))
    if label is None:
        raise ProfileNotInTable(pr.as_tuple())
    if label is StratumLabel.X5:
        if pr.e <= 0:
            raise ProfileNotInTable(pr.as_tuple())
    elif pr.e != 0:
        raise ProfileNotInTable(pr.as_tuple())
    if not _wrong_shape(P, label):
        violations = _conditions(P, label, first_x1_pattern=True)
        if violations:
            raise NotSemistable(pr.as_tuple(), violations)
    return label, pr


def classification_report(P: Presentation) -> dict:
    """Structured classification result including the wrong-shape finding.

    Each quantity is computed once.  With det != 0 certified, its degree is
    r = sum d_i - sum s_j of the Hilbert polynomial, and `validate(P)` is
    empty.  On the row's canonical shape the gate has just proved its
    conditions hold, so the only possible violation is a wrong twist shape.
    """
    label, pr = _classify(P)
    hp = hilbert_polynomial(P)
    return {
        "schema_version": 1,
        "kind": "classification",
        "label": label.value,
        "profile": pr.as_list(),
        "hilbert": hp.as_list(),
        "det_degree": hp.r,
        "violations": _wrong_shape(P, label),
    }


# ---------------------------------------------------------------------------
# per-stratum matrix conditions
# ---------------------------------------------------------------------------


def x0_condition(P: Presentation) -> bool:
    """Semistability of the 4 x 5 linear block as a Kronecker module.

    The certified decision of `kronecker.is_semistable`: a full-rank
    blow-up element proves semistability and a verified witness proves
    instability.  Raises BudgetExceededError when neither certificate
    appears and the field is too large to enumerate; nothing is accepted
    by default.
    """
    _require_shape(P, StratumLabel.X0)
    K = KroneckerModule(P.matrix.submatrix(range(4), range(5)))
    return is_semistable(K).verdict == "semistable"


def x1_patterns(P: Presentation) -> Set[PatternId]:
    """Which forbidden zero patterns the X1-shaped matrix is equivalent to.

    The group acting is Aut(O(-3)+2O(-2)) x Aut(O(-1)+2O).  Working out
    which entries of h*phi*g can be cleared yields linear-algebra
    characterizations (cross-validated against the exhaustive orbit
    oracle over F_2):

      P1  <=>  l1 = l2 = 0
      P2  <=>  some (a,b) != 0 kills a*l1 + b*l2 and makes the pair
               (a*q11 + b*q12, a*q21 + b*q22) linearly dependent
      P3  <=>  alpha*(q11,q12) + beta*(q21,q22) + v*(l1,l2) = (0,0) has a
               solution with scalars (alpha,beta) != 0 and v a one-form
      P4  <=>  l1, l2 dependent and q lies in <l1, l2> * V*

    An empty set means the matrix is admissible for X1.
    """
    _require_shape(P, StratumLabel.X1)
    return set(_x1_forbidden_patterns(P))


def _x1_forbidden_patterns(P: Presentation) -> Iterator[PatternId]:
    """Yield the forbidden patterns of x1_patterns lazily, in order P1..P4."""
    M = P.matrix
    q = M.entry(0, 0)
    l1, l2 = M.entry(0, 1), M.entry(0, 2)
    q11, q12 = M.entry(1, 1), M.entry(1, 2)
    q21, q22 = M.entry(2, 1), M.entry(2, 2)
    field = P.field

    if l1.is_zero and l2.is_zero:
        yield PatternId.P1

    if _pencil_degenerates(field, l1, l2, q11, q12, q21, q22):
        yield PatternId.P2

    if _row_clearing_exists(field, l1, l2, q11, q12, q21, q22):
        yield PatternId.P3

    if forms_rank([l1, l2]) <= 1 and _in_linear_ideal_slice(field, q, l1, l2):
        yield PatternId.P4


def _pencil_degenerates(field, l1, l2, q11, q12, q21, q22) -> bool:
    """P2 test: search the kernel of (a,b) -> a*l1 + b*l2 for a degenerate pair."""
    kernel = block_mult_map(field, [[l1, l2]], [0, 0], [1]).kernel_basis()
    if not kernel:
        return False

    def dependent_at(a, b) -> bool:
        Q1 = q11.scale(a) + q12.scale(b)
        Q2 = q21.scale(a) + q22.scale(b)
        return forms_rank([Q1, Q2]) <= 1

    if len(kernel) == 1:
        a, b = kernel[0]
        return dependent_at(a, b)

    # Kernel is the whole plane (l1 = l2 = 0): look for a rank-one member
    # of the pencil.  P^1(F_2) has three points; elsewhere 2 is invertible.
    if field.kind == "prime" and field.p == 2:
        return any(dependent_at(a, b) for a, b in ((1, 0), (1, 1), (0, 1)))
    return _pencil_has_rank_one_member(field, q11, q12, q21, q22, dependent_at)


def _pencil_has_rank_one_member(field, q11, q12, q21, q22, dependent_at) -> bool:
    """Search for rank-one members of a 2 x 2 pencil of quadrics, char != 2.

    The dependency locus is cut out by binary quadratics (the 2 x 2 minors
    of the stacked coefficient rows); candidates are the roots in the field
    of the first nonzero minor, each verified directly.  That is at most
    two checks, however large the field.
    """
    F = field
    u1, u2, v1, v2 = block_mult_map(field, [[q11, q12, q21, q22]], [0] * 4, [2]).a.T.tolist()

    def minor(x, y, i, j):
        return x[i] * y[j] - x[j] * y[i]

    quadratics = (
        tuple(map(F.normalize, (minor(u1, v1, i, j), minor(u1, v2, i, j) + minor(u2, v1, i, j),
                                minor(u2, v2, i, j))))
        for i, j in combinations(range(len(u1)), 2)
    )
    first = next((abc for abc in quadratics if any(abc)), None)
    if first is None:
        return dependent_at(1, 0)
    alpha, beta, gamma = first
    candidates = []
    if not alpha:
        candidates.append((1, 0))
        if beta:
            candidates.append((F.normalize(-gamma * F.inv(beta)), 1))
    else:
        disc = F.normalize(beta * beta - 4 * alpha * gamma)
        root = _rational_sqrt(disc) if F.kind == "rational" else _sqrt_mod(disc, F.p)
        if root is not None:
            inv_two_alpha = F.inv(2 * alpha)
            candidates.append((F.normalize((root - beta) * inv_two_alpha), 1))
            candidates.append((F.normalize(-(beta + root) * inv_two_alpha), 1))
    return any(dependent_at(a, b) for a, b in candidates)


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    import math

    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sqrt_mod(x: int, p: int) -> Optional[int]:
    """A square root of x modulo the odd prime p (Tonelli-Shanks), or None."""
    x %= p
    if x == 0:
        return 0
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(x, q, p), pow(x, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _row_clearing_exists(field, l1, l2, q11, q12, q21, q22) -> bool:
    """P3 test: solutions of alpha*(q11,q12) + beta*(q21,q22) + v*(l1,l2) = 0.

    Columns: v against X, Y, Z, then the two stacked quadric pairs.  A
    solution with (alpha, beta) != 0 exists iff the kernel is strictly
    larger than the kernel of the v-only columns, that is iff the two
    quadric columns are not both pivots.
    """
    M = block_mult_map(field, [[l1, q11, q21], [l2, q12, q22]], [1, 0, 0], [2, 2])
    return not {3, 4} <= set(M.rref()[1])


def _in_linear_ideal_slice(field, q, l1, l2) -> bool:
    """Whether q lies in the degree-2 slice of the ideal (l1, l2).

    q is in the image of (l1, l2) on pairs of one-forms iff its column,
    the last, is not a pivot.
    """
    M = block_mult_map(field, [[l1, l2, q]], [1, 1, 0], [2])
    return M.ncols - 1 not in M.rref()[1]


def x2_conditions(P: Presentation) -> List[str]:
    """The zero constant block and the three pencil conditions of X2.

    (i) the last-column one-forms are independent; (ii) the linear 2x2
    block has nonzero determinant delta; (iii) the two mixed 2x2 minors
    are independent modulo delta * V*, checked as a rank-5 condition on
    the cubics {m1, m2, delta*X, delta*Y, delta*Z}.  A nonzero constant
    block never reaches the gate: it moves the profile to X1's.
    """
    _require_shape(P, StratumLabel.X2)
    M = P.matrix
    violations = []
    for cell in ((0, 3), (1, 3)):
        if not M.entry(*cell).is_zero:
            violations.append(f"not in normal position: expected zero block at {cell}")
    q1, q2 = M.entry(0, 0), M.entry(1, 0)
    l11, l12 = M.entry(0, 1), M.entry(0, 2)
    l21, l22 = M.entry(1, 1), M.entry(1, 2)
    l1, l2 = M.entry(2, 3), M.entry(3, 3)
    if forms_rank([l1, l2]) != 2:
        violations.append("l_1, l_2 dependent")
    delta = l11 * l22 - l12 * l21
    if delta.is_zero:
        violations.append("linear block determinant vanishes")
    m1 = q1 * l21 - q2 * l11
    m2 = q1 * l22 - q2 * l12
    if block_mult_map(P.field, [[m1, m2, delta]], [0, 0, 1], [3]).rank() != 5:
        violations.append("minors dependent mod (delta)V*")
    return violations


def x3_conditions(P: Presentation) -> List[str]:
    """Independent linear entries up top, independent maximal minors below."""
    _require_shape(P, StratumLabel.X3)
    M = P.matrix
    violations = []
    if forms_rank([M.entry(0, 0), M.entry(0, 1)]) != 2:
        violations.append("phi_11 entries dependent")
    block = M.submatrix(range(1, 4), range(2, 4))
    if forms_rank(maximal_minors(block)) != 3:
        violations.append("phi_22 maximal minors dependent")
    return violations


def x4_conditions(P: Presentation) -> List[str]:
    """The X4 conditions, invariant under Aut(source) x Aut(target).

    The group only scales the constant c at cell (0,2).  Case i, c != 0:
    c splits off O(-2) -> O(-2), leaving the minimal resolution
    2O(-3) -> O(-1)+O(1) whose top row holds the quadrics
    q_j = phi_1j - phi_12 * phi_0j / c.  They must not both vanish and
    must share no factor: a common factor cutting out a line or a conic C
    gives a quotient O_C(-1) of slope 0 or -1/2, below the sheaf's 1/6.
    Case ii, c = 0: independent one-forms l1, l2 up top, l = phi_12 != 0,
    and no linear forms u, v1, v2 solve (q1, q2) = u*(l1, l2) + l*(v1, v2).
    """
    _require_shape(P, StratumLabel.X4)
    M = P.matrix
    c, l = M.entry(0, 2), M.entry(1, 2)
    l1, l2 = M.entry(0, 0), M.entry(0, 1)
    q1, q2 = M.entry(1, 0), M.entry(1, 1)
    if not c.is_zero:
        k = P.field.inv(c.array.item(0))
        q1, q2 = q1 - (l * l1).scale(k), q2 - (l * l2).scale(k)
        if q1.is_zero and q2.is_zero:
            return ["q_1 = q_2 = 0"]
        return ["q_1, q_2 have a common factor"] if common_factor(q1, q2) else []
    violations = []
    if forms_rank([l1, l2]) != 2:
        violations.append("l_1, l_2 dependent")
    if l.is_zero:
        violations.append("l = 0")
    if not violations and _x4_syzygy_solvable(P.field, l1, l2, l, q1, q2):
        violations.append("linear forms u, v_1, v_2 solve (q_1, q_2) = u(l_1, l_2) + l(v_1, v_2)")
    return violations


def _x4_syzygy_solvable(field, l1, l2, l, q1, q2) -> bool:
    # 12 equations (two stacked quadrics), 9 unknowns (coefficients of u, v1,
    # v2); (q1, q2) is in their span iff its column, the last, is not a pivot.
    zero = Form.zero(field, 1)
    M = block_mult_map(field, [[l1, l, zero, q1], [l2, zero, l, q2]], [1, 1, 1, 0], [2, 2])
    return M.ncols - 1 not in M.rref()[1]


def x5_conditions(P: Presentation) -> List[str]:
    """l nonzero and not dividing q."""
    _require_shape(P, StratumLabel.X5)
    l = P.matrix.entry(0, 1)
    q = P.matrix.entry(1, 1)
    violations = []
    if l.is_zero:
        violations.append("l = 0")
    elif divides(l, q):
        violations.append("l divides q")
    return violations


def validate_shape(P: Presentation, label: StratumLabel) -> List[str]:
    """Twist shape, injectivity and the stratum's matrix conditions.

    Returns all violations as data, every forbidden X1 pattern included;
    an empty list certifies the presentation as a member of the stratum's
    family on its canonical shape.  The samplers reject draws with it.
    """
    return _wrong_shape(P, label) or validate(P) or _conditions(P, label)


def _wrong_shape(P: Presentation, label: StratumLabel) -> List[str]:
    src, tgt = SHAPES[label]
    if P.source != src or P.target != tgt:
        return [f"wrong twist shape: expected {src} -> {tgt}, got {P.source} -> {P.target}"]
    return []


def _conditions(P: Presentation, label: StratumLabel, first_x1_pattern: bool = False) -> List[str]:
    """The row's matrix conditions on a valid presentation of its shape.

    With `first_x1_pattern`, X1 reports only the first forbidden pattern,
    P1 first, which is all the classifier's gate needs.
    """
    if label is StratumLabel.X0:
        return [] if x0_condition(P) else ["phi_11 is not semistable as a Kronecker module"]
    if label is StratumLabel.X1:
        pats = islice(_x1_forbidden_patterns(P), 1) if first_x1_pattern else x1_patterns(P)
        return [f"matrix is equivalent to forbidden pattern {p.value}" for p in sorted(pats)]
    if label is StratumLabel.X2:
        return x2_conditions(P)
    if label is StratumLabel.X3:
        return x3_conditions(P)
    if label is StratumLabel.X4:
        return x4_conditions(P)
    return x5_conditions(P)


# ---------------------------------------------------------------------------
# dimension arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumDimensions:
    label: StratumLabel
    codim: int
    dim: int
    base_dim: Optional[int]
    fibre_dim: Optional[int]
    description: str

    def as_dict(self) -> dict:
        return {
            "label": self.label.value,
            "codim": self.codim,
            "dim": self.dim,
            "base_dim": self.base_dim,
            "fibre_dim": self.fibre_dim,
            "description": self.description,
        }


AMBIENT_DIM = 6 * 6 + 1  # multiplicity^2 + 1 for these moduli of plane sheaves


def stratum_dimensions() -> List[StratumDimensions]:
    """The fibration arithmetic of all six strata, with exact summands.

    Kronecker base dimensions come from moduli_dimension; the Grassmannian
    and Hilbert-flag contributions are computed from first principles;
    projectivized fibre dimensions of the bundle constructions are fixed
    integers.  Every row satisfies dim + codim = 37 and, where a fibration
    is known, base + fibre = dim.
    """
    rows = []

    base0 = moduli_dimension(3, 5, 4)  # 20
    fibre0 = 5 * dim_forms(2) - 4 * dim_forms(1) - 1  # rank-18 bundle, so P^17
    rows.append(StratumDimensions(
        StratumLabel.X0, 0, base0 + fibre0, base0, fibre0,
        "open stratum: P^17 bundle over the Kronecker moduli space N(3,5,4)",
    ))

    rows.append(StratumDimensions(
        StratumLabel.X1, 2, AMBIENT_DIM - 2, None, None,
        "locally closed, codimension 2",
    ))

    hom_dim = 2 * dim_forms(2) + 4 * dim_forms(1)            # Hom(O(-3)+2O(-2), 2O(-1))
    aut_dim = (1 + 4 + 2 * dim_forms(1)) + 4 - 1             # (Aut x Aut)/scalars
    base2 = (hom_dim - aut_dim) + 2                          # Y x P^2
    rows.append(StratumDimensions(
        StratumLabel.X2, 4, base2 + 21, base2, 21,
        "P^21 bundle over Y x P^2, Y the 10-dimensional pencil quotient",
    ))

    base3 = 2 + moduli_dimension(3, 2, 3)                    # P^2 x N(3,2,3)
    rows.append(StratumDimensions(
        StratumLabel.X3, 6, base3 + 23, base3, 23,
        "P^23 bundle over P^2 x N(3,2,3)",
    ))

    grass = 2 * (dim_forms(2) - 2)                           # Grass(2, 6)
    rows.append(StratumDimensions(
        StratumLabel.X4, 6, grass + 23, grass, 23,
        "birational to a P^23 bundle over Grass(2,6)",
    ))

    hilb2 = 4                                                # Hilb^2 of the plane
    sextics_through = (dim_forms(6) - 1) - 2                 # P^27 cut by 2 conditions
    rows.append(StratumDimensions(
        StratumLabel.X5, 8, hilb2 + sextics_through, hilb2, sextics_through,
        "flags of sextic curves through length-2 subschemes",
    ))
    return rows
