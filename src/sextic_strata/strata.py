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

The classifier's domain is semistable sheaves with Hilbert polynomial
6m+1.  `decide` is its one path, and every caller reads its `Decision`:
it maps the profile of a valid injective presentation with that Hilbert
polynomial to the unique row above and rejects every other presentation.
On the row's twist shape, up to the order of its twists, it also checks
the row's matrix conditions and rejects a cokernel that fails them as
not semistable; no other place runs them.  On each row's shape every
condition is invariant under Aut(source) x Aut(target), so none needs
normal position: X0's is the certified Kronecker decision on the linear block,
which the group moves by GL_4 x GL_5; X1, X3 and X5 have only forms of
positive degree; X2's constant block is zero on its row (a nonzero
constant there moves the profile to X1's); and X4's constant c only
scales, so its two cases are told apart by c = 0 or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .errors import (
    NotInjectiveError,
    NotSemistable,
    NotSquareError,
    ProfileNotInTable,
    WrongShapeError,
)
from .forms import Form, block_mult_map, dim_forms, forms_rank, divides, common_factor, product_rows
from .kronecker import KroneckerModule, is_semistable, moduli_dimension
from .linalg import eliminate_lists
from .presentation import (
    CohomologyProfile,
    HilbertPoly,
    Presentation,
    hilbert_polynomial,
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

PROFILE_TO_LABEL: Dict[Tuple[int, int, int, int], StratumLabel] = {
    p: label for label, p in EXPECTED_PROFILES.items()
}


def _require_shape(P: Presentation, label: StratumLabel) -> None:
    wrong = _wrong_shape(P, label)
    if wrong:
        raise WrongShapeError(wrong[0])


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


class Decision(NamedTuple):
    """What `decide` proved about a presentation.

    `error` is the contract outcome `classify` raises, held as a value
    (NotSquareError, NotInjectiveError, ProfileNotInTable, NotSemistable),
    or None.  `label` is the profile's row, under NotSemistable too;
    `profile` and `hilbert` are None until computed.  `violations` are the
    row's failed conditions under NotSemistable, `validate`'s finding under
    NotInjectiveError, and otherwise the wrong-shape finding: on the row's
    sorted shape the gate has proved the conditions.
    """

    error: Optional[Exception]
    label: Optional[StratumLabel]
    profile: Optional[CohomologyProfile]
    hilbert: Optional[HilbertPoly]
    violations: List[str]

    def report(self) -> dict:
        """The `classification` document, or the `classification_error`
        document of `error` (docs/reports.md)."""
        if self.error is None:
            return {"schema_version": 1, "kind": "classification", "label": self.label.value,
                    "profile": list(self.profile), "hilbert": list(self.hilbert),
                    "det_degree": self.hilbert.r, "violations": self.violations}
        doc = {"schema_version": 1, "kind": "classification_error",
               "error": type(self.error).__name__, "message": str(self.error)}
        if self.profile is not None:
            doc.update(profile=list(self.profile), hilbert=list(self.hilbert))
        if self.label is not None:
            doc["violations"] = self.violations
        return doc


def decide(P: Presentation) -> Decision:
    """The classifier's steps, each run once, in order: squareness,
    injectivity, profile and Hilbert polynomial, the row, the sorted twist
    shape, then the row's conditions.  A contract outcome is returned as
    `Decision.error`; X0's BudgetExceededError still raises.  det != 0 is
    certified without expanding it, and its degree is the r of 6m+1.
    """
    try:
        hp = hilbert_polynomial(P)
    except NotSquareError as exc:
        return Decision(exc, None, None, None, [])
    found = validate(P)
    if found:
        return Decision(NotInjectiveError("matrix has det = 0; the cokernel is not one-dimensional"),
                        None, None, None, found)
    pr = profile(P)
    label = PROFILE_TO_LABEL.get(pr) if hp == (6, 1) else None
    if label is None:
        return Decision(ProfileNotInTable(pr, hp), None, pr, hp, [])
    Q = _ascending_twists(P)
    # compared sorted, quoted as the input lists them
    if (Q.source, Q.target) != SHAPES[label]:
        return Decision(None, label, pr, hp, _wrong_shape(P, label))
    violations = _conditions(Q, label)
    return Decision(NotSemistable(pr, violations) if violations else None, label, pr, hp, violations)


def classify(P: Presentation) -> StratumLabel:
    """The stratum `decide` proves for a presentation; raises its `error` otherwise.

    ProfileNotInTable (the Hilbert polynomial is not 6m+1 or the quadruple
    matches no row) signals that the cokernel is not a semistable sheaf with
    Hilbert polynomial 6m+1, or an arithmetic bug.  Its subclass
    NotSemistable carries the failed conditions of the row whose shape the
    presentation has, every forbidden X1 pattern included.
    """
    decision = decide(P)
    if decision.error is not None:
        raise decision.error
    return decision.label


def _ascending_twists(P: Presentation) -> Presentation:
    """P with its twists in stable ascending order, columns and rows permuted
    to match (P itself if already so), as every row of SHAPES is; neither
    the profile nor a row's conditions change under the permutation."""
    if P.source == tuple(sorted(P.source)) and P.target == tuple(sorted(P.target)):
        return P
    cols = sorted(range(len(P.source)), key=P.source.__getitem__)
    rows = sorted(range(len(P.target)), key=P.target.__getitem__)
    return Presentation([P.source[j] for j in cols], [P.target[i] for i in rows],
                        P.matrix.submatrix(rows, cols))


def classification_report(P: Presentation) -> dict:
    """The `classification` document of `decide(P)`; raises what `classify` raises."""
    decision = decide(P)
    if decision.error is not None:
        raise decision.error
    return decision.report()


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
    oracle over F_2), with L = (l1, l2):

      P1  <=>  L = 0
      P2  <=>  some (a,b) != 0 kills a*l1 + b*l2 and makes the pair
               (a*q11 + b*q12, a*q21 + b*q22) linearly dependent
      P3  <=>  alpha*(q11,q12) + beta*(q21,q22) + v*L = (0,0) has a
               solution with scalars (alpha,beta) != 0 and v a one-form
      P4  <=>  l1, l2 dependent and q lies in <l1, l2> * V*

    Each is decided on the cells' coefficient lists, mod p or over Q:

    * L = 0: P2 is `_pencil_degenerates`, P3 says (q11, q12) and
      (q21, q22) are dependent, P4 that q = 0.
    * l1, l2 independent: they are coprime, so f*l2 = g*l1 iff (f, g) is
      v*L; only P3 can hold, iff the cubics q_i1*l2 - q_i2*l1 are dependent.
    * L = l*(lam, mu) != 0, l = l1 unless l1 = 0: (a, b) = (l2[k], -l1[k])
      at l[k] != 0 spans ker L, and P2 says r_i = a*q_i1 + b*q_i2 are
      dependent.  A binary quadric with three zeros on P^1 is zero, so a
      quadric lies in l*V* iff it vanishes at the points u, w, u+w of
      l = 0, which every field has; P4 says q does.  A pair (f, g) with
      a*f + b*g = 0 is h*(lam, mu) with h = c*f + d*g for any
      c*lam + d*mu = 1, here (c, d) = (1, 0) or, if l1 = 0, (0, 1).  So P3
      asks for alpha*r1 + beta*r2 = 0 with alpha*s1 + beta*s2 in l*V*, for
      s_i = c*q_i1 + d*q_i2: the 9-vectors (r_i, s_i at u, w, u+w) are
      dependent.  It implies P2.

    An empty set means the matrix is admissible for X1.
    """
    _require_shape(P, StratumLabel.X1)
    M, F = P.matrix, P.field
    p = F.p if F.kind == "prime" else None
    red = (lambda v: [x % p for x in v]) if p else (lambda v: v)
    # A zero cell may carry any degree tag.
    q, l1, l2, q11, q12, q21, q22 = (f.array.tolist() if not f.is_zero else [0] * n for f, n in zip(
        (*M.entries[0], *M.entries[1][1:], *M.entries[2][1:]), (6, 3, 3, 6, 6, 6, 6)))
    if not (any(l1) or any(l2)):
        found = (True, _pencil_degenerates(F, q11, q12, q21, q22),
                 _dependent(p, q11 + q12, q21 + q22), not any(q))
    elif not _dependent(p, l1, l2):
        (a1, a2, a3), (b1, b2, b3), cubics = l2, l1, []
        for f, g in ((q11, q12), (q21, q22)):  # f*l2 - g*l1
            out = [0] * 10
            for (m1, m2, m3), x, y in zip(product_rows(2, 1).tolist(), f, g):
                out[m1] += x * a1 - y * b1
                out[m2] += x * a2 - y * b2
                out[m3] += x * a3 - y * b3
            cubics.append(red(out))
        found = (False, False, _dependent(p, *cubics), False)
    else:
        l = l1 if any(l1) else l2
        k = next(k for k, x in enumerate(l) if x)
        a, b = l2[k], -l1[k]
        r1 = red([a * x + b * y for x, y in zip(q11, q12)])
        r2 = red([a * x + b * y for x, y in zip(q21, q22)])
        u, w = ([l[k] if i == j else -l[j] if i == k else 0 for i in range(3)] for j in range(3) if j != k)
        # the frozen degree-2 monomial order: X^2, XY, XZ, Y^2, YZ, Z^2
        values = [[x * x, x * y, x * z, y * y, y * z, z * z] for x, y, z in (u, w, [s + t for s, t in zip(u, w)])]
        on_line = lambda f: red([sum(map(mul, f, vals)) for vals in values])  # f at u, w, u + w
        s1, s2 = (q11, q21) if l is l1 else (q12, q22)
        pencil = _dependent(p, r1, r2)
        found = (False, pencil, pencil and _dependent(p, r1 + on_line(s1), r2 + on_line(s2)),
                 not any(on_line(q)))
    return {pattern for pattern, hit in zip(PatternId, found) if hit}


def _dependent(p: Optional[int], u: list, v: list) -> bool:
    """Whether the lists u (reduced) and v are dependent over F_p, or over Q if p is None."""
    for a, b in zip(u, v):
        if a:
            if p:
                return not any([(a * y - b * x) % p for x, y in zip(u, v)])
            return not any([a * y - b * x for x, y in zip(u, v)])
    return True


def _pencil_degenerates(field, q11, q12, q21, q22) -> bool:
    """P2 test at L = 0 on coefficient lists: a rank-one 2 x 2 matrix
    X = (alpha, beta)^T (a, b) with alpha*(a*q11 + b*q12) + beta*(a*q21 +
    b*q22) = 0, so in the kernel W of the 6 x 4 matrix (q11 q12 q21 q22).

    With K1, K2, ... the kernel basis, decide by dim W.  dim W >= 3: true,
    since W meets the plane of matrices with zero second row, all of rank
    one.  dim W = 1: det K1 = 0.  dim W = 2: the binary quadratic
    det(s*K1 + t*K2) = A s^2 + B st + C t^2 has a nontrivial zero, that is
    A = 0 or B^2 - 4AC is a square; over F_2, its value A, C or A + B + C
    at one of the three points of P^1 is zero.
    """
    R = [list(row) for row in zip(q11, q12, q21, q22)]
    pivots = eliminate_lists(field, R, 4, reduced=True)
    W = [[-R[pivots.index(j)][c] if j in pivots else int(j == c) for j in range(4)]
         for c in range(4) if c not in pivots]

    def det(X):
        return field.normalize(X[0] * X[3] - X[1] * X[2])

    if len(W) != 2:
        return len(W) >= 3 or (len(W) == 1 and det(W[0]) == 0)
    K1, K2 = W
    A, C, ABC = det(K1), det(K2), det([x + y for x, y in zip(K1, K2)])
    if field.kind == "prime" and field.p == 2:
        return 0 in (A, C, ABC)
    disc = field.normalize((ABC - A - C) ** 2 - 4 * A * C)
    if field.kind == "rational":
        square = disc >= 0 and all(math.isqrt(n) ** 2 == n for n in (disc.numerator, disc.denominator))
    else:
        square = pow(disc, (field.p - 1) // 2, field.p) != field.p - 1
    return A == 0 or square


def _minors(a, b, c) -> List[Form]:
    """2x2 minors of the 3x2 block with rows a, b, c, for row pairs (0,1), (0,2), (1,2)."""
    return [u[0] * v[1] - u[1] * v[0] for u, v in ((a, b), (a, c), (b, c))]


def x2_conditions(P: Presentation) -> List[str]:
    """The three pencil conditions of X2.

    (i) the last-column one-forms are independent; (ii) the linear 2x2
    block has nonzero determinant delta; (iii) the two mixed 2x2 minors
    m1, m2 are independent modulo delta * V*, checked as a rank-5
    condition on the cubics {m1, m2, delta*X, delta*Y, delta*Z}.  m1, m2
    and delta are the `_minors` of rows (q1, q2), (l11, l21), (l12, l22).
    The constant block at (0,3), (1,3) is not read: a nonzero one moves
    the profile to X1's, so it never reaches the gate, and `validate_shape`
    reports the profile.
    """
    _require_shape(P, StratumLabel.X2)
    M = P.matrix
    violations = []
    q1, q2 = M.entry(0, 0), M.entry(1, 0)
    l11, l12 = M.entry(0, 1), M.entry(0, 2)
    l21, l22 = M.entry(1, 1), M.entry(1, 2)
    l1, l2 = M.entry(2, 3), M.entry(3, 3)
    if forms_rank([l1, l2]) != 2:
        violations.append("l_1, l_2 dependent")
    m1, m2, delta = _minors((q1, q2), (l11, l21), (l12, l22))
    if delta.is_zero:
        violations.append("linear block determinant vanishes")
    if block_mult_map(P.field, [[m1, m2, delta]], [0, 0, 1], [3]).rank() != 5:
        violations.append("minors dependent mod (delta)V*")
    return violations


def x3_conditions(P: Presentation) -> List[str]:
    """Independent linear entries up top, independent 2x2 `_minors` of the linear block phi_22 below."""
    _require_shape(P, StratumLabel.X3)
    M = P.matrix
    violations = []
    if forms_rank([M.entry(0, 0), M.entry(0, 1)]) != 2:
        violations.append("phi_11 entries dependent")
    if forms_rank(_minors(*(row[2:] for row in M.entries[1:]))) != 3:
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
    and no linear forms u, v1, v2 solve (q1, q2) = u*(l1, l2) + l*(v1, v2):
    (q1, q2)'s column is not in the span of the columns of u, v1 and v2.
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
    zero = Form.zero(P.field, 1)
    if not violations and block_mult_map(P.field, [[l1, l, zero, q1], [l2, zero, l, q2]],
                                         [1, 1, 1, 0], [2, 2]).last_in_span():
        violations.append("linear forms u, v_1, v_2 solve (q_1, q_2) = u(l_1, l_2) + l(v_1, v_2)")
    return violations


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
    """`label`'s exact twist shape, then `decide`'s violations, with a profile
    of another row reported as such; every forbidden X1 pattern is listed.  An
    empty list certifies P as a member of the stratum's family on its
    canonical shape.  The samplers reject draws with it."""
    wrong = _wrong_shape(P, label)
    if wrong:
        return wrong
    decision = decide(P)
    if decision.profile is not None and decision.label is not label:
        return [f"profile {tuple(decision.profile)} is not {label.value}'s {EXPECTED_PROFILES[label]}"]
    return decision.violations


def _wrong_shape(P: Presentation, label: StratumLabel) -> List[str]:
    src, tgt = SHAPES[label]
    if P.source != src or P.target != tgt:
        return [f"wrong twist shape: expected {src} -> {tgt}, got {P.source} -> {P.target}"]
    return []


def _conditions(P: Presentation, label: StratumLabel) -> List[str]:
    """The row's matrix conditions on a valid presentation of its shape.

    Every violated condition is reported; for X1 that is every forbidden
    pattern, in order P1..P4.
    """
    if label is StratumLabel.X0:
        return [] if x0_condition(P) else ["phi_11 is not semistable as a Kronecker module"]
    if label is StratumLabel.X1:
        return [f"matrix is equivalent to forbidden pattern {p.value}" for p in sorted(x1_patterns(P))]
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
