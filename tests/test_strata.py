from __future__ import annotations

import math
import time

import pytest

from sextic_strata.errors import NotInjectiveError, NotSemistable, ProfileNotInTable, WrongShapeError
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, block_mult_map, divides, forms_rank, variables
from sextic_strata.linalg import ScalarMatrix
from sextic_strata.orbit_oracle import orbit_patterns
from sextic_strata.polymatrix import PolyMatrix, det_poly
from sextic_strata.presentation import Presentation, fitting_determinant, hilbert_polynomial, profile
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import SampleRequest, random_form, sample
from sextic_strata.strata import (
    EXPECTED_PROFILES,
    PROFILE_TO_LABEL,
    SHAPES,
    PatternId,
    StratumLabel,
    _ascending_twists,
    _minors,
    _pencil_degenerates,
    classification_report,
    classify,
    stratum_dimensions,
    validate_shape,
    x0_condition,
    x1_patterns,
    x2_conditions,
    x3_conditions,
    x4_conditions,
    x5_conditions,
)

F101 = GF(101)


def sample_of(label, seed=0):
    return sample(SampleRequest(label, F101, seed=derive_seed(2718, seed * 7 + list(StratumLabel).index(label))))


def poly_matmul(field, A, B):
    """Matrix-of-forms product for building group translates in tests."""
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for r in range(k):
                term = A[i][r] * B[r][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classify_every_stratum():
    for label in StratumLabel:
        P = sample_of(label)
        assert classify(P) == label
        assert profile(P) == EXPECTED_PROFILES[label]


def test_profile_and_hilbert_polynomial_are_plain_tuples():
    for label in StratumLabel:
        P = sample_of(label)
        pr, hp = profile(P), hilbert_polynomial(P)
        assert pr == EXPECTED_PROFILES[label] and PROFILE_TO_LABEL[pr] is label
        assert (pr.a, pr.b, pr.c, pr.e) == EXPECTED_PROFILES[label]
        assert (hp.r, hp.chi) == (6, 1)
    X, Y, Z = variables(F101)
    conic = Presentation((-2,), (0,), PolyMatrix(F101, [[X * X + Y * Z]]))
    with pytest.raises(ProfileNotInTable) as exc:
        classify(conic)
    assert type(exc.value.profile) is tuple
    assert str(exc.value) == "profile (0, 0, 0, 0) with Hilbert polynomial 2m+1 is not in the table (needs 6m+1)"


def test_classify_rejects_non_injective():
    X, Y, Z = variables(QQ)
    P = Presentation((-1, -1), (0, 0), PolyMatrix(QQ, [[X, X], [Y, Y]]))
    with pytest.raises(NotInjectiveError):
        classify(P)


def test_classify_off_table_profile():
    # a sextic structure sheaf O(-6) -> O is not a 6m+1 sheaf: huge h1
    field = F101
    rng = SplitMix64(8)
    f = random_form(field, 6, rng)
    while f.is_zero:
        f = random_form(field, 6, rng)
    P = Presentation((-6,), (0,), PolyMatrix(field, [[f]]))
    with pytest.raises(ProfileNotInTable) as exc:
        classify(P)
    assert exc.value.profile[1] == 10  # h1 = h0(O(3)) on this shape


@pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "QQ"])
@pytest.mark.parametrize("curve", ["conic", "line", "cubic"])
def test_classify_rejects_other_hilbert_polynomials(curve, field):
    # a conic (2m+1), a line (m) and a cubic (3m) have the X0 or X1 profile,
    # but they are not sheaves with Hilbert polynomial 6m+1
    X, Y, Z = variables(field)
    src, tgt, f = {
        "conic": ((-2,), (0,), X * X + Y * Z),
        "line": ((-2,), (-1,), X + Y.scale(2)),
        "cubic": ((-3,), (0,), X * X * X + Y * Y * Z + Z * Z * Z),
    }[curve]
    P = Presentation(src, tgt, PolyMatrix(field, [[f]]))
    with pytest.raises(ProfileNotInTable) as exc:
        classify(P)
    assert exc.value.profile == profile(P)
    assert exc.value.hilbert == {"conic": [2, 1], "line": [1, 0], "cubic": [3, 0]}[curve]
    assert exc.value.profile[:3] == ((0, 1, 0) if curve == "cubic" else (0, 0, 0))
    assert not isinstance(exc.value, NotSemistable)


def test_x2_shape_out_of_normal_position_classifies_as_x1():
    # nonzero constants in the last column cancel a source/target pair,
    # leaving a genuine X1 sheaf; the classifier must see through it
    field = F101
    rng = SplitMix64(3)
    src, tgt = SHAPES[StratumLabel.X2]
    ent = [[random_form(field, d - s, rng) for s in src] for d in tgt]
    P = Presentation(src, tgt, PolyMatrix(field, ent))
    assert not fitting_determinant(P).is_zero
    assert profile(P) == (0, 1, 0, 0)
    assert classify(P) == StratumLabel.X1
    # on the X2 shape it is reported by its profile, X1's
    assert validate_shape(P, StratumLabel.X2) == ["profile (0, 1, 0, 0) is not X2's (0, 1, 1, 0)"]


def test_wrong_shape_quotes_twists_in_file_order():
    # the presentation above with its twists reversed: still X1 on the X2 shape,
    # and the violation names the vectors as given, not sorted
    rng = SplitMix64(3)
    src, tgt = SHAPES[StratumLabel.X2]
    ent = [[random_form(F101, d - s, rng) for s in src] for d in tgt]
    P = Presentation(src[::-1], tgt[::-1], PolyMatrix(F101, [row[::-1] for row in ent[::-1]]))
    rep = classification_report(P)
    assert rep["label"] == "X1"
    assert rep["violations"] == [f"wrong twist shape: expected {SHAPES[StratumLabel.X1][0]} -> "
                                 f"{SHAPES[StratumLabel.X1][1]}, got {src[::-1]} -> {tgt[::-1]}"]


def test_classification_report_schema():
    rep = classification_report(sample_of(StratumLabel.X3))
    assert rep["kind"] == "classification"
    assert rep["label"] == "X3"
    assert rep["profile"] == [0, 2, 2, 0]
    assert rep["hilbert"] == [6, 1]
    assert rep["det_degree"] == 6
    assert rep["violations"] == []


# ---------------------------------------------------------------------------
# semistability gate of the classifier (every row's canonical shape)
# ---------------------------------------------------------------------------

# One case per row; X4 has two, by its constant c at (0,2): i (c != 0) and ii (c = 0).
GATE_CASES = ("X0", "X1", "X2", "X3", "X4i", "X4ii", "X5")
GATE_VIOLATION = {
    "X0": "phi_11 is not semistable as a Kronecker module",
    "X1": "matrix is equivalent to forbidden pattern P1",
    "X2": "l_1, l_2 dependent",
    "X3": "phi_11 entries dependent",
    "X4i": "q_1, q_2 have a common factor",
    "X4ii": "l = 0",
    "X5": "l divides q",
}
FIELDS = pytest.mark.parametrize("field", [F101, QQ], ids=["F101", "QQ"])


def _entry(field, degree, rng):
    return random_form(field, degree, rng) if degree >= 0 else Form.zero(field, degree)


def _degenerate(case, field, seed):
    """Generic entries on the case's row shape with one condition broken, det != 0.

    X0: phi_11 vanishes on rows 1-3 of columns 0-1, a (dim S, dim T) = (2, 1)
    destabilizing block; X1: l1 = l2 = 0 (pattern P1); X2: zero constant
    block and l2 = 3 * l1; X3: phi_11 = (l, 3l); X4 case i: row 0 is
    (0, 0, 1) and q2 = 5 * q1; X4 case ii: c = 0 and l = 0; X5: q = l * u.
    """
    rng = SplitMix64(seed)
    src, tgt = SHAPES[StratumLabel(case[:2])]
    while True:
        ent = [[_entry(field, d - s, rng) for s in src] for d in tgt]
        l = random_form(field, 1, rng)
        if case == "X0":
            for i in (1, 2, 3):
                ent[i][0] = ent[i][1] = Form.zero(field, 1)
        elif case == "X1":
            ent[0][1] = ent[0][2] = Form.zero(field, 1)
        elif case == "X2":
            ent[0][3] = ent[1][3] = Form.zero(field, 0)
            ent[2][3], ent[3][3] = l, l.scale(3)
        elif case == "X3":
            ent[0][0], ent[0][1] = l, l.scale(3)
        elif case == "X4i":
            ent[0] = [Form.zero(field, 1), Form.zero(field, 1), Form.constant(field, 1)]
            ent[1][1] = ent[1][0].scale(5)
        elif case == "X4ii":
            ent[0][2], ent[1][2] = Form.zero(field, 0), Form.zero(field, 1)
        else:
            ent[0][1], ent[1][1] = l, l * random_form(field, 1, rng)
        P = Presentation(src, tgt, PolyMatrix(field, ent))
        if not l.is_zero and not fitting_determinant(P).is_zero:
            return P


def _sound(case, field, seed):
    """A sample of the case's row; for X4, of the case's normal form."""
    while True:
        P = sample(SampleRequest(case[:2], field, seed=seed))
        if P.metadata.get("case", "") == case[2:]:
            return P
        seed += 1000


def _random_aut(field, twists, rng):
    """A random automorphism of O(t_1) + ... + O(t_n), twists ascending.

    Entry (i, k) is a form of degree t_i - t_k.  The product of a lower and
    an upper triangular factor with nonzero constant diagonals mixes each
    equal-twist block by a generic invertible constant matrix.
    """
    n = len(twists)

    def factor(lower):
        rows = []
        for i in range(n):
            row = []
            for k in range(n):
                deg = twists[i] - twists[k]
                if i == k:
                    row.append(Form.constant(field, 1 + rng.next_below(100)))
                elif deg > 0 or (deg == 0 and (i > k) == lower):
                    row.append(random_form(field, deg, rng))
                else:
                    row.append(Form.zero(field, deg))
            rows.append(row)
        return rows

    return poly_matmul(field, factor(True), factor(False))


def _gate_outcome(P):
    try:
        return classify(P)
    except NotSemistable as exc:
        return exc.violations


@FIELDS
@pytest.mark.parametrize("case", GATE_CASES)
def test_classify_rejects_unstable_canonical_shape(case, field):
    label = StratumLabel(case[:2])
    P = _degenerate(case, field, seed=90)
    assert profile(P) == EXPECTED_PROFILES[label]
    with pytest.raises(NotSemistable) as exc:
        classify(P)
    assert exc.value.profile == EXPECTED_PROFILES[label]
    assert exc.value.violations == [GATE_VIOLATION[case]]
    assert isinstance(exc.value, ProfileNotInTable)


@FIELDS
@pytest.mark.parametrize("case", GATE_CASES)
def test_gate_verdict_is_orbit_invariant(case, field):
    # h * phi * g for random (h, g) in Aut(target) x Aut(source) presents an
    # isomorphic cokernel, so the gate's verdict must not move
    sound = _sound(case, field, seed=93)
    cases = ((sound, StratumLabel(case[:2])), (_degenerate(case, field, seed=91), [GATE_VIOLATION[case]]))
    rng = SplitMix64(94)
    for P, want in cases:
        assert _gate_outcome(P) == want
        for _ in range(3):
            h = _random_aut(field, P.target, rng)
            g = _random_aut(field, P.source, rng)
            M = poly_matmul(field, poly_matmul(field, h, P.matrix.entries), g)
            assert _gate_outcome(Presentation(P.source, P.target, PolyMatrix(field, M))) == want


def _reversed(P):
    """P with its twists, and so its rows and columns, in reverse order."""
    rows = [row[::-1] for row in P.matrix.entries[::-1]]
    return Presentation(P.source[::-1], P.target[::-1], PolyMatrix(P.field, rows))


def test_permuted_twists_are_gated():
    # X5 with l = X dividing q = XY and both twist pairs swapped: the gate
    # must not read the permuted shape as a wrong one and let it through
    X, Y, Z = variables(F101)
    P = Presentation((-4, -1), (0, 1), PolyMatrix(F101, [[Z * Z * Z * Z, X], [Y * Y * Y * Y * Y, X * Y]]))
    for Q in (P, _reversed(P)):
        with pytest.raises(NotSemistable) as exc:
            classify(Q)
        assert exc.value.violations == ["l divides q"]


@FIELDS
def test_reversed_twists_keep_their_label(field):
    for label in StratumLabel:
        P = sample(SampleRequest(label, field, seed=5))
        assert _ascending_twists(P) is P
        Q = _reversed(P)
        assert (Q.source, Q.target) != SHAPES[label]
        rep = classification_report(Q)
        assert (rep["label"], rep["violations"]) == (label.value, [])


@FIELDS
def test_x4_case_i_report_ignores_normal_position(field):
    # col 0 += X * col 2 moves a case-i sample off its normal form without
    # changing the cokernel; the report used to flag it as out of position
    X = variables(field)[0]
    moved = 0
    for seed in range(24):
        P = sample(SampleRequest(StratumLabel.X4, field, seed=seed))
        if P.metadata["case"] != "i":
            continue
        M = [[row[0] + X * row[2]] + row[1:] for row in P.matrix.entries]
        Pg = Presentation(P.source, P.target, PolyMatrix(field, M))
        assert not Pg.matrix.entry(0, 0).is_zero
        assert classification_report(Pg)["violations"] == []
        moved += 1
    assert moved >= 8


def test_x1_gate_short_circuits_at_large_prime():
    # l1 = l2 = 0 is P1; the gate runs all four tests, and the P2 search over
    # the pencil must stay bounded, so the whole classify takes milliseconds
    P = _degenerate("X1", GF(1_000_003), seed=92)
    t0 = time.perf_counter()
    with pytest.raises(NotSemistable) as exc:
        classify(P)
    assert time.perf_counter() - t0 < 10.0  # milliseconds here; minutes for the full search
    assert exc.value.violations == [GATE_VIOLATION["X1"]]


@FIELDS
def test_x1_gate_reports_every_pattern(field):
    # l1 = l2 = 0 is P1, and q21 = 2 * q11 makes the pencil member at
    # (a : b) = (1 : 0) rank one, which is P2
    rng = SplitMix64(95)
    src, tgt = SHAPES[StratumLabel.X1]
    while True:
        ent = [[_entry(field, d - s, rng) for s in src] for d in tgt]
        ent[0][1] = ent[0][2] = Form.zero(field, 1)
        ent[2][1] = ent[1][1].scale(2)
        P = Presentation(src, tgt, PolyMatrix(field, ent))
        if not fitting_determinant(P).is_zero:
            break
    assert x1_patterns(P) == {PatternId.P1, PatternId.P2}
    with pytest.raises(NotSemistable) as exc:
        classify(P)
    assert exc.value.violations == [
        "matrix is equivalent to forbidden pattern P1",
        "matrix is equivalent to forbidden pattern P2",
    ]
    assert exc.value.violations == validate_shape(P, StratumLabel.X1)


def test_x5_gate_exact_at_large_prime():
    # q = l * u: an int64 elimination overflowed here and labelled these X5
    for seed in range(30):
        P = _degenerate("X5", GF(1099511627791), seed=seed)
        with pytest.raises(NotSemistable) as exc:
            classify(P)
        assert exc.value.violations == [GATE_VIOLATION["X5"]]


def test_x1_patterns_bounded_at_large_prime():
    # l1 = l2 = 0 sends P2 to the rank-one search over the whole pencil; it
    # must not enumerate the p + 1 points of P^1
    P = _degenerate("X1", GF(1_000_003), seed=92)
    t0 = time.perf_counter()
    pats = x1_patterns(P)
    assert time.perf_counter() - t0 < 10.0
    assert pats == {PatternId.P1}


# ---------------------------------------------------------------------------
# X0: Kronecker block
# ---------------------------------------------------------------------------


def _x0_presentation(block_rows, field=F101, seed=50):
    rng = SplitMix64(seed)
    src, tgt = SHAPES[StratumLabel.X0]
    entries = list(block_rows) + [[random_form(field, 2, rng) for _ in range(5)]]
    return Presentation(src, tgt, PolyMatrix(field, entries))


def test_x0_condition_zero_column():
    field = F101
    rng = SplitMix64(60)
    z = Form.zero(field, 1)
    rows = [[z] + [random_form(field, 1, rng) for _ in range(4)] for _ in range(4)]
    assert not x0_condition(_x0_presentation(rows))


def test_x0_condition_generic_true():
    field = F101
    rng = SplitMix64(61)
    rows = [[random_form(field, 1, rng) for _ in range(5)] for _ in range(4)]
    assert x0_condition(_x0_presentation(rows))


def test_x0_condition_low_target_span():
    # last row zero: the whole source maps into a 3-dimensional target space
    field = F101
    rng = SplitMix64(62)
    z = Form.zero(field, 1)
    rows = [[random_form(field, 1, rng) for _ in range(5)] for _ in range(3)]
    rows.append([z] * 5)
    assert not x0_condition(_x0_presentation(rows))


def test_x0_condition_wrong_shape():
    with pytest.raises(WrongShapeError):
        x0_condition(sample_of(StratumLabel.X5))


# ---------------------------------------------------------------------------
# X1 patterns
# ---------------------------------------------------------------------------


def _x1_presentation(q, l1, l2, f1, q11, q12, f2, q21, q22, field=F101):
    src, tgt = SHAPES[StratumLabel.X1]
    return Presentation(src, tgt, PolyMatrix(field, [[q, l1, l2], [f1, q11, q12], [f2, q21, q22]]))


def test_x1_pattern_p1():
    field = F101
    rng = SplitMix64(70)
    z1 = Form.zero(field, 1)
    P = _x1_presentation(
        random_form(field, 2, rng), z1, z1,
        random_form(field, 3, rng), random_form(field, 2, rng), random_form(field, 2, rng),
        random_form(field, 3, rng), random_form(field, 2, rng), random_form(field, 2, rng),
    )
    assert PatternId.P1 in x1_patterns(P)


def test_x1_pattern_p3_equal_quadric_rows():
    field = F101
    rng = SplitMix64(71)
    q11, q12 = random_form(field, 2, rng), random_form(field, 2, rng)
    X, Y, Z = variables(field)
    P = _x1_presentation(
        random_form(field, 2, rng), X, Y,
        random_form(field, 3, rng), q11, q12,
        random_form(field, 3, rng), q11, q12,
    )
    assert PatternId.P3 in x1_patterns(P)


def test_x1_generic_admissible():
    field = F101
    for k in range(25):
        rng = SplitMix64(derive_seed(72, k))
        P = _x1_presentation(*(random_form(field, d, rng) for d in (2, 1, 1, 3, 2, 2, 3, 2, 2)))
        assert x1_patterns(P) == set()


def test_x1_pattern_p4():
    # l1, l2 dependent and q inside <l1, l2> * V*
    field = F101
    rng = SplitMix64(73)
    X, Y, Z = variables(field)
    q = X * (Y + Z.scale(4))
    P = _x1_presentation(
        q, X, X.scale(3),
        random_form(field, 3, rng), random_form(field, 2, rng), random_form(field, 2, rng),
        random_form(field, 3, rng), random_form(field, 2, rng), random_form(field, 2, rng),
    )
    assert PatternId.P4 in x1_patterns(P)


def test_x1_patterns_over_rationals():
    # the square test over Q in the P2 test: l1 = l2 = 0 and a pencil with
    # a rational rank-one member at (a : b) = (1 : -1)
    field = QQ
    X, Y, Z = variables(field)
    z1, z3 = Form.zero(field, 1), Form.zero(field, 3)
    q11, q12 = X * X, X * X + X * Y
    q21 = q22 = Y * Y  # the second pencil member vanishes at (a : b) = (1 : -1)
    P = _x1_presentation(X * X, z1, z1, z3, q11, q12, z3, q21, q22, field=field)
    pats = x1_patterns(P)
    assert PatternId.P1 in pats
    assert PatternId.P2 in pats
    # rank-one member at (a : b) = (1 : 0): proportional first pencil row
    P2 = _x1_presentation(
        X * X, z1, z1,
        z3, X * X, Y * Y,
        z3, (X * X).scale(2), Z * Z,
        field=field,
    )
    assert PatternId.P2 in x1_patterns(P2)
    # no rational rank-one member: pencil (X^2 + b*XY, Y^2) degenerates nowhere
    P3 = _x1_presentation(
        X * X, z1, z1,
        z3, X * X, X * Y,
        z3, Y * Y, Y * Y + Z * Z,
        field=field,
    )
    assert PatternId.P2 not in x1_patterns(P3)


def _pencil_degenerates_by_enumeration(field, q11, q12, q21, q22, l1=None, l2=None):
    """Reference for the P2 test: try every point (a : b) of P^1.

    With one-forms l1, l2 only the points with a*l1 + b*l2 = 0 count;
    without them every point does, as for l1 = l2 = 0.
    """
    points = [(1, t) for t in range(field.p)] + [(0, 1)]
    if l1 is not None:
        points = [(a, b) for a, b in points if (l1.scale(a) + l2.scale(b)).is_zero]
    return any(
        forms_rank([q11.scale(a) + q12.scale(b), q21.scale(a) + q22.scale(b)]) <= 1
        for a, b in points
    )


def _pencil_with_rank_one_member(field, a, b, rng):
    """Quadrics with a*q11 + b*q12 and a*q21 + b*q22 proportional."""
    Q1 = random_form(field, 2, rng)
    Q2 = Q1.scale(rng.next_below(field.p))
    if b == 0:
        return Q1.scale(field.inv(a)), random_form(field, 2, rng), Q2.scale(field.inv(a)), random_form(field, 2, rng)
    q11, q21 = random_form(field, 2, rng), random_form(field, 2, rng)
    inv_b = field.inv(b)
    return q11, (Q1 - q11.scale(a)).scale(inv_b), q21, (Q2 - q21.scale(a)).scale(inv_b)


@pytest.mark.parametrize("p", [3, 7, 101])
def test_pencil_root_search_matches_enumeration(p):
    field = GF(p)
    rng = SplitMix64(derive_seed(77, p))
    seen = set()
    for k in range(16):
        member = ((1, 0), (0, 1), (1 + rng.next_below(p - 1), 1 + rng.next_below(p - 1)), None)[k % 4]
        if member is None:
            q = [random_form(field, 2, rng) for _ in range(4)]
        else:
            q = _pencil_with_rank_one_member(field, *member, rng)
        want = _pencil_degenerates_by_enumeration(field, *q)
        assert _pencil_degenerates(field, *(f.array.tolist() for f in q)) == want, (k, member)
        seen.add(want)
    assert seen == {True, False}


def _planted_pencils(field):
    """P2 inputs (l1, l2, q11, q12, q21, q22) with a planted kernel W, and
    the answer over `field`.

    W is the kernel of X -> (sum X_ij q_ij, X_11 l1 + X_12 l2,
    X_21 l1 + X_22 l2) on 2 x 2 matrices X, and P2 holds iff W holds a
    rank-one matrix.  The quadrics are built from a = X^2, b = YZ, c = XZ
    and d = XY, which are independent.
    """
    X, Y, Z = variables(field)
    a, b, c, d = X * X, Y * Z, X * Z, X * Y
    z = Form.zero(field, 1)
    p = field.p if field.kind == "prime" else None
    return [
        # l1 = l2 = 0
        ((z, z, a, a, a, a), True),                                # dim W = 3
        ((z, z, a, b, b, -a), p is not None and p % 4 != 3),       # det s^2 + t^2
        ((z, z, a, b, b, a), True),         # det t^2 - s^2; over F_2 only K1 + K2
        ((z, z, a, b, b + a, a), p in (5, 101)),  # det t^2 - st - s^2, discriminant 5
        ((z, z, a, b, c, b), True),                                # W = <(0, 1, 0, -1)>
        ((z, z, a, b, c, a), False),                               # W = <(1, 0, 0, -1)>
        ((z, z, a, b, c, d), False),                               # W = 0
        # l1, l2 dependent and not both zero: (a : b) is pinned
        ((X, z, a, b, c, b), True),                                # (0 : 1)
        ((X, z, a, b, c, a), False),
        ((Y, Y, a, b, b, a), True),                                # (1 : -1)
        ((Y, Y, a, b, c, d), False),
        # independent l1, l2: W = 0 however degenerate the quadrics
        ((X, Y, a, a, a, a), False),
    ]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(101), QQ], ids=repr)
def test_pencil_planted_kernels(field):
    z3 = Form.zero(field, 3)
    for k, ((l1, l2, q11, q12, q21, q22), want) in enumerate(_planted_pencils(field)):
        if field.kind == "prime":
            assert _pencil_degenerates_by_enumeration(field, q11, q12, q21, q22, l1=l1, l2=l2) == want, k
        if l1.is_zero and l2.is_zero:
            assert _pencil_degenerates(field, *(f.array.tolist() for f in (q11, q12, q21, q22))) == want, k
        P = _x1_presentation(q11, l1, l2, z3, q11, q12, z3, q21, q22, field=field)
        assert (PatternId.P2 in x1_patterns(P)) == want, k


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_pencil_with_dependent_forms_matches_enumeration(p):
    # l2 = c*l1 (or l1 = 0) pins (a : b); half the pencils are planted
    # to degenerate there
    field = GF(p)
    rng = SplitMix64(derive_seed(78, p))
    z3 = Form.zero(field, 3)
    seen = set()
    for k in range(16):
        l1 = random_form(field, 1, rng)
        while l1.is_zero:
            l1 = random_form(field, 1, rng)
        c = rng.next_below(p)
        l1, l2, member = (l1, l1.scale(c), (c, p - 1)) if k % 4 else (Form.zero(field, 1), l1, (1, 0))
        if k % 2:
            q = [random_form(field, 2, rng) for _ in range(4)]
        else:
            q = _pencil_with_rank_one_member(field, *member, rng)
        want = _pencil_degenerates_by_enumeration(field, *q, l1=l1, l2=l2)
        P = _x1_presentation(q[0], l1, l2, z3, q[0], q[1], z3, q[2], q[3], field=field)
        assert (PatternId.P2 in x1_patterns(P)) == want, k
        seen.add(want)
    assert seen == {True, False}


def _pencil_degenerates_by_kernel(field, l1, l2, q11, q12, q21, q22):
    """Reference P2 test for any l1, l2: a rank-one 2 x 2 matrix in the
    kernel W of X -> (sum X_ij q_ij, X_11 l1 + X_12 l2, X_21 l1 + X_22 l2).

    Decided by dim W as `_pencil_degenerates` does; when l1, l2 are
    dependent but not both zero, every X in W has rank one, and the same
    rule answers true for any W != 0.
    """
    zero = Form.zero(field, 1)
    cells = [[q11, q12, q21, q22], [l1, l2, zero, zero], [zero, zero, l1, l2]]
    W = block_mult_map(field, cells, [0] * 4, [2, 1, 1]).kernel_basis()

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


def _last_in_span(M, k):
    """Whether some nonzero combination of M's last k columns lies in the
    span of the columns before them: iff they are not all pivots."""
    return sum(c >= M.ncols - k for c in M.pivots()) < k


def _x1_patterns_by_ranks(P):
    """Reference for `x1_patterns`: each pattern's characterization decided
    by one elimination of the matrix of H^0 it names.  P2 and P4 need
    l1, l2 dependent; P3 and P4 put the quadric columns last."""
    M, field = P.matrix, P.field
    q = M.entry(0, 0)
    l1, l2 = M.entry(0, 1), M.entry(0, 2)
    q11, q12 = M.entry(1, 1), M.entry(1, 2)
    q21, q22 = M.entry(2, 1), M.entry(2, 2)
    dependent = forms_rank([l1, l2]) <= 1
    tests = (
        (PatternId.P1, l1.is_zero and l2.is_zero),
        (PatternId.P2, dependent and _pencil_degenerates_by_kernel(field, l1, l2, q11, q12, q21, q22)),
        (PatternId.P3, _last_in_span(block_mult_map(field, [[l1, q11, q21], [l2, q12, q22]],
                                                    [1, 0, 0], [2, 2]), 2)),
        (PatternId.P4, dependent and _last_in_span(block_mult_map(field, [[l1, l2, q]], [1, 1, 0], [2]), 1)),
    )
    return {pattern for pattern, found in tests if found}


# The two cells each pattern's normal form has zero.
_PATTERN_ZEROS = {
    PatternId.P1: ((0, 1), (0, 2)),
    PatternId.P2: ((0, 2), (1, 2)),
    PatternId.P3: ((2, 1), (2, 2)),
    PatternId.P4: ((0, 0), (0, 1)),
}


def _x1_automorphism(field, rng):
    """A random automorphism of O(t) + 2 O(t + 1): a nonzero constant, two
    one-forms below it and an invertible constant 2 x 2 block.  Source
    O(-3) + 2 O(-2) and target O(-1) + 2 O of X1 both have this form."""
    p = field.p if field.kind == "prime" else 19
    while True:
        c = [field.normalize(rng.next_below(p)) for _ in range(5)]
        if c[0] and field.normalize(c[1] * c[4] - c[2] * c[3]):
            break
    k, z = (lambda x: Form.constant(field, x)), Form.zero(field, -1)
    return [[k(c[0]), z, z],
            [random_form(field, 1, rng), k(c[1]), k(c[2])],
            [random_form(field, 1, rng), k(c[3]), k(c[4])]]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(101), GF(2**31 + 11), QQ], ids=repr)
def test_x1_patterns_match_rank_reference(field):
    # every pattern's two zeros planted, singly and in pairs, then moved off
    # their cells by a random h * phi * g; the closed forms must agree with
    # the eliminations in each of the three cases on L = (l1, l2), and over
    # F_2 with the exhaustive orbit oracle
    rng = SplitMix64(derive_seed(79, field.p if field.kind == "prime" else 0))
    src, tgt = SHAPES[StratumLabel.X1]
    plans = [()] + [(a,) for a in PatternId] + [(a, b) for a in PatternId for b in PatternId if a < b]
    cases, found = set(), set()
    for _ in range(3):
        for plan in plans:
            entries = [[random_form(field, d - s, rng) for s in src] for d in tgt]
            for i, j in (cell for pattern in plan for cell in _PATTERN_ZEROS[pattern]):
                entries[i][j] = Form.zero(field, tgt[i] - src[j])
            h, g = _x1_automorphism(field, rng), _x1_automorphism(field, rng)
            P = _x1_presentation(*(f for row in poly_matmul(field, poly_matmul(field, h, entries), g) for f in row),
                                 field=field)
            pats = x1_patterns(P)
            assert pats == _x1_patterns_by_ranks(P), plan
            if field == GF(2):
                assert pats == orbit_patterns(P), plan
            L = [P.matrix.entry(0, 1), P.matrix.entry(0, 2)]
            cases.add(forms_rank(L))
            found |= pats
    assert cases == {0, 1, 2} and found == set(PatternId)


# ---------------------------------------------------------------------------
# X2, X3, X4, X5 conditions
# ---------------------------------------------------------------------------


def test_minors_hand_expansion():
    # rows (0,1): X*X - 0*Y = X^2; rows (0,2): X*Y; rows (1,2): Y*Y - X*Z
    X, Y, Z = variables(QQ)
    z = Form.zero(QQ, 1)
    assert _minors((X, z), (Y, X), (Z, Y)) == [X * X, X * Y, Y * Y - X * Z]


def test_minor_with_repeated_row_vanishes():
    X, Y, Z = variables(QQ)
    assert _minors((X, Y), (X, Y), (Y, Z))[0].is_zero  # rows (0,1) are equal


@pytest.mark.parametrize("field", [GF(2), F101, QQ], ids=["F2", "F101", "QQ"])
def test_minors_are_det_of_row_pairs(field):
    rng = SplitMix64(31)
    for _ in range(20):
        rows = [[random_form(field, 1, rng) for _ in range(2)] for _ in range(3)]
        pairs = ((0, 1), (0, 2), (1, 2))
        assert _minors(*rows) == [det_poly(PolyMatrix(field, [rows[i], rows[j]])) for i, j in pairs]


def _x2_presentation(q1, l11, l12, q2, l21, l22, f1, q11, q12, l1, f2, q21, q22, l2, field=F101):
    src, tgt = SHAPES[StratumLabel.X2]
    z0 = Form.zero(field, 0)
    M = PolyMatrix(field, [
        [q1, l11, l12, z0],
        [q2, l21, l22, z0],
        [f1, q11, q12, l1],
        [f2, q21, q22, l2],
    ])
    return Presentation(src, tgt, M)


def _generic_x2_parts(field, seed):
    rng = SplitMix64(seed)
    return dict(
        q1=random_form(field, 2, rng), q2=random_form(field, 2, rng),
        f1=random_form(field, 3, rng), f2=random_form(field, 3, rng),
        q11=random_form(field, 2, rng), q12=random_form(field, 2, rng),
        q21=random_form(field, 2, rng), q22=random_form(field, 2, rng),
    )


def test_x2_delta_zero_violation():
    field = F101
    X, Y, Z = variables(field)
    parts = _generic_x2_parts(field, 80)
    P = _x2_presentation(
        parts["q1"], X, Y, parts["q2"], X.scale(2), Y.scale(2),  # proportional rows: delta = 0
        parts["f1"], parts["q11"], parts["q12"], X,
        parts["f2"], parts["q21"], parts["q22"], Y,
    )
    assert any("determinant vanishes" in v for v in x2_conditions(P))


def test_x2_dependent_last_column_violation():
    field = F101
    X, Y, Z = variables(field)
    parts = _generic_x2_parts(field, 81)
    P = _x2_presentation(
        parts["q1"], X, Y, parts["q2"], Y, Z,
        parts["f1"], parts["q11"], parts["q12"], X,
        parts["f2"], parts["q21"], parts["q22"], X.scale(5),
    )
    assert any("l_1, l_2 dependent" in v for v in x2_conditions(P))


def test_x2_minor_membership_violation():
    # q1 = l12 * X and q2 = l22 * X make the first minor equal -X * delta
    field = F101
    X, Y, Z = variables(field)
    parts = _generic_x2_parts(field, 82)
    P = _x2_presentation(
        Y * X, X, Y, Z * X, Y, Z,
        parts["f1"], parts["q11"], parts["q12"], X,
        parts["f2"], parts["q21"], parts["q22"], Y,
    )
    assert any("minors dependent" in v for v in x2_conditions(P))


def test_x2_generic_ok():
    P = sample_of(StratumLabel.X2, seed=4)
    assert x2_conditions(P) == []


def test_x3_conditions():
    field = F101
    X, Y, Z = variables(field)
    z1 = Form.zero(field, -1)
    rng = SplitMix64(83)
    # the hand example: phi_11 = (X, Y), phi_22 = [[X,0],[Y,X],[Z,Y]]
    z = Form.zero(field, 1)
    entries = [
        [X, Y, z1, z1],
        [random_form(field, 3, rng), random_form(field, 3, rng), X, z],
        [random_form(field, 3, rng), random_form(field, 3, rng), Y, X],
        [random_form(field, 3, rng), random_form(field, 3, rng), Z, Y],
    ]
    src, tgt = SHAPES[StratumLabel.X3]
    P = Presentation(src, tgt, PolyMatrix(field, entries))
    assert x3_conditions(P) == []
    # dependent phi_11
    entries[0] = [X, X.scale(9), z1, z1]
    P_bad = Presentation(src, tgt, PolyMatrix(field, entries))
    assert any("phi_11" in v for v in x3_conditions(P_bad))


def test_x4_case_i_common_factor_violation():
    field = F101
    X, Y, Z = variables(field)
    rng = SplitMix64(84)
    src, tgt = SHAPES[StratumLabel.X4]
    z1, z3 = Form.zero(field, 1), Form.zero(field, 3)
    one = Form.constant(field, 1)
    M = PolyMatrix(field, [
        [z1, z1, one],
        [X * X, X * Y, z1],
        [random_form(field, 4, rng), random_form(field, 4, rng), z3],
    ])
    P = Presentation(src, tgt, PolyMatrix(field, M.entries))
    assert any("common factor" in v for v in x4_conditions(P))


def test_x4_case_ii_solvable_syzygy_violation():
    # u = X, v1 = X, v2 = Y solve (q1, q2) = u(l1, l2) + l(v1, v2)
    field = F101
    X, Y, Z = variables(field)
    rng = SplitMix64(85)
    src, tgt = SHAPES[StratumLabel.X4]
    z0 = Form.zero(field, 0)
    q1 = X * X + Z * X
    q2 = X * Y + Z * Y
    M = PolyMatrix(field, [
        [X, Y, z0],
        [q1, q2, Z],
        [random_form(field, 4, rng), random_form(field, 4, rng), random_form(field, 3, rng)],
    ])
    P = Presentation(src, tgt, M)
    assert any("solve" in v for v in x4_conditions(P))


def test_x4_case_ii_orbit_invariance():
    # the accept/reject verdict is constant on orbits of the grid-respecting group
    field = F101
    for seed, want_reject in ((86, False), (87, True)):
        if want_reject:
            X, Y, Z = variables(field)
            rng = SplitMix64(seed)
            src, tgt = SHAPES[StratumLabel.X4]
            z0 = Form.zero(field, 0)
            M = [
                [X, Y, z0],
                [X * X + Z * X, X * Y + Z * Y, Z],
                [random_form(field, 4, rng), random_form(field, 4, rng), random_form(field, 3, rng)],
            ]
            P = Presentation(src, tgt, PolyMatrix(field, M))
        else:
            P = sample_of(StratumLabel.X4, seed=9)
            if P.metadata.get("case") != "ii":
                # redraw deterministically until a case-ii sample appears
                k = 0
                while P.metadata.get("case") != "ii":
                    k += 1
                    P = sample_of(StratumLabel.X4, seed=9 + 101 * k)
        base_verdict = bool(x4_conditions(P))
        rng = SplitMix64(1000 + seed)

        def unit(v=0):
            return Form.constant(field, 1 + (v % 100))

        z0 = Form.zero(field, 0)
        for _ in range(4):
            g = [
                [unit(rng.next_below(100)), z0, z0],
                [z0, unit(rng.next_below(100)), z0],
                [random_form(field, 1, rng), random_form(field, 1, rng), unit(rng.next_below(100))],
            ]
            h = [
                [unit(rng.next_below(100)), z0, z0],
                [random_form(field, 1, rng), unit(rng.next_below(100)), z0],
                [random_form(field, 3, rng), random_form(field, 2, rng), unit(rng.next_below(100))],
            ]
            hm = poly_matmul(field, h, P.matrix.entries)
            hmg = poly_matmul(field, hm, g)
            Pg = Presentation(P.source, P.target, PolyMatrix(field, hmg))
            assert bool(x4_conditions(Pg)) == base_verdict


def test_x5_conditions():
    field = F101
    X, Y, Z = variables(field)
    rng = SplitMix64(88)
    src, tgt = SHAPES[StratumLabel.X5]
    h, g = random_form(field, 4, rng), random_form(field, 5, rng)
    ok = Presentation(src, tgt, PolyMatrix(field, [[h, X], [g, Y * Y]]))
    assert x5_conditions(ok) == []
    bad = Presentation(src, tgt, PolyMatrix(field, [[h, X], [g, X * Y]]))
    assert any("divides" in v for v in x5_conditions(bad))
    zero_l = Presentation(src, tgt, PolyMatrix(field, [[h, Form.zero(field, 1)], [g, Y * Y]]))
    assert any("l = 0" in v for v in x5_conditions(zero_l))


def test_validate_shape_accepts_samples():
    for label in StratumLabel:
        P = sample_of(label, seed=13)
        assert validate_shape(P, label) == []


def test_validate_shape_wrong_twists():
    P = sample_of(StratumLabel.X5)
    out = validate_shape(P, StratumLabel.X0)
    assert out and "wrong twist shape" in out[0]


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_stratum_dimensions_table():
    rows = {r.label: r for r in stratum_dimensions()}
    assert (rows[StratumLabel.X0].base_dim, rows[StratumLabel.X0].fibre_dim) == (20, 17)
    assert rows[StratumLabel.X0].dim == 37
    assert rows[StratumLabel.X1].dim == 35
    assert (rows[StratumLabel.X2].base_dim, rows[StratumLabel.X2].fibre_dim) == (12, 21)
    assert rows[StratumLabel.X2].dim == 33
    assert (rows[StratumLabel.X3].base_dim, rows[StratumLabel.X3].fibre_dim) == (8, 23)
    assert (rows[StratumLabel.X4].base_dim, rows[StratumLabel.X4].fibre_dim) == (8, 23)
    assert rows[StratumLabel.X5].dim == 29
    for r in rows.values():
        assert r.dim + r.codim == 37
        if r.base_dim is not None:
            assert r.base_dim + r.fibre_dim == r.dim


# ---------------------------------------------------------------------------
# span membership by one span predicate
# ---------------------------------------------------------------------------


def _column_rank(field, cols):
    return ScalarMatrix(field, [list(r) for r in zip(*cols)]).rank()


def _in_span_by_two_ranks(field, cols, rhs):
    """Reference membership test: rank [cols | rhs] == rank [cols]."""
    return _column_rank(field, cols + [rhs]) == _column_rank(field, cols)


@pytest.mark.parametrize("field", [GF(3), F101, QQ], ids=["GF3", "GF101", "QQ"])
def test_span_membership_matches_two_rank_formula(field):
    # divides, P4 and the X4 syzygy each ask one span-membership question
    # among quadrics; P3 asks whether two stacked quadric columns both raise
    # the rank of the others.  Each is reached through its public function.
    rng = SplitMix64(derive_seed(4242, field.p if field.kind == "prime" else 0))
    XYZ = variables(field)
    zero = [field.zero()] * 6
    x4_src, x4_tgt = SHAPES[StratumLabel.X4]
    syzygy = "linear forms u, v_1, v_2 solve (q_1, q_2) = u(l_1, l_2) + l(v_1, v_2)"

    def rand(d):
        return random_form(field, d, rng)

    def nonzero_linear():
        while True:
            l = rand(1)
            if not l.is_zero:
                return l

    def vec(f):
        return f.array.tolist() if not f.is_zero else zero

    def x1(q, l1, l2, q11, q12, q21, q22):
        return x1_patterns(_x1_presentation(q, l1, l2, rand(3), q11, q12, rand(3), q21, q22, field=field))

    answers = {"divides": set(), "P4": set(), "syzygy": set(), "P3": set()}
    for _ in range(12):
        l1, l2, l = nonzero_linear(), nonzero_linear(), nonzero_linear()
        while forms_rank([l1, l2]) != 2:
            l2 = nonzero_linear()
        u, v1, v2 = rand(1), rand(1), rand(1)
        for q in (l1 * u, rand(2)):
            want = _in_span_by_two_ranks(field, [vec(v * l1) for v in XYZ], vec(q))
            assert divides(l1, q) == want
            answers["divides"].add(want)
        # the gate asks P4 only of dependent l1, l2
        m = l1.scale(2)
        for q in (v1 * l1 + v2 * m, rand(2)):
            cols = [vec(v * f) for f in (l1, m) for v in XYZ]
            want = _in_span_by_two_ranks(field, cols, vec(q))
            assert (PatternId.P4 in x1(q, l1, m, rand(2), rand(2), rand(2), rand(2))) == want
            answers["P4"].add(want)
        for q1, q2 in ((u * l1 + l * v1, u * l2 + l * v2), (rand(2), rand(2))):
            cols = (
                [vec(v * l1) + vec(v * l2) for v in XYZ]
                + [vec(v * l) + zero for v in XYZ]
                + [zero + vec(v * l) for v in XYZ]
            )
            want = _in_span_by_two_ranks(field, cols, vec(q1) + vec(q2))
            P = Presentation(x4_src, x4_tgt, PolyMatrix(field, [
                [l1, l2, Form.zero(field, 0)], [q1, q2, l], [rand(4), rand(4), rand(3)]]))
            assert x4_conditions(P) == ([syzygy] if want else [])
            answers["syzygy"].add(want)
        # (q21, q22) = a*(q11, q12) + u*(l1, l2) clears the row; random pairs rarely do
        q11, q12, a = rand(2), rand(2), field.normalize(1 + rng.next_below(2))
        for q21, q22 in ((q11.scale(a) + u * l1, q12.scale(a) + u * l2), (rand(2), rand(2))):
            v_cols = [vec(v * l1) + vec(v * l2) for v in XYZ]
            cols = [vec(q11) + vec(q12), vec(q21) + vec(q22)] + v_cols
            want = _column_rank(field, cols) < _column_rank(field, v_cols) + 2
            assert (PatternId.P3 in x1(rand(2), l1, l2, q11, q12, q21, q22)) == want
            answers["P3"].add(want)
    assert all(seen == {True, False} for seen in answers.values())
