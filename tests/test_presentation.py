from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sextic_strata.presentation as presentation
import sextic_strata.strata as strata
import sextic_strata.verify as verify
from sextic_strata.errors import BudgetExceededError, InvalidPresentationError, NotSquareError
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, dim_forms, mult_map, variables
from sextic_strata.linalg import ScalarMatrix
from sextic_strata.polymatrix import PolyMatrix, det_poly
from sextic_strata.presentation import (
    PROBE_POINTS,
    Presentation,
    dual,
    dumps,
    fitting_determinant,
    h0,
    h0_omega,
    h1,
    hilbert_polynomial,
    is_injective,
    loads,
    profile,
    validate,
)
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import SampleRequest, random_form, sample
from sextic_strata.strata import SHAPES, StratumLabel

F101 = GF(101)


def x5_example(field=F101):
    # l = X, q = Y*Z, generic h, g: a valid member of the X5 family
    X, Y, Z = variables(field)
    rng = SplitMix64(99)
    h = random_form(field, 4, rng)
    g = random_form(field, 5, rng)
    src, tgt = SHAPES[StratumLabel.X5]
    return Presentation(src, tgt, PolyMatrix(field, [[h, X], [g, Y * Z]]))


def sample_of(label, seed=1):
    return sample(SampleRequest(label, F101, seed=derive_seed(314159, seed + 31 * list(StratumLabel).index(label))))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_x5_example_ok():
    assert validate(x5_example()) == []


def test_validate_flags_degree_mismatch():
    field = QQ
    X, Y, Z = variables(field)
    src, tgt = SHAPES[StratumLabel.X5]
    M = PolyMatrix(field, [[X * X * X * X, X], [X * X * X * X * X, X]])  # (1,1) should be quadratic
    with pytest.raises(InvalidPresentationError) as exc:
        Presentation(src, tgt, M)
    assert any("degree mismatch at (1,1)" in v for v in exc.value.violations)


def _serre_dual_blocks(P, t):
    """Reference: block (j, i) is phi_ij from H^0(O(-3-d_i-t)) to H^0(O(-3-s_j-t))."""
    rows = [dim_forms(-3 - s - t) for s in P.source]
    cols = [dim_forms(-3 - d - t) for d in P.target]
    M = ScalarMatrix.zeros(P.field, sum(rows), sum(cols))
    for i, d in enumerate(P.target):
        for j, s in enumerate(P.source):
            f = P.matrix.entry(i, j)
            if cols[i] and rows[j] and not f.is_zero:
                r0, c0 = sum(rows[:j]), sum(cols[:i])
                M.a[r0:r0 + rows[j], c0:c0 + cols[i]] = mult_map(f, -3 - d - t).a
    return M


def _random_on_grid(label, field, rng):
    """A presentation of the label's shape with random cells, about a quarter
    of them zero; the cells need not make phi injective."""
    src, tgt = SHAPES[label]
    entries = [
        [random_form(field, d - s, rng) if d >= s and rng.next_below(4) else Form.zero(field, d - s)
         for s in src]
        for d in tgt
    ]
    return Presentation(src, tgt, PolyMatrix(field, entries))


@pytest.mark.parametrize("field", [F101, GF(2**31 - 1), GF(2**31 + 11), QQ], ids=repr)
def test_dual_section_matrix_is_serre_dual_assembly(field):
    rng = SplitMix64(derive_seed(78, field.p if field.kind == "prime" else 0))
    presentations = [_random_on_grid(label, field, rng) for label in StratumLabel] + [x5_example(field)]
    if field is F101:
        presentations += [sample_of(label) for label in StratumLabel]
    for P in presentations:
        for t in range(-5, 6):
            M = presentation.dual_section_matrix(P, t)
            assert M.a.dtype == field.dtype
            assert M == _serre_dual_blocks(P, t), (P, t)
            assert M == presentation.section_matrix(dual(P), -1 - t), (P, t)


def _paste(M, block, r0, c0):
    for r, line in enumerate(block):
        M[r0 + r][c0:c0 + len(line)] = line


def _reference_section_matrix(P, t, mult):
    rows = [dim_forms(d + t) for d in P.target]
    cols = [dim_forms(s + t) for s in P.source]
    M = [[P.field.zero()] * sum(cols) for _ in range(sum(rows))]
    for i, d in enumerate(P.target):
        for j, s in enumerate(P.source):
            f = P.matrix.entry(i, j)
            if rows[i] and cols[j] and not f.is_zero:
                _paste(M, mult(f, s + t), sum(rows[:i]), sum(cols[:j]))
    return M


def _reference_contraction_matrix(P, mult):
    rows = [dim_forms(d + 1) for d in P.target]
    cols = [dim_forms(d) for d in P.target]
    M = [[P.field.zero()] * (3 * sum(cols)) for _ in range(sum(rows))]
    for v, var in enumerate(variables(P.field)):
        for i, d in enumerate(P.target):
            if d >= 0:
                _paste(M, mult(var, d), sum(rows[:i]), v * sum(cols) + sum(cols[:i]))
    return M


@pytest.mark.parametrize("field", [F101, GF(2**31 - 1), GF(2**31 + 11), QQ], ids=repr)
@pytest.mark.parametrize("label", list(StratumLabel), ids=lambda label: label.value)
def test_section_matrices_match_cell_by_cell_assembly(label, field, reference_mult_map):
    P = _random_on_grid(label, field, SplitMix64(derive_seed(77, list(StratumLabel).index(label))))
    for t in range(-5, 6):
        M = presentation.section_matrix(P, t)
        assert M.a.dtype == field.dtype
        assert M.to_lists() == _reference_section_matrix(P, t, reference_mult_map), t
    C = verify._contraction_matrix(P.field, P.target)
    assert C.to_lists() == _reference_contraction_matrix(P, reference_mult_map)


def test_validate_flags_det_zero():
    field = QQ
    X, Y, Z = variables(field)
    src = (-1, -1)
    tgt = (0, 0)
    M = PolyMatrix(field, [[X, X], [Y, Y]])  # equal columns
    violations = validate(Presentation(src, tgt, M))
    assert any("not injective" in v for v in violations)


def test_validate_flags_forced_zero():
    # cell (0,2) of the X3 grid has Hom degree -1 and must vanish
    field = QQ
    X, Y, Z = variables(field)
    src, tgt = SHAPES[StratumLabel.X3]
    entries = [[X, Y, X, Form.zero(field, -1)]]
    for i in range(3):
        entries.append([Form.zero(field, 3)] * 2 + [X, Y])
    with pytest.raises(InvalidPresentationError) as exc:
        Presentation(src, tgt, PolyMatrix(field, entries))
    assert any("forced zero violated at (0,2)" in v for v in exc.value.violations)
    # a nonzero form cannot even be constructed with a negative degree tag
    with pytest.raises(ValueError):
        Form(field, -1, {(1, 0, 0): 1})


def test_rectangular_rejected_by_cohomology():
    field = QQ
    X, Y, Z = variables(field)
    P = Presentation((-1,), (0, 0), PolyMatrix(field, [[X], [Y]]))
    assert any("not square" in v for v in validate(P))
    with pytest.raises(NotSquareError):
        h0(P, 0)
    with pytest.raises(NotSquareError):
        hilbert_polynomial(P)


# ---------------------------------------------------------------------------
# Hilbert polynomial
# ---------------------------------------------------------------------------


def test_hilbert_of_x0_shape():
    P = sample_of(StratumLabel.X0)
    assert hilbert_polynomial(P) == (6, 1)


def test_hilbert_of_x5_shape():
    assert hilbert_polynomial(x5_example()) == (6, 1)


def test_hilbert_of_plane_sextic_structure_sheaf():
    # O(-6) -> O: P(m) = 6m - 9
    field = QQ
    rng = SplitMix64(1)
    f = random_form(field, 6, rng)
    P = Presentation((-6,), (0,), PolyMatrix(field, [[f]]))
    hp = hilbert_polynomial(P)
    assert hp == (6, -9)
    assert hp.r * 2 + hp.chi == 3


# ---------------------------------------------------------------------------
# cohomology: the six rows of the classification table
# ---------------------------------------------------------------------------


def test_x5_cohomology_values():
    P = x5_example()
    assert h0(P, -1) == 1
    assert h1(P, 0) == 3
    assert h0_omega(P) == 4
    assert h1(P, 1) == 1


def test_x0_cohomology_values():
    P = sample_of(StratumLabel.X0)
    assert h0(P, -1) == 0
    assert h1(P, 0) == 0
    assert h0_omega(P) == 0
    # h0(F) = chi + h1 = 1
    assert h0(P, 0) == 1


def test_x3_h1_and_x4_omega():
    P3 = sample_of(StratumLabel.X3)
    assert h1(P3, 0) == 2
    P4 = sample_of(StratumLabel.X4)
    assert h0_omega(P4) == 3


def test_profiles_match_table_rows():
    expected = {
        StratumLabel.X1: (0, 1, 0, 0),
        StratumLabel.X2: (0, 1, 1, 0),
        StratumLabel.X4: (1, 2, 3, 0),
    }
    for label, want in expected.items():
        assert profile(sample_of(label)) == want


@settings(max_examples=12, deadline=None)
@given(
    label=st.sampled_from(list(StratumLabel)),
    seed=st.integers(0, 2**31),
    t=st.integers(-5, 5),
)
def test_euler_identity(label, seed, t):
    P = sample(SampleRequest(label, F101, seed=seed))
    assert h0(P, t) - h1(P, t) == 6 * t + 1


def _zero_presentation(src, tgt, field=GF(2)):
    return Presentation(src, tgt, PolyMatrix(field, [[Form.zero(field, d - s) for s in src] for d in tgt]))


@settings(deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_closed_forms_match_generator_sums(n, data, reference_h0, reference_h1):
    # the closed forms read only the twists, so a zero matrix carries any
    # twist vectors; a last target twist makes the shape rectangular
    twists = st.lists(st.integers(-70, 70), min_size=n, max_size=n)
    src, tgt, t = data.draw(twists), data.draw(twists), data.draw(st.integers(-200, 200))
    P = _zero_presentation(src, tgt)
    assert h0(P, t) == reference_h0(P, t) and h1(P, t) == reference_h1(P, t)
    R = _zero_presentation(src, tgt + [data.draw(st.integers(-70, 70))])
    for f in (h0, h1, reference_h0, reference_h1):
        with pytest.raises(NotSquareError):
            f(R, t)


def test_h1_vanishes_from_twist_two_on():
    # all source twists are >= -4, so the dual section space dies at t >= 2
    for label in StratumLabel:
        P = sample_of(label, seed=7)
        assert h1(P, 2) == 0
        assert h1(P, 3) == 0


# ---------------------------------------------------------------------------
# cohomology: the closed forms against the section-matrix ranks
# ---------------------------------------------------------------------------


def _padded(P, k, rng):
    """P plus a unit block O(k) -> O(k): a nonzero constant in the new corner
    and random forms coupling the new row and column to P."""
    F = P.field

    def cell(degree):
        return random_form(F, degree, rng) if degree >= 0 else Form.zero(F, degree)

    corner = Form.zero(F, 0)
    while corner.is_zero:
        corner = cell(0)
    entries = [list(row) + [cell(d - k)] for row, d in zip(P.matrix.entries, P.target)]
    entries.append([cell(k - s) for s in P.source] + [corner])
    return Presentation(P.source + (k,), P.target + (k,), PolyMatrix(F, entries))


def _rank_of_constants(P, evaluate):
    """Rank of phi's constants on the rows with d_i = -1 and the columns with s_j = -1."""
    rows = [i for i, d in enumerate(P.target) if d == -1]
    cols = [j for j, s in enumerate(P.source) if s == -1]
    C = [[evaluate(P.matrix.entry(i, j), (1, 1, 1)) for j in cols] for i in rows]
    return ScalarMatrix(P.field, C, shape=(len(rows), len(cols))).rank()


@pytest.mark.parametrize("field", [GF(2), F101, GF(2**31 + 11), QQ], ids=repr)
def test_closed_forms_match_section_matrix_ranks(field, evaluate):
    # Samples of every row at seeds 1-3, each also padded with a unit block
    # O(k) -> O(k), k = -2, -1, 0 by seed.  The pad at k = -1 puts a nonzero
    # constant into the block C of h0_omega, which no row's shape has; the
    # row samples give #{j : s_j = -1} > 0 with C empty (X3) or zero (X2).
    # Over Q the eliminations at |t| > 3 cost up to two seconds per sample,
    # so Q sweeps t in [-3, 3] and the prime fields the [-5, 5] of criterion 2.
    twists = range(-3, 4) if field is QQ else range(-5, 6)
    rng = SplitMix64(2718)
    cases = []
    for label in StratumLabel:
        for seed, k in ((1, -2), (2, -1), (3, 0)):
            P = sample(SampleRequest(label, field, seed=seed))
            padded = _padded(P, k, rng)
            while not is_injective(padded):
                padded = _padded(P, k, rng)
            if k == -1:
                assert _rank_of_constants(padded, evaluate) >= 1
            cases += [P, padded]
    for P in cases:
        assert verify.rank_model_mismatches(P, twists) == [], (P, dumps(P))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_shape_of_x3():
    P = sample_of(StratumLabel.X3)
    G = dual(P)
    assert G.source == (0, -2, -2, -2)
    assert G.target == (1, 1, -1, -1)
    assert sorted(G.source) == [-2, -2, -2, 0]
    assert sorted(G.target) == [-1, -1, 1, 1]
    G = dual(sample_of(StratumLabel.X5))
    assert (G.source, G.target) == ((-2, -3), (2, -1))


def test_dual_cohomology_of_x3():
    G = dual(sample_of(StratumLabel.X3))
    assert h0(G, -1) == 2
    assert h1(G, 0) == 0


def test_dual_involution_and_chi():
    for label in StratumLabel:
        P = sample_of(label, seed=3)
        G = dual(P)
        assert (G.source, G.target) == (tuple(-2 - d for d in P.target), tuple(-2 - s for s in P.source))
        assert dual(G) == P
        assert hilbert_polynomial(P).chi + hilbert_polynomial(G).chi == 6


def test_dual_of_x5_has_chi_five():
    G = dual(x5_example())
    hp = hilbert_polynomial(G)
    assert hp == (6, 5)


def test_dual_side_omega_cohomology():
    # Tensoring the Euler sequence with the dual sheaf G gives
    # chi(G x Omega^1(1)) = 3*chi(G) - chi(G(1)) = 15 - 11 = 4, and the dual
    # stratification mirrors the primal conditions, so h1(G x Omega^1(1))
    # equals the primal c-component and h0_omega(dual) = c + 4.  For the X3
    # dual this reproduces the stated h1(G x Omega^1(1)) = 2.  The duals put
    # the closed form on twist layouts (positive and negative targets) that
    # no primal shape has.
    for label in StratumLabel:
        P = sample_of(label, seed=17)
        c = profile(P).c
        assert h0_omega(dual(P)) == c + 4


# ---------------------------------------------------------------------------
# Fitting determinant
# ---------------------------------------------------------------------------


def test_fitting_determinant_x5_formula():
    P = x5_example()
    h_, l_ = P.matrix.entry(0, 0), P.matrix.entry(0, 1)
    g_, q_ = P.matrix.entry(1, 0), P.matrix.entry(1, 1)
    assert fitting_determinant(P) == h_ * q_ - l_ * g_


def test_fitting_determinant_degree_six_on_all_shapes():
    for label in StratumLabel:
        P = sample_of(label, seed=11)
        det = fitting_determinant(P)
        assert not det.is_zero
        assert det.degree == 6


def test_fitting_determinant_transpose_invariant():
    P = sample_of(StratumLabel.X2)
    assert fitting_determinant(dual(P)) == fitting_determinant(P)


# ---------------------------------------------------------------------------
# injectivity certificate
# ---------------------------------------------------------------------------


def _random_on_shape(label, field, rng, singular):
    """Random entries on the label's grid; made singular on request.

    "row": some row becomes a form multiple of another row (the form has
    degree d_i - d_k, so the grid is kept); "column": a column is zeroed.
    """
    src, tgt = SHAPES[label]
    ent = [[random_form(field, d - s, rng) if d >= s else Form.zero(field, d - s) for s in src] for d in tgt]
    if singular == "row":
        i, k = max((i, k) for i in range(len(tgt)) for k in range(len(tgt)) if i != k and tgt[i] >= tgt[k])
        f = random_form(field, tgt[i] - tgt[k], rng)
        ent[i] = [f * g for g in ent[k]]
    elif singular == "column":
        j = rng.next_below(len(src))
        for i, d in enumerate(tgt):
            ent[i][j] = Form.zero(field, d - src[j])
    return Presentation(src, tgt, PolyMatrix(field, ent))


@pytest.mark.parametrize("field", [GF(2), GF(3), F101, QQ], ids=["F2", "F3", "F101", "QQ"])
def test_is_injective_agrees_with_det_poly(field):
    rng = SplitMix64(derive_seed(4242, field.p if field.kind == "prime" else 0))
    seen = set()
    for label in StratumLabel:
        for singular in (None, None, "row", "column"):
            P = _random_on_shape(label, field, rng, singular)
            want = not det_poly(P.matrix).is_zero
            assert is_injective(P) == want, (label, singular)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [GF(2), F101, GF(2**31 + 11), QQ], ids=repr)
def test_probe_products_match_cellwise_evaluation(field, evaluate):
    # phi at every probe point, from the one product of `_probe_matrices`,
    # against its cells evaluated one at a time: a sample of every row, and
    # the same with a zero cell tagged with a degree other than its own.
    # The X3, X4 and X5 shapes have cells of negative degree.
    cases = []
    for label in StratumLabel:
        P = sample(SampleRequest(label, field, seed=7))
        entries = [list(row) for row in P.matrix.entries]
        entries[-1][0] = Form.zero(field, 7)
        cases += [P, Presentation(P.source, P.target, PolyMatrix(field, entries))]
    assert any(d < s for P in cases for d in P.target for s in P.source)
    for P in cases:
        probes = list(presentation._probe_matrices(P))
        assert len(probes) == len(PROBE_POINTS)
        for M, point in zip(probes, PROBE_POINTS):
            want = [[evaluate(f, point) for f in row] for row in P.matrix.entries]
            assert M.a.dtype == field.dtype
            assert M.to_lists() == want, (P, point)
            assert {type(x) for row in M.to_lists() for x in row} == {type(field.zero())}


def test_probe_points_reduce_to_distinct_points():
    def projective(point, p):
        v = [c % p for c in point]
        inv = pow(next(c for c in v if c), p - 2, p)
        return tuple(c * inv % p for c in v)

    for p in (2, 3, 5, 7, 11, 13, 101):
        assert len({projective(pt, p) for pt in PROBE_POINTS}) == len(PROBE_POINTS) == 7


def test_is_injective_falls_back_to_det_poly_over_f2(monkeypatch):
    # det = X*Y*(X+Y)*Z is nonzero but vanishes at all 7 points of P^2(F_2),
    # so no probe has full rank and only the expansion can certify it
    field = GF(2)
    X, Y, Z = variables(field)
    P = Presentation((-3, -1), (0, 0), PolyMatrix(field, [[X * Y * (X + Y), Form.zero(field, 1)], [Form.zero(field, 3), Z]]))
    calls = []
    monkeypatch.setattr(presentation, "det_poly", lambda M: calls.append(M) or det_poly(M))
    assert is_injective(P)
    assert len(calls) == 1
    assert validate(P) == []


def test_classification_report_expands_no_determinant(monkeypatch):
    calls = []

    def counting(P):
        calls.append(P)
        return fitting_determinant(P)

    for module in (presentation, strata):
        monkeypatch.setattr(module, "fitting_determinant", counting, raising=False)
    for label in StratumLabel:
        rep = strata.classification_report(sample_of(label, seed=23))
        assert rep["label"] == label.value and rep["det_degree"] == 6
    assert calls == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialization_roundtrip_bit_exact():
    for label in StratumLabel:
        P = sample_of(label, seed=5)
        text = dumps(P)
        Q = loads(text)
        assert Q == P
        assert dumps(Q) == text


def test_serialization_rational():
    field = QQ
    X, Y, Z = variables(field)
    src, tgt = SHAPES[StratumLabel.X5]
    h = X * X * X * X
    g = Form.zero(field, 5)
    q = Y * Y
    P = Presentation(src, tgt, PolyMatrix(field, [[h.scale(-3), X.scale(7)], [g, q.scale(-1)]]))
    Q = loads(dumps(P))
    assert Q == P


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    src=st.lists(st.integers(-4, 0), min_size=1, max_size=3),
    tgt=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    field=st.sampled_from([GF(2), F101, GF(2**31 + 11), QQ]),
)
def test_serialization_roundtrip_arbitrary_shapes(seed, src, tgt, field):
    # beyond the six strata shapes: any grid-valid presentation round-trips,
    # over int64 and object-dtype fields alike
    rng = SplitMix64(seed)
    entries = [
        [
            random_form(field, d - s, rng) if d - s >= 0 else Form.zero(field, d - s)
            for s in src
        ]
        for d in tgt
    ]
    P = Presentation(tuple(src), tuple(tgt), PolyMatrix(field, entries))
    text = dumps(P)
    Q = loads(text)
    assert Q == P and dumps(Q) == text
    from sextic_strata.presentation import validate_grid_only

    assert validate_grid_only(Q) == validate_grid_only(P) == []


@pytest.mark.parametrize("field", [GF(2), F101, GF(2**31 - 1), GF(2**31 + 11), GF(2**64 + 13), QQ], ids=repr)
def test_loaded_cells_keep_the_form_invariants(field):
    # each loaded cell is a view of one read-only buffer, and must hold what
    # a form built on its own holds
    rng = SplitMix64(43)
    src, tgt = (-3, -1, 0, 1), (-2, 0, 1, 2)
    entries = [[random_form(field, d - s, rng).scale(Fraction(1, 3)) if d >= s and rng.next_below(3)
                else Form.zero(field, d - s) for s in src] for d in tgt]
    entries[3][3] = Form.zero(field, 1)
    entries[3][2] = Form.zero(field, 2)
    entries[3][1] = Form.monomial(field, (0, 2, 1), 1)
    P = Presentation(src, tgt, PolyMatrix(field, entries))
    doc = json.loads(dumps(P))
    zero = field.encode_coeff(field.zero())
    doc["matrix"][3][3] = [[zero, 0, 1, 0]]  # a zero coefficient, listed
    doc["matrix"][3][2] = [[zero, *e] for e in ((0, 0, 2), (2, 0, 0), (1, 1, 0))]  # only zeros, listed
    doc["matrix"][3][1] = [[zero, 3, 0, 0], [1, 0, 2, 1], [zero, 0, 0, 3]]  # zeros around one term
    Q = presentation.presentation_from_dict(doc)
    assert Q == P
    for i, (row, d) in enumerate(zip(Q.matrix.entries, tgt)):
        for j, (f, s) in enumerate(zip(row, src)):
            assert f.degree == d - s
            assert not f.array.flags.writeable and f.array.dtype == field.dtype
            assert f.array.shape == (dim_forms(d - s),)
            assert f.is_zero == (not f.array.any())
            built = Form(field, d - s, dict(P.matrix.entry(i, j).coeffs))
            assert f == built and hash(f) == hash(built)
    assert Q.matrix.entry(3, 3).is_zero and Q.matrix.entry(3, 3).array.size == 3
    for f, degree in ((Q.matrix.entry(3, 3), 1), (Q.matrix.entry(3, 2), 2)):
        assert f.is_zero and f.degree == degree
        assert f == Form.zero(field, degree) and hash(f) == hash(Form.zero(field, degree))
    mixed = Q.matrix.entry(3, 1)
    assert not mixed.is_zero and mixed == Form.monomial(field, (0, 2, 1), 1)
    for f in (mixed, Q.matrix.entry(3, 2), Q.matrix.entry(0, 3)):
        for name in ("field", "degree", "array", "is_zero"):
            with pytest.raises(AttributeError):
                setattr(f, name, getattr(f, name))


_P101, _PBIG, _QQ = ({"kind": "prime", "p": 101}, {"kind": "prime", "p": 2**64 + 13}, {"kind": "rational"})


@pytest.mark.parametrize("field, degree, cell, error, message", [
    (_P101, 1, [[1, 0, 0]], ValueError, "a term is a list [coefficient, e_X, e_Y, e_Z], not [1, 0, 0]"),
    (_P101, 1, [[1, 1, 0, 0, 0]], ValueError, "a term is a list [coefficient, e_X, e_Y, e_Z], not [1, 1, 0, 0, 0]"),
    (_P101, 1, [7], ValueError, "a term is a list [coefficient, e_X, e_Y, e_Z], not 7"),
    (_P101, 1, [[1, True, 0, 0]], ValueError, "exponents must be integers, not (True, 0, 0)"),
    (_P101, 1, [[1, 0, 1.0, 0]], ValueError, "exponents must be integers, not (0, 1.0, 0)"),
    (_P101, 1, [[1, 0, 0, "1"]], ValueError, "exponents must be integers, not (0, 0, '1')"),
    (_P101, 1, [[1, 1, 1, 0]], ValueError, "exponent (1, 1, 0) does not have degree 1"),
    (_P101, 1, [[1, 2, -1, 0]], ValueError, "exponent (2, -1, 0) does not have degree 1"),
    (_P101, -1, [[1, -1, 0, 0]], ValueError, "exponent (-1, 0, 0) does not have degree -1"),
    (_P101, -1, [[0, 0, 0, 0]], ValueError, "exponent (0, 0, 0) does not have degree -1"),
    (_P101, 1, [[1, 1, 0, 0], [2, 1, 0, 0]], ValueError, "monomial (1, 0, 0) is listed twice"),
    (_P101, 1, [[0, 0, 1, 0], [0, 0, 1, 0]], ValueError, "monomial (0, 1, 0) is listed twice"),
    (_P101, 1, [[3, 0, 0, 1], [0, 0, 0, 1]], ValueError, "monomial (0, 0, 1) is listed twice"),
    # the duplicate is found before its coefficient is decoded
    (_P101, 1, [[3, 0, 0, 1], [101, 0, 0, 1]], ValueError, "monomial (0, 0, 1) is listed twice"),
    (_P101, 1, [[101, 1, 0, 0]], ValueError, "coefficient 101 outside [0, 101)"),
    (_P101, 1, [[-1, 1, 0, 0]], ValueError, "coefficient -1 outside [0, 101)"),
    (_P101, 1, [["0x10", 1, 0, 0]], ValueError, "invalid literal for int() with base 10: '0x10'"),
    (_PBIG, 1, [[2**64 + 13, 1, 0, 0]], ValueError,
     "coefficient 18446744073709551629 outside [0, 18446744073709551629)"),
    (_PBIG, 1, [["-1", 1, 0, 0]], ValueError, "coefficient -1 outside [0, 18446744073709551629)"),
    (_PBIG, 1, [["12a", 1, 0, 0]], ValueError, "invalid literal for int() with base 10: '12a'"),
    (_QQ, 1, [["1/0", 1, 0, 0]], ValueError, "zero denominator in rational coefficient '1/0'"),
    (_P101, 1, ["abcd"], ValueError, "a term is a list [coefficient, e_X, e_Y, e_Z], not 'abcd'"),
    (_P101, 1, [{"c": 1, "x": 1, "y": 0, "z": 0}], ValueError,
     "a term is a list [coefficient, e_X, e_Y, e_Z], not {'c': 1, 'x': 1, 'y': 0, 'z': 0}"),
    # terms before the first malformed one are read as usual
    (_P101, 1, [[1, 1, 0, 0], [2, 0, 1]], ValueError, "a term is a list [coefficient, e_X, e_Y, e_Z], not [2, 0, 1]"),
    (_P101, 1, [[1, 1, 0, 0], [1, 1, 0, 0], 7], ValueError, "monomial (1, 0, 0) is listed twice"),
])
def test_loads_names_the_first_malformed_term(field, degree, cell, error, message):
    # the second cell is well formed and the first malformed term decides;
    # the exact messages are what the CLI error documents carry
    text = json.dumps({"format_version": 1, "field": field, "source_twists": [-degree, 0],
                       "target_twists": [0], "matrix": [[cell, [[1, 0, 0, 0]]]]})
    with pytest.raises(error) as exc:
        loads(text)
    assert type(exc.value) is error and str(exc.value) == message


def test_negative_degree_cells_share_one_zero_form():
    # one load builds one zero form per negative degree, however many cells
    # have it; cells of other degrees are forms of their own
    doc = {"format_version": 1, "field": {"kind": "prime", "p": 101},
           "source_twists": [0, 0, 1], "target_twists": [-1, -1, 0],
           "matrix": [[[], [], []], [[], [], []], [[], [[2, 0, 0, 0]], []]]}
    M = presentation.presentation_from_dict(doc).matrix
    minus_one = {id(M.entry(i, j)) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))}
    minus_two = {id(M.entry(0, 2)), id(M.entry(1, 2))}
    assert len(minus_one) == len(minus_two) == 1 and minus_one != minus_two
    assert M.entry(2, 0) is not M.entry(2, 1) and M.entry(2, 1).array.tolist() == [2]


def test_format_version_checked():
    P = sample_of(StratumLabel.X5)
    import json

    doc = json.loads(dumps(P))
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        from sextic_strata.presentation import presentation_from_dict

        presentation_from_dict(doc)


@settings(deadline=None)
@given(src=st.lists(st.integers(-54, 10), min_size=1, max_size=8),
       tgt=st.lists(st.integers(-54, 10), min_size=1, max_size=8))
def test_coefficient_budget_is_plain_total(src, tgt):
    # within the cell budget the coefficient budget is the plain total over
    # the cells: a file of empty cells loads at that total and is refused
    # (BudgetExceededError, exit 3) one below it
    total = sum(dim_forms(d - s) for d in tgt for s in src)
    text = json.dumps({"format_version": 1, "field": {"kind": "prime", "p": 101},
                       "source_twists": src, "target_twists": tgt,
                       "matrix": [[[] for _ in src] for _ in tgt]})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentation, "MAX_LOAD_COEFFICIENTS", total)
        assert presentation.loads(text).source == tuple(src)
        mp.setattr(presentation, "MAX_LOAD_COEFFICIENTS", total - 1)
        with pytest.raises(BudgetExceededError, match="coefficients"):
            presentation.loads(text)
