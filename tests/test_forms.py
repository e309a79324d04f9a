from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic_strata.fields import GF, QQ
from sextic_strata.forms import (
    Form,
    block_mult_map,
    common_factor,
    dim_forms,
    divides,
    forms_rank,
    monomial_basis,
    mult_map,
    variables,
)
from sextic_strata.linalg import ScalarMatrix
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.presentation import Presentation, dumps, loads
from sextic_strata.rng import SplitMix64
from sextic_strata.sampler import random_form


def reloaded(f: Form) -> Form:
    """f written by `dumps` and read back by `loads`, as the one cell of a
    1x1 presentation."""
    P = Presentation((0,), (f.degree,), PolyMatrix(f.field, [[f]]))
    return loads(dumps(P)).matrix.entry(0, 0)


# ---------------------------------------------------------------------------
# monomial basis
# ---------------------------------------------------------------------------


def test_monomial_basis_small():
    assert monomial_basis(0) == ((0, 0, 0),)
    assert monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_monomial_basis_degree_three_count():
    # independent enumeration of all exponent triples of degree 3
    expected = {
        (i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if i + j + k == 3
    }
    basis = monomial_basis(3)
    assert len(basis) == len(expected) == 10
    assert set(basis) == expected


def test_monomial_basis_counts_up_to_eight():
    for d in range(9):
        assert len(monomial_basis(d)) == (d + 1) * (d + 2) // 2


def test_monomial_basis_is_graded_lex():
    for d in range(1, 6):
        b = monomial_basis(d)
        assert b == tuple(sorted(b, key=lambda e: (-e[0], -e[1])))


def test_monomial_basis_negative_degree():
    with pytest.raises(ValueError):
        monomial_basis(-1)


# ---------------------------------------------------------------------------
# multiplication matrices
# ---------------------------------------------------------------------------


def test_mult_map_by_one_is_identity():
    one = Form.constant(QQ, 1)
    assert mult_map(one, 2) == ScalarMatrix(QQ, [[int(i == j) for j in range(6)] for i in range(6)])


def test_mult_map_by_x_from_constants():
    X, Y, Z = variables(QQ)
    M = mult_map(X, 0)
    assert M.shape == (3, 1)
    assert M.to_lists() == [[1], [0], [0]]


def test_mult_map_by_linear_form_injective():
    X, Y, Z = variables(QQ)
    M = mult_map(X + Y, 1)
    assert M.shape == (6, 3)
    assert M.rank() == 3
    assert M.kernel_basis() == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    a=st.integers(0, 2),
    c=st.integers(0, 2),
    b=st.integers(0, 2),
)
def test_mult_map_composition(seed, a, c, b):
    # multiplying by f then by g equals multiplying by g*f
    field = GF(101)
    rng = SplitMix64(seed)
    f = random_form(field, a, rng)
    g = random_form(field, c, rng)
    lhs = mult_map(g, a + b).matmul(mult_map(f, b))
    rhs = mult_map(g * f, b)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# form arithmetic
# ---------------------------------------------------------------------------


def test_degree_mismatch_rejected():
    X, Y, Z = variables(QQ)
    with pytest.raises(ValueError):
        X + X * Y


def test_zero_form_is_canonical():
    X, Y, Z = variables(QQ)
    assert (X - X).is_zero
    assert (X - X) == Form.zero(QQ, 1)
    assert not (X - X).coeffs


def test_evaluate(evaluate):
    X, Y, Z = variables(GF(7))
    f = X * X + Y * Z
    assert evaluate(f, (1, 2, 3)) == (1 + 6) % 7


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_hash_agrees_with_equality(field):
    # every zero form equals every other, whatever its degree tag
    X, Y, Z = variables(field)
    zeros = [Form.zero(field, 1), Form.zero(field, 2), Form.zero(field, -1), X - X]
    assert all(a == b for a in zeros for b in zeros)
    assert len(set(zeros)) == 1
    f = X * Y + Z * Z.scale(3)
    g = reloaded(f)
    assert f == g and hash(f) == hash(g)
    assert len({f, g, -(-f), X * Y}) == 2


ARRAY_FIELDS = [QQ, GF(101), GF(2**31 - 1), GF(2**31 + 11)]


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=repr)
def test_array_payload(field):
    rng = SplitMix64(31)
    X, Y, Z = variables(field)
    forms = [Form.zero(field, -2), Form.zero(field, 3), X - X, Form.constant(field, 5)]
    forms += [random_form(field, d, rng) for d in range(6)]
    forms += [forms[-1] * forms[-2], forms[-1] + forms[-1], -forms[-1], forms[-1].scale(7)]
    forms += [reloaded(forms[-1]), Form(field, 1, {(0, 1, 0): 4})]
    for f in forms:
        assert f.array.dtype == field.dtype
        assert f.array.shape == (dim_forms(f.degree),)
        assert not f.array.flags.writeable
        assert f.is_zero == (not f.array.any())
    assert forms[0].array.size == 0
    with pytest.raises(ValueError):
        forms[-1].array[0] = 1


@pytest.mark.parametrize("field", ARRAY_FIELDS, ids=repr)
def test_from_coeff_vector_normalizes_like_the_constructor(field):
    # Fractions and integers beyond int64 are reduced, never truncated or overflowed
    vec = [Fraction(1, 2), -1, 2**63]
    f = Form.from_coeff_vector(field, 1, vec)
    assert f == Form(field, 1, dict(zip(monomial_basis(1), vec)))
    assert f.array.tolist() == [field.normalize(c) for c in vec]


def _scalar(field, rng):
    if field.kind == "prime":
        return rng.next_below(field.p)
    return Fraction(rng.next_below(19) - 9, 1 + rng.next_below(4))


@pytest.mark.parametrize("field", [QQ, GF(2**31 - 1), GF(2**31 + 11)], ids=repr)
def test_arithmetic_is_evaluation_homomorphism(field, evaluate):
    # A quartic times a quintic sums up to 15 products into one coefficient,
    # which overflows int64 over GF(2**31 - 1) unless the product is formed
    # in the field's dot_dtype.
    F = field
    rng = SplitMix64(2027)
    for _ in range(20):
        f, g, h = random_form(F, 4, rng), random_form(F, 5, rng), random_form(F, 4, rng)
        c = _scalar(F, rng)
        pt = [_scalar(F, rng) for _ in range(3)]
        fv, gv, hv = evaluate(f, pt), evaluate(g, pt), evaluate(h, pt)
        assert (f * g).degree == 9
        assert evaluate(f * g, pt) == F.normalize(fv * gv)
        assert evaluate(f + h, pt) == F.normalize(fv + hv)
        assert evaluate(f - h, pt) == F.normalize(fv - hv)
        assert evaluate(f.scale(c), pt) == F.normalize(c * fv)


def test_encoding_roundtrip():
    field = GF(101)
    rng = SplitMix64(5)
    for d in range(4):
        f = random_form(field, d, rng)
        assert reloaded(f) == f


def test_pretty():
    X, Y, Z = variables(QQ)
    assert (X * X + Y * Z).pretty() == "X^2 + Y*Z"
    assert Form.zero(QQ, 3).pretty() == "0"


# ---------------------------------------------------------------------------
# forms_rank
# ---------------------------------------------------------------------------


def test_forms_rank_examples():
    X, Y, Z = variables(QQ)
    assert forms_rank([X, Y, Z]) == 3
    assert forms_rank([X, X + X]) == 1
    # the minors of the 3x2 example block are independent
    assert forms_rank([X * X, X * Y, Y * Y - X * Z]) == 3
    with pytest.raises(ValueError):
        forms_rank([X, X * Y])


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------


def test_divides_examples():
    X, Y, Z = variables(QQ)
    assert divides(X, X * Y)
    assert not divides(X, Y * Y)
    assert divides(X + Y, X * X - Y * Y)  # X^2 - Y^2 = (X+Y)(X-Y)
    with pytest.raises(ValueError):
        divides(Form.zero(QQ, 1), X * Y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), d=st.integers(1, 3))
def test_divides_products(seed, d):
    field = GF(101)
    rng = SplitMix64(seed)
    l = random_form(field, 1, rng)
    while l.is_zero:
        l = random_form(field, 1, rng)
    m = random_form(field, d, rng)
    assert divides(l, l * m)


def test_divides_products_at_large_prime():
    # coefficients near 2**40 overflowed the int64 elimination
    field = GF(1099511627791)
    rng = SplitMix64(1099)
    for _ in range(30):
        l, u = random_form(field, 1, rng), random_form(field, 1, rng)
        assert divides(l, l * u)


# ---------------------------------------------------------------------------
# common factors, with an independent brute-force oracle over F_5
# ---------------------------------------------------------------------------


def _projective_linear_forms_f5():
    # one representative per projective class: first nonzero coordinate = 1
    for coeffs in itertools.product(range(5), repeat=3):
        if not any(coeffs):
            continue
        first = next(c for c in coeffs if c)
        if first == 1:
            yield coeffs


def _line_points(field, lcoeffs):
    # two kernel basis vectors of the 1x3 matrix, then P^1 over F_5
    M = ScalarMatrix(field, [list(lcoeffs)])
    p1, p2 = M.kernel_basis()
    pts = [[(p1[i] + t * p2[i]) % 5 for i in range(3)] for t in range(5)]
    pts.append(p2)
    return pts


def _divides_on_points(field, lcoeffs, q, evaluate):
    # a linear form divides a quadric iff the quadric vanishes on all six
    # points of the line (6 > deg 2, so vanishing forces divisibility)
    return all(evaluate(q, pt) == 0 for pt in _line_points(field, lcoeffs))


def _common_factor_bruteforce(q1, q2, evaluate):
    field = q1.field
    if q1.is_zero or q2.is_zero:
        return True
    if forms_rank([q1, q2]) <= 1:
        return True
    for lcoeffs in _projective_linear_forms_f5():
        if _divides_on_points(field, lcoeffs, q1, evaluate) and _divides_on_points(field, lcoeffs, q2, evaluate):
            return True
    return False


def test_common_factor_examples():
    X, Y, Z = variables(QQ)
    assert common_factor(X * X, X * Y)
    assert not common_factor(X * X + Y * Z, X * Y)
    q = X * X + Y * Z
    assert common_factor(q, q.scale(3))
    with pytest.raises(ValueError):
        common_factor(Form.zero(QQ, 2), Form.zero(QQ, 2))


def test_common_factor_example_over_f5_oracle(evaluate):
    field = GF(5)
    X, Y, Z = variables(field)
    q1, q2 = X * X + Y * Z, X * Y
    assert not _common_factor_bruteforce(q1, q2, evaluate)
    assert not common_factor(q1, q2)


def test_common_factor_agrees_with_bruteforce(evaluate):
    field = GF(5)
    rng = SplitMix64(4242)
    agree = 0
    for _ in range(300):
        q1 = random_form(field, 2, rng)
        q2 = random_form(field, 2, rng)
        if q1.is_zero and q2.is_zero:
            continue
        assert common_factor(q1, q2) == _common_factor_bruteforce(q1, q2, evaluate)
        agree += 1
    assert agree > 250


@pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
def test_mult_map_matches_cell_by_cell_reference(field, reference_mult_map):
    rng = SplitMix64(808)
    for a in range(6):
        forms = [random_form(field, a, rng), Form.zero(field, a)]
        forms += [Form.monomial(field, e, 1 + rng.next_below(7)) for e in monomial_basis(a)]
        for f in forms:
            for b in range(6):
                M = mult_map(f, b)
                assert M.a.dtype == field.dtype
                assert M.to_lists() == reference_mult_map(f, b), (f, b)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
def test_block_mult_map_matches_blockwise_reference(field, reference_mult_map):
    # Blocks of degrees 0-5 in one matrix, negative source and target
    # degrees (empty blocks, under nonzero cells too) and zero cells whose
    # degree tags are wrong.
    rng = SplitMix64(909)
    source, target = (-2, 0, 1, 2), (-1, 1, 3)
    cells = [[random_form(field, c - b, rng) if c >= b else Form.zero(field, c - b) for b in source]
             for c in target]
    cells[2][1] = Form.zero(field, -4)
    cells[1][3] = Form.zero(field, 7)
    assert not cells[2][0].is_zero  # a quintic over an empty block
    M = block_mult_map(field, cells, source, target)
    assert M.shape == (sum(map(dim_forms, target)), sum(map(dim_forms, source)))
    assert M.a.dtype == field.dtype
    expected = []
    for c, row in zip(target, cells):
        blocks = [
            reference_mult_map(f, b) if not f.is_zero else [[field.zero()] * dim_forms(b)] * dim_forms(c)
            for b, f in zip(source, row)
            if b >= 0
        ]
        expected += [sum((block[k] for block in blocks), []) for k in range(dim_forms(c))]
    assert M.to_lists() == expected

    other = GF(7) if field.kind == "rational" else QQ
    for bad in (Form.monomial(field, (0, 1, 0)), Form.constant(other, 1)):
        wrong = [list(row) for row in cells]
        wrong[1][2] = bad  # degree 1 where 0 is due; the right degree, another field
        with pytest.raises(ValueError):
            block_mult_map(field, wrong, source, target)
    # cells of empty blocks are not read
    wrong[1][2], wrong[2][0] = cells[1][2], random_form(field, 4, rng)
    assert block_mult_map(field, wrong, source, target) == M
    with pytest.raises(ValueError):
        block_mult_map(field, cells, source[:3], target)


@pytest.mark.parametrize("field", [GF(101), GF(2**31 - 1), GF(2**31 + 11), QQ], ids=repr)
def test_empty_block_mult_map_keeps_shape_and_dtype(field):
    # Maps with no entries: every source degree negative, or every cell
    # degree negative.  No cell of an empty map is read, but a grid of
    # another shape than the degree vectors is still an error.
    rng = SplitMix64(910)
    for source, target in (((-2, -1), (-1, 0, 2)), ((3, 4), (0, 2)), ((-1, 5), (1, 4))):
        cells = [[random_form(field, max(c - b, 0), rng) for b in source] for c in target]
        M = block_mult_map(field, cells, source, target)
        assert M.shape == (sum(map(dim_forms, target)), sum(map(dim_forms, source)))
        assert M.a.dtype == field.dtype
        assert not M.a.any()
        with pytest.raises(ValueError):
            block_mult_map(field, cells[:-1], source, target)
        with pytest.raises(ValueError):
            block_mult_map(field, [row[:-1] for row in cells], source, target)
