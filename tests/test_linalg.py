from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic_strata.fields import GF, QQ
from sextic_strata.linalg import ScalarMatrix, _update_budget


def identity(field, n):
    return ScalarMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def column(field, v):
    return ScalarMatrix(field, [[x] for x in v], shape=(len(v), 1))


def test_identity_rank_and_kernel():
    M = identity(QQ, 4)
    assert M.rank() == 4
    assert M.kernel_basis() == []


def test_zero_matrix():
    M = ScalarMatrix.zeros(GF(101), 3, 5)
    assert M.rank() == 0
    assert len(M.kernel_basis()) == 5


def test_proportional_rows_kernel():
    M = ScalarMatrix(QQ, [[1, 2], [2, 4]])
    assert M.rank() == 1
    (v,) = M.kernel_basis()
    # kernel is spanned by (2, -1)
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert M.matmul(column(QQ, v)).is_zero()


def test_kernel_vectors_annihilate():
    F = GF(7)
    M = ScalarMatrix(F, [[1, 2, 3], [4, 5, 6]])
    for v in M.kernel_basis():
        assert M.matmul(column(F, v)).is_zero()


def test_solve_particular_and_inconsistent():
    M = ScalarMatrix(QQ, [[1, 1], [0, 0]])
    assert M.solve([3, 0]) == [Fraction(3), Fraction(0)]  # free variable zeroed
    assert M.solve([3, 1]) is None
    F = GF(5)
    N = ScalarMatrix(F, [[2, 0], [0, 3]])
    x = N.solve([1, 1])
    assert N.matmul(column(F, x)) == column(F, [1, 1])


def test_stacking_and_transpose():
    F = GF(5)
    A = ScalarMatrix(F, [[1, 2], [3, 4]])
    B = ScalarMatrix(F, [[0, 1], [1, 0]])
    assert A.hstack(B).shape == (2, 4)
    assert A.vstack(B).shape == (4, 2)
    assert A.transpose().entry(0, 1) == 3
    assert A.matmul(identity(F, 2)) == A


def _random_int_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_rank_agrees_with_reductions_on_fixed_corpus():
    # Rank over Q equals rank mod p for all but finitely many p; this fixed
    # corpus documents agreement at p = 101 and p = 32003.
    rng = random.Random(991)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = _random_int_matrix(rng, rows, cols)
        r_q = ScalarMatrix(QQ, data).rank()
        assert r_q == ScalarMatrix(GF(101), data).rank()
        assert r_q == ScalarMatrix(GF(32003), data).rank()


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    ),
    p=st.sampled_from([2, 3, 101]),
)
def test_rank_mod_p_never_exceeds_rational_rank(data, p):
    # A nonzero minor mod p lifts to a nonzero rational minor.
    assert ScalarMatrix(GF(p), data).rank() <= ScalarMatrix(QQ, data).rank()


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    )
)
def test_backends_agree(data):
    # The numpy prime-field path and the Fraction path compute the same rank
    # whenever p is large enough not to collide with the minors.
    rq = ScalarMatrix(QQ, data).rank()
    rp = ScalarMatrix(GF(32003), data).rank()
    assert rp == rq


def test_rref_pivots_deterministic():
    F = GF(3)
    M = ScalarMatrix(F, [[0, 1, 2], [1, 0, 1], [1, 1, 0]])
    R1, p1 = M.rref()
    R2, p2 = M.rref()
    assert p1 == p2 and R1 == R2


# ---------------------------------------------------------------------------
# one payload for every field: large primes are exact
# ---------------------------------------------------------------------------

BIG = GF(1099511627791)  # above 2**40: int64 products of two entries overflow
INT64_MAX_PRIME = GF(2**31 - 1)  # the largest prime with an int64 payload
OBJECT_MIN_PRIME = GF(2**31 + 11)  # the smallest prime with an object payload


def _ref_rref(field, rows, limit=None):
    """Plain-Python Gauss-Jordan elimination, the reference for ScalarMatrix.rref."""
    rows = [[field.normalize(x) for x in row] for row in rows]
    nrows = len(rows)
    limit = len(rows[0]) if limit is None else limit
    pivots = []
    r = 0
    for c in range(limit):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.normalize(x * inv) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.normalize(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _ref_kernel(field, rows):
    R, pivots = _ref_rref(field, rows)
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        v = [field.zero()] * len(rows[0])
        v[f] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.normalize(-R[i][f])
        basis.append(v)
    return basis


def _ref_solve(field, rows, rhs):
    ncols = len(rows[0])
    R, pivots = _ref_rref(field, [row + [b] for row, b in zip(rows, rhs)], limit=ncols)
    if any(row[ncols] != 0 for row in R[len(pivots):]):
        return None
    x = [field.zero()] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = R[i][ncols]
    return x


def _ref_matmul(field, A, B):
    return [
        [field.normalize(sum(A[i][k] * B[k][j] for k in range(len(B)))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    data=st.data(),
    field=st.sampled_from([QQ, GF(101), BIG]),
)
def test_elimination_matches_reference(shape, data, field):
    nrows, ncols = shape
    entry = st.integers(-(2**45), 2**45) | st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rhs = data.draw(st.lists(entry, min_size=nrows, max_size=nrows))
    M = ScalarMatrix(field, rows)
    R, pivots = M.rref()
    ref_R, ref_pivots = _ref_rref(field, rows)
    assert (R.to_lists(), pivots) == (ref_R, ref_pivots)
    assert M.rank() == len(ref_pivots)
    assert M.kernel_basis() == _ref_kernel(field, rows)
    assert M.solve(rhs) == _ref_solve(field, rows, rhs)


def test_large_prime_rank_and_matmul():
    p = BIG.p
    rng = random.Random(1099)
    for _ in range(50):
        U = [[rng.randrange(p) for _ in range(3)] for _ in range(6)]
        V = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
        UV = ScalarMatrix(BIG, U).matmul(ScalarMatrix(BIG, V))
        assert UV.to_lists() == _ref_matmul(BIG, U, V)
        assert UV.rank() == len(_ref_rref(BIG, UV.to_lists())[1]) == 3


def test_large_prime_rref_of_invertible():
    R, pivots = ScalarMatrix(BIG, [[3, 5], [7, 11]]).rref()
    assert R == identity(BIG, 2)
    assert pivots == [0, 1]


@pytest.mark.parametrize("field", [QQ, GF(101), BIG], ids=repr)
def test_ragged_rows_rejected(field):
    with pytest.raises(ValueError):
        ScalarMatrix(field, [[1], [2, 3]])


def test_payload_dtype_follows_field():
    for field in (GF(2), GF(3), GF(101), INT64_MAX_PRIME):
        assert ScalarMatrix(field, [[1, 2]]).a.dtype == np.int64
        assert ScalarMatrix.zeros(field, 2, 2).a.dtype == np.int64
    for field in (QQ, OBJECT_MIN_PRIME, BIG):
        assert ScalarMatrix(field, [[1, 2]]).a.dtype == object


@pytest.mark.parametrize("field", [INT64_MAX_PRIME, OBJECT_MIN_PRIME, BIG], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 4096])
def test_matmul_exact_across_dtype_bounds(field, n):
    # entries p - 1 make every product as large as a canonical product can be;
    # at p = 2**31 - 1 the guard keeps n <= 2 in int64 and moves n = 4096 to
    # object copies
    A = [[field.p - 1] * n]
    B = [[field.p - 1] for _ in range(n)]
    got = ScalarMatrix(field, A).matmul(ScalarMatrix(field, B))
    assert got.to_lists() == _ref_matmul(field, A, B) == [[n % field.p]]
    assert got.a.dtype == field.dtype


@pytest.mark.parametrize("field", [INT64_MAX_PRIME, OBJECT_MIN_PRIME, BIG], ids=repr)
def test_matmul_exact_from_numpy_int64_entries(field):
    # numpy int64 entries are converted like Python ints, so an object-dtype
    # field multiplies exact Python integers rather than wrapping int64s
    x = np.int64(field.p - 1)
    got = ScalarMatrix(field, [[x] * 4]).matmul(ScalarMatrix(field, [[x]] * 4))
    assert got.to_lists() == [[4]]


def test_constructor_reduces_every_value_exactly():
    F = GF(101)
    assert ScalarMatrix(F, [[Fraction(1, 2), Fraction(7, 3)]]).to_lists() == [[51, 36]]
    assert ScalarMatrix(F, [[2**63]]).to_lists() == [[90]]
    assert ScalarMatrix(F, [[2**64]]).to_lists() == [[79]]
    assert ScalarMatrix(F, [[2**63, -1, True]]).to_lists() == [[90, 100, 1]]
    assert ScalarMatrix(QQ, [[np.int64(-3), Fraction(1, 2)]]).to_lists() == [[-3, Fraction(1, 2)]]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), INT64_MAX_PRIME, OBJECT_MIN_PRIME], ids=repr)
def test_empty_matrices_keep_shape_and_dtype(field):
    for M, shape in ((ScalarMatrix(field, [], shape=(0, 3)), (0, 3)), (ScalarMatrix(field, [[], [], []]), (3, 0))):
        assert M.shape == shape
        assert M.a.dtype == field.dtype
        assert M.transpose().shape == shape[::-1]


# ---------------------------------------------------------------------------
# tall matrices: many updates between reductions
# ---------------------------------------------------------------------------

MID_PRIME = GF(2**30 - 35)  # int64 payload that must reduce every few updates


@pytest.mark.parametrize(
    "field", [GF(2), GF(101), MID_PRIME, INT64_MAX_PRIME, OBJECT_MIN_PRIME, QQ], ids=repr
)
@pytest.mark.parametrize("shape,rank", [((60, 40), 40), ((64, 44), 29)])
def test_tall_elimination_matches_reference(field, shape, rank):
    # Entries range over all of [0, p) (small integers over Q), so every
    # unreduced update adds a product close to (p - 1)**2.
    rng = random.Random(shape[0] * 1000 + rank)
    bound = 2 if field.kind == "rational" else field.p
    nrows, ncols = shape
    U = [[rng.randrange(bound) for _ in range(rank)] for _ in range(nrows)]
    V = [[rng.randrange(bound) for _ in range(ncols)] for _ in range(rank)]
    rows = _ref_matmul(field, U, V)
    # M times the all-ones vector, the unique solution at full column rank;
    # a random right-hand side is inconsistent at deficient rank
    rhs = [sum(r) for r in rows] if rank == ncols else [rng.randrange(bound) for _ in range(nrows)]
    M = ScalarMatrix(field, rows)
    ref_R, ref_pivots = _ref_rref(field, rows)
    R, pivots = M.rref()
    assert (R.to_lists(), pivots) == (ref_R, ref_pivots)
    assert R.a.dtype == field.dtype
    assert M.rank() == len(ref_pivots)
    assert M.kernel_basis() == _ref_kernel(field, rows)
    x = M.solve(rhs)
    assert x == _ref_solve(field, rows, rhs)
    if len(ref_pivots) == ncols:
        assert x == [field.one()] * ncols


@pytest.mark.parametrize("field", [GF(2), GF(101), MID_PRIME, INT64_MAX_PRIME], ids=repr)
def test_update_budget_keeps_int64_exact(field):
    for steps in (1, 5, 40, 500):
        k = _update_budget(field, steps)
        assert 1 <= k <= steps
        assert field.dot_dtype(k + 1) is np.int64
    assert _update_budget(INT64_MAX_PRIME, 40) == 1
    assert _update_budget(GF(101), 500) == 500
    assert _update_budget(QQ, 40) == _update_budget(OBJECT_MIN_PRIME, 40) == 1


@pytest.mark.parametrize(
    "field", [GF(2), GF(101), MID_PRIME, INT64_MAX_PRIME, OBJECT_MIN_PRIME, BIG, QQ], ids=repr
)
def test_empty_rank_is_zero_without_elimination(field, monkeypatch):
    def no_elimination(self, *args, **kwargs):
        raise AssertionError("rref called on an empty matrix")

    monkeypatch.setattr(ScalarMatrix, "rref", no_elimination)
    for shape in ((0, 4), (4, 0), (0, 0)):
        assert ScalarMatrix.zeros(field, *shape).rank() == 0, shape
