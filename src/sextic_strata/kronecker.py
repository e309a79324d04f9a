"""Kronecker modules and exact semistability in the sense of King.

A Kronecker module here is an n x m matrix M of linear forms in X, Y, Z,
i.e. a linear map k^m -> k^n (x) V with dim V = 3.  For a nonzero source
subspace S with minimal target span T (the span of all coefficient
vectors of M applied to S), the slope test reads

    m * dim T >= n * dim S      for every S    <=>   M is semistable,

with equality allowed (strict inequality everywhere is stability).  With
M = X*A + Y*B + Z*C, a destabilizing S shrinks S (x) k^n into T (x) k^m
under every blow-up element sum A_i (x) E_i (E_i in M_{m x n}), so one of
full rank nm proves semistability (King 1994; Derksen-Weyman 2000); the
second Wong sequence of a rank-deficient one may yield a destabilizing
pair that `verify_witness` re-checks (Ivanyos-Qiao-Subrahmanyam 2017).
Each drawn element is one certificate attempt, decided on its own.  Over a
small prime field the exact verdict enumerates the subspace lattice in the
frozen order of `echelon_chunks`; it takes dim T of a whole chunk of
echelon bases from one matrix product and one batched rank elimination,
and stops at the first violating subspace, whose index is `checked`.

The slope test is symmetric under transposition, so the target lattice
bounds the search from the other side.  For T of dim n - b, with rows U
spanning its annihilator, the largest S sent into T (x) V is
S_max(T) = ker (UA; UB; UC).  Some S of dim a destabilizes iff some T has
dim S_max(T) >= a > m dim T / n.  When n < m the target lattice is the
smaller one, and one pass over it decides alone: it proves semistability,
or it finds the least destabilizing a and the T whose S_max(T) hold every
destabilizing S of dim a; the first such S in the frozen order, and its
index, follow in closed form, so no source subspace is ranked.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import BudgetExceededError
from .fields import Field, PrimeField
from .linalg import ScalarMatrix
from .polymatrix import PolyMatrix
from .rng import SplitMix64

EXACT_LATTICE_BUDGET = 10_000_000
MAX_MODULE_ENTRIES = 64  # n*m; a blow-up element is (nm) x (nm), its rank costs (nm)^3
# echelon bases per batched rank elimination in exact_smallfield; small
# enough that every array of a chunk stays well under a megabyte
ENUMERATION_CHUNK = 512
CERTIFICATE_TRIES = 8
# blow-up elements come from this fixed stream, never from the caller's
CERTIFICATE_SEED = 0x5EED


# ---------------------------------------------------------------------------
# module and witnesses
# ---------------------------------------------------------------------------


class KroneckerModule:
    """n x m matrix of linear forms with semistability machinery; immutable.

    `slices` holds the scalar matrices (A, B, C) with M = X*A + Y*B + Z*C.
    """

    __slots__ = ("field", "n", "m", "matrix", "slices")

    def __init__(self, matrix: PolyMatrix):
        for i in range(matrix.nrows):
            for j in range(matrix.ncols):
                f = matrix.entry(i, j)
                if not f.is_zero and f.degree != 1:
                    raise ValueError(f"entry ({i},{j}) has degree {f.degree}, want linear")
        F = matrix.field
        zero = np.full(3, F.zero(), dtype=F.dtype)
        # cube[i, j] is the coefficient array (X, Y, Z) of cell (i, j)
        cube = np.array([[zero if f.is_zero else f.array for f in row] for row in matrix.entries],
                        dtype=F.dtype).reshape(matrix.nrows, matrix.ncols, 3)
        slices = tuple(ScalarMatrix._wrap(F, cube[:, :, k].copy()) for k in range(3))
        object.__setattr__(self, "field", F)
        object.__setattr__(self, "n", matrix.nrows)
        object.__setattr__(self, "m", matrix.ncols)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "slices", slices)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("KroneckerModule is immutable")

    def stacked_slices(self) -> ScalarMatrix:
        """W = [A^T | B^T | C^T], m x 3n: for a row s of S, the row of S @ W
        is (A s, B s, C s).  Not kept: the certificate path never reads it."""
        A, B, C = (S.transpose() for S in self.slices)
        return A.hstack(B).hstack(C)

    def images(self, S_rows: ScalarMatrix) -> ScalarMatrix:
        """The vectors A s, B s, C s of every row s of S_rows, as rows of a
        (3 dim S) x n matrix; its row space is the minimal span T of S."""
        prod = S_rows.matmul(self.stacked_slices()).a
        return ScalarMatrix._wrap(self.field, prod.reshape(3 * S_rows.nrows, self.n))

    def minimal_span(self, S_rows: ScalarMatrix) -> Tuple[int, List[list]]:
        """Minimal T with M*S inside T (x) V, for S spanned by the given rows.

        Returns (dim T, reduced basis rows of T).
        """
        R, pivots = self.images(S_rows).rref()
        basis = [R.row(i) for i in range(len(pivots))]
        return len(pivots), basis


@dataclass(frozen=True)
class Witness:
    """A destabilizing pair of subspaces: S in the source, T its span."""

    S_basis: Tuple[Tuple[object, ...], ...]
    T_basis: Tuple[Tuple[object, ...], ...]
    dim_S: int
    dim_T: int
    slope_deficit: int  # n*dim_S - m*dim_T > 0

    def report(self, field: Field) -> dict:
        enc = field.encode_coeff
        return {
            "dimS": self.dim_S,
            "dimT": self.dim_T,
            "S_basis": [[enc(x) for x in row] for row in self.S_basis],
            "T_basis": [[enc(x) for x in row] for row in self.T_basis],
            "slope_deficit": self.slope_deficit,
        }


@dataclass(frozen=True)
class SemistabilityResult:
    verdict: str  # "semistable" | "unstable"
    mode: str
    witness: Optional[Witness] = None
    checked: int = 0
    budget: int = 0


def _make_witness(K: KroneckerModule, S_rows: ScalarMatrix) -> Optional[Witness]:
    dim_S = S_rows.nrows
    dim_T, T_basis = K.minimal_span(S_rows)
    deficit = K.n * dim_S - K.m * dim_T
    if deficit <= 0:
        return None
    return Witness(
        S_basis=tuple(tuple(S_rows.row(i)) for i in range(dim_S)),
        T_basis=tuple(tuple(r) for r in T_basis),
        dim_S=dim_S,
        dim_T=dim_T,
        slope_deficit=deficit,
    )


def verify_witness(K: KroneckerModule, w: Witness) -> bool:
    """Independent re-check of a witness against the slope definition.

    Uses only rank computations: S and T must be independent families,
    every coefficient vector of M applied to S must lie in span(T), and
    the slope count m*dimT >= n*dimS must genuinely fail.
    """
    F = K.field
    S = ScalarMatrix(F, [list(r) for r in w.S_basis])
    if S.rank() != w.dim_S or w.dim_S == 0:
        return False
    images = K.images(S)
    if w.dim_T:
        T = ScalarMatrix(F, [list(r) for r in w.T_basis])
        if T.rank() != w.dim_T or T.vstack(images).rank() != w.dim_T:
            return False
    elif not images.is_zero():
        return False
    return K.n * w.dim_S - K.m * w.dim_T == w.slope_deficit and w.slope_deficit > 0


# ---------------------------------------------------------------------------
# subspace enumeration over F_p
# ---------------------------------------------------------------------------


def gaussian_binomial(m: int, a: int, p: int) -> int:
    """Number of a-dimensional subspaces of F_p^m."""
    if a < 0 or a > m:
        return 0
    num = den = 1
    for i in range(a):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_lattice_size(m: int, p: int) -> int:
    return sum(gaussian_binomial(m, a, p) for a in range(1, m + 1))


def _free_slots(pivots, m: int) -> list:
    """The free (row, column) entries of a reduced echelon basis of F_p^m
    with these pivot columns, in row-major order."""
    return [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, m) if j not in pivots]


def echelon_chunks(field: PrimeField, m: int, a: int) -> Iterator[np.ndarray]:
    """All a-dimensional subspaces of F_p^m as reduced echelon bases.

    Yields int64 arrays of shape (N, a, m), N <= ENUMERATION_CHUNK, whose
    concatenation is the frozen enumeration order: pivot patterns in
    lexicographic order, then free entries in row-major lexicographic
    order of their values (the base-p digits of a running index).  A
    dimension whose bases fit in one chunk is built once and shared, as a
    read-only array; larger ones are streamed.
    """
    if gaussian_binomial(m, a, field.p) <= ENUMERATION_CHUNK:
        return iter((_one_chunk(field.p, m, a),))
    return _echelon_stream(field.p, m, a)


@functools.lru_cache(maxsize=32)
def _one_chunk(p: int, m: int, a: int) -> np.ndarray:
    chunk = next(_echelon_stream(p, m, a)).copy()
    chunk.flags.writeable = False
    return chunk


def _echelon_stream(p: int, m: int, a: int) -> Iterator[np.ndarray]:
    out, filled = np.zeros((ENUMERATION_CHUNK, a, m), np.int64), 0
    for pivots in itertools.combinations(range(m), a):
        free_slots = _free_slots(pivots, m)
        total, start = p ** len(free_slots), 0
        while start < total:
            take = min(total - start, ENUMERATION_CHUNK - filled)
            block = out[filled:filled + take]
            block[:, range(a), pivots] = 1
            index = np.arange(start, start + take, dtype=np.int64)
            for s, (i, j) in enumerate(free_slots):
                block[:, i, j] = index // p ** (len(free_slots) - 1 - s) % p
            filled, start = filled + take, start + take
            if filled == ENUMERATION_CHUNK:
                yield out
                out, filled = np.zeros((ENUMERATION_CHUNK, a, m), np.int64), 0
    if filled:
        yield out[:filled]


def _frozen_index(p: int, basis: list) -> int:
    """The position, counting from 1, of the reduced echelon rows `basis` in
    the frozen order: each lower dimension, p^(free entries) per earlier
    pivot pattern of its own, then its free entries as base-p digits."""
    a, m = len(basis), len(basis[0])
    pivots = tuple(row.index(1) for row in basis)
    index = 1 + sum(gaussian_binomial(m, d, p) for d in range(1, a))
    index += sum(p ** len(_free_slots(earlier, m)) for earlier in
                 itertools.takewhile(pivots.__ne__, itertools.combinations(range(m), a)))
    for s, (i, j) in enumerate(reversed(_free_slots(pivots, m))):
        index += basis[i][j] * p ** s
    return index


def _batched_ranks(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of the matrices a[k], a of shape (N, R, n) with entries in [0, p).

    One fraction-free elimination step per column, vectorized over N on a
    contiguous (R, n, N) copy, batch axis last: every row is scaled by the
    pivot (a unit) and loses its multiple of the first row with a nonzero
    entry in the column, which clears the column and the pivot row itself.
    The column is then dropped, so the rank counts the columns that had a
    pivot, and no inverse mod p is ever computed.
    """
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    rank = np.zeros(a.shape[2], dtype=np.int64)
    everyone = np.arange(a.shape[2])
    for _ in range(a.shape[1]):
        col = a[:, 0]
        nonzero = col != 0
        has_pivot = nonzero.any(axis=0)
        pivot_row = a[nonzero.argmax(axis=0), :, everyone].T
        scale = np.where(has_pivot, pivot_row[0], 1)
        a = (scale * a[:, 1:] - col[:, None] * pivot_row[1:]) % p
        rank += has_pivot
    return rank


def _stacked_ranks(F: PrimeField, bases: np.ndarray, W: np.ndarray) -> np.ndarray:
    """For bases of shape (N, a, k) and W = [W_1 | W_2 | W_3] of shape
    (k, 3c) in dot_dtype(k), the ranks of the N (3a) x c matrices whose
    rows are r W_1, r W_2, r W_3 for the rows r of each basis."""
    N, a, _ = bases.shape
    images = F.reduce(bases.astype(W.dtype, copy=False) @ W).astype(F.dtype, copy=False)
    return _batched_ranks(images.reshape(N, 3 * a, W.shape[1] // 3), F.p)


def _first_witness_from_source(K: KroneckerModule) -> Optional[list]:
    """The first violating source subspace in the frozen order as reduced
    echelon rows, None if semistable, ranking ENUMERATION_CHUNK at a time."""
    F = K.field
    W = K.stacked_slices().a.astype(F.dot_dtype(K.m))
    for a in range(1, K.m + 1):
        for bases in echelon_chunks(F, K.m, a):
            violating = np.flatnonzero(K.n * a > K.m * _stacked_ranks(F, bases, W))
            if violating.size:
                return bases[violating[0]].tolist()
    return None


def _first_witness_from_target(K: KroneckerModule) -> Optional[list]:
    """`_first_witness_from_source` for n < m from the target lattice alone.

    dim S_max(T) is m less the rank of (UA; UB; UC), for the annihilators
    U of dim b in echelon chunks.  T of dim t = n - b destabilizes from
    a = floor(m t / n) + 1 on, which grows strictly with t as m > n; so
    the first b, counting down, with a hit gives the least a, and each
    destabilizing S of dim a lies in the S_max(T) of a hit at that b.  The
    first a-subspace of a space in the frozen order is spanned by the first
    a rows of its RREF, so the witness is the least of those over the hits.
    """
    F, n, m = K.field, K.n, K.m
    ABC = np.hstack([S.a for S in K.slices]).astype(F.dot_dtype(n))
    for b in range(n, 0, -1):
        a = m * (n - b) // n + 1
        found = []
        for U in echelon_chunks(F, n, b):
            for hit in np.flatnonzero(m - _stacked_ranks(F, U, ABC) >= a):
                UABC = F.reduce(U[hit].astype(ABC.dtype) @ ABC).reshape(3 * b, m)
                S_max = ScalarMatrix(F, ScalarMatrix(F, UABC.tolist()).kernel_basis())
                found.append(S_max.rref()[0].to_lists()[:a])
        if found:
            return min(found, key=functools.partial(_frozen_index, F.p))
    return None


# ---------------------------------------------------------------------------
# semistability
# ---------------------------------------------------------------------------


def is_semistable(K: KroneckerModule, mode: str = "certificate") -> SemistabilityResult:
    """Decide semistability of a Kronecker module; every verdict is certified.

    certificate: up to CERTIFICATE_TRIES random blow-up elements G, each
    built once and decided alone: rank nm proves "semistable", else the
    Wong sequence started at ker G may give an "unstable" witness.
    `checked` counts the elements drawn, for both verdicts.  If none
    decides, exact_smallfield decides if the lattice fits its budget, and
    BudgetExceededError is raised if not.  Nothing is accepted by default.

    exact_smallfield: the first violating source subspace in a frozen order
    of the lattice over F_p, by increasing dimension and lexicographic pivot
    pattern, is the witness (rebuilt alone by `minimal_span`).  It is found
    by ranking the source lattice when n >= m (`_first_witness_from_source`),
    and by one pass over the smaller target lattice alone when n < m
    (`_first_witness_from_target`).  `checked` is its index in that order,
    counting from 1, computed by `_frozen_index`, not counted; `budget` is
    the lattice size, and so is `checked` when semistable.  Raises
    BudgetExceededError, before any enumeration, when the source lattice
    has more than EXACT_LATTICE_BUDGET elements.  Both modes raise it
    first, before any draw or enumeration, when n*m > MAX_MODULE_ENTRIES.
    """
    if K.n * K.m > MAX_MODULE_ENTRIES:
        raise BudgetExceededError(f"a {K.n} x {K.m} module is past the budget n*m <= {MAX_MODULE_ENTRIES}")
    if mode == "exact_smallfield":
        F = K.field
        if F.kind != "prime":
            raise ValueError("exact_smallfield needs a prime field")
        size = subspace_lattice_size(K.m, F.p)
        if size > EXACT_LATTICE_BUDGET:
            raise BudgetExceededError(
                f"subspace lattice has {size} elements > budget {EXACT_LATTICE_BUDGET}"
            )
        S = _first_witness_from_target(K) if K.n < K.m else _first_witness_from_source(K)
        if S is None:
            return SemistabilityResult("semistable", mode, None, size, size)
        w = _make_witness(K, ScalarMatrix(F, S))
        return SemistabilityResult("unstable", mode, w, _frozen_index(F.p, S), size)

    if mode != "certificate":
        raise ValueError(f"unknown mode {mode!r}")
    F = K.field
    rng = SplitMix64(CERTIFICATE_SEED)
    bound = F.p if F.kind == "prime" else 19
    for tries in range(1, CERTIFICATE_TRIES + 1):
        draws = rng.next_below_block(bound, len(K.slices) * K.m * K.n)
        Es = [ScalarMatrix._wrap(F, E) for E in F.from_draws(draws, (len(K.slices), K.m, K.n))]
        G = _blowup_element(K.slices, Es)
        if G.rank() == K.n * K.m:
            return SemistabilityResult("semistable", mode, None, tries, CERTIFICATE_TRIES)
        w = _wong_witness(K, Es, G)
        if w is not None:
            return SemistabilityResult("unstable", mode, w, tries, CERTIFICATE_TRIES)
    if F.kind == "prime" and subspace_lattice_size(K.m, F.p) <= EXACT_LATTICE_BUDGET:
        return is_semistable(K, mode="exact_smallfield")
    raise BudgetExceededError(f"no certificate in {CERTIFICATE_TRIES} tries and the subspace "
                              f"lattice over {F!r} is past the budget {EXACT_LATTICE_BUDGET}")


def _blowup_element(slices, Es) -> ScalarMatrix:
    """The (n*m) x (m*n) matrix sum_i slices[i] (x) Es[i]."""
    F = slices[0].field
    dt = F.dot_dtype(len(slices))
    total = sum(np.kron(A.a.astype(dt, copy=False), E.a.astype(dt, copy=False))
                for A, E in zip(slices, Es))
    return ScalarMatrix._wrap(F, F.reduce(total).astype(F.dtype, copy=False))


def _wong_witness(K: KroneckerModule, Es, G: ScalarMatrix) -> Optional[Witness]:
    """The limit of the second Wong sequence of G = sum A_i (x) E_i, if destabilizing.

    The sequence starts at ker G.  The blow-up maps U onto
    minimal_span(S) (x) k^m, S the column span of U read as m x n matrices;
    G^-1 (T (x) k^m) = ker sum (Q A_i) (x) E_i, Q's rows spanning the
    annihilator of T.
    """
    F, n, m = K.field, K.n, K.m
    dim_T, U = 0, G.kernel_basis()
    while True:
        cols = [[u[j * n + b] for j in range(m)] for u in U for b in range(n)]
        R, pivots = ScalarMatrix(F, cols, shape=(len(cols), m)).rref()
        S = ScalarMatrix(F, R.to_lists()[:len(pivots)], shape=(len(pivots), m))
        dim_next, T_basis = K.minimal_span(S)
        if dim_next == dim_T:
            return _make_witness(K, S)
        dim_T = dim_next
        Q = ScalarMatrix(F, ScalarMatrix(F, T_basis, shape=(dim_T, n)).kernel_basis(), (n - dim_T, n))
        U = _blowup_element([Q.matmul(A) for A in K.slices], Es).kernel_basis()


# ---------------------------------------------------------------------------
# moduli dimensions and polarizations
# ---------------------------------------------------------------------------


def moduli_dimension(q: int, m: int, n: int) -> int:
    """Dimension q*m*n - m^2 - n^2 + 1 of the Kronecker moduli space N(q, m, n)."""
    if min(q, m, n) < 1:
        raise ValueError("q, m, n must be >= 1")
    return q * m * n - m * m - n * n + 1


# A row (a, b1, b2, c, strict) of a window table states
# a + b1*lam1 + b2*lam2 + c*mu1 > 0 (>= 0 when not strict) in the weights of
# the 2 x (1+2) morphism space with lambda_3 = lambda_2 and mu_2 = mu_1.

# Properness of every zero submatrix pattern under the one-parameter
# subgroup test (King 1994), and positivity of all weights.
SIX_INEQUALITIES_42 = (
    (-1, 0, 2, 1, True),   # mu1 + 2*lam2 > 1
    (-1, 0, 1, 2, True),   # 2*mu1 + lam2 > 1
    (-1, 1, 1, 1, True),   # mu1 + lam1 + lam2 > 1
    (-1, 1, 0, 2, True),   # 2*mu1 + lam1 > 1
    (1, -1, 0, -1, True),  # mu1 + lam1 < 1
    (1, 0, -1, -1, True),  # mu1 + lam2 < 1
    (0, 1, 0, 0, True),    # lam1 > 0
    (0, 0, 1, 0, True),    # lam2 > 0
    (0, 0, 0, 1, True),    # mu1 > 0
)

# Sufficient conditions for a projective good quotient of the 2 x 3 setup,
# with 3 = dim Hom(O(-3), O(-2)) and the quotient constant c = 1/5 of the
# non-reductive GIT construction: quoted from it, hard-coded, not derived.
REFINED_CONDITIONS_42 = (
    (0, 1, 0, 0, True),                  # alpha_1 = lam1 > 0
    (0, -3, 1, 0, True),                 # alpha_2 = lam2 - 3*lam1 > 0
    (Fraction(-3, 10), 0, 1, 0, False),  # lam2 >= (3/2) * c
    (0, 0, 1, Fraction(-3, 5), False),   # lam2 >= 3 * c * mu1
)

# The open stratum of the 2 x 2 setup; its rows read the last weight as mu_2.
MU2_CONDITIONS_22 = (
    (0, 0, 0, 1, True),                # mu2 > 0
    (Fraction(1, 5), 0, 0, -1, True),  # mu2 < 1/5
)

# lam1 = 1 - 2*lam2 and mu1 = 1/2, as the line (u, v) of weights u + lam2*v
LINE_42 = ((1, 0, Fraction(1, 2)), (-2, 1, 0))


def _window(system, line) -> Optional[dict]:
    """The t at which u + t*v satisfies every row of `system`, line = (u, v),
    as one half-line per row intersected exactly: None if empty, else the
    endpoints as text (None where unbounded) and whether each is excluded."""
    u, v = line
    # per side the tightest (endpoint, open) so far, the upper endpoint
    # negated, so that on both sides the larger pair is the tighter bound
    bounds = [None, None]
    for a, *b, strict in system:
        p = a + sum(x * y for x, y in zip(b, u))
        q = sum(x * y for x, y in zip(b, v))
        if q == 0:
            if p < 0 or p == 0 and strict:
                return None
            continue
        bound = (Fraction(-p) / abs(q), strict)
        bounds[q < 0] = max(bounds[q < 0] or bound, bound)
    lo, hi = bounds
    if lo and hi and (lo[0] > -hi[0] or lo[0] == -hi[0] and (lo[1] or hi[1])):
        return None
    return {"lower": lo and str(lo[0]), "upper": hi and str(-hi[0]),
            "open": [not lo or lo[1], not hi or hi[1]]}


def polarization_windows() -> dict:
    """The windows in lam2 on LINE_42 of the six inequalities, (1/4, 1/2),
    and of the refined conditions, (3/7, 1/2); and in mu2, (0, 1/5)."""
    return {"six_inequalities": _window(SIX_INEQUALITIES_42, LINE_42),
            "refined": _window(REFINED_CONDITIONS_42, LINE_42),
            "mu2": _window(MU2_CONDITIONS_22, ((0, 0, 0), (0, 0, 1)))}
