from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sextic_strata import kronecker
from sextic_strata.errors import BudgetExceededError
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, variables
from sextic_strata.kronecker import (
    ENUMERATION_CHUNK,
    KroneckerModule,
    SemistabilityResult,
    _make_witness,
    echelon_chunks,
    gaussian_binomial,
    is_semistable,
    moduli_dimension,
    polarization_windows,
    subspace_lattice_size,
    verify_witness,
)
from sextic_strata.linalg import ScalarMatrix
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import random_form

F3 = GF(3)


def transform(K, g, h):
    """The module h * M * g for invertible scalar matrices; same verdict."""
    F = K.field
    cube = np.stack([h.matmul(S).matmul(g).a for S in K.slices], axis=-1)
    rows = [[Form.from_coeff_vector(F, 1, cell) for cell in row] for row in cube]
    return KroneckerModule(PolyMatrix(F, rows))


def module_from(field, rows):
    return KroneckerModule(PolyMatrix(field, rows))


def random_module(field, n, m, seed):
    rng = SplitMix64(seed)
    return module_from(field, [[random_form(field, 1, rng) for _ in range(m)] for _ in range(n)])


def sparse_module(field, n, m, seed):
    """Each entry zero with probability 1/2, else a random linear form."""
    rng = SplitMix64(seed)
    z = Form.zero(field, 1)
    return module_from(field, [[random_form(field, 1, rng) if rng.next_below(2) else z for _ in range(m)]
                               for _ in range(n)])


# ---------------------------------------------------------------------------
# subspace enumeration
# ---------------------------------------------------------------------------


def test_gaussian_binomial_against_enumeration():
    # oracle: count reduced echelon bases directly; (6, 3, 2) spans several chunks
    assert gaussian_binomial(6, 3, 2) > ENUMERATION_CHUNK
    for m, a, p in [(3, 1, 2), (3, 2, 2), (4, 2, 3), (5, 1, 3), (6, 3, 2)]:
        chunks = list(echelon_chunks(GF(p), m, a))
        assert all(c.dtype == np.int64 and c.shape[1:] == (a, m) for c in chunks)
        assert sum(len(c) for c in chunks) == gaussian_binomial(m, a, p)


def test_subspace_lattice_size_f3_dim5():
    # 121 + 1210 + 1210 + 121 + 1 lines, planes, ..., full space
    assert subspace_lattice_size(5, 3) == 2663


def test_echelon_bases_are_echelon():
    bases = np.concatenate(list(echelon_chunks(F3, 4, 2)))
    for B in bases:
        R, pivots = ScalarMatrix(F3, B.tolist()).rref()
        assert R.to_lists() == B.tolist() and len(pivots) == 2
    # distinct echelon forms are distinct subspaces: the enumeration is complete
    assert len({B.tobytes() for B in bases}) == len(bases) == gaussian_binomial(4, 2, 3)


# ---------------------------------------------------------------------------
# semistability
# ---------------------------------------------------------------------------


def test_zero_module_unstable():
    z = Form.zero(F3, 1)
    K = module_from(F3, [[z, z], [z, z], [z, z]])
    res = is_semistable(K, mode="exact_smallfield")
    assert res.verdict == "unstable"
    assert res.witness.dim_T == 0
    assert verify_witness(K, res.witness)


def test_zero_column_unstable():
    X, Y, Z = variables(F3)
    z = Form.zero(F3, 1)
    K = module_from(F3, [[z, X], [z, Y], [z, Z]])
    res = is_semistable(K, mode="exact_smallfield")
    assert res.verdict == "unstable"
    assert (res.witness.dim_S, res.witness.dim_T) == (1, 0)
    assert verify_witness(K, res.witness)


def test_spec_3x2_module_semistable():
    # exhaustive over the 4 + 1 proper source subspaces of F_3^2
    X, Y, Z = variables(F3)
    z = Form.zero(F3, 1)
    K = module_from(F3, [[X, z], [Y, X], [Z, Y]])
    res = is_semistable(K, mode="exact_smallfield")
    assert res.verdict == "semistable"
    assert res.checked == 5


@pytest.mark.parametrize("p", [2, 3])
def test_certificate_agrees_with_enumeration(p):
    field = GF(p)
    fallbacks = 0
    for k in range(100):
        n, m = (4, 5) if k % 2 == 0 else (3, 2)
        K = random_module(field, n, m, derive_seed(55 + p, k))
        cert = is_semistable(K)
        assert cert.verdict == is_semistable(K, mode="exact_smallfield").verdict
        if cert.witness is not None:
            assert verify_witness(K, cert.witness)
        fallbacks += cert.mode == "exact_smallfield"
    if p == 2:
        # over F_2 random blow-up elements are often singular; enumeration decides
        assert fallbacks >= 1


@pytest.mark.parametrize("field", [GF(3), GF(101), QQ], ids=["F3", "F101", "QQ"])
def test_certificate_block_witness_dims(field):
    from sextic_strata.verify import _block_module

    for idx, dims in enumerate([(1, 0), (2, 1), (3, 2), (4, 3)]):
        K = _block_module(field, dims, SplitMix64(derive_seed(31, idx)))
        res = is_semistable(K)
        assert (res.verdict, res.mode) == ("unstable", "certificate")
        # the first drawn element is rank-deficient and its own Wong limit decides
        assert res.checked == 1
        assert (res.witness.dim_S, res.witness.dim_T) == dims
        assert verify_witness(K, res.witness)


def semistable_after_deficient_draw():
    """A semistable F_3 module whose first blow-up element is rank-deficient."""
    return random_module(F3, 4, 5, derive_seed(58, 2))


def test_semistable_after_rank_deficient_first_element():
    K = semistable_after_deficient_draw()
    res = is_semistable(K)
    assert (res.verdict, res.mode, res.checked) == ("semistable", "certificate", 2)
    assert is_semistable(K, mode="exact_smallfield").verdict == "semistable"


def _certificate_events(monkeypatch, K):
    """Run the certificate on K and log, in order, "G" for each blow-up
    element built from K's own slices, "step" for each built from other
    slices (a later Wong step) and "wong" for each Wong sequence started."""
    events = []
    blowup, wong = kronecker._blowup_element, kronecker._wong_witness

    def spy_blowup(slices, Es):
        own = all(S == A for S, A in zip(slices, K.slices))
        events.append("G" if own else "step")
        return blowup(slices, Es)

    def spy_wong(*args):
        events.append("wong")
        return wong(*args)

    monkeypatch.setattr(kronecker, "_blowup_element", spy_blowup)
    monkeypatch.setattr(kronecker, "_wong_witness", spy_wong)
    return is_semistable(K), events


def block_module_2_1():
    from sextic_strata.verify import _block_module

    return _block_module(GF(101), (2, 1), SplitMix64(derive_seed(31, 1)))


@pytest.mark.parametrize("make, verdict, checked", [
    (block_module_2_1, "unstable", 1),
    (semistable_after_deficient_draw, "semistable", 2),
], ids=["unstable", "semistable"])
def test_blowup_element_built_once_per_draw(monkeypatch, make, verdict, checked):
    res, events = _certificate_events(monkeypatch, make())
    assert (res.verdict, res.checked) == (verdict, checked)
    # each draw builds G once; Wong starts at ker G, never at a rebuilt G
    assert events[:2] == ["G", "wong"]
    assert events.count("G") == checked and events.count("wong") == 1



def test_orbit_invariance_of_verdict():
    rng = SplitMix64(77)
    for k in range(6):
        K = random_module(F3, 3, 2, derive_seed(66, k))
        base = is_semistable(K, mode="exact_smallfield").verdict
        # random invertible scalar pairs
        def random_invertible(n):
            while True:
                M = ScalarMatrix(F3, [[rng.next_below(3) for _ in range(n)] for _ in range(n)])
                if M.rank() == n:
                    return M
        g = random_invertible(K.m)
        h = random_invertible(K.n)
        assert is_semistable(transform(K, g, h), mode="exact_smallfield").verdict == base


def test_budget_exceeded(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started past the budget")

    monkeypatch.setattr(kronecker, "echelon_chunks", no_enumeration)
    K = random_module(GF(101), 4, 5, 1)
    with pytest.raises(BudgetExceededError):
        is_semistable(K, mode="exact_smallfield")


def test_block_forms_unstable_with_matching_witnesses():
    # zero lower-left blocks force witnesses of exactly these dimensions
    from sextic_strata.verify import _block_module

    for idx, dims in enumerate([(1, 0), (2, 1), (3, 2), (4, 3)]):
        rng = SplitMix64(derive_seed(20260801, 900_000 + idx))
        K = _block_module(F3, dims, rng)
        res = is_semistable(K, mode="exact_smallfield")
        assert res.verdict == "unstable"
        assert (res.witness.dim_S, res.witness.dim_T) == dims
        assert verify_witness(K, res.witness)


def test_independent_minors_imply_semistability():
    # tested as an implication only: a 3x2 linear matrix whose three maximal
    # minors are independent is semistable as a Kronecker module
    from sextic_strata.forms import forms_rank
    from sextic_strata.strata import _minors

    found = 0
    for k in range(40):
        K = random_module(F3, 3, 2, derive_seed(1212, k))
        if forms_rank(_minors(*K.matrix.entries)) == 3:
            found += 1
            assert is_semistable(K, mode="exact_smallfield").verdict == "semistable"
    assert found >= 10


def test_witness_report_schema():
    z = Form.zero(F3, 1)
    X, Y, Z = variables(F3)
    K = module_from(F3, [[z, X], [z, Y], [z, Z]])
    res = is_semistable(K, mode="exact_smallfield")
    rep = res.witness.report(F3)
    assert set(rep) == {"dimS", "dimT", "S_basis", "T_basis", "slope_deficit"}
    assert rep["dimS"] == 1 and rep["dimT"] == 0 and rep["slope_deficit"] == 3


# ---------------------------------------------------------------------------
# batched enumeration against the per-subspace loop
# ---------------------------------------------------------------------------


def reference_exact_smallfield(K):
    """The enumeration one subspace at a time: frozen-order bases, one rref each."""
    p, m = K.field.p, K.m
    size = subspace_lattice_size(m, p)
    checked = 0
    for a in range(1, m + 1):
        for pivots in itertools.combinations(range(m), a):
            free_slots = [(i, j) for i in range(a) for j in range(pivots[i] + 1, m) if j not in pivots]
            for values in itertools.product(range(p), repeat=len(free_slots)):
                rows = [[0] * m for _ in range(a)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_slots, values):
                    rows[i][j] = v
                checked += 1
                w = _make_witness(K, ScalarMatrix(K.field, rows))
                if w is not None:
                    return SemistabilityResult("unstable", "exact_smallfield", w, checked, size)
    return SemistabilityResult("semistable", "exact_smallfield", None, checked, size)


def equality_module(field):
    """Strictly semistable 2x4: the zero 1x2 lower-left block gives a pair
    with n dim S = m dim T = 4, and no pair violates the slope test."""
    X, Y, Z = variables(field)
    z = Form.zero(field, 1)
    return module_from(field, [[X, Y, Z, X], [z, z, Y, Z]])


def zero_block_module(field):
    """Unstable 2x4 whose least destabilizing S, from its zero 1x3 block, has dim 3."""
    X, Y, Z = variables(field)
    z = Form.zero(field, 1)
    return module_from(field, [[X, Y, Z, X], [z, z, z, Y]])


def _equivalence_cases():
    for p in (2, 3, 5):
        field = GF(p)
        shapes = [(4, 5), (3, 2), (5, 4), (2, 3), (1, 2), (3, 1)] + [(2, 4)] * (p < 5)
        for n, m in shapes:
            if (p, m) == (5, 5):
                continue  # the reference walks 42k subspaces, about 5 s per module
            for k in range(4):
                K = random_module(field, n, m, derive_seed(4242 + p, 100 * n + 10 * m + k))
                yield pytest.param(K, id=f"F{p}-{n}x{m}-{k}")
        z = Form.zero(field, 1)
        X, Y, Z = variables(field)
        yield pytest.param(module_from(field, [[z, z], [z, z], [z, z]]), id=f"F{p}-zero")
        # S_max(0) is all of F_p^3, so the witness is its first line, not its last
        yield pytest.param(module_from(field, [[z, z, z], [z, z, z]]), id=f"F{p}-zero-2x3")
        yield pytest.param(module_from(field, [[X, z, Y], [Y, z, Z], [Z, z, X]]), id=f"F{p}-zero-column")
        if p < 5:
            yield pytest.param(equality_module(field), id=f"F{p}-equality")
            yield pytest.param(zero_block_module(field), id=f"F{p}-zero-block")
    for K, name in itertools.chain(criterion_7_modules(), cut_modules()):
        yield pytest.param(K, id=name)


def criterion_7_modules():
    """The block modules of criterion 7."""
    from sextic_strata.verify import _block_module

    for idx, dims in enumerate([(1, 0), (2, 1), (3, 2), (4, 3)]):
        K = _block_module(F3, dims, SplitMix64(derive_seed(20260801, 900_000 + idx)))
        yield K, f"F3-block{dims[0]}{dims[1]}"


def cut_modules():
    """Unstable n < m modules where the target pass's subspace S is not the
    plain case: two sparse F_2 3x5 whose first witness comes before S, and
    an F_3 3x5 whose S, the witness too, lies past the first
    ENUMERATION_CHUNK planes; CUT_POSITIONS holds where."""
    for k in (12, 23):
        yield sparse_module(GF(2), 3, 5, derive_seed(5150, k)), f"F2-sparse-3x5-{k}"
    yield random_module(F3, 3, 5, derive_seed(5151, 0)), "F3-3x5-late-S"


@pytest.mark.parametrize("K", list(_equivalence_cases()))
def test_batched_enumeration_matches_per_subspace_loop(K):
    assert is_semistable(K, mode="exact_smallfield") == reference_exact_smallfield(K)


def test_target_pass_skips_dimensions_that_cannot_destabilize(monkeypatch):
    calls = []

    def recording(field, m, a):
        calls.append((m, a))
        return echelon_chunks(field, m, a)

    monkeypatch.setattr(kronecker, "echelon_chunks", recording)
    semistable_4x5 = random_module(F3, 4, 5, derive_seed(4245, 450))
    for K, verdict in [(semistable_4x5, "semistable"), (equality_module(F3), "semistable"),
                       (zero_block_module(F3), "unstable")]:
        calls.clear()
        res = is_semistable(K, mode="exact_smallfield")
        assert res.verdict == verdict
        # the target pass walks F_3^n; no dimension of F_3^m is enumerated
        assert calls and all(m == K.n for m, _ in calls)


def tall_modules():
    """Unstable sparse F_2 modules with n >= m and witnesses of dims 4 and 2."""
    for n, m, k in [(4, 4, 22), (5, 4, 50)]:
        yield sparse_module(GF(2), n, m, derive_seed(4244, k)), f"F2-sparse-{n}x{m}-{k}"


@pytest.mark.parametrize("K, name", [pytest.param(K, name, id=name) for K, name in
                                     itertools.chain(criterion_7_modules(), cut_modules(), tall_modules())])
def test_chunk_boundaries_do_not_move_the_witness(monkeypatch, K, name):
    # with 7 bases a chunk every dimension of either lattice is streamed in many chunks
    want = is_semistable(K, mode="exact_smallfield")
    monkeypatch.setattr(kronecker, "ENUMERATION_CHUNK", 7)
    assert is_semistable(K, mode="exact_smallfield") == want


@pytest.mark.parametrize("p, m", [(2, 5), (3, 4), (5, 3), (2, 6)])
def test_frozen_index_is_the_position_in_the_enumeration(p, m):
    # F_2^6 has 1395 three-dimensional subspaces, streamed in three chunks
    bases = [B.tolist() for a in range(1, m + 1) for chunk in echelon_chunks(GF(p), m, a) for B in chunk]
    assert [kronecker._frozen_index(p, B) for B in bases] == list(range(1, subspace_lattice_size(m, p) + 1))


# the index of the first witness among the planes of F_p^5; in the F_2
# modules it comes before the first qualifying target's subspace (at 121
# and 148), in the F_3 module past the first ENUMERATION_CHUNK planes
CUT_POSITIONS = {"F2-sparse-3x5-12": 52, "F2-sparse-3x5-23": 24, "F3-3x5-late-S": 1186}


@pytest.mark.parametrize("K, name", [pytest.param(K, name, id=name) for K, name in
                                     itertools.chain(criterion_7_modules(), cut_modules())])
def test_source_pass_ranks_nothing_after_the_target_subspace(monkeypatch, K, name):
    # for n < m the target pass alone finds the first witness: no source
    # subspace is ranked, and `checked` is its index in closed form
    ranked = []
    stacked_ranks = kronecker._stacked_ranks

    def recording(F, bases, W):
        ranked.append(bases.shape[2])
        return stacked_ranks(F, bases, W)

    monkeypatch.setattr(kronecker, "_stacked_ranks", recording)
    res = is_semistable(K, mode="exact_smallfield")
    assert res.verdict == "unstable" and ranked and set(ranked) == {K.n}
    assert res.checked == kronecker._frozen_index(K.field.p, [list(row) for row in res.witness.S_basis])
    if name in CUT_POSITIONS:
        lines = gaussian_binomial(K.m, 1, K.field.p)
        assert (res.witness.dim_S, res.checked - lines - 1) == (2, CUT_POSITIONS[name])


@pytest.mark.parametrize("p", [2, 3])
def test_verdict_is_invariant_under_transposition(p):
    # King's slope test is self-dual: S, T destabilize K iff ann T, ann S destabilize K^T
    field = GF(p)
    for k, (n, m) in enumerate([(2, 3), (3, 2), (4, 5), (5, 4), (1, 3), (2, 4), (4, 2)] * 3):
        K = random_module(field, n, m, derive_seed(777 + p, k))
        Kt = KroneckerModule(K.matrix.transpose())
        assert (is_semistable(K, mode="exact_smallfield").verdict
                == is_semistable(Kt, mode="exact_smallfield").verdict)


def test_large_prime_two_columns_without_size_p_tables():
    field = GF(1_000_003)
    K = random_module(field, 3, 2, 8)
    assert subspace_lattice_size(2, field.p) == 1_000_005
    tracemalloc.start()
    try:
        res = is_semistable(K, mode="exact_smallfield")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an inverse table indexed by F_p alone would take 8 bytes per element
    assert peak < field.p
    assert (res.verdict, res.checked) == ("semistable", 1_000_005)
    assert is_semistable(K).verdict == "semistable"


def test_one_column_over_object_dtype_prime():
    field = GF(2**31 + 11)
    assert field.dtype is object
    X, Y, Z = variables(field)
    z = Form.zero(field, 1)
    assert is_semistable(module_from(field, [[X], [Y], [Z]]), mode="exact_smallfield").verdict == "semistable"
    res = is_semistable(module_from(field, [[X], [Y], [z]]), mode="exact_smallfield")
    assert (res.verdict, res.witness.dim_T) == ("unstable", 2)
    for k in range(4):
        K = random_module(field, 1 + k % 4, 1, derive_seed(31, k))
        assert is_semistable(K, mode="exact_smallfield").verdict == is_semistable(K).verdict


# ---------------------------------------------------------------------------
# semistable counts against the Harder-Narasimhan recursion
# ---------------------------------------------------------------------------


def _euler(e, f):
    """The Euler form of the 3-Kronecker quiver on e = (dim source, dim target)."""
    return e[0] * f[0] + e[1] * f[1] - 3 * e[0] * f[1]


def _slope(e):
    # a submodule (S, T' >= T(S)) destabilizes iff its slope exceeds the module's
    return Fraction(e[0], e[0] + e[1])


def _hn_types(d):
    """The tuples of nonzero dimension vectors with sum d and strictly
    decreasing slope: the possible Harder-Narasimhan types of dimension d."""
    if d == (0, 0):
        yield ()
        return
    for e in itertools.product(range(d[0] + 1), range(d[1] + 1)):
        if e != (0, 0):
            for tail in _hn_types((d[0] - e[0], d[1] - e[1])):
                if not tail or _slope(e) > _slope(tail[0]):
                    yield (e,) + tail


def reineke_semistable_count(d, q):
    """Semistable modules of dimension vector d = (m, n) over F_q, by
    Reineke's recursion (Reineke 2003): every module has exactly one
    Harder-Narasimhan type (d^1, ..., d^s), and in volumes r(e) = |R^sst_e| /
    |GL_e| those of that type weigh q^(-sum_{k<l} <d^l, d^k>) prod r(d^k),
    while all q^(3 m n) modules weigh q^(3 m n) / |GL_d|."""
    def gl(e):
        out = 1
        for k in e:
            for i in range(k):
                out *= q ** k - q ** i
        return out

    volumes = {}

    def volume(e):
        if e not in volumes:
            rest = Fraction(0)
            for parts in _hn_types(e):
                if len(parts) > 1:
                    term = Fraction(1, q ** sum(_euler(parts[l], parts[k]) for k, l in
                                                itertools.combinations(range(len(parts)), 2)))
                    for part in parts:
                        term *= volume(part)
                    rest += term
            volumes[e] = Fraction(q ** (3 * e[0] * e[1]), gl(e)) - rest
        return volumes[e]

    count = volume(d) * gl(d)
    assert count.denominator == 1
    return int(count)


@pytest.mark.parametrize("p, n, m, expected", [(3, 1, 2, 624), (3, 2, 1, 624), (2, 1, 3, 168),
                                               (2, 2, 2, 3780)], ids=["F3-1x2", "F3-2x1", "F2-1x3", "F2-2x2"])
def test_semistable_count_matches_harder_narasimhan_recursion(p, n, m, expected):
    # every module of the shape, decided by the enumeration and by the
    # certificates, against a count from outside the package; every
    # unstable verdict's witness must pass verify_witness, so a wrong
    # `images` or `minimal_span` fails here even where the verdict holds
    field = GF(p)
    assert reineke_semistable_count((m, n), p) == expected
    semistable = {"exact_smallfield": 0, "certificate": 0}
    for cube in itertools.product(range(p), repeat=3 * n * m):
        cells = [Form.from_coeff_vector(field, 1, cube[3 * k:3 * k + 3]) for k in range(n * m)]
        K = module_from(field, [cells[m * i:m * i + m] for i in range(n)])
        for mode in semistable:
            res = is_semistable(K, mode=mode)
            if res.verdict == "semistable":
                semistable[mode] += 1
            else:
                assert verify_witness(K, res.witness), (mode, cube)
    assert semistable == {"exact_smallfield": expected, "certificate": expected}


# ---------------------------------------------------------------------------
# moduli dimensions
# ---------------------------------------------------------------------------


def test_moduli_dimension_values():
    assert moduli_dimension(3, 5, 4) == 20   # 60 - 25 - 16 + 1
    assert moduli_dimension(3, 2, 3) == 6    # 18 - 4 - 9 + 1
    for q in range(1, 6):
        assert moduli_dimension(q, 1, 1) == q - 1
    with pytest.raises(ValueError):
        moduli_dimension(0, 1, 1)


# ---------------------------------------------------------------------------
# polarizations
# ---------------------------------------------------------------------------


def _inside(window, t) -> bool:
    lo, hi = Fraction(window["lower"]), Fraction(window["upper"])
    return (lo < t if window["open"][0] else lo <= t) and (t < hi if window["open"][1] else t <= hi)


def test_polarization_examples():
    # points on lam1 = 1 - 2*lam2, mu1 = 1/2, read by lam2
    six = polarization_windows()["six_inequalities"]
    assert _inside(six, Fraction(2, 5))                  # lam1 = 1/5
    assert not _inside(six, Fraction(1, 5))              # mu1 + 2*lam2 = 9/10 < 1
    assert six["upper"] == "1/2" and six["open"][1]      # lam1 = 0 at the open endpoint
    assert not _inside(six, Fraction(1, 2))


def test_refined_conditions_window():
    refined = polarization_windows()["refined"]
    assert refined == {"lower": "3/7", "upper": "1/2", "open": [True, True]}
    assert [_inside(refined, t) for t in (Fraction(3, 7), Fraction(3, 7) + Fraction(1, 700),
                                          Fraction(349, 700), Fraction(1, 2))] == [False, True, True, False]


def test_polarization_windows_exact():
    assert polarization_windows() == {
        "six_inequalities": {"lower": "1/4", "upper": "1/2", "open": [True, True]},
        "refined": {"lower": "3/7", "upper": "1/2", "open": [True, True]},
        "mu2": {"lower": "0", "upper": "1/5", "open": [True, True]},
    }


def _grid_points_inside(window, n):
    return [k for k in range(1, n) if _inside(window, Fraction(k, n))]


def test_window_sweep_grid_100():
    # the numerators k of k/100 that fall inside the exact windows
    windows = polarization_windows()
    assert _grid_points_inside(windows["six_inequalities"], 100) == list(range(26, 50))
    assert _grid_points_inside(windows["mu2"], 100) == list(range(1, 20))


def test_window_sweep_grid_700():
    windows = polarization_windows()
    six = _grid_points_inside(windows["six_inequalities"], 700)
    refined = _grid_points_inside(windows["refined"], 700)
    assert six[0] == 176 and six[-1] == 349
    assert refined[0] == 301 and refined[-1] == 349


def test_mu2_constraint():
    mu2 = polarization_windows()["mu2"]
    assert _inside(mu2, Fraction(1, 10))
    assert not _inside(mu2, Fraction(1, 5))
    assert not _inside(mu2, Fraction(0))


def test_window_closed_and_empty_intersections():
    line = kronecker.LINE_42
    # lam2 >= 3/10 and lam2 <= 3/10 meet in one closed point; made strict, in none
    point = ((Fraction(-3, 10), 0, 1, 0, False), (Fraction(3, 10), 0, -1, 0, False))
    assert kronecker._window(point, line) == {"lower": "3/10", "upper": "3/10", "open": [False, False]}
    assert kronecker._window(((Fraction(-3, 10), 0, 1, 0, True),) + point[1:], line) is None
    # mu1 > 1 does not depend on lam2 and fails everywhere on the line
    assert kronecker._window(((-1, 0, 0, 1, True),), line) is None
    assert kronecker._window(((1, 0, 0, 0, True),), line) == {"lower": None, "upper": None,
                                                               "open": [True, True]}


@pytest.mark.parametrize("table, row, mutated, name", [
    # alpha_2 = lam2 - 2*lam1 > 0 instead of lam2 - 3*lam1 > 0
    ("REFINED_CONDITIONS_42", 1, (0, -2, 1, 0, True), "refined"),
    # mu1 + lam2 > 1 instead of mu1 + 2*lam2 > 1: the window is empty.  Each
    # endpoint of the six has two rows or more, so only a tightened row moves it.
    ("SIX_INEQUALITIES_42", 0, (-1, 0, 1, 1, True), "six_inequalities"),
    # mu2 < 1/4 instead of mu2 < 1/5
    ("MU2_CONDITIONS_22", 1, (Fraction(1, 4), 0, 0, -1, True), "mu2"),
], ids=["refined-alpha2", "six-first-row", "mu2-upper"])
def test_criterion_5_fails_on_a_mutated_row(monkeypatch, table, row, mutated, name):
    from sextic_strata.verify import criterion_5_windows

    rows = list(getattr(kronecker, table))
    rows[row] = mutated
    monkeypatch.setattr(kronecker, table, tuple(rows))
    passed, detail = criterion_5_windows()
    assert not passed and f"{name} window is" in detail
