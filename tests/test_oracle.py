from __future__ import annotations

import pytest

from sextic_strata.fields import GF
from sextic_strata.forms import Form, variables
from sextic_strata.orbit_oracle import (
    GL2_F2,
    MUL11,
    _build_mul_table,
    _extract_masks,
    orbit_patterns,
)
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.presentation import Presentation
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import random_form
from sextic_strata.strata import SHAPES, PatternId, StratumLabel, x1_patterns

F2 = GF(2)
SRC, TGT = SHAPES[StratumLabel.X1]


# zero cells of each forbidden pattern, 0-indexed
PATTERN_CELLS = {
    PatternId.P1: ((0, 1), (0, 2)),
    PatternId.P2: ((0, 2), (1, 2)),
    PatternId.P3: ((2, 1), (2, 2)),
    PatternId.P4: ((0, 0), (0, 1)),
}

MUL12 = _build_mul_table(1, 2)   # 8 x 64


def orbit_patterns_bruteforce(P):
    """All patterns reachable, by plainly looping over all 147456 pairs.

    Builds the complete sandwich h*phi*g for every pair and inspects the
    zero cells.  Slow; the reference the factored oracle is checked against.
    """
    masks = _extract_masks(P)
    mul11 = MUL11.tolist()
    mul12 = MUL12.tolist()
    remaining = set(PatternId)
    found = set()

    phi = [[masks[(i, j)] for j in range(3)] for i in range(3)]
    us = range(8)

    for (a, b, c, d) in GL2_F2:
        for u21 in us:
            m11_u21 = mul11[u21]
            m12_u21 = mul12[u21]
            for u31 in us:
                m11_u31 = mul11[u31]
                m12_u31 = mul12[u31]
                # phi * g
                pg = [
                    [
                        phi[0][0] ^ m11_u21[phi[0][1]] ^ m11_u31[phi[0][2]],
                        (a and phi[0][1]) ^ (c and phi[0][2]),
                        (b and phi[0][1]) ^ (d and phi[0][2]),
                    ],
                    [
                        phi[1][0] ^ m12_u21[phi[1][1]] ^ m12_u31[phi[1][2]],
                        (a and phi[1][1]) ^ (c and phi[1][2]),
                        (b and phi[1][1]) ^ (d and phi[1][2]),
                    ],
                    [
                        phi[2][0] ^ m12_u21[phi[2][1]] ^ m12_u31[phi[2][2]],
                        (a and phi[2][1]) ^ (c and phi[2][2]),
                        (b and phi[2][1]) ^ (d and phi[2][2]),
                    ],
                ]
                for (h22, h23, h32, h33) in GL2_F2:
                    for v21 in us:
                        row1 = [
                            mul12[v21][pg[0][0]] ^ (h22 and pg[1][0]) ^ (h23 and pg[2][0]),
                            mul11[v21][pg[0][1]] ^ (h22 and pg[1][1]) ^ (h23 and pg[2][1]),
                            mul11[v21][pg[0][2]] ^ (h22 and pg[1][2]) ^ (h23 and pg[2][2]),
                        ]
                        for v31 in us:
                            row2 = [
                                mul12[v31][pg[0][0]] ^ (h32 and pg[1][0]) ^ (h33 and pg[2][0]),
                                mul11[v31][pg[0][1]] ^ (h32 and pg[1][1]) ^ (h33 and pg[2][1]),
                                mul11[v31][pg[0][2]] ^ (h32 and pg[1][2]) ^ (h33 and pg[2][2]),
                            ]
                            sandwich = (pg[0], row1, row2)
                            for pat in tuple(remaining):
                                if all(
                                    sandwich[i][j] == 0
                                    for (i, j) in PATTERN_CELLS[pat]
                                ):
                                    found.add(pat)
                                    remaining.discard(pat)
                            if not remaining:
                                return found
    return found


def rand_x1(seed):
    rng = SplitMix64(seed)
    entries = [[random_form(F2, TGT[i] - SRC[j], rng) for j in range(3)] for i in range(3)]
    return Presentation(SRC, TGT, PolyMatrix(F2, entries))


def test_group_sizes():
    assert len(GL2_F2) == 6
    # 6 * 8 * 8 elements on each side: 147456 pairs total
    assert (6 * 8 * 8) ** 2 == 147456


def test_mul_table_against_form_arithmetic():
    X, Y, Z = variables(F2)
    lin = [X, Y, Z]
    for mu in range(8):
        u = sum((lin[i] for i in range(3) if (mu >> i) & 1), Form.zero(F2, 1))
        for mv in range(8):
            v = sum((lin[i] for i in range(3) if (mv >> i) & 1), Form.zero(F2, 1))
            prod = u * v
            from sextic_strata.orbit_oracle import _pack

            assert MUL11[mu, mv] == _pack(prod)


def test_zero_matrix_all_patterns():
    z = [Form.zero(F2, d) for d in (2, 1, 1, 3, 2, 2, 3, 2, 2)]
    P = Presentation(SRC, TGT, PolyMatrix(F2, [z[0:3], z[3:6], z[6:9]]))
    assert orbit_patterns(P) == set(PatternId)


def test_independent_one_forms_exclude_p1():
    X, Y, Z = variables(F2)
    rng = SplitMix64(5)
    P = Presentation(SRC, TGT, PolyMatrix(F2, [
        [random_form(F2, 2, rng), X, Y],
        [random_form(F2, 3, rng), random_form(F2, 2, rng), random_form(F2, 2, rng)],
        [random_form(F2, 3, rng), random_form(F2, 2, rng), random_form(F2, 2, rng)],
    ]))
    assert PatternId.P1 not in orbit_patterns(P)


def test_oracle_requires_f2():
    from sextic_strata.sampler import SampleRequest, sample

    P = sample(SampleRequest(StratumLabel.X1, GF(101), seed=3))
    with pytest.raises(ValueError, match="F_2"):
        orbit_patterns(P)


def test_oracle_requires_x1_shape():
    # an X5-shaped presentation over F_2 is refused by every entry point
    P = Presentation(*SHAPES[StratumLabel.X5], PolyMatrix(F2, [[Form.zero(F2, 4), Form.zero(F2, 1)],
                                                               [Form.zero(F2, 5), Form.zero(F2, 2)]]))
    for check in (lambda: orbit_patterns(P), lambda: orbit_patterns_bruteforce(P)):
        with pytest.raises(ValueError, match="X1 twist shape"):
            check()


def test_fast_oracle_matches_bruteforce():
    # the factored search against the plain 147456-pair loop
    for k in range(6):
        P = rand_x1(derive_seed(424242, k))
        assert orbit_patterns(P) == orbit_patterns_bruteforce(P)


def test_fast_oracle_matches_bruteforce_structured():
    X, Y, Z = variables(F2)
    z1, z2, z3 = (Form.zero(F2, d) for d in (1, 2, 3))
    rng = SplitMix64(11)
    cases = [
        # l1 = l2 = 0: P1 reachable
        [[X * X, z1, z1], [random_form(F2, 3, rng), X * Y, Y * Z], [z3, Y * Y, X * X]],
        # equal quadric rows: P3 reachable
        [[X * X, X, Y], [z3, X * Y, Y * Z], [random_form(F2, 3, rng), X * Y, Y * Z]],
    ]
    for entries in cases:
        P = Presentation(SRC, TGT, PolyMatrix(F2, entries))
        assert orbit_patterns(P) == orbit_patterns_bruteforce(P)


@pytest.mark.parametrize("k, expected", [
    (3, set()),  # cell (0,0) can vanish, but l1, l2 are independent: no L2 = 0
    (29, {PatternId.P4}),  # q = u21*l1 with u21 != 0: no multiple of l2
    (44, {PatternId.P2}),
    (152, {PatternId.P1, PatternId.P2}),
    (226, {PatternId.P2, PatternId.P4}),
], ids=["none", "P4", "P2", "P1-P2", "P2-P4"])
def test_fast_oracle_matches_bruteforce_on_every_pattern_set(k, expected):
    # seeded draws with the pattern sets the structured cases leave out
    P = rand_x1(derive_seed(2718, k))
    assert orbit_patterns(P) == orbit_patterns_bruteforce(P) == set(x1_patterns(P)) == expected


def test_characterizations_match_oracle_sample():
    # the acceptance suite runs 1000; keep a quick slice in the unit tests
    for k in range(120):
        P = rand_x1(derive_seed(31337, k))
        assert {p for p in x1_patterns(P)} == orbit_patterns(P)
