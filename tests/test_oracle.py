from __future__ import annotations

import pytest

from sextic_strata.fields import GF
from sextic_strata.forms import Form, variables
from sextic_strata.orbit_oracle import (
    GL2_F2,
    MUL11,
    orbit_patterns,
    orbit_patterns_bruteforce,
)
from sextic_strata.polymatrix import PolyMatrix
from sextic_strata.presentation import Presentation
from sextic_strata.rng import SplitMix64, derive_seed
from sextic_strata.sampler import random_form
from sextic_strata.strata import SHAPES, PatternId, StratumLabel, x1_patterns

F2 = GF(2)
SRC, TGT = SHAPES[StratumLabel.X1]


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
    # the vectorized factored enumeration against the plain 147456-pair loop
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


def test_characterizations_match_oracle_sample():
    # the acceptance suite runs 1000; keep a quick slice in the unit tests
    for k in range(120):
        P = rand_x1(derive_seed(31337, k))
        assert {p for p in x1_patterns(P)} == orbit_patterns(P)
