"""Acceptance suite: every criterion at its documented size and tolerance.

One test per criterion; each prints the criterion's details.  All
tolerances are exact (integer or rational equality); the runtime budgets
are wall-clock bounds asserted inside the criteria.

Criterion 9 is implemented faithfully as stated.  The cohomological
profile of an injective presentation does not see the targeted
degenerations (dependent phi_11 entries for the X3 shape, l | q for the
X5 shape), because those conditions govern semistability of the cokernel
rather than its cohomology.  The classifier therefore runs the row's
matrix conditions on the canonical X1, X3 and X5 shapes and raises
NotSemistable (a ProfileNotInTable) when they fail; see the comment in
the test body.
"""

from __future__ import annotations

import pytest

from sextic_strata.verify import (
    DEFAULT_SEED,
    criterion_1_table,
    criterion_2_hilbert,
    criterion_3_duality,
    criterion_4_dimensions,
    criterion_5_windows,
    criterion_6_x1_oracle,
    criterion_7_kronecker,
    criterion_8_construct_x5,
    criterion_9_negative_controls,
    generate_samples,
)


@pytest.fixture(scope="module")
def pool():
    return generate_samples(DEFAULT_SEED)


def _report(result):
    passed, details = result
    print()
    print(details)
    assert passed, details


def test_criterion_1_table_reproduction(pool):
    # 200 samples per stratum over F_101, profiles equal the table rows
    # exactly, h1(F(1)) = 0 except 1 on X5; budget < 5 minutes
    _report(criterion_1_table(pool))


def test_criterion_2_hilbert_polynomial(pool):
    # h0(F(m)) - h1(F(m)) = 6m + 1 exactly for every sample, m in [-5, 5],
    # and h0, h1, h0_omega equal their section-matrix ranks
    _report(criterion_2_hilbert(pool))


def test_criterion_3_duality(pool):
    # X3 duals have shape 3O(-2)+O -> 2O(-1)+2O(1) with h0(G(-1)) = 2,
    # h1(G) = 0; dual of dual is the identity; chi + chi(dual) = 6
    _report(criterion_3_duality(pool))


def test_criterion_4_dimension_arithmetic():
    # 20+17=37, 12+21=33=37-4, 8+23=31=37-6 (twice), 29=37-8, exactly
    _report(criterion_4_dimensions())


def test_criterion_5_king_windows():
    # the exact windows are the open intervals (1/4, 1/2) and (3/7, 1/2) in
    # lam2, and (0, 1/5) in mu2
    _report(criterion_5_windows())


def test_criterion_6_x1_oracle_equivalence():
    # 1000 random F_2 matrices: derived pattern tests agree with the
    # exhaustive 147456-pair orbit search on all four patterns; < 10 min.
    # The details hold no timing, so a second run prints the same bytes.
    result = criterion_6_x1_oracle(DEFAULT_SEED)
    _report(result)
    assert criterion_6_x1_oracle(DEFAULT_SEED)[1] == result[1]


def test_criterion_7_kronecker_oracle():
    # exact F_3 verdicts with independently re-verified witnesses; the four
    # block forms in the 4x5 case are unstable with matching witness dims
    _report(criterion_7_kronecker(DEFAULT_SEED))


def test_criterion_8_x5_constructor_roundtrip():
    # 100 random (l, q, f) from the ideal slice: determinant returns f
    # bit-exactly
    _report(criterion_8_construct_x5(DEFAULT_SEED))


def test_criterion_9_negative_control_classifier():
    # Faithful implementation of the stated check.  For any injective
    # presentation the classifying quadruple is computed from
    # section-space ranks that the targeted degenerations cannot move:
    # on the X3 shape the quadruple is (0, 2, rank of the phi_22 column
    # pair, 0) and dependent phi_11 entries never enter it, while a
    # phi_22 column-rank drop forces det = 0 (proportional columns), i.e.
    # leaves the classifier's domain; on the X5 shape all four components
    # are forced by the twist grid alone.  The degenerations instead
    # destroy semistability of the cokernel (destabilizing quotients of
    # Hilbert polynomial t - 1, resp. 5t).  classify's semistability gate
    # runs x3_conditions / x5_conditions on these canonical shapes and
    # raises NotSemistable, so every construction is flagged.
    _report(criterion_9_negative_controls(DEFAULT_SEED))
