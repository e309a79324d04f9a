from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic_strata.errors import FieldMismatchError
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import Form, variables
from sextic_strata.polymatrix import PolyMatrix, det_poly
from sextic_strata.rng import SplitMix64
from sextic_strata.sampler import random_form
from sextic_strata.strata import SHAPES, StratumLabel


def test_entries_over_another_field_rejected():
    F101 = GF(101)
    X = variables(F101)[0]
    for other in (GF(103), QQ):
        with pytest.raises(FieldMismatchError):
            PolyMatrix(F101, [[X, variables(other)[1]]])


def test_entries_over_an_equal_field_accepted():
    # an equal but separately built field passes the check
    F101, again = GF(101), GF(101)
    assert again is not F101 and again == F101
    M = PolyMatrix(F101, [[variables(again)[0], variables(F101)[1]]])
    assert M.field is F101 and M.shape == (1, 2)


def test_det_diagonal():
    X, Y, Z = variables(QQ)
    z = Form.zero(QQ, 1)
    M = PolyMatrix(QQ, [[X, z], [z, Y]])
    assert det_poly(M) == X * Y


def test_det_x5_block_formula():
    # det [[h, l], [g, q]] = h*q - l*g
    field = GF(101)
    rng = SplitMix64(17)
    h, l = random_form(field, 4, rng), random_form(field, 1, rng)
    g, q = random_form(field, 5, rng), random_form(field, 2, rng)
    M = PolyMatrix(field, [[h, l], [g, q]])
    assert det_poly(M) == h * q - l * g


def test_det_row_swap_flips_sign():
    field = GF(101)
    rng = SplitMix64(23)
    h, l = random_form(field, 4, rng), random_form(field, 1, rng)
    g, q = random_form(field, 5, rng), random_form(field, 2, rng)
    d1 = det_poly(PolyMatrix(field, [[h, l], [g, q]]))
    d2 = det_poly(PolyMatrix(field, [[g, q], [h, l]]))
    assert d2 == -d1


def test_det_rejects_rectangular():
    X, Y, Z = variables(QQ)
    with pytest.raises(ValueError):
        det_poly(PolyMatrix(QQ, [[X, Y, Z]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), label=st.sampled_from([StratumLabel.X1, StratumLabel.X5]))
def test_det_transpose_invariant(seed, label):
    field = GF(101)
    rng = SplitMix64(seed)
    src, tgt = SHAPES[label]
    entries = [
        [
            random_form(field, d - s, rng) if d - s >= 0 else Form.zero(field, d - s)
            for s in src
        ]
        for d in tgt
    ]
    M = PolyMatrix(field, entries)
    assert det_poly(M.transpose()) == det_poly(M)

