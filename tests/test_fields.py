from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sextic_strata.fields import GF, QQ, _is_prime, field_from_json, parse_field


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(100)
    assert GF(2).p == 2
    assert GF(32003).p == 32003


def test_primality_is_fast_and_exact():
    t0 = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t0 < 1.0
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if sieve[n]]
    for n in (561, 3215031751):  # Carmichael; strong pseudoprime to bases 2, 3, 5, 7
        with pytest.raises(ValueError):
            GF(n)
    with pytest.raises(ValueError):
        _is_prime(318_665_857_834_031_151_167_461)


def test_canonical_representatives():
    F = GF(101)
    assert F.normalize(-1) == 100
    assert F.normalize(202) == 0
    assert F.normalize(Fraction(1, 2)) == 51  # 2 * 51 = 102 = 1 mod 101


def test_division():
    F = GF(101)
    assert F.inv(7) * 7 % 101 == 1
    assert F.inv(np.int64(3)) == F.inv(3) == 34  # any integer, numpy's too
    assert F.inv(-100) == 1
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    for field in (F, QQ):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_parse_field():
    assert parse_field("rational") == QQ
    assert parse_field("q") == QQ
    assert parse_field("p:101") == GF(101)
    with pytest.raises(ValueError):
        parse_field("gf2")


def test_field_json_roundtrip():
    for f in (QQ, GF(2), GF(101)):
        assert field_from_json(f.to_json()) == f


def test_coeff_encoding():
    assert QQ.encode_coeff(Fraction(-3, 7)) == "-3/7"
    assert QQ.encode_coeff(Fraction(5)) == "5"
    assert QQ.decode_coeff("-3/7") == Fraction(-3, 7)
    F = GF(101)
    assert F.encode_coeff(205) == 3
    assert F.decode_coeff(3) == 3
    with pytest.raises(ValueError):
        F.decode_coeff(101)


FIELDS = [QQ, GF(2), GF(101), GF(2**31 - 1), GF(2**31 + 11)]


def _values(field):
    """Values `normalize` accepts: ints of any size (including the int64
    edges), numpy int64s, bools and Fractions with denominators prime to p."""
    edges = st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, -(2**64)])
    ints = st.integers(-(2**80), 2**80) | st.integers(-3, 3) | edges
    denominators = st.integers(1, 2**40).filter(lambda d: field.kind == "rational" or d % field.p)
    return (
        ints
        | st.integers(-(2**63), 2**63 - 1).map(np.int64)
        | st.booleans()
        | st.builds(Fraction, st.integers(-(2**70), 2**70), denominators)
    )


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), shape=st.tuples(st.integers(0, 4), st.integers(0, 4)), data=st.data())
def test_array_matches_normalize(field, shape, data):
    # Field.array is the one conversion: entry by entry what normalize gives,
    # in the field's dtype and the requested shape, whatever numpy would infer.
    nrows, ncols = shape
    values = _values(field)
    if data.draw(st.booleans()):  # all small ints: numpy infers int64
        values = st.integers(-(2**62), 2**62) | st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    a = field.array(rows, shape)
    assert a.shape == shape
    assert a.dtype == field.dtype
    want = [[field.normalize(x) for x in row] for row in rows]
    assert [[(type(x), x) for x in row] for row in a.tolist()] == [[(type(x), x) for x in row] for row in want]
