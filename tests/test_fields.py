from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given
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
    assert F.mul(F.inv(7), 7) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


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


@given(a=st.integers(-500, 500), b=st.integers(-500, 500))
def test_gf_ring_laws(a, b):
    F = GF(101)
    x, y = F.normalize(a), F.normalize(b)
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.add(x, F.neg(x)) == 0
    if y != 0:
        assert F.mul(F.div(x, y), y) == x
