"""Exact base fields: arbitrary-precision rationals and prime fields F_p.

Every condition the package decides is a rank or membership condition
defined over the prime field, so Q and F_p act as exact proxies for the
complex numbers.  F_p (default p = 101) is the sampling workhorse, Q the
audit field.

Field elements are canonical raw scalars (`Fraction` over Q, `int` in
[0, p) over F_p), held in numpy arrays whose dtype the field names
(`dtype`): int64 for primes below 2**31, whose products of two canonical
entries stay below 2**62, and object arrays of exact Python scalars for Q
and larger primes, so no field overflows.  Arithmetic is array arithmetic
followed by `reduce`.  There is one way in: `array` turns any values
(ints of any size, Fractions with denominators prime to p, numpy integers,
bools) into canonical elements, entry by entry exactly as `normalize`
does.  `inv` divides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Union

import numpy as np

from .errors import FieldMismatchError

Scalar = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Every composite below this bound fails the strong-probable-prime test to
# one of the twelve bases above (Sorenson and Webster 2015).
_MR_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided at or above {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _ExactField:
    """What Q and F_p share: the one conversion of values into elements."""

    dtype: Any

    def array(self, values, shape) -> np.ndarray:
        """A new canonical array of `shape` in `dtype`: entry by entry what
        `normalize` makes of `values`.

        An int64 field reduces mod p in one step whatever numpy infers as
        a signed int64 array; every other input, and every input of an
        object-dtype field, goes through `normalize` one entry at a time,
        so Fractions and integers beyond int64 are reduced exactly.
        """
        if self.dtype is not object:
            a = np.asarray(values)
            if a.dtype == np.int64:
                return self.reduce(a.reshape(shape))
        entries = np.array(values, dtype=object).ravel().tolist()
        return np.array([self.normalize(x) for x in entries], dtype=self.dtype).reshape(shape)


class RationalField(_ExactField):
    """The field Q with `Fraction` scalars."""

    kind = "rational"
    dtype = object

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a

    def dot_dtype(self, n: int):
        """Dtype in which a sum of n products of canonical entries is exact."""
        return object

    def normalize(self, x: Any) -> Fraction:
        return Fraction(x)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def encode_coeff(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def decode_coeff(self, s) -> Fraction:
        if isinstance(s, str):
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in rational coefficient {s!r}") from None
        if type(s) is int:
            return Fraction(s)
        raise ValueError(f"bad rational coefficient encoding: {s!r}")

    def to_json(self) -> dict:
        return {"kind": "rational"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(_ExactField):
    """The field F_p with canonical integer representatives in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.dtype = np.int64 if p < 2**31 else object

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def dot_dtype(self, n: int):
        """Dtype in which a sum of n products of canonical entries is exact."""
        return np.int64 if n * (self.p - 1) ** 2 < 2**63 else object

    def normalize(self, x: Any) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by p={self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def encode_coeff(self, a) -> int:
        return a % self.p

    def decode_coeff(self, s) -> int:
        if type(s) is int:
            v = s
        elif isinstance(s, str):
            v = int(s, 10)
        else:
            raise ValueError(f"bad prime-field coefficient encoding: {s!r}")
        if not 0 <= v < self.p:
            raise ValueError(f"coefficient {v} outside [0, {self.p})")
        return v

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed fields {a!r} and {b!r}")


def parse_field(spec: str) -> Field:
    """Parse a CLI field spec: ``rational``/``q`` or ``p:<prime>``."""
    s = spec.strip().lower()
    if s in ("rational", "q", "qq"):
        return QQ
    if s.startswith("p:"):
        return PrimeField(int(s[2:]))
    raise ValueError(f"cannot parse field spec {spec!r} (want 'rational' or 'p:<prime>')")


def field_from_json(d: dict) -> Field:
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(json_int(d["p"], "p"))
    raise ValueError(f"unknown field encoding {d!r}")


def json_int(x, what: str) -> int:
    """x if it is an int; a bool, float or string raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def field_name(f: Field) -> str:
    return "rational" if f.kind == "rational" else f"p:{f.p}"
