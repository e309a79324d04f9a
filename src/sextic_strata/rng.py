"""Seedable, portable 64-bit random stream with a frozen contract.

SplitMix64 (public domain) drives all sampling.  The stream contract,
relied on by golden tests and by cross-language reproduction of sample
files, is:

* state update   s += 0x9E3779B97F4A7C15  (mod 2^64)
* output         z = s; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
                 z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31
* bounded draws  next_below(n) = next_u64() % n.  The modulo bias is
  below n/2^64 (below 2^-33 for every p < 2^31) and is accepted by
  contract.  For n >= 2^64 the draw is next_u64() unreduced, so a sample
  over GF(p >= 2^64) has coefficients only in [0, 2^64).
* block draws    next_below_block(n, k) = k consecutive next_below(n).
* seed splitting for batch work: child i of seed s is
  mix64(s XOR (i+1)*0x9E3779B97F4A7C15), one extra scramble round.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Documented seed-splitting rule for independent batch streams."""
    return mix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK)


class SplitMix64:
    """The SplitMix64 generator; deterministic given the 64-bit seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("need a positive bound")
        return self.next_u64() % n

    def next_below_block(self, n: int, k: int) -> np.ndarray:
        """[self.next_below(n) for _ in range(k)] as a uint64 array, computed
        in one pass from the states s + i*0x9E3779B97F4A7C15, i = 1..k, where
        numpy's uint64 arithmetic wraps mod 2^64 as the contract's masks do."""
        if n <= 0:
            raise ValueError("need a positive bound")
        z = np.uint64(self.state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self.state = (self.state + k * _GOLDEN) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z if n > _MASK else z % np.uint64(n)
