"""The frozen SplitMix64 stream contract of `sextic_strata.rng`."""

from __future__ import annotations

import pytest

from sextic_strata.rng import SplitMix64


def test_next_u64_reference_outputs():
    # the published SplitMix64 outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("n", [1, 2, 3, 19, 101, 2**31 - 1, 2**31 + 11, 2**64 - 59, 2**64 + 13])
@pytest.mark.parametrize("k", [0, 1, 7, 1000])
def test_block_draw_equals_sequential_draws(n, k):
    sequential, block = SplitMix64(20261020), SplitMix64(20261020)
    expected = [sequential.next_below(n) for _ in range(k)]
    assert block.next_below_block(n, k).tolist() == expected
    assert block.state == sequential.state
    assert block.next_u64() == sequential.next_u64()


@pytest.mark.parametrize("n", [0, -1, -(2**64)])
def test_nonpositive_bound_raises(n):
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.next_below(n)
    with pytest.raises(ValueError):
        rng.next_below_block(n, 3)
    assert rng.state == 1
