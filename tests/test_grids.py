"""Deterministic sample grids: Halton points against scipy's sampler, and
the memoised streams that every metric build reads."""

import numpy as np
import pytest

from finslerlab._grids import halton, halton_directions


@pytest.mark.parametrize("dim", range(1, 9))
def test_halton_bits_match_scipy(dim):
    from scipy.stats import qmc

    for count in (0, 1, 2, 3, 7, 8, 9, 64, 1000, 100000):
        sampler = qmc.Halton(d=dim, scramble=False)
        sampler.fast_forward(1)
        want = sampler.random(count)
        got = halton(dim, count)
        assert got.shape == want.shape == (count, dim)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (dim, count)


@pytest.mark.parametrize("draw", [halton, halton_directions])
def test_memoised_stream_keeps_its_bits_and_refuses_writes(draw):
    want = draw.__wrapped__(3, 50).copy()
    first = draw(3, 50)
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        first *= 2.0
    mine = np.array(first)  # a caller that needs to write takes a copy
    mine[:] = 0.0
    assert draw(3, 50) is first
    assert draw(3, 50).tobytes() == want.tobytes()
