"""Deterministic sample grids: Halton points against scipy's sampler."""

import numpy as np
import pytest

from finslerlab._grids import halton


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
