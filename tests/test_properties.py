"""Property tests of the tensors read off jets: fiber homogeneity degrees of
g (0), C (-1), G (2) and N (1), and the symmetry of the Berwald tensor."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.curvature import berwald_curvature
from finslerlab.geodesics import spray_jets
from finslerlab.jets import derivative_tensor
from finslerlab.metrics import chart_points
from finslerlab.minkowski import TangentSample, cartan_tensor, fundamental_tensor

NAMES = ("funk", "funk3", "randers_curl", "hilbert_quartic", "riemannian_sphere",
         "quartic_norm3")

PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def tangent_points(draw):
    """(metric name, x, y): a chart point and a direction of norm in [0.3, 1.5]."""
    name = draw(st.sampled_from(NAMES))
    k = draw(st.integers(0, 7))
    n = 3 if name.endswith("3") else 2
    y = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(y))
    if norm < 1e-3:
        y, norm = np.eye(n)[0], 1.0
    y = y / norm * draw(st.floats(0.3, 1.5))
    return name, k, y


def _sample(zoo, name, k, y):
    m = zoo[name]
    return m, TangentSample(chart_points(m, 8)[k], y)


def _spray(m, s):
    G = spray_jets(m, s.x, s.y, 1, 3).G
    return derivative_tensor(G, 0, 0), derivative_tensor(G, 0, 1)


def _close(a, b, scale, rel=1e-8):
    return np.max(np.abs(a - b)) <= rel * max(1.0, scale)


@PROPERTY
@given(point=tangent_points(), lam=st.floats(0.25, 4.0))
def test_fiber_homogeneity_degrees(zoo, point, lam):
    m, s = _sample(zoo, *point)
    ls = TangentSample(s.x, lam * s.y)
    g1, g2 = fundamental_tensor(m, s).g, fundamental_tensor(m, ls).g
    assert _close(g2, g1, np.max(np.abs(g1)))
    C1, C2 = cartan_tensor(m, s), cartan_tensor(m, ls)
    assert _close(lam * C2, C1, np.max(np.abs(C1)))
    (G1, N1), (G2, N2) = _spray(m, s), _spray(m, ls)
    assert _close(G2, lam ** 2 * G1, lam ** 2 * np.max(np.abs(G1)))
    assert _close(N2, lam * N1, lam * np.max(np.abs(N1)))


@PROPERTY
@given(point=tangent_points())
def test_berwald_symmetric_in_last_three_indices(zoo, point):
    m, s = _sample(zoo, *point)
    B = berwald_curvature(m, s).B
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)):
        assert np.array_equal(B, B.transpose(perm))
