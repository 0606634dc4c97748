"""Property tests of the tensors read off jets: fiber homogeneity degrees of
g (0), C (-1), G (2) and N (1), the symmetry of the Berwald tensor, the
fiber Euler identities of g, C and B, the g_y-symmetry of R_y, stacked
spray gradients equal to per-point ones bit for bit, and the spray
gradients' linear solves against the jet spray."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.curvature import _spray_riemann, berwald_curvature
from finslerlab.geodesics import spray_gradients, spray_jets
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


@PROPERTY
@given(point=tangent_points())
def test_euler_identities(zoo, point):
    # Euler's relation for the fiber degrees: g_y(y, .) = F F_y from the first
    # derivatives of F against g from the second of F^2, and C and B vanish
    # when y fills one of their symmetric slots
    m, s = _sample(zoo, *point)
    fj = m.jet(s.x, s.y, 0, 1)
    F, Fy = fj.value, derivative_tensor(fj, 0, 1)
    g = fundamental_tensor(m, s).g
    assert _close(g @ s.y, F * Fy, np.max(np.abs(g @ s.y)))
    C = cartan_tensor(m, s)
    assert _close(np.einsum("ijk,i->jk", C, s.y), 0.0, np.max(np.abs(C)) * np.max(np.abs(s.y)))
    B = berwald_curvature(m, s).B
    assert _close(np.einsum("ijkl,j->ikl", B, s.y), 0.0, np.max(np.abs(B)) * np.max(np.abs(s.y)))


@settings(max_examples=20, deadline=None)
@given(point=tangent_points())
def test_riemann_curvature_is_g_self_adjoint(zoo, point):
    # R_y as riemann_curvature reads it off the spray, before that function
    # builds its transverse basis
    m, s = _sample(zoo, *point)
    gR = fundamental_tensor(m, s).g @ _spray_riemann(spray_jets(m, s.x, s.y, 2, 4), s.y)[0]
    assert _close(gR, gR.T, np.max(np.abs(gR)))


@st.composite
def tangent_stacks(draw, names):
    """(metric name, chart point indices, directions): a stack of 2-4 points."""
    name = draw(st.sampled_from(names))
    m = draw(st.integers(2, 4))
    ks = draw(st.lists(st.integers(0, 7), min_size=m, max_size=m))
    # a first component of at least 0.3 keeps every direction away from zero
    dirs = draw(st.lists(st.tuples(st.floats(0.3, 1.5), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0)), min_size=m, max_size=m))
    return name, ks, np.array(dirs)


ALL_METRICS = ("euclidean", "euclidean3", "riemannian_sphere", "riemannian_hyperbolic",
               "randers_const", "randers_closed", "randers_curl", "berwald_product",
               "quartic_norm", "quartic_norm3", "funk", "funk3", "funk_quartic",
               "hilbert", "hilbert_quartic")


@PROPERTY
@given(stack=tangent_stacks(ALL_METRICS), mx=st.sampled_from([1, 2]))
def test_stacked_spray_gradients_match_single_points(zoo, stack, mx):
    name, ks, dirs = stack
    m = zoo[name]
    x = chart_points(m, 8)[ks]
    y = dirs[:, :m.n]
    stacked = spray_gradients(m, x, y, mx)
    for k in range(len(ks)):
        for got, want in zip(stacked, spray_gradients(m, x[k], y[k], mx)):
            assert (got is None and want is None) or np.array_equal(got[k], want)


@PROPERTY
@given(stack=tangent_stacks(ALL_METRICS), mx=st.sampled_from([1, 2]))
def test_spray_gradients_match_the_jet_spray(zoo, stack, mx):
    # the linear solves on values against G, dG/dx and dG/dy read off the jets
    # of spray_jets, at a stack and at its first point alone
    name, ks, dirs = stack
    m = zoo[name]
    x = chart_points(m, 8)[ks]
    y = dirs[:, :m.n]
    for xs, ys in ((x, y), (x[0], y[0])):
        G = spray_jets(m, xs, ys, mx, 3).G
        want = (derivative_tensor(G, 0, 0), derivative_tensor(G, 1, 0) if mx > 1 else None,
                derivative_tensor(G, 0, 1))
        for got, ref in zip(spray_gradients(m, xs, ys, mx), want):
            assert (got is None and ref is None) or _close(got, ref, np.max(np.abs(ref)),
                                                           rel=1e-12)
