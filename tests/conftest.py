"""Shared fixtures: the metric zoo is built once per session."""

import numpy as np
import pytest

from finslerlab import metrics


@pytest.fixture(scope="session")
def zoo():
    """All catalog metrics (n=2 where a dimension applies, plus n=3 entries),
    each validated as its constructor builds it."""
    return {
        "euclidean": metrics.make_euclidean(2),
        "euclidean3": metrics.make_euclidean(3),
        "riemannian_sphere": metrics.make_sphere(2),
        "riemannian_hyperbolic": metrics.make_hyperbolic(2),
        "randers_const": metrics.make_randers(2, variant="const", c=0.3),
        "randers_closed": metrics.make_randers(2, variant="closed", c=0.3),
        "randers_curl": metrics.make_randers(2, variant="curl", c=0.3),
        "berwald_product": metrics.make_berwald_product(),
        "quartic_norm": metrics.make_quartic(2, 0.1),
        "quartic_norm3": metrics.make_quartic(3, 0.1),
        "funk": metrics.make_funk(2),
        "funk3": metrics.make_funk(3),
        "funk_quartic": metrics.make_funk(2, domain="quartic:0.1"),
        "hilbert": metrics.make_hilbert(2),
        "hilbert_quartic": metrics.make_hilbert(2, domain="quartic:0.1"),
    }


def tangent_samples(metric, count, seed=20240817, y_lo=0.4, y_hi=1.3):
    """Deterministic tangent samples inside the metric's chart."""
    from finslerlab._grids import halton_directions
    from finslerlab.metrics import chart_points

    rng = np.random.default_rng(seed)
    pts = chart_points(metric, count)
    dirs = halton_directions(metric.n, count)
    scales = rng.uniform(y_lo, y_hi, count)
    return [(x, s * d) for x, d, s in zip(pts, dirs, scales)]


def grad_phi(dom, z):
    """The gradient of a convex domain's phi at the coordinates z, one term
    per coordinate: 2 z_i, plus 4 eps z_i^3 on a quartic domain."""
    if dom.kind == "quartic_perturbed" and dom.eps != 0.0:
        return [2.0 * zi + 4.0 * dom.eps * zi * zi * zi for zi in z]
    return [2.0 * zi for zi in z]
