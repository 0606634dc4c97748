"""Deterministic sampling and quadrature grids, and the difference stencils,
used across the library."""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

from .errors import ConfigurationError


def halton(dim, count):
    """Low-discrepancy points in [0,1)^dim; unscrambled, hence reproducible."""
    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)  # skip the all-zero first point
    return sampler.random(count)


def halton_directions(n, count):
    """Deterministic unit vectors, uniformly distributed on S^(n-1)."""
    u = halton(n, count)
    # inverse-normal map gives rotation-invariant directions
    from scipy.special import ndtri

    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


def circle_nodes(m=720):
    """Trapezoid rule on the unit circle: directions (m,2) and equal weights."""
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(m, 2.0 * np.pi / m)
    return dirs, w


def sphere_nodes(n_polar=64, n_azimuth=128):
    """Gauss-Legendre x trapezoid product grid on S^2.

    Spectrally accurate for smooth integrands; the default grid has
    8192 >= 5810 points.
    """
    z, wz = np.polynomial.legendre.leggauss(n_polar)
    phi = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
    wphi = 2.0 * np.pi / n_azimuth
    s = np.sqrt(1.0 - z ** 2)
    pts = np.empty((n_polar * n_azimuth, 3))
    w = np.empty(n_polar * n_azimuth)
    k = 0
    for i in range(n_polar):
        pts[k:k + n_azimuth, 0] = s[i] * np.cos(phi)
        pts[k:k + n_azimuth, 1] = s[i] * np.sin(phi)
        pts[k:k + n_azimuth, 2] = z[i]
        w[k:k + n_azimuth] = wz[i] * wphi
        k += n_azimuth
    return pts, w


def sphere_surface_nodes(n):
    """Quadrature on S^(n-1) for n in {2, 3}; larger n has no grid rule here."""
    if n == 2:
        return circle_nodes()
    if n == 3:
        return sphere_nodes()
    raise ConfigurationError(f"direction quadrature only available for n in {{2,3}}, got {n}")


def unit_ball_volume(n):
    from scipy.special import gammaln

    return float(np.exp(n / 2.0 * np.log(np.pi) - gammaln(n / 2.0 + 1.0)))


def unit_sphere_area(n):
    """Surface measure of S^(n-1)."""
    return n * unit_ball_volume(n)


def gauss_legendre_on(a, b, m=48):
    x, w = np.polynomial.legendre.leggauss(m)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


# ---------------------------------------------------------------------------
# Difference stencils
# ---------------------------------------------------------------------------

_STENCIL5 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0  # offsets -2h,-h,h,2h
_STENCIL5_2ND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # -2h..2h


def five_point(vals, h, order=1):
    """First or second derivative at the interior points of a uniform grid of
    step h by five-point central stencils, stacked (len(vals) - 4, ...): one
    entry for five values at -2h..2h."""

    def at(w):
        if order == 2:
            return np.dot(_STENCIL5_2ND, w) / h ** 2
        return np.tensordot(_STENCIL5, np.stack([w[0], w[1], w[3], w[4]]), axes=1) / h

    return np.array([at(vals[k - 2: k + 3]) for k in range(2, len(vals) - 2)])


def richardson_central(f, h):
    """Derivative at 0 of f(s), by central differences at steps h and h/2,
    Richardson-extrapolated once: (4 d(h/2) - d(h)) / 3."""

    def d(s):
        return (f(s) - f(-s)) / (2 * s)

    return (4.0 * d(h / 2) - d(h)) / 3.0


def richardson_doubling(d_h, d_2h):
    """Combine fourth-order estimates at steps h and 2h: (16 D(h) - D(2h)) / 15."""
    return (16.0 * d_h - d_2h) / 15.0
