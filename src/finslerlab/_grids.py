"""Deterministic sampling and quadrature grids, and the difference stencils,
used across the library."""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError


# Halton streams kept per (dim, count): every metric build draws the same
# few, and the memoised arrays are read-only, so no caller can change what
# a later call returns.
_STREAMS = 32


@functools.lru_cache(maxsize=_STREAMS)
def halton(dim, count):
    """Low-discrepancy points in [0,1)^dim; unscrambled, hence reproducible.

    Radical inverses of the indices 1..count in the first dim prime bases,
    with the bits of scipy's unscrambled Halton sampler past its all-zero
    first point: digits are added lowest first, and the digit weight is
    divided by the base (times its reciprocal can be one ulp off).  The
    array is memoised and read-only.
    """
    bases, k = [], 2  # the first dim primes
    while len(bases) < dim:
        if all(k % p for p in bases):
            bases.append(k)
        k += 1
    out = np.zeros((count, dim))
    for col, base in zip(out.T, bases):
        q, b2r = np.arange(1, count + 1), 1.0 / base
        while q.size and q[-1]:  # once the largest index runs out, digits add 0.0
            q, r = np.divmod(q, base)
            col += r * b2r
            b2r /= base
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_STREAMS)
def halton_directions(n, count):
    """Deterministic unit vectors, uniformly distributed on S^(n-1); the
    array is memoised and read-only, like halton's."""
    u = halton(n, count)
    # inverse-normal map gives rotation-invariant directions
    from scipy.special import ndtri

    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs = g / norms
    dirs.flags.writeable = False
    return dirs


# Rows per block of a Monte-Carlo draw, so that a block and the temporaries
# of its chart test and indicator stay near a core's L2 cache (2 MiB); on the
# mc_volume benchmark 2^14 and 2^16 were no faster.
_MC_BLOCK = 1 << 15
# Rows drawn at a time into the row-major buffer that a block's columns are
# scaled from, so that the buffer stays small beside the block.
_DRAW_ROWS = 1 << 12


def check_sample_count(m):
    """ConfigurationError unless m is an integer >= 1: the check of every
    Monte-Carlo sample count."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ConfigurationError(f"Monte-Carlo sample count must be an integer >= 1, got {m!r}")


def uniform_blocks(rng, lo, hi, m, n):
    """m points drawn uniformly from the box [lo, hi), in blocks of at most
    _MC_BLOCK points, each block as its coordinate columns (n, b).  Joined in
    order, the blocks are the columns of one rng.uniform(lo, hi, size=(m, n))
    draw (lo + (hi - lo) * u), since rng.random fills rows from one stream;
    each column is scaled as that draw scales it.  Every block is a view of
    the same buffer, so a caller keeps what it needs before the next one.
    The count m is checked before anything is drawn."""
    check_sample_count(m)
    lo, hi = np.broadcast_to(lo, (n,)), np.broadcast_to(hi, (n,))
    cols = np.empty((n, min(_MC_BLOCK, m)))
    raw = np.empty((min(_DRAW_ROWS, cols.shape[1]), n))
    return _blocks(rng, lo[:, None], (hi - lo)[:, None], m, raw, cols)


def _blocks(rng, lo, width, m, raw, cols):
    b, d = cols.shape[1], len(raw)
    for k in range(0, m, b):
        block = cols[:, :min(b, m - k)]
        for j in range(0, block.shape[1], d):
            piece = block[:, j:j + d]
            rng.random(out=raw[:piece.shape[1]])
            np.multiply(raw[:piece.shape[1]].T, width, out=piece)
        yield np.add(block, lo, out=block)


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


def sphere_surface_nodes(n, half=False):
    """Quadrature on S^(n-1) for n in {2, 3}; larger n has no grid rule here.

    With half, one antipodal half of the same nodes with doubled weights:
    the first 360 of the 720 circle nodes, or the z > 0 rows of the sphere
    grid.  That is the same rule for an even integrand, f(-u) = f(u).
    """
    if n == 2:
        dirs, w = circle_nodes()
        keep = slice(len(w) // 2) if half else slice(None)
    elif n == 3:
        dirs, w = sphere_nodes()
        keep = dirs[:, 2] > 0 if half else slice(None)
    else:
        raise ConfigurationError(f"direction quadrature only available for n in {{2,3}}, got {n}")
    return dirs[keep], (2.0 * w[keep] if half else w)


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
