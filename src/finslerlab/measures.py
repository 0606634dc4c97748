"""Busemann-Hausdorff volumes: Monte-Carlo region integrals, metric-ball
volumes by closed-form distances and by the polar (exp-Jacobian) route, the
Funk ball-volume formula, and the small-ball Taylor probe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._grids import (
    circle_nodes,
    gauss_legendre_on,
    sphere_nodes,
    uniform_blocks,
    unit_ball_volume,
)
from .curvature import riemann_curvature, s_curvature
from .errors import ConfigurationError, GeometryError, PreconditionError
from .geodesics import variational_flow
from .metrics import (
    MetricSpec,
    funk_distance_batch,
    hilbert_distance_batch,
)
from .minkowski import TangentSample, bh_density, density_field


@dataclass(frozen=True)
class MeasureEstimate:
    """A volume estimate with enough provenance to reproduce it bit-for-bit."""

    value: float
    stderr: float
    n_samples: int
    seed: int
    method: str
    flagged: bool = False
    note: str = ""

    def agrees_with(self, other, n_sigma=3.0):
        tol = n_sigma * np.hypot(self.stderr, other.stderr)
        return abs(self.value - other.value) <= max(tol, 1e-12)


@dataclass(frozen=True)
class BallSpec:
    center: np.ndarray
    radius: float
    distance_source: str  # funk_closed_form | hilbert_closed_form | geodesic_polar

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        if self.distance_source not in (
            "funk_closed_form", "hilbert_closed_form", "geodesic_polar"
        ):
            raise ConfigurationError(
                f"unknown distance source {self.distance_source!r}"
            )


# ---------------------------------------------------------------------------
# Region volumes by Monte Carlo
# ---------------------------------------------------------------------------


def _batched_sigma(metric: MetricSpec):
    if metric.sigma_bh is not None:
        return lambda pts: np.asarray(metric.sigma_bh(pts), dtype=float)
    return lambda pts: bh_density(metric, pts)


def _rows_where(pts, mask):
    """The rows of pts (m, n) where mask holds, without a copy when it holds
    on every row (compress gathers rows several times faster than pts[mask])."""
    mask = np.asarray(mask, dtype=bool)
    return pts if np.all(mask) else np.compress(mask, pts, axis=0)


def bh_volume(metric: MetricSpec, indicator, box, n_samples=1_000_000,
              seed=20240817, chunk=4_000_000) -> MeasureEstimate:
    """Monte-Carlo integral of the BH density over the indicated region.

    box is (lo, hi) arrays bounding the region; the estimate is exact in
    expectation and ships a standard error.  Sampling runs in fixed-size
    chunks from one seeded stream, so results are reproducible and memory
    stays bounded.  Each chunk is drawn, chart-tested and indicated in
    cache-sized blocks (_grids.uniform_blocks), and the density and the sums
    run once over the chunk's accepted rows, so working memory is one block
    plus the accepted rows of a chunk.  The indicator sees only the points
    inside the metric's chart, as a stack (k, n), and must act row by row.
    Zero acceptance comes back flagged rather than raising.
    """
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    rng = np.random.default_rng(seed)
    box_vol = float(np.prod(hi - lo))
    sigma = _batched_sigma(metric)
    total = 0.0
    total_sq = 0.0
    n_inside = 0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        kept = []
        for pts in uniform_blocks(rng, lo, hi, m, metric.n):
            pts = _rows_where(pts, metric.chart.contains(pts))
            kept.append(_rows_where(pts, indicator(pts)))
        pts = np.concatenate(kept)
        if len(pts):
            v = sigma(pts)
            total += float(np.sum(v))
            total_sq += float(np.sum(v * v))
            n_inside += len(pts)
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    value = box_vol * mean
    stderr = box_vol * np.sqrt(var / n_samples)
    flagged = n_inside == 0
    return MeasureEstimate(value=value, stderr=stderr, n_samples=n_samples,
                           seed=seed, method="monte_carlo", flagged=flagged,
                           note="zero acceptance" if flagged else "")


# ---------------------------------------------------------------------------
# Metric-ball volumes
# ---------------------------------------------------------------------------


def ball_volume(metric: MetricSpec, ball: BallSpec, n_samples=1_000_000,
                seed=20240817, n_dirs=None) -> MeasureEstimate:
    """BH volume of the forward metric ball B(center, radius).

    Closed-form distance sources run seeded Monte Carlo with the distance
    indicator; the polar source integrates the exp-map Jacobian radially
    and is flagged as a lower bound past a chart exit.
    """
    x = ball.center
    if ball.distance_source == "geodesic_polar":
        vols, exited = polar_ball_volumes(metric, x, [ball.radius], n_dirs=n_dirs)
        return MeasureEstimate(
            value=float(vols[0]), stderr=0.0, n_samples=0, seed=seed,
            method="quadrature", flagged=exited,
            note="lower bound: chart exit before radius" if exited else "",
        )
    dom = metric.convex_domain
    if dom is None:
        raise PreconditionError(
            f"{ball.distance_source} needs a metric carrying a convex domain"
        )
    dist = (funk_distance_batch if ball.distance_source == "funk_closed_form"
            else hilbert_distance_batch)
    # the chart of a Funk or Hilbert metric is its domain, so bh_volume
    # passes only domain points
    indicator = lambda pts: dist(dom, x, pts) < ball.radius
    return bh_volume(metric, indicator, metric.chart.sample_box,
                     n_samples=n_samples, seed=seed)


def _direction_grid(n, n_dirs, default=(96, 10)):
    """Directions and weights of a polar sweep: n_dirs circle nodes for n = 2,
    else an n_dirs x 2 n_dirs sphere grid.  Without n_dirs, default holds
    the counts for n = 2 and for n = 3; larger n has no grid rule here."""
    if n not in (2, 3):
        raise ConfigurationError(f"the polar route needs n in {{2,3}}, got {n}")
    if n_dirs is None:
        n_dirs = default[0] if n == 2 else default[1]
    return circle_nodes(n_dirs) if n == 2 else sphere_nodes(n_dirs, 2 * n_dirs)


def polar_ball_volumes(metric: MetricSpec, x, radii, n_dirs=None, n_radial=32,
                       sigma=None, rtol=1e-10):
    """Ball volumes at several radii from one polar sweep.

    Integrates sigma(c(t)) det(M(t))/t * F(x, theta)^(-n) radially per
    direction, where M is the velocity sensitivity of the geodesic flow;
    that is the Jacobian of the exponential map in polar form.  All
    directions are one stacked variational flow, read at every Gauss node
    at once; sigma, when given, maps a stack of points (k, n) to (k,).
    """
    x = np.asarray(x, dtype=float)
    n = metric.n
    radii = np.asarray(radii, dtype=float)
    dirs, w = _direction_grid(n, n_dirs)
    sigma = sigma if sigma is not None else density_field(metric)
    F_dirs = metric.F_batch(np.broadcast_to(x, dirs.shape), dirs)
    flow = variational_flow(metric, x, dirs / F_dirs[:, None], float(np.max(radii)),
                            rtol=rtol, atol=rtol)
    # nodes (direction, radius, node) on [0, min(r, reach)]
    upper = np.minimum(radii, flow.t_end[:, None])[..., None]
    ts, wts = gauss_legendre_on(0.0, upper, n_radial)
    xc, _, M, _ = flow.unpack(ts.reshape(len(dirs), -1))
    vals = (sigma(xc.reshape(-1, n)).reshape(ts.shape)
            * np.linalg.det(M).reshape(ts.shape) / ts)
    mu = (w * F_dirs ** (-n)) @ np.sum(wts * vals, axis=-1)
    return mu, bool(np.any(flow.exited))


def _grid_unit_volume(metric, x, dirs, w):
    """Unit-body volume on the same direction grid as a polar sweep; dividing
    by it cancels the angular quadrature bias in small-ball ratios."""
    F = metric.F_batch(np.broadcast_to(np.asarray(x, dtype=float), dirs.shape), dirs)
    return float(np.sum(w * F ** (-metric.n)) / metric.n)


def sphere_area_integrand(metric: MetricSpec, x, r, n_dirs=None, sigma=None):
    """nu_F(S(x, r)): the induced sphere measure in the coarea identity, from
    one stacked variational flow over all directions."""
    x = np.asarray(x, dtype=float)
    n = metric.n
    dirs, w = _direction_grid(n, n_dirs)
    sigma = sigma if sigma is not None else density_field(metric)
    F_dirs = metric.F_batch(np.broadcast_to(x, dirs.shape), dirs)
    flow = variational_flow(metric, x, dirs / F_dirs[:, None], r)
    if np.any(flow.exited):
        raise GeometryError("sphere integrand beyond the chart")
    xc, _, M, _ = flow.unpack(r)
    return float(np.sum(w * F_dirs ** (-n) * sigma(xc) * np.linalg.det(M) / r))


def coarea_consistency(metric: MetricSpec, x, r, dr=1e-3, **kw):
    """Relative deviation between d/dr of the polar ball volume and the
    sphere integrand; the coarea identity makes this a quadrature check."""
    mu, _ = polar_ball_volumes(metric, x, [r - dr, r + dr], **kw)
    dmu = (mu[1] - mu[0]) / (2 * dr)
    nu = sphere_area_integrand(metric, x, r,
                               n_dirs=kw.get("n_dirs"), sigma=kw.get("sigma"))
    return abs(dmu - nu) / abs(nu)


# ---------------------------------------------------------------------------
# The Funk ball-volume formula
# ---------------------------------------------------------------------------


def funk_ball_formula(n, r):
    """n 2^n Vol(B^n) * integral_0^{r/2} e^{-(n+1)t} sinh^{n-1}(t) dt, in
    closed form Vol(B^n) (1 - e^{-r})^n (substitute u = 1 - e^{-2t}).

    The BH volume of any forward metric r-ball of the Funk metric; tends to
    Vol(B^n) as r grows.  expm1 keeps small radii to full precision.
    """
    if n < 2:
        raise ConfigurationError("dimension must be >= 2")
    if r <= 0:
        return 0.0
    return float(unit_ball_volume(n) * (-np.expm1(-r)) ** n)


# ---------------------------------------------------------------------------
# Small-ball expansion probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallBallReport:
    c2: float
    c2_from_rx: float
    r_x: float
    eps_grid: np.ndarray
    volumes: np.ndarray
    reversible: bool


def curvature_ball_coefficient(metric: MetricSpec, x, n_dirs=None) -> float:
    """r(x): the curvature average entering the small-ball volume expansion.

    Integrates Ric + 3n (S-dot - S^2) over the unit tangent body, reduced to
    the direction sphere by 2-homogeneity of the integrand; all directions
    are one stack.
    """
    x = np.asarray(x, dtype=float)
    n = metric.n
    dirs, w = _direction_grid(n, n_dirs, default=(64, 8))
    sm = TangentSample(np.repeat(x[None], len(dirs), axis=0), dirs)
    sd = s_curvature(metric, sm, method="analytic")
    h = riemann_curvature(metric, sm).ricci + 3.0 * n * (sd.S_dot - sd.S ** 2)
    total = np.sum(w * h * metric.F_batch(sm.x, dirs) ** (-(n + 2)))
    return float(density_field(metric)(x) * total / (n * unit_ball_volume(n)))


def small_ball_probe(metric: MetricSpec, x, eps_grid, n_dirs=None,
                     compute_rx=True) -> SmallBallReport:
    """Fit mu(B(x, eps)) = Vol(B^n) eps^n (1 + c2 eps^2 + ...) on the grid.

    Ball volumes come from the polar route; the fit solves for (c2, c3) by
    least squares so the cubic term does not bias c2.  Non-reversible
    metrics are probed too but the report carries the reversibility flag,
    since the expansion is only backed for reversible metrics.

    The second route is c2 = -n r(x) / (6 (n + 2)), the Riemannian
    -scal / (6 (n + 2)) with scal = n r(x).  That constant is checked where
    S vanishes; the constant of the Finsler S-term is not derived.
    """
    x = np.asarray(x, dtype=float)
    eps = np.asarray(eps_grid, dtype=float)
    if np.any(eps <= 0) or np.max(eps) > 0.5:
        raise PreconditionError("eps grid should sit in (0, 0.5]")
    if len(eps) < 3:
        raise PreconditionError("need at least three radii to fit")
    n = metric.n
    mu, exited = polar_ball_volumes(metric, x, eps, n_dirs=n_dirs)
    if exited:
        raise GeometryError("small-ball probe hit the chart boundary")
    dirs, w = _direction_grid(n, n_dirs)
    sigma0 = density_field(metric)(x)
    lead = sigma0 * _grid_unit_volume(metric, x, dirs, w)
    ratio = mu / (lead * eps ** n) - 1.0
    A = np.column_stack([eps ** 2, eps ** 3])
    sol, *_ = np.linalg.lstsq(A, ratio, rcond=None)
    c2 = float(sol[0])
    r_x = curvature_ball_coefficient(metric, x, n_dirs=n_dirs) if compute_rx else np.nan
    return SmallBallReport(
        c2=c2,
        c2_from_rx=float(-n * r_x / (6.0 * (n + 2))) if compute_rx else np.nan,
        r_x=float(r_x) if compute_rx else np.nan,
        eps_grid=eps,
        volumes=mu,
        reversible=metric.reversible,
    )
