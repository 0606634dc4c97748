"""Model comparison volumes and the quantitative comparison checks:
volume-ratio monotonicity under curvature bounds, and conjugate-point
location under a positive Ricci lower bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from ._grids import halton_directions, unit_sphere_area
from .curvature import riemann_curvature, s_curvature
from .errors import ConfigurationError, PreconditionError
from .geodesics import variational_flow
from .measures import BallSpec, MeasureEstimate, ball_volume, polar_ball_volumes
from .metrics import MetricSpec, chart_points
from .minkowski import TangentSample


def s_lambda(lam, t):
    """Solution of s'' + lambda s = 0 with s(0) = 0, s'(0) = 1."""
    t = np.asarray(t, dtype=float)
    if abs(lam) < 1e-14:
        out = t
    elif lam > 0:
        r = np.sqrt(lam)
        out = np.sin(r * t) / r
    else:
        r = np.sqrt(-lam)
        out = np.sinh(r * t) / r
    return float(out) if np.ndim(out) == 0 else out


def model_volume_integrand(lam, delta, n, t):
    return (np.exp(-delta * t) * s_lambda(lam, t)) ** (n - 1)


def model_volume(lam, delta, n, r):
    """V_{lambda,delta}(r): the comparison volume with an exponential
    S-curvature discount.  For lambda > 0 the radius must stay below the
    first zero of s_lambda."""
    if r < 0:
        raise ConfigurationError("radius must be nonnegative")
    if lam > 0 and r > np.pi / np.sqrt(lam) + 1e-12:
        raise ConfigurationError(
            f"radius {r} beyond the validity interval pi/sqrt(lambda)"
        )
    if r == 0:
        return 0.0
    val, _ = quad(lambda t: model_volume_integrand(lam, delta, n, t), 0.0, r,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    return float(unit_sphere_area(n) * val)


def default_model(metric: MetricSpec):
    """The comparison model (lambda, delta): (-1/4, (n+1)/(2(n-1))) for Funk,
    whose ball volume it is, and the flat (0, 0) for every other metric."""
    n = metric.n
    return (-0.25, (n + 1) / (2.0 * (n - 1))) if metric.name == "funk" else (0.0, 0.0)


def model_volume_prime(lam, delta, n, r):
    """dV/dr, which is the sphere-area term of the model."""
    return float(unit_sphere_area(n) * model_volume_integrand(lam, delta, n, r))


# ---------------------------------------------------------------------------
# Curvature-bound sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSweep:
    ok: bool
    min_ricci_ratio: float  # min over samples of Ric / ((n-1) F^2)
    min_s_ratio: float      # min over samples of S / ((n-1) F)
    n_samples: int


def curvature_bound_sweep(metric: MetricSpec, lam, delta, n_samples=50) -> BoundSweep:
    """Numerically verify Ric/F^2 >= (n-1) lambda and S/F >= (n-1) delta."""
    n = metric.n
    sm = TangentSample(chart_points(metric, n_samples), halton_directions(n, n_samples))
    rep = riemann_curvature(metric, sm)
    F = rep.F
    min_r = np.min(rep.ricci / ((n - 1) * F * F))
    min_s = np.min(s_curvature(metric, sm, method="analytic").S / ((n - 1) * F))
    ok = bool(min_r >= lam - 1e-6) and bool(min_s >= delta - 1e-6)
    return BoundSweep(ok=ok, min_ricci_ratio=float(min_r),
                      min_s_ratio=float(min_s), n_samples=n_samples)


# ---------------------------------------------------------------------------
# Ratio monotonicity (volume comparison)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    rows: list  # (r, mu, stderr, V, ratio)
    monotone_ok: bool
    precondition: BoundSweep | None
    skipped: bool
    note: str = ""


def ratio_monotonicity_check(metric: MetricSpec, x, lam, delta, r_grid,
                             n_samples=2_000_000, seed=20240817,
                             sweep_samples=50) -> RatioReport:
    """Tabulate mu_F(B(x, r)) / V_{lambda,delta}(r) and test non-increase.

    Funk balls take Monte Carlo on the closed-form distance, every other
    metric's the polar route.  The curvature bounds are swept numerically
    first; on failure the check reports itself skipped instead of asserting.
    Monotonicity is asserted only up to the combined Monte-Carlo and
    quadrature error budget.  A polar sweep that leaves the chart before a
    radius makes that row a lower bound, which the note says; so does a
    zero-acceptance Monte-Carlo row, which stays in the table but leaves the
    monotonicity test.
    """
    sweep = curvature_bound_sweep(metric, lam, delta, n_samples=sweep_samples)
    if not sweep.ok:
        return RatioReport(rows=[], monotone_ok=False, precondition=sweep,
                           skipped=True,
                           note="curvature-bound sweep failed; check skipped")
    x = np.asarray(x, dtype=float)
    exited = False
    if metric.name != "funk":
        mus, exited = polar_ball_volumes(metric, x, list(r_grid))
        ests = [
            MeasureEstimate(value=float(m), stderr=0.0, n_samples=0, seed=seed,
                            method="quadrature")
            for m in mus
        ]
    else:
        ests = [
            ball_volume(metric, BallSpec(x, r, "funk_closed_form"),
                        n_samples=n_samples, seed=seed + k)
            for k, r in enumerate(r_grid)
        ]
    rows = []
    for r, est in zip(r_grid, ests):
        V = model_volume(lam, delta, metric.n, r)
        rows.append((float(r), est.value, est.stderr, V, est.value / V))
    tested = [row for row, est in zip(rows, ests) if not est.flagged]
    monotone = not any(q1 > q0 + 3.0 * (e0 / V0 + e1 / V1) + 1e-6
                       for (_, _, e0, V0, q0), (_, _, e1, V1, q1) in zip(tested, tested[1:]))
    notes = [f"r={row[0]!r}: {est.note}" for row, est in zip(rows, ests) if est.flagged]
    notes += ["lower bound: chart exit before radius"] if exited else []
    return RatioReport(rows=rows, monotone_ok=monotone, precondition=sweep,
                       skipped=False, note="; ".join(notes))


# ---------------------------------------------------------------------------
# Conjugate points under a positive Ricci bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateReport:
    t_conjugate: float | None
    bound: float
    within_bound: bool
    inconclusive: bool
    note: str = ""


def conjugate_point_bound(metric: MetricSpec, x, y_unit, lam, sweep_samples=50) -> ConjugateReport:
    """First vanishing of a Jacobi field with J(0) = 0 along the geodesic,
    against the bound pi/sqrt(lambda) valid when Ric >= (n-1) lambda > 0."""
    if lam <= 0:
        raise PreconditionError("the conjugate-point bound needs lambda > 0")
    sweep = curvature_bound_sweep(metric, lam, -np.inf, n_samples=sweep_samples)
    if sweep.min_ricci_ratio < lam - 1e-6:
        raise PreconditionError(
            f"Ricci lower bound {lam} not satisfied "
            f"(min ratio {sweep.min_ricci_ratio:.6g})"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y_unit, dtype=float)
    y = y / metric.F(x, y)
    bound = np.pi / np.sqrt(lam)
    t_max = 1.05 * bound
    flow = variational_flow(metric, x, y, t_max)
    t_hi = flow.t_end
    ts = np.linspace(1e-6, t_hi, 400)
    dets = np.array([flow.det_M(t) for t in ts])
    t_conj = None
    for k in range(1, len(ts)):
        if dets[k - 1] > 0 and dets[k] <= 0 or dets[k - 1] * dets[k] < 0:
            t_conj = float(brentq(flow.det_M, ts[k - 1], ts[k], xtol=1e-12))
            break
    if t_conj is None:
        inconclusive = flow.exited or t_hi < bound
        return ConjugateReport(
            t_conjugate=None, bound=float(bound), within_bound=False,
            inconclusive=True,
            note="no conjugate point before chart exit" if inconclusive
            else "no conjugate point found inside the search window",
        )
    return ConjugateReport(
        t_conjugate=t_conj, bound=float(bound),
        within_bound=t_conj <= bound + 1e-3, inconclusive=False,
    )
