"""Pointwise tangent-space quantities: fundamental tensor, Cartan torsion,
distortion, Busemann-Hausdorff density, and indicatrix geometry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._grids import richardson_central, sphere_surface_nodes, uniform_blocks, unit_ball_volume
from .errors import (
    ConfigurationError,
    MetricValidityError,
    NumericalIntegrityError,
    PreconditionError,
)
from .jets import derivative_tensor
from .metrics import F_FLOOR, MetricSpec

# Rays per F_batch call in the unit-body quadrature: 2^13 rays hold one
# point of the n=3 sphere grid (8192 nodes), 11 of the n=2 circle (720), and
# twice as many on the half grids of reversible metrics.  Blocks this small
# keep the ray-exit Newton buffers in cache: on quartic-domain densities (a
# 2-core x86 host) 2^13 was the fastest of 2^12 to 2^16, and 2^18 took 1.6 to
# 2.6 times as long.
_RAY_CHUNK = 2 ** 13
# draws and seed of bh_density's mc_check sampler, read at each call
_MC_CHECK_SAMPLES = 200_000
_MC_CHECK_SEED = 0

@dataclass(frozen=True)
class TangentSample:
    """A base point with a nonvanishing tangent vector: x and y of shape
    (n,), or stacks (m, n) of m tangent points.  The tangent functions take
    either, and give a stack member the bits of its own single-point call."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", np.asarray(x, dtype=float))
        object.__setattr__(self, "y", np.asarray(y, dtype=float))

    def validate(self, metric: MetricSpec):
        """This sample, or PreconditionError when a base point lies outside
        the chart, or a y is below the floor in length or in F (see F).  The
        length test comes first, since a metric may refuse to evaluate a
        vanishing y."""
        if not np.all(metric.chart.contains(self.x)):
            raise PreconditionError(f"base point {self.x} outside the metric chart")
        if np.any(np.sum(self.y * self.y, axis=-1) < F_FLOOR * F_FLOOR):
            raise PreconditionError("tangent vector too close to zero")
        if np.any(self.F(metric) <= F_FLOOR):
            raise PreconditionError("tangent vector too close to zero")
        return self

    def F(self, metric: MetricSpec):
        """F here, from one F_batch call: a float for one point."""
        F = metric.F_batch(self.x, self.y)
        return F if F.ndim else float(F)


@dataclass(frozen=True)
class FundamentalTensor:
    """g_ij(y) with its Cholesky-backed inverse and determinant; a stack of
    m samples gives g and g_inv of shape (m, n, n) and det_g and F of (m,)."""

    g: np.ndarray
    g_inv: np.ndarray
    det_g: float | np.ndarray
    F: float | np.ndarray

    def inner(self, u, v):
        return float(np.asarray(u) @ self.g @ np.asarray(v))


def _f2_jet(metric, sample, mx, my):
    fj = metric.jet(sample.x, sample.y, mx, my)
    return fj * fj, fj.value


def fundamental_tensor(metric: MetricSpec, sample: TangentSample) -> FundamentalTensor:
    """g_ij = half the second fiber derivative of F^2, from the jet engine.

    A stack is factored and inverted whole by numpy: det_g from the
    Cholesky diagonal, g_inv from one stacked solve.  A non-finite or
    indefinite g raises MetricValidityError."""
    sample.validate(metric)
    f2, F = _f2_jet(metric, sample, 0, 2)
    g = 0.5 * derivative_tensor(f2, 0, 2)
    if not np.all(np.isfinite(g)):  # numpy's Cholesky passes a NaN through
        raise MetricValidityError(f"fundamental tensor not finite at x={sample.x}, y={sample.y}")
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricValidityError(
            f"fundamental tensor not positive definite at x={sample.x}, y={sample.y}"
        ) from exc
    # I broadcast to g's shape: numpy < 2 reads a 2-d right-hand side
    # against a stack as a stack of vectors
    g_inv = np.linalg.solve(g, np.broadcast_to(np.eye(metric.n), g.shape))
    det_g = np.prod(np.diagonal(low, axis1=-2, axis2=-1), axis=-1) ** 2
    return FundamentalTensor(g=g, g_inv=g_inv, det_g=per_point(det_g, sample.y), F=F)


def cartan_tensor(metric: MetricSpec, sample: TangentSample) -> np.ndarray:
    """C_ijk = quarter of the third fiber derivative of F^2."""
    sample.validate(metric)
    f2, _ = _f2_jet(metric, sample, 0, 3)
    return 0.25 * derivative_tensor(f2, 0, 3)


def cartan_tilde(metric: MetricSpec, sample: TangentSample) -> np.ndarray:
    """C-tilde: fourth fiber derivative of F^2 over four (the y-derivative of C)."""
    sample.validate(metric)
    f2, _ = _f2_jet(metric, sample, 0, 4)
    return 0.25 * derivative_tensor(f2, 0, 4)


def mean_cartan(metric: MetricSpec, sample: TangentSample,
                ft: FundamentalTensor | None = None) -> np.ndarray:
    """I_u = g^{ij} C(e_i, e_j, u)."""
    if ft is None:
        ft = fundamental_tensor(metric, sample)
    return np.einsum("...ij,...ijk->...k", ft.g_inv, cartan_tensor(metric, sample))


def distortion(metric: MetricSpec, sample: TangentSample, density: float) -> float:
    """tau = log(sqrt(det g_ij(y)) / sigma) for a positive density sigma at x."""
    if density <= 0:
        raise ConfigurationError("distortion needs a positive density")
    return float(0.5 * np.log(fundamental_tensor(metric, sample).det_g) - np.log(density))


def distortion_derivative_check(metric: MetricSpec, sample: TangentSample,
                                density: float) -> float:
    """max over basis directions of |d/dt tau(y + t v) - I_y(v)|.

    The left side is finite differences of jet-computed distortions; the right
    side is the mean Cartan torsion, so the two routes are independent.
    """
    n = metric.n
    ft = fundamental_tensor(metric, sample)
    I = mean_cartan(metric, sample, ft=ft)
    scale = float(np.linalg.norm(sample.y))
    worst = 0.0
    for v in np.eye(n):
        deriv = richardson_central(
            lambda s: distortion(metric, TangentSample(sample.x, sample.y + s * v), density),
            1e-4 * scale)
        worst = max(worst, abs(deriv - float(I @ v)))
    return worst


def cartan_norm(metric: MetricSpec, sample: TangentSample) -> float | np.ndarray:
    """Fully g-contracted Frobenius norm of the Cartan torsion."""
    ft = fundamental_tensor(metric, sample)
    C = cartan_tensor(metric, sample)
    Cup = np.einsum("...ia,...jb,...kc,...abc->...ijk", ft.g_inv, ft.g_inv, ft.g_inv, C)
    return per_point(np.sqrt(np.einsum("...ijk,...ijk->...", Cup, C)), sample.y)


# ---------------------------------------------------------------------------
# Busemann-Hausdorff density
# ---------------------------------------------------------------------------


def unit_body_volume(metric: MetricSpec, x):
    """Lebesgue volume of {y : F(x, y) < 1} by the 1-homogeneity reduction.

    x is one point (n,), giving a float, or a stack of points (m, n), giving
    an array (m,).  The rays of a stack go through F_batch together, at most
    _RAY_CHUNK at a time, as base points (k, 1, n) against the directions
    (d, n), so that the terms of a base point are computed once per point.
    A reversible metric has an even F^-n, so it takes the antipodal half of
    the direction grid.
    """
    x = np.asarray(x, dtype=float)
    dirs, w = sphere_surface_nodes(metric.n, half=metric.reversible)
    pts = x.reshape(-1, metric.n)
    per_chunk = max(1, _RAY_CHUNK // len(dirs))
    vol = np.empty(len(pts))
    for k in range(0, len(pts), per_chunk):
        F = metric.F_batch(pts[k:k + per_chunk, None, :], dirs)
        vol[k:k + per_chunk] = np.sum(w * F ** (-metric.n), axis=-1) / metric.n
    return float(vol[0]) if x.ndim == 1 else vol


def unit_body_volume_mc(metric: MetricSpec, x):
    """Rejection Monte-Carlo estimate of the unit-body volume with its stderr,
    from _MC_CHECK_SAMPLES draws seeded with _MC_CHECK_SEED, drawn and tested
    in the cache-sized blocks of bh_volume's sampler, with the one base
    point x shared by every F_batch row."""
    x = np.asarray(x, dtype=float)
    n_samples = _MC_CHECK_SAMPLES
    dirs, _ = sphere_surface_nodes(metric.n)
    half = 1.05 / np.min(metric.F_batch(x, dirs))
    rng = np.random.default_rng(_MC_CHECK_SEED)
    inside = 0
    for cols in uniform_blocks(rng, -half, half, n_samples, metric.n):
        inside += int(np.count_nonzero(metric.F_batch(x, cols.T) < 1.0))
    box = (2 * half) ** metric.n
    p = inside / n_samples
    value = box * p
    stderr = box * np.sqrt(max(p * (1 - p), 1e-300) / n_samples)
    return value, stderr


def bh_density(metric: MetricSpec, x, mc_check=False):
    """sigma_F(x) = Vol(B^n) / Vol{F(x, .) < 1}.

    x is one point (n,), giving a float, or a stack of points (m, n), giving
    an array (m,).  Closed forms registered on the metric are used when
    available; otherwise spherical quadrature, all points of a stack at
    once.  With mc_check=True a seeded rejection sampler must agree within
    3 sigma at every point or a NumericalIntegrityError is raised.
    """
    x = np.asarray(x, dtype=float)
    if metric.sigma_bh is not None and not mc_check:
        return per_point(metric.sigma_bh(x), x)
    vol = unit_body_volume(metric, x)
    sigma = unit_ball_volume(metric.n) / vol
    if mc_check:
        for p, v in zip(x.reshape(-1, metric.n), np.atleast_1d(vol)):
            mc, err = unit_body_volume_mc(metric, p)
            if abs(mc - v) > 3.0 * max(err, 1e-12):
                raise NumericalIntegrityError(
                    f"unit-body volume at {p}: quadrature {v} vs MC {mc} +- {err}"
                )
    if metric.sigma_bh is not None:
        closed = per_point(metric.sigma_bh(x), x)
        if np.any(np.abs(closed - sigma) > 1e-6 * np.maximum(1.0, np.abs(sigma))):
            raise NumericalIntegrityError(
                f"closed-form density {closed} disagrees with quadrature {sigma}"
            )
        return closed
    return per_point(sigma, x)


def per_point(values, x):
    """A float for one point x (n,), an array for a stack (m, n): how every
    tangent quantity returns a value per sample."""
    return float(values) if x.ndim == 1 else np.asarray(values, dtype=float)


def density_field(metric: MetricSpec):
    """Callable sigma(x) backed by the closed form or by quadrature; like
    bh_density it takes one point (n,), giving a float, or a stack (m, n)."""
    return lambda x: bh_density(metric, x)


# ---------------------------------------------------------------------------
# Indicatrix geometry
# ---------------------------------------------------------------------------


def _require_minkowski(metric):
    if not metric.is_minkowski:
        raise PreconditionError(
            "indicatrix operations need an x-independent (Minkowski) norm"
        )


def tangent_basis(ft: FundamentalTensor, y):
    """g_y-orthonormal basis of the g_y-orthogonal complement of y, as rows
    (n-1, n), or (m, n-1, n) for a stack y (m, n) and its tensor."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]

    def inner(u, v):
        return (u[..., None, :] @ ft.g @ v[..., :, None])[..., 0]

    gy = (ft.g @ y[..., :, None])[..., 0]
    # coordinate vectors of least g_y-cosine with y, projected off y
    order = np.argsort(np.abs(gy) / np.sqrt(np.diagonal(ft.g, axis1=-2, axis2=-1)), axis=-1)
    basis = []
    for j in range(n - 1):
        idx = order[..., j: j + 1]
        v = np.eye(n)[idx[..., 0]] - (np.take_along_axis(gy, idx, axis=-1)
                                      / (y[..., None, :] @ gy[..., :, None])[..., 0]) * y
        for b in basis:
            v = v - inner(v, b) * b
        nv = np.sqrt(inner(v, v))
        if np.any(nv < 1e-12):
            raise PreconditionError("degenerate tangent basis")
        basis.append(v / nv)
    return np.stack(basis, axis=-2)


def _check_tangent(ft, y, vecs):
    F = ft.F
    for v in vecs:
        if abs(ft.inner(y, v)) > 1e-8 * F * np.sqrt(ft.inner(v, v)):
            raise PreconditionError("input vector not tangent to the indicatrix")


def indicatrix_riemann(metric: MetricSpec, y, u, v, w) -> np.ndarray:
    """Curvature R(u,v)w of the induced indicatrix metric via the Cartan form.

    Uses C(C(u,w),v) - C(C(v,w),u) + g(v,w)u - g(u,w)v, with C(u,v) the
    g_y-dual vector of C_y(u, v, .).  Inputs must be g_y-orthogonal to y.
    """
    _require_minkowski(metric)
    y = np.asarray(y, dtype=float)
    sample = TangentSample(np.zeros(metric.n), y)
    ft = fundamental_tensor(metric, sample)
    _check_tangent(ft, y, [u, v, w])
    C = cartan_tensor(metric, sample)

    def cdual(a, b):
        rhs = np.einsum("ijk,i,j->k", C, a, b)
        return ft.g_inv @ rhs

    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    term = np.einsum("ijk,j,k->i", C, cdual(u, w), v) - np.einsum(
        "ijk,j,k->i", C, cdual(v, w), u
    )
    term = ft.g_inv @ term
    return term + ft.inner(v, w) * u - ft.inner(u, w) * v


def indicatrix_sectional(metric: MetricSpec, y, u, v) -> float:
    """Sectional curvature of the plane (u, v) tangent to the indicatrix."""
    sample = TangentSample(np.zeros(metric.n), np.asarray(y, dtype=float))
    ft = fundamental_tensor(metric, sample)
    R = indicatrix_riemann(metric, y, u, v, v)
    num = ft.inner(R, u)
    den = ft.inner(u, u) * ft.inner(v, v) - ft.inner(u, v) ** 2
    return float(num / den)


def indicatrix_gauss_oracle(metric: MetricSpec, y) -> float:
    """Gauss curvature of the embedded indicatrix surface at y/F(y) (n = 3).

    Brioschi formula on the first fundamental form of the central-projection
    parametrization, with finite differences in the chart parameters; fully
    independent of the Cartan-form curvature route.
    """
    _require_minkowski(metric)
    if metric.n != 3:
        raise PreconditionError("the Gauss oracle is a surface computation (n = 3)")
    y = np.asarray(y, dtype=float)
    x0 = np.zeros(3)
    F0 = metric.F(x0, y)
    y = y / F0
    # chart directions transversal to y
    sample = TangentSample(x0, y)
    ft = fundamental_tensor(metric, sample)
    a, b = tangent_basis(ft, y)
    h = 2e-3

    def point(s, t):
        nu = y + s * a + t * b
        return nu / metric.F(x0, nu)

    def first_form(s, t):
        # E, F, G of the induced metric g_{p(s,t)} at the surface point
        p = point(s, t)
        ps = (point(s + h, t) - point(s - h, t)) / (2 * h)
        pt = (point(s, t + h) - point(s, t - h)) / (2 * h)
        g = fundamental_tensor(metric, TangentSample(x0, p)).g
        return np.array([ps @ g @ ps, ps @ g @ pt, pt @ g @ pt])

    # Brioschi from E, F, G and their first/second parameter derivatives
    def efg_grid():
        vals = {}
        for i in (-2, -1, 0, 1, 2):
            for j in (-2, -1, 0, 1, 2):
                if abs(i) + abs(j) <= 2:
                    vals[(i, j)] = first_form(i * h, j * h)
        return vals

    V = efg_grid()
    E, F, G = V[(0, 0)]
    Es = (V[(1, 0)] - V[(-1, 0)]) / (2 * h)
    Et = (V[(0, 1)] - V[(0, -1)]) / (2 * h)
    Ess = (V[(2, 0)] - 2 * V[(0, 0)] + V[(-2, 0)]) / (4 * h * h)
    Ett = (V[(0, 2)] - 2 * V[(0, 0)] + V[(0, -2)]) / (4 * h * h)
    Est = (V[(1, 1)] - V[(1, -1)] - V[(-1, 1)] + V[(-1, -1)]) / (4 * h * h)
    Eu, Fu, Gu = Es
    Ev, Fv, Gv = Et
    Euu, Fuu, Guu = Ess
    Evv, Fvv, Gvv = Ett
    Euv, Fuv, Guv = Est
    m1 = np.array([
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E, F],
        [0.5 * Gv, F, G],
    ])
    m2 = np.array([
        [0.0, 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E, F],
        [0.5 * Gu, F, G],
    ])
    det = E * G - F * F
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det * det))


def santalo_volume(metric: MetricSpec) -> float:
    """Riemannian volume of the indicatrix in the induced metric.

    Only defined here for reversible Minkowski norms in dimensions 2 and 3;
    equals Vol(S^(n-1)) exactly when the norm is Euclidean.  The central
    projection u -> u/F(u) pulls the induced metric back to F_yy/F on the
    tangent space of the unit sphere at u, and F_yy u = 0, so the volume is
    the sphere quadrature of sqrt(det(F_yy/F + u u^T)), with F and F_yy from
    one jet stack over the nodes.
    """
    _require_minkowski(metric)
    if not metric.reversible:
        raise PreconditionError("the indicatrix volume bound assumes a reversible norm")
    n = metric.n
    if n not in (2, 3):
        raise PreconditionError("indicatrix volume implemented for n in {2, 3}")
    u, w = sphere_surface_nodes(n)
    fj = metric.jet(np.zeros(n), u, 0, 2)
    pulled = derivative_tensor(fj, 0, 2) / fj.value[:, None, None] + u[:, :, None] * u[:, None, :]
    return float(np.sum(w * np.sqrt(np.linalg.det(pulled))))


def indicatrix_bh_length(metric: MetricSpec) -> float:
    """Busemann-Hausdorff length of the indicatrix curve (n = 2), reported
    for comparison of the dimension-dependent volume bounds.

    The curve is p(u) = u/F(u) over the circle nodes u, with velocity
    dp = (t - (F_y . t / F) u) / F along the unit tangent t = u'(theta),
    F and F_y from one jet stack; the BH length element of dp is the
    harmonic mean of F(dp) and F(-dp).
    """
    _require_minkowski(metric)
    if metric.n != 2:
        raise PreconditionError("BH indicatrix length implemented for n = 2")
    u, w = sphere_surface_nodes(2)
    t = np.column_stack([-u[:, 1], u[:, 0]])
    fj = metric.jet(np.zeros(2), u, 0, 1)
    F = fj.value[:, None]
    dp = (t - np.sum(derivative_tensor(fj, 0, 1) * t, axis=-1, keepdims=True) / F * u) / F
    x0 = np.zeros_like(dp)
    fwd, bwd = metric.F_batch(x0, dp), metric.F_batch(x0, -dp)
    return float(np.sum(w * 2.0 / (1.0 / fwd + 1.0 / bwd)))
