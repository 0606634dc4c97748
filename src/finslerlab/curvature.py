"""Curvature quantities: Berwald, Landsberg, S-curvature, Riemann curvature
with principal curvatures, and the constant-curvature / projective ODE checks.

All tensors come out of jets of the spray coefficients, so they are exact to
truncation at the sample.  Quantities defined as rates of change along
geodesics (Landsberg via transport, L-dot, S) use five-point central
differences over parallel-transported frames, Richardson-extrapolated once.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._grids import five_point, richardson_central, richardson_doubling
from .errors import GeometryError, PreconditionError
from .geodesics import integrate_geodesic, parallel_transport, spray_jets, transport_both_ways
from .jets import derivative_tensor
from .metrics import MetricSpec
from .minkowski import (
    TangentSample,
    cartan_norm,
    cartan_tensor,
    cartan_tilde,
    density_field,
    fundamental_tensor,
    mean_cartan,
    per_point,
    tangent_basis,
)

# ---------------------------------------------------------------------------
# Berwald curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BerwaldTensor:
    """B[i,j,k,l] = d^3 G^i / dy^j dy^k dy^l and its mean E (a 2-form)."""

    B: np.ndarray
    E: np.ndarray

    def norm(self):
        """The Frobenius norm of B: a float for one point, (m,) for a stack."""
        B = self.B.reshape(self.B.shape[:-4] + (-1,))
        norm = np.sqrt(np.sum(B ** 2, axis=-1))
        return float(norm) if norm.ndim == 0 else norm


def berwald_curvature(metric: MetricSpec, sample: TangentSample) -> BerwaldTensor:
    sample.validate(metric)
    B = derivative_tensor(spray_jets(metric, sample.x, sample.y, 1, 5).G, 0, 3)
    E = 0.5 * np.einsum("...kijk->...ij", B)
    return BerwaldTensor(B=B, E=E)


# ---------------------------------------------------------------------------
# Landsberg curvature
# ---------------------------------------------------------------------------


def landsberg_from_berwald(metric: MetricSpec, sample: TangentSample,
                           bt: BerwaldTensor | None = None) -> np.ndarray:
    """Identity route: L(u,v,w) = -1/2 g(B(u,v,w), y)."""
    if bt is None:
        bt = berwald_curvature(metric, sample)
    gy = (fundamental_tensor(metric, sample).g @ sample.y[..., None])[..., 0]
    return -0.5 * np.einsum("...mijk,...m->...ijk", bt.B, gy)


def _geodesic_stencil(metric, sample, fn, h, frame):
    """fn(x, v, U) on the geodesic states at t = +-h, +-2h and +-4h, keyed
    by t/h, at one point or, with a member axis, at a stack of m with steps
    h (m,) or shared: one call on the 6m states, x and v (6m, n) and U the
    frames (6m, k, n) transported there, from one two-way transport;
    ChartExitError when a geodesic leaves the chart before one of them.
    The centre, of weight 0 in a first derivative, is not read."""
    span = np.max(h)
    xs, vs, frames = transport_both_ways(metric, sample.x, sample.y,
                                         [span, 2 * span, 4 * span], frame, scale=h / span)
    lead = xs.shape[:-1]  # (2, 3) or (2, m, 3)
    vals = fn(xs.reshape(-1, metric.n), vs.reshape(-1, metric.n),
              frames.reshape((int(np.prod(lead)),) + frames.shape[-2:]))
    vals = np.moveaxis(vals.reshape(lead + vals.shape[1:]), len(lead) - 1, 1)
    return {sign * step: vals[d, j] for d, sign in enumerate((1, -1))
            for j, step in enumerate((1, 2, 4))}


def _stencil_pair(q, h, order=1):
    """Five-point derivatives of the given order at t = 0 from a geodesic
    stencil, at steps h and 2h; only the second derivative reads q[0]."""
    return tuple(five_point([q.get(k) for k in keys], step, order)[0]
                 for keys, step in (((-2, -1, 0, 1, 2), h), ((-4, -2, 0, 2, 4), 2 * h)))


def _frame_contract3(T, U):
    Ut = np.swapaxes(U, -1, -2)
    return np.einsum("...ijk,...ia,...jb,...kc->...abc", T, Ut, Ut, Ut)


def _transport_derivative(metric, sample, quantity, dt):
    """Derivative along the geodesic of quantity(state, U) on the
    parallel-transported coordinate frame U: the stencil pair at steps dt
    and 2 dt, Richardson-extrapolated, with dt widened where they disagree.
    A point is a one-member stack; a widening re-runs only the members that
    need it, as one sub-stack."""
    if sample.y.ndim == 1:
        return _transport_derivative(metric, TangentSample(sample.x[None], sample.y[None]),
                                     quantity, dt)[0]
    sample.validate(metric)
    d1, d2 = _stencil_pair(_geodesic_stencil(
        metric, sample, lambda x, v, U: quantity(TangentSample(x, v), U), dt,
        np.eye(metric.n)), dt)
    w1, w2, gap = (np.max(np.abs(a).reshape(len(a), -1), axis=1) for a in (d1, d2, d1 - d2))
    scale = np.maximum(w1, w2)  # per member
    # honest steps disagree at the 1e-9 level; roundoff-bound ones at >= 1e-4
    wide = (scale > 1e-9) & (gap > 1e-4 * scale) & (dt < 5e-3)
    out = richardson_doubling(d1, d2)
    if np.any(wide):
        warnings.warn("transport-route step looks roundoff dominated; widening dt")
        out[wide] = _transport_derivative(metric, TangentSample(sample.x[wide], sample.y[wide]),
                                          quantity, max(4 * dt, 5e-3))
    return out


def landsberg_by_transport(metric: MetricSpec, sample: TangentSample,
                           dt=1e-2) -> np.ndarray:
    """Definition route: differentiate the Cartan torsion along the geodesic
    with parallel-transported arguments; Richardson over step doubling."""
    return _transport_derivative(
        metric, sample, lambda sm, U: _frame_contract3(cartan_tensor(metric, sm), U), dt)


def landsberg_dot(metric: MetricSpec, sample: TangentSample) -> np.ndarray:
    """L-dot: derivative of the Landsberg curvature along the geodesic with
    parallel arguments, via the jet-exact identity route at stencil states,
    from step 1e-2."""
    return _transport_derivative(
        metric, sample,
        lambda sm, U: _frame_contract3(landsberg_from_berwald(metric, sm), U), 1e-2)


def mean_landsberg(metric: MetricSpec, sample: TangentSample) -> np.ndarray:
    """J_u = g^{ij} L(u, e_i, e_j), at one sample or a stack."""
    L = landsberg_from_berwald(metric, sample)
    ft = fundamental_tensor(metric, sample)
    return np.sum(ft.g_inv[..., None, :, :] * L, axis=(-2, -1))


def mean_landsberg_by_transport(metric: MetricSpec, sample: TangentSample,
                                dt=1e-2) -> np.ndarray:
    """Cross-route for J: derivative of the mean Cartan torsion along the
    geodesic on parallel arguments."""
    return _transport_derivative(metric, sample,
                                 lambda sm, U: (U @ mean_cartan(metric, sm)[..., None])[..., 0],
                                 dt)


# ---------------------------------------------------------------------------
# S-curvature
# ---------------------------------------------------------------------------


class SData:
    """S and S-dot at one sample, or arrays (m,) of them at a stack of m.
    S_dot may be given as a zero-argument callable; it then runs on first
    access, so readers of S alone skip the geodesics it integrates."""

    def __init__(self, S, S_dot):
        self.S = S
        self._S_dot = S_dot

    @cached_property
    def S_dot(self) -> float | np.ndarray:
        return self._S_dot() if callable(self._S_dot) else self._S_dot


def _log_density_gradient(sigma, x):
    """The gradient of log sigma at one point (n,), giving (n,), or at a
    stack (m, n), giving (n, m): each difference takes the whole stack."""
    x = np.asarray(x, dtype=float)
    return np.array([richardson_central(lambda hh: np.log(sigma(x + hh * e)), 1e-4)
                     for e in np.eye(x.shape[-1])])


def s_jet_workspace(metric: MetricSpec, sample: TangentSample, sigma):
    """S(y) as a fiber jet (valid to order 2) and the mean Berwald form E.

    Both come from one order-(1,5) spray workspace: E is half the fiber
    Hessian of the spray divergence, and S is the rate of the distortion
    tau = 1/2 log det g - log sigma along the geodesic flow,
    y^i dtau/dx^i - 2 G^i dtau/dy^i, with det g as a jet by the Leibniz sum
    and the density gradient differenced.  A stack of m samples gives jets
    of m members, with one density difference for the whole stack.
    """
    n = metric.n
    ws = spray_jets(metric, sample.x, sample.y, 1, 5)

    trN = sum((ws.G[m].dy(m) for m in range(1, n)), ws.G[0].dy(0))
    E = 0.5 * derivative_tensor(trN, 0, 2)

    g = [[0.5 * ws.f2.dy(i).dy(j) for j in range(n)] for i in range(n)]
    det = 0.0
    for perm in itertools.permutations(range(n)):
        term = g[0][perm[0]]
        for i in range(1, n):
            term = term * g[i][perm[i]]
        odd = sum(p > q for a, p in enumerate(perm) for q in perm[a + 1:]) % 2
        det = det - term if odd else det + term
    half_log_det = 0.5 * det.log()

    dlog_sigma = _log_density_gradient(sigma, sample.x)
    S_jet = None
    for i in range(n):
        term = (ws.ys[i] * (half_log_det.dx(i) - dlog_sigma[i])
                - 2.0 * ws.G[i] * half_log_det.dy(i))
        S_jet = term if S_jet is None else S_jet + term
    return S_jet, E


def s_curvature(metric: MetricSpec, sample: TangentSample, method="geodesic") -> SData:
    """S and S-dot at the sample, for the Busemann-Hausdorff density.

    method "geodesic" differences the distortion along the integrated
    geodesic (the definition); method "analytic" reads S off the jet
    workspace and differences only for S-dot, which it computes on first
    access.  Both step 1e-2 in metric length, 1e-2 / F(x, y) in the geodesic's
    parameter, so that the stencil keeps its reach near a Funk rim.

    Both methods take a stack of samples too, with one two-way transport
    for the stencils of all members, each at its own step.
    """
    sample.validate(metric)
    sigma = density_field(metric)
    no_frame = np.empty((0, metric.n))
    if method == "analytic":
        def s_at(x, v, U=None):
            return s_jet_workspace(metric, TangentSample(x, v), sigma)[0].value

        def s_dot():
            h = 1e-2 / sample.F(metric)
            q = _geodesic_stencil(metric, sample, s_at, h, no_frame)
            return per_point(richardson_doubling(*_stencil_pair(q, h)), sample.y)

        return SData(S=s_at(sample.x, sample.y), S_dot=s_dot)
    if method != "geodesic":
        raise PreconditionError(f"unknown S-curvature method {method!r}")
    h = 1e-2 / sample.F(metric)

    def tau_at(x, v, U):
        ft = fundamental_tensor(metric, TangentSample(x, v))
        return 0.5 * np.log(ft.det_g) - np.log(sigma(x))

    q = _geodesic_stencil(metric, sample, tau_at, h, no_frame)
    q[0] = tau_at(sample.x, sample.y, no_frame)
    return SData(*(per_point(richardson_doubling(*_stencil_pair(q, h, order)), sample.y)
                   for order in (1, 2)))


# ---------------------------------------------------------------------------
# Riemann curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    """R_y in coordinates with its spectral data on the transverse subspace.
    A stack of m samples gives every field with a leading member axis, and
    flag_constant NaN where a member has none."""

    R: np.ndarray
    principal: np.ndarray  # eigenvalues of R_y|_W divided by F^2, ascending
    ricci: float | np.ndarray
    flag_constant: float | np.ndarray | None
    F: float | np.ndarray
    Ry_y_norm: float | np.ndarray  # |R_y(y)| relative to F^2 |y|
    self_adjoint_defect: float | np.ndarray


def _spray_riemann(ws, y):
    """R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
    - N^i_j N^j_k from an order-(2, 4) spray workspace at y, with the values
    G, N = dG/dy, d2G/dxdy and d2G/dydy it is made of; a workspace at a
    stack y (m, n) gives each with a leading member axis."""
    G, dGdx, N, d2Gxy, d2Gyy = (derivative_tensor(ws.G, ox, oy)
                                for ox, oy in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)))
    R = (2.0 * dGdx
         - np.einsum("...j,...ijk->...ik", y, d2Gxy)
         + 2.0 * np.einsum("...j,...ijk->...ik", G, d2Gyy)
         - N @ N)
    return R, G, N, d2Gxy, d2Gyy


def riemann_curvature(metric: MetricSpec, sample: TangentSample) -> CurvatureReport:
    """R_y from the spray (see _spray_riemann), then the eigenproblem of R
    restricted to the g_y-orthogonal complement of y, normalized by F^2.

    A stack of samples takes one spray workspace, one fundamental tensor,
    one tangent basis and one stacked eigenproblem; each member has the
    bits of its own single-point call.
    """
    sample.validate(metric)
    y = sample.y
    R = _spray_riemann(spray_jets(metric, sample.x, y, 2, 4), y)[0]
    ft = fundamental_tensor(metric, sample)
    F2 = ft.F ** 2

    def norm(v):
        return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]

    Ry_y_norm = norm((R @ y[..., :, None])[..., 0]) / (F2 * norm(y))
    gR = ft.g @ R
    self_adj = (np.max(np.abs(gR - np.swapaxes(gR, -1, -2)), axis=(-2, -1))
                / np.maximum(np.max(np.abs(gR), axis=(-2, -1)), F2))

    basis = tangent_basis(ft, y)
    M = basis @ ft.g @ R @ np.swapaxes(basis, -1, -2)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    principal = np.sort(np.linalg.eigvalsh(M), axis=-1) / np.expand_dims(F2, -1)
    mean = np.mean(principal, axis=-1)
    spread = principal[..., -1] - principal[..., 0]
    flag = per_point(np.where(spread <= 1e-3 * np.maximum(1.0, np.abs(mean)), mean, np.nan), y)
    return CurvatureReport(R=R, principal=principal,
                           ricci=per_point(np.trace(R, axis1=-2, axis2=-1), y),
                           flag_constant=None if y.ndim == 1 and np.isnan(flag) else flag,
                           F=ft.F, Ry_y_norm=per_point(Ry_y_norm, y),
                           self_adjoint_defect=per_point(self_adj, y))


# ---------------------------------------------------------------------------
# Jacobi-equation oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiReport:
    max_residual: float
    first_zero: float | None
    t_grid: np.ndarray
    J_norms: np.ndarray


def jacobi_oracle(metric: MetricSpec, x, y, v, t_end) -> JacobiReport:
    """Check D_cdot D_cdot J + R_cdot(J) = 0 on a central-difference variation.

    J comes from the geodesic variation exp_x(t (y + s v)), differenced in
    the variation parameter; its time derivatives come from five-point
    stencils, while the connection and curvature terms are jet-exact.
    Expanding the covariant derivatives gives the residual

        Jdd + Ndot J + 2 N Jdot + N (N J) + R J,

    reported in the g_cdot norm so the measure is chart-independent.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = 3e-5 * float(np.linalg.norm(y)) / max(np.linalg.norm(v), 1e-300)
    # the varied geodesics and the central one: one 3-member stack
    paths = integrate_geodesic(metric, x, [y + scale * v, y - scale * v, y], t_end,
                               rtol=1e-12, atol=1e-12)
    t1 = min(float(np.min(paths.t_end)), t_end)
    ts = np.linspace(0.0, t1, 161)
    h = ts[1] - ts[0]

    xs, vs = paths.state(ts)
    J = (xs[0] - xs[1]) / (2 * scale)
    x0s, v0s = xs[2], vs[2]
    Jd, Jdd = (five_point(J, h, order) for order in (1, 2))

    def apply(A, b):
        return (A @ b[..., None])[..., 0]

    # one workspace stack over the grid; the stencils cover its interior
    ws = spray_jets(metric, x0s, v0s, 2, 4)
    gs = 0.5 * derivative_tensor(ws.f2, 0, 2)
    R, G, N, d2Gxy, d2Gyy = (a[2:-2] for a in _spray_riemann(ws, v0s))
    Ndot = (np.einsum("...ikj,...k->...ij", d2Gxy, v0s[2:-2])
            - 2.0 * np.einsum("...ijk,...k->...ij", d2Gyy, G))
    Jk = J[2:-2]
    res = Jdd + apply(Ndot, Jk) + 2.0 * apply(N, Jd) + apply(N, apply(N, Jk)) + apply(R, Jk)
    worst = float(np.max(np.sqrt(np.einsum("...i,...ij,...j->...", res, gs[2:-2], res))))

    # first refocusing point: the g-norm of J returns to zero
    norms = np.sqrt(np.maximum(np.einsum("...i,...ij,...j->...", J, gs, J), 0.0))
    first_zero = None
    peak = float(np.max(norms))
    ref = int(np.argmax(norms))
    for k in range(ref + 1, len(ts) - 1):
        if norms[k] < norms[k - 1] and norms[k] < norms[k + 1] and norms[k] < 0.05 * peak:
            from scipy.optimize import minimize_scalar

            def q(t):
                a = paths.state(t)[0]
                Jt = (a[0] - a[1]) / (2 * scale)
                return float(Jt @ Jt)

            res = minimize_scalar(q, bracket=(ts[k - 1], ts[k], ts[k + 1]),
                                  options={"xtol": 1e-10})
            first_zero = float(res.x)
            break
    return JacobiReport(max_residual=worst, first_zero=first_zero,
                        t_grid=ts, J_norms=norms)


# ---------------------------------------------------------------------------
# Constant-curvature ODE checks
# ---------------------------------------------------------------------------


def _cc_basis(kappa, ts):
    s = np.sqrt(abs(kappa))
    if kappa < 0:
        return np.column_stack([np.sinh(s * ts), np.cosh(s * ts)])
    if kappa > 0:
        return np.column_stack([np.sin(s * ts), np.cos(s * ts)])
    return np.column_stack([ts, np.ones_like(ts)])


def _cc_basis4(kappa, ts):
    s = np.sqrt(abs(kappa))
    if kappa < 0:
        return np.column_stack([np.sinh(2 * s * ts), np.cosh(2 * s * ts), np.ones_like(ts)])
    if kappa > 0:
        return np.column_stack([np.sin(2 * s * ts), np.cos(2 * s * ts), np.ones_like(ts)])
    return np.column_stack([ts ** 2, ts, np.ones_like(ts)])


@dataclass(frozen=True)
class CurvatureOdeFit:
    kappa: float
    t_grid: np.ndarray
    C_values: np.ndarray
    fit_coeffs: np.ndarray
    prediction_error: float
    scale: float
    L_matches_Cprime: float
    Ctilde_values: np.ndarray | None
    Ctilde_prediction_error: float | None


def constant_curvature_ode_check(metric: MetricSpec, x, y, kappa,
                                 t_grid) -> CurvatureOdeFit | list:
    """Sample C(t) = C(V,V,V) on parallel V along a unit-speed geodesic, fit
    the kappa-appropriate closed form on the first third of the grid, and
    report the held-out prediction error (plus the L = C' identity and the
    four-argument analog).  Stacks x and y (m, n) are one transport, each
    member fit on the grid before its own chart exit: a list of m fits."""
    ts = np.asarray(t_grid, dtype=float)
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise PreconditionError("t grid must start at 0 and increase")
    sample = TangentSample(x, y)
    unit = TangentSample(np.atleast_2d(sample.x), sample.y / np.reshape(sample.F(metric), (-1, 1)))
    ft = fundamental_tensor(metric, unit)
    # in dimension two the only transverse direction serves as both arguments
    k = 2 if metric.n >= 3 else 1
    frame = tangent_basis(ft, unit.y)[:, :k]
    tr = parallel_transport(metric, unit.x, unit.y, float(ts[-1]), frame, t_eval=ts)
    reached = ~np.isnan(tr.path.x[..., 0])
    if np.min(np.sum(reached, axis=1)) < min(6, len(ts)):
        raise GeometryError("geodesic left the chart too early for the fit")

    sm = TangentSample(tr.path.x[reached], tr.path.v[reached])
    V, W = tr.frames[reached][:, 0], tr.frames[reached][:, -1]
    vals = np.full((3,) + reached.shape, np.nan)
    vals[:, reached] = (
        np.einsum("...ijk,...i,...j,...k->...", cartan_tensor(metric, sm), V, V, V),
        np.einsum("...ijk,...i,...j,...k->...", landsberg_from_berwald(metric, sm), V, V, V),
        np.einsum("...ijkl,...i,...j,...k,...l->...", cartan_tilde(metric, sm), V, V, V, W))
    fits = [_closed_form_fit(kappa, ts[:K], *vals[:, j, :K])
            for j, K in enumerate(np.sum(reached, axis=1))]
    return fits[0] if sample.y.ndim == 1 else fits


def _closed_form_fit(kappa, ts, C_vals, L_vals, Ct_vals):
    """The CurvatureOdeFit of one geodesic from C, L and C-tilde on its grid."""
    m = max(3, len(ts) // 3)
    A = _cc_basis(kappa, ts)
    coeffs, *_ = np.linalg.lstsq(A[:m], C_vals[:m], rcond=None)
    pred = A @ coeffs
    err = float(np.max(np.abs(pred[m:] - C_vals[m:]))) if m < len(ts) else 0.0
    scale = float(np.max(np.abs(C_vals)))

    # L(t) = C'(t), five-point interior stencil on the uniform grid
    lprime = 0.0
    if np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9) and len(ts) >= 5:
        dC = five_point(C_vals, ts[1] - ts[0])
        lprime = float(np.max(np.abs(L_vals[2:-2] - dC)))

    A4 = _cc_basis4(kappa, ts)
    c4, *_ = np.linalg.lstsq(A4[:max(4, m)], Ct_vals[:max(4, m)], rcond=None)
    pred4 = A4 @ c4
    err4 = float(np.max(np.abs(pred4[max(4, m):] - Ct_vals[max(4, m):]))) \
        if max(4, m) < len(ts) else 0.0

    return CurvatureOdeFit(kappa=kappa, t_grid=ts, C_values=C_vals,
                           fit_coeffs=coeffs, prediction_error=err, scale=scale,
                           L_matches_Cprime=lprime, Ctilde_values=Ct_vals,
                           Ctilde_prediction_error=err4)


def dot_lc_residual(metric: MetricSpec, sample: TangentSample, kappa) -> float | np.ndarray:
    """max |L-dot + kappa F^2 C| over tensor components, per member of a stack."""
    Ld = landsberg_dot(metric, sample)
    C = cartan_tensor(metric, sample)
    F = np.asarray(sample.F(metric))[..., None, None, None]
    return per_point(np.max(np.abs(Ld + kappa * F * F * C), axis=(-3, -2, -1)), sample.y)


def projective_ode_check(metric_F: MetricSpec, metric_G: MetricSpec,
                         kappa, kappa_tilde, x, y, t_grid) -> float:
    """Residual of phi'' + kappa phi = kappa_tilde / phi^3 along a unit-speed
    geodesic of the first metric, with phi = 1/sqrt(G(cdot)).

    The metrics must share their unparametrized geodesics (as Funk/Hilbert on
    one domain do); phi'' comes from five-point second differences.
    """
    ts = np.asarray(t_grid, dtype=float)
    if len(ts) < 9 or np.any(np.diff(ts) <= 0):
        raise PreconditionError("need an increasing grid with at least 9 points")
    if not np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9):
        raise PreconditionError("projective check needs a uniform grid")
    path = integrate_geodesic(metric_F, x, y, float(ts[-1]), t_eval=ts, unit_speed=True)
    if path.exited:
        raise GeometryError("geodesic left the chart inside the requested grid")
    Gv = metric_G.F_batch(path.x, path.v)
    if np.min(Gv) < 1e-8:
        raise GeometryError("second metric degenerates along the geodesic")
    phi = 1.0 / np.sqrt(Gv)
    phidd = five_point(phi, ts[1] - ts[0], 2)
    # scalar powers: numpy's vectorised power can round differently
    return float(max(abs(d + kappa * p - kappa_tilde / p ** 3)
                     for d, p in zip(phidd, phi[2:-2])))


def cartan_norm_along(metric: MetricSpec, x, y, ts):
    """Frobenius-type g-norm of the Cartan torsion along a unit-speed geodesic."""
    ts = np.asarray(ts, dtype=float)
    path = integrate_geodesic(metric, x, y, float(ts[-1]), t_eval=ts, unit_speed=True)
    return path.t, cartan_norm(metric, TangentSample(path.x, path.v))
