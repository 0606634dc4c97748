"""Curvature quantities: Berwald, Landsberg, S-curvature, Riemann curvature
with principal curvatures, and the constant-curvature / projective ODE checks.

All tensors come out of jets of the spray coefficients, so they are exact to
truncation at the sample.  Quantities defined as rates of change along
geodesics (Landsberg via transport, L-dot, S) use five-point central
differences over parallel-transported frames, Richardson-extrapolated once.
"""

from __future__ import annotations

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
        return float(np.sqrt(np.sum(self.B ** 2)))


def berwald_curvature(metric: MetricSpec, sample: TangentSample) -> BerwaldTensor:
    sample.validate(metric)
    B = derivative_tensor(spray_jets(metric, sample.x, sample.y, 1, 5).G, 0, 3)
    E = 0.5 * np.einsum("kijk->ij", B)
    return BerwaldTensor(B=B, E=E)


# ---------------------------------------------------------------------------
# Landsberg curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandsbergTensor:
    L: np.ndarray
    L_dot: np.ndarray | None = None
    L_tilde: np.ndarray | None = None
    J: np.ndarray | None = None

    def norm(self):
        return float(np.sqrt(np.sum(self.L ** 2)))


def landsberg_from_berwald(metric: MetricSpec, sample: TangentSample,
                           bt: BerwaldTensor | None = None) -> np.ndarray:
    """Identity route: L(u,v,w) = -1/2 g(B(u,v,w), y)."""
    if bt is None:
        bt = berwald_curvature(metric, sample)
    ft = fundamental_tensor(metric, sample)
    gy = ft.g @ sample.y
    return -0.5 * np.einsum("mijk,m->ijk", bt.B, gy)


def _transport_stencil(metric, sample, h):
    """States and transported coordinate frames at t = 0, +-h, +-2h and
    +-4h, keyed by t/h, from one two-way transport; ChartExitError when the
    geodesic leaves the chart before one of them."""
    xs, vs, frames = transport_both_ways(metric, sample.x, sample.y, [h, 2 * h, 4 * h],
                                         np.eye(metric.n))
    states = {0: (sample.x, sample.y, np.eye(metric.n))}
    for member, sign in enumerate((1, -1)):
        for k, step in enumerate((1, 2, 4)):
            states[sign * step] = (xs[member, k], vs[member, k], frames[member, k])
    return states


def _frame_contract3(T, U):
    return np.einsum("ijk,ia,jb,kc->abc", T, U.T, U.T, U.T)


def _transport_derivative(metric, sample, quantity, dt):
    """Derivative along the geodesic of quantity(state, U) on the
    parallel-transported coordinate frame U: five-point stencils at steps dt
    and 2 dt, which share the states at 0 and +-2 dt, Richardson-
    extrapolated, with dt widened when they disagree."""
    sample.validate(metric)
    q = {k: quantity(TangentSample(x, v), U)
         for k, (x, v, U) in _transport_stencil(metric, sample, dt).items()}
    d1 = five_point([q[k] for k in (-2, -1, 0, 1, 2)], dt)[0]
    d2 = five_point([q[k] for k in (-4, -2, 0, 2, 4)], 2 * dt)[0]
    scale = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
    # honest steps disagree at the 1e-9 level; roundoff-bound ones at >= 1e-4
    if scale > 1e-9 and np.max(np.abs(d1 - d2)) > 1e-4 * scale and dt < 5e-3:
        warnings.warn("transport-route step looks roundoff dominated; widening dt")
        return _transport_derivative(metric, sample, quantity, max(4 * dt, 5e-3))
    return richardson_doubling(d1, d2)


def landsberg_by_transport(metric: MetricSpec, sample: TangentSample,
                           dt=1e-2) -> np.ndarray:
    """Definition route: differentiate the Cartan torsion along the geodesic
    with parallel-transported arguments; Richardson over step doubling."""
    return _transport_derivative(
        metric, sample, lambda sm, U: _frame_contract3(cartan_tensor(metric, sm), U), dt)


def landsberg_dot(metric: MetricSpec, sample: TangentSample, dt=1e-2) -> np.ndarray:
    """L-dot: derivative of the Landsberg curvature along the geodesic with
    parallel arguments, via the jet-exact identity route at stencil states."""
    return _transport_derivative(
        metric, sample,
        lambda sm, U: _frame_contract3(landsberg_from_berwald(metric, sm), U), dt)


def landsberg_tilde(metric: MetricSpec, sample: TangentSample, h_rel=1e-3) -> np.ndarray:
    """L-tilde: fiber derivative of L, by Richardson central differences of the
    jet-exact L in each coordinate direction."""
    sample.validate(metric)
    n = metric.n
    scale = float(np.linalg.norm(sample.y))
    out = np.empty((n, n, n, n))
    for z, ez in enumerate(np.eye(n)):
        out[..., z] = richardson_central(
            lambda h: landsberg_from_berwald(metric, TangentSample(sample.x, sample.y + h * ez)),
            h_rel * scale)
    return out


def mean_landsberg(metric: MetricSpec, sample: TangentSample,
                   L: np.ndarray | None = None) -> np.ndarray:
    """J_u = g^{ij} L(u, e_i, e_j)."""
    if L is None:
        L = landsberg_from_berwald(metric, sample)
    ft = fundamental_tensor(metric, sample)
    return np.einsum("ij,kij->k", ft.g_inv, L)


def mean_landsberg_by_transport(metric: MetricSpec, sample: TangentSample,
                                dt=1e-2) -> np.ndarray:
    """Cross-route for J: derivative of the mean Cartan torsion along the
    geodesic on parallel arguments."""
    return _transport_derivative(metric, sample,
                                 lambda sm, U: U @ mean_cartan(metric, sm), dt)


def landsberg_data(metric: MetricSpec, sample: TangentSample, dt=1e-2) -> LandsbergTensor:
    L = landsberg_from_berwald(metric, sample)
    return LandsbergTensor(
        L=L,
        L_dot=landsberg_dot(metric, sample, dt=dt),
        L_tilde=landsberg_tilde(metric, sample),
        J=mean_landsberg(metric, sample, L=L),
    )


# ---------------------------------------------------------------------------
# S-curvature
# ---------------------------------------------------------------------------


class SData:
    """S and S-dot at one sample.  S_dot may be given as a zero-argument
    callable; it then runs on first access, so readers of S alone skip the
    geodesics it integrates."""

    def __init__(self, S, S_dot):
        self.S = S
        self._S_dot = S_dot

    @cached_property
    def S_dot(self) -> float:
        return self._S_dot() if callable(self._S_dot) else self._S_dot


def _log_density_gradient(sigma, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    return np.array([richardson_central(lambda hh: np.log(sigma(x + hh * e)), h)
                     for e in np.eye(len(x))])


def s_jet_workspace(metric: MetricSpec, sample: TangentSample, sigma):
    """S(y) as a fiber jet (valid to order 2) and the mean Berwald form E.

    Both come from one order-(1,5) spray workspace: E is half the fiber
    Hessian of the spray divergence, and S is assembled from
    y^i d tau/dx^i - 2 G^i I_i with the density gradient differenced.
    """
    n = metric.n
    ws = spray_jets(metric, sample.x, sample.y, 1, 5)

    trN = None
    for m in range(n):
        term = ws.G[m].dy(m)
        trN = term if trN is None else trN + term
    E = 0.5 * derivative_tensor(trN, 0, 2)

    # mean Cartan as jets: I_i = g^{jk} C_jki with C = f2.dy3 / 4
    C_j = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        di = ws.f2.dy(i)
        for j in range(i, n):
            dij = di.dy(j)
            for k in range(j, n):
                val = 0.25 * dij.dy(k)
                for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    C_j[perm[0]][perm[1]][perm[2]] = val
    I_j = []
    for i in range(n):
        acc = None
        for j in range(n):
            for k in range(n):
                term = ws.ginv[j][k] * C_j[j][k][i]
                acc = term if acc is None else acc + term
        I_j.append(acc)

    dlog_sigma = _log_density_gradient(sigma, sample.x)
    S_jet = None
    for i in range(n):
        tr = None
        for a in range(n):
            for b_ in range(n):
                term = ws.ginv[a][b_] * ws.dgdx[i][b_][a]
                tr = term if tr is None else tr + term
        term = ws.ys[i] * (0.5 * tr - dlog_sigma[i])
        S_jet = term if S_jet is None else S_jet + term
    for i in range(n):
        S_jet = S_jet - 2.0 * ws.G[i] * I_j[i]
    return S_jet, E, ws


def s_curvature(metric: MetricSpec, sample: TangentSample, density=None,
                method="geodesic", h=1e-2) -> SData:
    """S and S-dot at the sample, for the given density field (default BH).

    method "geodesic" differences the distortion along the integrated
    geodesic (the definition); method "analytic" reads S off the jet
    workspace and differences only for S-dot, which it computes on first
    access.
    """
    sample.validate(metric)
    sigma = density if density is not None else density_field(metric)
    if method == "analytic":
        def s_at(x, v):
            return s_jet_workspace(metric, TangentSample(x, v), sigma)[0].value

        def s_dot():
            sd1, sd2 = (float(five_point(_along_geodesic(metric, sample, s_at, hh), hh)[0])
                        for hh in (h, 2 * h))
            return richardson_doubling(sd1, sd2)

        return SData(S=float(s_at(sample.x, sample.y)), S_dot=s_dot)
    if method != "geodesic":
        raise PreconditionError(f"unknown S-curvature method {method!r}")

    def tau_at(x, v):
        ft = fundamental_tensor(metric, TangentSample(x, v))
        return 0.5 * np.log(ft.det_g) - np.log(sigma(x))

    def estimates(hh):
        vals = _along_geodesic(metric, sample, tau_at, hh)
        return np.array([five_point(vals, hh, order)[0] for order in (1, 2)])

    S, S_dot = richardson_doubling(estimates(h), estimates(2 * h))
    return SData(S=float(S), S_dot=float(S_dot))


def _along_geodesic(metric, sample, fn, h):
    """fn evaluated on the geodesic states at t = -2h, -h, 0, h, 2h;
    ChartExitError when the geodesic leaves the chart before one of them."""
    out = [None] * 5
    out[2] = fn(sample.x, sample.y)
    for sign, idxs in ((1.0, (3, 4)), (-1.0, (1, 0))):
        path = integrate_geodesic(metric, sample.x, sample.y, sign * 2 * h,
                                  t_eval=[0.0, sign * h, sign * 2 * h]).require_reach()
        for slot, k in zip(idxs, (1, 2)):
            out[slot] = fn(path.x[k], path.v[k])
    return out


def es_residual(metric: MetricSpec, sample: TangentSample, density=None) -> float:
    """max |fiber Hessian of S - 2 E|: the mean Berwald identity."""
    sigma = density if density is not None else density_field(metric)
    S_jet, E, _ = s_jet_workspace(metric, sample, sigma)
    return float(np.max(np.abs(derivative_tensor(S_jet, 0, 2) - 2.0 * E)))


# ---------------------------------------------------------------------------
# Riemann curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    """R_y in coordinates with its spectral data on the transverse subspace."""

    R: np.ndarray
    principal: np.ndarray  # eigenvalues of R_y|_W divided by F^2, ascending
    ricci: float
    flag_constant: float | None
    F: float
    Ry_y_norm: float      # |R_y(y)| relative to F^2 |y|
    self_adjoint_defect: float


def _spray_riemann(ws, y):
    """R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
    - N^i_j N^j_k from an order-(2, 4) spray workspace at y, with the values
    G, N = dG/dy, d2G/dxdy and d2G/dydy it is made of."""
    G, dGdx, N, d2Gxy, d2Gyy = (derivative_tensor(ws.G, ox, oy)
                                for ox, oy in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2)))
    R = (2.0 * dGdx
         - np.einsum("j,ijk->ik", y, d2Gxy)
         + 2.0 * np.einsum("j,ijk->ik", G, d2Gyy)
         - N @ N)
    return R, G, N, d2Gxy, d2Gyy


def riemann_curvature(metric: MetricSpec, sample: TangentSample) -> CurvatureReport:
    """R_y from the spray (see _spray_riemann), then the eigenproblem of R
    restricted to the g_y-orthogonal complement of y, normalized by F^2."""
    sample.validate(metric)
    y = sample.y
    R = _spray_riemann(spray_jets(metric, sample.x, y, 2, 4), y)[0]

    ft = fundamental_tensor(metric, sample)
    F2 = ft.F ** 2
    ynorm = float(np.linalg.norm(y))
    Ry_y = R @ y
    Ry_y_norm = float(np.linalg.norm(Ry_y) / (F2 * ynorm))
    gR = ft.g @ R
    self_adj = float(np.max(np.abs(gR - gR.T)) / max(np.max(np.abs(gR)), F2))

    basis = tangent_basis(ft, y)
    Q = np.column_stack(basis)
    M = Q.T @ ft.g @ R @ Q
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    principal = np.sort(eigs) / F2
    ricci = float(np.trace(R))
    mean = float(np.mean(principal))
    spread = float(principal[-1] - principal[0])
    flag = mean if spread <= 1e-3 * max(1.0, abs(mean)) else None
    return CurvatureReport(R=R, principal=principal, ricci=ricci,
                           flag_constant=flag, F=ft.F,
                           Ry_y_norm=Ry_y_norm, self_adjoint_defect=self_adj)


# ---------------------------------------------------------------------------
# Jacobi-equation oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiReport:
    max_residual: float
    first_zero: float | None
    t_grid: np.ndarray
    J_norms: np.ndarray


def jacobi_oracle(metric: MetricSpec, x, y, v, t_end, s=3e-5, n_grid=161) -> JacobiReport:
    """Check D_cdot D_cdot J + R_cdot(J) = 0 on a central-difference variation.

    J comes from the geodesic variation exp_x(t (y + s v)), differenced in
    the variation parameter; its time derivatives come from five-point
    stencils, while the connection and curvature terms are jet-exact.
    Expanding the covariant derivatives gives the residual

        Jdd + Ndot J + 2 N Jdot + N (N J) + R J,

    reported in the g_cdot norm so the measure is chart-independent.
    """
    n = metric.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = s * float(np.linalg.norm(y)) / max(np.linalg.norm(v), 1e-300)
    p_plus = integrate_geodesic(metric, x, y + scale * v, t_end, rtol=1e-12, atol=1e-12)
    p_minus = integrate_geodesic(metric, x, y - scale * v, t_end, rtol=1e-12, atol=1e-12)
    p0 = integrate_geodesic(metric, x, y, t_end, rtol=1e-12, atol=1e-12)
    t1 = min(p_plus.t_end, p_minus.t_end, p0.t_end, t_end)
    ts = np.linspace(0.0, t1, n_grid)
    h = ts[1] - ts[0]

    xp, _ = p_plus.state(ts)
    xm, _ = p_minus.state(ts)
    J = (xp - xm) / (2 * scale)
    x0s, v0s = p0.state(ts)
    Jd, Jdd = (five_point(J, h, order) for order in (1, 2))

    worst = 0.0
    gs = []
    for k in range(len(ts)):
        ws = spray_jets(metric, x0s[k], v0s[k], 2, 4)
        gs.append(np.array([[ws.g[i][j].value for j in range(n)] for i in range(n)]))
        if k < 2 or k > len(ts) - 3:
            continue
        R, G, N, d2Gxy, d2Gyy = _spray_riemann(ws, v0s[k])
        Ndot = (np.einsum("ikj,k->ij", d2Gxy, v0s[k])
                - 2.0 * np.einsum("ijk,k->ij", d2Gyy, G))
        res = Jdd[k - 2] + Ndot @ J[k] + 2.0 * (N @ Jd[k - 2]) + N @ (N @ J[k]) + R @ J[k]
        worst = max(worst, float(np.sqrt(res @ gs[k] @ res)))

    # first refocusing point: the g-norm of J returns to zero
    norms = np.array([np.sqrt(max(J[k] @ gs[k] @ J[k], 0.0)) for k in range(len(ts))])
    first_zero = None
    peak = float(np.max(norms))
    ref = int(np.argmax(norms))
    for k in range(ref + 1, len(ts) - 1):
        if norms[k] < norms[k - 1] and norms[k] < norms[k + 1] and norms[k] < 0.05 * peak:
            from scipy.optimize import minimize_scalar

            def q(t):
                a, _ = p_plus.state(t)
                b, _ = p_minus.state(t)
                Jt = (a - b) / (2 * scale)
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
                                 t_grid) -> CurvatureOdeFit:
    """Sample C(t) = C(V,V,V) on parallel V along a unit-speed geodesic, fit
    the kappa-appropriate closed form on the first third of the grid, and
    report the held-out prediction error (plus the L = C' identity and the
    four-argument analog)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ts = np.asarray(t_grid, dtype=float)
    if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
        raise PreconditionError("t grid must start at 0 and increase")
    F0 = metric.F(x, y)
    y = y / F0
    ft = fundamental_tensor(metric, TangentSample(x, y))
    basis = tangent_basis(ft, y)
    # in dimension two the only transverse direction serves as both arguments
    frame = np.vstack(basis[:2]) if metric.n >= 3 else np.vstack(basis[:1])
    tr = parallel_transport(metric, x, y, float(ts[-1]), frame, t_eval=ts)
    if len(tr.ts) < len(ts):
        if len(tr.ts) < 6:
            raise GeometryError("geodesic left the chart too early for the fit")
        ts = np.asarray(tr.ts, dtype=float)

    C_vals = np.empty(len(ts))
    L_vals = np.empty(len(ts))
    Ct_vals = np.empty(len(ts))
    for k in range(len(ts)):
        sm = TangentSample(tr.path.x[k], tr.path.v[k])
        Vk = tr.frames[k][0]
        Wk = tr.frames[k][1] if metric.n >= 3 else tr.frames[k][0]
        C = cartan_tensor(metric, sm)
        C_vals[k] = np.einsum("ijk,i,j,k->", C, Vk, Vk, Vk)
        L = landsberg_from_berwald(metric, sm)
        L_vals[k] = np.einsum("ijk,i,j,k->", L, Vk, Vk, Vk)
        Ct = cartan_tilde(metric, sm)
        Ct_vals[k] = np.einsum("ijkl,i,j,k,l->", Ct, Vk, Vk, Vk, Wk)

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


def dot_lc_residual(metric: MetricSpec, sample: TangentSample, kappa,
                    dt=1e-2) -> float:
    """max |L-dot + kappa F^2 C| over tensor components at the sample."""
    Ld = landsberg_dot(metric, sample, dt=dt)
    C = cartan_tensor(metric, sample)
    F = metric.F(sample.x, sample.y)
    return float(np.max(np.abs(Ld + kappa * F * F * C)))


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y = y / metric_F.F(x, y)
    path = integrate_geodesic(metric_F, x, y, float(ts[-1]), t_eval=ts)
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y = y / metric.F(x, y)
    ts = np.asarray(ts, dtype=float)
    path = integrate_geodesic(metric, x, y, float(ts[-1]), t_eval=ts)
    out = np.empty(len(path.t))
    for k in range(len(path.t)):
        out[k] = cartan_norm(metric, TangentSample(path.x[k], path.v[k]))
    return path.t, out
