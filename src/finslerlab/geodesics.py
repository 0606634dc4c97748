"""Geodesic coefficients, the initial-value integrator, exponential map,
covariant derivative and parallel transport."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ChartExitError, GeometryError, PreconditionError
from .jets import Jet, JetSpec, derivative_tensor, lift
from .metrics import MetricSpec
from .minkowski import TangentSample, fundamental_tensor

# ---------------------------------------------------------------------------
# Spray coefficients
# ---------------------------------------------------------------------------


def _jet_matrix_inverse(g, n):
    """Inverse of a jet-valued matrix by Newton iteration in the algebra."""
    g0 = np.array([[g[i][j].value for j in range(n)] for i in range(n)])
    inv0 = np.linalg.inv(g0)
    X = [[g[0][0]._const_like(inv0[i][j]) for j in range(n)] for i in range(n)]
    total = g[0][0].vx + g[0][0].vy
    iters = max(1, math.ceil(math.log2(total + 1))) if total > 0 else 1

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for _ in range(iters):
        GX = matmul(g, X)
        M = [[(2.0 if i == j else 0.0) - GX[i][j] for j in range(n)] for i in range(n)]
        X = matmul(X, M)
    return X


@dataclass
class SprayWorkspace:
    """Jets of the spray and fundamental tensor at one tangent point."""

    G: list
    g: list
    ginv: list
    dgdx: list  # [k][i][j] = d g_ij / d x^k
    ys: list
    F_jet: Jet
    f2: Jet


def spray_jets(metric: MetricSpec, x, y, mx, my) -> SprayWorkspace:
    """The geodesic coefficients as jets, valid to orders (mx-1, my-2).

    Evaluates g^{il} { 2 dg_jl/dx^k - dg_jk/dx^l } y^j y^k / 4 entirely in
    the truncated algebra, so every stored derivative of G is exact.
    """
    n = metric.n
    fj = metric.jet(x, y, mx, my)
    f2 = fj * fj
    spec = JetSpec(n, mx, my)
    _, ys = lift(np.asarray(x, dtype=float), np.asarray(y, dtype=float), spec)
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        gi = f2.dy(i)
        for j in range(i, n):
            g[i][j] = g[j][i] = 0.5 * gi.dy(j)
    dgdx = [[[g[i][j].dx(k) for j in range(n)] for i in range(n)] for k in range(n)]
    ginv = _jet_matrix_inverse(g, n)
    A = []
    for l in range(n):
        acc = None
        for j in range(n):
            for k in range(n):
                term = (2.0 * dgdx[k][j][l] - dgdx[l][j][k]) * ys[j] * ys[k]
                acc = term if acc is None else acc + term
        A.append(acc)
    G = []
    for i in range(n):
        acc = None
        for l in range(n):
            term = ginv[i][l] * A[l]
            acc = term if acc is None else acc + term
        G.append(0.25 * acc)
    return SprayWorkspace(G=G, g=g, ginv=ginv, dgdx=dgdx, ys=ys, F_jet=fj, f2=f2)


def spray_values(metric: MetricSpec, x, v) -> np.ndarray:
    """G^i as plain numbers; the fast path used by the ODE right-hand sides.

    A linear solve on the fundamental tensor of one order-(1, 2) jet, cheaper
    than the jet inverse of spray_jets; its bits define every geodesic.
    """
    fj = metric.jet(x, v, 1, 2)
    f2 = fj * fj
    g = 0.5 * derivative_tensor(f2, 0, 2)
    dg = 0.5 * derivative_tensor(f2, 1, 2)
    v = np.asarray(v, dtype=float)
    A = 2.0 * np.einsum("kjl,j,k->l", dg, v, v) - np.einsum("ljk,j,k->l", dg, v, v)
    return 0.25 * np.linalg.solve(g, A)


def spray_gradients(metric: MetricSpec, x, v, mx):
    """G, dG/dx and dG/dy values: the right-hand sides of the transport
    (mx=1, where dG/dx comes back None) and variational (mx=2) flows.

    Only ODE right-hand sides call this; other readers take spray_jets and
    derivative_tensor directly.
    """
    G = spray_jets(metric, x, v, mx, 3).G
    dGdx = derivative_tensor(G, 1, 0) if mx > 1 else None
    return derivative_tensor(G, 0, 0), dGdx, derivative_tensor(G, 0, 1)


# ---------------------------------------------------------------------------
# Geodesic integration
# ---------------------------------------------------------------------------


@dataclass
class GeodesicPath:
    """A numerically integrated geodesic with dense output and diagnostics."""

    metric: MetricSpec
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    sol: object
    t_requested: float
    exited: bool = False
    t_exit: float | None = None
    reverse_flagged: bool = False
    unit_speed: bool = False
    nfev: int = 0
    n_steps: int = 0

    @property
    def t_end(self):
        return float(self.t[-1])

    def state(self, t):
        z = self.sol(t)
        n = self.metric.n
        if np.ndim(t) == 0:
            return z[:n], z[n:]
        return z[:n].T, z[n:].T

    def F_values(self, ts=None):
        ts = self.t if ts is None else np.asarray(ts)
        xs, vs = self.state(ts)
        return self.metric.F_batch(xs, vs)

    def F_drift(self, n_checkpoints=101):
        ts = np.linspace(self.t[0], self.t[-1], n_checkpoints)
        F = self.F_values(ts)
        F0 = F[0]
        return float(np.max(np.abs(F - F0)) / abs(F0))

    def el_residual(self, n_checkpoints=33, h=1e-3):
        """max |xddot + 2G(xdot)| on dense checkpoints, with xddot recovered
        by central differences of the dense velocity output."""
        t0, t1 = float(self.t[0]), float(self.t[-1])
        span = t1 - t0
        hs = h * abs(span)
        ts = np.linspace(t0 + 2 * hs, t1 - 2 * hs, n_checkpoints)
        worst = 0.0
        for t in ts:
            _, vm = self.state(t - hs)
            x0, v0 = self.state(t)
            _, vp = self.state(t + hs)
            acc = (vp - vm) / (2 * hs)
            G = spray_values(self.metric, x0, v0)
            worst = max(worst, float(np.max(np.abs(acc + 2.0 * G))))
        return worst

    def to_rows(self):
        """CSV-ready rows (t, x..., xdot..., F)."""
        F = self.F_values()
        rows = []
        for k in range(len(self.t)):
            rows.append(
                [float(self.t[k]), *map(float, self.x[k]), *map(float, self.v[k]), float(F[k])]
            )
        return rows


def _exit_event(metric):
    margin = metric.chart.margin
    if margin is None:
        return None

    def event(t, z):
        return float(margin(z[: metric.n])) - 1e-12

    event.terminal = True
    event.direction = -1
    return event


def integrate_geodesic(metric: MetricSpec, x0, y0, t_end, rtol=1e-10, atol=1e-10,
                       t_eval=None, unit_speed=False, method="DOP853") -> GeodesicPath:
    """Solve xddot = -2 G(xdot) from (x0, y0); stops with a flag at chart exit."""
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    F0 = metric.F(x0, y0)
    if F0 <= 0 or not np.isfinite(F0):
        raise PreconditionError("geodesic needs a tangent vector with F > 0")
    if unit_speed:
        y0 = y0 / F0
    reverse = t_end < 0
    if reverse and not metric.positively_complete_only:
        reverse = False  # only flagged for positively-complete-only metrics

    def rhs(t, z):
        return np.concatenate([z[n:], -2.0 * spray_values(metric, z[:n], z[n:])])

    events = _exit_event(metric)
    sol = solve_ivp(
        rhs, (0.0, float(t_end)), np.concatenate([x0, y0]),
        method=method, rtol=rtol, atol=atol, dense_output=True,
        t_eval=t_eval, events=[events] if events else None,
    )
    if not sol.success and sol.status != 1:
        raise GeometryError(f"geodesic integration failed: {sol.message}")
    exited = sol.status == 1
    t_exit = float(sol.t_events[0][0]) if exited and len(sol.t_events[0]) else None
    return GeodesicPath(
        metric=metric, t=sol.t, x=sol.y[:n].T, v=sol.y[n:].T, sol=sol.sol,
        t_requested=float(t_end), exited=exited, t_exit=t_exit,
        reverse_flagged=bool(reverse), unit_speed=unit_speed,
        nfev=int(sol.nfev), n_steps=len(sol.t) - 1,
    )


@dataclass
class VariationalFlow:
    """Geodesic plus the n x n sensitivity M(t) of c(t) to the initial velocity.

    Columns of M are the Jacobi fields with J(0) = 0, J'(0) = e_k, so
    det M vanishes exactly at conjugate points, and M drives both the polar
    volume integrand and the conjugate-point search.
    """

    metric: MetricSpec
    sol: object
    t_end: float
    exited: bool
    t_exit: float | None

    def unpack(self, t):
        n = self.metric.n
        z = self.sol(t)
        x = z[:n]
        v = z[n: 2 * n]
        M = z[2 * n: 2 * n + n * n].reshape(n, n)
        Md = z[2 * n + n * n:].reshape(n, n)
        return x, v, M, Md

    def det_M(self, t):
        return float(np.linalg.det(self.unpack(t)[2]))


def variational_flow(metric: MetricSpec, x0, y0, t_end, rtol=1e-10, atol=1e-10,
                     unit_speed=False) -> VariationalFlow:
    """Integrate the geodesic together with its velocity-sensitivity matrix."""
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if unit_speed:
        y0 = y0 / metric.F(x0, y0)

    def rhs(t, z):
        x = z[:n]
        v = z[n: 2 * n]
        M = z[2 * n: 2 * n + n * n].reshape(n, n)
        Md = z[2 * n + n * n:].reshape(n, n)
        G, dGdx, dGdy = spray_gradients(metric, x, v, 2)
        dz = np.empty_like(z)
        dz[:n] = v
        dz[n: 2 * n] = -2.0 * G
        dz[2 * n: 2 * n + n * n] = Md.ravel()
        dz[2 * n + n * n:] = (-2.0 * (dGdx @ M + dGdy @ Md)).ravel()
        return dz

    z0 = np.concatenate([x0, y0, np.zeros(n * n), np.eye(n).ravel()])
    events = _exit_event(metric)
    sol = solve_ivp(rhs, (0.0, float(t_end)), z0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True,
                    events=[events] if events else None)
    if not sol.success and sol.status != 1:
        raise GeometryError(f"variational integration failed: {sol.message}")
    exited = sol.status == 1
    t_exit = float(sol.t_events[0][0]) if exited and len(sol.t_events[0]) else None
    reached = float(sol.t[-1])
    return VariationalFlow(metric=metric, sol=sol.sol, t_end=reached,
                           exited=exited, t_exit=t_exit)


def exp_map(metric: MetricSpec, x, y):
    """Endpoint at parameter 1 of the geodesic with initial velocity y."""
    path = integrate_geodesic(metric, x, y, 1.0)
    if path.exited:
        raise ChartExitError(
            f"geodesic left the chart at t={path.t_exit:.6g} before reaching 1",
            t_exit=path.t_exit,
        )
    return path.x[-1]


# ---------------------------------------------------------------------------
# Covariant derivative and parallel transport
# ---------------------------------------------------------------------------


def covariant_derivative(metric: MetricSpec, U, sample: TangentSample, h=1e-5):
    """D_y U = { dU^i(y) + U^j dG^i/dy^j(y) } at the sample point.

    U is a callable x -> vector field components; its directional derivative
    is taken by Richardson-extrapolated central differences.
    """
    sample.validate(metric)
    x, y = sample.x, sample.y
    scale = h * max(1.0, float(np.linalg.norm(x)))

    def ddir(step):
        return (np.asarray(U(x + step * y), dtype=float)
                - np.asarray(U(x - step * y), dtype=float)) / (2 * step)

    d1 = ddir(scale)
    d2 = ddir(scale / 2)
    dU = (4 * d2 - d1) / 3.0
    N = derivative_tensor(spray_jets(metric, x, y, 1, 3).G, 0, 1)
    return dU + N @ np.asarray(U(x), dtype=float)


@dataclass
class TransportResult:
    """Frames transported along a geodesic, with inner-product diagnostics."""

    frame_in: np.ndarray
    frame_out: np.ndarray
    gram_drift: float
    ts: np.ndarray
    frames: np.ndarray  # (len(ts), k, n)
    path: GeodesicPath


def parallel_transport(metric: MetricSpec, x0, y0, t_end, frame,
                       t_eval=None, rtol=1e-10, atol=1e-10,
                       unit_speed=False) -> TransportResult:
    """Transport a frame along the geodesic from (x0, y0) by D_cdot U = 0.

    Integrates the geodesic and the frame jointly so both see the same
    adaptive steps; the g_cdot Gram matrix of the frame is reported as a
    drift diagnostic (it is conserved along geodesics).
    """
    n = metric.n
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[0]
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    F0 = metric.F(x0, y0)
    if unit_speed:
        y0 = y0 / F0

    def rhs(t, z):
        x = z[:n]
        v = z[n: 2 * n]
        G, _, N = spray_gradients(metric, x, v, 1)
        dz = np.empty_like(z)
        dz[:n] = v
        dz[n: 2 * n] = -2.0 * G
        for m in range(k):
            U = z[2 * n + m * n: 2 * n + (m + 1) * n]
            dz[2 * n + m * n: 2 * n + (m + 1) * n] = -N @ U
        return dz

    if t_eval is None:
        t_eval = np.linspace(0.0, float(t_end), 33)
    z0 = np.concatenate([x0, y0, frame.ravel()])
    events = _exit_event(metric)
    sol = solve_ivp(rhs, (0.0, float(t_end)), z0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, t_eval=t_eval,
                    events=[events] if events else None)
    if not sol.success and sol.status != 1:
        raise GeometryError(f"transport integration failed: {sol.message}")
    ts = sol.t
    xs = sol.y[:n].T
    vs = sol.y[n: 2 * n].T
    frames = sol.y[2 * n:].T.reshape(len(ts), k, n)
    path = GeodesicPath(metric=metric, t=ts, x=xs, v=vs, sol=sol.sol,
                        t_requested=float(t_end), exited=sol.status == 1,
                        nfev=int(sol.nfev), n_steps=len(ts) - 1)
    return TransportResult(frame_in=frame, frame_out=frames[-1],
                           gram_drift=_gram_drift(metric, xs, vs, frames),
                           ts=ts, frames=frames, path=path)


def transport_along_curve(metric: MetricSpec, curve, t_span, frame,
                          t_eval=None, rtol=1e-10, atol=1e-10) -> TransportResult:
    """Transport along an arbitrary smooth curve given as t -> (x, xdot).

    The same equation D_cdot U = 0 is used as on geodesics; only geodesic
    transport is exercised by the conservation identities.
    """
    n = metric.n
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[0]

    def rhs(t, z):
        x, v = curve(t)
        _, _, N = spray_gradients(metric, x, v, 1)
        return (-N @ z.reshape(k, n).T).T.ravel()

    if t_eval is None:
        t_eval = np.linspace(t_span[0], t_span[1], 17)
    sol = solve_ivp(rhs, t_span, frame.ravel(), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, t_eval=t_eval)
    if not sol.success:
        raise GeometryError(f"transport integration failed: {sol.message}")
    ts = sol.t
    frames = sol.y.T.reshape(len(ts), k, n)
    xs = []
    vs = []
    for t in ts:
        x, v = curve(t)
        xs.append(np.asarray(x, dtype=float))
        vs.append(np.asarray(v, dtype=float))
    xs = np.array(xs)
    vs = np.array(vs)
    path = GeodesicPath(metric=metric, t=ts, x=xs, v=vs, sol=None,
                        t_requested=float(t_span[1]))
    return TransportResult(frame_in=frame, frame_out=frames[-1],
                           gram_drift=_gram_drift(metric, xs, vs, frames),
                           ts=ts, frames=frames, path=path)


def _gram_drift(metric, xs, vs, frames):
    """Largest change of the frames' g_cdot Gram matrix from its value at the
    first state; raises GeometryError when a frame becomes degenerate."""
    gram0 = None
    drift = 0.0
    for x, v, frame in zip(xs, vs, frames):
        gram = frame @ fundamental_tensor(metric, TangentSample(x, v)).g @ frame.T
        if gram0 is None:
            gram0 = gram
        else:
            drift = max(drift, float(np.max(np.abs(gram - gram0))))
        if np.linalg.cond(gram) > 1e12:
            raise GeometryError("transported frame became numerically degenerate")
    return drift
