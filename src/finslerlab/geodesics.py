"""Geodesic coefficients, the initial-value integrator, exponential map,
covariant derivative and parallel transport."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._grids import richardson_central
from .errors import ChartExitError, GeometryError, PreconditionError
from .jets import Jet, JetSpec, derivative_tensor, lift
from .metrics import MetricSpec
from .minkowski import TangentSample, fundamental_tensor

# ---------------------------------------------------------------------------
# Spray coefficients
# ---------------------------------------------------------------------------


def _jet_matrix_inverse(g, n):
    """Inverse of a jet-valued matrix by Newton iteration in the algebra,
    seeded from the inverse of its values (one batched inverse for stacks)."""
    g0 = np.array([[g[i][j].value for j in range(n)] for i in range(n)])
    inv0 = np.linalg.inv(np.moveaxis(g0, (0, 1), (-2, -1)))
    X = [[g[0][0]._const_like(inv0[..., i, j]) for j in range(n)] for i in range(n)]
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
    """Jets of the spray and fundamental tensor at one tangent point, or
    stacks of them at m tangent points."""

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
    the truncated algebra, so every stored derivative of G is exact.  x and
    y are one tangent point (n,) or stacks (m, n), as for jets.lift.
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
    """G^i as plain numbers: the right-hand side of the geodesic ODE.

    Only ODE right-hand sides call this, so that its calls count them; other
    readers of G take _spray_values.
    """
    return _spray_values(metric, x, v)


def _spray_values(metric, x, v):
    """G^i at one tangent point (n,) or at a stack (m, n), giving (m, n).

    A linear solve on the fundamental tensor of one order-(1, 2) jet, cheaper
    than the jet inverse of spray_jets; its bits define every geodesic.
    """
    fj = metric.jet(x, v, 1, 2)
    f2 = fj * fj
    g = 0.5 * derivative_tensor(f2, 0, 2)
    dg = 0.5 * derivative_tensor(f2, 1, 2)
    v = np.asarray(v, dtype=float)
    A = (2.0 * np.einsum("...kjl,...j,...k->...l", dg, v, v)
         - np.einsum("...ljk,...j,...k->...l", dg, v, v))
    return 0.25 * np.linalg.solve(g, A[..., None])[..., 0]


def spray_gradients(metric: MetricSpec, x, v, mx):
    """G, dG/dx and dG/dy values: the right-hand sides of the transport
    (mx=1, where dG/dx comes back None) and variational (mx=2) flows.

    x and v are one tangent point (n,), giving (n,), (n, n), (n, n), or
    stacks (m, n), giving the same with a leading member axis; each member
    has the bits of its own single-point call.  Only ODE right-hand sides
    call this; other readers take spray_jets and derivative_tensor directly.
    """
    G = spray_jets(metric, x, v, mx, 3).G
    dGdx = derivative_tensor(G, 1, 0) if mx > 1 else None
    return derivative_tensor(G, 0, 0), dGdx, derivative_tensor(G, 0, 1)


# ---------------------------------------------------------------------------
# The ODE driver
# ---------------------------------------------------------------------------


def _solve(flow, metric, rhs, z0, t_span, rtol, atol, t_eval=None, chart=True):
    """Integrate a flow from the states z0 (m, width) of its m members: DOP853
    with dense output, one solve_ivp call per segment.

    With chart, each member's state starts with its base point and a terminal
    event stops the solve at the first chart exit; that member drops out and
    the rest restart from its exit time, so each member has its own reach and
    exit.  t_eval serves one-member flows, which never restart.  Returns the
    segments (t0, t1, OdeResult, members), the reach (m,) and t_exit (m,),
    nan where the member stayed in the chart.  A failed solve raises
    GeometryError naming the flow.
    """
    n = metric.n
    z = np.asarray(z0, dtype=float)
    m, width = z.shape
    margin = metric.chart.margin if chart else None
    events = None
    if margin is not None:
        def exit_event(t, y):
            return float(np.min(margin(y.reshape(-1, width)[:, :n]))) - 1e-12

        exit_event.terminal = True
        exit_event.direction = -1
        events = [exit_event]
    t0, t_end = float(t_span[0]), float(t_span[1])
    segments = []
    alive = np.arange(m)
    reach = np.empty(m)
    t_exit = np.full(m, np.nan)
    while True:
        sol = solve_ivp(rhs, (t0, t_end), z.ravel(), method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True, t_eval=t_eval, events=events)
        if not sol.success:
            raise GeometryError(f"{flow} integration failed: {sol.message}")
        t1 = float(sol.t_events[0][0]) if sol.status == 1 else t_end
        segments.append((t0, t1, sol, alive))
        reach[alive] = t1
        if sol.status != 1:
            break
        # the member whose margin closed the event leaves; the rest go on
        Z = sol.y_events[0][0].reshape(-1, width)
        out = int(np.argmin(margin(Z[:, :n])))
        t_exit[alive[out]] = t1
        keep = np.arange(len(alive)) != out
        alive, z, t0 = alive[keep], Z[keep], t1
        if not len(alive) or t0 == t_end:
            break
    return segments, reach, t_exit


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
    nfev: int = 0

    @property
    def t_end(self):
        return float(self.t[-1])

    def require_reach(self):
        """This path, or ChartExitError when it left the chart before
        t_requested."""
        if self.exited:
            raise ChartExitError(
                f"geodesic left the chart at t={self.t_exit:.6g} before reaching "
                f"{self.t_requested:.6g}", t_exit=self.t_exit)
        return self

    def state(self, t):
        z = self.sol(t)
        n = self.metric.n
        if np.ndim(t) == 0:
            return z[:n], z[n: 2 * n]
        return z[:n].T, z[n: 2 * n].T

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
        _, vm = self.state(ts - hs)
        xs, vs = self.state(ts)
        _, vp = self.state(ts + hs)
        acc = (vp - vm) / (2 * hs)
        # all checkpoints in one stack, outside the ODE right-hand side
        G = _spray_values(self.metric, xs, vs)
        return float(np.max(np.abs(acc + 2.0 * G)))

    def to_rows(self):
        """CSV-ready rows (t, x..., xdot..., F)."""
        F = self.F_values()
        rows = []
        for k in range(len(self.t)):
            rows.append(
                [float(self.t[k]), *map(float, self.x[k]), *map(float, self.v[k]), float(F[k])]
            )
        return rows


def _geodesic_path(metric, sol, t_exit, t_end):
    """GeodesicPath of a one-member flow whose state starts with x and v; a
    reverse run is only flagged for positively-complete-only metrics."""
    n = metric.n
    exited = not np.isnan(t_exit)
    return GeodesicPath(
        metric=metric, t=sol.t, x=sol.y[:n].T, v=sol.y[n: 2 * n].T, sol=sol.sol,
        t_requested=float(t_end), exited=exited, t_exit=float(t_exit) if exited else None,
        reverse_flagged=bool(t_end < 0 and metric.positively_complete_only),
        nfev=int(sol.nfev),
    )


def integrate_geodesic(metric: MetricSpec, x0, y0, t_end, rtol=1e-10, atol=1e-10,
                       t_eval=None, unit_speed=False) -> GeodesicPath:
    """Solve xddot = -2 G(xdot) from (x0, y0); stops with a flag at chart exit."""
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    F0 = metric.F(x0, y0)
    if F0 <= 0 or not np.isfinite(F0):
        raise PreconditionError("geodesic needs a tangent vector with F > 0")
    if unit_speed:
        y0 = y0 / F0

    def rhs(t, z):
        return np.concatenate([z[n:], -2.0 * spray_values(metric, z[:n], z[n:])])

    segments, _, t_exit = _solve("geodesic", metric, rhs, np.concatenate([x0, y0])[None],
                                 (0.0, t_end), rtol, atol, t_eval)
    return _geodesic_path(metric, segments[0][2], t_exit[0], t_end)


@dataclass
class VariationalFlow:
    """Geodesic plus the n x n sensitivity M(t) of c(t) to the initial velocity.

    Columns of M are the Jacobi fields with J(0) = 0, J'(0) = e_k, so
    det M vanishes exactly at conjugate points, and M drives both the polar
    volume integrand and the conjugate-point search.

    A stacked flow of m members holds t_end (its reach), exited and t_exit
    (nan where the member stayed in the chart) as arrays (m,), and unpack and
    det_M put the member axis first.
    """

    metric: MetricSpec
    sol: object
    t_end: float | np.ndarray
    exited: bool | np.ndarray
    t_exit: float | np.ndarray | None

    def unpack(self, t):
        """x, v, M, Md at time t.  A stacked flow also takes times (k,)
        shared by its members or (m, k) per member, giving x of shape
        (m, k, n) and M of shape (m, k, n, n)."""
        n = self.metric.n
        z = self.sol(t)
        if np.ndim(self.t_end) == 0:
            z = np.moveaxis(z, 0, -1)  # an OdeSolution puts the state first
        lead = z.shape[:-1]
        x = z[..., :n]
        v = z[..., n: 2 * n]
        M = z[..., 2 * n: 2 * n + n * n].reshape(lead + (n, n))
        Md = z[..., 2 * n + n * n:].reshape(lead + (n, n))
        return x, v, M, Md

    def det_M(self, t):
        d = np.linalg.det(self.unpack(t)[2])
        return float(d) if np.ndim(d) == 0 else d


class _StackedSolution:
    """Dense output of a stacked flow, pieced from its solve segments.

    A segment (t0, t1, OdeResult, members) is one solve_ivp call over
    [t0, t1] for the listed members, in that order in its state; member k is
    read from the segments it was integrated in, and is nan past its reach.
    """

    def __init__(self, segments, m, width):
        self.segments = segments
        self.m = m
        self.width = width

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tt = t if t.ndim == 2 else np.broadcast_to(np.reshape(t, (1, -1)), (self.m, t.size))
        out = np.full(tt.shape + (self.width,), np.nan)
        for t0, t1, res, members in self.segments:
            local = tt[members]
            li, kj = np.nonzero((local >= t0) & (local <= t1))
            if not len(li):
                continue
            times, pos = np.unique(local[li, kj], return_inverse=True)
            Z = res.sol(times).reshape(len(members), self.width, len(times))
            out[members[li], kj] = Z[li, :, pos]
        return out[:, 0] if t.ndim == 0 else out


def variational_flow(metric: MetricSpec, x0, y0, t_end, rtol=1e-10,
                     atol=1e-10) -> VariationalFlow:
    """Integrate the geodesic together with its velocity-sensitivity matrix.

    y0 is one velocity (n,), or a stack (m, n) integrated as one state in one
    solve_ivp call, with one spray_gradients call per right-hand side; x0 is
    one base point (n,) or one per member (m, n).  Members share the step
    sequence.  When a member leaves the chart the solve stops there, and the
    others restart from that time, so each member has its own exit and reach.
    """
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    X, Y = np.broadcast_arrays(np.atleast_2d(x0), np.atleast_2d(y0))
    m = len(Y)
    width = 2 * n + 2 * n * n

    def rhs(t, z):
        Z = z.reshape(-1, width)
        x = Z[:, :n]
        v = Z[:, n: 2 * n]
        M = Z[:, 2 * n: 2 * n + n * n].reshape(-1, n, n)
        Md = Z[:, 2 * n + n * n:].reshape(-1, n, n)
        G, dGdx, dGdy = spray_gradients(metric, x, v, 2)
        dZ = np.empty_like(Z)
        dZ[:, :n] = v
        dZ[:, n: 2 * n] = -2.0 * G
        dZ[:, 2 * n: 2 * n + n * n] = Md.reshape(-1, n * n)
        dZ[:, 2 * n + n * n:] = (-2.0 * (dGdx @ M + dGdy @ Md)).reshape(-1, n * n)
        return dZ.ravel()

    z = np.concatenate([X, Y, np.zeros((m, n * n)), np.tile(np.eye(n).ravel(), (m, 1))],
                       axis=1)
    segments, reach, t_exit = _solve("variational", metric, rhs, z, (0.0, t_end), rtol, atol)
    exited = ~np.isnan(t_exit)
    if y0.ndim == 2:
        return VariationalFlow(metric=metric, sol=_StackedSolution(segments, m, width),
                               t_end=reach, exited=exited, t_exit=t_exit)
    return VariationalFlow(metric=metric, sol=segments[0][2].sol, t_end=float(reach[0]),
                           exited=bool(exited[0]),
                           t_exit=float(t_exit[0]) if exited[0] else None)


def exp_map(metric: MetricSpec, x, y):
    """Endpoint at parameter 1 of the geodesic with initial velocity y."""
    return integrate_geodesic(metric, x, y, 1.0).require_reach().x[-1]


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
    dU = richardson_central(lambda s: np.asarray(U(x + s * y), dtype=float),
                            h * max(1.0, float(np.linalg.norm(x))))
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
                       t_eval=None, rtol=1e-10, atol=1e-10) -> TransportResult:
    """Transport a frame along the geodesic from (x0, y0) by D_cdot U = 0.

    Integrates the geodesic and the frame jointly so both see the same
    adaptive steps; the g_cdot Gram matrix of the frame is reported as a
    drift diagnostic (it is conserved along geodesics).
    """
    n = metric.n
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[0]

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
    segments, _, t_exit = _solve("transport", metric, rhs, z0[None], (0.0, t_end),
                                 rtol, atol, t_eval)
    sol = segments[0][2]
    path = _geodesic_path(metric, sol, t_exit[0], t_end)
    frames = sol.y[2 * n:].T.reshape(len(sol.t), k, n)
    return TransportResult(frame_in=frame, frame_out=frames[-1],
                           gram_drift=_gram_drift(metric, path.x, path.v, frames),
                           ts=sol.t, frames=frames, path=path)


def transport_along_curve(metric: MetricSpec, curve, t_span, frame,
                          t_eval=None, rtol=1e-10, atol=1e-10) -> TransportResult:
    """Transport along an arbitrary smooth curve given as t -> (x, xdot).

    The same equation D_cdot U = 0 is used as on geodesics; only geodesic
    transport is exercised by the conservation identities.  The state holds
    no base point, so the flow watches no chart exit.
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
    segments, _, _ = _solve("transport", metric, rhs, frame.ravel()[None], t_span,
                            rtol, atol, t_eval, chart=False)
    sol = segments[0][2]
    ts = sol.t
    frames = sol.y.T.reshape(len(ts), k, n)
    xs, vs = (np.array(a, dtype=float) for a in zip(*(curve(t) for t in ts)))
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
