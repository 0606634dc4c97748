"""Geodesic coefficients, the initial-value integrator, exponential map,
covariant derivative and parallel transport."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.base import DenseOutput
from scipy.integrate._ivp.rk import Dop853DenseOutput

from ._grids import richardson_central
from .errors import ChartExitError, GeometryError, JetDomainError, PreconditionError
from .jets import Jet, JetSpec, derivative_tensor, join_members, lift
from .metrics import MetricSpec
from .minkowski import TangentSample, fundamental_tensor, per_point

# ---------------------------------------------------------------------------
# Spray coefficients
# ---------------------------------------------------------------------------


@dataclass
class SprayWorkspace:
    """Jets of the spray and of F^2 at one tangent point, or stacks of them
    at m tangent points."""

    G: list
    f2: Jet


def spray_jets(metric: MetricSpec, x, y, mx, my) -> SprayWorkspace:
    """The geodesic coefficients as jets, valid to orders (mx-1, my-2).

    Solves g G = A/4 with A_l = y^k d2F^2/dx^k dy^l - dF^2/dx^l in the
    truncated algebra by the graded fixed point G <- g0^-1 (A/4 - (g - g0) G),
    g0 the values of g: g - g0 has no constant term, so each pass makes one
    more total degree exact, and mx + my - 3 passes after the first solve
    make every stored derivative of G exact.  The n^2 entries of g - g0 are
    one stack, so a pass is one stacked product.  x and y are one tangent
    point (n,) or stacks (m, n), as for jets.lift.
    """
    n = metric.n
    fj = metric.jet(x, y, mx, my)
    f2 = fj * fj
    ctx, vx, vy = f2.ctx, mx - 1, my - 2
    _, ys = lift(np.asarray(x, dtype=float), np.asarray(y, dtype=float), JetSpec(n, mx, my))
    rows = [f2.dy(l) for l in range(n)]
    g = [0.5 * rows[l].dy(i) for l in range(n) for i in range(n)]
    g0 = np.stack([gli.value for gli in g], axis=-1)
    inv0 = np.linalg.inv(g0.reshape(g0.shape[:-1] + (n, n)))
    dg = join_members([gli - gli.value for gli in g])
    A = [sum((ys[k] * rows[l].dx(k) for k in range(n)), -f2.dx(l)) for l in range(n)]
    # coefficient arrays (n, ..., size): one row per component, members inside
    rhs = np.where(ctx.mask(vx, vy), 0.25 * np.stack([a.coeffs for a in A]), 0.0)
    G = np.einsum("...il,l...k->i...k", inv0, rhs)
    for _ in range(mx + my - 3):
        tiled = Jet(ctx, np.broadcast_to(G, (n,) + G.shape).reshape(dg.coeffs.shape),
                    vx, vy, masked=True)
        dgG = (dg * tiled).coeffs.reshape((n, n) + G.shape[1:]).sum(axis=1)
        G = np.einsum("...il,l...k->i...k", inv0, rhs - dgG)
    return SprayWorkspace(G=[Jet(ctx, Gi, vx, vy, masked=True) for Gi in G], f2=f2)


def spray_values(metric: MetricSpec, x, v) -> np.ndarray:
    """G^i as plain numbers: the right-hand side of the geodesic ODE.

    Only ODE right-hand sides call this, so that its calls count them; other
    readers of G take _spray.
    """
    return _spray(metric, x, v, 0)[0]


def spray_gradients(metric: MetricSpec, x, v, mx):
    """G, dG/dx and dG/dy values: the right-hand sides of the transport
    (mx=1, where dG/dx comes back None) and variational (mx=2) flows.

    x and v are one tangent point (n,), giving (n,), (n, n), (n, n), or
    stacks (m, n), giving the same with a leading member axis; each member
    has the bits of its own single-point call.  Only ODE right-hand sides
    call this; other readers take _spray, or spray_jets and
    derivative_tensor for higher orders.
    """
    return _spray(metric, x, v, mx)


def _spray(metric, x, v, mx):
    """G, and for mx >= 1 its gradients, by linear solves on values, at one
    tangent point (n,) or at a stack (m, n).

    g G = A/4 with A_l = (2 dg_jl/dx^k - dg_jk/dx^l) v^j v^k, solved on the
    fundamental tensor of one jet of F, valid to orders (1, 2) for G alone
    or (mx, 3) for gradients: cheaper than the jet inverse of spray_jets.
    G's bits define every geodesic.  The gradients solve the derivatives of
    that equation, g dG = dA/4 - (dg) G, in one more solve; mx = 2 adds
    dG/dx.  Returns (G, dG/dx or None, dG/dy or None).  A one-member stack
    takes the single-point path, which is cheaper and gives the same bits.
    """
    if np.ndim(x) == np.ndim(v) == 2 and len(v) == 1:  # one member: the single-point path
        return tuple(None if a is None else a[None] for a in _spray(metric, x[0], v[0], mx))
    fj = metric.jet(x, v, mx or 1, 3 if mx else 2)
    f2 = fj * fj
    g = 0.5 * derivative_tensor(f2, 0, 2)
    dg = 0.5 * derivative_tensor(f2, 1, 2)
    v = np.asarray(v, dtype=float)
    A = (2.0 * np.einsum("...kjl,...j,...k->...l", dg, v, v)
         - np.einsum("...ljk,...j,...k->...l", dg, v, v))
    G = 0.25 * np.linalg.solve(g, A[..., None])[..., 0]
    if not mx:
        return G, None, None
    # columns m: the fiber derivatives, dA_l/dv^m also differentiating v^j v^k
    dgy = 0.5 * derivative_tensor(f2, 1, 3)
    dAy = (2.0 * np.einsum("...kjlm,...j,...k->...lm", dgy, v, v)
           - np.einsum("...ljkm,...j,...k->...lm", dgy, v, v)
           + 2.0 * (np.einsum("...kml,...k->...lm", dg, v)
                    + np.einsum("...mkl,...k->...lm", dg, v)
                    - np.einsum("...lmk,...k->...lm", dg, v)))
    gy = 0.5 * derivative_tensor(f2, 0, 3)
    cols = [0.25 * dAy - np.einsum("...lim,...i->...lm", gy, G)]
    if mx > 1:
        # columns p: the base derivatives, dA_l/dx^p
        dgxx = 0.5 * derivative_tensor(f2, 2, 2)
        dAx = (2.0 * np.einsum("...pkjl,...j,...k->...lp", dgxx, v, v)
               - np.einsum("...pljk,...j,...k->...lp", dgxx, v, v))
        cols.append(0.25 * dAx - np.einsum("...pli,...i->...lp", dg, G))
    dG = np.linalg.solve(g, np.concatenate(cols, axis=-1))
    n = metric.n
    return G, (dG[..., n:] if mx > 1 else None), dG[..., :n]


# ---------------------------------------------------------------------------
# The ODE driver
# ---------------------------------------------------------------------------


class _DeferredDOP853(DOP853):
    """DOP853 that leaves each step's interpolant to be built later: its 7th
    order dense output (Hairer, Norsett & Wanner, Solving Ordinary
    Differential Equations I, sec. II.6) needs three more right-hand-side
    calls per step, and those depend only on that step.  Steps and their
    control are DOP853's own."""

    def _dense_output_impl(self):
        return _Step(self)


class _Step(DenseOutput):
    """One DOP853 step whose three extra stages are still to be computed.

    It keeps what they need: the ends of the step, its first 13 stages and h.
    A step read during the solve (the chart-exit event locating its root)
    computes them at once, through the solver's counted right-hand side, as
    stock DOP853 does; _interpolate builds the others after the solve.
    """

    def __init__(self, solver):
        super().__init__(solver.t_old, solver.t)
        self.h, self.y_old, self.y, self.f = solver.h_previous, solver.y_old, solver.y, solver.f
        self.K = solver.K_extended.copy()
        self.fun = solver.fun
        self.stage = DOP853.n_stages + 1  # the next stage to compute
        self.dense = None

    def stage_input(self):
        """The time and state at which the next extra stage is evaluated."""
        s = self.stage
        a, c = DOP853.A_EXTRA[s - DOP853.n_stages - 1], DOP853.C_EXTRA[s - DOP853.n_stages - 1]
        return self.t_old + c * self.h, self.y_old + np.dot(self.K[:s].T, a[:s]) * self.h

    def put_stage(self, k):
        self.K[self.stage] = k
        self.stage += 1

    def interpolant(self, fun):
        """scipy's Dop853DenseOutput of this step, from DOP853's formula, its
        remaining extra stages computed by fun."""
        if self.dense is None:
            while self.stage < len(self.K):
                self.put_stage(fun(*self.stage_input()))
            K, h = self.K, self.h
            F = np.empty((3 + len(DOP853.D), len(self.y)))
            f_old = K[0]
            delta_y = self.y - self.y_old
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (self.f + f_old)
            F[3:] = h * np.dot(DOP853.D, K)
            self.dense = Dop853DenseOutput(self.t_old, self.t, self.y_old, F)
        return self.dense

    def _call_impl(self, t):
        return self.interpolant(self.fun)._call_impl(t)


def _interpolate(sol, field, rhs):
    """Build the dense output of every step of the solve sol and return the
    right-hand-side calls made.  Each extra stage of all steps not read
    during the solve is one call of field on the stack of their stage states
    (steps x members, width), so each step keeps the bits of its own stages;
    field does not read t, so the first step's time serves them all.  A
    stack that raises a domain error takes one rhs call per step and stage,
    as stock DOP853 does."""
    interpolants = sol.sol.interpolants
    todo = [p for p in interpolants if isinstance(p, _Step) and p.dense is None]
    calls = 0
    while todo and todo[0].stage < len(todo[0].K):
        inputs = [p.stage_input() for p in todo]
        calls += 1
        try:
            out = field(inputs[0][0], np.concatenate([z for _, z in inputs]))
        except (JetDomainError, GeometryError):
            break  # the steps take their remaining stages one at a time
        for p, k in zip(todo, np.split(np.asarray(out, dtype=float), len(todo))):
            p.put_stage(k)

    def counted(t, z):
        nonlocal calls
        calls += 1
        return np.asarray(rhs(t, z), dtype=float)

    for k, p in enumerate(interpolants):
        if isinstance(p, _Step):
            interpolants[k] = p.interpolant(counted)
    return calls


def _solve(flow, metric, rhs, z0, t_span, rtol, atol, chart=True, restart=True):
    """Integrate a flow from the states z0 (m, width) of its m members: DOP853
    with dense output, one solve_ivp call per segment, forward or backward.

    With chart, each member's state starts with its base point and a terminal
    event stops the solve at the first chart exit; that member drops out,
    with every member then at or below the event's threshold, and with
    restart the rest restart from its exit time, so each member has its own
    reach and exit; a flow that fails at any exit stops at the first.  The
    interpolants are built after each solve_ivp call (_interpolate), in
    stacked right-hand-side calls, and nfev counts those calls too; so rhs
    must not read t, only the state.  Returns the segments (t0, t1,
    OdeResult, members), read by _StackedSolution, the reach (m,) and t_exit
    (m,), nan where the member stayed in the chart.  A failed solve raises
    GeometryError naming the flow.
    """
    n = metric.n
    z = np.asarray(z0, dtype=float)
    m, width = z.shape
    margin = metric.chart.margin if chart else None
    events = None
    threshold = 1e-12
    field = rhs
    if margin is not None:
        def exit_event(t, y):
            return float(np.min(margin(y.reshape(-1, width)[:, :n]))) - threshold

        exit_event.terminal = True
        exit_event.direction = -1
        events = [exit_event]

        def rhs(t, y):
            # an RK stage may probe past the rim before the exit event fires;
            # nan there makes DOP853's error norm nan, which rejects and
            # shrinks the step (one member's nan rejects it for all, so all
            # get nan); a domain error with every member inside is real
            try:
                return field(t, y)
            except (JetDomainError, GeometryError):
                if np.all(margin(y.reshape(-1, width)[:, :n]) > threshold):
                    raise
                return np.full_like(y, np.nan)
    t0, t_end = float(t_span[0]), float(t_span[1])
    segments = []
    alive = np.arange(m)
    reach = np.empty(m)
    t_exit = np.full(m, np.nan)
    while True:
        sol = solve_ivp(rhs, (t0, t_end), z.ravel(), method=_DeferredDOP853, rtol=rtol,
                        atol=atol, dense_output=True, events=events)
        if not sol.success:
            raise GeometryError(f"{flow} integration failed: {sol.message}")
        sol.nfev += _interpolate(sol, field, rhs)
        t1 = float(sol.t_events[0][0]) if sol.status == 1 else t_end
        segments.append((t0, t1, sol, alive))
        reach[alive] = t1
        if sol.status != 1:
            break
        # a twin at or below the threshold could never fire the event again,
        # so it leaves with the member whose margin closed the event
        Z = sol.y_events[0][0].reshape(-1, width)
        left = margin(Z[:, :n])
        out = left <= max(float(np.min(left)), threshold)
        t_exit[alive[out]] = t1
        alive, z, t0 = alive[~out], Z[~out], t1
        if not (restart and len(alive)) or t0 == t_end:
            break
    return segments, reach, t_exit


# ---------------------------------------------------------------------------
# Geodesic integration
# ---------------------------------------------------------------------------


@dataclass
class GeodesicPath:
    """A numerically integrated geodesic with dense output sol, its
    _StackedSolution, and diagnostics: t, x and v at t_eval, or at the
    solver's steps without it, up to its reach t_end.  A stack of m holds x
    and v (m, len(t), n) on its t_eval grid (empty without one), nan past a
    member's reach, and t_end, exited and t_exit (nan where the member stayed
    in the chart) as arrays (m,); state puts the member axis first.  The
    other readers take one geodesic."""

    metric: MetricSpec
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    sol: object
    t_requested: float
    t_end: float | np.ndarray
    exited: bool | np.ndarray = False
    t_exit: float | np.ndarray | None = None
    reverse_flagged: bool = False
    nfev: int = 0

    def require_reach(self):
        """This path, or ChartExitError at the exit time of the first member
        that left the chart before t_requested."""
        if np.any(self.exited):
            t_exit = float(np.atleast_1d(self.t_exit)[np.argmax(self.exited)])
            raise ChartExitError(
                f"geodesic left the chart at t={t_exit:.6g} before reaching "
                f"{self.t_requested:.6g}", t_exit=t_exit)
        return self

    def _states(self, t):
        z = self.sol(t)
        return z if np.ndim(self.t_end) else z[0]

    def state(self, t):
        z = self._states(t)
        return z[..., :self.metric.n], z[..., self.metric.n: 2 * self.metric.n]

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
        G = _spray(self.metric, xs, vs, 0)[0]
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


@dataclass
class VariationalFlow(GeodesicPath):
    """Geodesic plus the n x n sensitivity M(t) of c(t) to the initial velocity.

    Columns of M are the Jacobi fields with J(0) = 0, J'(0) = e_k, so
    det M vanishes exactly at conjugate points, and M drives both the polar
    volume integrand and the conjugate-point search.
    """

    def unpack(self, t):
        """x, v, M, Md at time t.  A stacked flow also takes times (k,)
        shared by its members or (m, k) per member, giving x of shape
        (m, k, n) and M of shape (m, k, n, n)."""
        n = self.metric.n
        z = self._states(t)
        M, Md = (z[..., a: a + n * n].reshape(z.shape[:-1] + (n, n))
                 for a in (2 * n, 2 * n + n * n))
        return z[..., :n], z[..., n: 2 * n], M, Md

    def det_M(self, t):
        d = np.linalg.det(self.unpack(t)[2])
        return float(d) if np.ndim(d) == 0 else d


def _members(x0, y0):
    """Start points and velocities as stacks (m, n), broadcast together, and
    whether they are one tangent point."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    X, Y = np.broadcast_arrays(np.atleast_2d(x0), np.atleast_2d(y0))
    return X, Y, x0.ndim == y0.ndim == 1


def _read_flow(cls, metric, flow, t_end, t_eval, width, point):
    """A GeodesicPath or subclass of a flow (segments, reach, t_exit) from
    _solve, and its states (m, len(t), width) on t_eval; one point is member
    0 cut at its reach, on t_eval or the solver's steps, (len(t), width).
    Only positively-complete-only metrics flag a reverse run."""
    segments, reach, t_exit = flow
    exited = ~np.isnan(t_exit)
    dense = _StackedSolution(segments, len(reach), width)
    if t_eval is None:  # one point never restarts, so it has one segment
        t_eval = segments[0][2].t if point else []
    t = np.asarray(t_eval, dtype=float)
    Z = dense(t)
    if point:
        reached = ~np.isnan(Z[0, :, 0])
        t, Z = t[reached], Z[0, reached]
        reach, exited, t_exit = float(reach[0]), bool(exited[0]), t_exit[0]
        t_exit = float(t_exit) if exited else None
    return cls(metric=metric, t=t, x=Z[..., :metric.n], v=Z[..., metric.n: 2 * metric.n],
               sol=dense, t_requested=float(t_end), t_end=reach, exited=exited, t_exit=t_exit,
               reverse_flagged=bool(t_end < 0 and metric.positively_complete_only),
               nfev=sum(int(seg[2].nfev) for seg in segments)), Z


def integrate_geodesic(metric: MetricSpec, x0, y0, t_end, rtol=1e-10, atol=1e-10,
                       t_eval=None, unit_speed=False) -> GeodesicPath:
    """Solve xddot = -2 G(xdot) from (x0, y0); stops with a flag at chart exit.
    x0 and y0 are one tangent point (n,) or stacks (m, n), a stack one state
    in one solve with one spray_values call per right-hand side."""
    n = metric.n
    X, Y, point = _members(x0, y0)
    F0 = TangentSample(x0, y0).F(metric)
    if not np.all((F0 > 0) & np.isfinite(F0)):
        raise PreconditionError("geodesic needs a tangent vector with F > 0")
    if unit_speed:
        Y = Y / np.reshape(F0, (-1, 1))

    def rhs(t, z):
        Z = z.reshape(-1, 2 * n)
        return np.concatenate([Z[:, n:], -2.0 * spray_values(metric, Z[:, :n], Z[:, n:])],
                              axis=1).ravel()

    flow = _solve("geodesic", metric, rhs, np.concatenate([X, Y], axis=1), (0.0, t_end),
                  rtol, atol)
    return _read_flow(GeodesicPath, metric, flow, t_end, t_eval, 2 * n, point)[0]


class _StackedSolution:
    """Dense output of a flow of m members, pieced from its solve segments.

    A segment (t0, t1, OdeResult, members) is one solve_ivp call from t0 to t1,
    either way, for the listed members, in that order in its state; member k
    is read from the segments it was integrated in, and is nan past its reach.
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
            li, kj = np.nonzero((local >= min(t0, t1)) & (local <= max(t0, t1)))
            if not len(li):
                continue
            times, pos = np.unique(local[li, kj], return_inverse=True)
            Z = res.sol(times).reshape(len(members), self.width, len(times))
            out[members[li], kj] = Z[li, :, pos]
        return out[:, 0] if t.ndim == 0 else out


def variational_flow(metric: MetricSpec, x0, y0, t_end, rtol=1e-10,
                     atol=1e-10) -> VariationalFlow:
    """Integrate the geodesic together with its velocity-sensitivity matrix.

    x0 and y0 are one tangent point or stacks (m, n), a shared x0
    broadcasting: a stack is one state in one solve, with one
    spray_gradients call per right-hand side (see _solve for exits).
    """
    n = metric.n
    X, Y, point = _members(x0, y0)
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
    flow = _solve("variational", metric, rhs, z, (0.0, t_end), rtol, atol)
    return _read_flow(VariationalFlow, metric, flow, t_end, None, width, point)[0]


def exp_map(metric: MetricSpec, x, y):
    """Endpoint at parameter 1 of the geodesic with initial velocity y, (n,),
    or of each member of stacks x, y (m, n), giving (m, n)."""
    return integrate_geodesic(metric, x, y, 1.0).require_reach().state(1.0)[0]


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
    frames: np.ndarray  # (len(ts), k, n), or (m, len(ts), k, n) for a stack
    path: GeodesicPath


def _transport_field(metric, Z, k):
    """d/dt of a state (x, v, k vectors transported by D_cdot U = 0) of
    width 2n + k n, or of a stack of them (m, width); each vector takes one
    matrix-vector product, so a stack member has the bits of its state."""
    n = metric.n
    G, _, N = spray_gradients(metric, Z[..., :n], Z[..., n: 2 * n], 1)
    dZ = np.empty_like(Z)
    dZ[..., :n] = Z[..., n: 2 * n]
    dZ[..., n: 2 * n] = -2.0 * G
    U = Z[..., 2 * n:].reshape(Z.shape[:-1] + (k, n, 1))
    dZ[..., 2 * n:] = -(N[..., None, :, :] @ U).reshape(Z.shape[:-1] + (k * n,))
    return dZ


def parallel_transport(metric: MetricSpec, x0, y0, t_end, frame,
                       t_eval=None, rtol=1e-10, atol=1e-10) -> TransportResult:
    """Transport a frame along the geodesic from (x0, y0) by D_cdot U = 0.

    Integrates the geodesic and the frame jointly so both see the same
    adaptive steps; the g_cdot Gram matrix of the frame is reported as a
    drift diagnostic (it is conserved along geodesics).  Stacks x0 and y0
    (m, n), with a frame (k, n) or one per member, are one solve read on
    t_eval, nan past a member's reach.
    """
    n = metric.n
    X, Y, point = _members(x0, y0)
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[-2]
    width = 2 * n + k * n

    def rhs(t, z):
        return _transport_field(metric, z.reshape(-1, width), k).ravel()

    if t_eval is None:
        t_eval = np.linspace(0.0, float(t_end), 33)
    U0 = np.broadcast_to(frame, (len(X), k, n)).reshape(len(X), k * n)
    flow = _solve("transport", metric, rhs, np.concatenate([X, Y, U0], axis=1), (0.0, t_end),
                  rtol, atol)
    path, Z = _read_flow(GeodesicPath, metric, flow, t_end, t_eval, width, point)
    frames = Z[..., 2 * n:].reshape(Z.shape[:-1] + (k, n))
    return TransportResult(frame_in=frame, frame_out=frames[..., -1, :, :],
                           gram_drift=_gram_drift(metric, path.x, path.v, frames),
                           ts=path.t, frames=frames, path=path)


def transport_both_ways(metric: MetricSpec, x0, y0, ts, frame, scale=1.0, rtol=1e-10,
                        atol=1e-10):
    """States and frames transported along the geodesic from (x0, y0) at
    t = +ts and t = -ts, for increasing ts > 0; member j of stacks x0, y0
    (m, n) at t = +-scale[j] ts, 0 < scale <= 1.

    Every run is a member of one solve over s in [0, ts[-1]]: a run at
    t = c s, c = +-scale, has its right-hand side times c, which its state
    keeps as its last component.  Returns xs, vs (2, len(ts), n) and frames
    (2, len(ts), k, n), forward first, with a member axis second for a
    stack.  The solve stops at the first chart exit, with ChartExitError
    for the run that left (forward first among twins).
    """
    n = metric.n
    X, Y, point = _members(x0, y0)
    m = len(X)
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[-2]
    width = 2 * n + k * n + 1

    def rhs(t, z):
        Z = z.reshape(-1, width)
        dZ = np.zeros_like(Z)
        dZ[:, :-1] = Z[:, -1:] * _transport_field(metric, Z[:, :-1], k)
        return dZ.ravel()

    ts = np.asarray(ts, dtype=float)
    c = np.broadcast_to(np.asarray(scale, dtype=float), (m,))
    start = np.concatenate([X, Y, np.broadcast_to(frame, (m, k, n)).reshape(m, k * n)], axis=1)
    z0 = np.column_stack([np.vstack([start, start]), np.concatenate([c, -c])])
    segments, _, t_exit = _solve("transport", metric, rhs, z0, (0.0, float(ts[-1])),
                                 rtol, atol, restart=False)
    for c, t in zip(z0[:, -1], t_exit):  # the first run to leave the chart
        if not np.isnan(t):
            raise ChartExitError(f"geodesic left the chart at t={c * t:.6g} before reaching "
                                 f"{c * ts[-1]:.6g}", t_exit=float(c * t))
    Z = _StackedSolution(segments, 2 * m, width)(ts).reshape(2, m, len(ts), width)
    if point:
        Z = Z[:, 0]
    return Z[..., :n], Z[..., n: 2 * n], Z[..., 2 * n: -1].reshape(Z.shape[:-1] + (k, n))


def transport_along_curve(metric: MetricSpec, curve, t_span, frame,
                          t_eval=None, rtol=1e-10, atol=1e-10) -> TransportResult:
    """Transport along an arbitrary smooth curve given as t -> (x, xdot).

    The same equation D_cdot U = 0 is used as on geodesics; only geodesic
    transport is exercised by the conservation identities.  The state is the
    curve parameter, with derivative 1, and the frame, so the flow is
    autonomous and a stack of states reads the curve row by row.  It holds
    no base point, so the flow watches no chart exit.
    """
    n = metric.n
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k = frame.shape[0]
    width = 1 + k * n

    def rhs(t, z):
        Z = z.reshape(-1, width)
        x, v = (np.array(a, dtype=float) for a in zip(*(curve(s) for s in Z[:, 0])))
        dZ = np.ones_like(Z)
        dZ[:, 1:] = _transport_field(metric, np.concatenate([x, v, Z[:, 1:]], axis=1),
                                     k)[:, 2 * n:]
        return dZ.ravel()

    if t_eval is None:
        t_eval = np.linspace(t_span[0], t_span[1], 17)
    z0 = np.concatenate([[float(t_span[0])], frame.ravel()])[None]
    segments, _, _ = _solve("transport", metric, rhs, z0, t_span, rtol, atol, chart=False)
    ts = np.asarray(t_eval, dtype=float)
    frames = _StackedSolution(segments, 1, width)(ts)[0, :, 1:].reshape(len(ts), k, n)
    xs, vs = (np.array(a, dtype=float) for a in zip(*(curve(t) for t in ts)))
    path = GeodesicPath(metric=metric, t=ts, x=xs, v=vs, sol=None,
                        t_requested=float(t_span[1]), t_end=float(ts[-1]),
                        nfev=int(segments[0][2].nfev))
    return TransportResult(frame_in=frame, frame_out=frames[-1],
                           gram_drift=_gram_drift(metric, xs, vs, frames),
                           ts=ts, frames=frames, path=path)


def _gram_drift(metric, xs, vs, frames):
    """Largest change of the frames' g_cdot Gram matrix from its value at the
    first state, from one stacked fundamental tensor, for one path or per
    member of a stack, skipping nan states; GeometryError when a frame
    becomes degenerate."""
    ok = ~np.isnan(xs[..., 0])
    g = fundamental_tensor(metric, TangentSample(xs[ok], vs[ok])).g
    gram = np.full(frames.shape[:-1] + frames.shape[-2:-1], np.nan)
    gram[ok] = frames[ok] @ g @ np.swapaxes(frames[ok], -1, -2)
    if np.any(np.linalg.cond(gram[ok]) > 1e12):
        raise GeometryError("transported frame became numerically degenerate")
    # one path or per member, as a float for a path of one point
    return per_point(np.nanmax(np.abs(gram - gram[..., :1, :, :]), axis=(-3, -2, -1)),
                     xs[..., 0, :])
