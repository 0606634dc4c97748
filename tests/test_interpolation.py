"""The flows' dense output, built after each solve: every step's three extra
DOP853 stages in stacked right-hand-side calls, with the bits of scipy's
own DOP853 and every call counted in nfev."""

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from finslerlab import geodesics
from finslerlab.errors import ChartExitError, JetDomainError

from conftest import tangent_samples


def test_scipy_dop853_has_what_the_deferral_reads():
    # geodesics._DeferredDOP853 and _Step read these; a scipy without one of
    # them fails here by name rather than deep inside a flow
    import scipy.integrate._ivp.base as base
    import scipy.integrate._ivp.rk as rk

    for name in ("A_EXTRA", "C_EXTRA", "D", "n_stages"):
        assert hasattr(DOP853, name), f"DOP853.{name}"
    assert DOP853.A_EXTRA.shape == (3, DOP853.n_stages + 4), "DOP853.A_EXTRA"
    assert len(DOP853.C_EXTRA) == 3, "DOP853.C_EXTRA"
    solver = DOP853(lambda t, y: -y, 0.0, np.ones(2), 1.0)
    solver.step()
    for name in ("K_extended", "h_previous", "t_old", "y_old", "f", "fun"):
        assert hasattr(solver, name), f"DOP853 solver .{name}"
    assert solver.K_extended.shape == (DOP853.n_stages + 4, 2), "DOP853 solver .K_extended"
    assert hasattr(rk, "Dop853DenseOutput"), "scipy.integrate._ivp.rk.Dop853DenseOutput"
    assert hasattr(base, "DenseOutput"), "scipy.integrate._ivp.base.DenseOutput"
    assert isinstance(solver.dense_output(), rk.Dop853DenseOutput)


def _stock(monkeypatch, fn):
    """fn() with scipy's own DOP853, which builds each step's interpolant
    during the solve, three right-hand-side calls at a time."""
    with monkeypatch.context() as mp:
        mp.setattr(geodesics, "solve_ivp",
                   lambda *a, **k: solve_ivp(*a, **dict(k, method="DOP853")))
        return fn()


def _outcome(fn):
    try:
        return fn()
    except ChartExitError as err:
        return "ChartExitError", str(err), err.t_exit


def _same(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(p, q) for p, q in zip(a, b))
    if isinstance(a, str) or a is None:
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _geodesic(metric, x, y, t_end, t_eval):
    p = geodesics.integrate_geodesic(metric, x, y, t_end, t_eval=t_eval)
    return p.t, p.x, p.v, p.t_end, p.exited, p.t_exit, p.sol(np.linspace(0.0, t_end, 23))


def _variational(metric, x, y, t_end, t_eval):
    f = geodesics.variational_flow(metric, x, y, t_end)
    return f.t, f.x, f.t_end, f.t_exit, f.unpack(np.linspace(0.0, t_end, 23))


def _transport(metric, x, y, t_end, t_eval):
    tr = geodesics.parallel_transport(metric, x, y, t_end, np.eye(metric.n), t_eval=t_eval)
    return tr.ts, tr.frames, tr.path.x, tr.path.t_exit, tr.gram_drift


def _both_ways(metric, x, y, t_end, t_eval):
    ts = np.abs(t_end) * np.array([0.25, 0.5, 1.0])
    return geodesics.transport_both_ways(metric, x, y, ts, np.eye(metric.n))


def _along_curve(metric, x, y, t_end, t_eval):
    x0, y0 = np.atleast_2d(x)[0], np.atleast_2d(y)[0]
    u = -0.1 * np.sign(t_end) * x0 / np.linalg.norm(x0)  # a line toward the centre
    tr = geodesics.transport_along_curve(metric, lambda t: (x0 + t * u, u), (0.0, t_end),
                                         np.eye(metric.n), t_eval=t_eval)
    return tr.ts, tr.frames, tr.gram_drift


FLOWS = {"geodesic": _geodesic, "variational": _variational, "transport": _transport,
         "both_ways": _both_ways, "along_curve": _along_curve}


def _case(zoo, name):
    """(metric, xs, ys, t_end): three members, a backward span, or a member
    that leaves the chart."""
    if name == "funk3_rim":  # member 0 leaves the ball at t = 0.34
        pairs = tangent_samples(zoo["funk3"], 6, seed=3)
        return zoo["funk3"], *(np.array(a) for a in zip(pairs[4], pairs[0], pairs[1])), 0.4
    if name == "randers_curl_back":  # member 1 leaves the ball backwards
        xs = np.array([[0.1, 0.2], [-0.985, 0.0], [0.0, -0.3]])
        ys = np.array([[0.5, 0.1], [1.0, 0.0], [0.2, 0.4]])
        return zoo["randers_curl"], xs, ys, -0.05
    pairs = tangent_samples(zoo["hilbert_quartic"], 3, seed=56)
    return zoo["hilbert_quartic"], *(np.array(a) for a in zip(*pairs)), float(name[-4:])


# the variational flow of the Funk rim sample shrinks its steps without end
# as it nears the rim (4,226 right-hand sides to t = 0.2), so it takes the
# randers exit only
@pytest.mark.parametrize(("flow", "case"), [
    (flow, case) for flow in FLOWS
    for case in ("hq_+0.6", "hq_-0.6", "funk3_rim", "randers_curl_back")
    if (flow, case) != ("variational", "funk3_rim")])
def test_reads_have_the_bits_of_stock_dop853(zoo, monkeypatch, flow, case):
    metric, xs, ys, t_end = _case(zoo, case)
    for x, y in ((xs[0], ys[0]), (xs, ys)):  # a point and a stack
        for t_eval in (None, np.linspace(0.0, t_end, 9)):
            def run():
                return _outcome(lambda: FLOWS[flow](metric, x, y, t_end, t_eval))

            assert _same(run(), _stock(monkeypatch, run)), (np.ndim(x), t_eval is None)


def _count_rhs_calls(monkeypatch):
    """A list that grows by one at each spray_values or spray_gradients call."""
    calls = []
    for name in ("spray_values", "spray_gradients"):
        def counted(*args, _f=getattr(geodesics, name)):
            calls.append(len(args[1]) if np.ndim(args[1]) == 2 else 1)
            return _f(*args)

        monkeypatch.setattr(geodesics, name, counted)
    return calls


def _record_nfev(monkeypatch):
    """A list of the summed nfev of each _solve call's segments."""
    nfev, solve = [], geodesics._solve

    def recorded(*args, **kw):
        out = solve(*args, **kw)
        nfev.append(sum(int(seg[2].nfev) for seg in out[0]))
        return out

    monkeypatch.setattr(geodesics, "_solve", recorded)
    return nfev


def _exit_stack(zoo):
    xs = np.array([[0.5, 0.0], [0.1, 0.2]])
    ys = np.array([[1.0, 0.0], [0.3, 0.1]])
    return geodesics.integrate_geodesic(zoo["randers_curl"], xs, ys, 1.0)


NFEV_FLOWS = {
    "geodesic": lambda zoo, x, y: geodesics.integrate_geodesic(zoo["hilbert_quartic"], x, y, 0.5),
    "transport": lambda zoo, x, y: geodesics.parallel_transport(
        zoo["hilbert_quartic"], x, y, -0.5, np.eye(2)).path,
    "variational": lambda zoo, x, y: geodesics.variational_flow(zoo["hilbert_quartic"],
                                                                x, y, 0.5),
    "both_ways": lambda zoo, x, y: geodesics.transport_both_ways(
        zoo["hilbert_quartic"], x, y, [0.02, 0.05], np.eye(2)),
    "chart_exit": lambda zoo, x, y: _exit_stack(zoo),
    "rim_exit": lambda zoo, x, y: geodesics.integrate_geodesic(
        zoo["funk3"], *tangent_samples(zoo["funk3"], 6, seed=3)[4], 0.4),
    "along_curve": lambda zoo, x, y: geodesics.transport_along_curve(
        zoo["hilbert_quartic"], lambda t: (x[0] + t * y[0], y[0]), (0.0, 0.5), np.eye(2)).path,
}


@pytest.mark.parametrize("flow", NFEV_FLOWS)
def test_nfev_counts_every_right_hand_side_call(zoo, monkeypatch, flow):
    pairs = tangent_samples(zoo["hilbert_quartic"], 3, seed=56)
    xs, ys = (np.array(a) for a in zip(*pairs))
    calls = _count_rhs_calls(monkeypatch)
    nfev = _record_nfev(monkeypatch)
    out = NFEV_FLOWS[flow](zoo, xs, ys)
    assert len(nfev) == 1 and nfev[0] > 0
    assert len(calls) == nfev[0]
    if hasattr(out, "nfev"):
        assert out.nfev == nfev[0]
    if flow == "chart_exit":
        assert out.exited[0] and not out.exited[1]  # a restart: two segments


def test_interpolation_costs_three_calls_per_segment(zoo, monkeypatch):
    # whatever the number of steps, the interpolants of a segment take three
    # right-hand-side calls; stock DOP853 takes three per step
    metric = zoo["hilbert_quartic"]
    pairs = tangent_samples(metric, 3, seed=56)
    xs, ys = (np.array(a) for a in zip(*pairs))
    made, interpolate = [], geodesics._interpolate

    def recorded(sol, *args):
        made.append((len(sol.sol.interpolants), interpolate(sol, *args)))
        return made[-1][1]

    monkeypatch.setattr(geodesics, "_interpolate", recorded)
    steps = set()
    for t_end in (0.05, 0.5, 1.5):
        made.clear()
        path = geodesics.integrate_geodesic(metric, xs, ys, t_end)
        stock = _stock(monkeypatch, lambda: geodesics.integrate_geodesic(metric, xs, ys, t_end))
        (n_steps, calls), = made[:1]
        assert calls == 3
        assert stock.nfev - path.nfev == 3 * (n_steps - 1)
        steps.add(n_steps)
    assert len(steps) == 3
    made.clear()
    _exit_stack(zoo)  # an exit and a restart: two segments, three calls each
    assert [calls for _, calls in made] == [3, 3]
    # transport along a curve carries the curve parameter in its state, so
    # its stages stack like every other flow's
    x0 = xs[0]
    steps.clear()
    for t_end in (0.25, 2.0):
        def along():
            return geodesics.transport_along_curve(
                metric, lambda t: (x0 * (1.0 - 0.1 * t), -0.1 * x0), (0.0, t_end), np.eye(2))

        made.clear()
        path = along().path
        stock = _stock(monkeypatch, along).path
        (n_steps, calls), = made[:1]
        assert calls == 3
        assert stock.nfev - path.nfev == 3 * (n_steps - 1)
        steps.add(n_steps)
    assert len(steps) == 2 and min(steps) > 1


def test_a_domain_error_in_a_stacked_stage_falls_back_to_each_step(zoo, monkeypatch):
    # the Funk rim sample nears the rim before it leaves the ball; a spray
    # that raises a domain error on any stack of several rows reaching within
    # 1e-2 of the rim fails the stacked stages, which then come one step at
    # a time, with stock DOP853's bits for every step
    metric = zoo["funk3"]
    x, y = tangent_samples(metric, 6, seed=3)[4]
    raised, spray = [], geodesics.spray_values

    def narrow(m, xs, vs):
        if len(xs) > 1 and np.any(m.chart.margin(xs) < 1e-2):
            raised.append(len(xs))
            raise JetDomainError("stage state too near the rim")
        return spray(m, xs, vs)

    monkeypatch.setattr(geodesics, "spray_values", narrow)
    stock = _stock(monkeypatch, lambda: _geodesic(metric, x, y, 0.4, None))
    assert not raised  # one member: stock DOP853 never stacks
    calls = _count_rhs_calls(monkeypatch)
    got = geodesics.integrate_geodesic(metric, x, y, 0.4)
    assert raised and got.exited
    assert len(calls) == got.nfev
    assert _same(_geodesic(metric, x, y, 0.4, None), stock)
    assert not np.any(np.isnan(got.sol(np.linspace(0.0, got.t_end, 41))))
