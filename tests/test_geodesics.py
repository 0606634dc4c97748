"""Spray coefficients, geodesic integration, exponential map, transport."""

import numpy as np
import pytest

from finslerlab import geodesics
from finslerlab.errors import (
    ChartExitError,
    ConfigurationError,
    GeometryError,
    JetDomainError,
    PreconditionError,
)
from finslerlab.geodesics import (
    integrate_geodesic,
    parallel_transport,
    spray_gradients,
    spray_jets,
    spray_values,
    transport_both_ways,
    variational_flow,
)
from finslerlab.jets import derivative_tensor, lift
from finslerlab.metrics import MetricSpec, funk_distance, unit_ball_domain

from conftest import tangent_samples


def _christoffel_spray(conf_sign, x, y, h=1e-6):
    """Spray of the conformal metric 4|dy|^2/(1 + sign |x|^2)^2 by direct
    Christoffel computation from finite differences of a_ij."""
    n = len(x)

    def a(p):
        c = 2.0 / (1.0 + conf_sign * np.dot(p, p))
        return c * c * np.eye(n)

    da = np.array([
        (a(x + h * np.eye(n)[k]) - a(x - h * np.eye(n)[k])) / (2 * h)
        for k in range(n)
    ])
    A = 2.0 * np.einsum("kjl,j,k->l", da, y, y) - np.einsum("ljk,j,k->l", da, y, y)
    return 0.25 * np.linalg.solve(a(x), A)


def _spray_G_N(metric, x, y):
    """G and its fiber Jacobian N = dG/dy, read off the order-(1, 3) spray jets."""
    G = spray_jets(metric, x, y, 1, 3).G
    return derivative_tensor(G, 0, 0), derivative_tensor(G, 0, 1)


class TestSprayCoeffs:
    def test_minkowski_sprays_vanish(self, zoo):
        for name in ("euclidean", "quartic_norm"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=50):
                G, N = _spray_G_N(m, x, y)
                assert np.max(np.abs(G)) < 1e-14
                assert np.max(np.abs(N)) < 1e-14

    def test_sphere_matches_christoffel(self, zoo):
        m = zoo["riemannian_sphere"]
        for x, y in tangent_samples(m, 10, seed=51):
            G, _ = _spray_G_N(m, x, y)
            oracle = _christoffel_spray(+1.0, x, y)
            np.testing.assert_allclose(G, oracle, atol=1e-8)

    def test_spray_homogeneity(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 5, seed=52):
                G1, _ = _spray_G_N(m, x, y)
                for lam in (0.5, 2.0):
                    G2, _ = _spray_G_N(m, x, lam * y)
                    assert np.max(np.abs(G2 - lam ** 2 * G1)) <= 1e-8 * max(
                        1.0, np.max(np.abs(G1)))

    def test_euler_identity_n_y(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 5, seed=53):
                G, N = _spray_G_N(m, x, y)
                assert np.max(np.abs(N @ y - 2.0 * G)) <= 1e-8 * max(
                    1.0, np.max(np.abs(G)))

    def test_funk_straight_through_center(self, zoo):
        # at the center the spray is parallel to y (projective flatness)
        m = zoo["funk"]
        for y in ([1.0, 0.0], [0.3, 0.8], [-0.5, 0.2]):
            G = spray_values(m, [0.0, 0.0], y)
            cross = G[0] * y[1] - G[1] * y[0]
            assert abs(cross) < 1e-12

    def test_flow_right_hand_sides_agree(self, zoo):
        # the values-only ODE path and both jet extractions give one spray
        for name in ("funk", "randers_curl", "hilbert_quartic", "funk3"):
            m = zoo[name]
            for x, y in tangent_samples(m, 3, seed=54):
                G0 = spray_values(m, x, y)
                G1, dGdx1, N1 = spray_gradients(m, x, y, 1)
                G2, dGdx2, N2 = spray_gradients(m, x, y, 2)
                assert dGdx1 is None and dGdx2.shape == (m.n, m.n)
                scale = max(1.0, np.max(np.abs(G0)))
                assert np.max(np.abs(G1 - G0)) <= 1e-12 * scale
                assert np.max(np.abs(G2 - G0)) <= 1e-12 * scale
                assert np.max(np.abs(N2 - N1)) <= 1e-12 * max(1.0, np.max(np.abs(N1)))


class TestIntegration:
    def test_euclidean_straight_line(self, zoo):
        p = integrate_geodesic(zoo["euclidean"], [0.0, 0.0], [0.3, 0.4], 2.0)
        np.testing.assert_allclose(p.x[-1], [0.6, 0.8], atol=1e-12)
        assert p.el_residual() < 1e-12

    def test_funk_distance_consistency(self, zoo):
        m = zoo["funk"]
        p = integrate_geodesic(m, [0.0, 0.0], [1.0, 0.0], 2.0, unit_speed=True)
        assert np.max(np.abs(p.x[:, 1])) < 1e-12
        d = funk_distance(unit_ball_domain(2), [0.0, 0.0], p.x[-1])
        assert d == pytest.approx(2.0, abs=1e-6)

    def test_hilbert_conservation_long_run(self, zoo):
        p = integrate_geodesic(zoo["hilbert"], [0.2, 0.1], [0.5, 0.3], 5.0,
                               unit_speed=True)
        assert not p.exited
        assert p.F_drift() < 1e-7

    def test_el_residual_small(self, zoo):
        for name in ("riemannian_sphere", "funk", "hilbert_quartic"):
            p = integrate_geodesic(zoo[name], [0.1, 0.05], [0.4, -0.2], 1.5)
            assert p.el_residual() < 1e-6

    def test_el_residual_makes_no_right_hand_side_calls(self, zoo, monkeypatch):
        # spray_values is the ODE right-hand side: its calls must equal nfev
        calls = []
        rhs = geodesics.spray_values

        def counted(*args):
            calls.append(1)
            return rhs(*args)

        monkeypatch.setattr(geodesics, "spray_values", counted)
        p = integrate_geodesic(zoo["funk"], [0.1, 0.05], [0.4, -0.2], 1.5)
        assert len(calls) == p.nfev > 0
        assert p.el_residual() < 1e-6
        assert len(calls) == p.nfev

    def test_tangent_parallel_along_geodesic(self, zoo):
        # max |D_cdot cdot| stays small: the defining property of geodesics
        for name in ("riemannian_sphere", "funk", "randers_curl"):
            m = zoo[name]
            p = integrate_geodesic(m, [0.1, 0.05], [0.4, -0.2], 1.0)
            ts = np.linspace(0.05, p.t_end - 0.05, 7)
            h = 1e-4
            for t in ts:
                _, vm = p.state(t - h)
                x0, v0 = p.state(t)
                _, vp = p.state(t + h)
                acc = (vp - vm) / (2 * h)
                _, N = _spray_G_N(m, x0, v0)
                assert np.max(np.abs(acc + N @ v0)) < 1e-6

    def test_projective_flatness_funk_hilbert(self, zoo):
        # integrated geodesics hug the straight chord through the start point
        for name in ("funk", "hilbert"):
            m = zoo[name]
            x0 = np.array([0.2, -0.1])
            y0 = np.array([0.5, 0.8])
            p = integrate_geodesic(m, x0, y0, 1.5, unit_speed=True)
            d = y0 / np.linalg.norm(y0)
            along = (p.x - x0) @ d
            perp = (p.x - x0) - np.outer(along, d)
            assert np.max(np.linalg.norm(perp, axis=1)) < 1e-6

    def test_randers_closed_beta_has_alpha_geodesics(self, zoo):
        # closed beta: same geodesics as alpha (straight lines), B != 0
        m = zoo["randers_closed"]
        x0 = np.array([0.1, 0.2])
        y0 = np.array([0.7, -0.3])
        p = integrate_geodesic(m, x0, y0, 1.5)
        d = y0 / np.linalg.norm(y0)
        perp = (p.x - x0) - np.outer((p.x - x0) @ d, d)
        assert np.max(np.linalg.norm(perp, axis=1)) < 1e-6

    def test_chart_exit_flagged(self, zoo):
        m = zoo["randers_curl"]  # ball chart
        p = integrate_geodesic(m, [0.5, 0.0], [1.0, 0.0], 5.0)
        assert p.exited
        assert p.t_exit is not None and p.t_exit < 5.0

    @pytest.mark.parametrize("t_end", [0.4, 1.0])
    def test_rim_geodesic_stops_at_the_chart_exit(self, zoo, t_end):
        # an RK stage of this Funk rim sample lands outside the ball, where the
        # spray has no jet, before the exit event fires
        x, y = tangent_samples(zoo["funk3"], 6, seed=3)[4]
        p = integrate_geodesic(zoo["funk3"], x, y, t_end)
        assert p.exited and 0.3 < p.t_exit < 0.4 and p.t_end == p.t_exit
        # in a stack, the inner member goes on to t_end
        x2, y2 = tangent_samples(zoo["funk3"], 6, seed=3)[0]
        s = integrate_geodesic(zoo["funk3"], np.stack([x, x2]), np.stack([y, y2]), t_end)
        assert s.exited[0] and 0.3 < s.t_exit[0] < 0.4
        assert not s.exited[1] and s.t_end[1] == t_end

    def test_a_domain_error_inside_the_chart_is_raised(self, zoo, monkeypatch):
        def broken(metric, x, v):
            raise JetDomainError("sqrt of jet with nonpositive constant term")

        monkeypatch.setattr(geodesics, "spray_values", broken)
        with pytest.raises(JetDomainError):
            integrate_geodesic(zoo["funk"], [0.1, 0.0], [1.0, 0.0], 0.5)

    def test_transport_reports_the_geodesic_exit(self, zoo):
        m = zoo["randers_curl"]
        p = integrate_geodesic(m, [0.5, 0.0], [1.0, 0.0], 5.0)
        tr = parallel_transport(m, [0.5, 0.0], [1.0, 0.0], 5.0, np.eye(2))
        assert tr.path.exited
        assert abs(tr.path.t_exit - p.t_exit) < 1e-6

    def test_zero_vector_rejected(self, zoo):
        with pytest.raises(PreconditionError):
            integrate_geodesic(zoo["funk"], [0.0, 0.0], [0.0, 0.0], 1.0)

    def test_csv_rows(self, zoo):
        p = integrate_geodesic(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0], 1.0,
                               t_eval=np.linspace(0, 1, 5))
        rows = p.to_rows()
        assert len(rows) == 5
        assert len(rows[0]) == 1 + 2 + 2 + 1
        assert rows[-1][0] == pytest.approx(1.0)


def _endpoint(metric, x, y):
    """The point at parameter 1 of the geodesic with initial velocity y."""
    return integrate_geodesic(metric, x, y, 1.0).state(1.0)[0]


class TestExpMap:
    def test_euclidean_translation(self, zoo):
        np.testing.assert_allclose(
            _endpoint(zoo["euclidean"], [0.1, 0.2], [0.3, -0.4]), [0.4, -0.2],
            atol=1e-12)

    def test_small_vector_continuity(self, zoo):
        m = zoo["funk"]
        x = np.array([0.2, 0.1])
        out = _endpoint(m, x, 1e-8 * np.array([1.0, 1.0]))
        assert np.linalg.norm(out - x) < 1e-7

    def test_sphere_antipode(self, zoo):
        m = zoo["riemannian_sphere"]
        x = np.array([0.3, 0.2])
        y = np.array([0.4, -0.1])
        y = np.pi * y / m.F(x, y)
        end = _endpoint(m, x, y)
        antipode = -x / np.dot(x, x)
        assert np.linalg.norm(end - antipode) < 1e-5

    def test_exit_is_flagged_before_parameter_one(self, zoo):
        p = integrate_geodesic(zoo["randers_curl"], [0.5, 0.0], [3.0, 0.0], 1.0)
        assert p.exited and 0.0 < p.t_exit < 1.0 and p.t_end == p.t_exit


class TestTransport:
    def test_euclidean_transport_is_identity(self, zoo):
        tr = parallel_transport(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0], 2.0,
                                np.eye(2))
        np.testing.assert_allclose(tr.frames[-1], np.eye(2), atol=1e-12)
        assert tr.gram_drift < 1e-12

    def test_gram_preserved_across_zoo(self, zoo):
        for name in ("riemannian_sphere", "funk", "hilbert_quartic",
                     "randers_curl", "berwald_product"):
            m = zoo[name]
            x, y = tangent_samples(m, 1, seed=55)[0]
            y = y / m.F(x, y)
            tr = parallel_transport(m, x, y, 1.5, np.eye(m.n))
            assert tr.gram_drift < 1e-7

    @pytest.mark.parametrize("name", ["funk3", "randers_curl", "hilbert_quartic"])
    def test_both_ways_matches_one_way_transports(self, zoo, name):
        # one stacked solve for +t and -t against two separate transports; a
        # non-reversible metric's backward run is not the forward run of -y
        m = zoo[name]
        x, y = tangent_samples(m, 1, seed=56)[0]
        ts = [0.01, 0.02, 0.04]
        xs, vs, frames = transport_both_ways(m, x, y, ts, np.eye(m.n))
        assert xs.shape == (2, 3, m.n) and frames.shape == (2, 3, m.n, m.n)
        for member, sign in enumerate((1.0, -1.0)):
            one = parallel_transport(m, x, y, sign * ts[-1], np.eye(m.n),
                                     t_eval=[0.0, *(sign * np.array(ts))])
            np.testing.assert_allclose(xs[member], one.path.x[1:], rtol=0, atol=1e-10)
            np.testing.assert_allclose(vs[member], one.path.v[1:], rtol=0, atol=1e-9)
            np.testing.assert_allclose(frames[member], one.frames[1:], rtol=0, atol=1e-9)

    def test_both_ways_names_the_exit_side(self, zoo):
        m = zoo["randers_curl"]  # the unit-ball chart: x = -0.985 exits backwards
        with pytest.raises(ChartExitError) as err:
            transport_both_ways(m, [-0.985, 0.0], [1.0, 0.0], [0.01, 0.02, 0.04], np.eye(2))
        assert -0.04 < err.value.t_exit < 0.0

    def test_berwald_preserves_norms(self, zoo):
        m = zoo["berwald_product"]
        x = np.array([0.1, 0.2, 0.0])
        y = np.array([0.3, -0.2, 0.5])
        y = y / m.F(x, y)
        frame = np.eye(3)
        tr = parallel_transport(m, x, y, 2.0, frame)
        for k in range(len(tr.path.t)):
            for mvec in range(3):
                F0 = m.F(x, frame[mvec])
                Ft = m.F(tr.path.x[k], tr.frames[k][mvec])
                assert abs(Ft - F0) / F0 < 1e-6

    def test_funk_does_not_preserve_norms(self, zoo):
        # non-Berwald: transport is a g-isometry but not an F-isometry
        m = zoo["funk"]
        x = np.array([0.2, 0.1])
        y = np.array([0.6, -0.1])
        y = y / m.F(x, y)
        tr = parallel_transport(m, x, y, 1.5, np.eye(2))
        devs = []
        for mvec in range(2):
            F0 = m.F(x, np.eye(2)[mvec])
            Ft = m.F(tr.path.x[-1], tr.frames[-1][mvec])
            devs.append(abs(Ft - F0) / F0)
        assert max(devs) > 1e-3

    def test_degenerate_frame_rejected_on_both_routes(self, zoo):
        # one path and a stack of two, whose Gram drift is read per member
        m = zoo["riemannian_sphere"]
        frame = np.array([[1.0, 0.0], [1.0, 0.0]])
        for x, y in (([0.1, 0.0], [0.3, 0.1]),
                     ([[0.1, 0.0], [0.0, 0.2]], [[0.3, 0.1], [0.2, 0.0]])):
            with pytest.raises(GeometryError, match="degenerate"):
                parallel_transport(m, x, y, 0.5, frame)


class TestVariationalFlow:
    def test_euclidean_sensitivity_linear(self, zoo):
        flow = variational_flow(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0], 2.0)
        x, v, M, Md = flow.unpack(1.7)
        np.testing.assert_allclose(M, 1.7 * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(Md, np.eye(2), atol=1e-10)

    def test_sphere_det_vanishes_at_pi(self, zoo):
        m = zoo["riemannian_sphere"]
        x = np.array([0.3, 0.2])
        y = np.array([0.4, -0.1])
        y = y / m.F(x, y)
        flow = variational_flow(m, x, y, 3.3)
        from scipy.optimize import brentq

        t0 = brentq(flow.det_M, 2.8, 3.3, xtol=1e-12)
        assert t0 == pytest.approx(np.pi, abs=1e-9)

    @pytest.mark.parametrize("name", ["funk", "funk3", "hilbert_quartic"])
    def test_stacked_flow_matches_per_row_flows(self, zoo, name, monkeypatch):
        monkeypatch.setattr(geodesics, "_FLOW_TOL", 1e-13)
        m = zoo[name]
        x = np.linspace(0.1, -0.1, m.n)
        Y = np.random.default_rng(3).normal(size=(3, m.n)) * 0.7
        for T in (0.5, -0.25):  # forward, and backward short of the funk chart edge
            stack = variational_flow(m, x, Y, T)
            assert stack.t_end.shape == (3,) and not np.any(stack.exited)
            at_end = stack.unpack(T)
            dets = stack.det_M([0.4 * T, 0.8 * T])
            for k in range(3):
                one = variational_flow(m, x, Y[k], T)
                assert one.t_end == stack.t_end[k] == T
                for got, want in zip(at_end, one.unpack(T)):
                    np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(dets[k], [one.det_M(0.4 * T), one.det_M(0.8 * T)],
                                           rtol=1e-10)

    def test_stacked_members_exit_on_their_own(self, zoo):
        from finslerlab._grids import circle_nodes

        m = zoo["randers_curl"]
        dirs, _ = circle_nodes(16)
        Y = dirs / m.F_batch(np.zeros_like(dirs), dirs)[:, None]
        stack = variational_flow(m, [0.0, 0.0], Y, 3.0)
        for k in range(16):
            one = variational_flow(m, [0.0, 0.0], Y[k], 3.0)
            assert one.exited == stack.exited[k]
            assert stack.t_end[k] == pytest.approx(one.t_end, abs=1e-8)
            if one.exited:
                assert stack.t_exit[k] == pytest.approx(one.t_exit, abs=1e-8)
            # the dense output ends at the member's reach
            assert np.all(np.isfinite(stack.unpack([[stack.t_end[k]]] * 16)[0][k]))

    def test_twin_members_exit_together(self, zoo):
        # exact twins reach the chart edge at the same instant: both leave
        # there, and the half-speed member behind them still exits on its own
        m = zoo["randers_curl"]
        y = np.array([1.0, 0.0]) / m.F([0.0, 0.0], [1.0, 0.0])
        stack = variational_flow(m, [0.0, 0.0], np.array([y, y, 0.5 * y]), 3.0)
        assert np.all(stack.exited)
        assert stack.t_exit[0] == stack.t_exit[1] == stack.t_end[1]
        assert stack.t_exit[2] == pytest.approx(2.0 * stack.t_exit[0], rel=1e-8)


def _without_degree(monkeypatch):
    """Make every metric jet valid to its whole box, as before the spray
    callers asked for a total-degree bound."""
    jet = MetricSpec.jet
    monkeypatch.setattr(MetricSpec, "jet",
                        lambda self, x, y, mx, my, degree=None: jet(self, x, y, mx, my))


class TestSprayWorkspaceFiberJets:
    def test_fiber_jets_are_the_lift_of_the_point(self, zoo):
        # s_jet_workspace reads ws.ys in place of lifting the point again
        for name, m in zoo.items():
            pts = tangent_samples(m, 3, seed=93)
            X, Y = (np.array(a) for a in zip(*pts))
            for x, y in [(X, Y)] + pts:
                ws = spray_jets(m, x, y, 1, 5)
                _, ys = lift(x, y, ws.f2.spec)
                assert len(ws.ys) == len(ys) == m.n
                for got, want in zip(ws.ys, ys):
                    assert got.ctx is want.ctx
                    assert ((got.vx, got.vy, got.vd, got.sup)
                            == (want.vx, want.vy, want.vd, want.sup)), name
                    assert got.coeffs.tobytes() == want.coeffs.tobytes(), name


class TestDegreeBoundedSpray:
    """spray_jets and _spray ask for F's jet only to the total degree their
    readers need; every value they give keeps the bits of the whole box."""

    @pytest.mark.parametrize("orders", [(1, 3), (1, 5), (2, 3), (2, 4)])
    def test_spray_jets_keep_their_bits(self, zoo, orders, monkeypatch):
        mx, my = orders
        reads = [(ox, oy) for ox in range(mx + 1) for oy in range(my + 1)
                 if ox + oy <= mx + my - 1]
        for name, m in zoo.items():
            pts = tangent_samples(m, 3, seed=91)
            X, Y = (np.array(a) for a in zip(*pts))
            points = [(X, Y)] + pts
            bounded = [spray_jets(m, x, y, mx, my) for x, y in points]
            for ws in bounded:
                assert ws.f2.vd == mx + my - 1
                with pytest.raises(ConfigurationError):
                    derivative_tensor(ws.f2, mx, my)
            with monkeypatch.context() as mp:
                _without_degree(mp)
                full = [spray_jets(m, x, y, mx, my) for x, y in points]
            for ws, want in zip(bounded, full):
                assert want.f2.vd == mx + my
                for Gi, Wi in zip(ws.G, want.G):
                    assert (Gi.vx, Gi.vy, Gi.vd) == (Wi.vx, Wi.vy, Wi.vd), name
                    assert Gi.coeffs.tobytes() == Wi.coeffs.tobytes(), name
                for ox, oy in reads:
                    got = derivative_tensor(ws.f2, ox, oy)
                    assert got.tobytes() == derivative_tensor(want.f2, ox, oy).tobytes(), name

    @pytest.mark.parametrize("mx", [0, 1, 2])
    def test_spray_values_and_gradients_keep_their_bits(self, zoo, mx, monkeypatch):
        for name, m in zoo.items():
            pts = tangent_samples(m, 3, seed=92)
            X, Y = (np.array(a) for a in zip(*pts))
            points = [(X, Y), (X[:1], Y[:1])] + pts
            bounded = [geodesics._spray(m, x, y, mx) for x, y in points]
            with monkeypatch.context() as mp:
                _without_degree(mp)
                full = [geodesics._spray(m, x, y, mx) for x, y in points]
            for got, want in zip(bounded, full):
                for a, b in zip(got, want):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.tobytes() == b.tobytes(), name
