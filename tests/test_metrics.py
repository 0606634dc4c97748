"""Metric zoo: closed forms, distances, the Okada equation, validity checks."""

import numpy as np
import pytest

from finslerlab import cli, jets, metrics
from finslerlab.errors import ConfigurationError, GeometryError
from finslerlab.metrics import (
    ConvexDomain,
    funk_distance,
    funk_distance_batch,
    funk_general,
    funk_unit_ball,
    hilbert_distance,
    hilbert_metric,
    make_metric,
    quartic_domain,
    unit_ball_domain,
    validate_metric,
    zoo_constructors,
)
from finslerlab.minkowski import TangentSample

from conftest import grad_phi, tangent_samples


class TestFunkClosedForm:
    def test_center_is_euclidean(self):
        for y in ([1.0, 0.0], [0.3, -0.4], [0.0, 2.0]):
            F = funk_unit_ball([0.0, 0.0], list(y))
            assert F == pytest.approx(np.linalg.norm(y), rel=1e-14)

    def test_worked_point_forward(self):
        assert funk_unit_ball([0.5, 0.0], [1.0, 0.0]) == pytest.approx(2.0, rel=1e-14)

    def test_worked_point_backward(self):
        assert funk_unit_ball([0.5, 0.0], [-1.0, 0.0]) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_membership_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.uniform(-1, 1, 2)
            F = funk_unit_ball(list(x), list(y))
            z = x + y / F
            assert abs(np.dot(z, z) - 1.0) < 1e-12

    def test_nonreversibility_witness(self):
        # a ratio of at least 2 between opposite directions
        F1 = funk_unit_ball([0.5, 0.0], [1.0, 0.0])
        F2 = funk_unit_ball([0.5, 0.0], [-1.0, 0.0])
        assert F1 / F2 >= 2.0


class TestFunkGeneralDomain:
    def test_matches_closed_form_on_ball(self):
        dom = unit_ball_domain(2)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.uniform(-1, 1, 2)
            if np.linalg.norm(y) < 0.1:
                continue
            a = funk_general(dom, list(x), list(y))
            b = funk_unit_ball(list(x), list(y))
            assert a == pytest.approx(b, rel=1e-10)

    def test_quartic_eps_zero_degenerates_to_ball(self):
        dom = ConvexDomain("quartic_perturbed", 2, 0.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1, 1, 2)
            a = funk_general(dom, list(x), list(y))
            b = funk_unit_ball(list(x), list(y))
            assert a == pytest.approx(b, rel=1e-12)

    def test_membership_residual(self):
        dom = quartic_domain(2, 0.1)
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1, 1, 2)
            F = funk_general(dom, list(x), list(y))
            z = x + y / F
            assert abs(dom.phi(list(z))) < 1e-12

    def test_batch_matches_scalar(self):
        dom = quartic_domain(2, 0.1)
        rng = np.random.default_rng(14)
        X = rng.uniform(-0.5, 0.5, (64, 2))
        Y = rng.uniform(-1, 1, (64, 2))
        batch = funk_general(dom, [X[:, 0], X[:, 1]], [Y[:, 0], Y[:, 1]])
        for k in range(64):
            scalar = funk_general(dom, list(X[k]), list(Y[k]))
            assert batch[k] == pytest.approx(scalar, rel=1e-12)

    @pytest.mark.parametrize("dom", [unit_ball_domain(3), quartic_domain(3, 0.1)])
    def test_coordinate_terms_sum_to_phi(self, dom):
        z = np.random.default_rng(16).uniform(-1, 1, (50, 3))
        t, dt = dom.coordinate_terms(z)
        np.testing.assert_allclose(t.sum(axis=1) - 1.0, dom.phi(list(z.T)), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(dt, np.stack(grad_phi(dom, list(z.T)), axis=-1),
                                   rtol=0, atol=1e-15)

    def test_point_outside_domain_rejected(self):
        dom = unit_ball_domain(2)
        with pytest.raises(GeometryError):
            funk_general(dom, [1.5, 0.0], [1.0, 0.0])


class TestHilbert:
    def test_worked_point(self):
        dom = unit_ball_domain(2)
        assert hilbert_metric(dom, [0.5, 0.0], [1.0, 0.0]) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_center(self):
        dom = unit_ball_domain(2)
        for y in ([1.0, 0.0], [0.6, -0.8]):
            assert hilbert_metric(dom, [0.0, 0.0], list(y)) == pytest.approx(
                np.linalg.norm(y), rel=1e-13)

    def test_exactly_reversible(self):
        dom = quartic_domain(2, 0.1)
        rng = np.random.default_rng(15)
        for _ in range(30):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1, 1, 2)
            a = hilbert_metric(dom, list(x), list(y))
            b = hilbert_metric(dom, list(x), list(-y))
            assert a == pytest.approx(b, rel=1e-15)


def root(dom, x0, y0):
    """The exit parameter of the ray x0 + s y0 from the domain by brentq: a
    root finder independent of the batched Newton ray exit."""
    from scipy.optimize import brentq

    # phi >= |z|^2 - 1, so every convex domain sits inside the unit ball
    s_hi = (1.0 + np.linalg.norm(x0) + 1.0) / np.linalg.norm(y0)
    return brentq(lambda s: dom.phi(list(x0 + s * y0)), 0.0, s_hi,
                  xtol=1e-15, rtol=8.9e-16)


def _two_solve_funk_jet(dom, xj, yj):
    """The Funk jet as before the paired root: a brentq root per member, then
    four Newton passes in the algebra (a frozen copy, kept as the oracle)."""
    x0 = np.stack([v.value for v in xj], axis=-1)
    y0 = np.stack([v.value for v in yj], axis=-1)
    spec = xj[0].spec
    s = np.array([root(dom, a, b) for a, b in zip(x0, y0)])
    u = xj[0]._const_like(s, spec.max_x_order, spec.max_y_order)
    for _ in range(4):
        z = [xi + yi * u for xi, yi in zip(xj, yj)]
        u = u - dom.phi(z) / metrics._dot(grad_phi(dom, z), yj)
    return 1.0 / u


class TestPairedHilbertJets:
    # the forward and backward Funk roots of a Hilbert jet are one stack, with
    # batched seeds and ceil(log2(D + 1)) Newton passes; against the two
    # separate solves this moves only round-off: at most 1.1e-13 of a jet's
    # largest coefficient here (n=3, orders (2, 5)), where the old path with
    # 3 passes instead of 4 already moves by 8.8e-14
    @pytest.mark.parametrize("orders", [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (1, 5),
                                        (2, 5)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_two_solve_path(self, n, orders):
        dom = quartic_domain(n, 0.1)
        m = metrics.make_hilbert(n, domain="quartic:0.1")
        X, Y = (np.array(a) for a in zip(*tangent_samples(m, 8, seed=91)))
        xs, ys = jets.lift(X, Y, jets.JetSpec(n, *orders))
        got = hilbert_metric(dom, xs, ys).coeffs
        want = 0.5 * (_two_solve_funk_jet(dom, xs, ys)
                      + _two_solve_funk_jet(dom, xs, [-y for y in ys])).coeffs
        scale = np.max(np.abs(want), axis=-1)
        assert np.all(np.max(np.abs(got - want), axis=-1) <= 1.4e-13 * scale)
        # a single point has the bits of its member of the stack
        x1, y1 = jets.lift(X[3], Y[3], jets.JetSpec(n, *orders))
        assert np.array_equal(hilbert_metric(dom, x1, y1).coeffs, got[3])


def _full_order_funk_exit(domain, xj, yj):
    """The Funk jet root before the graded passes (a frozen copy, kept as the
    oracle): ceil(log2(D + 1)) Newton passes, each at the jet's full orders
    with a full-order reciprocal of the slope."""
    spec = xj[0].spec
    n = len(xj)
    s = domain.exit_columns([v.value for v in xj], [v.value for v in yj])
    u = xj[0]._const_like(s, spec.max_x_order, spec.max_y_order)
    X, Y = jets.join_members(xj), jets.join_members(yj)

    def coordinate_sum(t):
        parts = jets.split_members(t, u)
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total

    for _ in range((spec.max_x_order + spec.max_y_order).bit_length()):
        t, dt = domain.coordinate_terms(X + Y * jets.join_members([u] * n))
        u = u - (coordinate_sum(t) - 1.0) / coordinate_sum(dt * Y)
    return u


def _frozen_root(domain, X, Y, shape):
    """_full_order_funk_exit called as _funk_jet_exit is, on the coordinates
    stacked one after another."""
    like = jets.Jet(X.ctx, np.zeros(shape + (X.ctx.size,)), X.vx, X.vy)
    return _full_order_funk_exit(domain, jets.split_members(X, like),
                                 jets.split_members(Y, like))


_ROOT_SPECS = [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (1, 5)]


class TestGradedFunkRoot:
    @staticmethod
    def _points(dom, n):
        """Two points at 0.9 of the way to the rim and two inner ones, with
        velocities that point outward, inward and across."""
        rng = np.random.default_rng(29)
        d = rng.normal(size=(4, n))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rim = dom.ray_exit(np.zeros((4, n)), d)[:, None] * d
        X = np.array([0.9, 0.9, 0.3, 0.05])[:, None] * rim
        Y = np.stack([d[0], -d[1], rng.normal(size=n), rng.normal(size=n)])
        return X, Y

    @pytest.mark.parametrize("orders", _ROOT_SPECS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [0.1, 1.0])
    @pytest.mark.parametrize("kind", ["funk", "hilbert"])
    def test_matches_the_full_order_loop(self, kind, eps, n, orders, monkeypatch):
        m = metrics.make_metric(kind, n=n, domain=f"quartic:{eps}")
        X, Y = self._points(m.convex_domain, n)
        got = m.jet(X, Y, *orders).coeffs
        for k in range(len(X)):  # a single point has the bits of its member
            assert np.array_equal(m.jet(X[k], Y[k], *orders).coeffs, got[k])
        monkeypatch.setattr(metrics, "_funk_jet_exit", _frozen_root)
        want = m.jet(X, Y, *orders).coeffs
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("orders", [(1, 3), (2, 4)])
    def test_passes_run_at_their_target_orders(self, orders, monkeypatch):
        """No timing: the orders of every product and reciprocal in one root."""
        dom = quartic_domain(2, 0.1)
        X, Y = self._points(dom, 2)
        xs, ys = jets.lift(X, Y, jets.JetSpec(2, *orders))
        log = []
        mul, reciprocal = jets.Jet.__mul__, jets.Jet._reciprocal
        terms = ConvexDomain.coordinate_terms

        def logged_mul(a, b):
            if isinstance(b, jets.Jet):
                log.append(("mul", min(a.vx, b.vx), min(a.vy, b.vy)))
            return mul(a, b)

        def logged_reciprocal(a):
            log.append(("reciprocal", a.vx, a.vy))
            return reciprocal(a)

        def logged_terms(self, z, *args):  # a pass ends its products with its terms
            out = terms(self, z, *args)
            log.append(("pass", z.vx, z.vy))
            return out

        monkeypatch.setattr(jets.Jet, "__mul__", logged_mul)
        monkeypatch.setattr(jets.Jet, "_reciprocal", logged_reciprocal)
        monkeypatch.setattr(ConvexDomain, "coordinate_terms", logged_terms)
        metrics._funk_jet_exit(dom, jets.join_members(xs), jets.join_members(ys), (len(X),))
        passes = [k for k, entry in enumerate(log) if entry[0] == "pass"]
        assert len(passes) == sum(orders).bit_length()
        # the first pass: Y u, then the terms' products, all at (1, 1)
        first = [entry[1:] for entry in log[:passes[0]]]
        assert first and set(first) == {(1, 1)}
        inverses = [entry[1:] for entry in log if entry[0] == "reciprocal"]
        assert inverses and orders not in inverses
        assert all(vx + vy < sum(orders) for vx, vy in inverses)


class TestDistances:
    def test_worked_funk_distance(self):
        dom = unit_ball_domain(2)
        assert funk_distance(dom, [0.0, 0.0], [0.5, 0.0]) == pytest.approx(
            np.log(2.0), rel=1e-12)

    def test_identity_of_indiscernibles(self):
        dom = unit_ball_domain(2)
        assert funk_distance(dom, [0.2, 0.1], [0.2, 0.1]) == 0.0
        assert hilbert_distance(dom, [0.2, 0.1], [0.2, 0.1]) == 0.0

    def test_triangle_inequality_sampled(self):
        dom = unit_ball_domain(2)
        rng = np.random.default_rng(16)
        for _ in range(1000):
            p, q, r = rng.uniform(-0.7, 0.7, (3, 2))
            if max(np.linalg.norm(v) for v in (p, q, r)) >= 0.95:
                continue
            dpq = funk_distance(dom, p, q)
            dpr = funk_distance(dom, p, r)
            drq = funk_distance(dom, r, q)
            assert dpq <= dpr + drq + 1e-12

    def test_hilbert_symmetric_funk_not(self):
        dom = quartic_domain(2, 0.1)
        p = np.array([0.3, 0.1])
        q = np.array([-0.2, 0.4])
        assert hilbert_distance(dom, p, q) == hilbert_distance(dom, q, p)
        assert abs(funk_distance(dom, p, q) - funk_distance(dom, q, p)) > 1e-3

    def test_batch_distances(self):
        dom = unit_ball_domain(2)
        rng = np.random.default_rng(17)
        Q = rng.uniform(-0.6, 0.6, (32, 2))
        p = np.array([0.1, -0.2])
        batch = funk_distance_batch(dom, p, Q)
        for k in range(32):
            assert batch[k] == pytest.approx(funk_distance(dom, p, Q[k]), rel=1e-10)

    def test_batch_distances_quartic(self):
        from finslerlab.metrics import hilbert_distance_batch

        dom = quartic_domain(2, 0.1)
        rng = np.random.default_rng(18)
        Q = rng.uniform(-0.55, 0.55, (16, 2))
        p = np.array([0.2, 0.1])
        fb = funk_distance_batch(dom, p, Q)
        hb = hilbert_distance_batch(dom, p, Q)
        for k in range(16):
            assert fb[k] == pytest.approx(funk_distance(dom, p, Q[k]), rel=1e-9)
            assert hb[k] == pytest.approx(hilbert_distance(dom, p, Q[k]), rel=1e-9)


class TestPointDistancesFromTheBatch:
    """A point distance is the one row of its batch, with the bits of the
    scalar exit-ratio formula it replaced."""

    @staticmethod
    def _pairs(n, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.55, 0.55, (2, 24, n))

    @staticmethod
    def _scalar_funk(dom, p, q):
        # the formula of the former scalar route: one ray exit on coordinate numbers
        if np.array_equal(p, q):
            return 0.0
        s = dom.exit_columns(list(p), list(q - p))
        return float(np.log(s / (s - 1.0)))

    @pytest.mark.parametrize("kind", ["unit_ball", "quartic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_point_is_the_batch_row_bit_for_bit(self, kind, n):
        from finslerlab.metrics import hilbert_distance_batch

        dom = unit_ball_domain(n) if kind == "unit_ball" else quartic_domain(n, 0.1)
        P, Q = self._pairs(n, 40 + n)
        Q[0] = P[0]  # a pair of equal points
        for p, q in zip(P, Q):
            f, h = funk_distance(dom, p, q), hilbert_distance(dom, p, q)
            assert f == funk_distance_batch(dom, p, q[None])[0]
            assert h == hilbert_distance_batch(dom, p, q[None])[0]
            assert f == self._scalar_funk(dom, p, q)
            assert h == 0.5 * (self._scalar_funk(dom, p, q) + self._scalar_funk(dom, q, p))

    def test_endpoint_outside_raises(self):
        dom = quartic_domain(2, 0.1)
        inside, outside = np.array([0.1, 0.2]), np.array([0.99, 0.0])
        for dist in (funk_distance, hilbert_distance):
            # (outside, outside) is d(p, p) for p outside, which Hilbert also refuses
            for p, q in ((inside, outside), (outside, inside), (outside, outside)):
                with pytest.raises(GeometryError, match="interior"):
                    dist(dom, p, q)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["unit_ball", "quartic"])
    def test_exit_before_the_second_endpoint_raises(self, kind):
        # a point one rounding inside the rim whose ray exit rounds to s <= 1;
        # the point distance raises that, with no floating-point warning
        dom = unit_ball_domain(2) if kind == "unit_ball" else quartic_domain(2, 0.1)
        p = np.zeros(2)
        for th in np.linspace(0.0, 1.0, 1001):
            d = np.array([np.cos(th), np.sin(th)])
            q = dom.ray_exit(p, d) * d * (1.0 - 2.0 ** -53)
            with np.errstate(all="ignore"):
                early = not np.isfinite(funk_distance_batch(dom, p, q[None])[0])
            if dom.contains(q) and early:
                break
        else:
            pytest.fail("no rim point with a rounded exit found")
        with pytest.raises(GeometryError, match="before reaching"):
            funk_distance(dom, p, q)


class TestChartsFromTheirMargin:
    """contains(x) is margin(x) > 0, which for the ball and convex charts is
    the former strict test itself, one ulp either side of each boundary."""

    @staticmethod
    def _rim(points):
        """Each point scaled by 1 + k ulp of 1, k = -3..3, as rows."""
        k = np.arange(-3, 4)[:, None, None]
        return (points[None] * (1.0 + k * 2.0 ** -52)).reshape(-1, points.shape[-1])

    @staticmethod
    def _directions(n):
        from finslerlab._grids import halton_directions

        return np.vstack([np.eye(n), -np.eye(n), halton_directions(n, 16)])

    def _same(self, chart, pts, former):
        got = chart.contains(pts)
        assert got.dtype == bool and np.array_equal(got, chart.margin(pts) > 0)
        assert np.array_equal(got, former)
        assert [bool(chart.contains(x)) for x in pts] == got.tolist()
        assert got.any() and not got.all()

    @pytest.mark.parametrize(("n", "radius"), [(2, 1.0), (3, 1.0), (2, 14.0), (3, 14.0)])
    def test_ball_chart(self, n, radius):
        chart = metrics._ball_chart(n, radius)
        pts = self._rim(radius * self._directions(n))
        self._same(chart, pts, np.sum(pts ** 2, axis=-1) < radius ** 2)

    @pytest.mark.parametrize("kind", ["unit_ball", "quartic"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_convex_chart(self, kind, n):
        dom = unit_ball_domain(n) if kind == "unit_ball" else quartic_domain(n, 0.1)
        dirs = self._directions(n)
        pts = self._rim(dom.ray_exit(np.zeros_like(dirs), dirs)[:, None] * dirs)
        former = dom.phi(list(pts.T)) < 0.0
        self._same(metrics._convex_chart(dom), pts, former)
        assert np.array_equal(dom.contains(pts), former)

    def test_catalog_charts(self, zoo):
        # every catalog chart is one of the kinds above or the full chart
        for name in ("riemannian_sphere", "riemannian_hyperbolic", "randers_curl", "funk",
                     "funk3", "funk_quartic", "hilbert", "hilbert_quartic"):
            chart = zoo[name].chart
            pts = self._rim(self._directions(zoo[name].n)
                            * (14.0 if name == "riemannian_sphere" else 1.0))
            assert np.array_equal(chart.contains(pts), chart.margin(pts) > 0), name

    def test_berwald_faces_and_rim(self, zoo):
        chart = zoo["berwald_product"].chart
        below, above = np.nextafter(4.0, 0.0), np.nextafter(4.0, 5.0)
        pts = np.array([[0.2, 0.1, z] for z in (below, 4.0, above, -below, -4.0, -above)]
                       + [[0.0, y, 0.5] for y in (np.nextafter(1.0, 0.0), 1.0,
                                                  np.nextafter(1.0, 2.0))])
        assert chart.contains(pts).tolist() == [True, False, False] * 3
        th = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        disc = self._rim(np.column_stack([np.cos(th), np.sin(th), np.full_like(th, 3.0)]))
        assert np.array_equal(chart.contains(disc), chart.margin(disc) > 0)
        # off the rim by more than rounding, the product's two strict tests
        far = np.vstack([0.999 * disc, 1.001 * disc])
        far[:, 2] = 3.0
        assert np.array_equal(chart.contains(far), (far[:, 0] ** 2 + far[:, 1] ** 2 < 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_chart(self, n):
        chart = metrics._full_chart(n)
        assert chart.margin is None
        assert chart.contains(np.full(n, 1e300)) is True
        got = chart.contains(np.zeros((5, n)))
        assert got.shape == (5,) and got.dtype == bool and got.all()


def test_scalar_F_is_the_batch_value_bit_for_bit(zoo):
    # one evaluation path: F at a point has the bits of F_batch there, and of
    # that point's row in a batch of 50
    for k, (name, m) in enumerate(sorted(zoo.items())):
        rng = np.random.default_rng(k)
        xs = metrics.chart_points(m, 50)
        ys = rng.normal(size=(50, m.n)) * rng.uniform(0.01, 10.0, (50, 1))
        for x, y, row in zip(xs, ys, m.F_batch(xs, ys)):
            F = m.F(x, y)
            assert type(F) is float
            assert F == float(m.F_batch(x, y)) == row, (name, x, y)


class TestRayExit:
    """The batched Newton ray-exit solver of ConvexDomain."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_newton_matches_scalar_brentq(self, n):
        dom = quartic_domain(n, 0.1)
        rng = np.random.default_rng(40 + n)
        X = rng.uniform(-0.55, 0.55, (200, n))
        Y = rng.uniform(-1, 1, (200, n)) * rng.uniform(0.01, 100.0, (200, 1))
        batch = dom.ray_exit(X, Y)
        scalar = np.array([root(dom, x, y) for x, y in zip(X, Y)])
        np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0)

    def test_exit_lies_on_the_boundary(self):
        dom = quartic_domain(3, 0.5)
        rng = np.random.default_rng(42)
        X = rng.uniform(-0.5, 0.5, (100, 3))
        Y = rng.uniform(-1, 1, (100, 3))
        Z = X + dom.ray_exit(X, Y)[:, None] * Y
        assert np.max(np.abs(dom.phi(list(Z.T)))) < 1e-14

    @pytest.mark.parametrize("dom", [unit_ball_domain(2), quartic_domain(2, 0.1)],
                             ids=["unit_ball", "quartic"])
    def test_batch_ray_checks(self, dom):
        X = np.array([[0.1, 0.2], [0.3, -0.1]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        outside = X.copy()
        outside[1] = [0.99, 0.5]
        with pytest.raises(GeometryError, match="outside"):
            dom.ray_exit(outside, Y)
        vanishing = Y.copy()
        vanishing[0] = 0.0
        with pytest.raises(GeometryError, match="vanishing"):
            dom.ray_exit(X, vanishing)
        with pytest.raises(GeometryError):
            funk_distance_batch(dom, [1.2, 0.0], X)

    def test_newton_cap_raises(self, monkeypatch):
        from finslerlab.errors import NumericalIntegrityError

        dom = quartic_domain(2, 0.1)
        X = np.array([[0.1, 0.2]])
        Y = np.array([[1.0, 0.5]])
        monkeypatch.setattr(metrics, "_RAY_NEWTON_CAP", 2)
        with pytest.raises(NumericalIntegrityError):
            dom.ray_exit(X, Y)

    def test_batch_ray_checks_reach_f_batch(self, zoo):
        m = zoo["hilbert_quartic"]
        with pytest.raises(GeometryError):
            m.F_batch([[0.1, 0.1], [0.98, 0.3]], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GeometryError):
            m.F_batch([[0.1, 0.1], [0.2, 0.3]], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n", [2, 3])
    def test_quartic_lebesgue_volume_unchanged(self, n):
        # the radial quadrature with a per-direction scalar root finder
        from scipy.optimize import brentq

        from finslerlab._grids import sphere_surface_nodes
        from finslerlab.metrics import _domain_lebesgue_volume

        dom = quartic_domain(n, 0.1)
        dirs, w = sphere_surface_nodes(n)
        r = np.array([brentq(lambda t: dom.phi(list(t * d)), 0.0, 2.0,
                             xtol=1e-15, rtol=8.9e-16) for d in dirs])
        reference = float(np.sum(w * r ** n) / n)
        assert _domain_lebesgue_volume(dom) == pytest.approx(reference, rel=1e-14)


def _column_dot(u, v):
    s = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        s = s + a * b
    return s


def _list_exit_columns(dom, xs, ys):
    """ConvexDomain.exit_columns on a quartic domain as a list-of-columns
    Newton pass, frozen: each pass builds z, phi(z), the gradient list and
    the slope as new arrays, from the unit-ball exit."""
    xy, yy, xx = _column_dot(xs, ys), _column_dot(ys, ys), _column_dot(xs, xs)
    s = (np.sqrt(xy * xy + yy * (1.0 - xx)) - xy) / yy
    eps = dom.eps
    while True:
        z = [xi + s * yi for xi, yi in zip(xs, ys)]
        phi = _column_dot(z, z)
        if eps != 0.0:
            q = z[0] * z[0] * z[0] * z[0]
            for zi in z[1:]:
                q = q + zi * zi * zi * zi
            phi = phi + eps * q
            grad = [2.0 * zi + 4.0 * eps * zi * zi * zi for zi in z]
        else:
            grad = [2.0 * zi for zi in z]
        step = s - (phi - 1.0) / _column_dot(grad, ys)
        down = step < s
        if not np.any(down):
            return s
        s = np.where(down, step, s)


class TestFusedNewtonPass:
    """The in-place Newton pass of exit_columns gives the bits of the
    list-of-columns pass, for every shape of column it takes."""

    @staticmethod
    def _columns(n, rng, k):
        X = rng.uniform(-0.45, 0.45, (k, n))
        Y = rng.standard_normal((k, n))
        return {
            "shared base point": ([float(v) for v in X[0]], list(Y.T)),
            "per-ray arrays": (list(X.T), list(Y.T)),
            "(k, 1) x (d,)": ([c[:, None] for c in X.T],
                              list(rng.standard_normal((n, 5)))),
            "one 0-d ray": ([float(v) for v in X[1]], [float(v) for v in Y[1]]),
        }

    @pytest.mark.parametrize("eps", [0.1, 1.0, 0.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bits_of_the_list_pass(self, n, eps):
        dom = quartic_domain(n, eps)
        rng = np.random.default_rng(60 + n)
        # a rounding slip in the slope moves about one root in 2,000 at
        # eps = 0.1, so one large batch goes with the small ones
        for k in [20_000] + [6] * 20:
            for label, (xs, ys) in self._columns(n, rng, k).items():
                got = dom.exit_columns(xs, ys)
                want = _list_exit_columns(dom, xs, ys)
                assert type(got) is type(want) and np.shape(got) == np.shape(want), label
                np.testing.assert_array_equal(got, want, err_msg=label)

    def test_outside_base_point_and_newton_cap(self, monkeypatch):
        from finslerlab.errors import NumericalIntegrityError

        dom = quartic_domain(2, 0.1)
        with pytest.raises(GeometryError, match="outside"):
            dom.exit_columns([np.array([0.1, 0.97]), 0.0], [1.0, 0.5])
        monkeypatch.setattr(metrics, "_RAY_NEWTON_CAP", 1)
        with pytest.raises(NumericalIntegrityError, match="1 steps"):
            dom.exit_columns([0.1, 0.2], [np.array([1.0, -0.3]), 0.5])


def _okada_difference(metric, pairs):
    """dF/dx^i - F dF/dy^i (m, n) at the tangent points pairs, from the two
    routes of verify's okada_pde check."""
    xs, ys = (np.array(a, dtype=float) for a in zip(*pairs))
    a, b, _ = cli._okada(metric, TangentSample(xs, ys))
    return a - b


class TestOkada:
    def test_funk_satisfies_okada(self, zoo):
        res = _okada_difference(zoo["funk"], tangent_samples(zoo["funk"], 50))
        assert np.max(np.abs(res)) < 1e-8

    def test_funk_quartic_satisfies_okada(self, zoo):
        res = _okada_difference(zoo["funk_quartic"], tangent_samples(zoo["funk_quartic"], 20))
        assert np.max(np.abs(res)) < 1e-8

    def test_euclidean_fails_okada(self, zoo):
        res = _okada_difference(zoo["euclidean"], [([0.5, 0.0], [1.0, 0.0])])
        np.testing.assert_allclose(res[0], [-1.0, 0.0], atol=1e-12)

    def test_hilbert_fails_okada(self, zoo):
        res = _okada_difference(zoo["hilbert"], tangent_samples(zoo["hilbert"], 10))
        assert np.max(np.abs(res)) > 1e-3


class TestRandersDensity:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", ["const", "closed", "curl"])
    def test_stacked_density_equals_per_point(self, variant, n):
        m = metrics.make_randers(n, variant=variant, c=0.3)
        pts = np.random.default_rng(40).uniform(-0.6, 0.6, (200, n))
        stacked = m.sigma_bh(pts)
        np.testing.assert_array_equal(stacked, [m.sigma_bh(p) for p in pts])
        # flat alpha: sigma = (1 - |b|^2)^((n+1)/2) with b_1 the only entry
        b1 = {"const": np.full(200, 0.3), "closed": 0.3 * np.cos(pts[:, 0]),
              "curl": 0.3 * pts[:, 1]}[variant]
        np.testing.assert_allclose(stacked, (1.0 - b1 ** 2) ** ((n + 1) / 2.0), rtol=1e-14)


def _chart_points_loop(metric, count, shrink=0.9):
    """chart_points as a loop over the Halton stream, one contains call per
    point, as it was before the stream was tested in one call."""
    from finslerlab._grids import halton

    lo = np.asarray(metric.chart.sample_box[0], dtype=float)
    hi = np.asarray(metric.chart.sample_box[1], dtype=float)
    pts = []
    for u in halton(metric.n, 8 * count + 64):
        x = shrink * (lo + u * (hi - lo))
        if metric.chart.contains(x):
            pts.append(x)
            if len(pts) == count:
                break
    return np.array(pts)


@pytest.mark.parametrize("count", [1, 20, 100])
def test_chart_points_equal_the_per_point_loop(zoo, count):
    for name, metric in zoo.items():
        got = metrics.chart_points(metric, count)
        assert got.shape == (count, metric.n), name
        assert np.array_equal(got, _chart_points_loop(metric, count)), name


class TestZooCatalog:
    def test_catalog_contents(self):
        names = set(zoo_constructors())
        assert {"euclidean", "riemannian_sphere", "riemannian_hyperbolic",
                "randers", "berwald_product", "quartic_norm", "funk",
                "hilbert"} <= names

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            make_metric("moebius")

    def test_all_catalog_metrics_validate(self, zoo):
        # (F2a) homogeneity and (F2b) definiteness at 100 deterministic samples
        for name in ("euclidean", "riemannian_sphere", "riemannian_hyperbolic",
                     "randers_curl", "berwald_product", "quartic_norm", "funk",
                     "hilbert", "funk_quartic", "hilbert_quartic"):
            assert validate_metric(zoo[name], n_samples=100)

    def test_validation_names_the_failing_claim(self):
        # the batched checks still reject a broken evaluator, claim by claim
        from finslerlab.errors import MetricValidityError
        from finslerlab.metrics import MetricSpec, _full_chart

        def norm(y):
            return (y[0] * y[0] + y[1] * y[1]) ** 0.5

        cases = {
            "homogeneity": (lambda x, y: y[0] * y[0] + y[1] * y[1] + 1.0, False),
            "positive definite": (metrics._quartic_eval(-0.9), True),
            "reversible": (lambda x, y: norm(y) + 0.3 * y[0], True),
        }
        for claim, (ev, rev) in cases.items():
            m = MetricSpec(name="broken", n=2, evaluator=ev, chart=_full_chart(2),
                           reversible=rev)
            with pytest.raises(MetricValidityError, match=claim) as err:
                validate_metric(m, n_samples=20)
            assert len(err.value.sample) >= 2

    def test_direction_sets_have_the_bits_of_separate_calls(self, zoo):
        # validate_metric and verify's homogeneity check read F at y, y/2,
        # 2y and -y from one F_sets call
        for name, m in zoo.items():
            xs, ys = (np.array(a) for a in zip(*tangent_samples(m, 30, seed=41)))
            sets = [ys, 0.5 * ys, 2.0 * ys, -ys]
            got = m.F_sets(xs, sets)
            assert got.shape == (4, 30), name
            for row, y in zip(got, sets):
                assert row.tobytes() == m.F_batch(xs, y).tobytes(), name

    def test_reversibility_flags(self, zoo):
        rng = np.random.default_rng(18)
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=7):
                F = m.F(x, y)
                B = m.F(x, -y)
                if m.reversible:
                    assert abs(F - B) <= 1e-10 * F
        # and the funk metric is genuinely non-reversible
        fu = zoo["funk"]
        assert abs(fu.F([0.5, 0.0], [1.0, 0.0]) - fu.F([0.5, 0.0], [-1.0, 0.0])) > 1.0

    def test_randers_zero_beta_equals_alpha(self):
        m = metrics.make_randers(2, variant="const", c=0.0)
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-1, 1, 2)
            assert m.F(x, y) == pytest.approx(np.linalg.norm(y), rel=1e-14)

    def test_randers_beta_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics.make_randers(2, variant="const", c=1.1)

    def test_quartic_negative_eps_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics.make_quartic(2, -0.5)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, "0.1", None, [0.1]])
    def test_quartic_eps_not_a_finite_number_rejected(self, eps):
        # a nan eps once built its evaluator and failed validation instead,
        # and a non-number raised an untyped TypeError
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            metrics.make_quartic(2, eps)

    def test_quartic_positive_definite_sweep(self, zoo):
        # 360-direction sweep of the fundamental tensor spectrum
        from finslerlab.minkowski import TangentSample, fundamental_tensor

        m = zoo["quartic_norm"]
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            ft = fundamental_tensor(m, TangentSample([0.0, 0.0],
                                                     [np.cos(theta), np.sin(theta)]))
            assert np.min(np.linalg.eigvalsh(ft.g)) > 0

    def test_domain_validation(self):
        # a nan eps once passed as far as "domain does not contain the origin"
        for eps in (np.nan, np.inf, -np.inf, -0.5, "0.1", None):
            with pytest.raises(ConfigurationError, match="finite and nonnegative"):
                quartic_domain(2, eps)
        with pytest.raises(ConfigurationError):
            ConvexDomain("octagon", 2)

    def test_domain_parameter_grammar(self):
        from finslerlab.metrics import _domain_from_param

        assert _domain_from_param(2, None).kind == "unit_ball"
        assert _domain_from_param(2, "quartic").eps == 0.1
        assert _domain_from_param(2, "quartic:0.25").eps == 0.25
        assert _domain_from_param(2, "quartic:0").eps == 0.0
        for bad in ("quartic:x", "quartic:", "quartic:nan", "quartic:inf", "quartic0.2",
                    "quartic:-0.1", "ball", 3):
            with pytest.raises(ConfigurationError):
                _domain_from_param(2, bad)

    def test_homogeneity_across_zoo(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=21):
                F = m.F(x, y)
                for lam in (0.5, 2.0):
                    assert m.F(x, lam * y) == pytest.approx(lam * F, rel=1e-10)
