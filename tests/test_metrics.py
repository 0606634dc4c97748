"""Metric zoo: closed forms, distances, Okada residual, validity checks."""

import numpy as np
import pytest

from finslerlab import jets, metrics
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
    okada_residual,
    quartic_domain,
    unit_ball_domain,
    validate_metric,
    zoo_constructors,
)

from conftest import tangent_samples


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
        np.testing.assert_allclose(dt, np.stack(dom.grad_phi(list(z.T)), axis=-1),
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


def _two_solve_funk_jet(dom, xj, yj):
    """The Funk jet as before the paired root: a brentq root per member, then
    four Newton passes in the algebra (a frozen copy, kept as the oracle)."""
    from scipy.optimize import brentq

    def root(x0, y0):
        s_hi = (dom.bounding_radius + np.linalg.norm(x0) + 1.0) / np.linalg.norm(y0)
        return brentq(lambda s: dom.phi(list(x0 + s * y0)), 0.0, s_hi,
                      xtol=1e-15, rtol=8.9e-16)

    x0 = np.stack([v.value for v in xj], axis=-1)
    y0 = np.stack([v.value for v in yj], axis=-1)
    spec = xj[0].spec
    s = np.array([root(a, b) for a, b in zip(x0, y0)])
    u = xj[0]._const_like(s, spec.max_x_order, spec.max_y_order)
    for _ in range(4):
        z = [xi + yi * u for xi, yi in zip(xj, yj)]
        u = u - dom.phi(z) / metrics._dot(dom.grad_phi(z), yj)
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
        m = metrics.make_hilbert(n, domain="quartic:0.1", validate=False)
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


class TestRayExit:
    """The batched Newton ray-exit solver of ConvexDomain."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_newton_matches_scalar_brentq(self, n):
        from finslerlab.metrics import _funk_ray_scalar

        dom = quartic_domain(n, 0.1)
        rng = np.random.default_rng(40 + n)
        X = rng.uniform(-0.55, 0.55, (200, n))
        Y = rng.uniform(-1, 1, (200, n)) * rng.uniform(0.01, 100.0, (200, 1))
        batch = dom.ray_exit(X, Y)
        scalar = np.array([_funk_ray_scalar(dom, x, y) for x, y in zip(X, Y)])
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


class TestOkada:
    def test_funk_satisfies_okada(self, zoo):
        worst = 0.0
        for x, y in tangent_samples(zoo["funk"], 50):
            worst = max(worst, np.max(np.abs(okada_residual(zoo["funk"], x, y))))
        assert worst < 1e-8

    def test_funk_quartic_satisfies_okada(self, zoo):
        worst = 0.0
        for x, y in tangent_samples(zoo["funk_quartic"], 20):
            worst = max(worst, np.max(np.abs(okada_residual(zoo["funk_quartic"], x, y))))
        assert worst < 1e-8

    def test_euclidean_fails_okada(self, zoo):
        res = okada_residual(zoo["euclidean"], [0.5, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(res, [-1.0, 0.0], atol=1e-12)

    def test_hilbert_fails_okada(self, zoo):
        worst = 0.0
        for x, y in tangent_samples(zoo["hilbert"], 10):
            worst = max(worst, np.max(np.abs(okada_residual(zoo["hilbert"], x, y))))
        assert worst > 1e-3


class TestRandersDensity:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("variant", ["const", "closed", "curl"])
    def test_stacked_density_equals_per_point(self, variant, n):
        m = metrics.make_randers(n, variant=variant, c=0.3, validate=False)
        pts = np.random.default_rng(40).uniform(-0.6, 0.6, (200, n))
        stacked = m.sigma_bh(pts)
        np.testing.assert_array_equal(stacked, [m.sigma_bh(p) for p in pts])
        # flat alpha: sigma = (1 - |b|^2)^((n+1)/2) with b_1 the only entry
        b1 = {"const": np.full(200, 0.3), "closed": 0.3 * np.cos(pts[:, 0]),
              "curl": 0.3 * pts[:, 1]}[variant]
        np.testing.assert_allclose(stacked, (1.0 - b1 ** 2) ** ((n + 1) / 2.0), rtol=1e-14)


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
            "reversible": (lambda x, y: norm(y) + 0.3 * y[0], True),
        }
        for claim, (ev, rev) in cases.items():
            m = MetricSpec(name="broken", n=2, evaluator=ev, chart=_full_chart(2),
                           reversible=rev)
            with pytest.raises(MetricValidityError, match=claim) as err:
                validate_metric(m, n_samples=20)
            assert len(err.value.sample) >= 2

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
        m = metrics.make_randers(2, variant="const", c=0.0, validate=False)
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

    def test_quartic_positive_definite_sweep(self, zoo):
        # 360-direction sweep of the fundamental tensor spectrum
        from finslerlab.minkowski import TangentSample, fundamental_tensor

        m = zoo["quartic_norm"]
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            ft = fundamental_tensor(m, TangentSample([0.0, 0.0],
                                                     [np.cos(theta), np.sin(theta)]))
            assert np.min(np.linalg.eigvalsh(ft.g)) > 0

    def test_domain_validation(self):
        dom = quartic_domain(2, 0.1)
        dom.boundary_checks()
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
