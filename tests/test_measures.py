"""Volume machinery: MC region integrals, ball volumes via two routes, the
Funk ball formula, coarea consistency and the small-ball expansion."""

import numpy as np
import pytest

from finslerlab import measures as me
from finslerlab.errors import ConfigurationError, PreconditionError


class TestFunkBallFormula:
    def test_n2_closed_form(self):
        # the integral has the antiderivative pi (1 - e^{-r})^2 in dimension 2
        for r in (0.3, 1.0, 2.5, 7.0):
            assert me.funk_ball_formula(2, r) == pytest.approx(
                np.pi * (1 - np.exp(-r)) ** 2, rel=1e-12)

    def test_worked_value(self):
        # antiderivative oracle: 8 pi ((1 - 1/e)/4 - (1 - 1/e^2)/8)
        oracle = 8 * np.pi * (0.25 * (1 - np.exp(-1)) - 0.125 * (1 - np.exp(-2)))
        assert me.funk_ball_formula(2, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert me.funk_ball_formula(2, 1.0) == pytest.approx(1.2554, rel=0.01)

    def test_limit_is_unit_ball_volume(self):
        assert me.funk_ball_formula(2, 80.0) == pytest.approx(np.pi, rel=1e-6)
        assert me.funk_ball_formula(3, 80.0) == pytest.approx(4 * np.pi / 3, rel=1e-6)

    def test_small_radius_euclidean_limit(self):
        # ratio to the Euclidean ball volume is 1 - n r / 2 + O(r^2)
        r = 1e-2
        from finslerlab._grids import unit_ball_volume

        for n in (2, 3):
            ratio = me.funk_ball_formula(n, r) / (unit_ball_volume(n) * r ** n)
            assert ratio == pytest.approx(1.0, abs=n * r)
            assert ratio == pytest.approx(1.0 - n * r / 2.0, abs=5e-4)

    def test_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            me.funk_ball_formula(1, 1.0)


class TestBhVolume:
    def test_unit_square(self, zoo):
        est = me.bh_volume(
            zoo["euclidean"],
            lambda p: (p[:, 0] > 0) & (p[:, 0] < 1) & (p[:, 1] > 0) & (p[:, 1] < 1),
            ((-0.1, -0.1), (1.1, 1.1)), n_samples=400_000,
        )
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_unit_disc(self, zoo):
        est = me.bh_volume(zoo["euclidean"], lambda p: np.sum(p * p, axis=1) < 1,
                           ((-1.1, -1.1), (1.1, 1.1)), n_samples=1_000_000)
        assert abs(est.value - np.pi) <= 3 * est.stderr

    def test_funk_total_mass_is_unit_ball_volume(self, zoo):
        # r -> infinity ball fills the domain; the BH mass of the whole
        # domain is Vol(B^n)
        est = me.bh_volume(zoo["funk"], lambda p: np.ones(len(p), dtype=bool),
                           ((-1, -1), (1, 1)), n_samples=500_000)
        assert est.value == pytest.approx(np.pi, rel=0.01)

    def test_zero_acceptance_flagged(self, zoo):
        est = me.bh_volume(zoo["euclidean"], lambda p: np.zeros(len(p), dtype=bool),
                           ((0, 0), (1, 1)), n_samples=1000)
        assert est.flagged and est.value == 0.0

    def test_determinism(self, zoo):
        kw = dict(n_samples=50_000, seed=31415)
        ind = lambda p: np.sum(p * p, axis=1) < 1
        box = ((-1.1, -1.1), (1.1, 1.1))
        a = me.bh_volume(zoo["euclidean"], ind, box, **kw)
        b = me.bh_volume(zoo["euclidean"], ind, box, **kw)
        assert a.value == b.value and a.stderr == b.stderr


class TestBallVolume:
    def test_euclid_polar_exact(self, zoo):
        est = me.ball_volume(zoo["euclidean"],
                             me.BallSpec([0.2, 0.1], 1.0, "geodesic_polar"))
        assert est.value == pytest.approx(np.pi, abs=1e-10)
        assert est.method == "quadrature"

    def test_funk_mc_vs_formula_both_centers(self, zoo):
        target = me.funk_ball_formula(2, 1.0)
        for center in ([0.0, 0.0], [0.3, 0.0]):
            est = me.ball_volume(zoo["funk"],
                                 me.BallSpec(center, 1.0, "funk_closed_form"),
                                 n_samples=1_000_000)
            assert abs(est.value - target) <= max(3 * est.stderr, 0.01 * target)

    def test_polar_agrees_with_mc_on_funk(self, zoo):
        mc = me.ball_volume(zoo["funk"], me.BallSpec([0.2, 0.0], 0.8, "funk_closed_form"),
                            n_samples=1_000_000)
        quadr = me.ball_volume(zoo["funk"], me.BallSpec([0.2, 0.0], 0.8, "geodesic_polar"))
        assert mc.agrees_with(quadr)

    def test_hilbert_mc_route(self, zoo):
        # Klein-metric r-ball volume has a closed form via hyperbolic area
        est = me.ball_volume(zoo["hilbert"], me.BallSpec([0.0, 0.0], 0.8,
                                                         "hilbert_closed_form"),
                             n_samples=1_000_000)
        exact = 2 * np.pi * (np.cosh(0.8) - 1.0)
        assert abs(est.value - exact) <= max(3 * est.stderr, 0.01 * exact)

    def test_monotone_in_radius(self, zoo):
        vols, _ = me.polar_ball_volumes(zoo["riemannian_hyperbolic"], [0.1, 0.0],
                                        [0.2, 0.4, 0.6, 0.8])
        assert np.all(np.diff(vols) > 0)

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            me.BallSpec([0, 0], -1.0, "funk_closed_form")
        with pytest.raises(ConfigurationError):
            me.BallSpec([0, 0], 1.0, "teleport")

    def test_stacked_sweep_matches_single_direction_flows(self, zoo):
        from finslerlab._grids import circle_nodes, gauss_legendre_on
        from finslerlab.geodesics import variational_flow

        m = zoo["funk"]  # density 1 on the unit ball
        x = np.array([0.1, -0.2])
        radii = [0.5, 1.0]
        mu, exited = me.polar_ball_volumes(m, x, radii, n_dirs=4)
        assert not exited
        dirs, w = circle_nodes(4)
        want = np.zeros(2)
        for d, wd in zip(dirs, w):
            Fd = m.F(x, d)
            flow = variational_flow(m, x, d / Fd, 1.0)
            for i, r in enumerate(radii):
                ts, wts = gauss_legendre_on(0.0, r, 32)
                vals = [flow.det_M(t) / t for t in ts]
                want[i] += wd * Fd ** (-2) * np.dot(wts, vals)
        np.testing.assert_allclose(mu, want, rtol=1e-10)

    def test_polar_chart_exit_flagged(self, zoo):
        m = zoo["randers_curl"]  # ball chart, straight-ish geodesics exit
        est = me.ball_volume(m, me.BallSpec([0.0, 0.0], 3.0, "geodesic_polar"),
                             n_dirs=16)
        assert est.flagged
        assert "lower bound" in est.note


class TestCoarea:
    def test_euclidean(self, zoo):
        dev = me.coarea_consistency(zoo["euclidean"], [0.1, 0.0], 0.8, n_dirs=48)
        assert dev < 1e-4

    def test_hyperbolic(self, zoo):
        dev = me.coarea_consistency(zoo["riemannian_hyperbolic"], [0.1, 0.0], 0.7,
                                    n_dirs=48)
        assert dev < 1e-4


class TestSmallBall:
    def test_euclidean_c2_zero(self, zoo):
        rep = me.small_ball_probe(zoo["euclidean"], [0.1, 0.2],
                                  [0.02, 0.04, 0.06, 0.08, 0.1], compute_rx=False)
        assert abs(rep.c2) < 1e-4

    def test_sphere_c2_classical(self, zoo):
        rep = me.small_ball_probe(zoo["riemannian_sphere"], [0.2, 0.1],
                                  [0.02, 0.04, 0.06, 0.08, 0.1])
        assert rep.c2 == pytest.approx(-1.0 / 12.0, rel=0.05)
        # the curvature-average coefficient is reported alongside
        assert np.isfinite(rep.r_x)
        assert rep.reversible

    def test_grid_validation(self, zoo):
        with pytest.raises(PreconditionError):
            me.small_ball_probe(zoo["euclidean"], [0, 0], [0.1, 0.9])
        with pytest.raises(PreconditionError):
            me.small_ball_probe(zoo["euclidean"], [0, 0], [0.05, 0.1])
