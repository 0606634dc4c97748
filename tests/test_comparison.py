"""Model volumes, ratio monotonicity, conjugate-point bound."""

import numpy as np
import pytest

from finslerlab import comparison as co
from finslerlab.errors import ConfigurationError, PreconditionError
from finslerlab.measures import BallSpec, ball_volume, funk_ball_formula


class TestSLambda:
    def test_positive(self):
        assert co.s_lambda(1.0, np.pi / 2) == pytest.approx(1.0, rel=1e-14)

    def test_zero(self):
        assert co.s_lambda(0.0, 2.0) == 2.0

    def test_negative(self):
        assert co.s_lambda(-1.0, 1.0) == pytest.approx(np.sinh(1.0), rel=1e-14)

    def test_ode_property(self):
        # s'' + lam s = 0 by central differences, s(0)=0, s'(0)=1
        h = 1e-4
        for lam in (-2.0, -0.25, 0.0, 0.7, 1.0):
            for t in (0.3, 1.0, 2.0):
                s = co.s_lambda(lam, t)
                sdd = (co.s_lambda(lam, t + h) - 2 * s + co.s_lambda(lam, t - h)) / h ** 2
                assert sdd == pytest.approx(-lam * s, abs=1e-6)
            assert co.s_lambda(lam, 0.0) == 0.0
            d0 = (co.s_lambda(lam, h) - co.s_lambda(lam, -h)) / (2 * h)
            assert d0 == pytest.approx(1.0, abs=1e-8)


class TestModelVolume:
    def test_flat_is_euclidean_ball(self):
        from finslerlab._grids import unit_ball_volume

        for n in (2, 3):
            for r in (0.5, 1.0, 2.0):
                assert co.model_volume(0.0, 0.0, n, r) == pytest.approx(
                    unit_ball_volume(n) * r ** n, rel=1e-12)

    def test_round_sphere_total_area(self):
        assert co.model_volume(1.0, 0.0, 2, np.pi) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_funk_equality_n2_n3(self):
        # substitution t -> 2u maps the model integral onto the Funk formula
        for n in (2, 3):
            delta = (n + 1) / (2.0 * (n - 1))
            for r in np.linspace(0.3, 6.0, 20):
                V = co.model_volume(-0.25, delta, n, r)
                assert abs(V - funk_ball_formula(n, r)) < 1e-8

    def test_radius_beyond_validity(self):
        with pytest.raises(ConfigurationError):
            co.model_volume(1.0, 0.0, 2, 2 * np.pi)

    def test_strictly_increasing_and_prime_consistent(self):
        rs = np.linspace(0.1, 3.0, 12)
        vols = [co.model_volume(-0.25, 1.5, 2, r) for r in rs]
        assert np.all(np.diff(vols) > 0)
        h = 1e-6
        for r in (0.5, 1.0, 2.0):
            fd = (co.model_volume(-0.25, 1.5, 2, r + h)
                  - co.model_volume(-0.25, 1.5, 2, r - h)) / (2 * h)
            assert fd == pytest.approx(co.model_volume_prime(-0.25, 1.5, 2, r), abs=1e-8)
        assert co.model_volume(-0.25, 1.5, 2, 0.0) == 0.0


class TestBoundSweep:
    def test_funk_meets_its_bounds(self, zoo):
        sweep = co.curvature_bound_sweep(zoo["funk"], -0.25, 1.5, n_samples=20)
        assert sweep.ok
        assert sweep.min_ricci_ratio == pytest.approx(-0.25, abs=1e-8)
        assert sweep.min_s_ratio == pytest.approx(1.5, abs=1e-8)

    def test_euclid_fails_positive_lambda(self, zoo):
        sweep = co.curvature_bound_sweep(zoo["euclidean"], 0.5, 0.0, n_samples=10)
        assert not sweep.ok


class TestRatioMonotonicity:
    def test_funk_is_the_equality_model(self, zoo):
        rep = co.ratio_monotonicity_check(
            zoo["funk"], [0.0, 0.0], -0.25, 1.5, [0.5, 1.0, 2.0],
            n_samples=2_000_000, sweep_samples=10,
        )
        assert not rep.skipped
        assert rep.monotone_ok
        for r, mu, err, V, ratio in rep.rows:
            assert ratio == pytest.approx(1.0, abs=5e-3)

    def test_euclid_flat_model_ratio_one(self, zoo):
        rep = co.ratio_monotonicity_check(
            zoo["euclidean"], [0.0, 0.0], 0.0, 0.0, [0.5, 1.0],
            distance_source="geodesic_polar", sweep_samples=10, n_dirs=48,
        )
        assert not rep.skipped
        assert rep.monotone_ok
        for r, mu, err, V, ratio in rep.rows:
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_sphere_bishop_gromov(self, zoo):
        rep = co.ratio_monotonicity_check(
            zoo["riemannian_sphere"], [0.2, 0.1], 1.0, 0.0,
            [0.5, 1.0, 1.5, 2.0, 2.5], distance_source="geodesic_polar",
            sweep_samples=10, n_dirs=48,
        )
        assert not rep.skipped
        assert rep.monotone_ok

    def test_a_chart_exit_is_noted(self, zoo):
        # the sphere's chart ends at distance 3.00: the 3.2 row is the polar
        # lower bound that ball_volume flags, and the report says so
        metric = zoo["riemannian_sphere"]
        rep = co.ratio_monotonicity_check(
            metric, [0.0, 0.0], 0.0, 0.0, [1.0, 2.0, 3.2],
            distance_source="geodesic_polar", sweep_samples=10, n_dirs=16)
        assert rep.note == "lower bound: chart exit before radius"
        assert rep.monotone_ok and not rep.skipped
        est = ball_volume(metric, BallSpec([0.0, 0.0], 3.2, "geodesic_polar"), n_dirs=16)
        assert est.flagged and est.note == rep.note
        assert rep.rows[2][1] == pytest.approx(est.value, rel=1e-12)
        inside = co.ratio_monotonicity_check(
            metric, [0.0, 0.0], 0.0, 0.0, [1.0, 2.0],
            distance_source="geodesic_polar", sweep_samples=10, n_dirs=16)
        assert inside.note == "" and inside.monotone_ok

    def test_guard_skips_on_violated_bounds(self, zoo):
        # deliberately violating metric: flat space cannot meet lambda = 1
        rep = co.ratio_monotonicity_check(
            zoo["euclidean"], [0.0, 0.0], 1.0, 0.0, [0.5, 1.0],
            sweep_samples=10,
        )
        assert rep.skipped
        assert rep.rows == []
        assert not rep.precondition.ok


class TestConjugatePoints:
    def test_sphere_at_pi(self, zoo):
        rep = co.conjugate_point_bound(zoo["riemannian_sphere"], [0.3, 0.2],
                                       [0.4, -0.1], 1.0, sweep_samples=10)
        assert not rep.inconclusive
        assert rep.t_conjugate == pytest.approx(np.pi, abs=1e-3)
        assert rep.within_bound

    def test_unit_speed_invariance(self, zoo):
        rep = co.conjugate_point_bound(zoo["riemannian_sphere"], [0.3, 0.2],
                                       [4.0, -1.0], 1.0, sweep_samples=10)
        assert rep.t_conjugate == pytest.approx(np.pi, abs=1e-3)

    def test_euclid_rejected(self, zoo):
        with pytest.raises(PreconditionError):
            co.conjugate_point_bound(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0],
                                     1.0, sweep_samples=5)

    def test_nonpositive_lambda_rejected(self, zoo):
        with pytest.raises(PreconditionError):
            co.conjugate_point_bound(zoo["riemannian_sphere"], [0.0, 0.1],
                                     [1.0, 0.0], -1.0)
