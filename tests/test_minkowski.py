"""Pointwise tangent-space quantities: fundamental tensor, Cartan torsion,
distortion, BH density, indicatrix geometry and the volume bound."""

import numpy as np
import pytest

from finslerlab import jets, metrics
from finslerlab._grids import sphere_surface_nodes, unit_sphere_area
from finslerlab.errors import (
    ConfigurationError,
    MetricValidityError,
    PreconditionError,
)
from finslerlab.minkowski import (
    TangentSample,
    bh_density,
    cartan_tensor,
    cartan_tilde,
    density_field,
    distortion,
    distortion_derivative_check,
    fundamental_tensor,
    indicatrix_bh_length,
    indicatrix_gauss_oracle,
    indicatrix_riemann,
    indicatrix_sectional,
    mean_cartan,
    santalo_volume,
    tangent_basis,
    unit_body_volume,
    unit_body_volume_mc,
)

from conftest import tangent_samples
from fd_oracle import FdScheme, fd_oracle


class TestFundamentalTensor:
    def test_euclidean_identity(self, zoo):
        for x, y in tangent_samples(zoo["euclidean"], 5):
            ft = fundamental_tensor(zoo["euclidean"], TangentSample(x, y))
            np.testing.assert_allclose(ft.g, np.eye(2), atol=1e-14)

    def test_riemannian_direction_independent(self, zoo):
        m = zoo["riemannian_sphere"]
        x = np.array([0.3, 0.1])
        mats = []
        for theta in np.linspace(0, 2 * np.pi, 20, endpoint=False):
            ft = fundamental_tensor(m, TangentSample(x, [np.cos(theta), np.sin(theta)]))
            mats.append(ft.g)
        spread = max(np.max(np.abs(mats[k] - mats[0])) for k in range(20))
        assert spread < 1e-9

    def test_funk_euler_relation(self, zoo):
        s = TangentSample([0.5, 0.0], [1.0, 0.0])
        ft = fundamental_tensor(zoo["funk"], s)
        assert ft.inner(s.y, s.y) == pytest.approx(4.0, rel=1e-9)

    def test_euler_relation_across_zoo(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 50, seed=31):
                ft = fundamental_tensor(m, TangentSample(x, y))
                F = m.F(x, y)
                assert ft.inner(y, y) == pytest.approx(F * F, rel=1e-9)

    def test_scale_invariance_of_g(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=32):
                g1 = fundamental_tensor(m, TangentSample(x, y)).g
                for lam in (0.5, 2.0):
                    g2 = fundamental_tensor(m, TangentSample(x, lam * y)).g
                    assert np.max(np.abs(g2 - g1)) <= 1e-9 * max(1.0, np.max(np.abs(g1)))

    def test_positive_definite_everywhere(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 50, seed=33):
                ft = fundamental_tensor(m, TangentSample(x, y))
                assert np.min(np.linalg.eigvalsh(ft.g)) > 0
                assert ft.det_g > 0

    def test_not_positive_definite_raises(self):
        # (|y|^4 - 0.9 sum y_i^4)^(1/4) is positive and homogeneous, but its
        # indicatrix is not convex on the diagonal
        m = metrics.MetricSpec(name="broken", n=2, evaluator=metrics._quartic_eval(-0.9),
                               chart=metrics._full_chart(2), reversible=True)
        with pytest.raises(MetricValidityError, match="not positive definite"):
            fundamental_tensor(m, TangentSample([0.0, 0.0], [0.7, 0.7]))

    def test_non_finite_g_raises(self):
        # numpy's Cholesky factors a NaN matrix without complaint
        m = metrics.MetricSpec(name="broken", n=2, chart=metrics._full_chart(2),
                               evaluator=lambda x, y: jets.sqrt(y[0] * y[0] + y[1] * y[1])
                               * float("nan"), reversible=True)
        with pytest.raises(MetricValidityError, match="not finite"):
            fundamental_tensor(m, TangentSample([0.0, 0.0], [0.7, 0.7]))

    def test_stack_members_have_their_single_point_bits(self, zoo):
        for name, m in zoo.items():
            pairs = tangent_samples(m, 20, seed=36)
            xs, ys = (np.array(a) for a in zip(*pairs))
            stacked = fundamental_tensor(m, TangentSample(xs, ys))
            for k, (x, y) in enumerate(pairs):
                single = fundamental_tensor(m, TangentSample(x, y))
                for field in ("g", "g_inv", "det_g", "F"):
                    got = np.asarray(getattr(stacked, field)[k])
                    assert got.tobytes() == np.asarray(getattr(single, field)).tobytes(), \
                        (name, k, field)

    def test_inverse_is_within_round_off(self, zoo):
        for name, m in zoo.items():
            xs, ys = (np.array(a) for a in zip(*tangent_samples(m, 20, seed=37)))
            ft = fundamental_tensor(m, TangentSample(xs, ys))
            err = np.max(np.abs(ft.g_inv @ ft.g - np.eye(m.n)), axis=(-2, -1))
            assert np.all(err <= 4 * m.n * np.finfo(float).eps * np.linalg.cond(ft.g)), name


class TestCartanTorsion:
    def test_vanishes_for_euclidean_and_riemannian(self, zoo):
        for name in ("euclidean", "riemannian_sphere", "riemannian_hyperbolic"):
            m = zoo[name]
            for x, y in tangent_samples(m, 10, seed=34):
                C = cartan_tensor(m, TangentSample(x, y))
                assert np.max(np.abs(C)) < 1e-10

    def test_quartic_nonzero_and_matches_fd(self, zoo):
        m = zoo["quartic_norm"]
        scheme = FdScheme(step=1e-3, richardson_levels=2)

        def g_entry(i, j):
            def f(x, y):
                s = TangentSample(x, y)
                return fundamental_tensor(m, s).g[i, j]
            return f

        worst = 0.0
        some_nonzero = False
        for x, y in tangent_samples(m, 10, seed=35):
            C = cartan_tensor(m, TangentSample(x, y))
            some_nonzero |= np.max(np.abs(C)) > 1e-3
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        b = tuple(1 if q == k else 0 for q in range(2))
                        est = fd_oracle(g_entry(i, j), x, y, (0, 0), b, scheme)
                        assert est.ok
                        worst = max(worst, abs(0.5 * est.value - C[i, j, k]))
        assert some_nonzero
        assert worst < 1e-6

    def test_total_symmetry(self, zoo):
        import itertools

        for name in ("quartic_norm", "funk", "randers_curl"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=36):
                C = cartan_tensor(m, TangentSample(x, y))
                for perm in itertools.permutations(range(3)):
                    assert np.max(np.abs(np.transpose(C, perm) - C)) < 1e-10

    def test_contraction_with_y_vanishes(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 50, seed=37):
                C = cartan_tensor(m, TangentSample(x, y))
                scale = max(np.max(np.abs(C)), 1.0)
                assert np.max(np.abs(np.einsum("ijk,i->jk", C, y))) < 1e-8 * scale

    def test_inverse_homogeneity(self, zoo):
        for name in ("quartic_norm", "funk", "hilbert_quartic"):
            m = zoo[name]
            for x, y in tangent_samples(m, 10, seed=38):
                C1 = cartan_tensor(m, TangentSample(x, y))
                for lam in (0.5, 2.0):
                    C2 = cartan_tensor(m, TangentSample(x, lam * y))
                    assert np.max(np.abs(C2 - C1 / lam)) <= 1e-8 * max(
                        1.0, np.max(np.abs(C1)))

    def test_ctilde_is_y_derivative_of_c(self, zoo):
        m = zoo["quartic_norm"]
        x, y = np.zeros(2), np.array([0.8, 0.5])
        Ct = cartan_tilde(m, TangentSample(x, y))
        h = 1e-5
        for l in range(2):
            e = np.eye(2)[l]
            Cp = cartan_tensor(m, TangentSample(x, y + h * e))
            Cm = cartan_tensor(m, TangentSample(x, y - h * e))
            fd = (Cp - Cm) / (2 * h)
            assert np.max(np.abs(Ct[..., l] - fd)) < 1e-8


class TestMeanCartanAndDistortion:
    def test_euclidean_mean_cartan_zero(self, zoo):
        I = mean_cartan(zoo["euclidean"], TangentSample([0.1, 0.2], [0.5, 0.4]))
        assert np.max(np.abs(I)) < 1e-14

    def test_mean_cartan_in_y_direction_vanishes(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=39):
                I = mean_cartan(m, TangentSample(x, y))
                assert abs(float(I @ y)) < 1e-8 * max(1.0, np.linalg.norm(I))

    def test_deicke_spot_check(self, zoo):
        # mean Cartan vanishes iff the full Cartan torsion vanishes, sampled
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=40):
                s = TangentSample(x, y)
                C = cartan_tensor(m, s)
                I = mean_cartan(m, s)
                if np.max(np.abs(I)) < 1e-8:
                    assert np.max(np.abs(C)) < 1e-8
                if np.max(np.abs(C)) < 1e-8:
                    assert np.max(np.abs(I)) < 1e-8

    def test_distortion_zero_for_euclidean(self, zoo):
        tau = distortion(zoo["euclidean"], TangentSample([0.1, 0.0], [1.0, 0.3]), 1.0)
        assert tau == pytest.approx(0.0, abs=1e-13)

    def test_distortion_requires_positive_density(self, zoo):
        with pytest.raises(ConfigurationError):
            distortion(zoo["euclidean"], TangentSample([0.1, 0.0], [1.0, 0.3]), -1.0)

    def test_distortion_scale_invariant(self, zoo):
        for name in ("quartic_norm", "funk", "randers_curl"):
            m = zoo[name]
            sigma = density_field(m)
            for x, y in tangent_samples(m, 10, seed=41):
                t1 = distortion(m, TangentSample(x, y), sigma(x))
                for lam in (0.5, 2.0):
                    t2 = distortion(m, TangentSample(x, lam * y), sigma(x))
                    assert t2 == pytest.approx(t1, abs=1e-9)

    def test_derivative_identity(self, zoo):
        # d/dt tau(y + t v) = I_y(v), cross-checked by finite differences
        for name in ("quartic_norm", "randers_curl"):
            m = zoo[name]
            sigma = density_field(m)
            for x, y in tangent_samples(m, 20, seed=42):
                res = distortion_derivative_check(m, TangentSample(x, y), sigma(x))
                assert res < 1e-6


class TestBhDensity:
    def test_euclidean_is_one(self, zoo):
        assert bh_density(zoo["euclidean"], [0.3, 0.4]) == pytest.approx(1.0, abs=1e-12)

    def test_riemannian_matches_sqrt_det(self, zoo):
        for name, sign in (("riemannian_sphere", 1.0), ("riemannian_hyperbolic", -1.0)):
            m = zoo[name]
            for x in ([0.3, 0.1], [0.0, 0.5], [-0.2, -0.4]):
                conf = 2.0 / (1.0 + sign * np.dot(x, x))
                # quadrature route, ignoring the registered closed form
                vol = unit_body_volume(m, x)
                sigma = np.pi / vol
                assert sigma == pytest.approx(conf ** 2, rel=1e-6)

    def test_funk_density_at_origin(self, zoo):
        assert bh_density(zoo["funk"], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-10)

    def test_funk_density_constant(self, zoo):
        m = zoo["funk_quartic"]
        vals = [np.pi / unit_body_volume(m, x)
                for x in ([0.0, 0.0], [0.3, 0.1], [-0.2, 0.4])]
        assert max(vals) - min(vals) < 1e-9

    def test_quadrature_vs_mc(self, zoo, monkeypatch):
        from finslerlab import minkowski

        monkeypatch.setattr(minkowski, "_MC_CHECK_SEED", 99)
        for name in ("quartic_norm", "randers_curl", "hilbert_quartic"):
            m = zoo[name]
            x = [0.1, 0.2]
            # raises NumericalIntegrityError on disagreement beyond 3 sigma
            bh_density(m, x, mc_check=True)

    def test_route_disagreement_raises(self, zoo, monkeypatch):
        from finslerlab import minkowski
        from finslerlab.errors import NumericalIntegrityError

        def broken_mc(metric, x):
            return 1e6, 1e-9

        monkeypatch.setattr(minkowski, "unit_body_volume_mc", broken_mc)
        with pytest.raises(NumericalIntegrityError):
            bh_density(zoo["quartic_norm"], [0.0, 0.0], mc_check=True)

    def test_closed_form_disagreement_raises(self, zoo):
        from dataclasses import replace

        from finslerlab.errors import NumericalIntegrityError

        m = replace(zoo["euclidean"], sigma_bh=lambda x: 2.0)
        with pytest.raises(NumericalIntegrityError,
                           match="closed-form density 2.0 disagrees with quadrature 1.0"):
            bh_density(m, [0.3, 0.4], mc_check=True)

    def test_closed_forms_match_quadrature(self, zoo):
        for name in ("randers_const", "randers_closed", "randers_curl",
                     "berwald_product", "hilbert"):
            m = zoo[name]
            x = np.zeros(m.n) + 0.15
            closed = float(m.sigma_bh(x))
            from finslerlab._grids import unit_ball_volume

            quadr = unit_ball_volume(m.n) / unit_body_volume(m, x)
            assert closed == pytest.approx(quadr, rel=1e-8)


def _one_shot_unit_body_volume_mc(metric, x, n_samples=200_000, seed=0):
    """unit_body_volume_mc as it drew every point in one piece."""
    x = np.asarray(x, dtype=float)
    dirs, _ = sphere_surface_nodes(metric.n)
    half = 1.05 / np.min(metric.F_batch(np.broadcast_to(x, dirs.shape), dirs))
    pts = np.random.default_rng(seed).uniform(-half, half, size=(n_samples, metric.n))
    p = np.mean(metric.F_batch(np.broadcast_to(x, pts.shape), pts) < 1.0)
    box = (2 * half) ** metric.n
    return box * p, box * np.sqrt(max(p * (1 - p), 1e-300) / n_samples)


class TestBlockedUnitBodyMc:
    """The mc_check sampler draws and counts in blocks; its value and stderr
    keep the bits of the one-piece draw and mean."""

    @pytest.mark.parametrize("name", ["hilbert_quartic", "funk3", "quartic_norm",
                                      "randers_curl"])
    def test_bits_of_the_one_shot_draw(self, zoo, name, monkeypatch):
        from finslerlab import _grids, minkowski

        m = zoo[name]
        x = np.zeros(m.n) + 0.1
        # 2e5 points are six full blocks and a partial one
        monkeypatch.setattr(minkowski, "_MC_CHECK_SEED", 4)
        assert repr(unit_body_volume_mc(m, x)) == \
            repr(_one_shot_unit_body_volume_mc(m, x, seed=4))
        monkeypatch.setattr(_grids, "_MC_BLOCK", 257)
        monkeypatch.setattr(minkowski, "_MC_CHECK_SAMPLES", 5000)
        monkeypatch.setattr(minkowski, "_MC_CHECK_SEED", 5)
        assert repr(unit_body_volume_mc(m, x)) == \
            repr(_one_shot_unit_body_volume_mc(m, x, n_samples=5000, seed=5))


class TestStackedBhDensity:
    """bh_density on a stack of points equals the per-point quadrature."""

    def _check(self, m, pts):
        stacked = bh_density(m, pts)
        single = np.array([bh_density(m, p) for p in pts])
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(pts),)
        np.testing.assert_array_equal(stacked, single)

    def test_single_point_stack(self, zoo):
        m = zoo["hilbert_quartic"]
        x = np.array([0.3, -0.2])
        assert isinstance(bh_density(m, x), float)
        self._check(m, x[None, :])

    def test_stack_across_uneven_chunks(self, zoo, monkeypatch):
        from finslerlab import minkowski

        m = zoo["hilbert_quartic"]
        pts = np.random.default_rng(50).uniform(-0.6, 0.6, (7, 2))
        # three points (3 x 360 rays of the half circle grid) per F_batch
        # call: chunks of 3, 3 and 1
        monkeypatch.setattr(minkowski, "_RAY_CHUNK", 3 * 360 + 5)
        self._check(m, pts)

    def test_n2_stack_across_a_default_chunk(self, zoo):
        from finslerlab import minkowski

        m = zoo["hilbert_quartic"]
        per_chunk = minkowski._RAY_CHUNK // 360  # points per F_batch call
        # two default chunks, the second one partial
        pts = np.random.default_rng(52).uniform(-0.6, 0.6, (per_chunk + 7, 2))
        self._check(m, pts)

    def test_n3_quartic_stack(self):
        # 5 points span three chunks of the default size (two points of the
        # 4096-node half sphere grid each), the last one partial
        m = metrics.make_hilbert(3, domain="quartic:0.1")
        pts = np.random.default_rng(51).uniform(-0.4, 0.4, (5, 3))
        self._check(m, pts)

    def test_closed_forms_stack(self, zoo):
        pts = np.array([[0.1, 0.2], [-0.3, 0.05]])
        for name in ("funk", "hilbert", "euclidean"):
            np.testing.assert_array_equal(
                bh_density(zoo[name], pts), [bh_density(zoo[name], p) for p in pts])

    def test_stacked_mc_check(self, zoo, monkeypatch):
        from finslerlab import minkowski

        monkeypatch.setattr(minkowski, "_MC_CHECK_SEED", 99)
        pts = np.array([[0.1, 0.2], [-0.3, 0.05]])
        vals = bh_density(zoo["hilbert_quartic"], pts, mc_check=True)
        assert vals.shape == (2,)


class TestIndicatrix:
    def test_euclidean_sectional_is_one(self, zoo):
        m = zoo["euclidean3"]
        y = np.array([0.0, 0.0, 1.0])
        ft = fundamental_tensor(m, TangentSample(np.zeros(3), y))
        u, v = tangent_basis(ft, y)
        K = indicatrix_sectional(m, y, u, v)
        assert K == pytest.approx(1.0, rel=1e-12)

    def test_euclidean_formula_reduces(self, zoo):
        m = zoo["euclidean3"]
        y = np.array([0.0, 0.0, 1.0])
        ft = fundamental_tensor(m, TangentSample(np.zeros(3), y))
        u, v = tangent_basis(ft, y)
        R = indicatrix_riemann(m, y, u, v, v)
        expect = ft.inner(v, v) * u - ft.inner(u, v) * v
        np.testing.assert_allclose(R, expect, atol=1e-12)

    def test_formula_matches_gauss_oracle(self, zoo):
        m = zoo["quartic_norm3"]
        rng = np.random.default_rng(43)
        count = 0
        for _ in range(10):
            y = rng.normal(size=3)
            y = y / m.F(np.zeros(3), y)
            ft = fundamental_tensor(m, TangentSample(np.zeros(3), y))
            u, v = tangent_basis(ft, y)
            K_formula = indicatrix_sectional(m, y, u, v)
            K_oracle = indicatrix_gauss_oracle(m, y)
            assert K_formula == pytest.approx(K_oracle, rel=1e-4)
            count += 1
        assert count == 10

    def test_quartic_curvature_not_constant_one(self, zoo):
        # the norm is not Euclidean, so somewhere the curvature leaves 1
        m = zoo["quartic_norm3"]
        rng = np.random.default_rng(44)
        devs = []
        for _ in range(12):
            y = rng.normal(size=3)
            y = y / m.F(np.zeros(3), y)
            ft = fundamental_tensor(m, TangentSample(np.zeros(3), y))
            u, v = tangent_basis(ft, y)
            devs.append(abs(indicatrix_sectional(m, y, u, v) - 1.0))
        assert max(devs) > 1e-3

    def test_tangency_precondition(self, zoo):
        m = zoo["quartic_norm3"]
        y = np.array([1.0, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            indicatrix_riemann(m, y, y, [0, 1, 0], [0, 0, 1])

    def test_x_dependent_metric_rejected(self, zoo):
        with pytest.raises(PreconditionError):
            indicatrix_gauss_oracle(zoo["funk3"], np.array([1.0, 0.0, 0.0]))


class TestSantalo:
    def test_euclidean_circle(self, zoo):
        assert santalo_volume(zoo["euclidean"]) == pytest.approx(2 * np.pi, abs=1e-8)

    def test_euclidean_sphere(self, zoo):
        assert santalo_volume(zoo["euclidean3"]) == pytest.approx(4 * np.pi, abs=1e-5)

    @pytest.mark.parametrize("name", ["euclidean", "euclidean3"])
    def test_euclidean_equals_the_sphere_area(self, zoo, name):
        metric = zoo[name]
        assert abs(santalo_volume(metric) - unit_sphere_area(metric.n)) < 1e-13

    def test_quartic_strictly_below(self, zoo):
        v2 = santalo_volume(zoo["quartic_norm"])
        assert 2 * np.pi - v2 > 1e-4
        v3 = santalo_volume(zoo["quartic_norm3"])
        assert 4 * np.pi - v3 > 1e-4

    def test_rejects_nonreversible(self, zoo):
        with pytest.raises(PreconditionError):
            santalo_volume(metrics.make_randers(
                2, variant="const", c=0.3))

    def test_bh_indicatrix_length_reported(self, zoo):
        # reported quantity: positive, equal to 2 pi in the Euclidean case
        assert indicatrix_bh_length(zoo["euclidean"]) == pytest.approx(
            2 * np.pi, abs=1e-8)
        val = indicatrix_bh_length(zoo["quartic_norm"])
        assert 0 < val < 2 * np.pi + 1.0


def _broadcast_unit_body_volume(metric, x):
    """unit_body_volume as it broadcast every base point over the direction
    grid before F_batch."""
    from finslerlab import minkowski

    x = np.asarray(x, dtype=float)
    dirs, w = sphere_surface_nodes(metric.n, half=metric.reversible)
    pts = x.reshape(-1, metric.n)
    per_chunk = max(1, minkowski._RAY_CHUNK // len(dirs))
    vol = np.empty(len(pts))
    for k in range(0, len(pts), per_chunk):
        block = pts[k:k + per_chunk, None, :]
        shape = (len(block), *dirs.shape)
        F = metric.F_batch(np.broadcast_to(block, shape), np.broadcast_to(dirs, shape))
        vol[k:k + per_chunk] = np.sum(w * F ** (-metric.n), axis=-1) / metric.n
    return float(vol[0]) if x.ndim == 1 else vol


class TestBasePointColumns:
    """unit_body_volume hands F_batch its base points as (k, 1, n) against the
    (d, n) grid; every volume keeps the bits of the broadcast rows."""

    @pytest.fixture(scope="class")
    def metrics3(self):
        from finslerlab.metrics import make_hilbert

        return {"hilbert_quartic3": make_hilbert(3, domain="quartic:0.1")}

    @pytest.mark.parametrize("name", ["hilbert_quartic", "quartic_norm", "quartic_norm3",
                                      "hilbert_quartic3", "randers_curl", "funk_quartic"])
    def test_bits_of_the_broadcast_rows(self, zoo, metrics3, name, monkeypatch):
        from finslerlab import minkowski

        m = zoo[name] if name in zoo else metrics3[name]
        pts = np.random.default_rng(60).uniform(-0.5, 0.5, (9, m.n))
        assert unit_body_volume(m, pts[0]) == _broadcast_unit_body_volume(m, pts[0])
        np.testing.assert_array_equal(unit_body_volume(m, pts[:1]),
                                      _broadcast_unit_body_volume(m, pts[:1]))
        dirs, _ = sphere_surface_nodes(m.n, half=m.reversible)
        # four points per block: blocks of 4, 4 and 1, so a boundary falls mid-stack
        monkeypatch.setattr(minkowski, "_RAY_CHUNK", 4 * len(dirs) + 3)
        got = unit_body_volume(m, pts)
        np.testing.assert_array_equal(got, _broadcast_unit_body_volume(m, pts))
        assert isinstance(got, np.ndarray) and got.shape == (9,)

    def test_shared_base_point_of_the_mc_sampler(self, zoo, monkeypatch):
        """unit_body_volume_mc passes its one base point unbroadcast."""
        from finslerlab import minkowski

        monkeypatch.setattr(minkowski, "_MC_CHECK_SAMPLES", 70_000)
        monkeypatch.setattr(minkowski, "_MC_CHECK_SEED", 8)
        m = zoo["hilbert_quartic"]
        x = np.array([0.2, -0.3])
        assert repr(unit_body_volume_mc(m, x)) == \
            repr(_one_shot_unit_body_volume_mc(m, x, n_samples=70_000, seed=8))
