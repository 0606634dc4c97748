"""Volume machinery: MC region integrals, ball volumes via two routes, the
Funk ball formula, coarea consistency and the small-ball expansion."""

import numpy as np
import pytest

from finslerlab import measures as me
from finslerlab.errors import ConfigurationError, PreconditionError
from finslerlab.minkowski import density_field

from conftest import grad_phi


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

    def test_closed_form_equals_the_integral(self):
        from scipy.integrate import quad

        from finslerlab._grids import unit_ball_volume

        for n in (2, 3, 4):
            for r in (1e-3, 0.1, 1.0, 5.0, 40.0):
                val, _ = quad(lambda t: np.exp(-(n + 1) * t) * np.sinh(t) ** (n - 1),
                              0.0, r / 2.0, epsabs=1e-14, epsrel=1e-13)
                ref = n * 2 ** n * unit_ball_volume(n) * val
                assert me.funk_ball_formula(n, r) == pytest.approx(ref, rel=1e-14)

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

    def test_working_memory_is_one_block_plus_the_accepted_rows(self, zoo):
        """numpy reports its buffers to tracemalloc, which counts the whole
        array that a chunk's accepted rows are written into (15.3 MiB for 1e6
        rows at n = 2), though only the pages that rows reach become
        resident.  A 1e6-point Funk ball at r = 1 peaked at 54 MiB when the
        draw, chart test and distances ran over the whole chunk, and at 14.3
        MiB in blocks whose accepted rows were then joined into a second
        copy; with the one array it peaks at 17.9 MiB, while its resident
        peak is 9.8 MiB above the start, where the two copies took 14.2."""
        import tracemalloc

        ball = me.BallSpec(np.zeros(2), 1.0, "funk_closed_form")
        tracemalloc.start()
        try:
            est = me.ball_volume(zoo["funk"], ball, n_samples=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not est.flagged
        assert peak < 24 * 2 ** 20


class TestSampleCount:
    """Both Monte-Carlo routes refuse a sample count that is not an integer
    >= 1 (a count of 0 divided by zero, a negative one gave -0.0)."""

    BAD = (0, -5, 2.5, 1000.0, True, None)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_bh_volume(self, zoo, bad):
        with pytest.raises(ConfigurationError):
            me.bh_volume(zoo["euclidean"], lambda p: np.ones(len(p), dtype=bool),
                         ((-1, -1), (1, 1)), n_samples=bad)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_ball_volume(self, zoo, bad):
        for source, name in (("funk_closed_form", "funk"), ("hilbert_closed_form", "hilbert")):
            with pytest.raises(ConfigurationError):
                me.ball_volume(zoo[name], me.BallSpec([0.0, 0.0], 1.0, source), n_samples=bad)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_unit_body_volume_mc(self, zoo, bad, monkeypatch):
        from finslerlab import minkowski

        monkeypatch.setattr(minkowski, "_MC_CHECK_SAMPLES", bad)
        with pytest.raises(ConfigurationError):
            minkowski.unit_body_volume_mc(zoo["quartic_norm"], [0.0, 0.0])

    def test_one_sample_is_an_estimate(self, zoo):
        est = me.bh_volume(zoo["euclidean"], lambda p: np.ones(len(p), dtype=bool),
                           ((-1, -1), (1, 1)), n_samples=1)
        assert est.n_samples == 1 and est.value == 4.0


class TestBallCentre:
    """A centre of the wrong length or with a non-finite entry is refused on
    every route; a (1,) centre used to be read as a shorter point, a (3,) one
    raised an IndexError, and [0, nan] returned a volume."""

    BAD = ([0.1, 0.0, 0.0], [0.1], [0.0, np.nan], [np.inf, 0.0], [[0.0, 0.0]])

    @pytest.mark.parametrize("centre", BAD, ids=repr)
    @pytest.mark.parametrize("name,source", [
        ("funk", "funk_closed_form"), ("hilbert", "hilbert_closed_form"),
        ("hilbert_quartic", "hilbert_closed_form"), ("funk_quartic", "funk_closed_form"),
        ("funk", "geodesic_polar"), ("riemannian_hyperbolic", "geodesic_polar")])
    def test_malformed_centre_is_refused(self, zoo, name, source, centre):
        with pytest.raises(ConfigurationError):
            me.ball_volume(zoo[name], me.BallSpec(centre, 1.0, source), n_samples=100)


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
        # within three combined standard errors
        assert abs(mc.value - quadr.value) <= max(3.0 * np.hypot(mc.stderr, quadr.stderr), 1e-12)

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
            me.BallSpec([0, 0], np.nan, "geodesic_polar")
        with pytest.raises(ConfigurationError):
            me.BallSpec([0, 0], 1.0, "teleport")

    @pytest.mark.parametrize("radius", [np.nan, 0.0, -1.0, np.inf])
    @pytest.mark.parametrize("name", ["euclidean", "funk", "riemannian_hyperbolic"])
    def test_polar_radius_refused_before_any_flow(self, zoo, monkeypatch, name, radius):
        # a flow to t = inf or nan would not end (euclidean r = inf had not
        # returned after 20 s), so the radii are checked first
        def no_flow(*args):
            raise AssertionError("a polar flow started")

        monkeypatch.setattr(me, "_polar_flow", no_flow)
        metric = zoo[name]
        for radii in ([radius], [0.5, radius]):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                me.polar_ball_volumes(metric, np.zeros(metric.n), radii, n_dirs=4)
        with pytest.raises(ConfigurationError):
            me.ball_volume(metric, me.BallSpec(np.zeros(metric.n), radius, "geodesic_polar"))

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
        est = me.ball_volume(m, me.BallSpec([0.0, 0.0], 3.0, "geodesic_polar"))
        assert est.flagged
        assert "lower bound" in est.note

    def test_polar_twin_exits_end_the_sweep(self, zoo):
        # on 12 directions, twin members reach the chart edge together; the
        # sweep ends with a flagged lower bound instead of integrating on
        mu, exited = me.polar_ball_volumes(zoo["randers_curl"], [0.0, 0.0], [3.0],
                                           n_dirs=12)
        assert exited
        assert np.isfinite(mu[0]) and mu[0] > 0


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


# ---------------------------------------------------------------------------
# The column-wise Monte-Carlo kernel against the row-wise code it replaced
# ---------------------------------------------------------------------------


def _rowwise_exit(dom, X, Y):
    """ConvexDomain.ray_exit as written row by row: sums over the coordinate
    axis, then Newton on phi from the unit-ball exit."""
    xy = np.sum(X * Y, axis=-1)
    yy = np.sum(Y * Y, axis=-1)
    xx = np.sum(X * X, axis=-1)
    s = (np.sqrt(xy * xy + yy * (1.0 - xx)) - xy) / yy
    if dom.kind == "unit_ball":
        return s
    xs = [X[..., i] for i in range(dom.n)]
    ys = [Y[..., i] for i in range(dom.n)]
    while True:
        z = [xi + s * yi for xi, yi in zip(xs, ys)]
        grad = grad_phi(dom, z)
        slope = grad[0] * ys[0]
        for gi, yi in zip(grad[1:], ys[1:]):
            slope = slope + gi * yi
        step = s - dom.phi(z) / slope
        down = step < s
        if not np.any(down):
            return s
        s = np.where(down, step, s)


def _rowwise_funk(dom, p, Q):
    u = Q - p
    out = np.zeros(Q.shape[:-1])
    mask = np.linalg.norm(u, axis=-1) > 0
    if np.any(mask):
        s = _rowwise_exit(dom, np.broadcast_to(p, Q.shape)[mask], u[mask])
        out[mask] = np.log(s / (s - 1.0))
    return out


def _rowwise_hilbert(dom, p, Q):
    forward = _rowwise_funk(dom, p, Q)
    u = p - Q
    out = np.zeros(Q.shape[:-1])
    mask = np.linalg.norm(u, axis=-1) > 0
    if np.any(mask):
        s = _rowwise_exit(dom, Q[mask], u[mask])
        out[mask] = np.log(s / (s - 1.0))
    return 0.5 * (forward + out)


def _rowwise_ball_volume(metric, ball, n_samples, seed, chunk):
    """ball_volume with the row-wise indicator and sampling loop it replaced;
    the density is the library's own."""
    dom = metric.convex_domain
    dist = _rowwise_funk if ball.distance_source == "funk_closed_form" else _rowwise_hilbert

    def indicator(pts):
        out = np.zeros(len(pts), dtype=bool)
        ok = np.asarray(dom.contains(pts), dtype=bool)
        if np.any(ok):
            out[ok] = dist(dom, ball.center, pts[ok]) < ball.radius
        return out

    lo, hi = (np.asarray(b, dtype=float) for b in metric.chart.sample_box)
    rng = np.random.default_rng(seed)
    sigma = density_field(metric)
    total = total_sq = 0.0
    n_inside = done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pts = rng.uniform(lo, hi, size=(m, metric.n))
        inside = indicator(pts) & np.asarray(metric.chart.contains(pts), dtype=bool)
        if np.any(inside):
            v = sigma(pts[inside])
            total += float(np.sum(v))
            total_sq += float(np.sum(v * v))
            n_inside += int(np.sum(inside))
        done += m
    box_vol = float(np.prod(hi - lo))
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return me.MeasureEstimate(value=box_vol * mean, stderr=box_vol * np.sqrt(var / n_samples),
                              n_samples=n_samples, seed=seed, method="monte_carlo",
                              flagged=n_inside == 0,
                              note="zero acceptance" if n_inside == 0 else "")


_KERNEL_CASES = [(kind, n, domain)
                 for kind in ("funk", "hilbert")
                 for n, domain in ((2, "unit_ball"), (3, "unit_ball"), (2, "quartic:0.1"),
                                   (3, "quartic:0.1"))]
_KERNEL_IDS = [f"{kind}{n}-{domain}" for kind, n, domain in _KERNEL_CASES]


@pytest.fixture(scope="module")
def kernel_metrics():
    from finslerlab.metrics import make_metric

    return {case: make_metric(case[0], n=case[1], domain=case[2])
            for case in _KERNEL_CASES}


class TestColumnKernel:
    """Every field of a closed-form MC estimate, the distance batches and the
    ray exits equal the row-wise code bit for bit."""

    @pytest.mark.parametrize("case", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_ball_volume_bit_identical(self, kernel_metrics, case, monkeypatch):
        m = kernel_metrics[case]
        source = f"{case[0]}_closed_form"
        # each Hilbert-quartic sample inside the ball costs a density quadrature
        n_samples = 3000 if source == "funk_closed_form" or case[2] == "unit_ball" else \
            {2: 300, 3: 90}[case[1]]
        chunk = n_samples // 4 + 1  # every estimate runs four chunks
        monkeypatch.setattr(me, "_MC_CHUNK", chunk)
        for center in (np.zeros(case[1]), np.array([0.3, -0.1, 0.2])[:case[1]]):
            for r in (0.5, 1.0, 2.0):
                ball = me.BallSpec(center, r, source)
                got = me.ball_volume(m, ball, n_samples=n_samples, seed=11)
                want = _rowwise_ball_volume(m, ball, n_samples, 11, chunk)
                assert repr(got) == repr(want), (center, r)

    @pytest.mark.parametrize("case", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_ball_volume_bit_identical_across_blocks(self, kernel_metrics, case, monkeypatch):
        """Estimates that span many blocks of an odd size, with chunks that
        are no multiple of it (the last block of each chunk is partial), a
        sample count below one block, a radius at which most blocks accept no
        row, and one at which none does."""
        from finslerlab import _grids

        m = kernel_metrics[case]
        n = case[1]
        source = f"{case[0]}_closed_form"
        cheap = source == "funk_closed_form" or case[2] == "unit_ball"
        n_many = 3000 if cheap else {2: 300, 3: 90}[n]
        block = 257 if cheap else 17
        monkeypatch.setattr(_grids, "_MC_BLOCK", block)
        accepted = []  # accepted rows per indicator call, one call per block
        bh_volume = me.bh_volume

        def counting_bh_volume(metric, indicator, box, **kw):
            def counted(pts):
                mask = indicator(pts)
                accepted.append(int(np.count_nonzero(mask)))
                return mask
            return bh_volume(metric, counted, box, **kw)

        monkeypatch.setattr(me, "bh_volume", counting_bh_volume)
        r_few = (4.0 / n_many) ** (1.0 / n)  # about three rows inside the ball
        center = np.array([0.3, -0.1, 0.2])[:n]
        for n_samples, chunk in ((n_many, n_many // 4 + 1), (block - 4, 4_000_000)):
            assert chunk % block
            monkeypatch.setattr(me, "_MC_CHUNK", chunk)
            for c, r in ((np.zeros(n), 1.0), (center, 0.5), (np.zeros(n), r_few),
                         (np.zeros(n), 1e-6)):
                accepted.clear()
                ball = me.BallSpec(c, r, source)
                got = me.ball_volume(m, ball, n_samples=n_samples, seed=11)
                want = _rowwise_ball_volume(m, ball, n_samples, 11, chunk)
                assert repr(got) == repr(want), (n_samples, c, r)
                assert len(accepted) == sum(-(-min(chunk, n_samples - k) // block)
                                            for k in range(0, n_samples, chunk))
                if n_samples == n_many and r == r_few:
                    assert sum(accepted) > 0 and accepted.count(0) > len(accepted) / 2
                if r == 1e-6:
                    assert got.flagged and not any(accepted)

    def test_draws_match_numpy_uniform(self, monkeypatch):
        from finslerlab import _grids

        lo, hi = np.array([-0.3, -2.0, 0.5]), np.array([0.7, 1.1, 0.6])
        want = np.random.default_rng(2).uniform(lo, hi, size=(1001, 3))
        for block in (_grids._MC_BLOCK, 257):  # one block; three and a partial one
            monkeypatch.setattr(_grids, "_MC_BLOCK", block)
            # each block is a view of one buffer that the next block overwrites
            blocks = [b.copy() for b in
                      _grids.uniform_blocks(np.random.default_rng(2), lo, hi, 1001, 3)]
            assert [b.shape for b in blocks] == ([(3, 1001)] if block > 1001
                                                 else [(3, 257)] * 3 + [(3, 230)])
            np.testing.assert_array_equal(np.concatenate(blocks, axis=1).T, want)
        # a scalar box, as the unit-body sampler draws it
        want = np.random.default_rng(3).uniform(-0.8, 0.8, size=(600, 2))
        got = np.concatenate([b.copy() for b in _grids.uniform_blocks(
            np.random.default_rng(3), -0.8, 0.8, 600, 2)], axis=1).T
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", _KERNEL_CASES, ids=_KERNEL_IDS)
    def test_distance_batches_and_ray_exit_bit_identical(self, kernel_metrics, case):
        from finslerlab.metrics import funk_distance_batch, hilbert_distance_batch

        dom = kernel_metrics[case].convex_domain
        rng = np.random.default_rng(5)
        n = case[1]
        Q = rng.uniform(-0.55, 0.55, size=(400, n))
        for p in (np.zeros(n), Q[7].copy()):  # the second p is also a row of Q
            np.testing.assert_array_equal(funk_distance_batch(dom, p, Q),
                                          _rowwise_funk(dom, p, Q))
            np.testing.assert_array_equal(hilbert_distance_batch(dom, p, Q),
                                          _rowwise_hilbert(dom, p, Q))
        Y = rng.standard_normal((400, n))
        np.testing.assert_array_equal(dom.ray_exit(Q, Y), _rowwise_exit(dom, Q, Y))
        np.testing.assert_array_equal(dom.ray_exit(Q.reshape(20, 20, n), Y.reshape(20, 20, n)),
                                      _rowwise_exit(dom, Q, Y).reshape(20, 20))


def _near_radius_points(dom, p, r, rng, count):
    """Interior points q whose Funk ratio t = s / (s - 1) from p lies near
    e^r: the points at parameter 1 / s* = 1 - e^-r of the way from p to the
    rim, in random directions, each nudged by a few ulps per coordinate."""
    n = dom.n
    theta = rng.standard_normal((count, n))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    exit_ = dom.ray_exit(np.broadcast_to(p, theta.shape), theta)
    q = p + (-np.expm1(-r) * exit_)[:, None] * theta
    steps = rng.integers(-3, 4, size=q.shape)
    return q + steps * np.spacing(q)


class TestFunkBallMask:
    """The Funk ball indicator decides t < e^r and takes log t < r only near
    the radius; every decision is that of funk_distance_batch(...) < r."""

    @pytest.mark.parametrize("r", [709.79, 1e4, np.inf])
    def test_log_below_past_an_infinite_e_to_the_r(self, r):
        from finslerlab.metrics import _log_below

        top = np.finfo(float).max
        t = np.concatenate([top - np.arange(50) * np.spacing(top / 2), np.logspace(-300, 308, 50),
                            [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.log(t) < r
        np.testing.assert_array_equal(_log_below(t, r), want)

    @pytest.mark.parametrize("r", np.concatenate([np.geomspace(1e-9, 50.0, 97), [700.0, 709.78]]))
    def test_log_below_is_the_log_decision_at_ulp_offsets(self, r):
        from finslerlab.metrics import _LOG_BAND, _log_below

        er = np.exp(r)
        ulps = np.arange(-200, 201) * np.spacing(er)
        with np.errstate(over="ignore"):  # e^709.78 (1 + band) and 2 e^709.78 are inf
            edges = np.concatenate([er * (1 - _LOG_BAND) + ulps[::8],
                                    er * (1 + _LOG_BAND) + ulps[::8]])
            t = np.concatenate([er + ulps, edges, [0.0, -0.0, -1.0, 1.0, 0.5 * er, 2.0 * er,
                                                   np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.log(t) < r
        np.testing.assert_array_equal(_log_below(t, r), want)

    def test_offsets_split_the_naive_comparison(self):
        """At ulp offsets from e^r, t < e^r and log t < r disagree often, so
        that a band of 0 fails the test above."""
        split = 0
        for r in np.geomspace(1e-9, 50.0, 97):
            er = np.exp(r)
            t = er + np.arange(-200, 201) * np.spacing(er)
            split += int(np.count_nonzero((t < er) != (np.log(t) < r)))
        assert split > 100

    @pytest.mark.parametrize("case", _KERNEL_CASES[:4], ids=_KERNEL_IDS[:4])
    def test_mask_is_the_distance_decision(self, kernel_metrics, case):
        """On p itself, points a hair inside the rim, random interior
        points, and points whose t lies within a few ulps of e^r, at radii
        where t < e^r and log t < r disagree within 4 ulps of e^r; among
        these points they disagree, so a band of 0 fails here too."""
        from finslerlab.metrics import funk_ball_mask, funk_distance_batch

        dom = kernel_metrics[case].convex_domain
        n = dom.n

        def splits(r):
            t = np.exp(r) + np.arange(-4, 5) * np.spacing(np.exp(r))
            return np.any((t < np.exp(r)) != (np.log(t) < r))

        split = [r for r in np.linspace(0.3, 3.0, 400) if splits(r)]
        rng = np.random.default_rng(7)
        naive_wrong = 0
        for p in (np.zeros(n), np.array([0.3, -0.1, 0.2])[:n]):
            theta = rng.standard_normal((50, n))
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            rim = p + (dom.ray_exit(np.broadcast_to(p, theta.shape), theta)
                       * (1 - 1e-13))[:, None] * theta
            inner = rng.uniform(-0.6, 0.6, size=(400, n))
            for r in (1e-3, 8.0, *split[:3]):
                Q = np.vstack([p, inner, rim, p, _near_radius_points(dom, p, r, rng, 2000)])
                Q = Q[dom.contains(Q)]
                with np.errstate(divide="ignore"):
                    want = funk_distance_batch(dom, p, Q) < r
                np.testing.assert_array_equal(funk_ball_mask(dom, p, Q, r), want)
                assert want[0] and want[len(inner) + len(rim) + 1]  # q = p
                moving = np.any(Q != p, axis=1)
                s = dom.ray_exit(np.broadcast_to(p, Q.shape)[moving], Q[moving] - p)
                naive_wrong += int(np.count_nonzero((s / (s - 1.0) < np.exp(r)) != want[moving]))
        assert naive_wrong > 0


def _grid_density(metric, pts, dirs, w):
    """The Busemann-Hausdorff density by the quadrature rule (dirs, w)."""
    from finslerlab._grids import unit_ball_volume

    shape = (len(pts), *dirs.shape)
    F = metric.F_batch(np.broadcast_to(pts[:, None, :], shape), np.broadcast_to(dirs, shape))
    return unit_ball_volume(metric.n) / (np.sum(w * F ** (-metric.n), axis=-1) / metric.n)


@pytest.mark.parametrize("name", ["hilbert_quartic", "quartic_norm", "quartic_norm3"])
def test_half_grid_density_matches_full_grid(zoo, name):
    """A reversible metric's density runs on one antipodal half of the grid.
    That is the full rule on exactly antipodal node pairs, to the last bit.
    The stock full grid's second half is antipodal only up to rounding: it
    agrees to 1e-14 relative, except within 0.01 of a Hilbert domain's rim,
    where F turns so fast with the direction that the rounding of the stock
    nodes alone moves the density by up to 1.1e-13 relative."""
    from finslerlab._grids import sphere_surface_nodes
    from finslerlab.minkowski import bh_density

    m = zoo[name]
    assert m.reversible
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(400, m.n))
    pts = pts[np.asarray(m.chart.contains(pts), dtype=bool)][:200]
    assert len(pts) == 200
    half = bh_density(m, pts)
    dirs, w = sphere_surface_nodes(m.n, half=True)
    pairs = _grid_density(m, pts, np.vstack([dirs, -dirs]), np.concatenate([w, w]) / 2)
    np.testing.assert_array_equal(half, pairs)
    full = _grid_density(m, pts, *sphere_surface_nodes(m.n))
    far = m.chart.margin(pts) >= 0.01 if m.chart.margin else np.ones(len(pts), dtype=bool)
    np.testing.assert_allclose(half[far], full[far], rtol=1e-14, atol=0)
    np.testing.assert_allclose(half, full, rtol=2e-13, atol=0)
