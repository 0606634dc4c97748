"""Curvature identities: Berwald, Landsberg, S-curvature, Riemann curvature,
constant-curvature ODEs, Jacobi oracle and projective relation."""

import numpy as np
import pytest

from finslerlab import cli
from finslerlab._grids import five_point, richardson_doubling
from finslerlab import curvature as cu
from finslerlab.errors import ChartExitError
from finslerlab.geodesics import integrate_geodesic, spray_jets
from finslerlab.jets import JetSpec, lift
from finslerlab.metrics import make_metric
from finslerlab.minkowski import (
    TangentSample,
    cartan_tensor,
    density_field,
    fundamental_tensor,
    tangent_basis,
)

from conftest import tangent_samples


def _unit_sample(metric, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return TangentSample(x, y / metric.F(x, y))


class TestChartEdge:
    """Stencils that need states past a chart exit raise ChartExitError."""

    @pytest.mark.parametrize("read", [
        lambda m, s: cu.s_curvature(m, s, method="geodesic"),
        lambda m, s: cu.s_curvature(m, s, method="analytic").S_dot,
        cu.landsberg_by_transport,
        cu.landsberg_dot,
        cu.mean_landsberg_by_transport,
    ], ids=["s_geodesic", "s_dot_analytic", "landsberg_by_transport", "landsberg_dot",
            "mean_landsberg_by_transport"])
    def test_chart_exit_is_typed(self, zoo, read):
        # the curl variant lives on the unit ball; the 2h = 0.02 stencil crosses it
        s = TangentSample([0.985, 0.0], [1.0, 0.0])
        with pytest.raises(ChartExitError) as err:
            read(zoo["randers_curl"], s)
        assert 0.0 < err.value.t_exit < 0.02


class TestBerwald:
    def test_vanishes_on_affine_sprays(self, zoo):
        for name in ("euclidean", "riemannian_sphere", "riemannian_hyperbolic",
                     "quartic_norm", "randers_const"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=60):
                bt = cu.berwald_curvature(m, TangentSample(x, y))
                assert bt.norm() < 1e-10

    def test_berwald_product_flat(self, zoo):
        m = zoo["berwald_product"]
        for x, y in tangent_samples(m, 50, seed=61):
            bt = cu.berwald_curvature(m, TangentSample(x, y))
            assert bt.norm() < 1e-8

    def test_symmetry_and_homogeneity(self, zoo):
        import itertools

        for name in ("funk", "randers_curl"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=62):
                bt = cu.berwald_curvature(m, TangentSample(x, y))
                for perm in itertools.permutations(range(3)):
                    permuted = np.transpose(bt.B, (0,) + tuple(1 + p for p in perm))
                    assert np.max(np.abs(permuted - bt.B)) < 1e-9
                scale = max(1.0, np.max(np.abs(bt.B)))
                for lam in (0.5, 2.0):
                    bt2 = cu.berwald_curvature(m, TangentSample(x, lam * y))
                    assert np.max(np.abs(bt2.B - bt.B / lam)) <= 1e-7 * scale

    def test_funk_mean_berwald_formula(self, zoo):
        for name, n in (("funk", 2), ("funk3", 3)):
            m = zoo[name]
            for x, y in tangent_samples(m, 10, seed=63):
                s = TangentSample(x, y)
                bt = cu.berwald_curvature(m, s)
                ft = fundamental_tensor(m, s)
                F = ft.F
                gy = ft.g @ s.y
                formula = (n + 1) / (4 * F ** 3) * (F * F * ft.g - np.outer(gy, gy))
                assert np.max(np.abs(bt.E - formula)) < 1e-6


class TestLandsberg:
    def test_jb_identity_across_zoo(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 50, seed=64):
                s = TangentSample(x, y)
                bt = cu.berwald_curvature(m, s)
                L = cu.landsberg_from_berwald(m, s, bt)
                ft = fundamental_tensor(m, s)
                gy = ft.g @ s.y
                resid = L + 0.5 * np.einsum("mijk,m->ijk", bt.B, gy)
                assert np.max(np.abs(resid)) <= 1e-6 * (1.0 + bt.norm())

    def test_berwald_space_is_landsberg(self, zoo):
        m = zoo["berwald_product"]
        x, y = tangent_samples(m, 1, seed=65)[0]
        s = TangentSample(x, y)
        assert np.max(np.abs(cu.landsberg_from_berwald(m, s))) < 1e-7
        assert np.max(np.abs(cu.landsberg_by_transport(m, s))) < 1e-7

    def test_funk_ll_identity(self, zoo):
        m = zoo["funk"]
        for x, y in tangent_samples(m, 20, seed=66):
            s = TangentSample(x, y)
            L = cu.landsberg_from_berwald(m, s)
            C = cartan_tensor(m, s)
            F = m.F(x, y)
            assert np.max(np.abs(L + 0.5 * F * C)) < 1e-6

    def test_routes_agree_on_randers(self, zoo):
        m = zoo["randers_curl"]
        for x, y in tangent_samples(m, 20, seed=67):
            s = TangentSample(x, y)
            L1 = cu.landsberg_from_berwald(m, s)
            L2 = cu.landsberg_by_transport(m, s)
            scale = max(np.max(np.abs(L1)), np.max(np.abs(L2)))
            assert scale > 1e-4  # non-Landsberg sample
            assert np.max(np.abs(L1 - L2)) <= 1e-5 * scale

    def test_transport_route_widens_roundoff_step(self, zoo):
        # a hopelessly small step is detected and widened, with a warning
        m = zoo["randers_curl"]
        x, y = tangent_samples(m, 1, seed=73)[0]
        s = TangentSample(x, y)
        with pytest.warns(UserWarning, match="widening"):
            L = cu.landsberg_by_transport(m, s, dt=1e-12)
        L_ref = cu.landsberg_from_berwald(m, s)
        assert np.max(np.abs(L - L_ref)) <= 1e-4 * max(1.0, np.max(np.abs(L_ref)))

    def test_landsberg_scale_invariance(self, zoo):
        for name in ("funk", "randers_curl"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=68):
                L1 = cu.landsberg_from_berwald(m, TangentSample(x, y))
                for lam in (0.5, 2.0):
                    L2 = cu.landsberg_from_berwald(m, TangentSample(x, lam * y))
                    assert np.max(np.abs(L2 - L1)) <= 1e-7 * max(
                        1.0, np.max(np.abs(L1)))

    def test_mean_landsberg_two_routes(self, zoo):
        m = zoo["funk"]
        for x, y in tangent_samples(m, 5, seed=71):
            s = _unit_sample(m, x, y)
            J1 = cu.mean_landsberg(m, s)
            J2 = cu.mean_landsberg_by_transport(m, s)
            scale = max(np.max(np.abs(J1)), 1e-6)
            assert np.max(np.abs(J1 - J2)) <= 1e-5 * max(1.0, scale)

    def test_mean_landsberg_route_widens_roundoff_step(self, zoo):
        m = zoo["randers_curl"]
        x, y = tangent_samples(m, 1, seed=73)[0]
        s = TangentSample(x, y)
        with pytest.warns(UserWarning, match="widening"):
            J = cu.mean_landsberg_by_transport(m, s, dt=1e-12)
        J_ref = cu.mean_landsberg(m, s)
        assert np.max(np.abs(J - J_ref)) <= 1e-4 * max(1.0, np.max(np.abs(J_ref)))


class TestSCurvature:
    def test_berwald_s_vanishes(self, zoo):
        m = zoo["berwald_product"]
        for x, y in tangent_samples(m, 6, seed=73):
            sd = cu.s_curvature(m, TangentSample(x, y), method="geodesic")
            assert abs(sd.S) < 1e-6

    def test_funk_s_formula_both_routes(self, zoo):
        for name, n in (("funk", 2), ("funk3", 3)):
            m = zoo[name]
            for x, y in tangent_samples(m, 6, seed=74):
                s = TangentSample(x, y)
                F = m.F(x, y)
                target = (n + 1) / 2.0 * F
                assert cu.s_curvature(m, s, method="analytic").S == pytest.approx(
                    target, abs=1e-6)
                assert cu.s_curvature(m, s, method="geodesic").S == pytest.approx(
                    target, abs=1e-6)

    def test_lazy_s_dot_matches_eager(self, zoo):
        # the eager S-dot, one geodesic stencil and its step pair, as the reference
        for name in ("funk", "randers_curl"):
            m = zoo[name]
            x, y = tangent_samples(m, 1, seed=78)[0]
            s = TangentSample(x, y)
            sigma = density_field(m)

            def s_at(xx, vv, U=None):
                return cu.s_jet_workspace(m, TangentSample(xx, vv), sigma)[0].value

            h = 1e-2 / m.F(x, y)
            sd1, sd2 = cu._stencil_pair(cu._geodesic_stencil(m, s, s_at, h, np.empty((0, m.n))), h)
            sd = cu.s_curvature(m, s, method="analytic")
            assert sd.S == s_at(x, y)
            assert sd.S_dot == (16.0 * sd1 - sd2) / 15.0

    def test_s_only_read_integrates_no_geodesic(self, zoo, monkeypatch):
        calls = []
        real = cu.transport_both_ways

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(cu, "transport_both_ways", counting)
        m = zoo["funk"]
        sd = cu.s_curvature(m, TangentSample([0.5, 0.0], [1.0, 0.0]), method="analytic")
        assert sd.S == pytest.approx(3.0, abs=1e-9)
        assert not calls
        sd.S_dot
        sd.S_dot
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["funk", "funk3", "hilbert_quartic", "randers_curl",
                                      "berwald_product", "riemannian_sphere"])
    def test_stencil_matches_the_four_solve_route(self, zoo, name):
        # the stencil S and S-dot were read from before one two-way transport
        # served them: two integrate_geodesic solves per step, frozen here
        def along_geodesic(m, sample, fn, h):
            out = [None] * 5
            out[2] = fn(sample.x, sample.y)
            for sign, idxs in ((1.0, (3, 4)), (-1.0, (1, 0))):
                path = integrate_geodesic(m, sample.x, sample.y, sign * 2 * h,
                                          t_eval=[0.0, sign * h, sign * 2 * h])
                assert not path.exited
                for slot, k in zip(idxs, (1, 2)):
                    out[slot] = fn(path.x[k], path.v[k])
            return out

        m = zoo[name]
        sigma = density_field(m)

        def tau_at(x, v):
            return 0.5 * np.log(fundamental_tensor(m, TangentSample(x, v)).det_g) - np.log(sigma(x))

        def s_at(x, v):
            return cu.s_jet_workspace(m, TangentSample(x, v), sigma)[0].value

        for x, y in tangent_samples(m, 6, seed=79):
            s = TangentSample(x, y)
            F = m.F(x, y)
            h = 1e-2 / F
            geo = [np.array([five_point(along_geodesic(m, s, tau_at, hh), hh, order)[0]
                             for order in (1, 2)]) for hh in (h, 2 * h)]
            S, S_dot = richardson_doubling(*geo)
            S_dot_an = richardson_doubling(*(five_point(along_geodesic(m, s, s_at, hh), hh)[0]
                                             for hh in (h, 2 * h)))
            got = cu.s_curvature(m, s, method="geodesic")
            got_an = cu.s_curvature(m, s, method="analytic")
            assert abs(got.S - S) <= 1e-11 * max(1.0, F)
            assert abs(got.S_dot - S_dot) <= 1e-8 * max(1.0, F) ** 2
            assert got_an.S == s_at(x, y)
            assert abs(got_an.S_dot - S_dot_an) <= 1e-8 * max(1.0, F) ** 2

    def test_funk3_s_dot_near_boundary(self):
        funk3 = make_metric("funk", n=3)
        stack = cli._samples_for(funk3, 20)
        s = TangentSample(stack.x[4], stack.y[4])
        np.testing.assert_allclose(s.x, [0.225, 0.5, -0.828], atol=1e-12)
        assert np.isfinite(cu.s_curvature(funk3, s, method="analytic").S_dot)

    def test_funk_worked_point(self, zoo):
        # F = 2 at this sample, so S = 3 in dimension 2
        m = zoo["funk"]
        sd = cu.s_curvature(m, TangentSample([0.5, 0.0], [1.0, 0.0]),
                            method="analytic")
        assert sd.S == pytest.approx(3.0, abs=1e-9)

    def test_s_homogeneity(self, zoo):
        for name in ("funk", "randers_curl"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=75):
                S1 = cu.s_curvature(m, TangentSample(x, y), method="analytic").S
                for lam in (0.5, 2.0):
                    S2 = cu.s_curvature(m, TangentSample(x, lam * y),
                                        method="analytic").S
                    assert S2 == pytest.approx(lam * S1, rel=1e-8, abs=1e-10)

    def test_es_identity(self, zoo):
        for name in ("funk", "randers_curl", "hilbert_quartic", "berwald_product"):
            m = zoo[name]
            xs, ys = (np.array(a) for a in zip(*tangent_samples(m, 5, seed=76)))
            a, b, _ = cli._es(m, TangentSample(xs, ys))
            assert np.max(np.abs(a - b)) < 1e-5

    def test_es_identity_fd_route(self, zoo):
        # definition-faithful route: finite differences of the geodesic S
        m = zoo["funk"]
        x, y = tangent_samples(m, 1, seed=77)[0]
        s = TangentSample(x, y)
        bt = cu.berwald_curvature(m, s)
        h = 1e-3

        def S_at(yval):
            return cu.s_curvature(m, TangentSample(x, yval), method="analytic").S

        H = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i], np.eye(2)[j]
                H[i, j] = (
                    S_at(y + h * ei + h * ej) - S_at(y + h * ei - h * ej)
                    - S_at(y - h * ei + h * ej) + S_at(y - h * ei - h * ej)
                ) / (4 * h * h)
        assert np.max(np.abs(H - 2.0 * bt.E)) < 1e-5


def _newton_schulz_spray(metric, x, y, mx, my):
    """spray_jets as before the graded solve: g inverted in the jet algebra
    by Newton-Schulz, A from the x-derivatives of g (a frozen copy, kept as
    the oracle).  Returns G, g^-1, dg/dx ([k][i][j]), the fiber coordinate
    jets and F^2."""
    n = metric.n
    fj = metric.jet(x, y, mx, my)
    f2 = fj * fj
    _, ys = lift(np.asarray(x, dtype=float), np.asarray(y, dtype=float), JetSpec(n, mx, my))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        gi = f2.dy(i)
        for j in range(i, n):
            g[i][j] = g[j][i] = 0.5 * gi.dy(j)
    dgdx = [[[g[i][j].dx(k) for j in range(n)] for i in range(n)] for k in range(n)]

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    g0 = np.array([[g[i][j].value for j in range(n)] for i in range(n)])
    inv0 = np.linalg.inv(np.moveaxis(g0, (0, 1), (-2, -1)))
    ginv = [[g[0][0]._const_like(inv0[..., i, j]) for j in range(n)] for i in range(n)]
    total = g[0][0].vx + g[0][0].vy
    for _ in range(max(1, int(np.ceil(np.log2(total + 1))))):
        GX = matmul(g, ginv)
        ginv = matmul(ginv, [[(2.0 if i == j else 0.0) - GX[i][j] for j in range(n)]
                             for i in range(n)])
    A = [sum((2.0 * dgdx[k][j][l] - dgdx[l][j][k]) * ys[j] * ys[k]
             for j in range(n) for k in range(n)) for l in range(n)]
    G = [0.25 * sum(ginv[i][l] * A[l] for l in range(n)) for i in range(n)]
    return G, ginv, dgdx, ys, f2


def _ginv_s_jet(metric, sample, sigma):
    """The S jet of s_jet_workspace as before the distortion jet: the mean
    Cartan I_i and tr(g^-1 dg/dx^i) contracted with the Newton-Schulz
    inverse (a frozen copy, kept as the oracle)."""
    n = metric.n
    G, ginv, dgdx, ys, f2 = _newton_schulz_spray(metric, sample.x, sample.y, 1, 5)
    C = [[[0.25 * f2.dy(i).dy(j).dy(k) for k in range(n)] for j in range(n)]
         for i in range(n)]
    I = [sum(ginv[j][k] * C[j][k][i] for j in range(n) for k in range(n)) for i in range(n)]
    dlog_sigma = cu._log_density_gradient(sigma, sample.x)
    S = 0.0
    for i in range(n):
        tr = sum(ginv[a][b] * dgdx[i][b][a] for a in range(n) for b in range(n))
        S = S + ys[i] * (0.5 * tr - dlog_sigma[i])
    for i in range(n):
        S = S - 2.0 * G[i] * I[i]
    return S


_ZOO_NAMES = ["euclidean", "euclidean3", "riemannian_sphere", "riemannian_hyperbolic",
              "randers_const", "randers_closed", "randers_curl", "berwald_product",
              "quartic_norm", "quartic_norm3", "funk", "funk3", "funk_quartic", "hilbert",
              "hilbert_quartic"]


class TestGradedSpraySolve:
    """The graded linear solve of spray_jets and the distortion-jet S against
    the Newton-Schulz jet inverse they replaced.  They differ in round-off
    only: on these samples at most 8.1e-14 of G's largest coefficient
    (berwald_product, orders (1, 5)) and 3.6e-15 for S."""

    @pytest.mark.parametrize("orders", [(1, 3), (1, 5), (2, 4)])
    @pytest.mark.parametrize("name", _ZOO_NAMES)
    def test_spray_matches_newton_schulz(self, zoo, name, orders):
        m = zoo[name]
        for x, y in tangent_samples(m, 3, seed=81):
            got = np.array([Gi.coeffs for Gi in spray_jets(m, x, y, *orders).G])
            want = np.array([Gi.coeffs for Gi in _newton_schulz_spray(m, x, y, *orders)[0]])
            assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("orders", [(1, 3), (1, 5), (2, 4)])
    def test_stack_matches_newton_schulz(self, zoo, orders):
        m = zoo["funk3"]
        X, Y = (np.array(a) for a in zip(*tangent_samples(m, 3, seed=82)))
        got = np.array([Gi.coeffs for Gi in spray_jets(m, X, Y, *orders).G])
        want = np.array([Gi.coeffs for Gi in _newton_schulz_spray(m, X, Y, *orders)[0]])
        scale = np.max(np.abs(want), axis=(0, 2))
        assert np.all(np.max(np.abs(got - want), axis=(0, 2)) <= 2e-12 * scale)
        # each member has the bits of its own single-point call
        for k in range(3):
            one = np.array([Gi.coeffs for Gi in spray_jets(m, X[k], Y[k], *orders).G])
            np.testing.assert_array_equal(got[:, k], one)

    @pytest.mark.parametrize("name", _ZOO_NAMES)
    def test_s_jet_matches_ginv_contraction(self, zoo, name):
        m = zoo[name]
        sigma = density_field(m)
        for x, y in tangent_samples(m, 2, seed=83):
            s = TangentSample(x, y)
            got = cu.s_jet_workspace(m, s, sigma)[0].coeffs
            want = _ginv_s_jet(m, s, sigma).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


class TestRiemannCurvature:
    def test_flat_cases(self, zoo):
        for name in ("euclidean", "quartic_norm", "randers_const"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=78):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                assert np.max(np.abs(rep.R)) < 1e-12
                assert np.max(np.abs(rep.principal)) < 1e-12

    def test_funk_constant_quarter(self, zoo):
        for name in ("funk", "funk3"):
            m = zoo[name]
            for x, y in tangent_samples(m, 20, seed=79):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                assert np.max(np.abs(rep.principal + 0.25)) < 1e-6

    def test_axis_direction_gets_a_transverse_basis(self, zoo):
        # g_y y = (17.2, -17.4, 4.5) here, so ranking by |g_y(e_i, y)| alone
        # picked e1 = y; the g_y-cosine ranks it last
        rep = cu.riemann_curvature(zoo["funk3"], TangentSample((0.45, -0.7, 0.18), (1, 0, 0)))
        assert np.max(np.abs(rep.principal + 0.25)) < 1e-6

    def test_hilbert_constant_minus_one(self, zoo):
        for name in ("hilbert", "hilbert_quartic"):
            m = zoo[name]
            for x, y in tangent_samples(m, 20, seed=80):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                assert np.max(np.abs(rep.principal + 1.0)) < 1e-5

    def test_sphere_constant_plus_one(self, zoo):
        m = zoo["riemannian_sphere"]
        for x, y in tangent_samples(m, 10, seed=81):
            rep = cu.riemann_curvature(m, TangentSample(x, y))
            assert np.max(np.abs(rep.principal - 1.0)) < 1e-6

    def test_structural_invariants(self, zoo):
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=82):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                assert rep.Ry_y_norm < 1e-7
                assert rep.self_adjoint_defect < 1e-7
                total = rep.F ** 2 * np.sum(rep.principal)
                assert rep.ricci == pytest.approx(
                    total, rel=1e-6, abs=1e-8 * max(1.0, rep.F ** 2))

    def test_kappa_scale_invariance(self, zoo):
        for name in ("funk", "hilbert_quartic", "randers_curl"):
            m = zoo[name]
            for x, y in tangent_samples(m, 5, seed=83):
                k1 = cu.riemann_curvature(m, TangentSample(x, y)).principal
                for lam in (0.5, 2.0):
                    k2 = cu.riemann_curvature(m, TangentSample(x, lam * y)).principal
                    assert np.max(np.abs(k2 - k1)) < 1e-7 * max(1.0, np.max(np.abs(k1)))

    def test_homogeneity_of_r(self, zoo):
        m = zoo["funk"]
        for x, y in tangent_samples(m, 5, seed=84):
            R1 = cu.riemann_curvature(m, TangentSample(x, y)).R
            for lam in (0.5, 2.0):
                R2 = cu.riemann_curvature(m, TangentSample(x, lam * y)).R
                assert np.max(np.abs(R2 - lam ** 2 * R1)) <= 1e-7 * max(
                    1.0, np.max(np.abs(R1)))

    def test_flag_constant_field(self, zoo):
        rep = cu.riemann_curvature(zoo["funk"], TangentSample([0.3, 0.1], [0.5, -0.2]))
        assert rep.flag_constant == pytest.approx(-0.25, abs=1e-9)

    def test_constants_in_dimension_three(self):
        # the same constants through the n = 3 pipelines, including the
        # implicit (root-found) evaluator on the quartic domain
        from finslerlab import metrics

        cases = [
            (metrics.make_hilbert(3), -1.0),
            (metrics.make_sphere(3), 1.0),
            (metrics.make_hilbert(3, domain="quartic:0.1"), -1.0),
        ]
        rng = np.random.default_rng(88)
        for m, kappa in cases:
            for _ in range(3):
                x = rng.uniform(-0.35, 0.35, 3)
                y = rng.uniform(-1, 1, 3)
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                assert np.max(np.abs(rep.principal - kappa)) < 1e-9

    def test_funk_constant_on_general_domain(self, zoo):
        # the quarter constant is domain-independent
        m = zoo["funk_quartic"]
        for x, y in tangent_samples(m, 10, seed=89):
            rep = cu.riemann_curvature(m, TangentSample(x, y))
            assert np.max(np.abs(rep.principal + 0.25)) < 1e-9


class TestNumataAndBoundedness:
    def test_numata_witness(self, zoo):
        # constant-curvature non-Riemannian metrics cannot be Landsberg
        for name in ("funk", "hilbert_quartic"):
            m = zoo[name]
            worst = 0.0
            for x, y in tangent_samples(m, 10, seed=85):
                L = cu.landsberg_from_berwald(m, TangentSample(x, y))
                worst = max(worst, float(np.max(np.abs(L))))
            assert worst > 1e-3

    def test_funk_cartan_bounded_along_geodesics(self, zoo):
        m = zoo["funk"]
        _, norms = cu.cartan_norm_along(m, [0.1, 0.0], [0.6, 0.2],
                                        np.linspace(0, 5, 21))
        assert np.max(norms) <= 2.0 * norms[0]

    def test_hilbert_quartic_cartan_grows(self, zoo):
        m = zoo["hilbert_quartic"]
        ts, norms = cu.cartan_norm_along(m, [0.2, 0.1], [0.5, -0.3],
                                         np.linspace(0, 3, 13))
        assert norms[-1] > 2.0 * norms[0]
        # growth consistent with a sinh + b cosh: fit on the squared profile
        A = np.column_stack([np.sinh(ts), np.cosh(ts)])
        coef, *_ = np.linalg.lstsq(A, norms, rcond=None)
        pred = A @ coef
        assert np.max(np.abs(pred - norms)) < 0.05 * np.max(norms)


class TestConstantCurvatureOde:
    def test_hilbert_fit_predicts(self, zoo):
        m = zoo["hilbert_quartic"]
        ts = np.linspace(0.0, 1.5, 16)
        fit = cu.constant_curvature_ode_check(m, [0.2, 0.1], [0.5, -0.3], -1.0, ts)
        assert fit.scale > 1e-3
        assert fit.prediction_error < 1e-4
        assert fit.Ctilde_prediction_error < 1e-4
        assert fit.L_matches_Cprime < 1e-4

    def test_funk_fit_with_rescaled_forms(self, zoo):
        m = zoo["funk"]
        ts = np.linspace(0.0, 1.5, 16)
        fit = cu.constant_curvature_ode_check(m, [0.1, 0.05], [0.7, -0.1], -0.25, ts)
        assert fit.prediction_error < 1e-4

    def test_euclid_fit_is_zero(self, zoo):
        fit = cu.constant_curvature_ode_check(zoo["euclidean"], [0.1, 0.05],
                                              [0.7, -0.1], 0.0,
                                              np.linspace(0, 1.5, 16))
        assert np.max(np.abs(fit.fit_coeffs)) < 1e-12
        assert fit.prediction_error < 1e-12

    def test_wrong_kappa_reports_large_error(self, zoo):
        # non-constant-curvature input: the fit reports, it does not raise
        m = zoo["randers_curl"]
        fit = cu.constant_curvature_ode_check(m, [0.1, 0.2], [0.7, -0.3], -1.0,
                                              np.linspace(0, 1.5, 16))
        assert np.isfinite(fit.prediction_error)

    def test_funk_dot_lc_residual(self, zoo):
        m = zoo["funk"]
        for x, y in tangent_samples(m, 6, seed=86):
            s = _unit_sample(m, x, y)
            assert cu.dot_lc_residual(m, s, -0.25) < 1e-5

    def test_hilbert_kk_identity(self, zoo):
        m = zoo["hilbert_quartic"]
        for x, y in tangent_samples(m, 6, seed=87):
            s = _unit_sample(m, x, y)
            Ld = cu.landsberg_dot(m, s)
            C = cartan_tensor(m, s)
            F = m.F(s.x, s.y)
            assert np.max(np.abs(Ld - F * F * C)) < 1e-4


class TestJacobiOracle:
    def test_euclidean(self, zoo):
        rep = cu.jacobi_oracle(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0],
                               [0.0, 1.0], 2.0)
        assert rep.max_residual < 1e-10

    def test_sphere_residual_and_zero(self, zoo):
        m = zoo["riemannian_sphere"]
        x = np.array([0.3, 0.2])
        y = np.array([0.4, -0.1])
        y = y / m.F(x, y)
        v = tangent_basis(fundamental_tensor(m, TangentSample(x, y)), y)[0]
        rep = cu.jacobi_oracle(m, x, y, v, 2.0)
        assert rep.max_residual < 1e-5
        rep = cu.jacobi_oracle(m, x, y, v, 3.4)
        assert rep.first_zero == pytest.approx(np.pi, abs=1e-3)

    def test_funk(self, zoo):
        m = zoo["funk"]
        x = np.array([0.1, 0.0])
        y = np.array([0.6, 0.2])
        y = y / m.F(x, y)
        v = tangent_basis(fundamental_tensor(m, TangentSample(x, y)), y)[0]
        rep = cu.jacobi_oracle(m, x, y, v, 2.0)
        assert rep.max_residual < 1e-5


class TestProjectiveOde:
    def test_same_metric_trivial(self, zoo):
        m = zoo["funk"]
        r = cu.projective_ode_check(m, m, -0.25, -0.25, [0.2, 0.1], [0.5, -0.3],
                                    np.linspace(0, 2, 41))
        assert r < 1e-10

    def test_funk_hilbert_both_ways(self, zoo):
        ts = np.linspace(0.0, 2.0, 41)
        r1 = cu.projective_ode_check(zoo["funk"], zoo["hilbert"], -0.25, -1.0,
                                     [0.2, 0.1], [0.5, -0.3], ts)
        r2 = cu.projective_ode_check(zoo["hilbert"], zoo["funk"], -1.0, -0.25,
                                     [0.2, 0.1], [0.5, -0.3], ts)
        assert r1 < 1e-4
        assert r2 < 1e-4

    def test_nonuniform_grid_rejected(self, zoo):
        from finslerlab.errors import PreconditionError

        with pytest.raises(PreconditionError):
            cu.projective_ode_check(zoo["funk"], zoo["hilbert"], -0.25, -1.0,
                                    [0.2, 0.1], [0.5, -0.3],
                                    np.sqrt(np.linspace(0, 4, 41)))
