"""Acceptance criteria: every numbered requirement as one test, each printing
a pass/fail line with its measured value and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds throughout).
"""

import time

import numpy as np

from finslerlab import cli
from finslerlab import comparison as co
from finslerlab import curvature as cu
from finslerlab import measures as me
from finslerlab.minkowski import (
    TangentSample,
    cartan_tensor,
    fundamental_tensor,
    indicatrix_gauss_oracle,
    indicatrix_sectional,
    santalo_volume,
    tangent_basis,
)

from conftest import tangent_samples


def _report(num, label, value, tol, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] criterion {num}: {label} (value {value:.3e}, tol {tol:.1e}){timing}")
    assert ok, f"criterion {num}: {label}: {value} vs tolerance {tol}"


class TestAcceptance:
    def test_criterion_01_funk_constant_curvature(self, zoo):
        t0 = time.perf_counter()
        worst = 0.0
        for name in ("funk", "funk3"):
            m = zoo[name]
            for x, y in tangent_samples(m, 20, seed=101):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                worst = max(worst, float(np.max(np.abs(rep.principal + 0.25))))
        elapsed = time.perf_counter() - t0
        _report(1, "Funk principal curvatures = -1/4, n in {2,3}",
                worst, 1e-6, worst < 1e-6 and elapsed < 30.0, elapsed)

    def test_criterion_02_hilbert_constant_curvature(self, zoo):
        t0 = time.perf_counter()
        worst = 0.0
        for name in ("hilbert", "hilbert_quartic"):
            m = zoo[name]
            for x, y in tangent_samples(m, 20, seed=102):
                rep = cu.riemann_curvature(m, TangentSample(x, y))
                worst = max(worst, float(np.max(np.abs(rep.principal + 1.0))))
        elapsed = time.perf_counter() - t0
        _report(2, "Hilbert principal curvatures = -1 (ball and quartic domain)",
                worst, 1e-5, worst < 1e-5 and elapsed < 60.0, elapsed)

    def test_criterion_03_okada_equation(self, zoo):
        m = zoo["funk"]
        xs, ys = (np.array(a) for a in zip(*tangent_samples(m, 50, seed=103)))
        a, b, _ = cli._okada(m, TangentSample(xs, ys))
        worst = float(np.max(np.abs(a - b)))
        _report(3, "Okada residual dF/dx - F dF/dy on Funk samples",
                worst, 1e-8, worst < 1e-8)

    def test_criterion_04_funk_s_and_mean_berwald(self, zoo):
        m = zoo["funk"]
        n = 2
        worst_s = 0.0
        worst_e = 0.0
        for x, y in tangent_samples(m, 20, seed=104):
            s = TangentSample(x, y)
            F = m.F(x, y)
            sd = cu.s_curvature(m, s, method="analytic")
            worst_s = max(worst_s, abs(sd.S - (n + 1) / 2.0 * F))
            bt = cu.berwald_curvature(m, s)
            ft = fundamental_tensor(m, s)
            gy = ft.g @ s.y
            formula = (n + 1) / (4 * F ** 3) * (F * F * ft.g - np.outer(gy, gy))
            worst_e = max(worst_e, float(np.max(np.abs(bt.E - formula))))
        # worked point: F = 2 at x=(0.5,0), y=(1,0), so S = 3
        s3 = cu.s_curvature(m, TangentSample([0.5, 0.0], [1.0, 0.0]),
                            method="analytic").S
        worst = max(worst_s, worst_e, abs(s3 - 3.0))
        _report(4, "Funk S = (n+1)F/2 and the mean Berwald formula",
                worst, 1e-6, worst < 1e-6)

    def test_criterion_05_identity_suite(self, zoo):
        t0 = time.perf_counter()
        worst_jb = 0.0
        worst_es = 0.0
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 50, seed=105):
                s = TangentSample(x, y)
                bt = cu.berwald_curvature(m, s)
                L = cu.landsberg_from_berwald(m, s, bt)
                ft = fundamental_tensor(m, s)
                gy = ft.g @ s.y
                resid = L + 0.5 * np.einsum("mijk,m->ijk", bt.B, gy)
                worst_jb = max(worst_jb,
                               float(np.max(np.abs(resid)) / (1.0 + bt.norm())))
            xs, ys = (np.array(a) for a in zip(*tangent_samples(m, 8, seed=106)))
            a, b, _ = cli._es(m, TangentSample(xs, ys))
            worst_es = max(worst_es, float(np.max(np.abs(a - b))))
        worst_ll = 0.0
        for x, y in tangent_samples(zoo["funk"], 50, seed=107):
            s = TangentSample(x, y)
            L = cu.landsberg_from_berwald(zoo["funk"], s)
            C = cartan_tensor(zoo["funk"], s)
            F = zoo["funk"].F(x, y)
            worst_ll = max(worst_ll, float(np.max(np.abs(L + 0.5 * F * C))))
        worst_kk = 0.0
        for x, y in tangent_samples(zoo["hilbert_quartic"], 6, seed=108):
            m = zoo["hilbert_quartic"]
            s = TangentSample(x, y / m.F(x, y))
            Ld = cu.landsberg_dot(m, s)
            C = cartan_tensor(m, s)
            F = m.F(s.x, s.y)
            worst_kk = max(worst_kk, float(np.max(np.abs(Ld - F * F * C))))
        elapsed = time.perf_counter() - t0
        ok = (worst_jb < 1e-6 and worst_es < 1e-5 and worst_ll < 1e-4
              and worst_kk < 1e-4)
        _report(5, "identity suite: JB / ES / ll (Funk) / kk (Hilbert)",
                max(worst_jb, worst_es, worst_ll, worst_kk), 1e-4, ok, elapsed)

    def test_criterion_06_berwald_suite(self, zoo):
        t0 = time.perf_counter()
        m = zoo["berwald_product"]
        worst_b = 0.0
        worst_l = 0.0
        for x, y in tangent_samples(m, 50, seed=109):
            s = TangentSample(x, y)
            bt = cu.berwald_curvature(m, s)
            worst_b = max(worst_b, bt.norm())
            worst_l = max(worst_l, float(np.max(np.abs(
                cu.landsberg_from_berwald(m, s, bt)))))
        worst_s = 0.0
        for x, y in tangent_samples(m, 6, seed=110):
            worst_s = max(worst_s, abs(cu.s_curvature(
                m, TangentSample(x, y), method="geodesic").S))
        from finslerlab.geodesics import parallel_transport

        worst_f = 0.0
        for x, y in tangent_samples(m, 3, seed=111):
            y = y / m.F(x, y)
            frame = np.eye(3)
            tr = parallel_transport(m, x, y, 2.0, frame)
            for k in range(len(tr.path.t)):
                for v in range(3):
                    F0 = m.F(x, frame[v])
                    Ft = m.F(tr.path.x[k], tr.frames[k][v])
                    worst_f = max(worst_f, abs(Ft - F0) / F0)
        elapsed = time.perf_counter() - t0
        ok = (worst_b < 1e-8 and worst_l < 1e-7 and worst_s < 1e-6
              and worst_f < 1e-6)
        _report(6, "Berwald suite: B, L, S vanish; transport preserves F",
                max(worst_b, worst_l, worst_s, worst_f), 1e-6, ok, elapsed)

    def test_criterion_07_funk_ball_volume(self, zoo):
        t0 = time.perf_counter()
        m = zoo["funk"]
        target = me.funk_ball_formula(2, 1.0)
        worst_rel = 0.0
        ok = True
        for center in ([0.0, 0.0], [0.3, 0.0]):
            est = me.ball_volume(m, me.BallSpec(center, 1.0, "funk_closed_form"),
                                 n_samples=2_000_000, seed=107)
            dev = abs(est.value - target)
            worst_rel = max(worst_rel, dev / target)
            ok &= dev <= 0.01 * target and dev <= 3.0 * est.stderr
            ok &= abs(est.value - 1.2554) <= 0.01 * 1.2554
        est12 = me.ball_volume(m, me.BallSpec([0.0, 0.0], 12.0, "funk_closed_form"),
                               n_samples=1_000_000, seed=108)
        ok &= abs(est12.value - np.pi) <= 0.01 * np.pi
        worst_rel = max(worst_rel, abs(est12.value - np.pi) / np.pi)
        elapsed = time.perf_counter() - t0
        _report(7, "Funk r-ball volume: x-independent, matches the formula, tends to pi",
                worst_rel, 1e-2, ok, elapsed)

    def test_criterion_08_model_volume_equality(self, zoo):
        t0 = time.perf_counter()
        worst = 0.0
        for n in (2, 3):
            delta = (n + 1) / (2.0 * (n - 1))
            for r in np.linspace(0.3, 6.0, 20):
                V = co.model_volume(-0.25, delta, n, r)
                worst = max(worst, abs(V - me.funk_ball_formula(n, r)))
        ok = worst < 1e-8
        m = zoo["funk"]
        worst_ratio = 0.0
        for r, n_mc in ((0.5, 80_000_000), (1.0, 40_000_000), (2.0, 40_000_000)):
            est = me.ball_volume(m, me.BallSpec([0.0, 0.0], r, "funk_closed_form"),
                                 n_samples=n_mc, seed=20240817)
            ratio = est.value / me.funk_ball_formula(2, r)
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
        ok &= worst_ratio <= 1e-3
        elapsed = time.perf_counter() - t0
        _report(8, "model volume V_{-1/4,(n+1)/(2(n-1))} = Funk formula; MC ratio = 1",
                max(worst, worst_ratio), 1e-3, ok, elapsed)

    def test_criterion_09_constant_curvature_ode(self, zoo):
        t0 = time.perf_counter()
        m = zoo["hilbert_quartic"]
        ts = np.linspace(0.0, 1.5, 16)
        worst_fit = 0.0
        scales = []
        for x, y in tangent_samples(m, 3, seed=112):
            fit = cu.constant_curvature_ode_check(m, x, y, -1.0, ts)
            scales.append(fit.scale)
            worst_fit = max(worst_fit, fit.prediction_error)
        # at least one geodesic off the domain's symmetry axes, where the
        # Cartan profile is genuinely nonzero
        assert max(scales) > 1e-3
        mf = zoo["funk"]
        worst_lc = 0.0
        for x, y in tangent_samples(mf, 6, seed=113):
            s = TangentSample(x, y / mf.F(x, y))
            worst_lc = max(worst_lc, cu.dot_lc_residual(mf, s, -0.25))
        elapsed = time.perf_counter() - t0
        ok = worst_fit < 1e-4 and worst_lc < 1e-5
        _report(9, "Hilbert C(t) fit predicts held-out; Funk L-dot + kappa F^2 C = 0",
                max(worst_fit, worst_lc), 1e-4, ok, elapsed)

    def test_criterion_10_projective_ode(self, zoo):
        t0 = time.perf_counter()
        ts = np.linspace(0.0, 2.0, 41)
        r1 = cu.projective_ode_check(zoo["funk"], zoo["hilbert"], -0.25, -1.0,
                                     [0.2, 0.1], [0.5, -0.3], ts)
        r2 = cu.projective_ode_check(zoo["hilbert"], zoo["funk"], -1.0, -0.25,
                                     [0.2, 0.1], [0.5, -0.3], ts)
        elapsed = time.perf_counter() - t0
        worst = max(r1, r2)
        _report(10, "projective pair ODE phi'' + kappa phi = kappa~/phi^3, both ways",
                worst, 1e-4, worst < 1e-4, elapsed)

    def test_criterion_11_santalo(self, zoo):
        t0 = time.perf_counter()
        dev2 = abs(santalo_volume(zoo["euclidean"]) - 2 * np.pi)
        dev3 = abs(santalo_volume(zoo["euclidean3"]) - 4 * np.pi)
        margin2 = 2 * np.pi - santalo_volume(zoo["quartic_norm"])
        margin3 = 4 * np.pi - santalo_volume(zoo["quartic_norm3"])
        elapsed = time.perf_counter() - t0
        ok = dev2 < 1e-5 and dev3 < 1e-5 and margin2 > 1e-4 and margin3 > 1e-4
        _report(11, "indicatrix volume: equality for Euclidean, strict drop for quartic",
                max(dev2, dev3), 1e-5, ok, elapsed)

    def test_criterion_12_indicatrix_curvature_formula(self, zoo):
        t0 = time.perf_counter()
        m = zoo["quartic_norm3"]
        rng = np.random.default_rng(114)
        worst = 0.0
        for _ in range(10):
            y = rng.normal(size=3)
            y = y / m.F(np.zeros(3), y)
            ft = fundamental_tensor(m, TangentSample(np.zeros(3), y))
            u, v = tangent_basis(ft, y)
            K_formula = indicatrix_sectional(m, y, u, v)
            K_oracle = indicatrix_gauss_oracle(m, y)
            worst = max(worst, abs(K_formula - K_oracle) / abs(K_oracle))
        elapsed = time.perf_counter() - t0
        _report(12, "indicatrix curvature formula vs embedded Gauss oracle",
                worst, 1e-4, worst < 1e-4, elapsed)

    def test_criterion_13_jacobi_oracle(self, zoo):
        t0 = time.perf_counter()
        worst = 0.0
        rep = cu.jacobi_oracle(zoo["euclidean"], [0.0, 0.0], [1.0, 0.0],
                               [0.0, 1.0], 2.0)
        worst = max(worst, rep.max_residual)
        msp = zoo["riemannian_sphere"]
        x = np.array([0.3, 0.2])
        y = np.array([0.4, -0.1])
        y = y / msp.F(x, y)
        v = tangent_basis(fundamental_tensor(msp, TangentSample(x, y)), y)[0]
        rep_s = cu.jacobi_oracle(msp, x, y, v, 2.0)
        worst = max(worst, rep_s.max_residual)
        mf = zoo["funk"]
        xf = np.array([0.1, 0.0])
        yf = np.array([0.6, 0.2])
        yf = yf / mf.F(xf, yf)
        vf = tangent_basis(fundamental_tensor(mf, TangentSample(xf, yf)), yf)[0]
        rep_f = cu.jacobi_oracle(mf, xf, yf, vf, 2.0)
        worst = max(worst, rep_f.max_residual)
        conj = co.conjugate_point_bound(msp, x, y, 1.0, sweep_samples=10)
        ok = worst < 1e-5 and abs(conj.t_conjugate - np.pi) < 1e-3
        elapsed = time.perf_counter() - t0
        _report(13, "Jacobi oracle residuals; sphere conjugate point at pi",
                worst, 1e-5, ok, elapsed)

    def test_criterion_14_small_ball_expansion(self, zoo):
        t0 = time.perf_counter()
        rep = me.small_ball_probe(zoo["riemannian_sphere"], [0.2, 0.1],
                                  [0.02, 0.04, 0.06, 0.08, 0.1])
        dev = abs(rep.c2 + 1.0 / 12.0) * 12.0
        # the curvature-average route, -n r(x) / (6 (n + 2)), must agree too
        ratio = rep.c2 / rep.c2_from_rx
        elapsed = time.perf_counter() - t0
        print(f"    c2 = {rep.c2:.6f}, r(x) route gives {rep.c2_from_rx:.6f} "
              f"(ratio {ratio:.4f})")
        _report(14, "round-sphere small-ball coefficient -1/12, both routes",
                max(dev, abs(ratio - 1.0)), 5e-2, dev < 5e-2 and abs(ratio - 1.0) < 5e-2,
                elapsed)

    def test_criterion_15_property_suites(self, zoo):
        t0 = time.perf_counter()
        failures = []
        for name, m in zoo.items():
            for x, y in tangent_samples(m, 10, seed=115):
                s = TangentSample(x, y)
                F = m.F(x, y)
                ft = fundamental_tensor(m, s)
                if abs(ft.inner(y, y) - F * F) > 1e-9 * F * F:
                    failures.append((name, "euler"))
                C = cartan_tensor(m, s)
                if np.max(np.abs(C - np.transpose(C, (1, 0, 2)))) > 1e-10:
                    failures.append((name, "cartan symmetry"))
                for lam in (0.5, 2.0):
                    if abs(m.F(x, lam * y) - lam * F) > 1e-10 * max(1.0, F):
                        failures.append((name, "homogeneity"))
                    g2 = fundamental_tensor(m, TangentSample(x, lam * y)).g
                    if np.max(np.abs(g2 - ft.g)) > 1e-9 * max(1.0, np.max(np.abs(ft.g))):
                        failures.append((name, "g scale invariance"))
        # transport Gram preservation on a representative subset
        from finslerlab.geodesics import parallel_transport

        for name in ("riemannian_sphere", "funk", "hilbert_quartic",
                     "berwald_product"):
            m = zoo[name]
            x, y = tangent_samples(m, 1, seed=116)[0]
            tr = parallel_transport(m, x, y / m.F(x, y), 1.5, np.eye(m.n))
            if tr.gram_drift > 1e-7:
                failures.append((name, "transport gram"))
        # determinism of seeded Monte Carlo
        kw = dict(n_samples=200_000, seed=117)
        a = me.ball_volume(zoo["funk"], me.BallSpec([0.0, 0.0], 1.0,
                                                    "funk_closed_form"), **kw)
        b = me.ball_volume(zoo["funk"], me.BallSpec([0.0, 0.0], 1.0,
                                                    "funk_closed_form"), **kw)
        if not (a.value == b.value and a.stderr == b.stderr):
            failures.append(("funk", "mc determinism"))
        elapsed = time.perf_counter() - t0
        _report(15, "property suites across the zoo (zero failures)",
                float(len(failures)), 0.0, len(failures) == 0, elapsed)
        assert failures == []
