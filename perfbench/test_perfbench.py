"""Self-test of the benchmark: its arithmetic, and cross-checks of the
tracer's counters against what the program itself reports.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stats  # noqa: E402
from run import run_op  # noqa: E402
from stats import OpResult  # noqa: E402
from workloads import Op  # noqa: E402


def _ok(t, units=1):
    return OpResult("k", "ok", t, True, False, units)


def _failed(t):
    return OpResult("k", "failed", t, False, False, 0, "boom")


# ---------------------------------------------------------------------------
# end-to-end arithmetic
# ---------------------------------------------------------------------------


def test_failed_op_is_infinite_in_p50_and_tail_and_keeps_its_time_in_work_rate():
    results = [_ok(1.0)] * 5 + [_failed(0.5)] * 6
    assert stats.op_times(results).count(math.inf) == 6
    assert stats.op_p50(results) == math.inf  # 6 of 11 samples are infinite
    tail, pct, n = stats.op_tail(results)
    assert (tail, n) == (1.0, 11)  # the lowest sample, 10 beyond it
    assert pct == pytest.approx(100.0 / 11)
    assert stats.work_per_s(results) == pytest.approx(5 / (5 * 1.0 + 6 * 0.5))
    assert stats.fail_share(results) == pytest.approx(6 / 11)
    fixed = [_ok(1.0)] * 5 + [_ok(0.5)] * 6
    assert stats.op_p50(fixed) < stats.op_p50(results)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    results = [_ok(float(t)) for t in range(1, 41)]
    tail, pct, n = stats.op_tail(results)
    assert (tail, pct, n) == (30.0, 75.0, 40)
    assert sum(1 for r in results if r.seconds > tail) == stats.TAIL_BEYOND


def test_tail_omitted_with_count_below_eleven_samples():
    assert stats.op_tail([_ok(1.0)] * 10) == (None, None, 10)
    assert stats.op_tail([_ok(1.0)] * 11)[2] == 11


def test_self_time_nested_and_sibling_spans():
    # root [0, 10] with siblings [1, 3] and [4, 8]; [4, 8] has a child [5, 6];
    # the root also spent 0.5 s in aggregated jet calls
    spans = [
        ["cli.run", 0.0, 10.0, -1, 0, 0.5, 0],
        ["curvature.a", 1.0, 3.0, 0, 0, 0.0, 0],
        ["geodesics.b", 4.0, 8.0, 0, 0, 0.25, 0],
        ["jets_free.c", 5.0, 6.0, 2, 0, 0.0, 0],
    ]
    assert stats.self_times(spans) == [10.0 - 2.0 - 4.0 - 0.5, 2.0, 4.0 - 1.0 - 0.25, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["a.x", 0.0, 10.0, -1, 0, 0.0, 0],
        ["b.y", 1.0, 5.0, 0, 0, 0.0, 0],
        ["b.z", 4.0, 12.0, 0, 0, 0.0, 0],  # overlaps its sibling, ends past the parent
    ]
    assert stats.self_times(spans)[0] == 1.0


def test_wrong_result_counts_as_failure_exactly_like_an_exception():
    def boom():
        raise ValueError("boom")

    raised, _ = run_op(Op("k", "raises", boom, lambda out: (True, 1, "")))
    wrong, _ = run_op(Op("k", "wrong", lambda: 41, lambda out: (out == 42, 1, "not 42")))
    right, _ = run_op(Op("k", "right", lambda: 42, lambda out: (out == 42, 1, "")))
    assert not raised.ok and not raised.wrong and raised.units == 0
    assert not wrong.ok and wrong.wrong and wrong.units == 0
    assert right.ok and right.units == 1
    with_raised = [right] * 10 + [raised]
    with_wrong = [right] * 10 + [wrong]
    for r in (raised, wrong):
        r.seconds = 0.125
    for metric in (stats.op_p50, stats.op_tail, stats.work_per_s, stats.fail_share):
        assert metric(with_raised) == metric(with_wrong)


# ---------------------------------------------------------------------------
# tracer counters against the program's own numbers
# ---------------------------------------------------------------------------


@pytest.fixture
def traced():
    from tracer import Tracer

    tr = Tracer().install()
    tr.op = 0  # count the calls below as one op
    try:
        yield tr
    finally:
        tr.uninstall()


def test_rhs_evals_equal_nfev_through_every_binding(traced):
    import numpy as np
    from finslerlab import cli, curvature, geodesics
    from finslerlab.metrics import make_metric

    metric = make_metric("funk", n=2)
    paths = [
        geodesics.integrate_geodesic(metric, [0.1, 0.2], [1.0, 0.3], 0.8),
        curvature.integrate_geodesic(metric, [-0.2, 0.1], [0.2, 1.0], -0.4),
        cli.run_geodesic_report(dict(cli._DEFAULTS, t_end=0.5))[2],
    ]
    table = traced.layer_table()[0]
    assert table["geodesics.ivp_solves"] == len(paths)
    assert table["geodesics.rhs_evals"] == sum(p.nfev for p in paths)
    assert np.all([p.nfev > 0 for p in paths])


def test_mc_points_equal_the_samples_requested(traced):
    import numpy as np
    from finslerlab import cli, comparison, measures
    from finslerlab.metrics import make_metric

    metric = make_metric("funk", n=2)
    ball = measures.BallSpec(np.zeros(2), 1.0, "funk_closed_form")
    measures.ball_volume(metric, ball, n_samples=3000, seed=1)
    comparison.ball_volume(metric, ball, n_samples=2000, seed=2)
    cli.run_volume_report(dict(cli._DEFAULTS, mc_samples=1000, radii=[0.5, 1.0]))
    table = traced.layer_table()[0]
    assert table["measures.mc_points"] == 3000 + 2000 + 2 * 1000
    assert 0.0 < table["measures.mc_density_ratio"] < 1.0


def test_every_binding_of_a_wrapped_function_is_patched(traced):
    from finslerlab import cli, curvature, geodesics, measures

    for mod, name in ((geodesics, "integrate_geodesic"), (curvature, "integrate_geodesic"),
                      (cli, "integrate_geodesic"), (measures, "variational_flow"),
                      (geodesics, "solve_ivp"), (measures, "bh_density")):
        assert hasattr(getattr(mod, name), "__wrapped__"), f"{mod.__name__}.{name}"


def test_uninstall_restores_the_program():
    from finslerlab import curvature, geodesics, jets
    from finslerlab.metrics import MetricSpec
    from tracer import Tracer

    before = (curvature.integrate_geodesic, jets.Jet.__mul__, MetricSpec.F, geodesics.solve_ivp)
    Tracer().install().uninstall()
    assert (curvature.integrate_geodesic, jets.Jet.__mul__, MetricSpec.F,
            geodesics.solve_ivp) == before


def test_mul_terms_use_the_product_table_length():
    from finslerlab.jets import JetSpec, _context
    from tracer import mul_table_len

    for n, mx, my in ((2, 0, 2), (2, 2, 4), (3, 1, 5), (3, 2, 3)):
        assert mul_table_len(n, mx, my) == len(_context(JetSpec(n, mx, my)).tab_out)


def test_layer_self_times_add_up_to_the_traced_wall_time(traced):
    from finslerlab import curvature
    from finslerlab.metrics import make_metric
    from finslerlab.minkowski import TangentSample

    metric = make_metric("funk", n=2)
    curvature.riemann_curvature(metric, TangentSample([0.1, 0.2], [1.0, 0.5]))
    _, layer_self, _ = traced.layer_table()
    roots = sum(s[stats.END] - s[stats.START] for s in traced.spans if s[stats.PARENT] < 0)
    total = sum(layer_self.values()) + sum(s[stats.AGG] for s in traced.spans)
    assert total == pytest.approx(roots, rel=1e-9)
    assert traced.jet_counts["mul"] > 0


def test_reinstalled_tracer_counts_again_and_keeps_sigma_wrapped():
    import numpy as np
    from finslerlab import measures
    from finslerlab.metrics import make_metric
    from tracer import Tracer

    tr = Tracer().install()
    metric = make_metric("funk", n=2)  # built traced: its sigma_bh is wrapped
    tr.uninstall()
    ball = measures.BallSpec(np.zeros(2), 1.0, "funk_closed_form")
    measures.ball_volume(metric, ball, n_samples=500, seed=1)  # untraced: not counted
    tr.install()
    tr.op = 0
    try:
        measures.ball_volume(metric, ball, n_samples=700, seed=2)
    finally:
        tr.uninstall()
    table = tr.layer_table()[0]
    assert table["measures.mc_points"] == 700
    assert 0.0 < table["measures.mc_density_ratio"] < 1.0
    assert not hasattr(metric.sigma_bh, "__wrapped__")


# ---------------------------------------------------------------------------
# mc_volume's checks of the density path
# ---------------------------------------------------------------------------


def _mc_workload():
    import json

    import numpy as np
    from finslerlab.metrics import make_metric
    from workloads import HERE, HILBERT_QUARTIC, McWorkload

    w = McWorkload()
    w.metric = {"hilbert_quartic": make_metric("hilbert", n=2, domain=HILBERT_QUARTIC)}
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    w.densities = ref["densities"]
    w.target = {("hilbert_quartic", row["radius"]): (
        row["value"], row["stderr"], row["stderr"] * np.sqrt(row["n_samples"]))
        for row in ref["balls"]}
    w.estimates = {}
    return w


def test_density_self_check_passes_and_catches_a_biased_density(monkeypatch):
    from finslerlab import minkowski

    w = _mc_workload()
    assert w.self_check() == []
    true_density = minkowski.bh_density
    monkeypatch.setattr(minkowski, "bh_density", lambda m, x: 1.001 * true_density(m, x))
    assert len(w.self_check()) == len(w.densities)


def test_pooled_check_catches_a_bias_each_op_passes():
    from workloads import MC_HILBERT_SAMPLES, MC_NSIGMA

    w = _mc_workload()
    value, ref_err, point_sd = w.target["hilbert_quartic", 1.0]
    for shift, faults in ((0.0, 0), (0.25, 1)):
        w.estimates = {f"op{i}": (1.0, value * (1.0 + shift)) for i in range(10)}
        assert len(w.run_check()) == faults
    # each biased op on its own is within the single-op rule
    single_tol = MC_NSIGMA["hilbert"] * math.hypot(
        point_sd / math.sqrt(MC_HILBERT_SAMPLES[1.0]), ref_err)
    assert 0.25 * value < single_tol


def test_local_scales_use_the_kernel_around_each_op():
    # two kernel timings after each of five ops; the host halves its speed at op 3
    kernel = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert stats.local_scales(kernel, 2, 0, 1.0) == [1.0, 1.0, 1.0, 0.5, 0.5]
    assert stats.local_scales(kernel, 2, 1, 2.0) == [2.0, 2.0, 2.0, 1.0, 1.0]
    results = stats.scaled([_ok(3.0), _failed(1.0)], [0.5, 2.0])
    assert [r.seconds for r in results] == [1.5, 2.0]
    assert stats.op_p50(results) == math.inf  # a failed op stays infinite
