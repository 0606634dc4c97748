"""Stacked tangent samples: a stack (m, n) of tangent points gives, member
by member, the bits of the single-point calls, and is validated as a whole."""

import math
import warnings

import numpy as np
import pytest

from finslerlab import cli, comparison, geodesics, measures, metrics
from finslerlab import curvature as cu
from finslerlab._grids import halton_directions
from finslerlab.errors import ChartExitError, PreconditionError
from finslerlab.geodesics import transport_both_ways
from finslerlab.jets import derivative_tensor
from finslerlab.minkowski import (
    TangentSample,
    cartan_norm,
    cartan_tensor,
    cartan_tilde,
    density_field,
    fundamental_tensor,
    mean_cartan,
    tangent_basis,
)

from conftest import tangent_samples

METRICS = ["funk", "funk3", "hilbert_quartic", "berwald_product", "randers_curl"]


def _ft_fields(metric, sample):
    ft = fundamental_tensor(metric, sample)
    return ft.g, ft.g_inv, ft.det_g


def _berwald_fields(metric, sample):
    bt = cu.berwald_curvature(metric, sample)
    return bt.B, bt.E


def _s_jet_fields(metric, sample):
    S_jet, E = cu.s_jet_workspace(metric, sample, density_field(metric))
    return S_jet.coeffs, E


READS = {
    "fundamental_tensor": _ft_fields,
    "cartan_tensor": lambda m, s: (cartan_tensor(m, s),),
    "cartan_tilde": lambda m, s: (cartan_tilde(m, s),),
    "mean_cartan": lambda m, s: (mean_cartan(m, s),),
    "cartan_norm": lambda m, s: (cartan_norm(m, s),),
    "berwald_curvature": _berwald_fields,
    "landsberg_from_berwald": lambda m, s: (cu.landsberg_from_berwald(m, s),),
    "mean_landsberg": lambda m, s: (cu.mean_landsberg(m, s),),
    "s_jet_workspace": _s_jet_fields,
}


@pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
@pytest.mark.parametrize("name", METRICS)
def test_stack_equals_pointwise_calls(zoo, name, read):
    metric = zoo[name]
    pairs = tangent_samples(metric, 4)
    xs, ys = (np.array(a) for a in zip(*pairs))
    stacked = read(metric, TangentSample(xs, ys))
    for k, (x, y) in enumerate(pairs):
        single = read(metric, TangentSample(x, y))
        for field_stack, field in zip(stacked, single):
            assert np.array_equal(field_stack[k], field)


def test_one_point_keeps_float_results(zoo):
    metric = zoo["funk3"]
    sample = TangentSample(*tangent_samples(metric, 1)[0])
    assert type(fundamental_tensor(metric, sample).det_g) is float
    assert type(cartan_norm(metric, sample)) is float


STENCIL_READS = {
    "cartan_on_frame": lambda m: (
        lambda x, v, U: cu._frame_contract3(cartan_tensor(m, TangentSample(x, v)), U)),
    "landsberg_on_frame": lambda m: (
        lambda x, v, U: cu._frame_contract3(cu.landsberg_from_berwald(m, TangentSample(x, v)), U)),
    "mean_cartan_on_frame": lambda m: (
        lambda x, v, U: (U @ mean_cartan(m, TangentSample(x, v))[..., None])[..., 0]),
    "det_g": lambda m: (lambda x, v, U: fundamental_tensor(m, TangentSample(x, v)).det_g),
}


@pytest.mark.parametrize("make_fn", STENCIL_READS.values(), ids=STENCIL_READS.keys())
@pytest.mark.parametrize("name", METRICS)
def test_geodesic_stencil_equals_pointwise_calls(zoo, name, make_fn):
    metric = zoo[name]
    x, y = tangent_samples(metric, 1, y_lo=0.5, y_hi=0.5)[0]
    h, frame = 1e-2, np.eye(metric.n)
    fn = make_fn(metric)
    q = cu._geodesic_stencil(metric, TangentSample(x, y), fn, h, frame)
    xs, vs, frames = transport_both_ways(metric, x, y, [h, 2 * h, 4 * h], frame)
    for member, sign in enumerate((1, -1)):
        for k, step in enumerate((1, 2, 4)):
            single = fn(xs[member, k], vs[member, k], frames[member, k])
            assert np.array_equal(q[sign * step], single)


class TestStackValidation:
    @pytest.mark.parametrize("name", ["funk", "hilbert_quartic", "randers_curl",
                                      "berwald_product"])
    def test_one_row_outside_the_chart(self, zoo, name):
        metric = zoo[name]
        xs, ys = (np.array(a) for a in zip(*tangent_samples(metric, 4)))
        xs[2] = 1.2 * metric.chart.sample_box[1][0] * np.ones(metric.n)
        with pytest.raises(PreconditionError, match="outside the metric chart"):
            fundamental_tensor(metric, TangentSample(xs, ys))

    @pytest.mark.parametrize("name", ["funk", "hilbert", "randers_curl", "berwald_product"])
    def test_one_zero_row(self, zoo, name):
        metric = zoo[name]
        xs, ys = (np.array(a) for a in zip(*tangent_samples(metric, 4)))
        ys[1] = 0.0
        with pytest.raises(PreconditionError, match="too close to zero"):
            cartan_tensor(metric, TangentSample(xs, ys))

    @pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
    @pytest.mark.parametrize("domain", ["unit_ball", "quartic:0.1"])
    @pytest.mark.parametrize("name", ["funk", "hilbert"])
    def test_vanishing_y_is_a_precondition_error(self, name, domain, stack):
        metric = metrics.make_metric(name, n=2, domain=domain)
        x, y = [0.1, 0.2], [0.0, 0.0]
        sample = TangentSample([x, x, x], [[1.0, 0.5], y, [0.3, -0.2]]) if stack \
            else TangentSample(x, y)
        with pytest.raises(PreconditionError, match="too close to zero"):
            sample.validate(metric)


# ---------------------------------------------------------------------------
# riemann_curvature and the analytic S on a stack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", METRICS + ["riemannian_sphere"])
def test_riemann_stack_equals_pointwise_calls(zoo, name):
    metric = zoo[name]
    pairs = tangent_samples(metric, 4)
    xs, ys = (np.array(a) for a in zip(*pairs))
    stacked = cu.riemann_curvature(metric, TangentSample(xs, ys))
    for k, (x, y) in enumerate(pairs):
        single = cu.riemann_curvature(metric, TangentSample(x, y))
        for f in ("R", "principal", "ricci", "F", "Ry_y_norm", "self_adjoint_defect"):
            assert np.array_equal(getattr(stacked, f)[k], getattr(single, f)), f
        flag = np.nan if single.flag_constant is None else single.flag_constant
        assert np.array_equal(stacked.flag_constant[k], flag, equal_nan=True)


def test_riemann_one_point_keeps_floats(zoo):
    rep = cu.riemann_curvature(zoo["funk"], TangentSample(*tangent_samples(zoo["funk"], 1)[0]))
    for f in ("ricci", "flag_constant", "Ry_y_norm", "self_adjoint_defect"):
        assert type(getattr(rep, f)) is float, f


CATALOG = ["euclidean", "euclidean3", "riemannian_sphere", "riemannian_hyperbolic",
           "randers_const", "randers_closed", "randers_curl", "berwald_product",
           "quartic_norm", "quartic_norm3", "funk", "funk3", "funk_quartic", "hilbert",
           "hilbert_quartic"]


@pytest.mark.parametrize("name", CATALOG)
def test_tangent_basis_stack_equals_pointwise_calls(zoo, name):
    metric = zoo[name]
    pairs = tangent_samples(metric, 5)
    xs, ys = (np.array(a) for a in zip(*pairs))
    stacked = tangent_basis(fundamental_tensor(metric, TangentSample(xs, ys)), ys)
    assert stacked.shape == (5, metric.n - 1, metric.n)
    for k, (x, y) in enumerate(pairs):
        assert np.array_equal(stacked[k], tangent_basis(fundamental_tensor(
            metric, TangentSample(x, y)), y))


# S-dot and the geodesic S of a stack of several members come from one
# two-way transport, whose shared steps move them by round-off; a one-member
# stack is the single-point call and keeps its bits.  The bounds sit at about
# twice the largest difference measured on these samples, in units of
# max(1, F) for S and max(1, F)^2 for S-dot: analytic S-dot 1.05e-10
# (hilbert quartic), geodesic S 1.2e-13 and S-dot 3.9e-12.


def _s_bound(F, bound, power):
    return bound * max(1.0, F) ** power


@pytest.mark.parametrize("name", ["funk", "hilbert_quartic", "berwald_product"])
def test_analytic_s_stack_equals_pointwise_calls(zoo, name):
    metric = zoo[name]
    pairs = tangent_samples(metric, 2)
    xs, ys = (np.array(a) for a in zip(*pairs))
    stacked = cu.s_curvature(metric, TangentSample(xs, ys), method="analytic")
    for k, (x, y) in enumerate(pairs):
        single = cu.s_curvature(metric, TangentSample(x, y), method="analytic")
        one = cu.s_curvature(metric, TangentSample(x[None], y[None]), method="analytic")
        assert stacked.S[k] == single.S == one.S[0]
        assert one.S_dot[0] == single.S_dot
        assert abs(stacked.S_dot[k] - single.S_dot) <= _s_bound(metric.F(x, y), 2e-10, 2)


def test_geodesic_s_stack_matches_one_member_calls(zoo):
    for name in ("funk", "hilbert_quartic", "berwald_product"):
        metric = zoo[name]
        pairs = tangent_samples(metric, 3)
        xs, ys = (np.array(a) for a in zip(*pairs))
        stacked = cu.s_curvature(metric, TangentSample(xs, ys), method="geodesic")
        assert stacked.S.shape == stacked.S_dot.shape == (3,)
        for k, (x, y) in enumerate(pairs):
            single = cu.s_curvature(metric, TangentSample(x, y), method="geodesic")
            assert type(single.S) is float and type(single.S_dot) is float
            F = metric.F(x, y)
            assert abs(stacked.S[k] - single.S) <= _s_bound(F, 3e-13, 1), name
            assert abs(stacked.S_dot[k] - single.S_dot) <= _s_bound(F, 1e-11, 2), name


# ---------------------------------------------------------------------------
# Frozen per-point oracles: the callers of riemann_curvature and s_curvature
# as they were before these took stacks
# ---------------------------------------------------------------------------


def _sweep_loop(metric, lam, delta, n_samples, tol=1e-6):
    n = metric.n
    min_r = min_s = np.inf
    for x, d in zip(metrics.chart_points(metric, n_samples), halton_directions(n, n_samples)):
        sm = TangentSample(x, d)
        rep = cu.riemann_curvature(metric, sm)
        F = rep.F
        min_r = min(min_r, rep.ricci / ((n - 1) * F * F))
        min_s = min(min_s, cu.s_curvature(metric, sm, method="analytic").S / ((n - 1) * F))
    return (min_r >= lam - tol) and (min_s >= delta - tol), float(min_r), float(min_s)


@pytest.mark.parametrize("name", ["funk", "hilbert_quartic"])
def test_bound_sweep_equals_the_loop(zoo, name):
    sweep = comparison.curvature_bound_sweep(zoo[name], -1.0, 0.0, n_samples=8)
    assert (sweep.ok, sweep.min_ricci_ratio, sweep.min_s_ratio) == \
        _sweep_loop(zoo[name], -1.0, 0.0, 8)


def _ball_coefficient_loop(metric, x, n_dirs):
    n = metric.n
    dirs, w = measures._direction_grid(n, n_dirs)
    total = 0.0
    for d, wd in zip(dirs, w):
        sm = TangentSample(x, d)
        rep = cu.riemann_curvature(metric, sm)
        sd = cu.s_curvature(metric, sm, method="analytic")
        h = rep.ricci + 3.0 * n * (sd.S_dot - sd.S ** 2)
        total += wd * h * metric.F(x, d) ** (-(n + 2))
    return float(density_field(metric)(x) * total / (n * measures.unit_ball_volume(n)))


@pytest.mark.parametrize("name", ["funk", "riemannian_sphere"])
def test_ball_coefficient_equals_the_loop(zoo, name):
    # one stack of directions, with one two-way transport for every S-dot,
    # so r(x) moves by round-off: 6e-15 (funk) and 1.4e-10 (sphere) relative
    x = np.array([0.2, 0.1])
    got = measures.curvature_ball_coefficient(zoo[name], x, n_dirs=6)
    want = _ball_coefficient_loop(zoo[name], x, 6)
    assert abs(got - want) <= 1e-9 * abs(want)


# The verify checks as they were before routes took a stack: one route call
# per tangent sample, the worst value kept in a Python loop.


def _loop_sampled(routes, tol, count=None, one_sided=False):
    def check(metric, cfg):
        worst = -np.inf
        n = cfg["samples"] if count is None else count(cfg["samples"])
        stack = cli._samples_for(metric, n)
        for x, y in zip(stack.x, stack.y):
            a, b, scale = routes(metric, TangentSample(x, y))
            d = np.subtract(a, b)
            r = float(np.max(d if one_sided else np.abs(d) / scale))
            worst = r if math.isnan(r) else max(worst, r)
        return worst, tol(metric) if callable(tol) else tol

    return check


def _homogeneity(metric, s):
    F = metric.F(s.x, s.y)
    lams = (0.5, 2.0)
    return [metric.F(s.x, lam * s.y) for lam in lams], np.multiply(lams, F), max(F, 1e-12)


def _jb(metric, s):
    # -g(B, y)/2 against the rate of C along the geodesic flow, at one point
    ws = geodesics.spray_jets(metric, s.x, s.y, 1, 5)
    G, N, B = (derivative_tensor(ws.G, 0, k) for k in (0, 1, 3))
    gy = 0.5 * np.einsum("ij,j->i", derivative_tensor(ws.f2, 0, 2), s.y)
    C = 0.25 * derivative_tensor(ws.f2, 0, 3)
    C_dot = 0.25 * (np.einsum("m,mijk->ijk", s.y, derivative_tensor(ws.f2, 1, 3))
                    - 2.0 * np.einsum("l,ijkl->ijk", G, derivative_tensor(ws.f2, 0, 4)))
    C_dot -= (np.einsum("ljk,li->ijk", C, N) + np.einsum("ilk,lj->ijk", C, N)
              + np.einsum("ijl,lk->ijk", C, N))
    return (-0.5 * np.einsum("mijk,m->ijk", B, gy), C_dot,
            1.0 + np.sqrt(np.sum(B ** 2)))


def _one_member(route):
    """A cli route, which takes a stack, called on a stack of one point."""
    return lambda m, s: route(m, TangentSample(s.x[None], s.y[None]))


def _funk_e(metric, s):
    bt = cu.berwald_curvature(metric, s)
    ft = fundamental_tensor(metric, s)
    F, gy = ft.F, ft.g @ s.y
    return bt.E, (metric.n + 1) / (4 * F ** 3) * (F * F * ft.g - np.outer(gy, gy)), 1.0


LOOP_CHECKS = {
    "homogeneity_f2a": _loop_sampled(_homogeneity, 1e-10),
    "positive_definite_f2b": _loop_sampled(
        lambda m, s: (-np.linalg.eigvalsh(fundamental_tensor(m, s).g), 0.0, 1.0),
        -np.finfo(float).tiny, one_sided=True),
    "jb_identity": _loop_sampled(_jb, 1e-6),
    "es_identity": _loop_sampled(_one_member(cli._es), 1e-5, count=lambda k: min(k, 10)),
    "okada_pde": _loop_sampled(_one_member(cli._okada), 1e-8, count=lambda k: 50),
    "ll_funk": _loop_sampled(
        lambda m, s: (cu.landsberg_from_berwald(m, s),
                      -0.5 * m.F(s.x, s.y) * cartan_tensor(m, s), 1.0), 1e-4),
    "flag_curvature": _loop_sampled(
        lambda m, s: (cu.riemann_curvature(m, s).principal, cli._EXPECTED_KAPPA[m.name][0], 1.0),
        lambda m: cli._EXPECTED_KAPPA[m.name][1]),
    "funk_s_formula": _loop_sampled(
        lambda m, s: (cu.s_curvature(m, s, method="analytic").S,
                      (m.n + 1) / 2.0 * m.F(s.x, s.y), 1.0), 1e-6),
    "funk_e_formula": _loop_sampled(_funk_e, 1e-6),
    "berwald_flat": _loop_sampled(
        lambda m, s: (cu.berwald_curvature(m, s).norm(), 0.0, 1.0), 1e-8),
}

VERIFY_CONFIGS = {
    "funk2": dict(metric="funk", dim=2),
    "funk3": dict(metric="funk", dim=3),
    "hilbert": dict(metric="hilbert", dim=2),
    "hilbert_quartic": dict(metric="hilbert", dim=2, domain="quartic:0.1"),
    "berwald_product": dict(metric="berwald_product"),
    "randers": dict(metric="randers", dim=2),
    "riemannian_sphere": dict(metric="riemannian_sphere", dim=2),
    "quartic_norm": dict(metric="quartic_norm", dim=2),
    "euclidean": dict(metric="euclidean", dim=2),
}


@pytest.mark.parametrize("label", VERIFY_CONFIGS)
def test_verify_payload_equals_the_per_sample_loop(monkeypatch, label):
    cfg = dict(cli._DEFAULTS, **VERIFY_CONFIGS[label], checks=list(LOOP_CHECKS))
    stacked = cli.run_verify(cfg).to_payload()
    monkeypatch.setattr(cli, "_CHECKS", [(cid, anchor, applies, LOOP_CHECKS.get(cid, fn))
                                         for cid, anchor, applies, fn in cli._CHECKS])
    assert cli.run_verify(cfg).to_payload() == stacked
    assert any(c["status"] == "pass" for c in stacked["checks"])


def test_split_routes_give_the_library_residuals(zoo):
    # es and okada return both routes, and each member of a stack has the
    # bits of its own one-member call
    metric = zoo["funk3"]
    xs, ys = (np.array(a) for a in zip(*tangent_samples(metric, 3)))
    s = TangentSample(xs, ys)
    for route in (cli._okada, cli._es):
        a, b, _ = route(metric, s)
        for k in range(3):  # three members of dimension three: F broadcasts per member
            a1, b1, _ = route(metric, TangentSample(xs[k:k + 1], ys[k:k + 1]))
            assert np.array_equal(a[k], a1[0]) and np.array_equal(b[k], b1[0])
    assert np.max(np.abs(a)) > 1.0  # the routes themselves, not a residual against 0


# ---------------------------------------------------------------------------
# Stacked flows against one-member calls.  The members of a stack share one
# solve and its steps, so they differ from their own calls by round-off:
# flows are compared at tight ODE tolerances, so that the comparison sees the
# stacking and not the steps, and each verify route at its own tolerances,
# within 1e-2 of the check's tolerance.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mx", [0, 1, 2])
@pytest.mark.parametrize("name", ["funk3", "hilbert_quartic"])
def test_one_member_stack_has_the_single_point_bits(zoo, name, mx):
    metric = zoo[name]
    x, y = tangent_samples(metric, 1)[0]
    stacked = geodesics._spray(metric, x[None], y[None], mx)
    for got, want in zip(stacked, geodesics._spray(metric, x, y, mx)):
        assert (got is None and want is None) or (
            got.shape == (1,) + want.shape and np.array_equal(got[0], want))


FLOW_METRICS = ["funk", "funk3", "hilbert_quartic", "randers_curl", "berwald_product"]
TIGHT = dict(rtol=1e-13, atol=1e-13)


def _stack(metric, count):
    pairs = tangent_samples(metric, count, seed=56)
    return (pairs, *(np.array(a) for a in zip(*pairs)))


@pytest.mark.parametrize("name", FLOW_METRICS)
def test_stacked_geodesics_match_one_member_calls(zoo, name):
    metric = zoo[name]
    pairs, xs, ys = _stack(metric, 3)
    for t_end in (0.6, -0.6):  # forward and backward spans
        ts = np.linspace(0.0, t_end, 7)
        stack = geodesics.integrate_geodesic(metric, xs, ys, t_end, t_eval=ts, **TIGHT)
        assert stack.x.shape == (3, 7, metric.n) and stack.t_end.shape == (3,)
        for k, (x, y) in enumerate(pairs):
            one = geodesics.integrate_geodesic(metric, x, y, t_end, t_eval=ts, **TIGHT)
            assert stack.exited[k] == one.exited
            assert stack.t_end[k] == pytest.approx(one.t_end, abs=1e-10)
            reached = ~np.isnan(stack.x[k, :, 0])
            assert np.sum(reached) == len(one.t)
            np.testing.assert_allclose(stack.x[k, reached], one.x, rtol=0, atol=1e-11)
            np.testing.assert_allclose(stack.v[k, reached], one.v, rtol=0, atol=1e-10)
            t = 0.5 * one.t_end  # the dense output, inside the member's reach
            np.testing.assert_allclose(stack.state(t)[0][k], one.state(t)[0],
                                       rtol=0, atol=1e-11)


@pytest.mark.parametrize("name", FLOW_METRICS)
def test_stacked_transport_matches_one_member_calls(zoo, name, monkeypatch):
    monkeypatch.setattr(geodesics, "_FLOW_TOL", TIGHT["rtol"])
    metric = zoo[name]
    pairs, xs, ys = _stack(metric, 3)
    frames = np.random.default_rng(5).normal(size=(3, 2, metric.n))  # one per member
    for t_end in (0.5, -0.5):  # forward and backward spans
        tr = geodesics.parallel_transport(metric, xs, ys, t_end, frames)
        assert tr.frames.shape == (3, 33, 2, metric.n) and tr.gram_drift.shape == (3,)
        for k, (x, y) in enumerate(pairs):
            one = geodesics.parallel_transport(metric, x, y, t_end, frames[k])
            reached = ~np.isnan(tr.path.x[k, :, 0])
            assert np.sum(reached) == len(one.path.t)
            np.testing.assert_allclose(tr.path.x[k, reached], one.path.x, rtol=0, atol=1e-11)
            np.testing.assert_allclose(tr.frames[k, reached], one.frames, rtol=0, atol=1e-10)
            assert tr.gram_drift[k] == pytest.approx(one.gram_drift, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", FLOW_METRICS)
def test_one_member_stack_reads_the_point_bits(zoo, name, sign):
    # a point is member 0 of the stacked reader, in either direction, at
    # t_eval and at the solver's steps, where dense output gives back the
    # solver's stored states
    metric = zoo[name]
    (x, y), = tangent_samples(metric, 1, seed=56)
    n, t_end = metric.n, sign * 0.5
    ts = np.linspace(0.0, t_end, 6)
    one, stack = (geodesics.integrate_geodesic(metric, a, b, t_end, t_eval=ts)
                  for a, b in ((x, y), (x[None], y[None])))
    reached = ~np.isnan(stack.x[0, :, 0])
    assert np.array_equal(stack.x[0, reached], one.x)
    assert np.array_equal(stack.v[0, reached], one.v)
    steps = geodesics.integrate_geodesic(metric, x, y, t_end)
    stored = steps.sol.segments[0][2]
    assert np.array_equal(steps.t, stored.t) and np.array_equal(steps.x, stored.y[:n].T)
    assert np.array_equal(stack.state(steps.t)[0][0], steps.x)
    one, stack = (geodesics.variational_flow(metric, a, b, t_end)
                  for a, b in ((x, y), (x[None], y[None])))
    t = 0.5 * one.t_end
    for got, want in zip(stack.unpack([t, one.t_end]), one.unpack([t, one.t_end])):
        assert np.array_equal(got[0], want)
    one, stack = (geodesics.parallel_transport(metric, a, b, t_end, np.eye(n))
                  for a, b in ((x, y), (x[None], y[None])))
    assert np.array_equal(stack.frames[0, :len(one.path.t)], one.frames)
    stored = one.path.sol.segments[0][2]
    assert np.array_equal(one.path.sol(stored.t)[0], stored.y.T)


def test_geodesic_endpoints_take_a_stack(zoo):
    metric = zoo["funk"]
    xs, ys = np.array([[0.1, 0.2], [0.0, -0.3]]), np.array([[0.5, 0.1], [0.2, 0.4]])
    ends = geodesics.integrate_geodesic(metric, xs, ys, 1.0).state(1.0)[0]
    assert ends.shape == (2, 2)
    for k in range(2):
        one = geodesics.integrate_geodesic(metric, xs[k], ys[k], 1.0).state(1.0)[0]
        np.testing.assert_allclose(ends[k], one, rtol=0, atol=1e-9)
    # the unit-ball chart of randers curl: the second member leaves it, at
    # the exit time of its own one-point path
    metric = zoo["randers_curl"]
    xs[1], ys[1] = [0.5, 0.0], [3.0, 0.0]
    one = geodesics.integrate_geodesic(metric, xs[1], ys[1], 1.0)
    path = geodesics.integrate_geodesic(metric, xs, ys, 1.0)
    assert one.exited and list(path.exited) == [False, True]
    assert np.isnan(path.t_exit[0])
    assert path.t_exit[1] == pytest.approx(one.t_exit, abs=1e-9)


@pytest.mark.parametrize("name", FLOW_METRICS)
def test_two_way_stack_reads_each_member_at_its_own_times(zoo, name, monkeypatch):
    monkeypatch.setattr(geodesics, "_FLOW_TOL", TIGHT["rtol"])
    metric = zoo[name]
    pairs, xs, ys = _stack(metric, 3)
    scale, ts = np.array([1.0, 0.5, 0.25]), np.array([0.01, 0.02, 0.04])
    got = transport_both_ways(metric, xs, ys, ts, np.eye(metric.n), scale=scale)
    assert got[0].shape == (2, 3, 3, metric.n) and got[2].shape == (2, 3, 3, metric.n, metric.n)
    for k, (x, y) in enumerate(pairs):
        one = transport_both_ways(metric, x, y, scale[k] * ts, np.eye(metric.n))
        for a, b in zip(got, one):
            np.testing.assert_allclose(a[:, k], b, rtol=0, atol=1e-12)


def test_a_member_leaving_the_chart_names_its_exit(zoo, monkeypatch):
    # the unit-ball chart of randers curl: the second member, at x = -0.985,
    # leaves it backwards; the stack reports that member's exit time
    metric = zoo["randers_curl"]
    xs = np.array([[0.1, 0.2], [-0.985, 0.0], [0.0, -0.3]])
    ys = np.array([[0.5, 0.1], [1.0, 0.0], [0.2, 0.4]])
    ts = [0.01, 0.02, 0.04]
    with pytest.raises(ChartExitError) as one:
        transport_both_ways(metric, xs[1], ys[1], ts, np.eye(2))
    # the first exit ends the two-way solve: the other runs do not go on
    solves, solve_ivp = [], geodesics.solve_ivp
    monkeypatch.setattr(geodesics, "solve_ivp",
                        lambda *a, **k: solves.append(1) or solve_ivp(*a, **k))
    with pytest.raises(ChartExitError):
        transport_both_ways(metric, xs, ys, ts, np.eye(2))
    assert len(solves) == 1
    for read in (lambda s: transport_both_ways(metric, s.x, s.y, ts, np.eye(2)),
                 lambda s: cu.landsberg_by_transport(metric, s),
                 lambda s: cu.s_curvature(metric, s, method="geodesic")):
        with pytest.raises(ChartExitError) as err:
            read(TangentSample(xs, ys))
        assert -0.04 < err.value.t_exit < 0.0
        assert err.value.t_exit == pytest.approx(one.value.t_exit, abs=1e-9)


def test_landsberg_dot_takes_a_stack(zoo):
    # L and J take stacks bit for bit (READS); L-dot's members share one
    # two-way transport, so they move by round-off
    metric = zoo["funk3"]
    pairs, xs, ys = _stack(metric, 4)
    L_dot = cu.landsberg_dot(metric, TangentSample(xs, ys))
    for k, (x, y) in enumerate(pairs):
        one = cu.landsberg_dot(metric, TangentSample(x, y))
        # L-dot scales as F^3; dot_lc holds unit-speed funk samples to 1e-5
        F = metric.F(x, y)
        assert np.max(np.abs(L_dot[k] - one)) <= 1e-2 * 1e-5 * max(1.0, F) ** 3


def _geodesic_s(metric, s):
    return cu.s_curvature(metric, s, method="geodesic").S, 0.0, 1.0


# (check id, zoo metric, route, tolerance, members): the routes and counts of
# cli._CHECKS at the default 20 samples
ODE_ROUTES = [
    ("kk_hilbert", "hilbert", cli._kk, 1e-4, 6),
    ("kk_hilbert", "hilbert_quartic", cli._kk, 1e-4, 6),
    *(("cc_ode_fit", name, cli._cc_fit, 1e-4, 3)
      for name in ("funk", "funk3", "hilbert", "hilbert_quartic", "riemannian_sphere",
                   "riemannian_hyperbolic")),
    ("dot_lc", "funk", cli._dot_lc, 1e-5, 6),
    ("dot_lc", "funk3", cli._dot_lc, 1e-5, 6),
    ("dot_lc", "hilbert", cli._dot_lc, 1e-4, 6),
    ("dot_lc", "hilbert_quartic", cli._dot_lc, 1e-4, 6),
    ("berwald_s_vanishes", "berwald_product", _geodesic_s, 1e-6, 6),
    ("transport_preserves_norms", "berwald_product", cli._transport_norms, 1e-6, 3),
]


# Samples whose value is its rounding floor, with the bound on their move.
# funk n=3 dot_lc at member 4, x = (0.225, 0.5, -0.828) near the rim: 1-ulp
# changes of one coordinate of x or y move its single-point value anywhere in
# 1.5e-7 to 1.15e-6, so its stacked value is held to 1.2e-6 (measured move
# 1.8e-7) and every other member to 1e-2 of the tolerance.
ROUNDING_FLOORS = {("dot_lc", "funk3", 4): 1.2e-6}


def _member_values(route, metric, s):
    a, b, scale = route(metric, s)
    d = np.abs(np.subtract(a, b)) / scale
    return np.max(d.reshape(len(s.x), -1), axis=1)


@pytest.mark.parametrize(("check", "name", "route", "tol", "count"), ODE_ROUTES)
def test_ode_check_route_stack_matches_one_member_calls(zoo, check, name, route, tol, count):
    metric = zoo[name]
    s = cli._samples_for(metric, count)
    stacked = _member_values(route, metric, s)
    assert np.max(stacked) <= tol
    for k in range(count):
        one = _member_values(route, metric, TangentSample(s.x[k: k + 1], s.y[k: k + 1]))
        bound = ROUNDING_FLOORS.get((check, name, k), 1e-2 * tol)
        assert abs(stacked[k] - one[0]) <= bound, (check, k, stacked[k], one[0])
    if (check, name, 4) in ROUNDING_FLOORS:
        np.testing.assert_allclose(s.x[4], [0.225, 0.5, -0.828], atol=1e-3)


ODE_CHECKS = {"funk2": ("cc_ode_fit", "dot_lc", "projective_pair"), "hilbert": ("kk_hilbert",),
              "berwald_product": ("berwald_s_vanishes", "transport_preserves_norms")}


@pytest.mark.parametrize(("label", "check"), [(label, check) for label, checks in
                                              ODE_CHECKS.items() for check in checks])
def test_an_ode_check_is_one_solve(monkeypatch, label, check):
    # one ODE solve per check, and one more per step-widening retry: no
    # flow per member
    solves, solve = [], geodesics._solve

    def counted(*args, **kw):
        solves.append(args[0])
        return solve(*args, **kw)

    cfg = dict(cli._DEFAULTS, **VERIFY_CONFIGS[label], checks=[check])
    monkeypatch.setattr(geodesics, "_solve", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = cli.run_verify(cfg)
    assert report.checks[0].status == "pass"
    assert len(solves) == 1 + sum("widening" in str(w.message) for w in caught)
