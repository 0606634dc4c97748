"""Batch experiment runner: metric validation, curvature and geodesic reports,
volume tables and the identity verification suite.

Outputs are deterministic for a fixed config and seed: CSV for tables, JSON
for suite reports, each embedding the resolved configuration.  Exit codes:
0 all checks pass, 1 check failure, 2 usage or config error, 3 numerical
integrity error (independent routes disagree).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import comparison, curvature, measures
from ._grids import halton_directions, unit_sphere_area
from .errors import (
    ConfigurationError,
    FinslerError,
    NumericalIntegrityError,
)
from .geodesics import integrate_geodesic, parallel_transport, spray_jets
from .jets import derivative_tensor
from .metrics import MetricSpec, chart_points, make_metric, validate_metric, zoo_constructors
from .minkowski import (
    TangentSample,
    bh_density,
    cartan_tensor,
    density_field,
    fundamental_tensor,
    santalo_volume,
)

CSV_VERSION = "finslerlab csv v1"

_DEFAULTS = {
    "metric": "funk",
    "dim": 2,
    "domain": None,
    "variant": None,
    "c": None,
    "eps": None,
    "seed": 20240817,
    "samples": 20,
    "mc_samples": 1_000_000,
    "out_dir": None,
    "radii": [0.5, 1.0, 2.0],
    "t_end": 3.0,
    "t_points": 31,
    "start": None,
    "direction": None,
    "lam": None,
    "delta": None,
    "checks": None,
    "tolerances": {},
}


# integer config keys and their smallest allowed values
_INT_KEYS = {"dim": 2, "seed": 0, "samples": 1, "mc_samples": 1, "t_points": 2}


def _number(v):
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _point_or_null(v, dim):
    return v is None or (isinstance(v, list) and len(v) == dim and all(map(_number, v)))


# the other value keys: a test of (value, dim) and what it asks for
_VALUE_KEYS = {
    "metric": (lambda v, dim: isinstance(v, str), "a catalog id"),
    "out_dir": (lambda v, dim: v is None or isinstance(v, str), "a path or null"),
    "radii": (lambda v, dim: isinstance(v, list) and len(v) > 0
              and all(_number(r) and r > 0 for r in v),
              "a non-empty list of positive numbers"),
    "t_end": (lambda v, dim: _number(v), "a finite number"),
    "start": (_point_or_null, "a list of dim numbers or null"),
    "direction": (_point_or_null, "a list of dim numbers or null"),
    "c": (lambda v, dim: v is None or _number(v), "a number or null"),
    "eps": (lambda v, dim: v is None or _number(v), "a number or null"),
    "lam": (lambda v, dim: v is None or _number(v), "a finite number or null"),
    "delta": (lambda v, dim: v is None or _number(v), "a finite number or null"),
    "tolerances": (lambda v, dim: isinstance(v, dict) and all(
        k in {cid for cid, *_ in _CHECKS} and _number(t) for k, t in v.items()),
        "an object mapping known check ids to finite numbers"),
    "checks": (lambda v, dim: v is None or isinstance(v, str) or (
        isinstance(v, list) and all(isinstance(c, str) for c in v)),
        "a comma-separated string or a list of check ids"),
}


def resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - _DEFAULTS.keys()
        if unknown:
            raise ConfigurationError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        cfg.update(loaded)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["metric"] == "berwald_product":
        cfg["dim"] = 3  # the product chart is three-dimensional
    for key, low in _INT_KEYS.items():
        val = cfg[key]
        if isinstance(val, bool) or not isinstance(val, int) or val < low:
            raise ConfigurationError(f"config key {key!r} must be an integer >= {low}, "
                                     f"got {val!r}")
    for key, (ok, what) in _VALUE_KEYS.items():
        if not ok(cfg[key], cfg["dim"]):
            raise ConfigurationError(f"config key {key!r} must be {what}, got {cfg[key]!r}")
    return cfg


def build_metric(cfg) -> MetricSpec:
    """The catalog metric cfg names, given n from dim and every other
    non-empty config value that its constructor takes by name."""
    make = zoo_constructors().get(cfg["metric"])
    kw = {}
    for key in inspect.signature(make).parameters if make else ():
        val = int(cfg["dim"]) if key == "n" else cfg.get(key)
        if val is not None and val != "":
            kw[key] = val
    return make_metric(cfg["metric"], **kw)


def _out_dir(cfg):
    out = cfg.get("out_dir") or os.environ.get("FINSLERLAB_OUTDIR") or "finslerlab_runs"
    os.makedirs(out, exist_ok=True)
    return out


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _config_json(cfg):
    clean = {k: v for k, v in cfg.items() if v is not None}
    return json.dumps(clean, sort_keys=True, separators=(",", ":"))


def write_csv(path, kind, columns, rows, cfg):
    with open(path, "w") as fh:
        fh.write(f"# {CSV_VERSION} kind={kind}\n")
        fh.write(f"# config: {_config_json(cfg)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    status: str  # pass | fail | skipped
    value: float | None
    tolerance: float | None


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def n_failures(self):
        return sum(1 for c in self.checks if c.status == "fail")

    def to_payload(self):
        return {
            "config": {k: v for k, v in self.config.items() if v is not None},
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "value": c.value,
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
            "failures": self.n_failures,
        }


def _samples_for(metric, count):
    """The first `count` chart points with the Halton directions, as one
    TangentSample stack (count, n)."""
    return TangentSample(chart_points(metric, count), halton_directions(metric.n, count))


_EXPECTED_KAPPA = {
    "funk": (-0.25, 1e-6),
    "hilbert": (-1.0, 1e-5),
    "riemannian_sphere": (1.0, 1e-6),
    "riemannian_hyperbolic": (-1.0, 1e-6),
    "euclidean": (0.0, 1e-8),
    "quartic_norm": (0.0, 1e-8),
}


def _sampled(routes, tol, count=None, one_sided=False):
    """A check over tangent samples.  `routes(metric, samples)` takes the
    whole TangentSample stack (m, n) and returns the values a and b of the
    check's two routes, with a leading member axis, and the scale of their
    difference, which broadcasts against them.  The value is the worst
    |a - b| / scale over all members and components, or the worst a - b
    when `one_sided`; a NaN anywhere makes it NaN, which fails.  `count`
    maps the configured `samples` to the number drawn, and `tol` may be a
    function of the metric."""

    def check(metric, cfg):
        n = cfg["samples"] if count is None else count(cfg["samples"])
        a, b, scale = routes(metric, _samples_for(metric, n))
        d = np.subtract(a, b)
        return float(np.max(d if one_sided else np.abs(d) / scale)), \
            tol(metric) if callable(tol) else tol

    return check


def _homogeneity(metric, s):
    F = metric.F_batch(s.x, s.y)
    lams = (0.5, 2.0)
    return (np.stack([metric.F_batch(s.x, lam * s.y) for lam in lams], axis=-1),
            F[:, None] * lams, np.maximum(F, 1e-12)[:, None])


def _definiteness(metric, s):
    # one-sided against 0: a zero eigenvalue (singular g) reports -0.0,
    # which stays above the tolerance -tiny
    return -np.linalg.eigvalsh(fundamental_tensor(metric, s).g), 0.0, 1.0


def _jb(metric, s):
    # -g(B, y)/2 against the rate of C along the geodesic flow (Shen 2001),
    # y^m dC_ijk/dx^m - 2 G^l dC_ijk/dy^l - C_ljk N^l_i - C_ilk N^l_j - C_ijl N^l_k
    # with N = dG/dy, both from one spray workspace
    s.validate(metric)
    ws = spray_jets(metric, s.x, s.y, 1, 5)
    G, N, B = (derivative_tensor(ws.G, 0, k) for k in (0, 1, 3))
    gy = 0.5 * np.einsum("...ij,...j->...i", derivative_tensor(ws.f2, 0, 2), s.y)
    C = 0.25 * derivative_tensor(ws.f2, 0, 3)
    C_dot = 0.25 * (np.einsum("...m,...mijk->...ijk", s.y, derivative_tensor(ws.f2, 1, 3))
                    - 2.0 * np.einsum("...l,...ijkl->...ijk", G, derivative_tensor(ws.f2, 0, 4)))
    C_dot -= (np.einsum("...ljk,...li->...ijk", C, N) + np.einsum("...ilk,...lj->...ijk", C, N)
              + np.einsum("...ijl,...lk->...ijk", C, N))
    B_norm = np.sqrt(np.sum(B.reshape(len(B), -1) ** 2, axis=-1))
    return (-0.5 * np.einsum("...mijk,...m->...ijk", B, gy), C_dot,
            (1.0 + B_norm)[:, None, None, None])


def _es(metric, s):
    S_jet, E = curvature.s_jet_workspace(metric, s, density_field(metric))
    return derivative_tensor(S_jet, 0, 2), 2.0 * E, 1.0


def _okada(metric, s):
    fj = metric.jet(s.x, s.y, 1, 1)
    return derivative_tensor(fj, 1, 0), fj.value[:, None] * derivative_tensor(fj, 0, 1), 1.0


def _ll(metric, s):
    F = metric.F_batch(s.x, s.y)[:, None, None, None]
    return curvature.landsberg_from_berwald(metric, s), -0.5 * F * cartan_tensor(metric, s), 1.0


def _kk(metric, s):
    F = metric.F_batch(s.x, s.y)[:, None, None, None]
    return curvature.landsberg_dot(metric, s), F * F * cartan_tensor(metric, s), 1.0


def _funk_s(metric, s):
    S = curvature.s_curvature(metric, s, method="analytic").S
    return S, (metric.n + 1) / 2.0 * metric.F_batch(s.x, s.y), 1.0


def _funk_e(metric, s):
    bt = curvature.berwald_curvature(metric, s)
    ft = fundamental_tensor(metric, s)
    F, gy = ft.F, (ft.g @ s.y[..., None])[..., 0]
    # the coefficient by scalar powers: numpy's vectorised power can round differently
    coef = np.array([(metric.n + 1) / (4 * f ** 3) for f in F])[:, None, None]
    F = F[:, None, None]
    return bt.E, coef * (F * F * ft.g - gy[:, :, None] * gy[:, None, :]), 1.0


def _cc_fit(metric, s):
    kappa = _EXPECTED_KAPPA[metric.name][0]
    ts = np.linspace(0.0, 1.5, 16)
    fits = curvature.constant_curvature_ode_check(metric, s.x, s.y, kappa, ts)
    return np.array([fit.prediction_error for fit in fits]), 0.0, 1.0


def _dot_lc(metric, s):
    unit = TangentSample(s.x, s.y / metric.F_batch(s.x, s.y)[:, None])
    return curvature.dot_lc_residual(metric, unit, _EXPECTED_KAPPA[metric.name][0]), 0.0, 1.0


def _transport_norms(metric, s):
    # F of each transported frame vector against its value at t = 0, F(x, e_i);
    # past a member's reach, where the states are nan, there is no difference
    tr = parallel_transport(metric, s.x, s.y / metric.F_batch(s.x, s.y)[:, None], 2.0,
                            np.eye(metric.n))
    Ft = metric.F_batch(np.broadcast_to(tr.path.x[..., None, :], tr.frames.shape), tr.frames)
    F0 = Ft[:, :1]
    return np.where(np.isnan(tr.path.x[..., :1]), F0, Ft), F0, F0


def _check_ball_formula(metric, cfg):
    est = measures.ball_volume(
        metric, measures.BallSpec(np.zeros(metric.n), 1.0, "funk_closed_form"),
        n_samples=cfg["mc_samples"], seed=cfg["seed"],
    )
    target = measures.funk_ball_formula(metric.n, 1.0)
    dev = abs(est.value - target)
    if dev > 3.0 * est.stderr and dev > 0.01 * target:
        return dev / target, 0.01
    return dev / target, max(0.01, 3.0 * est.stderr / target)


def _check_model_equality(metric, cfg):
    n = metric.n
    lam, delta = comparison.default_model(metric)
    worst = 0.0
    for r in np.linspace(0.3, 6.0, 20):
        V = comparison.model_volume(lam, delta, n, r)
        worst = max(worst, abs(V - measures.funk_ball_formula(n, r)))
    return worst, 1e-8


def _check_santalo(metric, cfg):
    vol = santalo_volume(metric)
    target = unit_sphere_area(metric.n)
    if metric.name == "euclidean":
        return abs(vol - target), 1e-5
    # strict inequality with a definite margin for non-Euclidean norms
    margin = target - vol
    return -margin, -1e-4


def _check_projective_pair(metric, cfg):
    other = make_metric("hilbert" if metric.name == "funk" else "funk",
                        n=metric.n, domain=cfg["domain"])
    x = chart_points(metric, 3)[1]
    d = halton_directions(metric.n, 3)[1]
    ts = np.linspace(0.0, 2.0, 41)
    return curvature.projective_ode_check(
        metric, other, _EXPECTED_KAPPA[metric.name][0], _EXPECTED_KAPPA[other.name][0],
        x, d, ts), 1e-4


_CHECKS = [
    # (id, anchor string, applies-to predicate, function)
    ("homogeneity_f2a", "F(x, t y) = t F(x, y) for t > 0", lambda m: True,
     _sampled(_homogeneity, 1e-10)),
    ("positive_definite_f2b", "g_y positive definite on the slit tangent bundle",
     lambda m: True, _sampled(_definiteness, -np.finfo(float).tiny, one_sided=True)),
    ("jb_identity", "L(u,v,w) = -g(B(u,v,w), y)/2", lambda m: True,
     _sampled(_jb, 1e-6)),
    ("es_identity", "E = (1/2) * fiber Hessian of S", lambda m: True,
     _sampled(_es, 1e-5, count=lambda k: min(k, 10))),
    ("okada_pde", "dF/dx^i = F dF/dy^i (Funk)", lambda m: m.name == "funk",
     _sampled(_okada, 1e-8, count=lambda k: 50)),
    ("ll_funk", "L + (F/2) C = 0 (Funk)", lambda m: m.name == "funk",
     _sampled(_ll, 1e-4)),
    ("kk_hilbert", "L-dot - F^2 C = 0 (Hilbert)", lambda m: m.name == "hilbert",
     _sampled(_kk, 1e-4, count=lambda k: min(k, 6))),
    ("flag_curvature", "principal curvatures equal the metric's constant",
     lambda m: m.name in _EXPECTED_KAPPA,
     _sampled(lambda m, s: (curvature.riemann_curvature(m, s).principal,
                            _EXPECTED_KAPPA[m.name][0], 1.0),
              lambda m: _EXPECTED_KAPPA[m.name][1])),
    ("funk_s_formula", "S = (n+1) F / 2 (Funk)", lambda m: m.name == "funk",
     _sampled(_funk_s, 1e-6)),
    ("funk_e_formula", "E = (n+1)/(4F^3) {F^2 g - g(y,.) g(y,.)} (Funk)",
     lambda m: m.name == "funk", _sampled(_funk_e, 1e-6)),
    ("ball_formula", "mu(B(x,r)) = n 2^n Vol(B^n) int e^{-(n+1)t} sinh^{n-1} t dt (Funk)",
     lambda m: m.name == "funk" and m.n == 2, _check_ball_formula),
    ("model_equality", "V_{-1/4, (n+1)/(2(n-1))} equals the Funk ball volume",
     lambda m: m.name == "funk", _check_model_equality),
    ("santalo", "indicatrix volume <= Vol(S^(n-1)), equality iff Euclidean",
     lambda m: m.is_minkowski and m.reversible and m.n in (2, 3), _check_santalo),
    ("cc_ode_fit", "C'' + kappa C = 0 along geodesics (closed-form fit)",
     lambda m: m.name in ("funk", "hilbert", "riemannian_sphere", "riemannian_hyperbolic"),
     _sampled(_cc_fit, 1e-4, count=lambda k: 3)),
    ("dot_lc", "L-dot + kappa F^2 C = 0 at constant curvature",
     lambda m: m.name in ("funk", "hilbert"),
     _sampled(_dot_lc, lambda m: 1e-5 if m.name == "funk" else 1e-4,
              count=lambda k: min(k, 6))),
    ("projective_pair", "phi'' + kappa phi = kappa~ / phi^3 for projectively related pairs",
     lambda m: m.name in ("funk", "hilbert"), _check_projective_pair),
    ("berwald_flat", "B = 0 for Berwald metrics", lambda m: m.name == "berwald_product",
     _sampled(lambda m, s: (curvature.berwald_curvature(m, s).norm(), 0.0, 1.0), 1e-8)),
    ("berwald_s_vanishes", "S = 0 for Berwald metrics with the BH measure",
     lambda m: m.name == "berwald_product",
     _sampled(lambda m, s: (curvature.s_curvature(m, s, method="geodesic").S, 0.0, 1.0),
              1e-6, count=lambda k: min(k, 6))),
    ("transport_preserves_norms", "parallel transport preserves F on Berwald metrics",
     lambda m: m.name == "berwald_product",
     _sampled(_transport_norms, 1e-6, count=lambda k: 3)),
]


def run_verify(cfg) -> SuiteReport:
    metric = build_metric(cfg)
    selected = None
    if cfg.get("checks"):
        selected = set(cfg["checks"].split(",")) if isinstance(cfg["checks"], str) \
            else set(cfg["checks"])
        known = {cid for cid, *_ in _CHECKS}
        bad = selected - known
        if bad:
            raise ConfigurationError(f"unknown check ids: {', '.join(sorted(bad))}")
    report = SuiteReport(config=cfg)
    tol_over = cfg.get("tolerances", {})
    for cid, anchor, applies, fn in _CHECKS:
        if selected is not None and cid not in selected:
            continue
        if not applies(metric):
            report.checks.append(CheckResult(cid, anchor, "skipped", None, None))
            continue
        value, tol = fn(metric, cfg)
        tol = tol_over.get(cid, tol)
        status = "pass" if value <= tol else "fail"
        report.checks.append(CheckResult(cid, anchor, status, float(value), float(tol)))
    return report


# ---------------------------------------------------------------------------
# Report subcommands
# ---------------------------------------------------------------------------


def run_curvature_report(cfg):
    metric = build_metric(cfg)
    s = _samples_for(metric, cfg["samples"])
    rep = curvature.riemann_curvature(metric, s)
    rows = [[idx, *s.x[idx], *s.y[idx], rep.F[idx], rep.ricci[idx], *rep.principal[idx],
             rep.flag_constant[idx], rep.Ry_y_norm[idx], rep.self_adjoint_defect[idx]]
            for idx in range(len(s.x))]
    n = metric.n
    cols = (["i"] + [f"x{k}" for k in range(n)] + [f"y{k}" for k in range(n)]
            + ["F", "ricci"] + [f"kappa{k}" for k in range(n - 1)]
            + ["flag_constant", "Ry_y_rel", "self_adjoint_defect"])
    return cols, rows


def run_geodesic_report(cfg):
    metric = build_metric(cfg)
    n = metric.n
    x0 = cfg["start"] if cfg["start"] is not None else [0.0] * n
    y0 = cfg["direction"] if cfg["direction"] is not None else [1.0] + [0.0] * (n - 1)
    ts = np.linspace(0.0, float(cfg["t_end"]), int(cfg["t_points"]))
    path = integrate_geodesic(metric, x0, y0, float(cfg["t_end"]), t_eval=ts)
    cols = (["t"] + [f"x{k}" for k in range(n)] + [f"xdot{k}" for k in range(n)]
            + ["F"])
    return cols, path.to_rows(), path


def _model(cfg, metric):
    """The configured (lambda, delta), each defaulting to the metric's model."""
    return tuple(d if cfg[k] is None else cfg[k]
                 for k, d in zip(("lam", "delta"), comparison.default_model(metric)))


def run_volume_report(cfg):
    metric = build_metric(cfg)
    n = metric.n
    lam, delta = _model(cfg, metric)
    rows = []
    notes = []
    for k, r in enumerate(cfg["radii"]):
        if metric.name in ("funk", "hilbert"):
            source = "funk_closed_form" if metric.name == "funk" else "hilbert_closed_form"
            est = measures.ball_volume(
                metric, measures.BallSpec(np.zeros(n), float(r), source),
                n_samples=cfg["mc_samples"], seed=cfg["seed"] + k,
            )
        else:
            est = measures.ball_volume(
                metric, measures.BallSpec(np.zeros(n), float(r), "geodesic_polar"),
            )
        V = comparison.model_volume(lam, delta, n, float(r))
        rows.append([float(r), est.value, est.stderr, V,
                     est.value / V if V > 0 else float("nan"), int(est.flagged)])
        if est.flagged:
            notes.append(f"r={float(r)!r}: {est.note}")
    return ["r", "mu", "stderr", "model_V", "ratio", "flagged"], rows, notes


def run_compare_report(cfg):
    metric = build_metric(cfg)
    lam, delta = _model(cfg, metric)
    rep = comparison.ratio_monotonicity_check(
        metric, np.zeros(metric.n), lam, delta, cfg["radii"],
        n_samples=cfg["mc_samples"], seed=cfg["seed"],
        sweep_samples=min(cfg["samples"], 50),
    )
    rows = [list(r) for r in rep.rows]
    meta = {
        "monotone_ok": rep.monotone_ok,
        "skipped": rep.skipped,
        "note": rep.note,
        "min_ricci_ratio": rep.precondition.min_ricci_ratio if rep.precondition else None,
        "min_s_ratio": rep.precondition.min_s_ratio if rep.precondition else None,
    }
    return ["r", "mu", "stderr", "model_V", "ratio"], rows, meta


def run_validate(cfg):
    metric = build_metric(cfg)
    validate_metric(metric, n_samples=max(cfg["samples"], 100))
    sigma = bh_density(metric, np.zeros(metric.n))
    return {
        "metric": metric.name,
        "n": metric.n,
        "reversible": metric.reversible,
        "validated_samples": max(cfg["samples"], 100),
        "bh_density_at_origin": sigma,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--metric", help="metric id from the catalog")
    p.add_argument("--dim", type=int, help="chart dimension")
    p.add_argument("--domain", help="convex domain: unit_ball or quartic:EPS")
    p.add_argument("--variant", help="randers variant: const, closed or curl")
    p.add_argument("--c", type=float, help="randers / berwald 1-form size")
    p.add_argument("--eps", type=float, help="quartic norm perturbation")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, help="tangent samples per check")
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--out", dest="out_dir", help="output directory")


def _parse_floats(text):
    return [float(v) for v in text.split(",")]


def make_parser():
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="curvature, geodesic and volume laboratory for Finsler metrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="construction-time metric validity checks")
    _add_common(p)

    p = sub.add_parser("verify", help="run the identity verification suite")
    _add_common(p)
    p.add_argument("--checks", help="comma-separated check ids to run")

    p = sub.add_parser("curvature", help="curvature report over a sample grid")
    _add_common(p)

    p = sub.add_parser("geodesic", help="integrate one geodesic and dump the path")
    _add_common(p)
    p.add_argument("--from", dest="start", type=_parse_floats, help="start point")
    p.add_argument("--dir", dest="direction", type=_parse_floats, help="initial velocity")
    p.add_argument("--t", dest="t_end", type=float, help="integration time")
    p.add_argument("--t-points", dest="t_points", type=int)

    p = sub.add_parser("volume", help="metric-ball volume table")
    _add_common(p)
    p.add_argument("--radii", type=_parse_floats)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--delta", type=float)

    p = sub.add_parser("compare", help="volume-ratio comparison report")
    _add_common(p)
    p.add_argument("--radii", type=_parse_floats)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--delta", type=float)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        out = _out_dir(cfg)
        tag = f"{cfg['metric']}_n{cfg['dim']}"
        if args.command == "validate":
            payload = run_validate(cfg)
            payload["config"] = {k: v for k, v in cfg.items() if v is not None}
            path = write_json(os.path.join(out, f"validate_{tag}.json"), payload)
            print(f"validation passed; report at {path}")
            return 0
        if args.command == "verify":
            report = run_verify(cfg)
            path = write_json(os.path.join(out, f"verify_{tag}.json"),
                              report.to_payload())
            for c in report.checks:
                line = f"[{c.status.upper():7s}] {c.check_id}: {c.anchor}"
                if c.value is not None:
                    line += f" (value {c.value:.3e}, tol {c.tolerance:.1e})"
                print(line)
            print(f"report at {path}")
            return 1 if report.n_failures else 0
        if args.command == "curvature":
            cols, rows = run_curvature_report(cfg)
            path = write_csv(os.path.join(out, f"curvature_{tag}.csv"),
                             "curvature", cols, rows, cfg)
            print(f"curvature table at {path}")
            return 0
        if args.command == "geodesic":
            cols, rows, path_obj = run_geodesic_report(cfg)
            path = write_csv(os.path.join(out, f"geodesic_{tag}.csv"),
                             "geodesic", cols, rows, cfg)
            note = " (chart exit)" if path_obj.exited else ""
            print(f"geodesic table at {path}{note}")
            return 0
        if args.command == "volume":
            cols, rows, notes = run_volume_report(cfg)
            path = write_csv(os.path.join(out, f"volume_{tag}.csv"),
                             "volume", cols, rows, cfg)
            print(f"volume table at {path}")
            for note in notes:
                print(f"note: {note}")
            return 0
        if args.command == "compare":
            cols, rows, meta = run_compare_report(cfg)
            path = write_csv(os.path.join(out, f"compare_{tag}.csv"),
                             "compare", cols, rows, cfg)
            write_json(os.path.join(out, f"compare_{tag}.json"),
                       {"config": {k: v for k, v in cfg.items() if v is not None},
                        **meta})
            print(f"comparison report at {path}")
            if meta["note"]:
                print(f"note: {meta['note']}")
            return 0
        raise ConfigurationError(f"unknown command {args.command!r}")
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
