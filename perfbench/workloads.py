"""The benchmark's three workloads: inputs made from a seed, the ops that
run them through finslerlab's public API, and the check of every op's
output.

Importing this module imports no finslerlab and no numpy, so the set-up
time a run reports includes the whole import.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# verify: one op per (config, check id), the path of
# `finslerlab verify --metric M --checks ID`
# ---------------------------------------------------------------------------

# (label, CLI flags, applicable check ids, warm-up check id).  The check
# lists are fixed here rather than read from the program, so a later change
# that adds checks does not change this workload; one that removes or breaks
# a check shows as a failed op.
VERIFY_CONFIGS = (
    ("funk2", ["--metric", "funk", "--dim", "2"],
     ("homogeneity_f2a", "positive_definite_f2b", "jb_identity", "es_identity",
      "okada_pde", "ll_funk", "flag_curvature", "funk_s_formula",
      "funk_e_formula", "ball_formula", "model_equality", "cc_ode_fit",
      "dot_lc", "projective_pair"),
     "flag_curvature"),
    ("funk3", ["--metric", "funk", "--dim", "3"],
     ("homogeneity_f2a", "positive_definite_f2b", "jb_identity", "es_identity",
      "okada_pde", "ll_funk", "flag_curvature", "funk_s_formula",
      "funk_e_formula", "model_equality", "cc_ode_fit", "dot_lc",
      "projective_pair"),
     "flag_curvature"),
    ("hilbert_quartic", ["--metric", "hilbert", "--dim", "2", "--domain", "quartic:0.1"],
     ("homogeneity_f2a", "positive_definite_f2b", "jb_identity", "es_identity",
      "kk_hilbert", "flag_curvature", "cc_ode_fit", "dot_lc",
      "projective_pair"),
     "flag_curvature"),
    ("berwald_product", ["--metric", "berwald_product"],
     ("homogeneity_f2a", "positive_definite_f2b", "jb_identity", "es_identity",
      "berwald_flat", "berwald_s_vanishes", "transport_preserves_norms"),
     "berwald_flat"),
)

# ---------------------------------------------------------------------------
# polar_volume and mc_volume
# ---------------------------------------------------------------------------

POLAR_RADII = (0.5, 1.0, 2.0)    # one n=2 op sweeps all three radii at once
POLAR_DIRS = {2: 4, 3: 8}         # directions per polar op
POLAR_N2_SPREAD = 0.5             # n=2 centres lie in this Euclidean ball
POLAR_N3_SPREAD = 0.2             # the n=3 centre lies in this ball
POLAR_N3_RADII = (0.5,)           # the single n=3 op of a run
# Relative tolerance against the Funk ball formula.  On these grids the
# n=2 sweep is exact to ~3e-11 (4 directions as with 8); the n=3 2 x 4
# product grid is exact at the origin and drifts to ~6e-5 at distance 0.2.
POLAR_RTOL = {2: 1e-9, 3: 5e-4}

MC_RADII = (0.5, 1.0, 2.0)
MC_FUNK_SAMPLES = 500_000
HILBERT_QUARTIC = "quartic:0.1"
# Points per Hilbert-quartic op, chosen so that each op accepts about 100
# points (acceptance 0.157, 0.426 and 0.682 at these radii) and so costs
# about the same: ~100 bh_density quadratures.
MC_HILBERT_SAMPLES = {0.5: 640, 1.0: 240, 2.0: 150}
# Estimates must lie within MC_NSIGMA standard errors of their target.
# Funk estimates use their own standard error: at 5e5 points they are
# normal, and an honest one misses with chance 6e-7.  The Hilbert-quartic
# density is skewed (it grows ~50-fold towards the ball's rim at r=2), so
# with ~100 accepted points the sample's own standard error is unreliable:
# in a bootstrap from 6,000 points, 9e-4 of r=2 ops missed by 5 of them.
# Those ops use instead the standard error an N-point estimate has, from
# the per-point spread of the reference run; no bootstrap draw in 1e5
# missed by 6 of those.
MC_NSIGMA = {"funk": 5.0, "hilbert": 6.0}
# The Hilbert-quartic ops of a run are also pooled per radius: the mean of
# about ten estimates, normal enough for a 5-sigma rule, and about three
# times tighter than the single-op check.
MC_POOLED_NSIGMA = 5.0
# Points of the quartic domain, from its centre to near its rim, where
# bh_density is checked at set-up against reference.json; the values there
# are confirmed by the program's rejection sampler when they are made.
DENSITY_POINTS = ((0.0, 0.0), (0.3, 0.1), (-0.5, 0.4), (0.7, -0.2), (0.1, 0.85))
DENSITY_RTOL = 1e-8


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    ``run`` returns the program's output; ``check`` maps it to
    (correct, work units, note).
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


class Workload:
    name = ""
    unit = ""  # the work unit counted by work_per_s
    trace_rounds = 1  # rounds of a traced run: a fixed amount of work

    def prepare(self, seed):
        """Build metrics and targets and run one warm-up op of each kind."""
        raise NotImplementedError

    def make_round(self, rng, first):
        """The ops of one round, in seeded order.  Every round holds the same
        mix of ops, except that the first may add ops run once per run."""
        raise NotImplementedError

    def self_check(self):
        """Untimed checks of the program made after set-up; returns the faults."""
        return []

    def run_check(self):
        """Checks of the run's ops taken together; returns the faults."""
        return []


def _import_program():
    """Import every layer; the timed set-up starts here."""
    from finslerlab import cli, measures, metrics  # noqa: F401

    return cli, measures, metrics


class VerifyWorkload(Workload):
    """The user-facing path: one op per (config, check), the metric built
    inside each op.  Jet-bound checks set the median, ODE-bound ones the
    tail."""

    name = "verify"
    unit = "passing check"

    def prepare(self, seed):
        cli, _, _ = _import_program()
        self.cli = cli
        self.cfgs = {}
        for label, flags, checks, warm in VERIFY_CONFIGS:
            for cid in checks + (warm,):
                argv = ["verify", *flags, "--checks", cid, "--seed", str(seed)]
                self.cfgs[label, cid] = cli.resolve_config(cli.make_parser().parse_args(argv))
        for label, _, _, warm in VERIFY_CONFIGS:
            self._op(label, warm).run()

    def _op(self, label, cid):
        cfg = self.cfgs[label, cid]

        def run():
            return self.cli.run_verify(cfg)

        def check(report):
            got = [c for c in report.checks if c.check_id == cid]
            if len(report.checks) != 1 or len(got) != 1:
                return False, 0, f"report holds {len(report.checks)} checks"
            c = got[0]
            if c.status != "pass":
                return False, 0, f"status {c.status} (value {c.value}, tol {c.tolerance})"
            if not (math.isfinite(c.value) and c.value <= c.tolerance):
                return False, 0, f"value {c.value} above tolerance {c.tolerance}"
            return True, 1, ""

        return Op(label, f"{label} {cid}", run, check)

    def make_round(self, rng, first):
        ops = [self._op(label, cid)
               for label, _, checks, _ in VERIFY_CONFIGS for cid in checks]
        rng.shuffle(ops)
        return ops


def _point_in_ball(rng, n, radius):
    """Uniform point in the Euclidean ball of the given radius."""
    while True:
        p = [rng.uniform(-radius, radius) for _ in range(n)]
        if sum(v * v for v in p) < radius * radius:
            return p


class PolarWorkload(Workload):
    """Per-call overhead: geodesics and small (2,3)-order jets at one point
    per ODE step, over few directions.  A round is one n=2 sweep at a
    seeded centre; the first round adds the run's single n=3 sweep."""

    name = "polar_volume"
    unit = "integrated direction"
    trace_rounds = 20

    def prepare(self, seed):
        _, measures, metrics = _import_program()
        self.measures = measures
        self.metric = {n: metrics.make_metric("funk", n=n) for n in (2, 3)}
        self.target = {(n, r): measures.funk_ball_formula(n, r)
                       for n in (2, 3) for r in POLAR_RADII}
        for n in (2, 3):
            measures.polar_ball_volumes(self.metric[n], [0.0] * n, POLAR_N3_RADII, n_dirs=1)

    def _op(self, n, centre, radii):
        metric = self.metric[n]
        # n=2: a circle grid of n_dirs nodes; n=3: an n_dirs x 2 n_dirs sphere grid
        n_dirs = POLAR_DIRS[2] if n == 2 else math.isqrt(POLAR_DIRS[3] // 2)

        def run():
            return self.measures.polar_ball_volumes(metric, centre, radii, n_dirs=n_dirs)

        def check(out):
            mu, exited = out
            if exited:
                return False, 0, "flow left the chart"
            for r, v in zip(radii, mu):
                err = abs(float(v) - self.target[n, r]) / self.target[n, r]
                if not err <= POLAR_RTOL[n]:
                    return False, 0, f"r={r}: relative error {err:.3e} vs the ball formula"
            return True, POLAR_DIRS[n], ""

        return Op(f"n{n}", f"n={n} centre={[round(v, 4) for v in centre]} radii={radii}",
                  run, check)

    def make_round(self, rng, first):
        ops = [self._op(2, _point_in_ball(rng, 2, POLAR_N2_SPREAD), POLAR_RADII)]
        if first:
            ops.append(self._op(3, _point_in_ball(rng, 3, POLAR_N3_SPREAD), POLAR_N3_RADII))
            rng.shuffle(ops)
        return ops


class McWorkload(Workload):
    """No jets: vectorised Funk balls beside per-point bh_density quadrature
    on the quartic domain, so jets, geodesics and curvature changes must not
    move it."""

    name = "mc_volume"
    unit = "MC point"
    trace_rounds = 6

    def prepare(self, seed):
        _, measures, metrics = _import_program()
        import numpy as np

        self.np = np
        self.measures = measures
        self.metric = {
            "funk2": metrics.make_metric("funk", n=2),
            "funk3": metrics.make_metric("funk", n=3),
            "hilbert_quartic": metrics.make_metric("hilbert", n=2, domain=HILBERT_QUARTIC),
        }
        self.target = {}
        for n in (2, 3):
            for r in MC_RADII:
                self.target[f"funk{n}", r] = (measures.funk_ball_formula(n, r), 0.0, None)
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        for row in ref["balls"]:
            self.target["hilbert_quartic", row["radius"]] = (
                row["value"], row["stderr"], row["stderr"] * math.sqrt(row["n_samples"]))
        self.densities = ref["densities"]
        self.estimates = {}  # label -> (radius, value) of the Hilbert-quartic ops
        for kind in self.metric:
            self._op(kind, MC_RADII[0], 0, 100).run()

    def _op(self, kind, r, seed, n_samples=None):
        measures, np = self.measures, self.np
        metric = self.metric[kind]
        funk = kind.startswith("funk")
        if n_samples is None:
            n_samples = MC_FUNK_SAMPLES if funk else MC_HILBERT_SAMPLES[r]
        ball = measures.BallSpec(np.zeros(metric.n), r,
                                 "funk_closed_form" if funk else "hilbert_closed_form")
        target = self.target.get((kind, r))

        def run():
            return measures.ball_volume(metric, ball, n_samples=n_samples, seed=seed)

        def check(est):
            value, ref_err, point_sd = target
            err = est.stderr if point_sd is None else point_sd / math.sqrt(n_samples)
            nsigma = MC_NSIGMA["funk" if funk else "hilbert"]
            tol = nsigma * math.hypot(err, ref_err)
            dev = abs(est.value - value)
            if est.flagged or not est.n_samples == n_samples:
                return False, 0, f"flagged={est.flagged} n_samples={est.n_samples}"
            if not funk:
                self.estimates[f"{kind} r={r} seed={seed}"] = (r, est.value)
            if not dev <= tol:
                return False, 0, f"off by {dev:.4g} > {nsigma:g} sigma ({tol:.4g})"
            return True, n_samples, ""

        return Op(kind, f"{kind} r={r} seed={seed} N={n_samples}", run, check)

    def self_check(self):
        """bh_density, the per-point path of the quartic ops, at fixed points."""
        from finslerlab import minkowski

        faults = []
        for row in self.densities:
            got = minkowski.bh_density(self.metric["hilbert_quartic"], row["x"])
            if not abs(got - row["value"]) <= DENSITY_RTOL * row["value"]:
                faults.append(f"bh_density at {row['x']}: {got!r}, reference {row['value']!r}")
        return faults

    def run_check(self):
        """The pooled Hilbert-quartic estimate of each radius: k ops of N
        points each make one kN-point estimate."""
        faults = []
        for r in MC_RADII:
            values = [v for rr, v in self.estimates.values() if rr == r]
            if not values:
                continue
            value, ref_err, point_sd = self.target["hilbert_quartic", r]
            err = point_sd / math.sqrt(MC_HILBERT_SAMPLES[r] * len(values))
            tol = MC_POOLED_NSIGMA * math.hypot(err, ref_err)
            dev = abs(sum(values) / len(values) - value)
            if not dev <= tol:
                faults.append(f"hilbert_quartic r={r}: mean of {len(values)} ops off by "
                              f"{dev:.4g} > {MC_POOLED_NSIGMA:g} sigma ({tol:.4g})")
        return faults

    def make_round(self, rng, first):
        ops = [self._op(kind, r, rng.randrange(2 ** 31))
               for kind in self.metric for r in MC_RADII]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (VerifyWorkload, PolarWorkload, McWorkload)}
