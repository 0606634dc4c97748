"""Per-call times from traced runs, beside the single-run figures of the
baseline table in ROADMAP.md.

    python3 perfbench/run.py --workload verify --seed 1 --trace 1
    python3 perfbench/run.py --workload polar_volume --seed 1 --trace 1
    python3 perfbench/run.py --workload mc_volume --seed 1 --trace 1
    python3 perfbench/reconcile.py --seed 1

Times are mean inclusive span durations, so they carry the tracer's own
cost of the wrapped calls beneath them.
"""

import argparse
import json
import os
import statistics
from collections import defaultdict

from stats import END, NAME, OP, PARENT, SIZE, START
from workloads import POLAR_DIRS, POLAR_N3_RADII, POLAR_RADII

HERE = os.path.dirname(os.path.abspath(__file__))

# (row, ROADMAP figure in ms, how the ROADMAP measured it)
ROADMAP = {
    "spray_values funk2": (0.25, ""),
    "spray_values funk3": (0.39, ""),
    "spray_values hilbert_quartic": (1.9, ""),
    "spray_jets(2,4) funk2": (2.5, ""),
    "riemann_curvature funk2": (2.1, ""),
    "riemann_curvature funk3": (10.0, ""),
    "riemann_curvature hilbert_quartic": (7.1, ""),
    "variational_flow funk2": (121.0, "t=1"),
    "polar per direction funk2": (11100.0 / 96, "r=1, 96 directions"),
    "Funk MC per 1e6 points funk2": (250.0, "unit ball"),
}


def load(workload, seed):
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}.trace.jsonl")
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    kinds = [label.split()[0] for label in head["ops"]]
    return spans, kinds


def per_call(spans, kinds, name, parent=None, per=lambda s: 1):
    """Mean duration in ms of spans called `name`, grouped by op kind."""
    groups = defaultdict(list)
    for s in spans:
        if s[NAME] != name or s[OP] < 0:
            continue
        if parent is not None and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != parent):
            continue
        groups[kinds[s[OP]]].append(1e3 * (s[END] - s[START]) / per(s))
    return {k: (statistics.mean(v), len(v)) for k, v in groups.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rows = {}
    verify = load("verify", args.seed)
    for kind, v in per_call(*verify, "geodesics.spray_values").items():
        rows[f"spray_values {kind}"] = v + ("verify ops",)
    for kind, v in per_call(*verify, "geodesics.spray_jets",
                            parent="curvature.riemann_curvature").items():
        rows[f"spray_jets(2,4) {kind}"] = v + ("inside riemann_curvature",)
    for kind, v in per_call(*verify, "curvature.riemann_curvature").items():
        rows[f"riemann_curvature {kind}"] = v + ("verify ops",)
    polar = load("polar_volume", args.seed)
    r_max = {2: max(POLAR_RADII), 3: max(POLAR_N3_RADII)}
    for kind, v in per_call(*polar, "geodesics.variational_flow").items():
        n = int(kind[-1])
        rows[f"variational_flow funk{n}"] = v + (f"t={r_max[n]}",)
    for kind, v in per_call(*polar, "measures.polar_ball_volumes").items():
        n = int(kind[-1])
        rows[f"polar per direction funk{n}"] = (v[0] / POLAR_DIRS[n], v[1],
                                               f"r={r_max[n]}, {POLAR_DIRS[n]} directions")
    mc = load("mc_volume", args.seed)
    for kind, v in per_call(*mc, "measures.bh_volume", per=lambda s: s[SIZE] / 1e6).items():
        if kind.startswith("funk"):
            rows[f"Funk MC per 1e6 points {kind}"] = v + ("radii 0.5, 1, 2",)
    print("| operation | traced, ms per call | calls | traced setting | ROADMAP, ms | "
          "ROADMAP setting | ratio |")
    print("|---|---|---|---|---|---|---|")
    for key in sorted(rows):
        ms, n, how = rows[key]
        ref, ref_how = ROADMAP.get(key, (None, ""))
        ratio = f"{ms / ref:.2f}" if ref else ""
        print(f"| {key} | {ms:.3g} | {n} | {how} | {'' if ref is None else f'{ref:.3g}'} | "
              f"{ref_how} | {ratio} |")


if __name__ == "__main__":
    main()
