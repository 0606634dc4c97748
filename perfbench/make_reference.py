"""Regenerate perfbench/reference.json: Monte-Carlo reference volumes of
Hilbert metric balls on the quartic domain, used to check the mc_volume
workload's per-point-density ops, and the Busemann-Hausdorff density at a
few fixed points of that domain, each confirmed by the program's own
rejection-sampling check, used to check the density path at set-up.

Run from the repository root:  python3 perfbench/make_reference.py
It takes a few minutes on one core (every accepted point costs one
spherical-quadrature density evaluation).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DENSITY_POINTS, HILBERT_QUARTIC, MC_RADII  # noqa: E402

N_SAMPLES = 40_000
SEED = 1


def main():
    import numpy as np
    from finslerlab import measures, minkowski
    from finslerlab.metrics import make_metric

    metric = make_metric("hilbert", n=2, domain=HILBERT_QUARTIC)
    rows = []
    for r in MC_RADII:
        est = measures.ball_volume(
            metric, measures.BallSpec(np.zeros(2), r, "hilbert_closed_form"),
            n_samples=N_SAMPLES, seed=SEED)
        rows.append({"radius": r, "value": est.value, "stderr": est.stderr,
                     "n_samples": N_SAMPLES, "seed": SEED})
        print(rows[-1], flush=True)
    densities = []
    for x in DENSITY_POINTS:
        # mc_check: raises unless a seeded rejection sampler agrees within 3 sigma
        densities.append({"x": list(x), "value": minkowski.bh_density(metric, x, mc_check=True)})
        print(densities[-1], flush=True)
    out = {"metric": "hilbert", "n": 2, "domain": HILBERT_QUARTIC,
           "center": [0.0, 0.0], "balls": rows, "densities": densities}
    with open(os.path.join(ROOT, "perfbench", "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
