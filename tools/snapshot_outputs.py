"""Write the outputs of a fixed set of finslerlab commands under OUTDIR, so
that two checkouts can be compared byte for byte with diff -r:

    PYTHONPATH=src python tools/snapshot_outputs.py OUTDIR

verify, validate, curvature, geodesic and volume (at 2,000 Monte-Carlo
samples) run on each config of CONFIGS, volume at 100,000 samples on the
configs of BLOCKS, and compare on the runs of COMPARE.  Each label gets a directory with the files its commands write and
one <command>.txt per command: its exit code and what it printed.  The
out-dir path is replaced by OUT in every file, since the reports embed it.
The commands run in one process, one after another.
"""

import contextlib
import io
import os
import sys
import warnings

from finslerlab.cli import main

CONFIGS = {
    "funk_n2": ["--metric", "funk", "--dim", "2"],
    "funk_n3": ["--metric", "funk", "--dim", "3"],
    "funk_quartic_n2": ["--metric", "funk", "--domain", "quartic:0.1", "--dim", "2"],
    "hilbert_n2": ["--metric", "hilbert", "--dim", "2"],
    "hilbert_quartic_n2": ["--metric", "hilbert", "--domain", "quartic:0.1", "--dim", "2"],
    "hilbert_quartic_n3": ["--metric", "hilbert", "--domain", "quartic:0.1", "--dim", "3"],
    "berwald_product": ["--metric", "berwald_product"],
    "randers_curl_n3": ["--metric", "randers", "--variant", "curl", "--dim", "3"],
    "randers_closed_n3": ["--metric", "randers", "--variant", "closed", "--dim", "3"],
    "randers_const_n3": ["--metric", "randers", "--variant", "const", "--dim", "3"],
    "riemannian_sphere_n2": ["--metric", "riemannian_sphere", "--dim", "2"],
    "riemannian_hyperbolic_n3": ["--metric", "riemannian_hyperbolic", "--dim", "3"],
    "euclidean_n2": ["--metric", "euclidean", "--dim", "2"],
    "quartic_norm_n2": ["--metric", "quartic_norm", "--dim", "2"],
    "quartic_norm_n3": ["--metric", "quartic_norm", "--dim", "3"],
}

# 100,000 samples per radius are four Monte-Carlo blocks of 2^15 points, the
# last one partial; 2,000 samples stay inside one block.
BLOCKS = {f"{label}_blocks": CONFIGS[label] for label in ("funk_n2", "funk_n3", "hilbert_n2")}

SMALL = ["--mc-samples", "2000", "--samples", "5"]
COMPARE = {
    "compare_funk_n3": ["--metric", "funk", "--dim", "3", *SMALL],
    "compare_funk_small_radius": ["--metric", "funk", "--radii", "0.001,0.5", *SMALL],
    "compare_sphere": ["--metric", "riemannian_sphere", *SMALL],
    "compare_euclidean": ["--metric", "euclidean", *SMALL],
}


def _runs():
    for label, args in CONFIGS.items():
        for command in ("verify", "validate", "curvature", "geodesic"):
            yield label, command, args
        yield label, "volume", [*args, "--mc-samples", "2000"]
    for label, args in BLOCKS.items():
        yield label, "volume", [*args, "--mc-samples", "100000"]
    for label, args in COMPARE.items():
        yield label, "compare", args


def snapshot(root):
    for label, command, args in _runs():
        out = os.path.join(root, label)
        os.makedirs(out, exist_ok=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *args, "--out", out])
        # warnings by message alone: their source lines differ between trees
        with open(os.path.join(out, f"{command}.txt"), "w") as fh:
            fh.write(f"exit {code}\n{printed.getvalue()}")
            fh.writelines(f"warning: {w.message}\n" for w in caught)
        print(f"{label} {command}: exit {code}", flush=True)
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(root, "OUT"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: snapshot_outputs.py OUTDIR")
    snapshot(os.path.abspath(sys.argv[1]))
