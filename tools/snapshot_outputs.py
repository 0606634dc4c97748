"""Write the outputs of a fixed set of finslerlab commands under OUTDIR, so
that two checkouts can be compared byte for byte with diff -r, and check
them against the committed sha256 manifest:

    PYTHONPATH=src python tools/snapshot_outputs.py OUTDIR
    PYTHONPATH=src python tools/snapshot_outputs.py --check OUTDIR
    PYTHONPATH=src python tools/snapshot_outputs.py --manifest OUTDIR

verify, validate, curvature, geodesic and volume (at 2,000 Monte-Carlo
samples) run on each config of CONFIGS, volume at 100,000 samples on the
configs of BLOCKS, and compare on the runs of COMPARE.  Each label gets a
directory with the files its commands write and one <command>.txt per
command: its exit code and what it printed.  The out-dir path is replaced
by OUT in every file, since the reports embed it.  The commands run in one
process, one after another.

--check names each file whose sha256 differs from MANIFEST (or that the
manifest lacks or misses) and exits 1 if there is one; the outputs stay in
OUTDIR for diff -r against another checkout's.  --manifest rewrites
MANIFEST from this run, with the numpy and scipy versions and the machine
type it ran on: other builds of numpy or scipy may round differently, so a
check on another build says so before its list.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings

import numpy
import scipy

from finslerlab import cli

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


MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshot_manifest.json")

# the runs that tests/test_snapshot.py repeats against the manifest
SUBSET = {("funk_n2", "verify"), ("hilbert_quartic_n2", "verify"),
          ("randers_curl_n3", "verify"), *((label, "volume") for label in BLOCKS)}


def _runs():
    for label, args in CONFIGS.items():
        for command in ("verify", "validate", "curvature", "geodesic"):
            yield label, command, args
        yield label, "volume", [*args, "--mc-samples", "2000"]
    for label, args in BLOCKS.items():
        yield label, "volume", [*args, "--mc-samples", "100000"]
    for label, args in COMPARE.items():
        yield label, "compare", args


def snapshot(root, runs=None):
    """Run runs (label, command, args), all of _runs() by default, into root."""
    for label, command, args in _runs() if runs is None else runs:
        out = os.path.join(root, label)
        os.makedirs(out, exist_ok=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, *args, "--out", out])
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


def build():
    """The versions and machine type that outputs are tied to."""
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def digests(root):
    """sha256 of every file under root, by its path relative to root."""
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def changed_files(root, manifest, complete=True):
    """The files under root whose digest differs from the manifest's or that
    it lacks, and with complete, the manifest's files missing from root."""
    got, want = digests(root), manifest["files"]
    return sorted([p for p in got if want.get(p) != got[p]]
                  + ([p for p in want if p not in got] if complete else []))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--manifest", action="store_true", help="rewrite the manifest")
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.outdir)
    snapshot(root)
    if args.manifest:
        with open(MANIFEST, "w") as fh:
            json.dump({"build": build(), "files": digests(root)}, fh, indent=1)
            fh.write("\n")
    elif args.check:
        with open(MANIFEST) as fh:
            manifest = json.load(fh)
        if manifest["build"] != build():
            print(f"note: the manifest is of {manifest['build']}, this run of {build()}")
        changed = changed_files(root, manifest)
        print("\n".join(f"changed: {p}" for p in changed) or "all files match the manifest")
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
