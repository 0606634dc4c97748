"""Byte identity as a committed check: a subset of the runs of
tools/snapshot_outputs.py runs again, and every file it writes must have the
sha256 that tools/snapshot_manifest.json records for it.

A change that moves output bits on purpose regenerates the manifest with
`snapshot_outputs.py --manifest OUTDIR` and names the files that moved.  The
manifest records the numpy and scipy versions and the machine type it was
made with; other builds may round differently, so on them this test skips
and says which builds differ.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "snapshot_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_subset_has_the_bits_of_the_manifest(tmp_path):
    tool = _tool()
    with open(tool.MANIFEST) as fh:
        manifest = json.load(fh)
    if manifest["build"] != tool.build():
        pytest.skip(f"manifest made with {manifest['build']}, this host has {tool.build()}")
    runs = [run for run in tool._runs() if run[:2] in tool.SUBSET]
    assert len(runs) == len(tool.SUBSET)
    root = str(tmp_path)
    tool.snapshot(root, runs)
    written = tool.digests(root)
    assert len(written) == 2 * len(runs)  # each run's report and its printout
    assert tool.changed_files(root, manifest, complete=False) == []
    # a moved bit is named, as is a file the manifest does not know
    report = tmp_path / "funk_n2" / "verify_funk_n2.json"
    report.write_text(report.read_text().replace("e-", "E-", 1))
    (tmp_path / "funk_n2" / "extra.csv").write_text("x\n")
    assert tool.changed_files(root, manifest, complete=False) == [
        "funk_n2/extra.csv", "funk_n2/verify_funk_n2.json"]
    # a complete check also names the manifest's files that no run wrote
    assert len(tool.changed_files(root, manifest)) == len(manifest["files"]) - len(written) + 2
