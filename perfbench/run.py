"""finslerlab benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process drives the program as one
closed-loop client: ops run back to back, each after the previous one
returned, with BLAS/OpenMP threads pinned to 1.  Every op's output is
checked; a failed op (raised, returned a fail status, or failed the check)
is listed and counted.  Rounds of ops run while the next round is expected
to end within --seconds; a round holds the same mix of ops every time, so
runs with different seeds measure the same work.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 it reports the per-layer metrics of a traced run, which does a
fixed number of rounds whatever --seconds says, so that its counts compare
between versions of the program; spans are written under perfbench/out/.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 3      # set-ups per untraced run: this process plus two probes
PROBE_TIMEOUT_S = 150
SETUP_KERNEL_SAMPLES = 5  # speed-kernel timings before, and again after, each set-up

# A shared host's speed drifts by up to +-30% over tens of seconds, which
# moves every wall time of a run together.  A fixed pure-Python kernel, timed
# a few times after each op and around each set-up, measures that drift in
# the same run; times are reported scaled to a reference host on which the
# kernel takes KERNEL_REFERENCE_S.  An op is scaled by the kernel timed
# around the ops within KERNEL_WINDOW places of it.  Raw wall times are
# printed beside the scaled ones.
KERNEL_LOOPS = 20_000
KERNEL_REFERENCE_S = 1e-3
KERNEL_SAMPLES_PER_OP = 3
KERNEL_WINDOW = 3

import stats  # noqa: E402
from stats import OpResult  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(op):
    """Time one op, check its output, and count step-widening warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed op is recorded, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    widenings = sum(1 for w in caught if "widening" in str(w.message))
    if error is not None:
        return OpResult(op.kind, op.label, dt, False, False, 0, error), widenings
    ok, units, note = op.check(out)
    return OpResult(op.kind, op.label, dt, ok, not ok, units if ok else 0, note), widenings


def kernel():
    """The speed reference: fixed pure-Python work, never touched by the program."""
    s = 0
    for i in range(KERNEL_LOOPS):
        s += i * i
    return s


def kernel_times(samples):
    out = []
    for _ in range(samples):
        k0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - k0)
    return out


@dataclass
class Run:
    """What one run did: its op results, and the speed-kernel times."""

    results: list = field(default_factory=list)
    widenings: int = 0
    rounds: int = 0
    kernel_s: list = field(default_factory=list)
    faults: list = field(default_factory=list)   # run-level check failures
    untraced_s: list = field(default_factory=list)  # traced run: the same ops untraced

    def time_kernel(self):
        self.kernel_s += kernel_times(KERNEL_SAMPLES_PER_OP)

    def scale(self):
        """Factor from raw seconds to reference seconds, for the run as a whole."""
        return KERNEL_REFERENCE_S / statistics.median(self.kernel_s)


def run_rounds(workload, seed, seconds):
    """Run whole rounds while the next one is expected to fit in `seconds`."""
    rng = random.Random(seed)
    run = Run()
    t_start = time.perf_counter()
    last = 0.0
    while run.rounds == 0 or time.perf_counter() - t_start + last <= seconds:
        r0 = time.perf_counter()
        for op in workload.make_round(rng, run.rounds == 0):
            res, w = run_op(op)
            run.results.append(res)
            run.widenings += w
            run.time_kernel()
        run.rounds += 1
        last = time.perf_counter() - r0
    run.faults = workload.run_check()
    return run


def run_traced(workload, seed, tracer):
    """A fixed number of rounds, each op run once traced and once untraced,
    back to back and in alternating order, so that the host's drift and the
    second run's warm caches cancel out of the tracing overhead."""
    rng = random.Random(seed)
    run = Run()
    tracer.start_ops()
    for rnd in range(workload.trace_rounds):
        for op in workload.make_round(rng, rnd == 0):
            i = len(run.results)
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                    tracer.op = i
                    res, w = run_op(op)
                    tracer.op = -1
                    tracer.uninstall()
                else:
                    again = run_op(op)[0]
                    run.untraced_s.append(again.seconds)
                    if again.wrong:
                        run.faults.append(f"{again.label} untraced: {again.note}")
            run.results.append(res)
            run.widenings += w
            run.time_kernel()
    run.rounds = workload.trace_rounds
    run.faults += workload.run_check()
    return run


def timed_setup(workload, seed, tracer=None):
    """Set-up time in raw seconds, and the speed kernel's median time
    around it."""
    before = kernel_times(SETUP_KERNEL_SAMPLES)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import finslerlab.cli  # noqa: F401  (the import is part of set-up)

    if tracer is not None:
        tracer.install()
    workload.prepare(seed)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return dt, statistics.median(before + kernel_times(SETUP_KERNEL_SAMPLES))


def probe_setup(name, seed):
    """Set-up of a fresh process, as every CLI run pays it: (raw seconds,
    kernel time)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["kernel_s"]


def report_untraced(workload, run, setups):
    raw = run.results
    factors = stats.local_scales(run.kernel_s, KERNEL_SAMPLES_PER_OP, KERNEL_WINDOW,
                                 KERNEL_REFERENCE_S)
    results = stats.scaled(raw, factors)  # in reference seconds
    p50, raw_p50 = stats.op_p50(results), stats.op_p50(raw)
    (tail, pct, n), raw_tail = stats.op_tail(results), stats.op_tail(raw)[0]
    wps, raw_wps = stats.work_per_s(results), stats.work_per_s(raw)
    fails = [r for r in results if not r.ok]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each set-up is scaled by the kernel timed around it
    setup_s = statistics.median(t * KERNEL_REFERENCE_S / k for t, k in setups)
    print(f"workload {workload.name}: {len(results)} ops in {run.rounds} round(s), "
          f"{len(fails)} failed")
    print(f"  host speed: kernel median {statistics.median(run.kernel_s) * 1e3:.4f} ms over "
          f"{len(run.kernel_s)} samples; times below are reference seconds (raw x "
          f"{min(factors):.4f} to {max(factors):.4f}), raw in brackets")
    print(f"  setup_s     {setup_s:.4f} s  median of {len(setups)} set-ups, each scaled by "
          f"the kernel around it: " + ", ".join(
              f"{t * KERNEL_REFERENCE_S / k:.3f} [{t:.3f}]" for t, k in setups))
    print(f"  op_p50_s    {p50:.4f} s  [{raw_p50:.4f}]  {n} samples")
    if tail is None:
        print(f"  op_tail_s   omitted: {n} samples, needs {stats.TAIL_BEYOND + 1}")
    else:
        print(f"  op_tail_s   {tail:.4f} s  [{raw_tail:.4f}]  p{pct:.1f}: "
              f"{stats.TAIL_BEYOND} of {n} samples beyond it")
    print(f"  work_per_s  {wps:.6g} 1/s  [{raw_wps:.6g}]  {workload.unit}s per second "
          f"of op time")
    print(f"  fail_share  {stats.fail_share(results):.4f}  {len(fails)} of {len(results)} ops")
    print(f"  peak_rss_mb {rss_mb:.1f} MB")
    for r in fails:
        print(f"  FAILED {r.label}: {r.note}")
    return {"setup_s": setup_s, "op_p50_s": p50, "op_tail_s": tail,
            "work_per_s": wps, "peak_rss_mb": rss_mb}


def report_traced(workload, run, tracer, seed):
    """Per-layer table of a traced run, its times in reference seconds.  The
    gap between each op's traced and untraced time is the tracing overhead."""
    results = run.results
    scale = run.scale()
    table, layer_self, selfs = tracer.layer_table(run.widenings)
    for k in table:
        if k.endswith("_s"):
            table[k] *= scale
    layer_self["jets"] = table["jets.self_s"] / scale
    op_wall = sum(r.seconds for r in results)
    untraced = sum(run.untraced_s)
    table["trace.overhead_share"] = op_wall / untraced - 1.0
    total = sum(layer_self.values())
    print(f"workload {workload.name} (traced): {len(results)} ops in {run.rounds} round(s), "
          f"{sum(1 for r in results if not r.ok)} failed, {len(tracer.spans)} spans")
    print(f"  host speed: times in the table are reference seconds (raw x {scale:.4f})")
    print(f"  self time by layer, ops only ({total:.2f} raw s):")
    for layer in ("jets", "metrics", "minkowski", "geodesics", "curvature", "measures", "cli"):
        s = layer_self.get(layer, 0.0)
        print(f"    {layer:10s} {s:9.3f} s  {100.0 * s / total:5.1f}%")
    print("  jets by op kind (outermost calls): " + ", ".join(
        f"{k} {tracer.jet_counts[k]} calls {tracer.jet_seconds[k]:.3f} s"
        for k in ("mul", "add", "series", "lift", "other")))
    for k, v in table.items():
        print(f"  {k:38s} {v:.6g}")
    print(f"  tracing overhead: ops took {op_wall:.2f} raw s traced and {untraced:.2f} raw s "
          f"untraced, each op run both ways back to back")
    for r in results:
        if not r.ok:
            print(f"  FAILED {r.label}: {r.note}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload.name}-seed{seed}.trace.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": seed, "layers": table,
                             "layer_self_s": dict(layer_self),
                             "span_fields": ["name", "start", "end", "parent", "op",
                                             "jets_s", "size", "self_s"],
                             "ops": [r.label for r in results]}) + "\n")
        for rec, s in zip(tracer.spans, selfs):
            fh.write(json.dumps(rec + [s]) + "\n")
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finslerlab", "__init__.py")):
        print(f"error: no finslerlab sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        setup_s, kernel_s = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setups = [timed_setup(workload, args.seed, tracer)]
    faults = [f"set-up: {f}" for f in workload.self_check()]  # untimed
    if not args.trace:
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        run = run_rounds(workload, args.seed, args.seconds)
        metrics = report_untraced(workload, run, setups)
    else:
        run = run_traced(workload, args.seed, tracer)
        metrics = report_traced(workload, run, tracer, args.seed)
    results = run.results
    faults += run.faults
    for f in faults:
        print(f"  FAILED check {f}")

    # the metrics BENCHMARK.json declares, in its units
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not faults and not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "metrics": {m["name"]: {"value": _finite(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def _finite(v):
    """JSON has no infinity: a metric made infinite by failed ops (or left
    undefined by too few samples) reads as the largest float, the worst."""
    if v is None or v != v or v in (float("inf"), float("-inf")):
        return sys.float_info.max
    return v


if __name__ == "__main__":
    sys.exit(main())
