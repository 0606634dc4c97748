"""Run the benchmark over several seeds and summarise each end-to-end metric
by its median, quartiles and spread (quartile distance over median).

    python3 perfbench/sweep.py --workloads verify polar_volume --seeds 1-10 \\
        --out perfbench/out/sweep.json

With --traced-seed it also keeps one traced run's layer table per workload;
perfbench/BASELINE.json is this script's output with all three workloads.
Run from the repository root.  Runs are made one after another.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    """The JSON result of one run, and the scaled set-up samples it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    setup = [ln for ln in lines if ln.startswith("  setup_s ")]
    samples = [float(v) for v in re.findall(r"([0-9.]+) \[", setup[0])] if setup else []
    return json.loads(lines[-1]), samples


def summary(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def summarise(runs, bounds):
    return {name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summary([r["metrics"][name]["value"] for r in runs], bounds.get(name))}
            for name in runs[0]["metrics"]}


def host():
    import numpy
    import scipy

    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs; "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--traced-seed", type=int,
                    help="also make one traced run per workload and keep its layer table")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"command": " ".join(["python3", "perfbench/sweep.py"] + sys.argv[1:]),
              "run_seconds": bench["run_seconds"], "host": host(),
              "times": "reference seconds: raw seconds scaled by a speed kernel timed in "
                       "the same run (see NOTES.md)",
              "workloads": {}}
    for w in args.workloads:
        runs = []
        setups = []
        for s in args.seeds:
            res, samples = run_once(w, s, bench["run_seconds"])
            runs.append(res)
            setups.append(samples)
            print(f"{w} seed {s}: attempted {res['attempted']} failed "
                  f"{res['failed']} correct {res['correct']}", flush=True)
        end_to_end = summarise(runs, bounds)
        report["workloads"][w] = entry = {
            "seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs), "end_to_end": end_to_end}
        if all(setups):
            # is the median of a run's set-ups steadier than its first set-up alone?
            entry["setup_first_only"] = summary([s[0] for s in setups])
            entry["setup_samples"] = setups
        if args.traced_seed is not None:
            traced, _ = run_once(w, args.traced_seed, bench["run_seconds"], trace=1)
            path = os.path.join(HERE, "out", f"{w}-seed{args.traced_seed}.trace.jsonl")
            with open(path) as fh:
                head = json.loads(fh.readline())
            total = sum(head["layer_self_s"].values())
            entry["traced"] = {
                "seed": args.traced_seed, "attempted": traced["attempted"],
                "failed": traced["failed"], "correct": traced["correct"],
                "layers": head["layers"],
                "self_share": {k: v / total for k, v in head["layer_self_s"].items()}}
            print(f"  traced seed {args.traced_seed}: " + ", ".join(
                f"{k} {100 * v:.1f}%" for k, v in entry["traced"]["self_share"].items()),
                flush=True)
        if "setup_first_only" in entry:
            print(f"  set-up spread: first set-up only "
                  f"{entry['setup_first_only']['spread']:.4f}, median of each run's "
                  f"{len(setups[0])} {end_to_end['setup_s']['spread']:.4f}", flush=True)
        for name, m in end_to_end.items():
            flag = "" if m["bound"] is None or m["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"  {name:12s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g}  spread {m['spread']:.4f}"
                  f" (bound {m['bound']}){flag}", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
