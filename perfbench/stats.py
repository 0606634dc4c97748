"""The benchmark's own arithmetic: end-to-end metrics from op results, and
self time from spans.  Pure functions, so the tests can pin them down."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it


@dataclass
class OpResult:
    kind: str
    label: str
    seconds: float
    ok: bool          # ran, and its output passed the benchmark's check
    wrong: bool       # returned an output that failed the check
    units: float      # work units credited (0 unless ok)
    note: str = ""    # error or check message of a failed op


def op_times(results):
    """Wall time per op, with +inf for a failed op: a failure misses every
    latency limit, so fixing one can only make the timings read better."""
    return [r.seconds if r.ok else math.inf for r in results]


def op_p50(results):
    return statistics.median(op_times(results))


def op_tail(results):
    """(value, percentile, samples): the highest percentile of op time with
    at least TAIL_BEYOND samples beyond it.  value and percentile are None
    when there are not enough samples."""
    times = sorted(op_times(results))
    n = len(times)
    k = n - TAIL_BEYOND  # 1-based rank of the reported sample
    if k < 1:
        return None, None, n
    return times[k - 1], 100.0 * k / n, n


def work_per_s(results):
    """Work units of correct ops per second of timed op wall time; failed
    ops add their time to the denominator and nothing to the numerator."""
    wall = sum(r.seconds for r in results)
    return sum(r.units for r in results if r.ok) / wall


def fail_share(results):
    return sum(1 for r in results if not r.ok) / len(results)


def local_scales(kernel_s, per_op, window, reference):
    """One factor per op from raw to reference seconds: `reference` over the
    median speed-kernel time of the ops within `window` places of it.
    `kernel_s` holds `per_op` kernel timings taken after each op in turn."""
    n = len(kernel_s) // per_op
    out = []
    for i in range(n):
        lo, hi = max(0, i - window), min(n, i + window + 1)
        out.append(reference / statistics.median(kernel_s[lo * per_op:hi * per_op]))
    return out


def scaled(results, factors):
    """The results with each op's time multiplied by its factor."""
    return [replace(r, seconds=r.seconds * f) for r, f in zip(results, factors)]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# A span is a list [name, start, end, parent index or -1, op id,
# aggregated seconds, size].  "aggregated seconds" is time spent directly
# inside the span in calls that are counted but not recorded as spans (jet
# arithmetic); "size" is a per-name quantity such as the points of a batch.
NAME, START, END, PARENT, OP, AGG, SIZE = range(7)


def self_times(spans):
    """Self time of every span: its duration minus the part of it covered by
    its child spans (their union, clipped to the span) and minus its
    aggregated time."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append(hi - lo - covered - s[AGG])
    return out


def layer_of(name):
    return name.split(".", 1)[0]
