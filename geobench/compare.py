"""List every metric of two benchmark reports and mark the ones that moved.

    python3 geobench/compare.py BEFORE.json AFTER.json

Reports are the JSON files ``run.py`` writes under ``.gb/reports/``.
Per-layer metrics come from traced reports (``--trace 1``), end-to-end
metrics from untraced ones; whichever both reports carry are listed.
A metric with a bound in ``BENCHMARK.json`` is marked ``*`` when it
moved by more than that bound; any other metric when it moved by more
than BEFORE's own job-time spread (interquartile range ÷ median), the
noise of that run.  The contention probe of each report is printed
beside the table: when one side ran on a busier host, its moves are
suspect, and the metrics themselves are never rescaled.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def bounds() -> dict[str, float]:
    return {m["name"]: m["bound"]
            for m in load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}


def probe_ms(report: dict) -> float:
    probes = [j["probe_ms"] for j in report["jobs"] if "probe_ms" in j]
    return statistics.median(probes) if probes else float("nan")


def spread(report: dict) -> float:
    """Interquartile range ÷ median of the report's job times."""
    q1, q2, q3 = report["job_s_quartiles"]
    return (q3 - q1) / q2


def moves(before: dict, after: dict, bound: dict[str, float]) -> list[tuple]:
    """(section, metric, before, after, change, limit, flagged) per metric
    both reports carry; change is a share of ``before`` (None when it is
    0) and limit the move that flags it."""
    noise = spread(before)
    rows = []
    for section in ("end_to_end", "per_layer"):
        a, b = before.get(section) or {}, after.get(section) or {}
        for name in a:
            if name not in b:
                continue
            limit = bound.get(name, noise)
            change = (b[name] - a[name]) / abs(a[name]) if a[name] else None
            flagged = (b[name] != 0 if change is None
                       else abs(change) > limit)
            rows.append((section, name, a[name], b[name], change, limit,
                         flagged))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if before["workload"] != after["workload"]:
        print("warning: reports are of different workloads", file=sys.stderr)
    pa_, pb = probe_ms(before), probe_ms(after)
    print(f"workload {before['workload']}: seeds {before['seed']} -> "
          f"{after['seed']}; contention probe {pa_:.2f} -> {pb:.2f} ms"
          + ("  (hosts differ by >25%: moves may be contention)"
             if abs(pb - pa_) > 0.25 * min(pa_, pb) else ""))
    for sec, name, a, b, ch, limit, flagged in moves(before, after,
                                                      bounds()):
        pct = "    new" if ch is None else f"{ch:+7.1%}"
        print(f"{'*' if flagged else ' '} {sec:10s} {name:42s} "
              f"{a:12.4f} {b:12.4f} {pct} (limit {limit:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
