#!/usr/bin/env python3
"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/all.py [--runs 10] [--seconds 20] [--out FILE]

Each workload runs ``--runs`` times untraced, with seeds 1..runs, each in its
own process so that peak memory is per run, and then once traced with seed 1.
For every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median over the runs are printed; for the traced run, every
per-layer metric.  ``--out`` writes the same as JSON (see baseline.json).
The exit code is 0 only when every run was correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    """One run of run.py in a child process: (record, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("run.py %s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", help="also write the summary as JSON to this file")
    args = p.parse_args(argv)

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        runs = [run_once(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced_record, traced = run_once(name, 1, args.seconds, 1)
        records = [r for r, _ in runs] + [traced_record]
        results = [res for _, res in runs] + [traced]
        all_correct &= all(res["correct"] for res in results)
        attempted = sum(res["attempted"] for res in results)
        failed = sum(res["failed"] for res in results)
        entry = {
            "correct": all(res["correct"] for res in results),
            "failed_frac": failed / attempted,
            "attempted": attempted,
            "digests": sorted({r["digest"] or "none" for r in records}),
            "stamp": {k: v for k, v in runs[0][0]["stamp"].items() if k != "seed"},
            "end_to_end": {},
            "raw_median": {m: statistics.median(r["raw"][m] for r, _ in runs)
                           for m in runs[0][0]["raw"]},
            "item_ms_p99_percentile": runs[0][0]["item_ms_p99_percentile"],
            "per_layer": traced["metrics"],
            "slowest_seed_1": runs[0][0]["slowest"],
        }
        print("%s  correct=%s  failed_frac=%g of %d  digest=%s" % (
            name, entry["correct"], entry["failed_frac"], attempted, ",".join(entry["digests"])))
        for metric, first in runs[0][1]["metrics"].items():
            stats = summarize([res["metrics"][metric]["value"] for _, res in runs])
            stats.update(unit=first["unit"], samples=runs[0][0]["samples"][metric])
            entry["end_to_end"][metric] = stats
            print("  %-44s %14.6g %-6s q1 %-12.6g q3 %-12.6g spread %.3f  (%d runs, %d samples)"
                  % (metric, stats["median"], stats["unit"], stats["q1"], stats["q3"],
                     stats["spread"], len(runs), stats["samples"]))
        if entry["item_ms_p99_percentile"] != 99:
            print("  (item_ms_p99 is p%d: too few items for p99)" % entry["item_ms_p99_percentile"])
        print("  raw, uncalibrated medians: " + json.dumps(entry["raw_median"], sort_keys=True))
        for metric, m in traced["metrics"].items():
            print("  %-44s %14.6g %s" % (metric, m["value"], m["unit"]))
        summary["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
