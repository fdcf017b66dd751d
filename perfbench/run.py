#!/usr/bin/env python3
"""Run one benchmark workload against the package in this checkout's src/.

    python3 perfbench/run.py --workload oracle_corpus --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller in one process and one
thread: an item is issued only after the previous one has finished, and
every result is checked against its known answer and against the reference
output digest in reference.json.  Items are run pass after pass in a fixed
order, in blocks; the run stops at the first block boundary after
``--seconds`` once at least one whole pass is done.

With ``--trace 0`` the end-to-end metrics are reported.  Each item's latency
is the mean of its samples, and every item of the pass counts once, so the
metrics do not depend on where in a pass the run stopped:

* items_per_s   items verified per second, i.e. 1 / mean item latency
* item_ms_p50   median item latency
* item_ms_p99   99th-percentile item latency; a pass with too few items for
                ten samples beyond it uses the highest percentile that has
                them, or the median (the percentile used is printed)
* setup_s       import plus input generation, median of several set-ups
* peak_rss_mib  peak resident memory of the process

Times are calibrated to a reference machine speed (calibrate.py), because
on a shared host the raw speed drifts by up to 2x; the raw figures are in
the record line.

With ``--trace 1`` the package's public functions are wrapped (tracer.py),
the per-layer metrics are reported, and the same items are then run again
untraced to measure the tracer's overhead.  Per-layer times are raw wall
time and are not calibrated.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record: the stamp, sample counts, digests and slowest items.
The exit code is 0 only when every item was correct.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 30
SLOWEST = 5
BLOCKS_PER_PASS = 100

clock = time.perf_counter


class SetupError(Exception):
    """The package in src/ cannot be imported."""


# ------------------------------------------------------------------ set-up
def load_package():
    """Import the package afresh from this checkout's src/."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError("no package at %s" % (SRC / PACKAGE))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".corpus")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise SetupError("imported %s from %s, not from %s" % (PACKAGE, pkg.__file__, SRC))
    return pkg


def key_digest(key) -> str:
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def order(items):
    """Fixed, seed-independent order that spreads costly items through a pass."""
    return sorted(items, key=lambda item: key_digest(item.key))


def setup(workload, seed, cal):
    """Import and build the items repeatedly; keep the last build.

    Returns the package, the ordered items and each set-up's calibrated
    and raw seconds.
    """
    calibrated, raw = [], []
    pkg = items = None
    start = clock()
    while len(raw) < SETUP_REPEATS or (clock() - start < SETUP_SECONDS
                                       and len(raw) < SETUP_MAX_REPEATS):
        items = None
        spent = cal.spent
        t0 = clock()
        pkg = load_package()
        items = workload.build(pkg, seed)
        t1 = clock()
        raw.append(t1 - t0 - (cal.spent - spent))
        calibrated.append(raw[-1] * cal.factor(t0, t1))
    return pkg, order(items), calibrated, raw


# --------------------------------------------------------------- measuring
def block_size(n: int) -> int:
    return max(1, math.ceil(n / BLOCKS_PER_PASS))


class Run:
    """What one measuring loop saw: per-item latency sums, calibrated and raw."""

    def __init__(self, n):
        self.total = [0.0] * n
        self.raw_total = [0.0] * n
        self.count = [0] * n
        self.attempted = 0
        self.failed = 0
        self.done = 0
        self.wall = 0.0
        self.blocks = {}
        self.failures = []

    def add(self, idx, seconds, factor):
        self.total[idx] += seconds * factor
        self.raw_total[idx] += seconds
        self.count[idx] += 1

    def latencies(self, calibrated=True):
        """Mean latency of each item that ran."""
        total = self.total if calibrated else self.raw_total
        return [t / c for t, c in zip(total, self.count) if c]


def run_items(pkg, workload, items, reference, seconds, limit=None, tracer=None, cal=None):
    """Closed loop over the items, block by block, until the stop rule holds.

    Stops once at least one whole pass (or ``limit`` items) is done and
    ``seconds`` have passed.  A block whose digest differs from the
    reference counts all its items as failed.  Time spent in the
    calibrator's signal handler is taken out of each item's latency.
    """
    n = len(items)
    size = block_size(n)
    nblocks = math.ceil(n / size)
    want = reference["blocks"] if reference else None
    run = Run(n)
    start = clock()
    while True:
        for b in range(nblocks):
            h = hashlib.sha256()
            bad = 0
            for idx in range(b * size, min(n, (b + 1) * size)):
                item = items[idx]
                if tracer is not None:
                    tracer.item = idx
                spent = cal.spent if cal else 0.0
                t0 = clock()
                try:
                    result = workload.compute(pkg, item)
                    t1 = clock()
                    ok, out = workload.check(item, result)
                except Exception as exc:  # an item that raises is a failed item
                    t1 = clock()
                    ok, out = False, {"raised": type(exc).__name__, "message": str(exc)}
                if cal is None:
                    run.add(idx, t1 - t0, 1.0)
                else:
                    run.add(idx, t1 - t0 - (cal.spent - spent), cal.factor(t0, t1))
                h.update(json.dumps([item.key, out], sort_keys=True).encode() + b"\n")
                if not ok:
                    bad += 1
                    if len(run.failures) < SLOWEST:
                        run.failures.append({"key": item.key, "output": out})
            digest = h.hexdigest()[:16]
            run.blocks.setdefault(b, digest)
            count = min(n, (b + 1) * size) - b * size
            if want is not None and (len(want) != nblocks or want[b] != digest):
                bad = count
            run.attempted += count
            run.failed += bad
            run.done += count
            whole = run.done >= (limit if limit is not None else n)
            if whole and (limit is not None or clock() - start >= seconds):
                run.wall = clock() - start
                if tracer is not None:
                    tracer.item = -1
                return run


def pass_digest(run, n):
    blocks = [run.blocks.get(b) for b in range(math.ceil(n / block_size(n)))]
    if None in blocks:
        return None
    return hashlib.sha256("".join(blocks).encode()).hexdigest()[:16]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(k: int) -> int:
    """99, or the highest percentile with at least ten samples beyond it, or 50."""
    for q in range(99, 50, -1):
        if k - math.ceil(q / 100 * k) >= 10:
            return q
    return 50


# ------------------------------------------------------------------ stamp
def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    """Hash of the package sources measured, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


# ------------------------------------------------------------------- main
def end_to_end(run, items, setup_s, cal):
    """The end-to-end metrics (calibrated), and the raw figures beside them."""
    def figures(lat, setup):
        ordered = sorted(lat)
        return {
            "items_per_s": len(ordered) / sum(ordered),
            "item_ms_p50": 1000 * percentile(ordered, 50),
            "item_ms_p99": 1000 * percentile(ordered, tail_percentile(len(ordered))),
            "setup_s": statistics.median(setup),
        }

    k = sum(1 for c in run.count if c)
    units = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p99": "ms", "setup_s": "s"}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in figures(run.latencies(), setup_s[0]).items()}
    metrics["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"}
    samples = {"items_per_s": k, "item_ms_p50": k, "item_ms_p99": k,
               "setup_s": len(setup_s[0]), "peak_rss_mib": 1}
    ran = [i for i, c in enumerate(run.count) if c]
    slowest = []
    for idx in sorted(ran, key=lambda i: -run.total[i] / run.count[i])[:SLOWEST]:
        slowest.append({"ms": 1000 * run.total[idx] / run.count[idx], **items[idx].key,
                        **(items[idx].note or {})})
    detail = {
        "raw": figures(run.latencies(calibrated=False), setup_s[1]),
        "speed": {"kernel_samples": len(cal.samples),
                  "kernel_ms_median": 1000 * statistics.median(cal.samples),
                  "reference_ms": 1000 * REFERENCE_S},
        "item_ms_p99_percentile": tail_percentile(k),
        "item_samples": sum(run.count),
        "slowest": slowest,
    }
    return metrics, samples, detail


def measure(args, reference):
    workload = WORKLOADS[args.workload]
    record = {"stamp": stamp(args)}
    if args.trace:
        tracer = Tracer()
        pkg = load_package()
        tracer.install()
        t0 = clock()
        items = order(workload.build(pkg, args.seed))
        run = run_items(pkg, workload, items, reference, args.seconds, tracer=tracer)
        traced_wall = clock() - t0
        tracer.uninstall()
        replay = run_items(pkg, workload, items, reference, 0, limit=run.done)
        metrics = tracer.layer_metrics(traced_wall, run.wall / replay.wall - 1)
        record.update({"traced_wall_s": traced_wall, "spans": len(tracer.spans),
                       "untraced_replay_s": replay.wall, "missing_targets": tracer.missing})
        failed = run.failed + replay.failed
        attempted = run.attempted + replay.attempted
        digests = {pass_digest(run, len(items)), pass_digest(replay, len(items))}
    else:
        with Calibrator() as cal:
            pkg, items, *setup_s = setup(workload, args.seed, cal)
            run = run_items(pkg, workload, items, reference, args.seconds, cal=cal)
        metrics, samples, detail = end_to_end(run, items, setup_s, cal)
        record.update({"samples": samples, **detail})
        failed, attempted = run.failed, run.attempted
        digests = {pass_digest(run, len(items))}
    count_ok = len(items) == workload.count
    if not count_ok:
        failed = attempted
    digest = digests.pop() if len(digests) == 1 else None
    record.update({
        "items": len(items), "expected_items": workload.count, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "digest": digest,
        "reference_digest": reference["digest"] if reference else None,
        "measured_s": run.wall, "failures": run.failures,
    })
    correct = (failed == 0 and count_ok and reference is not None
               and digest == reference["digest"])
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def print_report(record, result):
    print("perfbench %(workload)s seed=%(seed)s trace=%(trace)s" % record["stamp"])
    print("  stamp: " + json.dumps(record["stamp"], sort_keys=True))
    samples = record.get("samples", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name in samples:
            extra = "  (%d samples)" % samples[name]
        if name == "item_ms_p99" and record["item_ms_p99_percentile"] != 99:
            extra += "  [p%d: too few items for p99]" % record["item_ms_p99_percentile"]
        print("  %-44s %14.6g %-6s%s" % (name, m["value"], m["unit"], extra))
    print("  %-44s %14.6g %-6s  (%d attempted)" % ("failed_frac", record["failed_frac"],
                                                   "ratio", record["attempted"]))
    print("  digest %s (reference %s)" % (record["digest"], record["reference_digest"]))
    for entry in record.get("slowest", []):
        print("  slow %.3f ms %s" % (entry["ms"], json.dumps(
            {k: v for k, v in entry.items() if k != "ms"}, sort_keys=True)))
    for entry in record["failures"]:
        print("  FAILED %s" % json.dumps(entry, sort_keys=True))


def record_reference(args):
    """Run one pass of the workload and store its block digests."""
    workload = WORKLOADS[args.workload]
    pkg = load_package()
    items = order(workload.build(pkg, args.seed))
    run = run_items(pkg, workload, items, None, 0, limit=len(items))
    if run.failed or len(items) != workload.count:
        print("not recorded: %d failed items, %d of %d items"
              % (run.failed, len(items), workload.count), file=sys.stderr)
        return 1
    blocks = [run.blocks[b] for b in range(len(run.blocks))]
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[args.workload] = {"items": len(items), "blocks": blocks,
                           "digest": pass_digest(run, len(items))}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("recorded %s: %s" % (args.workload, data[args.workload]["digest"]))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run one pass and store its digests in reference.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.record:
            return record_reference(args)
        reference = None
        if REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text()).get(args.workload)
        record, result = measure(args, reference)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print_report(record, result)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
