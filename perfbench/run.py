"""Benchmark of the qci command line, end to end and per layer.

    python3 perfbench/run.py --workload verify-gfp --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One process runs one workload as a closed loop with a single client: each
CLI call starts after the previous one returned.  The run

1. sets up five times (fresh import of qci, seeded input files, warm-up
   calls), after one untimed set-up that searches the seeded inputs, and
   reports the median as `setup_s`;
2. with `--trace 0`, repeats timed passes over the workload's operations for
   about `--seconds` seconds and reports the end-to-end metrics.  Their times
   are in reference seconds (see `reference.py`): a fixed computation is timed
   between operations, so that the host's drifting speed cancels out;
3. with `--trace 1`, runs one untraced and one traced pass over the same
   inputs and reports the per-layer metrics, plus the tracing overhead.

Every operation's output is checked.  A human-readable table goes to stdout,
then, as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import LayerTracer, qci_modules, unit_of
from reference import ReferenceClock
from workloads import DRAWS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def fresh_import():
    """Import qci (and its CLI) anew, as a new process would."""
    for name in [n for n in sys.modules if n == "qci" or n.startswith("qci.")]:
        del sys.modules[name]
    qci = importlib.import_module("qci")
    importlib.import_module("qci.cli")
    return qci


def run_ops(ops, tally, samples, clock=None, tracer=None) -> list:
    """Run and check ops in order; add each (seconds, tick) to samples[label][key].

    With a clock, a reference call is timed before each op and `tick` is its
    index, else tick is None.  Returns the (seconds, tick) of every op; the
    seconds are those spent inside the operation, its check excluded.
    """
    records = []
    for op in ops:
        tally.attempted += 1
        tick = clock.tick() if clock is not None else None
        start = time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                result = op.run()
            elapsed = time.perf_counter() - start
            problem = op.check(result)
        except Exception:  # an unexpected exception is a failed operation
            elapsed = time.perf_counter() - start
            problem = traceback.format_exc()
        if problem:
            tally.failed += 1
            print(f"FAILED {op.label}: {problem}", file=sys.stderr)
        samples.setdefault(op.label, {}).setdefault(op.key, []).append((elapsed, tick))
        records.append((elapsed, tick))
    return records


def raw_seconds(records) -> float:
    return sum(seconds for seconds, _ in records)


def set_up(name, seed, workdir, tally, repeats, clock=None):
    """Set up once untimed, then `repeats` times timed.

    The untimed set-up searches the seeded Yes draws, whose number of
    rejected draws depends on the seed rather than on qci (see
    `workloads.draw_yes`); the timed ones decide only the accepted draws.
    Returns (qci, plan, (seconds, tick) of each timed set-up).
    """
    setups = []
    for i in range(1 + repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        tick = clock.tick() if clock is not None and i else None
        start = time.perf_counter()
        qci = fresh_import()
        plan = WORKLOADS[name](qci, seed, str(workdir))
        run_ops(plan.warmup, tally, {})
        if i:
            setups.append((time.perf_counter() - start, tick))
    if clock is not None:
        clock.tick()
    # what set-up left behind is not the CLI's heap: keep it out of collections
    gc.collect()
    gc.freeze()
    return qci, plan, setups


def timed_passes(plan, seconds, tally, clock):
    """Passes until about `seconds` have gone, at least one per draw.

    Returns (the records of each pass, samples by label and input).
    """
    passes, samples = [], {}
    start = time.perf_counter()
    while True:
        passes.append(run_ops(plan.ops(len(passes)), tally, samples, clock))
        elapsed = time.perf_counter() - start
        if len(passes) >= DRAWS and elapsed + elapsed / len(passes) > seconds:
            clock.tick()
            return passes, samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(args, workdir, tally):
    clock = ReferenceClock()
    _, plan, setups = set_up(args.workload, args.seed, workdir, tally, SETUP_REPEATS, clock)
    passes, samples = timed_passes(plan, args.seconds, tally, clock)

    def in_reference_s(records):
        return [seconds * clock.factor(tick) for seconds, tick in records]

    def mean_of_medians(groups):
        """The mean of each group's median, so every input weighs the same."""
        return statistics.fmean(statistics.median(group) for group in groups)

    setup_s = statistics.median(in_reference_s(setups))
    medians = {label: mean_of_medians(in_reference_s(records) for records in by_key.values())
               for label, by_key in samples.items()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (mean_of_medians([sum(in_reference_s(p)) for p in passes[d::DRAWS]]
                                   for d in range(DRAWS)), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "small_s": (medians[plan.small], "s"),
        "large_s": (medians[plan.large], "s"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"small_s = {plan.small}, large_s = {plan.large}")
    print(f"  machine speed {clock.speed():.3f} of the reference machine "
          f"(median of {len(clock.refs)} reference calls); times in reference seconds, "
          f"raw seconds in brackets")
    print(f"  {'setup_s':<20} {setup_s:12.4f} s      (median of {SETUP_REPEATS} set-ups; "
          f"raw {statistics.median(s for s, _ in setups):.4f})")
    print(f"  {'wall_s':<20} {metrics['wall_s'][0]:12.4f} s      ({len(passes)} passes; "
          f"raw {statistics.median(raw_seconds(p) for p in passes):.4f})")
    print(f"  {'fail_frac':<20} {tally.failed / max(tally.attempted, 1):12.4f} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"  {'peak_rss_mib':<20} {metrics['peak_rss_mib'][0]:12.1f} MiB")
    for label, value in medians.items():
        records = [record for by_key in samples[label].values() for record in by_key]
        times = in_reference_s(records)
        raw = statistics.median(s for s, _ in records)
        print(f"  {label:<20} {value:12.4f} s      ({len(times)} calls on "
              f"{len(samples[label])} inputs; "
              f"min {min(times):.4f}, max {max(times):.4f}; raw {raw:.4f})")
    for label, value in plan.derived(medians).items():
        print(f"  {label:<20} {value:12.1f} 1/s")
    return metrics


def per_layer(args, workdir, tally):
    qci, plan, _ = set_up(args.workload, args.seed, workdir, tally, 1)
    untraced = raw_seconds(run_ops(plan.ops(0), tally, {}))
    tracer = LayerTracer(qci_modules(qci))
    traced = raw_seconds(run_ops(plan.ops(0), tally, {}, tracer=tracer))
    values = tracer.metrics()
    values["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                 "spans": tracer.spans}))
    print(f"workload {args.workload}, seed {args.seed}: one pass untraced "
          f"{untraced:.4f} s, traced {traced:.4f} s; spans in {spans}")
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:16.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qci" / "__init__.py").is_file():
        print(f"error: no qci sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))

    tally = Tally()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        report = per_layer if args.trace else end_to_end
        metrics = report(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
