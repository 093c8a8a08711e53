"""nervecheck benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics, with times scaled to nominal host speed (see
calibrate.py).  ``--trace 1`` runs one untraced and one traced pass
and reports per-layer self time and call counts (see spans.py).  Every
item's output is checked either way.  Progress goes to stderr, a record
of the run to ``perfbench/out/``, and the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Meter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def _probe_setup(workload: str) -> float:
    """Seconds from launching a fresh interpreter to its set-up being done."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready


class Tally:
    """Per-item times over passes, with attempt and failure counts."""

    def __init__(self, items):
        self.items = items
        self.times = [[] for _ in items]
        self.slowdowns = []  # per metered pass
        self.simplices = [0] * len(items)
        self.notes = [None] * len(items)
        self.attempted = self.failed = 0

    def run_pass(self, wl, meter=None, **kw) -> float:
        """Run every item once; return the pass's wall time.

        With a meter, the host's speed is measured after each item, and
        the pass's slowdown is kept for ``scaled_wall_s``.
        """
        for k, item in enumerate(self.items):
            gc.collect()
            start = time.perf_counter()
            try:
                out = wl.run(item, **kw)
            except Exception as err:  # a raising item fails; the run goes on
                out = None
                self.notes[k] = {"error": f"{type(err).__name__}: {err}"}
            self.times[k].append(time.perf_counter() - start)
            if meter is not None:
                meter.follow(self.times[k][-1])
            if out is None:
                self.attempted += 1
                self.failed += 1
                continue
            self.simplices[k] = out.simplices
            self.notes[k] = out.note
            self.attempted += out.attempted
            self.failed += out.failed
        if meter is not None:
            self.slowdowns.append(meter.take())
        return sum(t[-1] for t in self.times)

    def wall_s(self) -> float:
        """One pass, each item at the median of its repeats."""
        return sum(statistics.median(t) for t in self.times)

    def scaled_wall_s(self) -> float:
        """Median over metered passes of the pass's time at nominal speed."""
        return statistics.median(
            sum(t[p] for t in self.times) / slow
            for p, slow in enumerate(self.slowdowns))

    def record(self) -> list:
        return [{"item": str(item), "seconds": t, "simplices": s, "note": n}
                for item, t, s, n in zip(self.items, self.times,
                                         self.simplices, self.notes)]


def timed_run(wl, args) -> tuple[dict, Tally, dict]:
    wl.setup()
    tally = Tally(wl.make_items(args.seed, OUT))
    start = time.perf_counter()
    first = tally.run_pass(wl)
    # the kernel has not run yet, so this peak is the program's alone
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meter = Meter()  # the first pass's slowdown is measured right after it
    meter.follow(first)
    tally.slowdowns.append(meter.take())
    passes = 1
    setup = []
    for _ in range(SETUP_SAMPLES):
        ready = _probe_setup(args.workload)
        meter.follow(ready)
        setup.append((ready, meter.take()))
    while True:
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > args.seconds:
            break
        tally.run_pass(wl, meter)
        passes += 1
    wall = tally.scaled_wall_s()
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(ready / slow for ready, slow in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "simplices_per_s": (sum(tally.simplices) / wall, "1/s"),
    }
    return metrics, tally, {"passes": passes, "setup_samples": setup,
                            "slowdowns": tally.slowdowns,
                            "unscaled_wall_s": tally.wall_s()}


SUITE_UNITS = {"suites.overhead_s": "s", "suites.check_ms.p50": "ms",
               "suites.check_ms.p90": "ms", "suites.jobs_speedup": "ratio"}


def _suite_metrics(checks: list[float], plain: Tally, jobs_wall: float) -> dict:
    """run_suite time outside checks, check-time percentiles, --jobs gain."""
    values = {"suites.overhead_s": plain.wall_s() - sum(checks) / 1000,
              "suites.check_ms.p50": statistics.median(checks),
              "suites.check_ms.p90": statistics.quantiles(checks, n=10)[8],
              "suites.jobs_speedup": plain.wall_s() / jobs_wall}
    return {k: (v, SUITE_UNITS[k]) for k, v in values.items()}


def traced_run(wl, args) -> tuple[dict, Tally, dict]:
    from spans import Tracer, unit_of
    from workloads import Sweep

    tracer = Tracer()
    tracer.install()
    wl.setup()
    tracer.uninstall()
    plain = Tally(wl.make_items(args.seed, OUT))
    plain.run_pass(wl)
    suite = {k: (0.0, unit) for k, unit in SUITE_UNITS.items()}
    if isinstance(wl, Sweep):
        checks = [c.wall_ms for rep in wl.reports.values() for c in rep.checks]
        jobs = Tally(plain.items)
        jobs_wall = jobs.run_pass(wl, jobs=os.cpu_count() or 1)
        plain.attempted += jobs.attempted
        plain.failed += jobs.failed
        suite = _suite_metrics(checks, plain, jobs_wall)
    traced = Tally(plain.items)
    tracer.phase = "pass"
    tracer.install()
    traced.run_pass(wl)
    tracer.uninstall()
    metrics = {name: (value, unit_of(name)) for name, value in tracer.totals().items()}
    metrics.update(suite)
    metrics["trace.overhead_s"] = (traced.wall_s() - plain.wall_s(), "s")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    extra = {"untraced_wall_s": plain.wall_s(), "traced_wall_s": traced.wall_s(),
             "spans": tracer.dump()}
    return metrics, plain, extra


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "nervecheck" / "cli.py").is_file():
        print(f"perfbench: no nervecheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print("perfbench: nervecheck was not imported from src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    run = traced_run if args.trace else timed_run
    metrics, tally, extra = run(wl, args)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(vars(args), result=result, items=tally.record(), **extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, default=str))
    for k, (v, u) in metrics.items():
        print(f"{k:42s} {v:14.6g} {u}", file=sys.stderr)
    print(f"{'fail_ratio (failed / attempted)':42s} {tally.failed / tally.attempted:14.6g} 1",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
