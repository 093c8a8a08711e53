"""Run the benchmark over several seeds and summarise each metric.

Each run is a fresh process (``run.py``), one after another.  For every
workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.

    python3 perfbench/repeat.py --workloads sweep,theorem-n5 --seeds 1-10 \\
        --seconds 20 --out perfbench/out/repeat.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        start = time.perf_counter()
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "seeds": args.seeds, "seconds": time.perf_counter() - start,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics}
        print(f"{workload}: {len(runs)} runs in {summary[workload]['seconds']:.0f} s, "
              f"all correct: {summary[workload]['all_correct']}")
        for name, m in metrics.items():
            print(f"  {name:40s} median {m['median']:12.6g}  spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
