"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/repeat.py [--workload W ...] [--seeds 1-10] [--trace 0] [--out FILE]

Without --workload it runs all three workloads.  For every workload and
metric it prints the median of the runs, with its unit, and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Runs are sequential, so they do not compete for the CPU.  It exits with 1
when a run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(spec, workload, seeds, trace) -> dict | None:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(result, seed=seed))
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median and len(values) > 1 else float("nan")
        bound = bounds.get(name)
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "iqr_over_median": spread, "bound": bound, "values": values}
        flag = ""
        if bound is not None and not math.isnan(spread):
            flag = "  ok" if spread < bound / 3 else "  WIDE"
        print(f"{workload:15s} {name:48s} median {median:12.6g} {first['unit']:8s} "
              f"iqr/median {spread:.4f}" + (f" bound {bound}" if bound else "") + flag)
    return {"workload": workload, "trace": trace, "seeds": seeds, "metrics": summary,
            "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", default=None)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summaries = []
    for workload in names:
        summary = summarize(spec, workload, args.seeds, args.trace)
        if summary is None:
            return 1
        summaries.append(summary)
    if args.out:
        out = summaries[0] if len(summaries) == 1 else summaries
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
