"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 bench/steadiness.py --workload oracles --seeds 1 2 3 4 5
    python3 bench/steadiness.py --workload cli --seeds 7 7 --trace 1

For every metric it prints the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, beside the metric's bound from BENCHMARK.json.  With
``--trace 1`` it also lists counters that differ between runs of the same
seed; exact counters must not differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append((seed, res))
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                          if v["unit"] not in ("count", "B"))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values}", flush=True)

    print(f"\n{'metric':40s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name in results[0][1]["metrics"]:
        values = [res["metrics"][name]["value"] for _, res in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(med):11.4f}" if med else f"{'-':>11s}"
        else:
            spread = f"{'-':>11s}"
        bound = bounds.get(name)
        print(f"{name:40s} {med:12.6g} {spread} {bound if bound is not None else '':>6}")

    by_seed: dict = {}
    for seed, res in results:
        by_seed.setdefault(seed, []).append(res)
    differing = []
    for seed, runs in by_seed.items():
        for other in runs[1:]:
            for name, metric in runs[0]["metrics"].items():
                if metric["unit"] in ("count", "B") and metric["value"] != other["metrics"][name]["value"]:
                    differing.append(f"seed {seed}: {name} {metric['value']} != {other['metrics'][name]['value']}")
    if differing:
        print("\nexact counters that differ between runs of one seed:")
        print("\n".join(differing))
        return 1
    if any(len(runs) > 1 for runs in by_seed.values()):
        print("\nexact counters identical between runs of the same seed")
    return 0 if all(res["correct"] for _, res in results) else 1


if __name__ == "__main__":
    sys.exit(main())
