"""Repeat the benchmark over seeds and summarise its run-to-run spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--trace] [--out FILE]

For every workload of BENCHMARK.json this runs `perfbench/run.py` once per
seed, at the file's run_seconds, then reports each end-to-end metric's median,
quartiles, sample count and spread (quartile distance over the median, as
`statistics.quantiles(n=4)` gives them) against the metric's bound. With
--trace it also makes one traced run per workload and keeps its per-layer
table. --out writes the whole summary as JSON (perfbench/baseline.json is the
recorded baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return json.loads(lines[-1]), env


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, env = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} calibration_s="
                  f"{env['calibration_s']:.4f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"runs": len(runs), "failed_ops": sum(r["failed"] for r in runs),
                 "attempted_ops": sum(r["attempted"] for r in runs), "environment": env,
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "unit": runs[0]["metrics"][name]["unit"], "spread": spread, "bound": bound}
            flag = ("ok" if spread < bound / 3
                    else "WITHIN BOUND" if spread <= bound else "TOO WIDE")
            print(f"  {workload} {name}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {spread:.3f} bound {bound} [{flag}]", flush=True)
        if args.trace:
            result, _ = run_once(workload, parse_seeds(args.seeds)[0], seconds, 1)
            entry["traced"] = {"correct": result["correct"], "failed_ops": result["failed"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
